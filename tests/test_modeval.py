from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import polycheck as pc
from polycheck import modeval, poly
from polycheck.modeval import (
    CompanionOperator,
    eval_mod_binomial_dense,
    eval_mod_binomial_sparse,
    eval_mod_p_dense,
    eval_mod_p_sparse,
    eval_modprod_companion_sparse,
    leading_coefficients,
    poly_at_companion,
    project_modprod_companion,
    project_poly_companion,
    sparse_leading_coefficients,
)
from polycheck.modverify import VerifyConfig, verify_mod, verify_mod_ff
from polycheck.oracle import oracle_matrix_eval, oracle_mod_product, poly_divmod
from polycheck.prodverify import verify_product_kaminski_nomul
from polycheck.rings import POLY_MUL_OPS, GF2Ext, GFqExt, RngStream
from conftest import (
    counted,
    perturb_poly,
    rand_dense,
    rand_monic_sparse,
    rand_nonzero_coeff,
    rand_sparse,
    rebuilt,
)

Z = pc.ZZ
F2 = pc.GF(2)


def oracle_eval(P, F, G, alpha, ring=None):
    return pc.evaluate(oracle_mod_product(F, G, P), alpha, ring)


class TestEvalModBinomial:
    def test_square_mod_x2_minus_1(self):
        F = pc.DensePoly(Z, [1, 1])
        assert eval_mod_binomial_dense(F, F, 2, 3) == 8

    def test_identity_factor(self, rng):
        F = rand_dense(Z, 9, rng)
        one = pc.DensePoly.one(Z)
        assert eval_mod_binomial_dense(F, one, 10, 4) == pc.evaluate(F, 4)

    def test_truncated_product_mod_small_field(self, rng):
        K = pc.GF(101)
        F = pc.SparsePoly(K, [(0, 2), (7, 2), (14, 1)]).to_dense()
        G = pc.SparsePoly(K, [(0, 3), (8, 5), (13, 3)]).to_dense()
        P = pc.x_pow_minus_one(K, 15)
        want = oracle_eval(P, F.to_sparse(), G.to_sparse(), 2)
        assert eval_mod_binomial_dense(F, G, 15, 2) == want

    def test_sparse_huge_degree_at_one(self):
        K = pc.GF(7)
        n = 10**6
        F = pc.SparsePoly(K, [(0, 1), (n - 1, 1)])
        G = pc.SparsePoly(K, [(n - 1, 1)])
        assert eval_mod_binomial_sparse(F, G, n, 1) == 2

    def test_sparse_constant_multiplier(self, rng):
        F = rand_sparse(Z, 40, 5, rng)
        G = pc.SparsePoly(Z, [(0, 3)])
        assert eval_mod_binomial_sparse(F, G, 41, 2) == 3 * pc.evaluate(F, 2)

    def test_sparse_matches_dense(self, rng):
        for _ in range(120):
            ctx = (Z, pc.GF(13), pc.GF(65537))[rng.below(3)]
            n = 2 + rng.below(40)
            F = rand_sparse(ctx, n, 1 + rng.below(6), rng)
            G = rand_sparse(ctx, n, 1 + rng.below(6), rng)
            a = (rng.below(7) - 3) if ctx == Z else rng.below(ctx.q)
            assert eval_mod_binomial_sparse(F, G, n, a) == eval_mod_binomial_dense(
                F.to_dense(), G.to_dense(), n, a
            )

    def test_degree_precondition(self):
        F = pc.DensePoly(Z, [0, 0, 1])
        with pytest.raises(ValueError):
            eval_mod_binomial_dense(F, F, 2, 1)


@st.composite
def leading_instances(draw):
    """(P, F): P monic of degree n with at most 6 terms and its second
    degree k near n, F sparse of degree < n.  Coefficients are +-1 over Z,
    so pending entries cancel there as they do over GF(2) and GF(3)."""
    ctx = draw(st.sampled_from((F2, pc.GF(3), Z)))
    coeff = st.sampled_from((1, -1)) if ctx == Z else st.integers(1, ctx.q - 1)
    n = draw(st.integers(2, 40))
    k = draw(st.integers(max(0, n - 4), n - 1))
    low = set(draw(st.lists(st.integers(0, k), max_size=4))) | {k}
    P = pc.SparsePoly(ctx, [(e, draw(coeff)) for e in sorted(low)] + [(n, 1)])
    exps = draw(st.lists(st.integers(0, n - 1), max_size=6, unique=True))
    F = pc.SparsePoly(ctx, [(e, draw(coeff)) for e in sorted(exps)])
    return P, F


@st.composite
def quotient_instances(draw):
    """(P, F, ring, p): P monic of degree n in 2..48 with second degree k in
    {1, 2, n/2, n - 1} and up to 4 lower terms, F dense of full degree
    n - 1 or of degree below n/2.  Over GF(2), GF(7) and GF(2^61 - 1) ring
    is None and p is q; over Z the coefficients are small, signed 2048-bit
    and multiples of p, and ring is GF(p)."""
    q = draw(st.sampled_from((2, 7, 2**61 - 1, None)))
    n = draw(st.integers(2, 48))
    k = draw(st.sampled_from(sorted({1, 2, n // 2, n - 1} & set(range(1, n)))))
    if q is None:
        p = draw(st.sampled_from((2, 3, 65537, 2**61 - 1)))
        ctx, ring = Z, pc.PrimeField(p)
        coeff = st.one_of(
            st.integers(-3, 3),
            st.integers(-(2**2048), 2**2048),
            st.integers(-3, 3).map(lambda j: j * p),
        )
    else:
        p, ctx, ring = q, pc.GF(q), None
        coeff = st.integers(0, q - 1)
    nonzero = coeff.filter(bool)
    low = draw(st.dictionaries(st.integers(0, k - 1), nonzero, max_size=4))
    P = pc.SparsePoly.from_dict(ctx, {**low, k: draw(nonzero), n: 1})
    if draw(st.booleans()):
        cs = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1)) + [draw(nonzero)]
    else:
        cs = draw(st.lists(coeff, max_size=n // 2))
    return P, pc.DensePoly(ctx, cs), ring, p


class TestLeadingCoefficients:
    def test_binomial_gives_reversed_tail(self, rng):
        n = 12
        P = pc.x_pow_minus_one(Z, n)
        F = rand_dense(Z, n - 1, rng)
        V = leading_coefficients(P, F)
        assert V == [F.coeff(n - 1 - i) for i in range(n - 1)]

    def test_constant_input_all_zero(self, rng):
        P = rand_monic_sparse(Z, 9, 3, rng)
        V = leading_coefficients(P, pc.DensePoly.one(Z))
        assert V == [0] * 8

    def test_sedimentary_quartic_fixture(self):
        # X^4 + X + 1 shifts of X^3 + 1 over GF(2); frozen from the
        # long-division oracle
        P = pc.SparsePoly(F2, [(0, 1), (1, 1), (4, 1)])
        F = pc.DensePoly(F2, [1, 0, 0, 1])
        assert leading_coefficients(P, F) == [1, 0, 0]

    def test_long_division_cross_check(self, rng):
        # V[i] must equal the top coefficient of (X^i * F) mod P
        for _ in range(40):
            ctx = (Z, F2, pc.GF(13))[rng.below(3)]
            n = 2 + rng.below(14)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(4), rng)
            F = rand_dense(ctx, rng.below(n), rng)
            V = leading_coefficients(P, F)
            Pd = P.to_dense()
            for i in range(n - 1):
                shifted = pc.DensePoly(ctx, [ctx.zero()] * i + list(F.coeffs))
                _, rem = poly_divmod(shifted, Pd)
                assert V[i] == rem.coeff(n - 1), (i, P.terms, F.coeffs)

    @given(quotient_instances())
    def test_the_reversed_quotient_of_long_division(self, inst):
        # v_i is the coefficient of X^(n-2-i) of the quotient of X^(n-1) F
        # by P; over Z at a point of GF(p), modulo p, and an entry i < n - k
        # lies above every write, so it is F's integer as it is
        P, F, ring, p = inst
        n = P.degree()
        V = leading_coefficients(P, F, ring)
        K = pc.GF(p)
        shifted = pc.DensePoly(K, [0] * (n - 1) + list(rebuilt(F, K).coeffs))
        quo, _ = poly_divmod(shifted, rebuilt(P, K).to_dense())
        want = [quo.coeff(n - 2 - i) for i in range(n - 1)]
        if ring is None:
            assert V == want
            return
        assert [v % p for v in V] == want
        k = pc.gap_info(P).second_degree
        assert V[: n - k] == [F.coeff(n - 1 - i) for i in range(min(n - k, n - 1))]
        assert all(v == F.coeff(n - 1 - i) or 0 <= v < p for i, v in enumerate(V))

    def test_quotient_ring_products_follow_the_nonzero_sources(self):
        # the ring-method loop: one product per nonzero source i < k - 1
        # and lower term X^k' of P with k' > i + 1
        class CountingExt(GF2Ext):
            __slots__ = ("muls",)

            def mul(self, a, b):
                self.muls += 1
                return super().mul(a, b)

        K = CountingExt(pc.GF(2), (1, 1, 0, 1))
        n, k = 64, 40
        P = pc.SparsePoly(K, [(0, 3), (1, 7), (5, 1), (k - 9, 6), (k, 5), (n, 1)])
        rng = RngStream(7)
        F = pc.DensePoly(K, [rng.below(8) if rng.below(3) else 0 for _ in range(n)])
        K.muls = 0
        V = leading_coefficients(P, F)
        lows = [e for e, _ in P.terms[:-1]]
        sources = [i for i in range(k - 1) if not K.is_zero(V[i])]
        assert len(sources) < k - 1
        assert K.muls == sum(e > i + 1 for i in sources for e in lows)
        shifted = pc.DensePoly(K, [0] * (n - 1) + list(F.coeffs))
        quo, _ = poly_divmod(shifted, P.to_dense())
        assert V == [quo.coeff(n - 2 - i) for i in range(n - 1)]

    def test_blocks_of_the_gap_over_gf_q(self):
        # over GF(q) the products are int products in blocks of n - k
        # sources, one _plus_multiple per block and lower term whose writes
        # land at or above X^n; the ring's mul is never called
        class CountingField(pc.PrimeField):
            __slots__ = ("muls",)

            def mul(self, a, b):
                self.muls += 1
                return super().mul(a, b)

        K = CountingField(2**61 - 1)
        n = 2**9
        k = 3 * n // 4
        lows = (0, 1, 100, 200, k)
        P = pc.SparsePoly(K, [(e, e + 2) for e in lows] + [(n, 1)])
        F = pc.DensePoly(K, range(1, n + 1))
        K.muls = 0
        with mock.patch.object(poly, "_plus_multiple", wraps=poly._plus_multiple) as spy:
            V = leading_coefficients(P, F)
        assert K.muls == 0
        widths = [len(call.args[2]) for call in spy.call_args_list]
        assert max(widths) == n - k
        assert len(widths) == sum(-(-(e - 1) // (n - k)) for e in lows if e > 1)
        assert sum(widths) == sum(e - 1 for e in lows if e > 1)
        shifted = pc.DensePoly(K, [0] * (n - 1) + list(F.coeffs))
        quo, _ = poly_divmod(shifted, P.to_dense())
        assert V == [quo.coeff(n - 2 - i) for i in range(n - 1)]

    def test_sparse_matches_dense(self, rng):
        for _ in range(80):
            ctx = (Z, F2, pc.GF(13))[rng.below(3)]
            n = 2 + rng.below(100)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(5), rng)
            F = rand_sparse(ctx, n, 1 + rng.below(6), rng)
            dense = leading_coefficients(P, F.to_dense())
            sparse = sparse_leading_coefficients(P, F)
            assert sparse == [(i, v) for i, v in enumerate(dense) if not ctx.is_zero(v)]

    def test_generation_bound(self, rng):
        for _ in range(80):
            n = 4 + rng.below(120)
            P = rand_monic_sparse(Z, n, 2 + rng.below(3), rng)
            F = rand_sparse(Z, n, 1 + rng.below(6), rng)
            out = sparse_leading_coefficients(P, F)
            g = pc.gap_info(P)
            # ceil(1/gamma - 1) = ceil(k / (n - k))
            assert len(out) <= F.sparsity() * P.sparsity() ** -(-g.second_degree // g.gap_width)

    def test_binomial_modulus_length_bound(self, rng):
        P = pc.x_pow_minus_one(Z, 50)
        F = rand_sparse(Z, 50, 7, rng)
        assert len(sparse_leading_coefficients(P, F)) <= F.sparsity()

    def test_zero_input(self):
        P = rand_monic_sparse(Z, 9, 3, RngStream(5))
        assert sparse_leading_coefficients(P, pc.SparsePoly.zero(Z)) == []

    # in each example an entry cancels to zero and is hit again afterwards
    @given(leading_instances())
    @example((pc.SparsePoly(F2, [(2, 1), (3, 1), (5, 1)]),
              pc.SparsePoly(F2, [(1, 1), (3, 1), (4, 1)])))
    @example((pc.SparsePoly(pc.GF(3), [(2, 1), (3, 1), (4, 1)]),
              pc.SparsePoly(pc.GF(3), [(1, 1), (2, 2), (3, 1)])))
    @example((pc.SparsePoly(Z, [(2, 1), (3, 1), (4, 1)]),
              pc.SparsePoly(Z, [(1, -1), (2, 1), (3, -1)])))
    def test_sparse_is_the_nonzero_dense_entries(self, inst):
        P, F = inst
        dense = leading_coefficients(P, F)
        want = [(i, v) for i, v in enumerate(dense) if not P.ctx.is_zero(v)]
        assert sparse_leading_coefficients(P, F) == want


class TestEvalModP:
    def test_binomial_specialization(self, rng):
        n = 20
        P = pc.x_pow_minus_one(Z, n)
        F = rand_dense(Z, n - 1, rng)
        G = rand_dense(Z, n - 1, rng)
        assert eval_mod_p_dense(P, F, G, 3) == eval_mod_binomial_dense(F, G, n, 3)
        Fs, Gs = F.to_sparse(), G.to_sparse()
        assert eval_mod_p_sparse(P, Fs, Gs, 3) == eval_mod_binomial_sparse(Fs, Gs, n, 3)

    def test_unit_multiplier(self, rng):
        P = rand_monic_sparse(Z, 11, 3, rng)
        F = rand_dense(Z, 10, rng)
        one = pc.DensePoly.one(Z)
        assert eval_mod_p_dense(P, F, one, 5) == pc.evaluate(F, 5)
        ones = pc.SparsePoly(Z, [(0, 1)])
        assert eval_mod_p_sparse(P, F.to_sparse(), ones, 5) == pc.evaluate(F, 5)

    def test_oracle_agreement_dense(self, rng):
        K = pc.GF(13)
        P = pc.SparsePoly(K, [(0, 1), (1, 1), (4, 1)])
        for _ in range(60):
            F = rand_dense(K, rng.below(4), rng)
            G = rand_dense(K, rng.below(4), rng)
            a = rng.below(13)
            assert eval_mod_p_dense(P, F, G, a) == oracle_eval(
                P, F.to_sparse(), G.to_sparse(), a
            )

    def test_oracle_agreement_sparse(self, rng):
        for _ in range(120):
            ctx = (Z, F2, pc.GF(65537))[rng.below(3)]
            n = 2 + rng.below(60)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(4), rng)
            F = rand_sparse(ctx, n, 1 + rng.below(6), rng)
            G = rand_sparse(ctx, n, 1 + rng.below(6), rng)
            a = (rng.below(9) - 4) if ctx == Z else rng.below(ctx.q)
            want = oracle_eval(P, F, G, a)
            assert eval_mod_p_sparse(P, F, G, a) == want
            assert eval_mod_p_dense(P, F.to_dense(), G.to_dense(), a) == want

    def test_oracle_agreement_large_scales(self, rng):
        # dense up to degree 512, sparse up to degree 10^6 with T <= 64
        K = pc.GF(65537)
        P = rand_monic_sparse(K, 512, 3, rng)
        F = rand_dense(K, 511, rng)
        G = rand_dense(K, 500, rng)
        a = rng.below(65537)
        want = oracle_eval(P, F.to_sparse(), G.to_sparse(), a)
        assert eval_mod_p_dense(P, F, G, a) == want
        n = 10**6
        # keep the gap wide so the reduction stays sparse at this degree
        Ps = pc.SparsePoly(
            K, [(0, 1 + rng.below(65536)), (rng.below(n // 2), 1 + rng.below(65536)), (n, 1)]
        )
        Fs = rand_sparse(K, n, 64, rng)
        Gs = rand_sparse(K, n, 64, rng)
        a = rng.below(65537)
        assert eval_mod_p_sparse(Ps, Fs, Gs, a) == oracle_eval(Ps, Fs, Gs, a)
        assert eval_mod_binomial_sparse(Fs, Gs, n, a) == oracle_eval(
            pc.x_pow_minus_one(K, n), Fs, Gs, a
        )

    def test_extension_point_evaluation(self, rng):
        K = F2
        ext = pc.ExtField(K, (1, 1, 0, 0, 1))
        for _ in range(40):
            n = 2 + rng.below(30)
            P = rand_monic_sparse(K, n, 1 + rng.below(3), rng)
            F = rand_sparse(K, n, 1 + rng.below(5), rng)
            G = rand_sparse(K, n, 1 + rng.below(5), rng)
            a = ext.sample(rng)
            want = pc.evaluate(oracle_mod_product(F, G, P), a, ext)
            assert eval_mod_p_sparse(P, F, G, a, ext) == want

    def test_no_multiplication_discipline(self, rng):
        P = rand_monic_sparse(F2, 30, 3, rng)
        F = rand_dense(F2, 29, rng)
        G = rand_dense(F2, 29, rng)
        before = POLY_MUL_OPS.count
        eval_mod_p_dense(P, F, G, 1)
        assert POLY_MUL_OPS.count == before


class TestCompanionProjection:
    def test_constant_poly_returns_u(self, rng):
        R = pc.DensePoly(F2, [1, 1, 0, 1])
        op = CompanionOperator(R)
        one = pc.DensePoly.one(F2)
        for _ in range(5):
            u = tuple(rng.below(2) for _ in range(3))
            assert project_poly_companion(one, op, u) == u

    def test_modulus_projects_to_zero(self, rng):
        for q in (2, 5):
            K = pc.GF(q)
            R = pc.DensePoly(K, [rng.below(q) for _ in range(4)] + [1])
            op = CompanionOperator(R)
            u = tuple(rng.below(2) for _ in range(4))
            assert project_poly_companion(R, op, u) == (0, 0, 0, 0)

    def test_matches_matrix_oracle(self, rng):
        for _ in range(60):
            q = (2, 3, 13)[rng.below(3)]
            K = pc.GF(q)
            k = 1 + rng.below(8)
            R = pc.DensePoly(K, [rng.below(q) for _ in range(k)] + [1])
            op = CompanionOperator(R)
            H = rand_dense(K, rng.below(12), rng)
            u = tuple(rng.below(2) for _ in range(k))
            M = oracle_matrix_eval(H, R)
            want = tuple(
                K.canon(sum(u[r] * M[r][c] for r in range(k))) for c in range(k)
            )
            assert project_poly_companion(H, op, u) == want

    def test_zero_vector_linearity(self, rng):
        K = pc.GF(3)
        R = pc.DensePoly(K, [1, 2, 1, 1])
        op = CompanionOperator(R)
        P = rand_monic_sparse(K, 9, 3, rng)
        F = rand_dense(K, 8, rng)
        G = rand_dense(K, 8, rng)
        assert project_modprod_companion(P, F, G, op, (0, 0, 0)) == (0, 0, 0)

    def test_linearity_in_u_gf2(self, rng):
        R = pc.DensePoly(F2, [1, 0, 1, 1, 1])
        op = CompanionOperator(R)
        P = rand_monic_sparse(F2, 12, 3, rng)
        F = rand_dense(F2, 11, rng)
        G = rand_dense(F2, 11, rng)
        for _ in range(20):
            u1 = tuple(rng.below(2) for _ in range(4))
            u2 = tuple(rng.below(2) for _ in range(4))
            ux = tuple(a ^ b for a, b in zip(u1, u2))
            r1 = project_modprod_companion(P, F, G, op, u1)
            r2 = project_modprod_companion(P, F, G, op, u2)
            rx = project_modprod_companion(P, F, G, op, ux)
            assert rx == tuple(a ^ b for a, b in zip(r1, r2))

    def test_modprod_matches_oracle_route(self, rng):
        # u * ((F*G) mod P)(C_R) computed through the oracle product
        for _ in range(50):
            q = (2, 13)[rng.below(2)]
            K = pc.GF(q)
            k = 1 + rng.below(5)
            R = pc.DensePoly(K, [rng.below(q) for _ in range(k)] + [1])
            op = CompanionOperator(R)
            n = 2 + rng.below(14)
            P = rand_monic_sparse(K, n, 1 + rng.below(4), rng)
            F = rand_dense(K, rng.below(n), rng)
            G = rand_dense(K, rng.below(n), rng)
            u = tuple(rng.below(2) for _ in range(k))
            Hm = oracle_mod_product(F.to_sparse(), G.to_sparse(), P).to_dense()
            want = project_poly_companion(Hm, op, u)
            assert project_modprod_companion(P, F, G, op, u) == want

    def test_unit_multiplier(self, rng):
        K = pc.GF(7)
        R = pc.DensePoly(K, [3, 1, 1])
        op = CompanionOperator(R)
        P = rand_monic_sparse(K, 8, 3, rng)
        F = rand_dense(K, 7, rng)
        u = (1, 0)
        want = project_poly_companion(F, op, u)
        assert project_modprod_companion(P, F, pc.DensePoly.one(K), op, u) == want


class TestCompanionMatrixEval:
    def test_identity_product(self, rng):
        K = pc.GF(3)
        R = pc.DensePoly(K, [1, 2, 1])
        op = CompanionOperator(R)
        P = rand_monic_sparse(K, 6, 3, rng)
        one = pc.SparsePoly(K, [(0, 1)])
        want = oracle_matrix_eval(pc.DensePoly.one(K), R)
        assert eval_modprod_companion_sparse(P, one, one, op) == want

    def test_zero_factor(self, rng):
        K = F2
        R = pc.DensePoly(K, [1, 1, 1])
        op = CompanionOperator(R)
        P = rand_monic_sparse(K, 6, 2, rng)
        Zp = pc.SparsePoly.zero(K)
        G = rand_sparse(K, 6, 3, rng)
        assert eval_modprod_companion_sparse(P, Zp, G, op) == ((0, 0), (0, 0))

    def test_matches_matrix_oracle(self, rng):
        for _ in range(60):
            q = (2, 3, 13)[rng.below(3)]
            K = pc.GF(q)
            k = 1 + rng.below(5)
            R = pc.DensePoly(K, [rng.below(q) for _ in range(k)] + [1])
            op = CompanionOperator(R)
            n = 2 + rng.below(50)
            P = rand_monic_sparse(K, n, 1 + rng.below(4), rng)
            F = rand_sparse(K, n, 1 + rng.below(5), rng)
            G = rand_sparse(K, n, 1 + rng.below(5), rng)
            want = oracle_matrix_eval(oracle_mod_product(F, G, P).to_dense(), R)
            assert eval_modprod_companion_sparse(P, F, G, op) == want

    def test_poly_at_companion_agrees(self, rng):
        for _ in range(60):
            q = (2, 5)[rng.below(2)]
            K = pc.GF(q)
            k = 1 + rng.below(6)
            R = pc.DensePoly(K, [rng.below(q) for _ in range(k)] + [1])
            op = CompanionOperator(R)
            H = rand_sparse(K, 60, 1 + rng.below(6), rng)
            assert poly_at_companion(H, op) == oracle_matrix_eval(H.to_dense(), R)
            assert poly_at_companion(H.to_dense(), op) == oracle_matrix_eval(
                H.to_dense(), R
            )


GF2_8 = pc.ExtField(F2, (1, 0, 1, 1, 1, 0, 0, 0, 1))


def _coeffs(ctx):
    if ctx == Z:
        return st.integers(-5, 5)
    if ctx == GF2_8:
        return st.integers(0, 255)
    return st.integers(0, ctx.q - 1)


@st.composite
def scan_instances(draw):
    """(P, F, G, R): general or binomial P of degree n, F and G of degree
    < n, and a monic R of degree k that may be reducible."""
    ctx = draw(st.sampled_from((F2, pc.GF(3), pc.GF(65537), Z, GF2_8)))
    coeffs = _coeffs(ctx)
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        P = pc.x_pow_minus_one(ctx, n)
    else:
        low = draw(st.lists(coeffs, min_size=n, max_size=n))
        P = pc.DensePoly(ctx, low + [ctx.one()]).to_sparse()
    F, G = (pc.DensePoly(ctx, draw(st.lists(coeffs, max_size=n))) for _ in "FG")
    k = draw(st.integers(1, 4))
    R = pc.DensePoly(ctx, draw(st.lists(coeffs, min_size=k, max_size=k)) + [ctx.one()])
    return P, F, G, R


class TestScanAtX:
    @given(scan_instances())
    def test_scans_at_x_give_product_mod_r(self, inst):
        P, F, G, R = inst
        ctx = P.ctx
        op = CompanionOperator(R)
        ring, x = op, op.x
        H = oracle_mod_product(F, G, P)
        rem = poly_divmod(H, R)[1].coeffs
        want = tuple(rem) + (ctx.zero(),) * (op.d - len(rem))
        Fs, Gs = F.to_sparse(), G.to_sparse()
        values = [eval_mod_p_dense(P, F, G, x, ring), eval_mod_p_sparse(P, Fs, Gs, x, ring)]
        n = P.degree()
        if P == pc.x_pow_minus_one(ctx, n):
            values += [eval_mod_binomial_dense(F, G, n, x, ring),
                       eval_mod_binomial_sparse(Fs, Gs, n, x, ring)]
        for value in values:
            assert ring.coeffs(value) == want
        assert poly_at_companion(H, op) == oracle_matrix_eval(H, R)
        assert poly_at_companion(H.to_sparse(), op) == oracle_matrix_eval(H, R)


MIXES = [("dense", "dense"), ("dense", "sparse"), ("sparse", "dense"), ("sparse", "sparse")]


def _as(rep, X):
    return X.to_dense() if rep == "dense" else X.to_sparse()


class TestScanEntry:
    """eval_mod, the one entry into the scans, and the dense scan on every
    mix of dense and sparse F and G, against the oracle's (F*G) mod P."""

    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("binomial", [True, False])
    def test_gf7(self, mix, binomial, rng):
        K = pc.GF(7)
        P = pc.x_pow_minus_one(K, 8) if binomial else pc.SparsePoly(K, [(0, 1), (2, 3), (8, 1)])
        for _ in range(6):
            Fd, Gd = (rand_dense(K, rng.below(8), rng) for _ in "FG")
            F, G = _as(mix[0], Fd), _as(mix[1], Gd)
            for a in (0, 3, rng.below(7)):
                want = oracle_eval(P, Fd, Gd, a)
                assert modeval.eval_mod(P, F, G, a) == want
                assert eval_mod_p_dense(P, F, G, a) == want

    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("binomial", [True, False])
    def test_at_x_of_a_gf2_quotient_ring(self, mix, binomial, rng):
        n = 20
        P = (pc.x_pow_minus_one(F2, n) if binomial
             else pc.SparsePoly(F2, [(0, 1), (3, 1), (n, 1)]))
        ring = CompanionOperator(pc.DensePoly(F2, [1, 0, 1, 1, 0, 1]))
        for _ in range(6):
            Fd, Gd = (rand_dense(F2, rng.below(n), rng) for _ in "FG")
            F, G = _as(mix[0], Fd), _as(mix[1], Gd)
            want = pc.evaluate(oracle_mod_product(Fd, Gd, P).to_dense(), ring.x, ring)
            before = POLY_MUL_OPS.count
            assert eval_mod_p_dense(P, F, G, ring.x, ring) == want
            assert POLY_MUL_OPS.count == before  # the dense scan multiplies none
            assert modeval.eval_mod(P, F, G, ring.x, ring) == want


class TestBinomialRoutes:
    """eval_mod at P = X^n - 1: an all-sparse pair gives what
    eval_mod_binomial_sparse gives, in value and in POLY_MUL_OPS, and only
    a dense pair reaches eval_mod_binomial_dense."""

    @staticmethod
    def _cases(rng):
        """(ctx, n, alpha, ring): x of a GF(2) quotient ring, a random point
        of GF(7), and a point of GF(p) for polynomials over Z."""
        ring = CompanionOperator(pc.DensePoly(F2, [1, 0, 1, 1, 0, 1]))
        yield F2, 40, ring.x, ring
        yield pc.GF(7), 30, rng.below(7), None
        p = 2**61 - 1
        yield Z, 50, rng.below(p), pc.GF(p)

    def test_sparse_pairs_take_the_sparse_scan(self, rng):
        for ctx, n, alpha, ring in self._cases(rng):
            P = pc.x_pow_minus_one(ctx, n)
            for t in (1, 3, 8):
                F, G = (rand_sparse(ctx, n, t, rng) for _ in "FG")
                got = counted(lambda: modeval.eval_mod(P, F, G, alpha, ring))
                want = counted(lambda: eval_mod_binomial_sparse(F, G, n, alpha, ring))
                assert got == want

    def test_only_dense_pairs_reach_the_dense_binomial_scan(self, rng, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("eval_mod_binomial_dense")

        monkeypatch.setattr(modeval, "eval_mod_binomial_dense", broken)
        for ctx, n, alpha, ring in self._cases(rng):
            P = pc.x_pow_minus_one(ctx, n)
            F, G = (rand_sparse(ctx, n, 6, rng) for _ in "FG")
            want = oracle_eval(P, F, G, alpha, ring)
            assert modeval.eval_mod(P, F, G, alpha, ring) == want
            with pytest.raises(RuntimeError, match="^eval_mod_binomial_dense$"):
                modeval.eval_mod(P, F.to_dense(), G.to_dense(), alpha, ring)


def _sparse_of_degree(ctx, d, t, rng):
    """A sparse polynomial of degree exactly d with at most t terms."""
    lower = rand_sparse(ctx, d, t - 1, rng) if d else pc.SparsePoly.zero(ctx)
    return pc.SparsePoly(ctx, list(lower.terms) + [(d, rand_nonzero_coeff(ctx, rng))])


class TestSparseScanShortcut:
    """eval_mod_p_sparse against the oracle on both sides of
    deg F + deg G = deg P: below it (F*G) mod P is F*G and the result is
    F(alpha) G(alpha) with no scan, from it on the scan runs."""

    RINGS = ["Z at GF(p)", "GF(7)", "x in GF(2)[X]/(R)"]

    @pytest.mark.parametrize("kind", RINGS)
    @pytest.mark.parametrize("excess, scans", [(-2, False), (-1, False), (0, True), (1, True)])
    def test_matches_the_oracle(self, kind, excess, scans, rng):
        if kind == "Z at GF(p)":
            ctx, ring = Z, pc.GF(2**61 - 1)
        elif kind == "GF(7)":
            ctx, ring = pc.GF(7), pc.GF(7)
        else:
            ctx, ring = F2, CompanionOperator(pc.DensePoly(F2, [1, 1, 0, 0, 0, 1, 1]))
        spy = mock.patch.object(
            modeval, "sparse_leading_coefficients", wraps=sparse_leading_coefficients
        )
        for n in (3, 4, 9, 40, 1000, 2**40):
            for _ in range(4):
                s = n + excess  # deg F + deg G, each below n
                lo, hi = max(0, s - n + 1), min(n - 1, s)
                d = lo + rng.below(hi - lo + 1)
                F = _sparse_of_degree(ctx, d, 1 + rng.below(5), rng)
                G = _sparse_of_degree(ctx, s - d, 1 + rng.below(5), rng)
                P = rand_monic_sparse(ctx, n, 1 + rng.below(4), rng)
                alpha = ring.x if ctx == F2 else ring.sample(rng)
                want = pc.evaluate(oracle_mod_product(F, G, P), alpha, ring)
                with spy as leading:
                    assert eval_mod_p_sparse(P, F, G, alpha, ring) == want
                assert leading.called == scans


class TestDenseScanShortcut:
    """The dense scan where nothing wraps is F(alpha) G(alpha): it computes
    no leading coefficients and runs no ring.dense_scan at a point of the
    field, called directly or through kaminski-nomul's full-degree check.
    At the class of X, where that product would be a counted polynomial
    multiplication, and on a P that wraps, both run; at X nothing counts in
    POLY_MUL_OPS."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"leading": 0, "scan": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(modeval, "leading_coefficients",
                            counted("leading", leading_coefficients))
        for cls in (pc.PrimeField, GFqExt, GF2Ext):
            monkeypatch.setattr(cls, "dense_scan", counted("scan", cls.dense_scan))
        return calls

    @staticmethod
    def _instance(ctx, ring, n, rng, P=None):
        """Dense F and G of degree n and n - 1 over ctx (32-bit over Z),
        P = X^(2n) - 1 unless given, a random point of ring and the
        oracle's value there."""
        hi = 2**31 - 1 if ctx == Z else 9
        F, G = rand_dense(ctx, n, rng, hi), rand_dense(ctx, n - 1, rng, hi)
        P = P or pc.x_pow_minus_one(ctx, 2 * n)
        alpha = ring.sample(rng)
        return P, F, G, alpha, pc.evaluate(oracle_mod_product(F, G, P), alpha, ring)

    @pytest.mark.parametrize("ctx, ring", [(Z, pc.GF(2**61 - 1)), (pc.GF(65537),) * 2],
                             ids=["Z at GF(p)", "GF(65537)"])
    def test_no_wrap_at_a_point_skips_the_scan(self, ctx, ring, calls, rng):
        for P in (None, rand_monic_sparse(ctx, 200, 4, rng)):
            P, F, G, alpha, want = self._instance(ctx, ring, 99, rng, P)
            assert eval_mod_p_dense(P, F, G, alpha, ring) == want
            assert modeval.eval_mod(P, F, G, alpha, ring) == want
        assert calls == {"leading": 0, "scan": 0}

    @pytest.mark.parametrize("ctx", [Z, pc.GF(65537)], ids=str)
    def test_full_degree_check_skips_the_scan(self, ctx, calls, rng):
        F, G = rand_dense(ctx, 200, rng), rand_dense(ctx, 190, rng)
        H = pc.mul_oracle(F, G)
        for X, verdict in ((H, True), (perturb_poly(H, rng), False)):
            cfg = VerifyConfig(epsilon=Fraction(1, 4), seed=3)
            r = verify_product_kaminski_nomul(F, G, X, cfg)
            assert r.verdict is verdict
            assert r.witnesses[0]["full-degree-fold"] == 391
            assert "alpha" in r.witnesses[0]["inner"][-1]  # a point of the field
        assert calls == {"leading": 0, "scan": 0}

    def test_at_x_the_scan_stays_and_multiplies_nothing(self, calls, rng):
        K = pc.GF(7)
        ring = CompanionOperator(pc.DensePoly(K, [3, 1, 0, 5, 1]))
        F, G = rand_dense(K, 40, rng), rand_dense(K, 39, rng)
        P = pc.x_pow_minus_one(K, 80)
        want = pc.evaluate(oracle_mod_product(F, G, P), ring.x, ring)
        H = pc.mul_oracle(F, G)
        before = POLY_MUL_OPS.count
        assert eval_mod_p_dense(P, F, G, ring.x, ring) == want
        assert POLY_MUL_OPS.count == before
        assert calls["leading"] >= 1 and calls["scan"] >= 1
        calls.update(leading=0, scan=0)
        r = verify_product_kaminski_nomul(F, G, H, VerifyConfig(seed=1))
        assert POLY_MUL_OPS.count == before
        assert r.verdict is True and "modulus" in r.witnesses[0]["inner"][0]
        assert calls["leading"] >= 1 and calls["scan"] >= 1

    def test_a_wrapping_p_scans(self, calls, rng):
        ring = pc.GF(2**61 - 1)
        P, F, G, alpha, want = self._instance(Z, ring, 99, rng, rand_monic_sparse(Z, 150, 4, rng))
        assert eval_mod_p_dense(P, F, G, alpha, ring) == want
        assert calls["leading"] >= 1 and calls["scan"] >= 1


def _towers():
    """GF(2^8)[Y]/(Y^3 + x) and GF(7^2)[Y]/(Y^2 + x), x the class of X in
    the base: quotient rings over a quotient ring, one of each base class."""
    gf2_8 = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])
    gf7_2 = pc.ExtField(pc.GF(7), [1, 0, 1])
    return [pc.ExtField(B, [B.x] + [B.zero()] * (k - 1) + [B.one()])
            for B, k in ((gf2_8, 3), (gf7_2, 2))]


def _tower_poly(T, n, t, rng):
    """A sparse polynomial over T with random coefficients at t random
    exponents below n - 1 and at n - 1, so that a product of two wraps
    modulo a P of degree n."""
    return pc.SparsePoly.from_dict(T, {rng.below(n): T.sample(rng) for _ in range(t)}
                                   | {n - 1: T.x})


def _oracle_value(X, alpha, T):
    """X(alpha) as sum c alpha^e, by T's pow, mul and add."""
    acc = T.zero()
    for e, c in X.terms:
        acc = T.add(acc, T.mul(c, T.pow(alpha, e)))
    return acc


class TestCoefficientsInTheRingItself:
    @pytest.mark.parametrize("T", _towers(), ids=repr)
    def test_towers(self, T, rng):
        """Polynomials over a tower T, evaluated in T itself, dense and
        sparse, and the dense and sparse scans of (F*G) mod P, at T.x and
        at a random point of T, against the oracle."""
        lin = pc.DensePoly(T, [T.one(), T.x])
        assert pc.evaluate(lin, T.x, T) == T.add(T.one(), T.mul(T.x, T.x))
        n = 12
        P = pc.SparsePoly(T, [(0, T.sample(rng)), (5, T.x), (n, T.one())])
        for _ in range(3):
            F, G = (_tower_poly(T, n, 4, rng) for _ in "FG")
            H = oracle_mod_product(F, G, P)
            for alpha in (T.x, T.sample(rng)):
                for X in (F, G, H):
                    want = _oracle_value(X, alpha, T)
                    assert pc.evaluate(X, alpha, T) == want
                    assert pc.evaluate(X.to_dense(), alpha, T) == want
                want = _oracle_value(H, alpha, T)
                assert eval_mod_p_sparse(P, F, G, alpha, T) == want
                assert eval_mod_p_dense(P, F.to_dense(), G.to_dense(), alpha, T) == want


def _gf256_instances(rng, count):
    """(P, F, G) over GF(2^8): P monic of degree 50 with three terms, F and
    G with 3 or 4 terms each and degree at most 49, so the product wraps."""
    K, n = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1]), 50

    def poly(t, top):
        d = {rng.below(top): K.sample(rng) for _ in range(t - 1)}
        d[top] = K.sample(rng) or K.one()
        return pc.SparsePoly.from_dict(K, d)

    for k in range(count):
        P = pc.SparsePoly.from_dict(
            K, {0: K.sample(rng) or K.one(), rng.randint(1, n - 1): K.sample(rng), n: K.one()}
        )
        yield K, P, poly(3 + k % 2, n - 1 - rng.below(5)), poly(4 - k % 2, n - 1 - rng.below(5))


class TestZeroCostsNothing:
    """The generic scans skip a zero leading coefficient: with coefficients
    in the quotient ring itself, where each scaling is a counted product,
    the dense scan makes one product per nonzero v, not per index, and the
    sparse scan stores no 0 at index 0.  Values are the oracle's."""

    # (dense at x, sparse at x, dense at x + 1, sparse at x + 1) products
    # per instance; 55, 38, 164, 51 / 56, 58, 164, 85 / 52, 35, 159, 56 /
    # 56, 46, 162, 64 / 51, 36, 156, 50 when every zero was scaled, and one
    # more in each but the first column when the sparse sum multiplied P's
    # constant term by alpha^0
    COUNTS = [(10, 36, 118, 49), (19, 56, 126, 83), (13, 34, 119, 55),
              (14, 45, 119, 63), (9, 34, 113, 48)]

    def test_counts_in_the_ring_itself(self):
        got = []
        for K, P, F, G in _gf256_instances(RngStream(11), 5):
            want = oracle_mod_product(F, G, P)
            row = []
            for alpha in (K.x, K.add(K.x, K.one())):
                value = pc.evaluate(want, alpha, K)
                for scan, X, Y in ((eval_mod_p_dense, F.to_dense(), G.to_dense()),
                                   (eval_mod_p_sparse, F, G)):
                    before = POLY_MUL_OPS.count
                    got_value = scan(P, X, Y, alpha, K)
                    row.append(POLY_MUL_OPS.count - before)
                    assert got_value == value
            got.append(tuple(row))
        assert got == self.COUNTS

    def test_base_coefficients_count_as_before(self):
        # GF(7) coefficients scale by scalar_mul, which counts nothing, so
        # the zero skip leaves these counts (the scans' products of ring
        # elements and power-table entries) as they were
        rng = RngStream(5)
        K, ring = pc.GF(7), pc.ExtField(pc.GF(7), [3, 1, 0, 5, 1])
        P = pc.SparsePoly(K, [(0, 1), (7, 1), (30, 1)])
        F, G = rand_sparse(K, 30, 3, rng), rand_sparse(K, 30, 4, rng)
        got = []
        for alpha in (ring.x, ring.add(ring.x, ring.one())):
            value = oracle_eval(P, F, G, alpha, ring)
            for scan, X, Y in ((eval_mod_p_dense, F.to_dense(), G.to_dense()),
                               (eval_mod_p_sparse, F, G)):
                before = POLY_MUL_OPS.count
                got_value = scan(P, X, Y, alpha, ring)
                got.append(POLY_MUL_OPS.count - before)
                assert got_value == value
        assert got == [0, 17, 62, 32]


class TestDenseScanPastTheCap:
    """eval_mod_p_dense has no degree cap of its own: past DENSIFY_CAP it
    returns F(alpha) G(alpha) where nothing wraps, and the scan's
    leading_coefficients refuses where something does, before anything is
    made dense."""

    def test_nothing_wraps(self, rng):
        K, n = pc.GF(65537), poly.DENSIFY_CAP
        P = pc.SparsePoly(K, [(0, 1), (3 * n, 1)])
        F = pc.SparsePoly(K, [(0, 2), (n, 5)])
        for G in (pc.SparsePoly(K, [(1, 3), (n + 7, 1)]), pc.DensePoly(K, [1, 1])):
            alpha = K.sample(rng)
            want = K.mul(pc.evaluate(F, alpha, K), pc.evaluate(G, alpha, K))
            assert eval_mod_p_dense(P, F, G, alpha, K) == want

    def test_a_wrap_is_refused(self):
        K, n = pc.GF(65537), poly.DENSIFY_CAP
        P = pc.SparsePoly(K, [(0, 1), (n, 1)])
        F = pc.SparsePoly(K, [(0, 1), (n // 2 + 1, 1)])  # dense, it would fit
        with pytest.raises(ValueError, match=f"^degree {n} too large to densify$"):
            eval_mod_p_dense(P, F, F, 3, K)


class TestEvalModFollowsTheFormRule:
    """eval_mod reads F and G in the forms of triple_forms: past
    DENSIFY_CAP a mixed pair is read sparse, so it gives the value of the
    all-sparse pair instead of refusing the degree."""

    def test_mixed_pair_at_x_past_the_cap(self):
        n = 2**27
        P = pc.x_pow_minus_one(F2, n)  # X^n + 1
        ring = CompanionOperator(pc.DensePoly(F2, [1, 0, 1, 0, 0, 1]))  # degree 5
        F, G = pc.DensePoly(F2, [1, 1]), pc.SparsePoly(F2, [(0, 1), (5, 1)])
        want = pc.evaluate(pc.mul_oracle(F, G.to_dense()), ring.x, ring)  # nothing wraps
        assert modeval.eval_mod(P, F.to_sparse(), G, ring.x, ring) == want
        assert modeval.eval_mod(P, F, G, ring.x, ring) == want
        assert modeval.eval_mod(P, G, F, ring.x, ring) == want

    def test_mixed_pair_that_wraps_past_the_cap(self):
        K, n = pc.GF(7), 2**27
        P = pc.SparsePoly(K, [(0, 1), (1, 1), (n, 1)])
        F, G = pc.DensePoly(K, [1, 1]), pc.SparsePoly(K, [(0, 2), (n - 1, 3)])
        want = pc.mod_reduce(pc.mul_oracle(F.to_sparse(), G), P)
        for a in (0, 3, 5):
            assert modeval.eval_mod(P, F, G, a) == pc.evaluate(want, a, K)


class TestSparseScansReadAnyForm:
    """The public sparse scans read F and G sparse whatever their forms:
    dense and mixed input give the all-sparse value and the dense scan's."""

    def test_the_gf7_example(self):
        K = pc.GF(7)
        P = pc.SparsePoly(K, [(0, 1), (2, 1), (8, 1)])
        F = pc.SparsePoly(K, [(0, 1), (6, 1)])
        G = pc.DensePoly(K, [1, 1, 3, 0, 0, 2, 1])
        assert eval_mod_p_dense(P, F, G, 3) == 3
        for f, g in ((F, G), (G, F), (F.to_dense(), G), (F, G.to_sparse())):
            assert eval_mod_p_sparse(P, f, g, 3) == 3
        assert sparse_leading_coefficients(P, G) == sparse_leading_coefficients(P, G.to_sparse())

    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("ctx", [pc.GF(7), Z], ids=str)
    def test_every_mix(self, mix, ctx, rng):
        for binomial in (True, False):
            P = (pc.x_pow_minus_one(ctx, 12) if binomial
                 else pc.SparsePoly(ctx, [(0, 1), (5, 2), (12, 1)]))
            for _ in range(4):
                Fd, Gd = (rand_dense(ctx, rng.below(12), rng) for _ in "FG")
                F, G = _as(mix[0], Fd), _as(mix[1], Gd)
                want = sparse_leading_coefficients(P, Fd.to_sparse())
                assert sparse_leading_coefficients(P, F) == want
                for a in (0, 2, rng.below(7)):
                    value = eval_mod_p_dense(P, Fd, Gd, a)
                    assert eval_mod_p_sparse(P, F, G, a) == value
                    assert eval_mod_p_sparse(P, Fd.to_sparse(), Gd.to_sparse(), a) == value
                    if binomial:
                        assert eval_mod_binomial_sparse(F, G, 12, a) == value


class TestOneShapeCheck:
    """check_shapes is the one shape check of every scan and modular
    verifier, in one order: rings, deg P, input degrees, then a monic
    SparsePoly P."""

    def test_dense_binomial_modulus_is_a_type_error_everywhere(self):
        K = pc.GF(7)
        P = pc.x_pow_minus_one(K, 5).to_dense()
        F = pc.DensePoly(K, [1, 2, 3])
        for run in (
            lambda: modeval.eval_mod(P, F, F, 3),
            lambda: modeval.eval_mod(P, F.to_sparse(), F.to_sparse(), 3),
            lambda: verify_mod(F, F, F, P),
            lambda: verify_mod_ff(F, F, F, P),
        ):
            with pytest.raises(TypeError, match="^modulus must be a SparsePoly$"):
                run()

    def test_order_of_the_messages(self):
        K = pc.GF(7)
        P = pc.SparsePoly(K, [(0, 1), (3, 2)])  # not monic
        F = pc.DensePoly(K, [1, 1])
        with pytest.raises(ValueError, match="mixed coefficient contexts"):
            modeval.check_shapes(P, F, pc.DensePoly(Z, [1]))
        with pytest.raises(ValueError, match="modulus must have degree >= 1"):
            modeval.check_shapes(pc.SparsePoly(K, [(0, 1)]), F)
        with pytest.raises(ValueError, match="inputs must have degree < deg P"):
            modeval.check_shapes(P, F, pc.DensePoly(K, [0, 0, 0, 1]))
        with pytest.raises(ValueError, match="modulus must be monic"):
            modeval.check_shapes(P, F, F)
        assert modeval.check_shapes(pc.x_pow_minus_one(K, 3), F, pc.DensePoly.zero(K)) == 3
