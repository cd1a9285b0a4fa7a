import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck.oracle import oracle_mod_product, poly_divmod
from polycheck.poly import (
    PolyFormatError,
    format_poly,
    kronecker_pack,
    parse_poly,
    power_table,
    reduction_steps,
)
from polycheck.rings import POLY_MUL_OPS, RngStream
from conftest import rand_dense, rand_monic_sparse, rand_sparse

Z = pc.ZZ

# the running three-term example triple
EX1_F = pc.SparsePoly(Z, [(0, 2), (7, 2), (14, 1)])
EX1_G = pc.SparsePoly(Z, [(0, 3), (8, 5), (13, 3)])
EX1_H = pc.SparsePoly(Z, [(0, 2), (7, -2), (14, 1)])
EX1_FG = pc.SparsePoly(
    Z, [(0, 6), (7, 6), (8, 10), (13, 6), (14, 3), (15, 10), (20, 6), (22, 5), (27, 3)]
)
EX1_FH = pc.SparsePoly(Z, [(0, 4), (28, 1)])

# the degree-131 reduction example
EX22_P = pc.SparsePoly(Z, [(0, 3), (56, 1), (59, -8), (61, 2), (65, 7), (80, 1)])
EX22_Q = pc.SparsePoly(
    Z, [(32, 5), (71, 1), (80, -3), (108, -3), (118, 8), (120, 4), (131, 1)]
)


class TestMulOracle:
    def test_nine_term_product(self):
        assert pc.mul_oracle(EX1_F, EX1_G) == EX1_FG

    def test_two_term_product(self):
        assert pc.mul_oracle(EX1_F, EX1_H) == EX1_FH

    def test_zero_factor(self):
        assert pc.mul_oracle(pc.SparsePoly.zero(Z), EX1_G).is_zero()
        assert pc.mul_oracle(pc.DensePoly.zero(Z), EX1_G.to_dense()).is_zero()

    def test_mixed_ctx_rejected(self):
        with pytest.raises(ValueError):
            pc.mul_oracle(EX1_F, pc.SparsePoly(pc.GF(5), [(0, 1)]))

    def test_sparse_equals_dense_after_densify(self, rng):
        for _ in range(60):
            ctx = (Z, pc.GF(7), pc.GF(65537))[rng.below(3)]
            F = rand_sparse(ctx, 256, 1 + rng.below(8), rng)
            G = rand_sparse(ctx, 257, 1 + rng.below(8), rng)
            assert pc.mul_oracle(F, G).to_dense() == pc.mul_oracle(
                F.to_dense(), G.to_dense()
            )

    def test_karatsuba_matches_schoolbook_oracle(self, rng):
        from polycheck.oracle import _school_product_dense

        for ctx in (Z, pc.GF(101)):
            F = rand_dense(ctx, 300, rng)
            G = rand_dense(ctx, 271, rng)
            assert pc.mul_oracle(F, G) == _school_product_dense(F, G)


KRONECKER_RINGS = (Z, pc.GF(2), pc.GF(65537), pc.GF(2**61 - 1))


@st.composite
def kronecker_factors(draw):
    """Dense factor pairs for the Kronecker kernel: signed Z coefficients up
    to 2^200 or reduced GF(q) ones, lengths 1..300, a nonzero leading
    coefficient (negative ones included over Z)."""
    ctx = draw(st.sampled_from(KRONECKER_RINGS))
    lo, hi = (-(2**200), 2**200) if ctx == Z else (0, ctx.q - 1)
    coeff = st.integers(lo, hi)
    lead = coeff.filter(lambda c: c != 0)

    def factor():
        n = draw(st.one_of(st.integers(1, 4), st.integers(1, 300)))
        body = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1))
        return pc.DensePoly(ctx, body + [draw(lead)])

    return factor(), factor()


class TestKroneckerKernel:
    @given(kronecker_factors())
    def test_matches_schoolbook_oracle(self, pair):
        from polycheck.oracle import _school_product_dense

        F, G = pair
        assert pc.mul_oracle(F, G) == _school_product_dense(F, G)

    def test_extreme_coefficients(self):
        # every digit of the packed product at its extreme: all coefficients
        # +-2^200 or q - 1, negative leading coefficients, unequal lengths
        from polycheck.oracle import _school_product_dense

        big = 2**200
        for ctx in KRONECKER_RINGS:
            top = big if ctx == Z else ctx.q - 1
            for la, lb in ((1, 1), (1, 300), (300, 1), (17, 300), (300, 300)):
                for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                    F = pc.DensePoly(ctx, [sa * top] * la)
                    G = pc.DensePoly(ctx, [sb * top] * lb)
                    assert pc.mul_oracle(F, G) == _school_product_dense(F, G)

    def test_counts_one_product(self):
        F = pc.DensePoly(pc.GF(65537), range(1, 200))
        before = POLY_MUL_OPS.count
        pc.mul_oracle(F, F)
        assert POLY_MUL_OPS.count == before + 1

    @pytest.mark.parametrize("w", [1, 2, 7, 8, 77])
    def test_pack_is_the_shifted_sum(self, w, rng):
        for n in (0, 1, 2, 31, 32, 33, 64, 300, 1000):
            cs = [rng.below(2**20 + 1) - 2**19 for _ in range(n)]
            assert kronecker_pack(cs, w) == sum(c << (i * w) for i, c in enumerate(cs))


@st.composite
def reduction_instances(draw):
    """(F, G, P): P monic of degree n <= 40 with up to 5 lower terms, the
    highest at k <= n - 1 and often near it, and dense F, G of degree up
    to 2n, so their product reaches 4n."""
    ctx = draw(st.sampled_from((Z, pc.GF(2), pc.GF(3), pc.GF(2**61 - 1))))
    coeff = st.integers(-9, 9) if ctx == Z else st.integers(0, ctx.q - 1)
    n = draw(st.integers(1, 40))
    k = draw(st.integers(max(0, n - 4), n - 1) | st.integers(0, n - 1))
    low = set(draw(st.lists(st.integers(0, k), max_size=4))) | {k}
    P = pc.SparsePoly(ctx, [(e, draw(coeff)) for e in sorted(low)] + [(n, 1)])
    F, G = (pc.DensePoly(ctx, draw(st.lists(coeff, max_size=2 * n + 1))) for _ in "FG")
    return F, G, P


class TestModReduce:
    @given(reduction_instances())
    def test_matches_long_division_oracle(self, inst):
        F, G, P = inst
        want = oracle_mod_product(F, G, P)
        Q = pc.mul_oracle(F, G)
        assert pc.mod_reduce(Q, P) == want
        assert pc.mod_reduce(Q.to_sparse(), P) == want.to_sparse()

    def test_one_pass_cost(self):
        # at k = n - 16, rewriting the whole high part n - k degrees at a
        # time is quadratic; one pass costs (deg Q - n + 1)(#P - 1) products
        class CountingField(pc.PrimeField):
            __slots__ = ("muls",)

            def mul(self, a, b):
                self.muls += 1
                return super().mul(a, b)

        K = CountingField(2**61 - 1)
        n = 2**9
        P = pc.SparsePoly(K, [(0, 1), (n - 16, 1), (n, 1)])
        Q = pc.DensePoly(K, range(1, 2 * n))
        K.muls = 0
        R = pc.mod_reduce(Q, P)
        assert K.muls <= (Q.degree() - n + 1) * (P.sparsity() - 1)
        assert R == poly_divmod(Q, P.to_dense())[1]

    def test_reduction_example_shape(self):
        R = pc.mod_reduce(EX22_Q, EX22_P)
        assert R.degree() == 79
        assert R.sparsity() == 53
        assert R.norm() == 11912

    def test_x5_mod_x2_minus_1(self):
        Q = pc.DensePoly(Z, [0, 0, 0, 0, 0, 1])
        P = pc.SparsePoly(Z, [(0, -1), (2, 1)])
        assert pc.mod_reduce(Q, P) == pc.DensePoly(Z, [0, 1])

    def test_low_degree_untouched(self):
        Q = pc.SparsePoly(Z, [(0, 5), (3, 2)])
        P = rand_monic_sparse(Z, 10, 3, RngStream(3))
        assert pc.mod_reduce(Q, P) == Q

    def test_non_monic_rejected(self):
        P = pc.SparsePoly(Z, [(0, 1), (4, 2)])
        with pytest.raises(ValueError):
            pc.mod_reduce(EX1_F, P)

    def test_divmod_identity_randomized(self, rng):
        for _ in range(80):
            ctx = (Z, pc.GF(13))[rng.below(2)]
            n = 2 + rng.below(30)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(4), rng)
            Q = rand_dense(ctx, rng.below(200), rng)
            R = pc.mod_reduce(Q, P)
            quo, rem = poly_divmod(Q, P.to_dense())
            assert rem == R
            if not R.is_zero():
                assert R.degree() < n

    def test_sparse_dense_agree(self, rng):
        for _ in range(60):
            ctx = (Z, pc.GF(5))[rng.below(2)]
            n = 2 + rng.below(20)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(4), rng)
            Q = rand_sparse(ctx, 120, 1 + rng.below(10), rng)
            assert pc.mod_reduce(Q, P).to_dense() == pc.mod_reduce(Q.to_dense(), P)


class TestReduceModBinomial:
    def test_fold_three_terms(self):
        got = pc.reduce_mod_binomial(EX1_F, 7)
        assert got == pc.SparsePoly(Z, [(0, 5)])
        # agrees with the generic reduction
        P7 = pc.x_pow_minus_one(Z, 7)
        assert pc.mod_reduce(EX1_F, P7) == got

    def test_constant_unchanged(self):
        F = pc.SparsePoly(Z, [(0, 9)])
        assert pc.reduce_mod_binomial(F, 5) == F

    def test_self_annihilates(self):
        F = pc.SparsePoly(Z, [(0, -1), (11, 1)])
        assert pc.reduce_mod_binomial(F, 11).is_zero()

    def test_matches_mod_reduce_randomized(self, rng):
        for _ in range(60):
            ctx = (Z, pc.GF(3))[rng.below(2)]
            i = 1 + rng.below(12)
            F = rand_sparse(ctx, 100, 1 + rng.below(8), rng)
            assert pc.reduce_mod_binomial(F, i) == pc.mod_reduce(
                F, pc.x_pow_minus_one(ctx, i)
            )
            Fd = F.to_dense()
            assert pc.reduce_mod_binomial(Fd, i) == pc.mod_reduce(
                Fd, pc.x_pow_minus_one(ctx, i)
            )

    def test_zero_i_rejected(self):
        with pytest.raises(ValueError):
            pc.reduce_mod_binomial(EX1_F, 0)


class TestEvaluate:
    def test_quadratic_at_two(self):
        F = pc.DensePoly(Z, [1, 0, 1])
        assert pc.evaluate(F, 2) == 5

    def test_huge_exponent_at_one(self):
        F = pc.SparsePoly(pc.GF(5), [(0, 1), (10**6, 1)])
        assert pc.evaluate(F, 1) == 2

    def test_sparse_matches_dense_horner(self, rng):
        for _ in range(80):
            q = (7, 65537)[rng.below(2)]
            K = pc.GF(q)
            F = rand_sparse(K, 200, 1 + rng.below(10), rng)
            a = rng.below(q)
            assert pc.evaluate(F, a) == pc.evaluate(F.to_dense(), a)

    @given(st.data())
    def test_sparse_power_table_matches_dense_horner(self, data):
        # every alpha^e of a sparse evaluation comes from one power table
        base = data.draw(st.sampled_from((2, 3, 65537, 0)))
        ctx = Z if base == 0 else pc.GF(base)
        coeff = st.integers(-50, 50) if base == 0 else st.integers(0, base - 1)
        ring = ctx
        if base in (2, 3):
            d = data.draw(st.integers(1, 45 if base == 2 else 12))
            ring = pc.ExtField(ctx, data.draw(st.lists(coeff, min_size=d, max_size=d)) + [1])
        if ring is not ctx and data.draw(st.booleans()):
            alpha = ring.x
        elif ring is not ctx:
            alpha = ring.from_coeffs(data.draw(st.lists(coeff, min_size=ring.d, max_size=ring.d)))
        else:
            alpha = data.draw(coeff)
        exps = data.draw(st.lists(st.integers(0, 400), max_size=8, unique=True))
        F = pc.SparsePoly(ctx, [(e, data.draw(coeff)) for e in sorted(exps)])
        assert pc.evaluate(F, alpha, ring) == pc.evaluate(F.to_dense(), alpha, ring)

    @given(st.data())
    def test_power_table_matches_ring_pow(self, data):
        # exponents across many 8-bit windows, the edges of each included,
        # asked for unsorted and repeated on one table
        kind = data.draw(st.sampled_from(("GF2^D", "GF3^D", 65537, 2**61 - 1)))
        if isinstance(kind, int):
            ring = pc.GF(kind)
            random = st.integers(0, kind - 1)
        else:
            q, top = (2, 64) if kind == "GF2^D" else (3, 10)
            d = data.draw(st.integers(1, top))
            low = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
            ring = pc.ExtField(pc.GF(q), low + [1])
            coeffs = st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
            random = coeffs.map(ring.from_coeffs)
        points = [ring.zero(), ring.one()] + ([ring.x] if isinstance(ring, pc.ExtField) else [])
        alpha = data.draw(st.one_of(st.sampled_from(points), random))
        edges = [2 ** (8 * i) + k for i in range(11) for k in (-1, 0, 1)]
        exps = data.draw(
            st.lists(st.one_of(st.sampled_from(edges), st.integers(0, 2**80)), min_size=1, max_size=8)
        )
        pw = power_table(ring, alpha)
        want = [ring.pow(alpha, e) for e in exps]
        assert [pw(e) for e in exps] == want
        assert [pw(e) for e in reversed(exps)] == want[::-1]

    def test_power_table_costs_one_product_per_extra_byte(self):
        # on a filled table alpha^e is one entry per nonzero byte of e;
        # square-and-multiply would take about 1.5 log2(e) products
        K = pc.GF(2)
        ring = pc.ExtField(K, [1, 1, 0, 1, 1] + [0] * 59 + [1])  # X^64 + X^4 + X^3 + X + 1
        alpha = ring.from_coeffs([1, 0, 1, 1, 0, 0, 1] * 9)
        for e in (1, 255, 2**8, 2**40 - 1, 0x0100_0000_0001, 2**63 - 1, 0xFF00_00FF_0000_FF00):
            pw = power_table(ring, alpha)
            want = pw(e)
            before = POLY_MUL_OPS.count
            assert pw(e) == want
            nonzero = sum(1 for b in e.to_bytes(8, "little") if b)
            assert POLY_MUL_OPS.count - before == nonzero - 1

    def test_extension_point(self):
        K = pc.GF(2)
        ext = pc.ExtField(K, (1, 1, 1))
        F = pc.DensePoly(K, [1, 1])  # X + 1
        x = ext.from_coeffs([0, 1])
        assert ext.coeffs(pc.evaluate(F, x, ext)) == (1, 1)

    def test_wrong_ring_rejected(self):
        F = pc.DensePoly(Z, [1, 1])
        with pytest.raises(ValueError):
            pc.evaluate(F, 1, pc.GF(5))


class TestGapInfo:
    def test_reduction_example_gap(self):
        g = pc.gap_info(EX22_P)
        assert g.gamma == Fraction(3, 16)
        assert g.n == 80 and g.second_degree == 65

    def test_binomial(self):
        g = pc.gap_info(pc.x_pow_minus_one(Z, 9))
        assert g.gamma == 1

    def test_small_gap(self):
        P = pc.SparsePoly(Z, [(0, 1), (3, 1), (4, 1)])
        assert pc.gap_info(P).gamma == Fraction(1, 4)

    def test_single_term_convention(self):
        P = pc.SparsePoly(Z, [(6, 1)])
        g = pc.gap_info(P)
        assert g.gamma == 1 and g.second_degree == 0

    def test_rejects_degree_zero_and_non_monic(self):
        with pytest.raises(ValueError):
            pc.gap_info(pc.SparsePoly(Z, [(0, 1)]))
        with pytest.raises(ValueError):
            pc.gap_info(pc.SparsePoly(Z, [(0, 1), (4, 2)]))


class TestBounds:
    def test_product_norm_bound_example(self):
        assert pc.product_norm_bound(EX1_F, EX1_G) == 30
        assert pc.mul_oracle(EX1_F, EX1_G).norm() == 10

    def test_zero_excess(self):
        g = pc.gap_info(EX22_P)
        assert pc.sparsity_bound(7, 6, 0, g) == 7
        assert reduction_steps(0, g) == 0

    def test_reduction_example_norm_bound(self):
        g = pc.gap_info(EX22_P)
        excess = EX22_Q.degree() - (g.n - 1)
        assert reduction_steps(excess, g) == 4
        bound = pc.reduced_norm_bound(EX22_Q.norm(), EX22_P.sparsity(), EX22_P.norm(), excess, g)
        assert bound == 8 * (6 * 8) ** 4
        assert pc.mod_reduce(EX22_Q, EX22_P).norm() <= bound

    def test_growth_bounds_randomized(self, rng):
        for _ in range(500):
            n = 2 + rng.below(24)
            P = rand_monic_sparse(Z, n, 2 + rng.below(3), rng)
            Q = rand_sparse(Z, n + rng.below(60), 1 + rng.below(8), rng)
            if Q.is_zero():
                continue
            g = pc.gap_info(P)
            excess = max(0, Q.degree() - (n - 1))
            R = pc.mod_reduce(Q, P)
            assert R.sparsity() <= pc.sparsity_bound(
                Q.sparsity(), P.sparsity(), excess, g
            )
            assert R.norm() <= pc.reduced_norm_bound(
                Q.norm(), P.sparsity(), P.norm(), excess, g
            )

    def test_product_norm_bound_randomized(self, rng):
        for _ in range(500):
            F = rand_sparse(Z, 50, 1 + rng.below(10), rng, hi=50)
            G = rand_sparse(Z, 50, 1 + rng.below(10), rng, hi=50)
            H = pc.mul_oracle(F, G)
            if H.is_zero():
                continue
            assert H.norm() <= pc.product_norm_bound(F, G)


@st.composite
def small_dense(draw):
    q = draw(st.sampled_from([2, 13]))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=q - 1), max_size=20))
    return pc.DensePoly(pc.GF(q), coeffs)


class TestRepresentations:
    @given(small_dense())
    def test_round_trip(self, F):
        assert F.to_sparse().to_dense() == F

    def test_sparse_round_trip(self, rng):
        for _ in range(50):
            F = rand_sparse(Z, 100, 1 + rng.below(12), rng)
            assert F.to_dense().to_sparse() == F

    def test_zero_has_no_degree(self):
        with pytest.raises(ValueError):
            pc.DensePoly.zero(Z).degree()
        with pytest.raises(ValueError):
            pc.SparsePoly.zero(Z).degree()

    def test_trailing_zeros_stripped(self):
        assert pc.DensePoly(Z, [1, 2, 0, 0]).coeffs == (1, 2)

    def test_sparse_invariants(self):
        with pytest.raises(ValueError):
            pc.SparsePoly(Z, [(3, 1), (1, 2)])
        with pytest.raises(ValueError):
            pc.SparsePoly(Z, [(0, 1), (2**63, 1)])
        # canonicalized-to-zero coefficients are dropped
        assert pc.SparsePoly(pc.GF(5), [(2, 5)]).is_zero()

    def test_exponent_cap_boundary(self):
        F = pc.SparsePoly(Z, [(2**63 - 1, 1)])
        assert F.degree() == 2**63 - 1


class TestTextFormat:
    def test_round_trip_canonical(self):
        for F in (EX1_F, EX1_FG.to_dense(), pc.SparsePoly.zero(Z),
                  pc.DensePoly(pc.GF(7), [3, 0, 5])):
            text = format_poly(F)
            assert format_poly(parse_poly(text)) == text

    def test_header_formats(self):
        assert format_poly(EX1_F).startswith("ring Z\n")
        assert format_poly(pc.DensePoly(pc.GF(7), [1])).startswith("ring GF 7\n")

    def test_rejects_unreduced_field_coeff(self):
        with pytest.raises(PolyFormatError):
            parse_poly("ring GF 7\ndense 1 9\n")
        with pytest.raises(PolyFormatError):
            parse_poly("ring GF 7\nsparse 0:-1\n")

    def test_rejects_bad_exponent_order(self):
        with pytest.raises(PolyFormatError):
            parse_poly("ring Z\nsparse 5:1 3:1\n")

    def test_rejects_garbage(self):
        for text in ("", "ring Q\ndense 1\n", "ring Z\ncubic 1\n",
                     "ring Z\nsparse 1\n", "ring GF x\ndense 1\n"):
            with pytest.raises(PolyFormatError):
                parse_poly(text)

    @given(st.data())
    def test_format_parse_round_trip(self, data):
        ctx = data.draw(st.sampled_from([Z, pc.GF(2), pc.GF(7), pc.GF(65537)]))
        coeff = st.integers(-(2**70), 2**70) if ctx == Z else st.integers(0, ctx.q - 1)
        if data.draw(st.booleans()):
            F = pc.DensePoly(ctx, data.draw(st.lists(coeff, max_size=40)))
        else:
            terms = st.dictionaries(st.integers(0, 2**63 - 1), coeff, max_size=10)
            F = pc.SparsePoly.from_dict(ctx, data.draw(terms))
        text = format_poly(F)
        G = parse_poly(text)
        assert G == F and type(G) is type(F)
        assert format_poly(G) == text

    def test_dense_errors_name_the_first_bad_token(self):
        cases = {
            "ring GF 7\ndense 1 x 9\n": "bad coefficient 'x'",
            "ring GF 7\ndense 1 9 x\n": "coefficient 9 not reduced into [0, 7)",
            "ring GF 7\ndense 1 -1 9\n": "coefficient -1 not reduced into [0, 7)",
            "ring Z\ndense 1 2.5 x\n": "bad coefficient '2.5'",
        }
        for text, message in cases.items():
            with pytest.raises(PolyFormatError) as exc:
                parse_poly(text)
            assert str(exc.value) == message

    def test_dense_trailing_zeros_dropped(self):
        assert parse_poly("ring GF 7\ndense 1 2 0 0\n").coeffs == (1, 2)
        assert parse_poly("ring Z\ndense 0 0\n").is_zero()

    def test_negative_over_Z_allowed(self):
        F = parse_poly("ring Z\nsparse 0:-4 28:1\n")
        assert F.terms == ((0, -4), (28, 1))


class TestTrustedSparse:
    """SparsePoly.trusted, the unchecked construction of the sparse
    reductions, builds what the checking constructor builds."""

    @pytest.mark.parametrize("ctx", [Z, pc.GF(2), pc.GF(7)], ids=repr)
    def test_drops_only_zero_coefficients(self, ctx):
        terms = [(0, 0), (3, 1), (5, 0), (9, 2 % ctx.size() if ctx != Z else -4)]
        got = pc.SparsePoly.trusted(ctx, terms)
        assert got == pc.SparsePoly(ctx, terms)
        assert all(not ctx.is_zero(c) for _, c in got.terms)

    def test_reductions_are_canonical(self, rng):
        # every result equals its rebuild through the checking constructor
        for _ in range(60):
            ctx = (Z, pc.GF(2), pc.GF(3))[rng.below(3)]
            F = rand_sparse(ctx, 200, 1 + rng.below(12), rng)
            i = 1 + rng.below(20)
            P = rand_monic_sparse(ctx, 1 + rng.below(30), 1 + rng.below(4), rng)
            for got in (pc.reduce_mod_binomial(F, i), pc.mod_reduce(F, P)):
                assert got == pc.SparsePoly(got.ctx, got.terms)
