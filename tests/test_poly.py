import decimal
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck import poly, rings
from polycheck.poly import (
    EXPONENT_CAP,
    PolyFormatError,
    _bulk_ints,
    _check_eval_ring,
    _bulk_sparse_terms,
    _parse_coeff,
    _sparse_terms,
    format_poly,
    parse_poly,
    power_table,
    product_terms,
    reduction_steps,
)
from polycheck.rings import POLY_MUL_OPS, GF2Ext, RngStream
from conftest import rand_dense, rand_monic_sparse, rand_nonzero_coeff, rand_sparse, rebuilt
from oracle import (
    _pair_product_sparse,
    _sparse_long_division_rem,
    oracle_mod_product,
    poly_divmod,
    sparsity_bound,
)

Z = pc.ZZ
PRIME_127 = 2**127 - 1  # a Mersenne prime

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

    def test_dense_quotient_ring_matches_schoolbook_oracle(self, rng):
        # dense GF(2^8) coefficients take the all-pairs loop and come back dense
        from oracle import _school_product_dense

        ring = pc.ExtField(pc.GF(2), (1, 0, 1, 1, 1, 0, 0, 0, 1))
        for deg_f, deg_g in ((-1, 3), (0, 0), (1, 40), (60, 33)):
            F = rand_dense(ring, deg_f, rng)
            G = rand_dense(ring, deg_g, rng)
            FG = pc.mul_oracle(F, G)
            assert isinstance(FG, pc.DensePoly)
            assert FG == _school_product_dense(F, G)

    def test_sparse_equals_dense_after_densify(self, rng):
        for _ in range(60):
            ctx = (Z, pc.GF(7), pc.GF(65537))[rng.below(3)]
            F = rand_sparse(ctx, 256, 1 + rng.below(8), rng)
            G = rand_sparse(ctx, 257, 1 + rng.below(8), rng)
            assert pc.mul_oracle(F, G).to_dense() == pc.mul_oracle(
                F.to_dense(), G.to_dense()
            )

    def test_karatsuba_matches_schoolbook_oracle(self, rng):
        from oracle import _school_product_dense

        for ctx in (Z, pc.GF(101)):
            F = rand_dense(ctx, 300, rng)
            G = rand_dense(ctx, 271, rng)
            assert pc.mul_oracle(F, G) == _school_product_dense(F, G)


def mul_mod_oracle(F, G, P):
    """(F*G) mod P as the exact route computes it, one product_terms call,
    sorted into a SparsePoly by the checking constructor."""
    return pc.SparsePoly.from_dict(F.ctx, product_terms(F, G, P))


class TestSparseExactRoute:
    """The sparse branches of mul_oracle and mod_reduce, and product_terms
    modulo P (mul_mod_oracle), which fuses them, the exact route of the
    CLI's auto, against the oracle's term loops, which build every result
    through the checking constructor."""

    RINGS = (Z, pc.GF(2), pc.GF(7), pc.GF(65537))

    @pytest.mark.parametrize("ctx", RINGS, ids=repr)
    def test_match_the_oracle(self, ctx, rng):
        for _ in range(40):
            F = rand_sparse(ctx, 300, rng.below(12), rng, hi=3)
            G = rand_sparse(ctx, 300, rng.below(12), rng, hi=3)
            P = rand_monic_sparse(ctx, 1 + rng.below(200), 1 + rng.below(5), rng, hi=3)
            FG = pc.mul_oracle(F, G)
            assert FG == _pair_product_sparse(F, G)
            want = _sparse_long_division_rem(FG, P)
            assert pc.mod_reduce(FG, P) == want
            before = POLY_MUL_OPS.count
            assert mul_mod_oracle(F, G, P) == want
            assert POLY_MUL_OPS.count == before + 1
            assert pc.mod_reduce(F, P) == _sparse_long_division_rem(F, P)

    @pytest.mark.parametrize("ctx", RINGS, ids=repr)
    def test_zero_operands(self, ctx):
        F = pc.SparsePoly(ctx, [(0, 1), (5, 1)])
        zero = pc.SparsePoly.zero(ctx)
        P = pc.SparsePoly(ctx, [(0, 1), (3, 1)])
        for A, B in ((zero, F), (F, zero), (zero, zero)):
            assert pc.mul_oracle(A, B) == zero == _pair_product_sparse(A, B)
            assert mul_mod_oracle(A, B, P) == zero
        assert pc.mod_reduce(zero, P) == zero

    def test_cancellation_over_Z(self):
        # (1 + X)(1 - X) = 1 - X^2: the X terms cancel and are dropped; P mod P is zero
        F = pc.SparsePoly(Z, [(0, 1), (1, 1)])
        G = pc.SparsePoly(Z, [(0, 1), (1, -1)])
        want = pc.SparsePoly(Z, [(0, 1), (2, -1)])
        assert pc.mul_oracle(F, G) == want == _pair_product_sparse(F, G)
        P = pc.SparsePoly(Z, [(0, -4), (2, 3), (7, 1)])
        assert pc.mod_reduce(P, P).is_zero()
        assert pc.mod_reduce(pc.mul_oracle(P, F), P).is_zero()
        assert mul_mod_oracle(P, F, P).is_zero()
        # merged zeros above deg P: X^8 (1 + X)(1 - X) = X^8 - X^10
        X8 = pc.SparsePoly(Z, [(8, 1)])
        assert mul_mod_oracle(pc.mul_oracle(X8, F), G, P) == pc.mod_reduce(
            pc.SparsePoly(Z, [(8, 1), (10, -1)]), P
        )

    def test_exponent_cap(self):
        # the product's top exponent deg F + deg G is checked once, with the
        # constructor's message, also where its coefficient vanishes
        K = pc.ExtField(Z, [0, 0, 1])  # Z[X]/(X^2): x * x = 0
        half = 2**62
        for ctx, c in ((Z, 1), (pc.GF(7), 3), (K, K.x)):
            F = pc.SparsePoly(ctx, [(0, c), (half, c)])
            P = pc.SparsePoly(ctx, [(0, c), (3, ctx.one())])
            for exc_of in (
                lambda: pc.mul_oracle(F, F),
                lambda: _pair_product_sparse(F, F),
                lambda: mul_mod_oracle(F, F, P),
            ):
                with pytest.raises(ValueError, match=r"^exponent exceeds 2\^63 - 1$"):
                    exc_of()
        top = pc.SparsePoly(Z, [(EXPONENT_CAP, 2)])
        one = pc.SparsePoly(Z, [(0, 1)])
        assert pc.mul_oracle(top, one) == top == pc.mul_oracle(one, top)

    def test_fused_route_checks_its_input(self):
        F = pc.SparsePoly(Z, [(0, 1), (5, 1)])
        P = pc.SparsePoly(Z, [(0, 1), (3, 1)])
        with pytest.raises(TypeError, match="two sparse"):
            mul_mod_oracle(F.to_dense(), F, P)
        with pytest.raises(ValueError, match="monic"):
            mul_mod_oracle(F, F, pc.SparsePoly(Z, [(0, 1), (3, 2)]))
        with pytest.raises(ValueError, match="mixed"):
            mul_mod_oracle(F, F, pc.SparsePoly(pc.GF(7), [(0, 1), (3, 1)]))


# GF(2)[X]/(X^2 + 1), X^2 + 1 = (X + 1)^2: the class of X + 1 squares to 0
ZERO_DIVISORS = pc.ExtField(pc.GF(2), (1, 0, 1))
PRODUCT_RINGS = {
    "Z": (Z, st.integers(-3, 3).filter(bool)),
    "Z 2048-bit": (Z, st.integers(-(2**2048), 2**2048).filter(bool)),
    "GF(2)": (pc.GF(2), st.just(1)),
    "GF(7)": (pc.GF(7), st.integers(1, 6)),
    "GF(2^61-1)": (pc.GF(2**61 - 1), st.integers(1, 2**61 - 2)),
    "GF(2)[X]/(X^2+1)": (ZERO_DIVISORS, st.integers(1, 3)),
}


@st.composite
def product_instances(draw):
    """(F, G, P) over a ring of PRODUCT_RINGS: P monic of degree n <= 24,
    random, with its second degree n - 1 (a round per degree of excess) or
    X^n - 1; F and G with up to 16 terms of degree below 3n, so exponents
    collide often, and terms land on X^n."""
    ctx, coeff = PRODUCT_RINGS[draw(st.sampled_from(sorted(PRODUCT_RINGS)))]
    n = draw(st.integers(1, 24))
    one = ctx.one()
    shape = draw(st.sampled_from(["random", "second degree n - 1", "X^n - 1"]))
    if shape == "X^n - 1":
        P = pc.x_pow_minus_one(ctx, n)
    else:
        low = set(draw(st.lists(st.integers(0, n - 1), max_size=4)))
        if shape != "random":
            low.add(n - 1)
        P = pc.SparsePoly(ctx, [(e, draw(coeff)) for e in sorted(low)] + [(n, one)])

    def factor():
        exps = draw(st.sets(st.integers(0, 3 * n), max_size=16))
        return pc.SparsePoly(ctx, [(e, draw(coeff)) for e in sorted(exps)])

    return factor(), factor(), P


def _oracle_terms(F, G, P=None):
    FG = _pair_product_sparse(F, G)
    return dict((FG if P is None else _sparse_long_division_rem(FG, P)).terms)


def _rounds(F, G, P):
    """(F*G) mod P as a dict, and the ring products taken, by a reduction in
    rounds over the dict of all term pairs: each round rewrites every entry
    at or above deg P, a zero sum of pairs included, once per low term of
    P, dropping the sums that cancel as it goes."""
    ctx = F.ctx
    n = P.degree()
    zero = ctx.zero()
    before = POLY_MUL_OPS.count
    acc = {}
    for e1, c1 in F.terms:
        for e2, c2 in G.terms:
            acc[e1 + e2] = ctx.add(acc.get(e1 + e2, zero), ctx.mul(c1, c2))
    while high := [(e, c) for e, c in acc.items() if e >= n]:
        for e, _ in high:
            del acc[e]
        for e, c in high:
            for pe, p in P.terms[:-1]:
                pos = e - n + pe
                v = ctx.sub(acc.get(pos, zero), ctx.mul(c, p))
                if ctx.is_zero(v):
                    acc.pop(pos, None)
                else:
                    acc[pos] = v
    return {e: c for e, c in acc.items() if not ctx.is_zero(c)}, POLY_MUL_OPS.count - before


class TestProductTerms:
    """product_terms, the row-wise core of the sparse reference products,
    against the oracle's loops over term pairs and its long division."""

    @given(product_instances())
    def test_matches_the_pair_loop_and_long_division(self, inst):
        F, G, P = inst
        ints = F.ctx != ZERO_DIVISORS
        before = POLY_MUL_OPS.count
        want = _oracle_terms(F, G)
        oracle_ops = POLY_MUL_OPS.count - before
        before = POLY_MUL_OPS.count
        assert poly.product_terms(F, G) == want
        # one product over ints; over the quotient ring one more per term pair
        assert POLY_MUL_OPS.count - before == (1 if ints else oracle_ops)
        want = _oracle_terms(F, G, P)
        rounds, rounds_ops = _rounds(F, G, P)
        assert rounds == want
        before = POLY_MUL_OPS.count
        assert poly.product_terms(F, G, P) == want
        # one product, and over the quotient ring one more per term pair
        # and per exponent each round leaves at or above deg P and low term
        assert POLY_MUL_OPS.count - before == 1 + (0 if ints else rounds_ops)
        assert dict(pc.mod_reduce(F, P).terms) == dict(_sparse_long_division_rem(F, P).terms)

    @given(st.sampled_from(sorted(PRODUCT_RINGS)), st.integers(0, 2**40), st.data())
    def test_wide_exponents(self, ring, shift, data):
        ctx, coeff = PRODUCT_RINGS[ring]
        exps = st.sets(st.integers(0, 2**40), max_size=12)
        F, G = (
            pc.SparsePoly(ctx, [(e + shift, data.draw(coeff)) for e in sorted(data.draw(exps))])
            for _ in "FG"
        )
        assert poly.product_terms(F, G) == _oracle_terms(F, G)

    @pytest.mark.parametrize("ring", ["Z", "GF(2)", "GF(7)", "GF(2)[X]/(X^2+1)"])
    def test_example2_cancels_to_a_binomial(self, ring):
        ctx = PRODUCT_RINGS[ring][0]
        t = 24
        one, minus_one = ctx.one(), ctx.neg(ctx.one())
        F = pc.SparsePoly(ctx, [(i, one) for i in range(t)])
        G = pc.SparsePoly.from_dict(
            ctx, {e: c for i in range(t) for e, c in ((i * t, minus_one), (i * t + 1, one))}
        )
        assert poly.product_terms(F, G) == {0: minus_one, t * t: one} == _oracle_terms(F, G)
        P = pc.x_pow_minus_one(ctx, t * t)
        assert poly.product_terms(F, G, P) == {} == _oracle_terms(F, G, P)

    def test_full_cancellation(self):
        # P times anything is 0 mod P; (X + 1)^2 = 0 in the quotient ring
        for ctx in (Z, pc.GF(7)):
            P = pc.SparsePoly(ctx, [(0, 3), (4, 2), (5, 1), (9, 1)])
            F = pc.SparsePoly(ctx, [(0, 1), (6, 2), (30, 5)])
            assert poly.product_terms(P, F, P) == {}
        K = ZERO_DIVISORS
        F = pc.SparsePoly(K, [(0, 3), (7, 3)])  # (x + 1)(1 + X^7)
        assert poly.product_terms(F, F) == {} == _oracle_terms(F, F)

    def test_many_rounds(self):
        # X^200 modulo X^8 + X^7 + 1 rewrites one degree per round
        for ctx in (Z, pc.GF(2), pc.GF(7)):
            P = pc.SparsePoly(ctx, [(0, 1), (7, 1), (8, 1)])
            F = pc.SparsePoly(ctx, [(100, 1), (150, 3)])
            assert poly.product_terms(F, F, P) == _oracle_terms(F, F, P)

    def test_empty_factors_and_the_exponent_cap(self):
        for ring in sorted(PRODUCT_RINGS):
            ctx = PRODUCT_RINGS[ring][0]
            zero = pc.SparsePoly.zero(ctx)
            F = pc.SparsePoly(ctx, [(0, ctx.one()), (2**62, ctx.one())])
            P = pc.x_pow_minus_one(ctx, 5)
            for A, B in ((zero, F), (F, zero), (zero, zero)):
                before = POLY_MUL_OPS.count
                assert poly.product_terms(A, B) == {} == poly.product_terms(A, B, P)
                assert POLY_MUL_OPS.count == before + 2
            for Q in (None, P):
                with pytest.raises(ValueError, match=r"^exponent exceeds 2\^63 - 1$"):
                    poly.product_terms(F, F, Q)

    def test_quotient_ring_rounds(self):
        # X^4 + (X + 1) over GF(2)[X]/(X^2 + 1): (X + 1) c is 0 for c = X + 1,
        # so rewritten terms vanish one at a time as well as by cancelling
        K = ZERO_DIVISORS
        P = pc.SparsePoly(K, [(0, 3), (4, 1)])
        F = pc.SparsePoly(K, [(0, 1), (3, 3), (5, 2), (9, 3), (11, 1)])
        G = pc.SparsePoly(K, [(1, 3), (2, 1), (6, 3), (10, 2)])
        for A, B, Q in ((F, G, P), (F, F, P), (F, G, pc.SparsePoly(K, [(0, 3), (1, 1), (4, 1)]))):
            want, ops = _rounds(A, B, Q)
            assert want == _oracle_terms(A, B, Q)
            before = POLY_MUL_OPS.count
            assert poly.product_terms(A, B, Q) == want
            assert POLY_MUL_OPS.count - before == 1 + ops

    def test_composite_modulus_drops_zero_products(self):
        # PrimeField takes any q >= 2; mod 6, 2 * 3 is 0 with no sum cancelling
        K = pc.PrimeField(6)
        F = pc.SparsePoly(K, [(0, 2), (1, 2), (5, 3)])
        G = pc.SparsePoly(K, [(0, 3), (2, 3), (7, 4)])
        P = pc.SparsePoly(K, [(0, 1), (3, 1), (6, 1)])
        for Q in (None, P):
            terms = poly.product_terms(F, G, Q)
            assert terms == _oracle_terms(F, G, Q)
            assert 0 not in terms.values()

    def test_rows_reach_exactly_deg_P(self):
        # (X^4 + X^5) X^6 = X^10 + X^11 modulo X^10 + X^3 + 1
        for ctx in (Z, pc.GF(2), pc.GF(7)):
            P = pc.SparsePoly(ctx, [(0, 1), (3, 1), (10, 1)])
            F = pc.SparsePoly(ctx, [(4, 1), (5, 1)])
            G = pc.SparsePoly(ctx, [(6, 1)])
            assert poly.product_terms(F, G, P) == _oracle_terms(F, G, P)


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
        from oracle import _school_product_dense

        F, G = pair
        assert pc.mul_oracle(F, G) == _school_product_dense(F, G)

    def test_extreme_coefficients(self):
        # every digit of the packed product at its extreme: all coefficients
        # +-2^200 or q - 1, negative leading coefficients, unequal lengths
        from oracle import _school_product_dense

        big = 2**200
        for ctx in KRONECKER_RINGS:
            top = big if ctx == Z else ctx.q - 1
            for la, lb in ((1, 1), (1, 300), (300, 1), (17, 300), (300, 300)):
                for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                    F = pc.DensePoly(ctx, [sa * top] * la)
                    G = pc.DensePoly(ctx, [sb * top] * lb)
                    assert pc.mul_oracle(F, G) == _school_product_dense(F, G)

    @given(kronecker_factors())
    def test_products_are_canonical(self, pair):
        # over Z the digits are taken as they are, over GF(q) reduced: both
        # are what the checking constructor makes of them
        F, G = pair
        FG = pc.mul_oracle(F, G)
        assert FG == pc.DensePoly(F.ctx, FG.coeffs)
        if F.ctx == Z:  # a product of nonzero leading coefficients
            assert FG.degree() == F.degree() + G.degree()
        assert all(type(c) is int for c in FG.coeffs)

    def test_counts_one_product(self):
        F = pc.DensePoly(pc.GF(65537), range(1, 200))
        before = POLY_MUL_OPS.count
        pc.mul_oracle(F, F)
        assert POLY_MUL_OPS.count == before + 1

    @given(kronecker_factors())
    def test_decimal_packing_matches_schoolbook_oracle(self, pair):
        # these factors are small enough for the binary packing; a crossover
        # of 0 sends them through the decimal one
        from oracle import _school_product_dense

        F, G = pair
        with mock.patch.object(poly, "_DECIMAL_MIN_DIGITS", 0):
            assert pc.mul_oracle(F, G) == _school_product_dense(F, G)

    def test_wide_coefficients_under_the_lowest_str_limit(self):
        # 2^20000 has 6021 digits, far past the 640 that str() and int() can
        # be held to; from 9 coefficients on the product packs in decimal,
        # with every slot converted through Decimal
        from oracle import _school_product_dense

        big = 2**20000
        row = (big, -big, 1, big - 1, 0, -1)
        decimal_products = mock.patch.object(
            poly, "_kronecker_decimal", wraps=poly._kronecker_decimal
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with decimal_products as spy:
                for la, lb in ((1, 1), (2, 5), (9, 9), (12, 9)):
                    for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                        fs = [sa * row[i % 6] for i in range(la - 1)] + [sa * big]
                        gs = [sb * row[i % 5] for i in range(lb - 1)] + [sb * big]
                        F, G = pc.DensePoly(Z, fs), pc.DensePoly(Z, gs)
                        assert pc.mul_oracle(F, G) == _school_product_dense(F, G)
        finally:
            sys.set_int_max_str_digits(limit)
        assert spy.call_count == 2 * 3

    def test_caller_decimal_context_neither_used_nor_changed(self):
        from oracle import _school_product_dense

        big = 2**20000
        gf = pc.GF(2**61 - 1)
        pairs = [
            (pc.DensePoly(Z, [big, -3, big] * 4), pc.DensePoly(Z, [-big, 5, 1] * 4)),
            (pc.DensePoly(gf, range(1, 200)), pc.DensePoly(gf, range(7, 90))),
        ]
        expected = [_school_product_dense(F, G) for F, G in pairs]
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            for signal in ctx.traps:
                ctx.traps[signal] = True
            ctx.clear_flags()
            state = repr(ctx)
            with mock.patch.object(poly, "_DECIMAL_MIN_DIGITS", 0):
                products = [pc.mul_oracle(F, G) for F, G in pairs]
            assert repr(ctx) == state
        assert products == expected

    @pytest.mark.parametrize("bits", [2048, 8192])
    @pytest.mark.parametrize("limit", [640, None], ids=["limit640", "default"])
    def test_wide_slots_read_in_pieces(self, bits, limit, rng):
        # product slots of about 1235 and 4935 digits, read as int of pieces
        # of at most 640 digits whatever the int-to-str limit
        from oracle import _school_product_dense

        top = 1 << bits
        row = [top - 1, -(top - 1), 1, 0] + [rng.bits(bits) - rng.bits(bits) for _ in range(8)]
        F = pc.DensePoly(Z, row + [top - 1])
        G = pc.DensePoly(Z, [-c for c in reversed(row)] + [1 - top])
        decimal_products = mock.patch.object(
            poly, "_kronecker_decimal", wraps=poly._kronecker_decimal
        )
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit or saved)
        try:
            with decimal_products as spy, mock.patch.object(poly, "_DECIMAL_MIN_DIGITS", 0):
                assert pc.mul_oracle(F, G) == _school_product_dense(F, G)
        finally:
            sys.set_int_max_str_digits(saved)
        assert spy.call_count == 1

    @pytest.mark.parametrize("s", [641, 1279, 1280, 1281, 1921, 5000])
    def test_slot_widths_past_one_piece(self, s):
        # a slot of s digits is one piece of s mod 640 digits (or 640) and
        # then whole 640-digit pieces; each width meets the piece edges
        a = [10 ** (s - 2) - 1, -(10 ** (s - 2)) + 7, 3]
        b = [1, -1]
        assert poly._kronecker_decimal(a, b, s) == [
            sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)
        ]


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
        with mock.patch.object(poly, "_plus_multiple", wraps=poly._plus_multiple) as spy:
            R = pc.mod_reduce(Q, P)
        assert K.muls <= (Q.degree() - n + 1) * (P.sparsity() - 1)
        # over GF(q) the products are int products in blocks of n - k = 16
        # indices, one comprehension per block and low term of P
        assert K.muls == 0
        assert R == poly_divmod(Q, P.to_dense())[1]
        high, low = Q.degree() - n + 1, P.sparsity() - 1
        widths = [len(call.args[2]) for call in spy.call_args_list]
        assert len(widths) == -(-high // 16) * low
        assert max(widths) <= 16
        assert sum(widths) == high * low

    def test_one_pass_cost_over_a_quotient_ring(self):
        # the loop over ring products, in which the pass is one product per
        # index at or above n and low term of P
        class CountingExt(GF2Ext):
            __slots__ = ("muls",)

            def mul(self, a, b):
                self.muls += 1
                return super().mul(a, b)

        K = CountingExt(pc.GF(2), (1, 1, 0, 1))
        n = 64
        P = pc.SparsePoly(K, [(0, 3), (n - 4, 5), (n, 1)])
        Q = pc.DensePoly(K, [i % 8 for i in range(1, 2 * n)])
        K.muls = 0
        R = pc.mod_reduce(Q, P)
        assert 0 < K.muls <= (Q.degree() - n + 1) * (P.sparsity() - 1)
        assert R == poly_divmod(Q, P.to_dense())[1]

    @pytest.mark.parametrize("ctx", [Z, pc.GF(2), pc.GF(7), pc.GF(2**61 - 1)], ids=repr)
    def test_blocks_of_n_minus_k_indices(self, ctx, rng):
        # the second degree k sets the block width n - k of the dense pass
        n = 64
        for k in (0, 1, n // 2, n - 1):
            for deg in (n - 2, n, n + 1, 3 * n + 5):
                low = {k} | {rng.below(k + 1) for _ in range(3)}
                P = pc.SparsePoly(
                    ctx, [(e, rand_nonzero_coeff(ctx, rng, 2**70)) for e in sorted(low)] + [(n, 1)]
                )
                Q = rand_dense(ctx, deg, rng, 2**70)
                assert pc.mod_reduce(Q, P) == poly_divmod(Q, P.to_dense())[1]

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
            # the dense fold over Z and GF(q) is mod_reduce's long division,
            # so it is checked against the term-by-term sparse fold
            Fd = F.to_dense()
            assert pc.reduce_mod_binomial(Fd, i) == pc.reduce_mod_binomial(F, i).to_dense()

    def test_dense_fold_over_a_quotient_ring(self, rng):
        # the dense fold over GF(2)[X]/(R), which folds the sparse form,
        # against the ring-method long division; the fold multiplies nothing,
        # which kaminski-nomul's "no multiplication" claim relies on
        K = pc.ExtField(pc.GF(2), (1, 1, 0, 1, 1, 0, 0, 0, 1))
        F = pc.DensePoly(K, [K.from_coeffs([rng.below(2) for _ in range(8)])
                             for _ in range(40)] + [K.one()])
        for i in (1, 2, 7, 40):
            before = POLY_MUL_OPS.count
            got = pc.reduce_mod_binomial(F, i)
            assert POLY_MUL_OPS.count - before == 0
            assert isinstance(got, pc.DensePoly) and got.degree() < i
            assert got == pc.mod_reduce(F, pc.x_pow_minus_one(K, i))

    def test_zero_i_rejected(self):
        with pytest.raises(ValueError):
            pc.reduce_mod_binomial(EX1_F, 0)

    def test_nothing_to_fold_returns_f_itself(self, rng):
        # below i the fold is F itself, in both forms; at and above i it is
        # the exponent-by-exponent fold, built through the checking constructor
        def fold(F, i):
            acc = {}
            for e, c in F.to_sparse().terms:
                acc[e % i] = F.ctx.add(acc.get(e % i, F.ctx.zero()), c)
            folded = pc.SparsePoly.from_dict(F.ctx, acc)
            return folded if isinstance(F, pc.SparsePoly) else folded.to_dense()

        for ctx in (Z, pc.GF(3)):
            for F in (pc.SparsePoly.zero(ctx), pc.DensePoly.zero(ctx)):
                assert pc.reduce_mod_binomial(F, 1) is F
        for _ in range(60):
            ctx = (Z, pc.GF(3))[rng.below(2)]
            F = rand_sparse(ctx, 40, 1 + rng.below(8), rng)
            if F.is_zero():
                continue
            n = F.degree()
            for X in (F, F.to_dense()):
                for i in (n + 1, n + 2 + rng.below(5)):
                    assert pc.reduce_mod_binomial(X, i) is X
                for i in range(1, n + 1):
                    got = pc.reduce_mod_binomial(X, i)
                    assert got == fold(X, i) and got is not X


class TestEvaluate:
    def test_where_a_polynomial_evaluates(self):
        # in its own ring, in a quotient ring over it and, over Z, in GF(p)
        F7 = pc.GF(7)
        K, KZ = pc.ExtField(F7, [1, 0, 1]), pc.ExtField(Z, [1, 0, 1])
        for ring, ctx in ((Z, Z), (F7, F7), (F7, Z), (K, K), (K, F7)):
            assert _check_eval_ring(pc.DensePoly(ctx, [1]), ring) is ring
        for ring, ctx in ((Z, F7), (F7, pc.GF(5)), (F7, K), (K, Z), (KZ, F7)):
            with pytest.raises(ValueError, match="evaluation point must lie"):
                _check_eval_ring(pc.DensePoly(ctx, [1]), ring)

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
        out = ring.product_form()[2]
        want = [ring.pow(alpha, e) for e in exps]
        assert [out(pw(e)) for e in exps] == want
        assert [out(pw(e)) for e in reversed(exps)] == want[::-1]

    @given(st.data())
    def test_gf2_power_table_matches_ring_pow_to_degree_300(self, data):
        # the bit-sliced table of GF(2)[X]/(R) at slot widths 8 and 16, at
        # x, 0, 1 and random points, in the sliced form and out of it
        d = data.draw(st.sampled_from((1, 2, 255, 256, 300)) | st.integers(1, 300))
        dense = st.integers(0, 2**32).map(lambda seed: RngStream(seed).bits(d))
        low = data.draw(dense)
        ring = pc.ExtField(pc.GF(2), [(low >> i) & 1 for i in range(d)] + [1])
        points = st.sampled_from((ring.x, ring.zero(), ring.one()))
        alpha = data.draw(points | st.integers(0, 2**d - 1) | dense)
        edges = [2 ** (8 * i) + k for i in range(8) for k in (-1, 0, 1)]
        exps = data.draw(
            st.lists(st.sampled_from(edges) | st.integers(0, 2**64), min_size=1, max_size=6)
        )
        pw = power_table(ring, alpha)
        out = ring.product_form()[2]
        want = [ring.pow(alpha, e) for e in exps]
        assert [out(pw(e)) for e in exps] == want
        assert [pw(e) for e in reversed(exps)] == [ring._slice(v) for v in reversed(want)]

    @given(st.data())
    def test_prime_field_windows_lazy_and_bulk_match_ring_pow(self, data):
        # single lookups, small window requests (lazy entries) and large ones
        # (bulk growth) in any order on one table, so both kinds of fill meet
        # in one window; and sparse_sum of Z coefficients at a GF(p) point
        q = data.draw(st.sampled_from((2, 3, 65537, 2**61 - 1, PRIME_127)))
        ring = pc.GF(q)
        alpha = data.draw(st.sampled_from((0, 1, q - 1)) | st.integers(0, q - 1))
        edges = [2 ** (8 * i) + k for i in range(8) for k in (-1, 1)] + [2**63 - 1]
        exponent = st.sampled_from(edges) | st.integers(0, 2**63 - 1)
        small = st.binary(min_size=1, max_size=4)
        bulk = st.binary(min_size=64, max_size=128) | st.integers(1, 256).map(
            lambda k: bytes(range(k))
        )
        request = st.tuples(st.just("pw"), exponent) | st.tuples(
            st.integers(0, 7), small | bulk
        )
        pw = power_table(ring, alpha)
        for kind, arg in data.draw(st.lists(request, min_size=1, max_size=12)):
            if kind == "pw":
                assert pw(arg) == ring.pow(alpha, arg)
            else:
                window = pw.window(kind, arg)
                unit = ring.pow(alpha, 1 << (8 * kind))  # window entries are its powers
                for j in set(arg):
                    assert window[j] == ring.pow(unit, j)
        terms = data.draw(
            st.dictionaries(exponent, st.integers(-(2**70), 2**70).filter(bool), max_size=40)
        )
        F = pc.SparsePoly(Z, sorted(terms.items()))
        want = sum(c * ring.pow(alpha, e) for e, c in F.terms) % q
        assert ring.sparse_sum(F.terms, pw) == want
        assert pc.evaluate(F, alpha, ring) == want

    @given(st.data())
    def test_sparse_sum_by_runs_of_the_top_byte(self, data):
        # the top bytes of ascending exponents come in runs; summing a run
        # before its one product gives the per-term sum, with runs forced,
        # at the default threshold and never
        q = data.draw(st.sampled_from((2, 3, 65537, 2**61 - 1, PRIME_127)))
        ring = pc.GF(q)
        alpha = data.draw(st.integers(0, q - 1))
        shift = 8 * data.draw(st.integers(0, 7))
        top = 255 if shift < 56 else 127  # exponents stay below 2^63
        first = data.draw(st.integers(0, top))
        high = st.integers(first, min(top, first + data.draw(st.integers(0, 40))))
        exponent = st.builds(lambda h, l: h << shift | l, high, st.integers(0, (1 << shift) - 1))
        terms = data.draw(
            st.dictionaries(exponent, st.integers(-(2**70), 2**70), min_size=1, max_size=300)
        )
        F = pc.SparsePoly(Z, sorted(terms.items()))
        want = sum(c * ring.pow(alpha, e) for e, c in F.terms) % q
        for run_terms in (0, rings.RUN_TERMS, 10**9):
            with mock.patch.object(rings, "RUN_TERMS", run_terms):
                assert ring.sparse_sum(F.terms, power_table(ring, alpha)) == want

    def test_prime_field_window_grows_in_bulk_only_where_it_pays(self):
        # a request for every byte grows the window by one doubling per bit;
        # byte 220 asked for alone, and so one byte in 220, is filled lazily
        grown = []

        class GrowthSpy(pc.PrimeField):
            def double_powers(self, powers, steps):
                grown.append(len(steps))
                return super().double_powers(powers, steps)

        ring = GrowthSpy(65537)
        pw = power_table(ring, 3)
        assert pw.window(0, bytes([220]))[220] == pow(3, 220, 65537)
        assert grown == []
        window = pw.window(0, bytes(range(256)))
        assert grown == [8]
        assert window == [pow(3, j, 65537) for j in range(256)]
        assert pw.window(1, bytes(range(0, 64, 2)))[62] == pow(3, 62 << 8, 65537)
        assert grown == [8, 6]

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
        F = pc.DensePoly(pc.GF(7), [1, 1])
        with pytest.raises(ValueError):
            pc.evaluate(F, 1, pc.GF(5))

    def test_coefficients_in_a_quotient_ring_over_Z(self):
        # over Z[X]/(X^2 + 1) a tuple coefficient is a ring element, not a
        # base scalar: a + x at x is (1 + 2i) + i = 1 + 3i
        K = pc.ExtField(Z, [1, 0, 1])
        a = K.from_coeffs([1, 2])
        assert pc.evaluate(pc.SparsePoly(K, [(0, a), (1, K.one())]), K.x, K) == (1, 3)
        assert pc.evaluate(pc.DensePoly(K, [a, K.one()]), K.x, K) == (1, 3)


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

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=12))
    def test_norm_is_the_largest_absolute_value(self, cs):
        F = pc.DensePoly(Z, cs)
        expected = max(map(abs, cs), default=0)
        assert F.norm() == F.to_sparse().norm() == expected

    def test_zero_excess(self):
        g = pc.gap_info(EX22_P)
        assert sparsity_bound(7, 6, 0, g) == 7
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
            assert R.sparsity() <= sparsity_bound(
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

    def test_own_form_is_the_same_object(self, rng):
        for F in (rand_dense(Z, 9, rng), pc.DensePoly.zero(pc.GF(3))):
            assert F.to_dense() is F
        for F in (rand_sparse(Z, 100, 5, rng), pc.SparsePoly.zero(pc.GF(3))):
            assert F.to_sparse() is F

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

    def test_negative_exponent_is_named(self):
        # as the cap is named, not as an order violation; the parser keeps
        # its own message
        for terms in ([(-1, 1)], [(-5, 2), (3, 1)], [(2, 1), (-1, 1)]):
            with pytest.raises(ValueError, match=r"^negative exponent -\d+$"):
                pc.SparsePoly(Z, terms)
        with pytest.raises(pc.PolyFormatError, match=r"^exponent -1 out of range$"):
            pc.parse_poly("ring Z\nsparse -1:1\n")


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

    def test_field_modulus_checked_once_per_process(self):
        # a composite modulus is refused alike on every read; a prime one
        # reaches is_prime once, however many files name it
        poly._modulus_is_prime.cache_clear()
        with mock.patch.object(poly, "is_prime", wraps=poly.is_prime) as spy:
            for _ in range(3):
                with pytest.raises(PolyFormatError, match="^field modulus 65535 is not prime$"):
                    parse_poly("ring GF 65535\ndense 1 2\n")
                assert parse_poly("ring GF 65537\nsparse 0:1 9:2\n").ctx == pc.GF(65537)
                assert parse_poly("ring GF 65537\ndense 1 2\n").ctx == pc.GF(65537)
        assert sorted(call.args for call in spy.call_args_list) == [(65535,), (65537,)]

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
            "ring GF 7\ndense 1 -1 2\n": "coefficient -1 not reduced into [0, 7)",
            "ring Z\ndense 1 2.5 x\n": "bad coefficient '2.5'",
        }
        for text, message in cases.items():
            with pytest.raises(PolyFormatError) as exc:
                parse_poly(text)
            assert str(exc.value) == message

    def test_long_tokens_are_named_by_prefix_and_length(self):
        nines = "9" * 4400
        cases = {
            f"ring Z\ndense 1 {nines}\n": "bad coefficient '99999999...' (4400 characters)",
            f"ring GF 7\ndense 1 {nines[:4000]}\n":
                "coefficient '99999999...' (4000 characters) not reduced into [0, 7)",
            f"ring GF 7\nsparse 0:{nines}\n": "bad coefficient '99999999...' (4400 characters)",
            f"ring Z\nsparse {nines[:100]}:1\n": "exponent '99999999...' (100 characters) out of range",
            f"ring Z\nsparse x{nines[:40]}:1\n": "bad exponent 'x9999999...' (41 characters)",
            f"ring Z\nsparse 0:1 {nines[:41]}\n": "bad term '99999999...' (41 characters)",
            # up to 40 characters a token is quoted in full
            f"ring GF 7\ndense {nines[:40]}\n": f"coefficient {nines[:40]} not reduced into [0, 7)",
            f"ring Z\ndense x{nines[:39]}\n": f"bad coefficient 'x{nines[:39]}'",
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


def _per_token(ctx, text):
    """What the per-token loop makes of a sparse body: the polynomial, or
    the message of its PolyFormatError."""
    items = text.splitlines()[1].split()[1:]
    try:
        return pc.SparsePoly(ctx, _sparse_terms(ctx, items))
    except PolyFormatError as exc:
        return str(exc)


def _parsed(text):
    try:
        return parse_poly(text)
    except PolyFormatError as exc:
        return str(exc)


# tokens of sparse bodies: int literals of every kind, and malformed ones
_EXPONENT_TEXT = st.one_of(
    st.integers(0, 2**64).map(str),
    st.sampled_from(["-1", "+5", "1_0", "007", "", "x", "2.5", "9223372036854775807",
                     "9223372036854775808"]),
)
_COEFF_TEXT = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["0", "-0", "+3", "1_000", "", "7", "6", "-1", "x", "1:2"]),
)


@st.composite
def sparse_texts(draw):
    """(ctx, .poly text) with a sparse body over Z, GF(2), GF(7) or
    GF(65537): valid when a draw says so, otherwise built from the tokens
    above, which may break any rule of the format."""
    ctx = draw(st.sampled_from([Z, pc.GF(2), pc.GF(7), pc.GF(65537)]))
    q = None if ctx == Z else ctx.q
    if draw(st.booleans()):
        exps = sorted(draw(st.sets(st.integers(0, EXPONENT_CAP), max_size=30)))
        coeff = st.integers(1, q - 1) if q else st.integers(-(2**70), 2**70).filter(bool)
        tokens = [f"{e}:{draw(coeff)}" for e in exps]
    else:
        token = st.one_of(
            st.tuples(_EXPONENT_TEXT, _COEFF_TEXT).map(":".join),
            st.sampled_from(["5", ":", "1:2:3", "::"]),
        )
        tokens = draw(st.lists(token, max_size=8))
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t "]),
                         min_size=len(tokens), max_size=len(tokens)))
    body = "sparse" + "".join(sep + tok for sep, tok in zip(seps, tokens))
    return ctx, f"ring {'Z' if ctx == Z else f'GF {q}'}\n{body}\n"


class TestSparseBulkParse:
    """parse_poly reads a sparse body in bulk and, when any bulk check
    fails, again token by token; both give what the per-token loop gives."""

    @given(sparse_texts())
    def test_bulk_matches_per_token(self, instance):
        ctx, text = instance
        want = _per_token(ctx, text)
        assert _parsed(text) == want
        bulk = _bulk_sparse_terms(ctx, (text.splitlines()[1].split(None, 1) + [""])[1])
        if bulk is not None:  # the bulk checks never pass a bad body
            assert pc.SparsePoly(ctx, list(bulk)) == want

    def test_pinned_bodies(self):
        # the per-token loop's message, and so parse_poly's, over Z and GF(7)
        both = {
            "1:2:3 4": "bad coefficient '2:3'",
            "5:": "bad coefficient ''",
            ":3": "bad exponent ''",
            "-1:2": "exponent -1 out of range",
            "3:0": "zero coefficient in sparse term",
            "1:1 1:2": "exponents must be strictly increasing",
            "4:1 2:1": "exponents must be strictly increasing",
            "9223372036854775808:1": "exponent 9223372036854775808 out of range",
            "0:1 x": "bad term 'x'",
        }
        cases = [(ring, body, message) for body, message in both.items() for ring in ("Z", "GF 7")]
        cases += [
            ("GF 7", "0:7", "coefficient 7 not reduced into [0, 7)"),
            ("GF 7", "0:-1", "coefficient -1 not reduced into [0, 7)"),
        ]
        for ring, body, message in cases:
            with pytest.raises(PolyFormatError) as exc:
                parse_poly(f"ring {ring}\nsparse {body}\n")
            assert str(exc.value) == message
        # int literals the per-token loop accepts, and any whitespace
        assert parse_poly("ring Z\nsparse +5:1 1_0:3\n").terms == ((5, 1), (10, 3))
        assert parse_poly("ring GF 7\nsparse 0:1\t2:3   9:6\n").terms == ((0, 1), (2, 3), (9, 6))


# dense tokens that JSON and int() read differently, or that neither reads
_DENSE_ODD_TOKENS = ["+5", "007", "1_000", "-0", "-", "1-2", "2.5", "1e3", "1E3", "true",
                     "false", "null", "NaN", "Infinity", "[1]", '"1"', "1,2", "9" * 4400]


@st.composite
def dense_texts(draw):
    """(ctx, .poly text, tokens, canonical) with a dense body over Z, GF(2),
    GF(7) or GF(65537): canonical ints of the ring when a draw says so,
    otherwise also any int and the tokens above, one space apart or, when a
    draw says so, one or two spaces or a tab apart with or without a
    trailing space.  canonical says whether the body is one _bulk_ints must
    read."""
    ctx = draw(st.sampled_from([Z, pc.GF(2), pc.GF(7), pc.GF(65537)]))
    q = None if ctx == Z else ctx.q
    token = (st.integers(-(2**70), 2**70) if q is None else st.integers(0, q - 1)).map(str)
    canonical = draw(st.booleans())
    if not canonical:
        token = st.one_of(token, st.integers(-(2**70), 2**70).map(str),
                          st.sampled_from(_DENSE_ODD_TOKENS))
    tokens = draw(st.lists(token, max_size=12))
    seps, tail = [" "] * len(tokens), ""
    if not canonical and draw(st.booleans()):
        seps = draw(st.lists(st.sampled_from([" ", "  ", "\t"]),
                             min_size=len(tokens), max_size=len(tokens)))
        tail = draw(st.sampled_from(["", " "]))
    body = "dense" + "".join(sep + tok for sep, tok in zip(seps, tokens)) + tail
    return ctx, f"ring {'Z' if ctx == Z else f'GF {q}'}\n{body}\n", tokens, canonical


class TestDenseBulkParse:
    """parse_poly reads a canonical dense body by one JSON scan and any
    other body token by token; both give what the per-token read gives."""

    @given(dense_texts())
    def test_bulk_matches_per_token(self, instance):
        ctx, text, tokens, canonical = instance
        try:
            want = pc.DensePoly.trusted(ctx, [_parse_coeff(ctx, tok) for tok in tokens])
        except PolyFormatError as exc:
            want = str(exc)
        assert _parsed(text) == want
        bulk = _bulk_ints(" ".join(tokens))
        assert bulk is not None or not canonical
        if bulk is not None:  # JSON reads only what int() reads, to the same value
            assert bulk == [int(tok) for tok in tokens]

    def test_pinned_bodies(self):
        cases = {
            "ring Z\ndense 1 true 3": "bad coefficient 'true'",
            "ring GF 7\ndense 1 1e0": "bad coefficient '1e0'",
            "ring Z\ndense 1,2": "bad coefficient '1,2'",
        }
        for text, message in cases.items():
            with pytest.raises(PolyFormatError) as exc:
                parse_poly(text)
            assert str(exc.value) == message
        # int literals JSON refuses and the per-token read accepts, and any whitespace
        assert parse_poly("ring Z\ndense +5 007\t1_000  -0 \n").coeffs == (5, 7, 1000)
        assert parse_poly("ring GF 7\ndense 1 -0 6\n").coeffs == (1, 0, 6)


TRUSTED_RINGS = (Z, pc.GF(2), pc.GF(7), pc.ExtField(pc.GF(2), [1, 1, 1]))


class TestTrustedSparse:
    """SparsePoly.trusted and DensePoly.trusted, the unchecked constructions
    of the package's own canonical data, build what the checking
    constructors build."""

    @pytest.mark.parametrize("ctx", TRUSTED_RINGS, ids=repr)
    def test_drops_only_zero_coefficients(self, ctx):
        top = 2 % ctx.size() if ctx != Z else -4
        terms = [(0, 0), (3, 1), (5, 0), (9, top)]
        got = pc.SparsePoly.trusted(ctx, terms)
        assert got == pc.SparsePoly(ctx, terms)
        assert all(not ctx.is_zero(c) for _, c in got.terms)
        # trailing zeros, all zeros and no coefficients at all
        for cs in ([0, 1, 0, top, 0, 0], [0, 0, 0], []):
            got = pc.DensePoly.trusted(ctx, list(cs))
            assert got == pc.DensePoly(ctx, cs)
            assert got.is_zero() or not ctx.is_zero(got.coeffs[-1])

    @pytest.mark.parametrize("ctx", TRUSTED_RINGS, ids=repr)
    def test_conversions_are_canonical(self, ctx, rng):
        # to_dense and to_sparse, and sparsity() and norm() on both forms
        # against their brute-force definitions
        for _ in range(40):
            if rng.below(2):
                D = rand_dense(ctx, rng.below(30) - 1, rng)
            else:
                D = rand_sparse(ctx, 1 + rng.below(40), rng.below(12), rng).to_dense()
            S = D.to_sparse()
            for X in (D, S):
                assert X == rebuilt(X)
            assert S.to_dense() == D
            nonzero = [c for c in D.coeffs if not ctx.is_zero(c)]
            assert D.sparsity() == S.sparsity() == len(nonzero)
            if ctx == Z:
                assert D.norm() == S.norm() == max([abs(c) for c in nonzero], default=0)

    def test_reductions_are_canonical(self, rng):
        # every result equals its rebuild through the checking constructor
        for _ in range(60):
            ctx = (Z, pc.GF(2), pc.GF(3))[rng.below(3)]
            F = rand_sparse(ctx, 200, 1 + rng.below(12), rng)
            i = 1 + rng.below(20)
            P = rand_monic_sparse(ctx, 1 + rng.below(30), 1 + rng.below(4), rng)
            dense = pc.mod_reduce(F.to_dense(), P)
            assert dense == pc.mod_reduce(F, P).to_dense()
            for got in (pc.reduce_mod_binomial(F, i), pc.mod_reduce(F, P), dense):
                assert got == rebuilt(got)
