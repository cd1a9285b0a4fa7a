"""The fused kernels of every element representation against the generic
ring-method loops that stay as their reference:
  - dense Horner and the dense scan (poly._horner and modeval._dense_scan):
    ints in GF(q) at any point, packed GF(2)[X]/(R) and slot-packed
    GF(q)[X]/(R) at x, for reducible and irreducible R;
  - the blocked Horner kernels at full block size, on lengths up to 8193
    and the largest coefficients and slot contents;
  - the scan kernels at their step boundaries: the GF(2) scan at x, eight
    indices per step, and the transposed scan in GF(q), on lengths 1 to 17
    and 8191 to 8193 with len(gs) = len(V) + 1 and shorter, R of degree 1
    to 64, all-zero, all-one and all-(q - 1) V and gs, f = 0 and
    P(alpha) = 0, and signed 2048-bit V and gs over Z at a point of GF(p);
    and one true instance at n = 2^13, the size of the benchmark;
  - the sparse sum in GF(q), a byte of every exponent at a time
    (PrimeField.sparse_sum against poly._sparse_sum), on power tables that
    several polynomials and single powers share;
  - the lane-packed GF(2) scan of many moduli at once
    (gf2_first_mismatch) against modverify._agree_at, one modulus at a time;
  - integer polynomials at a point of GF(m), which the int kernels
    evaluate as they are, with no copy, against their canonical copies in
    GF(m) built by the checking constructors;
  - the dense scan's exit where nothing wraps (F(alpha) G(alpha)) against
    the scan and the oracle, on both sides of deg F + deg G = deg P;
  - the packed arithmetic of GF(q)[X]/(R) for odd q (the product, pow in
    the slots, the packed product form and its slot reduction) against
    ExtField's generic product and pow, with their POLY_MUL_OPS counts,
    and Horner at x on zero blocks;
  - the generic sparse sum (poly._sparse_sum), which sums by buckets in
    the ring's product form, against the same loop in the element form
    and against the per-term loop it replaced (_per_term_sum, here), by
    value and by its products, in GF(2)[X]/(R), odd-q GF(q)[X]/(R) and
    two towers, with coefficients in the base and in the ring itself.
Z has no kernel; its instances check the generic loops against the oracle.

These tests run under the "thorough" hypothesis profile in CI as well; see
conftest.py.
"""

import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck import modeval
from polycheck.modeval import (
    _dense_scan,
    eval_mod_p_dense,
    gf2_first_mismatch,
    leading_coefficients,
)
from polycheck.modverify import _agree_at
from polycheck.poly import (
    EXPONENT_CAP,
    _horner,
    _sparse_sum,
    evaluate,
    power_table,
)
from polycheck.rings import POLY_MUL_OPS, ExtField, RngStream, random_irreducible, random_monic
from conftest import counted, gf2_clmul, rebuilt
from oracle import oracle_mod_product

Z = pc.ZZ
F2 = pc.GF(2)
FIELDS = tuple(pc.GF(q) for q in (2, 3, 7, 65537, 2**61 - 1))
BIG = 2**64


def _coeff(ctx, extreme):
    """Coefficients of ctx; "extreme" makes every one q - 1 (or -2^64 in Z),
    the largest slot contents the packed kernels can meet."""
    if ctx == Z:
        return st.just(-BIG) if extreme else st.integers(-BIG, BIG)
    return st.just(ctx.q - 1) if extreme else st.integers(0, ctx.q - 1)


def _columns(terms):
    """The (e, c) pairs terms as the two parallel tuples the sparse sums
    take: exponents and coefficients."""
    return tuple(e for e, _ in terms), tuple(c for _, c in terms)


@lru_cache(maxsize=None)
def _irreducible(q, d, seed):
    return tuple(random_irreducible(pc.GF(q), d, Fraction(1, 4), RngStream(seed)).coeffs)


@st.composite
def points(draw, ctx):
    """(ring, alpha): ctx itself at a random point, or GF(q)[X]/(R) at x for
    a monic R of degree D in 1..40, reducible or irreducible."""
    if ctx == Z or draw(st.booleans()):
        return ctx, draw(_coeff(ctx, False))
    q = ctx.q
    d = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("random", "ones", "extreme", "irreducible")))
    if kind == "irreducible" and (q <= 7 or d <= 6):
        R = _irreducible(q, d, draw(st.integers(0, 3)))
    elif kind == "ones":
        R = (1,) * (d + 1)  # -R mod q is q - 1 in every slot of M
    elif kind == "extreme":
        R = (q - 1,) * d + (1,)
    else:
        R = tuple(draw(st.lists(_coeff(ctx, False), min_size=d, max_size=d))) + (1,)
    ring = ExtField(ctx, R)
    return ring, ring.x


@st.composite
def scan_instances(draw):
    """(P, F, G, ring, alpha) over one of GF(2), GF(3), GF(7), GF(65537),
    GF(2^61 - 1) and Z: P monic of degree n in 1..300 (n = 1 and 2 drawn
    often), F and G dense of degree < n, G often much shorter than n."""
    ctx = draw(st.sampled_from(FIELDS + (Z,)))
    extreme = draw(st.booleans())
    coeff = _coeff(ctx, extreme)
    n = draw(st.one_of(st.sampled_from((1, 2)), st.integers(1, 300)))
    if draw(st.booleans()):
        P = pc.x_pow_minus_one(ctx, n)
    else:
        # small over Z, where reducing the oracle's product would blow up
        low_coeff = st.integers(-3, 3) if ctx == Z else coeff
        low = draw(st.dictionaries(st.integers(0, n - 1), low_coeff, max_size=4))
        P = pc.SparsePoly.from_dict(ctx, {**low, n: 1})
    F = pc.DensePoly(ctx, draw(st.lists(coeff, min_size=n, max_size=n)))
    g_len = draw(st.one_of(st.just(n), st.integers(0, n)))
    G = pc.DensePoly(ctx, draw(st.lists(coeff, min_size=g_len, max_size=g_len)))
    ring, alpha = draw(points(ctx))
    return P, F, G, ring, alpha


@st.composite
def raw_scans(draw):
    """Arbitrary scan inputs (f, pa, V, gs), not only those of a true
    instance; "extreme" puts q - 1 in V and gs and in every coordinate of
    f, and 1 in every coordinate of pa, so -pa packs q - 1 as well."""
    ctx = draw(st.sampled_from(FIELDS))
    ring, alpha = draw(points(ctx))
    extreme = draw(st.booleans())
    coeff = _coeff(ctx, extreme)
    m = draw(st.integers(1, 300))
    V = draw(st.lists(coeff, min_size=m - 1, max_size=m - 1))
    gs = draw(st.lists(coeff, min_size=1, max_size=m))
    if ring is ctx:
        f, pa = draw(coeff), draw(coeff)
    elif extreme:
        f = ring.from_coeffs([ctx.q - 1] * ring.d)
        pa = ring.from_coeffs([1] * ring.d)
    else:
        f, pa = (ring.from_coeffs(draw(st.lists(_coeff(ctx, False), min_size=ring.d,
                                                 max_size=ring.d))) for _ in "fp")
    return ring, alpha, ctx, f, pa, V, gs


class TestKernelsMatchTheGenericLoops:
    @given(scan_instances())
    def test_horner(self, inst):
        P, F, G, ring, alpha = inst
        kernel = ring.serves_dense(F.ctx, alpha)
        assert kernel is (F.ctx != Z)
        before = POLY_MUL_OPS.count
        for X in (F, G, P.to_dense()):
            want = _horner(X.coeffs, alpha, ring, X.ctx)
            if kernel:
                assert ring.horner(X.coeffs, alpha) == want
            assert evaluate(X, alpha, ring) == want
        if isinstance(ring, ExtField):
            assert POLY_MUL_OPS.count == before

    @given(scan_instances())
    def test_modular_scan(self, inst):
        P, F, G, ring, alpha = inst
        before = POLY_MUL_OPS.count
        got = eval_mod_p_dense(P, F, G, alpha, ring)
        if isinstance(ring, ExtField):
            assert POLY_MUL_OPS.count == before
        if F.is_zero() or G.is_zero():
            assert got == ring.zero()
            return
        V = leading_coefficients(P, F)
        p_alpha = _horner(P.to_dense().coeffs, alpha, ring, F.ctx)
        f_alpha = _horner(F.coeffs, alpha, ring, F.ctx)
        assert got == _dense_scan(f_alpha, alpha, p_alpha, V, G.coeffs, ring, F.ctx)
        assert got == _horner(oracle_mod_product(F, G, P).coeffs, alpha, ring, F.ctx)

    @given(raw_scans())
    def test_dense_scan_on_arbitrary_inputs(self, inst):
        ring, alpha, ctx, f, pa, V, gs = inst
        assert ring.dense_scan(f, alpha, pa, V, gs) == _dense_scan(
            f, alpha, pa, V, gs, ring, ctx
        )


NO_WRAP_PRIMES = (2, 7, 65537, 2**61 - 1)


@st.composite
def boundary_instances(draw):
    """(P, F, G, ring, alpha) with deg F + deg G = deg P - 1, where nothing
    wraps, or = deg P, the first wrap; deg P from 1 to 60 (2 to 60 for a
    wrap).  F and G are both dense, or one dense and one sparse of up to 5
    terms.  The point is a random one of GF(q) for q in 2, 7, 65537 and
    2^61 - 1, or of GF(q)[X]/(R) for R random monic of degree 1 to 6, or
    one of GF(p) for the same primes over Z, whose coefficients are signed,
    up to 2048 bits, and often multiples of p."""
    q = draw(st.sampled_from(NO_WRAP_PRIMES))
    if draw(st.booleans()):
        ctx, ring = Z, pc.GF(q)
        coeff = st.one_of(st.integers(-(2**2048), 2**2048),
                          st.integers(-(2**40), 2**40).map(lambda c: c * q))
        alpha = draw(st.integers(0, q - 1))
    else:
        ctx = pc.GF(q)
        coeff = st.integers(0, q - 1)
        if draw(st.booleans()):
            ring, alpha = ctx, draw(coeff)
        else:
            d = draw(st.integers(1, 6))
            ring = ExtField(ctx, draw(st.lists(coeff, min_size=d, max_size=d)) + [1])
            alpha = ring.from_coeffs(draw(st.lists(coeff, min_size=d, max_size=d)))
    wrap = draw(st.booleans())
    n = draw(st.integers(1 + wrap, 60))
    total = n - 1 + wrap
    deg_f = draw(st.integers(max(0, total - n + 1), min(n - 1, total)))
    low = st.integers(-3, 3) if ctx == Z else coeff
    if draw(st.booleans()):
        P = pc.x_pow_minus_one(ctx, n)
    else:
        P = pc.SparsePoly.from_dict(
            ctx, {**draw(st.dictionaries(st.integers(0, n - 1), low, max_size=4)), n: 1})

    def factor(deg, sparse):
        lead = draw(coeff.filter(bool))
        if sparse:
            terms = draw(st.dictionaries(st.integers(0, deg), coeff, max_size=4))
            return pc.SparsePoly.from_dict(ctx, {**terms, deg: lead})
        return pc.DensePoly(ctx, draw(st.lists(coeff, min_size=deg, max_size=deg)) + [lead])

    sparse = draw(st.sampled_from((None, "F", "G")))
    F, G = factor(deg_f, sparse == "F"), factor(total - deg_f, sparse == "G")
    return P, F, G, ring, alpha


class TestNothingWraps:
    @given(boundary_instances())
    def test_exit_matches_the_scan_and_the_oracle(self, inst):
        """Where nothing wraps the dense scan's value, F(alpha) G(alpha),
        equals _dense_scan and the oracle, and the leading coefficients
        are never computed; from the first wrap on, they are, as at the
        class of X."""
        P, F, G, ring, alpha = inst
        wraps = F.degree() + G.degree() >= P.degree()
        at_x = isinstance(ring, ExtField) and alpha is ring.x
        with mock.patch.object(modeval, "leading_coefficients",
                               wraps=leading_coefficients) as spy:
            got = eval_mod_p_dense(P, F, G, alpha, ring)
        assert spy.called is (wraps or at_x)
        Fd, Gd = F.to_dense(), G.to_dense()
        V = leading_coefficients(P, Fd, ring)
        p_alpha = _horner(P.to_dense().coeffs, alpha, ring, F.ctx)
        f_alpha = _horner(Fd.coeffs, alpha, ring, F.ctx)
        assert got == _dense_scan(f_alpha, alpha, p_alpha, V, Gd.coeffs, ring, F.ctx)
        assert got == _horner(oracle_mod_product(Fd, Gd, P).coeffs, alpha, ring, F.ctx)


# exponents anywhere in [0, 2^63 - 1], or byte by byte with many bytes 0 or
# 255, so that zero bytes sit between nonzero ones and windows run full
_BYTES = st.lists(st.one_of(st.sampled_from((0, 0, 1, 255)), st.integers(0, 255)),
                  min_size=8, max_size=8)
EXPONENTS = st.one_of(
    st.integers(0, EXPONENT_CAP),
    _BYTES.map(lambda bs: int.from_bytes(bytes(bs), "little") & EXPONENT_CAP),
    st.integers(0, 300),
)


@st.composite
def sparse_sum_instances(draw):
    """(ctx, alpha, polys, probes): one to three sparse polynomials over one
    GF(q) of FIELDS, each empty, a single term or up to 40 terms, with
    coefficients all q - 1 or random; alpha any point, 0, 1 and q - 1
    included; probes, exponents to ask the table for one at a time."""
    ctx = draw(st.sampled_from(FIELDS))
    q = ctx.q
    alpha = draw(st.one_of(st.sampled_from((0, 1, q - 1)), st.integers(0, q - 1)))

    def poly():
        size = draw(st.one_of(st.sampled_from((0, 1)), st.integers(0, 40)))
        exps = draw(st.lists(EXPONENTS, min_size=size, max_size=size, unique=True))
        coeff = _coeff(ctx, draw(st.booleans()))
        return pc.SparsePoly.from_dict(ctx, {e: draw(coeff) for e in exps})

    polys = [poly() for _ in range(draw(st.integers(1, 3)))]
    return ctx, alpha, polys, draw(st.lists(EXPONENTS, max_size=8))


class TestSparseKernel:
    @given(sparse_sum_instances())
    def test_sparse_sum_matches_the_per_term_loop(self, inst):
        """One table serves every polynomial, in both orders, and then the
        single powers pw(e): the entries the kernel filled in bulk and those
        pw(e) fills lazily agree with each other and with pow."""
        ctx, alpha, polys, probes = inst
        q = ctx.q
        want = [_sparse_sum(X.exps, X.cs, power_table(ctx, alpha), ctx, ctx) for X in polys]
        for X, value in zip(polys, want):
            assert value == sum(c * pow(alpha, e, q) for e, c in X.terms) % q
        before = POLY_MUL_OPS.count
        for order in (range(len(polys)), range(len(polys) - 1, -1, -1)):
            pw = power_table(ctx, alpha)
            for k in order:
                assert ctx.sparse_sum(polys[k].exps, polys[k].cs, pw) == want[k]
                assert evaluate(polys[k], alpha, ctx, pw) == want[k]
            assert [pw(e) for e in probes] == [pow(alpha, e, q) for e in probes]
        assert POLY_MUL_OPS.count == before

    def test_single_powers_first_then_the_kernel(self):
        ctx = pc.GF(65537)
        terms = ((0, 5), (0x0100_0000_00FF, 65536), (EXPONENT_CAP, 1))
        pw = power_table(ctx, 3)
        assert pw(0x00FF_0000_0001) == pow(3, 0x00FF_0000_0001, 65537)
        want = sum(c * pow(3, e, 65537) for e, c in terms) % 65537
        assert ctx.sparse_sum(*_columns(terms), pw) == want
        assert ctx.sparse_sum((), (), pw) == 0


class TestGF2SparseKernel:
    def test_which_rings_sum_sparse_terms(self):
        # GF(2)[X]/(R) runs the generic loop, on the same bit-sliced table
        gf2 = ExtField(F2, [1, 1, 1])
        assert not gf2.serves_sparse(F2)
        assert not gf2.serves_sparse(gf2)  # coefficients in the ring itself
        assert not ExtField(pc.GF(3), [1, 0, 1]).serves_sparse(pc.GF(3))
        assert not ExtField(Z, [1, 0, 1]).serves_sparse(Z)
        assert pc.GF(7).serves_sparse(pc.GF(7)) and pc.GF(7).serves_sparse(Z)
        assert not Z.serves_sparse(Z)


# moduli of GF(m): primes, composites (the int kernels never invert) and
# anything up to 2^70
MODULI = st.one_of(
    st.sampled_from((2, 3, 65537, 2**61 - 1, 4, 6, 91, 2**64, 3**40)),
    st.integers(2, 2**70),
)
BIG_COEFF = st.one_of(st.sampled_from((-(2**200), 2**200, -1)), st.integers(-(2**200), 2**200))


@st.composite
def integer_instances(draw):
    """(m, alpha, polys): a modulus m >= 2, a point of GF(m), 0, 1 and m - 1
    included, and three polynomials F, G, H over Z with signed coefficients
    up to 2^200 in absolute value, all dense (up to 40 coefficients) or all
    sparse (up to 40 terms, exponents up to 2^63 - 1)."""
    m = draw(MODULI)
    alpha = draw(st.one_of(st.sampled_from((0, 1, m - 1)), st.integers(0, m - 1)))
    dense = draw(st.booleans())

    def poly():
        if dense:
            return pc.DensePoly(Z, draw(st.lists(BIG_COEFF, max_size=40)))
        exps = draw(st.lists(EXPONENTS, max_size=40, unique=True))
        return pc.SparsePoly.from_dict(Z, {e: draw(BIG_COEFF) for e in exps})

    return m, alpha, [poly() for _ in "FGH"]


class TestIntegersAtAPointOfGFm:
    @given(integer_instances())
    def test_evaluate_matches_the_reduced_copy(self, inst):
        """evaluate at a point of GF(m) gives the value of the canonical
        copy in GF(m), with one table shared by F, G and H in either
        order."""
        m, alpha, polys = inst
        ring = pc.PrimeField(m)
        want = [evaluate(rebuilt(X, ring), alpha, ring) for X in polys]
        for X, value in zip(polys, want):
            terms = X.terms if isinstance(X, pc.SparsePoly) else enumerate(X.coeffs)
            assert value == sum(c * pow(alpha, e, m) for e, c in terms) % m
        for order in (range(3), range(2, -1, -1)):
            pw = power_table(ring, alpha)
            assert [evaluate(polys[k], alpha, ring, pw) for k in order] == [
                want[k] for k in order
            ]

    def test_mismatched_rings_still_raise(self):
        for make in (pc.DensePoly, lambda ctx, cs: pc.SparsePoly(ctx, enumerate(cs))):
            with pytest.raises(ValueError, match="evaluation point"):
                evaluate(make(pc.GF(7), [1, 1]), 1, pc.GF(5))
            with pytest.raises(ValueError, match="evaluation point"):
                evaluate(make(pc.GF(5), [1, 1]), 1, Z)
            ring = ExtField(pc.GF(5), [2, 0, 1])
            with pytest.raises(ValueError, match="evaluation point"):
                evaluate(make(Z, [1, 1]), ring.x, ring)


def _bits(a):
    return [(a >> i) & 1 for i in range(a.bit_length())]


@st.composite
def lane_instances(draw):
    """(P, F, G, H, moduli) over GF(2): P monic of degree n in 1..200 with
    its second degree anywhere below n; F, G and H of any length up to n,
    zero included; 1..64 moduli of one degree d in 1..24, each uniform,
    X^d or X^d + 1.  H is the true (F*G) mod P, a random polynomial, or the
    true one plus S R_0 ... R_(k-1), which the first k moduli divide."""
    n = draw(st.integers(1, 200))
    k2 = draw(st.integers(0, n - 1))
    low = draw(st.sets(st.integers(0, k2), max_size=3)) | {k2}
    P = pc.SparsePoly.from_dict(F2, {**dict.fromkeys(low, 1), n: 1})
    bits = st.integers(0, 1)

    def poly():
        length = draw(st.one_of(st.just(n), st.integers(0, n)))
        return pc.DensePoly(F2, draw(st.lists(bits, min_size=length, max_size=length)))

    F, G = poly(), poly()
    d = draw(st.integers(1, 24))
    tails = st.one_of(st.just(0), st.just(1), st.integers(0, (1 << d) - 1))
    m = draw(st.integers(1, 64))
    moduli = [_bits(t | 1 << d) for t in draw(st.lists(tails, min_size=m, max_size=m))]
    true = oracle_mod_product(F, G, P)
    h_kind = draw(st.sampled_from(("true", "random", "divisible")))
    if h_kind == "random":
        H = poly()
    elif h_kind == "true":
        H = true
    else:
        delta = draw(st.integers(1, 3))
        for R in moduli[: draw(st.integers(1, len(moduli)))]:
            r = sum(c << i for i, c in enumerate(R))
            if gf2_clmul(delta, r).bit_length() > n:
                break
            delta = gf2_clmul(delta, r)
        if delta.bit_length() > n:
            delta = 1
        h = sum(c << i for i, c in enumerate(true.coeffs)) ^ delta
        H = pc.DensePoly(F2, _bits(h))
    return P, F, G, H, moduli


def _first_disagreement(P, F, G, H, moduli):
    """The reference of gf2_first_mismatch: _agree_at one modulus at a time."""
    for j, R in enumerate(moduli):
        ring = ExtField(F2, R)
        if not _agree_at(F, G, H, P, ring.x, ring):
            return j
    return None


# (kind, n, d) around the blocks of the lane Horner, b = min(n + 1,
# isqrt((n + 1) d)) codes each over the n + 1 codes: one block, n + 1 a
# multiple of b, and a partial first (highest) block, P's top code alone in
# it where n is a multiple of b; d = 1 and d >= 31
LANE_SHAPES = (
    ("one", 1, 2), ("one", 5, 8), ("one", 30, 40),
    ("multiple", 15, 1), ("multiple", 63, 4), ("multiple", 99, 1), ("multiple", 278, 31),
    ("partial", 16, 1), ("partial", 64, 4), ("partial", 122, 31),
    ("partial", 22, 1), ("partial", 300, 31),
)


class TestLaneKernel:
    @given(lane_instances())
    def test_first_mismatch_matches_agree_at(self, inst):
        P, F, G, H, moduli = inst
        want = _first_disagreement(P, F, G, H, moduli)
        before = POLY_MUL_OPS.count
        assert gf2_first_mismatch(P, F, G, H, moduli) == want
        assert POLY_MUL_OPS.count == before

    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("kind, n, d", LANE_SHAPES)
    def test_block_boundaries(self, kind, n, d, m):
        """The true H, and an H off by a multiple of R0 at the moduli
        [R1, R0, ..., R0] and [R0, ..., R0, R1], which disagree in the first
        and in the last lane only (off by 1 where deg R0 >= n)."""
        b = min(n + 1, math.isqrt((n + 1) * d))
        assert {"one": n + 1 <= b, "multiple": n + 1 > b and (n + 1) % b == 0,
                "partial": (n + 1) % b != 0}[kind]
        rng = RngStream(1000 * n + d)
        P = pc.SparsePoly.from_dict(F2, {0: 1, rng.below(n): 1, n: 1})
        F, G = (pc.DensePoly(F2, [rng.bits(1) for _ in range(n)]) for _ in "FG")
        true = oracle_mod_product(F, G, P)
        R0 = R1 = random_monic(F2, d, rng)
        while R1 == R0:
            R1 = random_monic(F2, d, rng)
        delta = sum(c << i for i, c in enumerate(R0)) if d < n else 1
        off = pc.DensePoly(F2, _bits(sum(c << i for i, c in enumerate(true.coeffs)) ^ delta))
        cases = [(true, [random_monic(F2, d, rng) for _ in range(m)], None),
                 (off, [R1] + [R0] * (m - 1), 0)]
        if d < n and m > 1:
            cases.append((off, [R0] * (m - 1) + [R1], m - 1))
        for H, moduli, want in cases:
            assert _first_disagreement(P, F, G, H, moduli) == want
            before = POLY_MUL_OPS.count
            assert gf2_first_mismatch(P, F, G, H, moduli) == want
            assert POLY_MUL_OPS.count == before

    def test_one_block_of_two_codes(self):
        """P = X + 1 and d = 2: the two codes make the only block, and H = 1
        disagrees with F G = 0 at every R."""
        P = pc.SparsePoly.from_dict(F2, {0: 1, 1: 1})
        zero, one = pc.DensePoly(F2, []), pc.DensePoly(F2, [1])
        for moduli in ([[1, 0, 1]], [[1, 1, 1], [0, 0, 1]]):
            assert gf2_first_mismatch(P, zero, zero, one, moduli) == 0
            assert gf2_first_mismatch(P, zero, zero, zero, moduli) is None

    def test_no_moduli_and_bad_moduli(self):
        P = pc.x_pow_minus_one(F2, 5)
        F = pc.DensePoly(F2, [1, 1])
        assert gf2_first_mismatch(P, F, F, F, []) is None
        for moduli in ([[1]], [[1, 1], [1, 0, 1]], [[1, 0]]):
            with pytest.raises(ValueError, match="monic of one degree"):
                gf2_first_mismatch(P, F, F, F, moduli)
        P7 = pc.x_pow_minus_one(pc.GF(7), 5)
        F7 = pc.DensePoly(pc.GF(7), [1, 1])
        with pytest.raises(ValueError, match="over GF"):
            gf2_first_mismatch(P7, F7, F7, F7, [[1, 1]])


@pytest.mark.parametrize("q", [3, 65537, 2**61 - 1])
@pytest.mark.parametrize("d", [1, 2, 5, 40])
def test_packed_slots_at_their_largest(q, d):
    """Every input at the top of its range: M and -pa pack q - 1 in every
    slot, as do f, V and gs, over 300 steps."""
    ctx = pc.GF(q)
    ring = ExtField(ctx, [1] * (d + 1))
    f = ring.from_coeffs([q - 1] * d)
    pa = ring.from_coeffs([1] * d)
    V, gs = [q - 1] * 299, [q - 1] * 300
    want = _dense_scan(f, ring.x, pa, V, gs, ring, ctx)
    assert ring.dense_scan(f, ring.x, pa, V, gs) == want
    assert ring.horner(gs, ring.x) == _horner(gs, ring.x, ring, ctx)


# the scan kernels at their step boundaries: lengths around one and two
# bytes of the GF(2) step and around 2^13, the size of the benchmark
SCAN_LENGTHS = tuple(range(1, 18)) + (8191, 8192, 8193)


def _fill(kind, k, rng, top):
    """k values: all 0, all 1, all top, or random in [0, top]."""
    if kind == "random":
        return [rng.randint(0, top) for _ in range(k)]
    return [{"zero": 0, "one": 1, "top": top}[kind]] * k


# (V, gs) kinds, the elements f and pa each random or 0; V has length
# m - 1 + extra for each of EXTRA: len(gs) = len(V) + 1, len(gs) <
# len(V) + 1, and len(gs) > len(V) + 1, where the reference's zip stops at
# the end of V
SCAN_KINDS = (
    ("random", "random", True, True),
    ("random", "random", False, True),
    ("random", "random", True, False),
    ("zero", "one", True, True),
    ("one", "zero", True, True),
    ("one", "one", True, True),
    ("top", "top", True, True),
)
EXTRA = (0, 3, -2)


class TestScanKernelEdges:
    @pytest.mark.parametrize("m", SCAN_LENGTHS)
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 34, 64])
    def test_gf2_at_x(self, d, m):
        """The byte step against the one-index reference: lengths that end
        inside, at and past a byte, R of degree below, at and above 8."""
        rng = RngStream(100 * d + m)
        ring = ExtField(F2, random_monic(F2, d, rng))
        for v_kind, g_kind, with_f, with_pa in SCAN_KINDS:
            f = rng.bits(d) if with_f else 0
            pa = rng.bits(d) if with_pa else 0
            for extra in EXTRA:
                V = _fill(v_kind, m - 1 + extra, rng, 1)
                gs = _fill(g_kind, m, rng, 1)
                want = _dense_scan(f, ring.x, pa, V, gs, ring, F2)
                before = POLY_MUL_OPS.count
                assert ring.dense_scan(f, ring.x, pa, V, gs) == want
                assert POLY_MUL_OPS.count == before

    @pytest.mark.parametrize("m", SCAN_LENGTHS)
    @pytest.mark.parametrize("q", [2, 3, 65537, 2**61 - 1])
    def test_prime_field(self, q, m):
        """In GF(q) at a random point, 0 and 1; "top" is q - 1 everywhere."""
        ctx, rng = pc.GF(q), RngStream(m)
        for v_kind, g_kind, with_f, with_pa in SCAN_KINDS:
            f = rng.below(q) if with_f else 0
            pa = rng.below(q) if with_pa else 0
            for extra, alpha in ((0, rng.below(q)), (3, 0), (-2, 1)):
                V = _fill(v_kind, m - 1 + extra, rng, q - 1)
                gs = _fill(g_kind, m, rng, q - 1)
                assert ctx.dense_scan(f, alpha, pa, V, gs) == _dense_scan(
                    f, alpha, pa, V, gs, ctx, ctx)

    @pytest.mark.parametrize("m", SCAN_LENGTHS)
    @pytest.mark.parametrize("q", [2, 65537, 2**61 - 1])
    def test_integers_at_a_point_of_gf_p(self, q, m):
        """Signed 2048-bit V and gs over Z, multiples of p among them, read
        as they are at a point of GF(p)."""
        ring, rng = pc.GF(q), RngStream(m)

        def wide(k):
            return [rng.randint(-(2**2048), 2**2048) if rng.bits(1)
                    else q * rng.randint(-(2**40), 2**40) for _ in range(k)]

        for extra in EXTRA:
            f, pa, alpha = rng.below(q), rng.below(q), rng.below(q)
            V, gs = wide(m - 1 + extra), wide(m)
            assert ring.dense_scan(f, alpha, pa, V, gs) == _dense_scan(
                f, alpha, pa, V, gs, ring, Z)


@pytest.mark.parametrize("q", [2, 2**61 - 1])
def test_scan_at_the_size_of_the_benchmark(q):
    """A true instance at n = 2^13 with P = X^8192 + X^3 + 1: over GF(2)
    at x of GF(2)[X]/(R) for R irreducible of degree 34, with no counted
    product, and over GF(2^61 - 1) at a random point."""
    ctx, rng, n = pc.GF(q), RngStream(q), 8192
    P = pc.SparsePoly.from_dict(ctx, {0: 1, 3: 1, n: 1})
    F, G = (pc.DensePoly(ctx, [rng.below(q) for _ in range(n)]) for _ in "FG")
    H = pc.mod_reduce(pc.mul_oracle(F, G), P).to_dense()
    if q == 2:
        ring = ExtField(ctx, _irreducible(2, 34, 0))
        alpha = ring.x
    else:
        ring, alpha = ctx, rng.below(q)
    before = POLY_MUL_OPS.count
    got = eval_mod_p_dense(P, F, G, alpha, ring)
    assert POLY_MUL_OPS.count == before
    V = leading_coefficients(P, F, ring)
    p_alpha = _horner(P.to_dense().coeffs, alpha, ring, ctx)
    f_alpha = _horner(F.coeffs, alpha, ring, ctx)
    assert got == _dense_scan(f_alpha, alpha, p_alpha, V, G.coeffs, ring, ctx)
    assert got == _horner(H.coeffs, alpha, ring, ctx)


# the blocked Horner kernels at the block sizes of real inputs: lengths
# around squares and powers of two up to 8193, where b reaches 90
FULL_BLOCK_LENGTHS = (0, 1, 2, 3, 4, 15, 16, 17, 4095, 4096, 4097, 8192, 8193)


class TestHornerAtFullBlockSize:
    @pytest.mark.parametrize("n", FULL_BLOCK_LENGTHS)
    @pytest.mark.parametrize("q", [65537, 2**61 - 1])
    def test_prime_field(self, q, n):
        ctx, rng = pc.GF(q), RngStream(n)
        cs = [rng.below(q) for _ in range(n)]
        for alpha in (0, 1, q - 1, rng.below(q)):
            assert ctx.horner(cs, alpha) == _horner(cs, alpha, ctx, ctx)

    @pytest.mark.parametrize("n", FULL_BLOCK_LENGTHS)
    def test_integers_at_a_point_of_gf_p(self, n):
        """Coefficients of +-2^64 over Z, at a random point and at the
        Kronecker point 2^w of a random prime and of a Mersenne modulus."""
        rng = RngStream(n)
        cs = [BIG if rng.bits(1) else -BIG for _ in range(n)]
        p = pc.random_prime(2**64, Fraction(1, 2**20), rng)
        for m, alpha in ((p, rng.below(p)), (p, pow(2, 80, p)), (2**61 - 1, pow(2, 80, 2**61 - 1))):
            ring = pc.GF(m)
            assert ring.horner(cs, alpha) == _horner(cs, alpha, ring, Z)
            assert evaluate(pc.DensePoly(Z, cs), alpha, ring) == _horner(cs, alpha, ring, Z)

    @pytest.mark.parametrize("n", FULL_BLOCK_LENGTHS)
    @pytest.mark.parametrize("d", [1, 3, 40])
    @pytest.mark.parametrize("q", [3, 65537, 2**61 - 1])
    def test_quotient_ring_at_x_with_the_largest_slots(self, q, d, n):
        """Every coefficient is q - 1.  R = (1, ..., 1) packs -R mod q =
        q - 1 in every slot of M, the largest slot contents the powers can
        reach; R = (q - 1, ..., q - 1, 1) packs 1."""
        cs = [q - 1] * n
        for R in ((1,) * (d + 1), (q - 1,) * d + (1,)):
            ring = ExtField(pc.GF(q), R)
            before = POLY_MUL_OPS.count
            got = ring.horner(cs, ring.x)
            assert POLY_MUL_OPS.count == before
            assert got == _horner(cs, ring.x, ring, ring.base)


class TestDispatch:
    def test_coefficients_in_the_ring_itself_take_the_generic_loop(self):
        # 2 is both the cached small int and x of GF(2^8)
        gf2_8 = ExtField(pc.GF(2), [1, 0, 1, 1, 1, 0, 0, 0, 1])
        assert gf2_8.x == 2 and not gf2_8.serves_dense(gf2_8, 2)
        F = pc.DensePoly(gf2_8, [3, 0, 7, 1])
        want = gf2_8.add(gf2_8.add(3, gf2_8.mul(7, gf2_8.mul(2, 2))),
                         gf2_8.mul(2, gf2_8.mul(2, 2)))
        assert evaluate(F, 2, gf2_8) == want

    def test_other_points_and_rings_take_the_generic_loop(self):
        ring = ExtField(pc.GF(7), [3, 1, 1])
        assert ring.serves_dense(pc.GF(7), ring.x)
        assert not ring.serves_dense(pc.GF(7), ring.from_coeffs([0, 1]))  # equal to x, not x
        assert not ExtField(Z, [1, 0, 1]).serves_dense(Z, ExtField(Z, [1, 0, 1]).x)
        with pytest.raises(ValueError, match="at x only"):
            ring.horner([1, 2], ring.from_coeffs([2, 1]))

    def test_leading_coefficients_read_reversed_coefficients(self):
        ctx = pc.GF(7)
        F = pc.DensePoly(ctx, [1, 2, 3])
        P = pc.x_pow_minus_one(ctx, 5)
        assert leading_coefficients(P, F) == [0, 0, 3, 2]
        assert leading_coefficients(P, F.to_sparse()) == [0, 0, 3, 2]
        assert leading_coefficients(pc.x_pow_minus_one(ctx, 1), pc.DensePoly(ctx, [4])) == []


# ---------------------------------------------------------------------------
# the packed arithmetic of GF(q)[X]/(R) for odd q against the generic loops

ODD_FIELDS = tuple(pc.GF(q) for q in (3, 7, 65537, 2**61 - 1))


@st.composite
def odd_q_elements(draw):
    """(ring, a, b): GF(q)[X]/(R) for q in 3, 7, 65537 and 2^61 - 1 with R
    drawn as points draws it (degree 1..40, random, all ones, all q - 1
    below X^d, or irreducible), and two elements, each x itself, 0, 1, all
    q - 1 or random."""
    ctx = draw(st.sampled_from(ODD_FIELDS))
    ring, _ = draw(points(ctx).filter(lambda point: point[0] is not ctx))
    q, d = ctx.q, ring.d
    coords = st.lists(st.integers(0, q - 1), min_size=d, max_size=d).map(ring.from_coeffs)
    element = st.sampled_from((ring.x, ring.zero(), ring.one(), ring.from_coeffs([q - 1] * d)))
    return ring, draw(element | coords), draw(element | coords)


def _generic(ring):
    """ring's products made by ExtField's Horner loop and pow by mul on
    elements, for the references."""
    return mock.patch.multiple(type(ring), _product=ExtField._product, product_form=ExtField.product_form)


class TestPackedOddQArithmetic:
    @given(odd_q_elements())
    def test_product_matches_the_generic_loop(self, inst):
        ring, a, b = inst
        before = POLY_MUL_OPS.count
        got = ring._product(a, b)
        assert POLY_MUL_OPS.count == before
        assert got == ExtField._product(ring, a, b)
        before = POLY_MUL_OPS.count
        got = ring.mul(a, b)
        ops = POLY_MUL_OPS.count - before
        with _generic(ring):
            before = POLY_MUL_OPS.count
            assert got == ring.mul(a, b)
            assert POLY_MUL_OPS.count - before == ops == (a is not ring.x and b is not ring.x)

    @given(odd_q_elements(), st.data())
    def test_pow_matches_the_generic_loop(self, inst, data):
        """Exponents 0, 1, 2, q and random, on x itself and on other
        elements: the same value and the same POLY_MUL_OPS delta as
        ExtField.pow with the generic product."""
        ring, a, _ = inst
        q = ring.base.q
        e = data.draw(st.sampled_from((0, 1, 2, q, q + 1, q * q)) | st.integers(0, 2**70))
        before = POLY_MUL_OPS.count
        got = ring.pow(a, e)
        ops = POLY_MUL_OPS.count - before
        with _generic(ring):
            before = POLY_MUL_OPS.count
            assert got == ExtField.pow(ring, a, e)
            assert POLY_MUL_OPS.count - before == ops

    @given(odd_q_elements(), st.data())
    def test_product_form_is_exact(self, inst, data):
        """From d = 2 on the form is packed: into and out are inverse, add,
        sub and scalar_mul act on packed values as on elements, and the
        form's product is mul, counted alike, x itself included."""
        ring, a, b = inst
        into, mul, out = ring.product_form()
        c = data.draw(st.integers(0, ring.base.q - 1))
        A, B, X = into(a), into(b), into(ring.x)
        assert isinstance(A, int) is (ring.d > 1)
        assert out(A) == a and out(B) == b and X is into(ring.x)
        assert out(ring.add(A, B)) == ring.add(a, b) == ExtField.add(ring, a, b)
        assert out(ring.sub(A, B)) == ring.sub(a, b) == ExtField.sub(ring, a, b)
        assert out(ring.scalar_mul(c, A)) == ring.scalar_mul(c, a) == ExtField.scalar_mul(ring, c, a)
        for u, v, U, V in ((a, b, A, B), (ring.x, b, X, B), (a, ring.x, A, X)):
            before = POLY_MUL_OPS.count
            got = out(mul(U, V))
            ops = POLY_MUL_OPS.count - before
            before = POLY_MUL_OPS.count
            assert got == ring.mul(u, v)
            assert POLY_MUL_OPS.count - before == ops

    @given(odd_q_elements(), st.data())
    def test_packed_form_moves_no_value_or_count(self, inst, data):
        """Sparse evaluation and the sparse scan, with coefficients in GF(q)
        or in the ring itself, at x or at another point, and exponents 0
        and 1 among the terms: the values and POLY_MUL_OPS deltas of the
        element form, x itself included wherever it enters or leaves the
        packed form."""
        ring, a, b = inst
        q = ring.base.q
        ctx = data.draw(st.sampled_from((ring.base, ring)))
        alpha = data.draw(st.sampled_from((ring.x, a)))
        n = data.draw(st.integers(2, 300))

        def coeff():
            if ctx is ring:
                return data.draw(st.sampled_from((ring.x, a, b, ring.one())))
            return data.draw(st.integers(1, q - 1))

        def sparse():
            exps = {0, 1, n - 1} | set(data.draw(st.lists(st.integers(0, n - 1), max_size=5)))
            return pc.SparsePoly.from_dict(ctx, {e: coeff() for e in exps})

        P = pc.SparsePoly.from_dict(ctx, {0: coeff(), n: ctx.one()})
        F, G = sparse(), sparse()

        def run():
            before = POLY_MUL_OPS.count
            values = evaluate(F, alpha, ring), modeval.eval_mod_p_sparse(P, F, G, alpha, ring)
            return values, POLY_MUL_OPS.count - before

        got = run()
        with mock.patch.object(type(ring), "product_form", ExtField.product_form):
            assert run() == got


# GF(2^8)[Y]/(Y^3 + x) and GF(7^2)[Y]/(Y^2 + x): quotient rings over a
# quotient ring, whose product form is the element itself
TOWERS = tuple(
    ExtField(B, [B.x] + [B.zero()] * (k - 1) + [B.one()])
    for B, k in ((ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1]), 3), (ExtField(pc.GF(7), [1, 0, 1]), 2))
)


EDGES = [2 ** (8 * i) + k for i in range(9) for k in (-1, 0, 1)]
WINDOW_EDGE_EXPONENTS = st.lists(st.sampled_from(EDGES) | st.integers(0, 2**64), max_size=12)


@st.composite
def exponents_in_buckets(draw):
    """Up to 48 exponents that share high parts, have zero bytes and differ
    in byte length: up to 4 high parts of 0 to 6 bytes, each over up to 12
    low parts of 0 to 3 bytes, every byte 0, 1, 255 or any."""
    byte = st.sampled_from((0, 1, 255)) | st.integers(0, 255)

    def number(size):
        return st.lists(byte, max_size=size).map(lambda bs: int.from_bytes(bytes(bs), "little"))

    exps = []
    for high in draw(st.lists(number(6), min_size=1, max_size=4)):
        width = draw(st.integers(0, 3))
        exps += [high << 8 * width | low for low in draw(st.lists(number(width), max_size=12))]
    return exps


@st.composite
def sparse_sum_instances_in_a_quotient_ring(draw, kind, in_ring, exponents=WINDOW_EDGE_EXPONENTS):
    """(ring, ctx, alpha, terms): GF(2)[X]/(R) of degree 1..300, GF(q)[X]/(R)
    for q in 3, 7, 65537 and 2^61 - 1 as odd_q_elements draws it, or a
    tower, by kind; coefficients in the ring itself (x itself, 1 or random)
    where in_ring, else in the base (1 or random); alpha x itself, 0, 1 or
    random; the exponents drawn, by default up to 12 terms, none included,
    at the window edges 2^(8i) - 1, 2^(8i), 2^(8i) + 1 and anywhere up to
    2^64."""
    if kind == "GF(2)":
        d = draw(st.sampled_from((1, 2, 255, 256, 300)) | st.integers(1, 300))
        low = draw(st.integers(0, 2**d - 1))
        ring = ExtField(F2, [(low >> i) & 1 for i in range(d)] + [1])
    elif kind == "odd q":
        ring = draw(odd_q_elements())[0]
    else:
        ring = draw(st.sampled_from(TOWERS))
    rng = RngStream(draw(st.integers(0, 2**32)))
    ctx = ring if in_ring else ring.base
    alpha = draw(st.sampled_from((ring.x, ring.zero(), ring.one(), ring.sample(rng))))
    exps = sorted(set(draw(exponents)))
    kinds = ("one", "random", "x") if in_ring else ("one", "random")
    coeffs = {"one": ctx.one, "random": lambda: ctx.sample(rng), "x": lambda: ring.x}
    return ring, ctx, alpha, [(e, coeffs[draw(st.sampled_from(kinds))]()) for e in exps]


class TestGenericSparseSum:
    @pytest.mark.parametrize("in_ring", [False, True], ids=["base", "ring"])
    @pytest.mark.parametrize("kind", ["GF(2)", "odd q", "tower"])
    @given(data=st.data())
    def test_sums_in_the_product_form(self, kind, in_ring, data):
        """poly._sparse_sum, which sums in the ring's product form on the
        table's powers, gives the value and the POLY_MUL_OPS delta (table
        products included) of the same loop in the element form."""
        ring, ctx, alpha, terms = data.draw(sparse_sum_instances_in_a_quotient_ring(kind, in_ring))

        def run():
            exps, cs = _columns(terms)
            return counted(lambda: _sparse_sum(exps, cs, power_table(ring, alpha), ring, ctx))

        got = run()
        with mock.patch.object(type(ring), "product_form", ExtField.product_form):
            assert run() == got

    @pytest.mark.parametrize("in_ring", [False, True], ids=["base", "ring"])
    @pytest.mark.parametrize("kind", ["GF(2)", "odd q", "tower"])
    @given(data=st.data())
    def test_buckets_never_make_more_products_than_the_per_term_loop(self, kind, in_ring, data):
        """The bucketed sum gives the per-term loop's value and never makes
        more products, table products included, on exponents that share
        high parts.  Products are the calls of the form's product: a product
        by x among them, which POLY_MUL_OPS leaves out, as it is a shift.
        So the per-term loop may count fewer there: at x it makes x a^256
        for e = 257, where the bucket of 256 and 257 makes (c + c' x) a^256."""
        exps = exponents_in_buckets()
        ring, ctx, alpha, terms = data.draw(sparse_sum_instances_in_a_quotient_ring(kind, in_ring, exps))
        into, mul, out = ring.product_form()
        calls = []

        def form():
            return into, lambda a, b: calls.append(1) or mul(a, b), out

        def run(loop):
            calls.clear()
            with mock.patch.object(type(ring), "product_form", lambda _: form()):
                value = loop(*_columns(terms), power_table(ring, alpha), ring, ctx)
            return value, len(calls)

        got, products = run(_sparse_sum)
        want, per_term = run(_per_term_sum)
        assert got == want
        assert products <= per_term


def _per_term_sum(exps, cs, pw, ring, ctx):
    """The per-term loop that the bucketed poly._sparse_sum replaced, the
    reference for its value and its count: every alpha^e from pw, one
    product per nonzero byte of e after the first, scaled and added in the
    product form."""
    into, mul, out = ring.product_form()
    scale = ring.scalar_mul
    if ctx == ring:
        cs = [into(c) for c in cs]
        scale = mul
    acc = into(ring.zero())
    for e, c in zip(exps, cs):
        acc = ring.add(acc, scale(c, pw(e)))
    return out(acc)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_value_equal_to_x_is_counted_like_any_other(d):
    """A point equal to x but not x itself: pow, the power table and the
    sparse sum count its products as the element form does, also at d = 2,
    where the packed x would be the int 1 that CPython shares with every
    equal int, so that identity could not tell the two apart."""
    ring = ExtField(pc.GF(3), [2, 2, 1, 1][-d - 1 :])
    a = ring.from_coeffs([0, 1]) if d > 1 else ring.from_coeffs(list(ring.x))
    assert a == ring.x and a is not ring.x

    exps, cs = (255, 2**40 + 9), (1, 2)

    def run():
        return (counted(lambda: ring.pow(a, 255)),
                counted(lambda: _sparse_sum(exps, cs, power_table(ring, a), ring, ring.base)))

    got = run()
    with mock.patch.object(type(ring), "product_form", ExtField.product_form):
        assert run() == got


@pytest.mark.parametrize("q", [3, 7, 65537, 2**61 - 1])
@pytest.mark.parametrize("d", [1, 2, 3, 22, 40])
def test_slot_reduction_at_its_bound(q, d):
    """Every slot reduced mod q at once, on slots up to B = (2d - 1)(q - 1)^2,
    the most the packed product puts in one, and up to 2^s - 1 for the s
    with 2^s > B, the most the reduction is built for."""
    ring = ExtField(pc.GF(q), [1] * (d + 1))
    shifts = ring._packing()[0]
    B = (2 * d - 1) * (q - 1) ** 2
    for v in (B, (1 << B.bit_length()) - 1, B - 1, q, q - 1, 0):
        slots = [v] * d
        slots[0] = (v + q) % (B + 1)
        assert ring._out(ring._mod_slots(ring._pack(slots, shifts))) == tuple(c % q for c in slots)


def _with_zero_runs(n, b, aligned, rng, q):
    """n coefficients in [0, q) with runs of zeros: whole blocks of b when
    aligned, anywhere otherwise, and the rest random."""
    cs = [rng.below(q) for _ in range(n)]
    for _ in range(1 + rng.below(4)):
        start = rng.below(n)
        length = 1 + rng.below(n - start)
        if aligned:
            start, length = start // b * b, max(1, length // b) * b
        cs[start : start + length] = [0] * len(cs[start : start + length])
    return cs


class TestHornerOnZeroBlocks:
    @given(st.data())
    def test_zero_runs_match_the_generic_loop(self, data):
        """Vectors of up to 2^12 coefficients with runs of zero blocks and
        zeros that cut blocks, all zero and all but the top zero."""
        ctx = data.draw(st.sampled_from(ODD_FIELDS))
        ring, alpha = data.draw(points(ctx).filter(lambda point: point[0] is not ctx))
        n = data.draw(st.sampled_from((1, 2, 4096)) | st.integers(1, 4096))
        b = max(1, min(n, math.isqrt(n * ring.d)))
        rng = RngStream(data.draw(st.integers(0, 2**32)))
        kind = data.draw(st.sampled_from(("aligned", "cut", "zero", "top")))
        if kind in ("zero", "top"):
            cs = [0] * (n - 1) + [1 if kind == "top" else 0]
        else:
            cs = _with_zero_runs(n, b, kind == "aligned", rng, ctx.q)
        before = POLY_MUL_OPS.count
        got = ring.horner(cs, alpha)
        assert POLY_MUL_OPS.count == before
        assert got == _horner(cs, alpha, ring, ctx)

    @pytest.mark.parametrize("q, d", [(3, 40), (7, 22), (65537, 3), (2**61 - 1, 2)])
    @pytest.mark.parametrize("n, k", [(2**12, 1), (2**12, 700), (2**12, 2**12 - 1), (1000, 999), (97, 3)])
    def test_sparse_modulus_made_dense(self, q, d, n, k):
        """P = X^n + c X^k + 1 made dense, as the dense scan evaluates it at
        x, against the generic loop and against the sparse evaluation."""
        ctx = pc.GF(q)
        rng = RngStream(n + k + q)
        ring = ExtField(ctx, [rng.below(q) for _ in range(d)] + [1])
        P = pc.SparsePoly.from_dict(ctx, {0: 1, k: 1 + rng.below(q - 1), n: 1})
        cs = P.to_dense().coeffs
        got = ring.horner(cs, ring.x)
        assert got == _horner(cs, ring.x, ring, ctx) == evaluate(P, ring.x, ring)
