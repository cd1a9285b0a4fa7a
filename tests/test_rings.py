import copy
import pickle
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck.rings import (
    POLY_MUL_OPS,
    ExtField,
    PrimeGenerationError,
    RngStream,
    _DET_BASES,
    _list_gcd,
    _strong_probable_prime,
    ceil_log2,
    is_prime,
    is_probable_prime,
    ln_pow2_upper,
    ln_upper,
    poly_list_is_irreducible,
    random_irreducible,
    random_monic,
    random_prime,
)
from conftest import gf2_clmul, is_prime_det64, is_irreducible_gf2_exhaustive, rand_coeff


class TestRngStream:
    def test_same_seed_same_draws(self):
        a, b = RngStream(123), RngStream(123)
        assert [a.bits(17) for _ in range(50)] == [b.bits(17) for _ in range(50)]
        assert [a.below(1000) for _ in range(50)] == [b.below(1000) for _ in range(50)]

    def test_below_range(self):
        r = RngStream(1)
        for _ in range(200):
            assert 0 <= r.below(7) < 7
        assert r.below(1) == 0

    def test_residue_range(self):
        r = RngStream(2)
        for _ in range(100):
            assert 0 <= r.residue(65537) < 65537

    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    def test_bit_int_is_successive_single_bits(self, seed, k):
        """Bit i of bit_int(k) is the i-th of k successive bits(1) calls,
        the stream is left where those calls leave it, and random_monic
        over GF(2) is those bits and a leading 1."""
        a, b, c = RngStream(seed), RngStream(seed), RngStream(seed)
        bits = [b.bits(1) for _ in range(k)]
        packed = a.bit_int(k)
        assert [(packed >> i) & 1 for i in range(k)] == bits
        assert packed >> k == 0
        assert random_monic(pc.GF(2), k, c) == bits + [1]
        assert a.bits(64) == b.bits(64) == c.bits(64)  # the same draws were taken


def _random_rounds_loop(n, rounds, rng):
    """is_probable_prime as one Miller-Rabin round per random base, with no
    fixed bases: the reference for its answer and its draws."""
    from polycheck.rings import _SMALL_PRIMES, _strong_probable_prime

    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return all(_strong_probable_prime(n, 2 + rng.below(n - 3)) for _ in range(rounds))


def _thirteen_bases(n):
    """is_prime below _DET_LIMIT by the 13 prime bases alone."""
    if n < 2:
        return False
    for p in _DET_BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _DET_BASES)


# the least strong pseudoprimes to the first 4, 5, 6, 8 and 11 prime bases
STRONG_PSEUDOPRIMES = (
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


class TestProbablePrime:
    def _same_as_random_rounds(self, n, rounds, seed):
        mine, ref = RngStream(seed), RngStream(seed)
        assert is_probable_prime(n, rounds, mine) == _random_rounds_loop(n, rounds, ref)
        assert mine.bits(64) == ref.bits(64)

    def test_same_answer_and_draws_as_random_rounds(self):
        for seed in range(1200):
            pick = RngStream(seed)
            n = pick.bits(20 + pick.below(60)) | 1
            if seed % 2:  # half of the cases prime: the next one from n
                while not is_prime_det64(n):
                    n += 2
            rounds = (1, 2, 13, 14, 15, 20, 23, 41, 64)[seed % 9]
            self._same_as_random_rounds(n, rounds, seed)

    def test_same_answer_and_draws_at_the_edges(self):
        # 41 fails its own fixed base and falls back to random rounds; the
        # rest straddle _DET_LIMIT (2^89 - 1 is prime, 2^89 + 1 is not)
        for n in (41, 43, 1681, 2**61 - 1, 3317044064679887385961981, 2**89 - 1, 2**89 + 1):
            for rounds in (1, 14, 30):
                for seed in range(5):
                    self._same_as_random_rounds(n, rounds, seed)

    def test_strong_pseudoprimes(self):
        for n in STRONG_PSEUDOPRIMES:
            for rounds in (1, 13, 14, 20, 64):
                for seed in range(40):
                    self._same_as_random_rounds(n, rounds, seed)
            assert not is_probable_prime(n, 20, RngStream(0))

    def test_seven_bases_below_2_64_decide_as_the_13_do(self):
        # the strong pseudoprimes above, the primes that divide one of
        # Sinclair's bases (each skipped there) and a product of two of
        # them, and a seeded sample of odd n < 2^64, half of them prime
        pick = RngStream(64)
        sample = []
        for k in range(1500):
            n = pick.bits(1 + pick.below(64)) | 1
            while k % 2 and n < 2**64 and not _thirteen_bases(n):
                n += 2
            sample.append(n)
        divisors = (73, 193, 73 * 193, 407521, 299210837)
        for n in STRONG_PSEUDOPRIMES + divisors + tuple(s for s in sample if s < 2**64):
            assert is_prime(n) == _thirteen_bases(n), n
        for n in STRONG_PSEUDOPRIMES + divisors + tuple(sample[:200]):
            for rounds in (7, 8, 9, 15):
                self._same_as_random_rounds(n, rounds, n % 1000 + rounds)

    def test_smallest_prime(self):
        assert is_probable_prime(2, 10) is True

    def test_composite_21(self):
        assert is_probable_prime(21, 10) is False

    def test_mersenne61(self):
        n = 2**61 - 1
        assert is_prime_det64(n)
        assert is_probable_prime(n, 20) is True

    def test_agrees_with_deterministic_oracle(self, rng):
        for _ in range(300):
            n = rng.bits(40) | 1
            assert is_probable_prime(n, 12) == is_prime_det64(n)

    def test_never_rejects_primes(self, rng):
        count = 0
        n = 10**6
        while count < 50:
            n += 1
            if is_prime_det64(n):
                count += 1
                assert is_probable_prime(n, 1, rng)


class TestRandomPrime:
    def test_range_membership(self):
        p = random_prime(21, Fraction(1, 4), RngStream(0))
        assert 21 <= p <= 42
        assert is_probable_prime(p, 10)

    def test_million_scale_prime(self):
        p = random_prime(10**6, Fraction(1, 2**20), RngStream(1))
        assert 10**6 <= p <= 2 * 10**6
        assert is_prime_det64(p)

    def test_precondition(self):
        with pytest.raises(ValueError):
            random_prime(20, Fraction(1, 4), RngStream(0))
        with pytest.raises(ValueError):
            random_prime(100, 2, RngStream(0))

    def test_composite_rate_quarter(self):
        lam = 3 * 10**9
        bad = 0
        trials = 2000
        rng = RngStream(424242)
        for _ in range(trials):
            p = random_prime(lam, Fraction(1, 4), rng)
            assert lam <= p <= 2 * lam
            if not is_prime_det64(p):
                bad += 1
        assert bad / trials <= 0.30


class TestRandomIrreducible:
    def test_degree_one_gf2(self):
        for seed in range(8):
            R = random_irreducible(pc.GF(2), 1, Fraction(1, 4), RngStream(seed))
            assert tuple(R.coeffs) in ((0, 1), (1, 1))

    @pytest.mark.parametrize("k", [1024, 1100])
    def test_epsilon_below_the_float_range(self, k):
        # 1/float(2^-1024) overflows and float(2^-1100) is 0.0
        R = random_irreducible(pc.GF(2), 1, Fraction(1, 2**k), RngStream(0))
        assert tuple(R.coeffs) in ((0, 1), (1, 1))

    def test_degree_four_gf2_seed7(self):
        R = random_irreducible(pc.GF(2), 4, Fraction(1, 1024), RngStream(7))
        assert is_irreducible_gf2_exhaustive(list(R.coeffs))
        # no roots, and not the square of the only irreducible quadratic
        assert pc.evaluate(R, 0) != 0 and pc.evaluate(R, 1) != 0
        assert tuple(R.coeffs) != (1, 0, 1, 0, 1)

    def test_degree_two_gf5_seed3(self):
        R = random_irreducible(pc.GF(5), 2, Fraction(1, 1024), RngStream(3))
        assert all(pc.evaluate(R, a) != 0 for a in range(5))

    def test_reducible_rate_quarter(self):
        rng = RngStream(9)
        bad = 0
        trials = 2000
        for t in range(trials):
            d = 2 + t % 7  # degrees 2..8
            R = random_irreducible(pc.GF(2), d, Fraction(1, 4), rng)
            if not is_irreducible_gf2_exhaustive(list(R.coeffs)):
                bad += 1
        assert bad / trials <= 0.30

    def test_rabin_test_exhaustive_gf2(self):
        for d in range(1, 13):
            from conftest import all_monics_gf2

            for cand in all_monics_gf2(d):
                assert poly_list_is_irreducible(cand, 2) == is_irreducible_gf2_exhaustive(
                    cand
                )

    # Outputs of the earlier Rabin-test implementation for these seeds, with
    # the draw that follows: the exact test must keep the candidates and the
    # RNG consumption, and with them the default CLI output.
    @pytest.mark.parametrize(
        "q, d, seed, coeffs, next_bits",
        [
            (2, 24, 1, "1110001110111011000110011", 743061144),
            (2, 41, 2, "111011001001010000000000101100100000001011", 3127871447),
            (2, 60, 3, "1001010110011100011011000100110011110100111011010001110001001",
             1802903493),
            (65537, 3, 4, [11809, 8718, 2597, 1], 1724820278),
        ],
    )
    def test_pinned_outputs(self, q, d, seed, coeffs, next_bits):
        rng = RngStream(seed)
        R = random_irreducible(pc.GF(q), d, Fraction(1, 2**21), rng)
        assert list(R.coeffs) == [int(c) for c in coeffs]
        assert rng.bits(32) == next_bits


def _irreducible_by_trial_division(f, q):
    """No monic of degree 1..d/2 over GF(q) divides f."""
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for k in range(q**deg):
            g = [(k // q**i) % q for i in range(deg)] + [1]
            r = list(f)
            for i in range(d, deg - 1, -1):
                c = r[i]
                for j in range(deg + 1):
                    r[i - deg + j] = (r[i - deg + j] - c * g[j]) % q
            if not any(r[:deg]):
                return False
    return True


@st.composite
def small_monics(draw):
    q = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 10 if q == 2 else 5))
    return q, draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) + [1]


def _ben_or_in_ext_field(f):
    """Ben-Or's test over GF(2) by squaring in ExtField(GF(2), f), with the
    gcd on coefficient lists: the form the packed test replaced."""
    ring = ExtField(pc.GF(2), f)
    h = ring.x
    for _ in range((len(f) - 1) // 2):
        h = ring.pow(h, 2)
        if len(_list_gcd(ring.coeffs(ring.sub(h, ring.x)), f, 2)) > 1:
            return False
    return True


@st.composite
def gf2_monics(draw):
    """Monic GF(2) polynomials of degree 1..64: uniform ones, mostly
    reducible; screened irreducibles; and products of two of these, which
    pass the screen and the early steps."""
    def monic(d):
        return draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)) + [1]

    def irreducible(d):
        eps = Fraction(1, 2**40)
        return list(random_irreducible(pc.GF(2), d, eps, RngStream(draw(st.integers(0, 99)))).coeffs)

    kind = draw(st.sampled_from(("uniform", "irreducible", "product")))
    if kind == "uniform":
        return monic(draw(st.integers(1, 64)))
    if kind == "irreducible":
        return irreducible(draw(st.integers(1, 64)))
    a, b = irreducible(draw(st.integers(1, 32))), irreducible(draw(st.integers(1, 32)))
    packed = gf2_clmul(*(sum(c << i for i, c in enumerate(x)) for x in (a, b)))
    return [(packed >> i) & 1 for i in range(packed.bit_length())]


class TestIrreducibilityTest:
    @given(small_monics())
    def test_matches_trial_division(self, case):
        q, f = case
        assert poly_list_is_irreducible(f, q) == _irreducible_by_trial_division(f, q)

    @given(gf2_monics())
    def test_packed_gf2_test_matches_the_ext_field_loop(self, f):
        """Same answer, and the same count of ring products in POLY_MUL_OPS:
        the packed squares count as the ExtField ones did."""
        before = POLY_MUL_OPS.count
        want = _ben_or_in_ext_field(f)
        ext_products = POLY_MUL_OPS.count - before
        before = POLY_MUL_OPS.count
        assert poly_list_is_irreducible(f, 2) == want
        assert POLY_MUL_OPS.count - before == ext_products


@st.composite
def fq_pair(draw):
    q = draw(st.sampled_from([2, 5, 101, 65537]))
    a = draw(st.integers(min_value=0, max_value=q - 1))
    b = draw(st.integers(min_value=0, max_value=q - 1))
    c = draw(st.integers(min_value=0, max_value=q - 1))
    return q, a, b, c


class TestRingAxioms:
    @given(fq_pair())
    def test_prime_field_axioms(self, data):
        q, a, b, c = data
        K = pc.GF(q)
        assert K.add(a, K.add(b, c)) == K.add(K.add(a, b), c)
        assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.add(a, K.zero()) == a
        assert K.mul(a, K.one()) == a
        assert K.add(a, K.neg(a)) == K.zero()

    @given(st.integers(), st.integers(), st.integers())
    def test_integer_axioms(self, a, b, c):
        Z = pc.ZZ
        assert Z.mul(a, Z.add(b, c)) == Z.add(Z.mul(a, b), Z.mul(a, c))
        assert Z.sub(a, a) == 0

    def test_gf5_sum(self):
        assert pc.GF(5).add(2, 3) == 0

    def test_integers_exact(self):
        assert pc.ZZ.mul(2**64, 2**64) == 2**128


def _ring_table():
    """(ring maker, int_modulus, dense, sparse, policy, is an ExtField,
    repr) per ring.  dense lists (ctx, point, served) for horner and
    dense_scan, with the point "x", "equal to x" (a new object equal to x)
    or a plain value; sparse lists (ctx, served) for sparse_sum; "self"
    stands for the ring itself.  In GF(2)[X]/(R) x is the small int 2, one
    object in CPython, so nothing equal to x is another object there."""
    Z, F2, F7, M61 = pc.ZZ, pc.GF(2), pc.GF(7), pc.GF(2**61 - 1)
    aes = [1, 1, 0, 1, 1, 0, 0, 0, 1]  # X^8 + X^4 + X^3 + X + 1, irreducible
    return {
        "Z": (lambda: Z, 0, [(Z, 3, False)], [(Z, False)], True, False, "Z"),
        "GF(2)": (lambda: pc.GF(2), 2, [(F2, 1, True), (Z, 1, True)],
                  [(F2, True), (Z, True)], True, False, "GF(2)"),
        "GF(7)": (lambda: pc.GF(7), 7, [(F7, 3, True), (Z, 3, True)],
                  [(F7, True), (Z, True)], True, False, "GF(7)"),
        "GF(2^61-1)": (lambda: pc.GF(2**61 - 1), 2**61 - 1, [(M61, 5, True), (Z, 5, True)],
                       [(M61, True), (Z, True)], True, False, "GF(2305843009213693951)"),
        "GF(2)[X]/(R)": (lambda: ExtField(F2, aes), None,
                         [(F2, "x", True), (F2, 3, False), ("self", "x", False)],
                         [(F2, False), ("self", False)], True, True, "GF(2^8)"),
        "GF(7)[X]/(R)": (lambda: ExtField(F7, [1, 0, 1]), None,
                         [(F7, "x", True), (F7, "equal to x", False), ("self", "x", False)],
                         [(F7, False), ("self", False)], True, True, "GF(7^2)"),
        "Z[X]/(R)": (lambda: ExtField(Z, [1, 0, 1]), None,
                     [(Z, "x", False), (Z, "equal to x", False), ("self", "x", False)],
                     [(Z, False), ("self", False)], False, True, "Z[X]/(1, 0, 1)"),
        "GF(2^8)[Y]/(S)": (lambda: ExtField(ExtField(F2, aes), [2, 0, 0, 1]), None,
                           [(ExtField(F2, aes), "x", False), ("self", "x", False),
                            ("self", "equal to x", False)],
                           [(ExtField(F2, aes), False), ("self", False)],
                           False, True, "GF(2^8)[X]/(2, 0, 0, 1)"),
    }


RING_TABLE = _ring_table()


@pytest.mark.parametrize("name", list(RING_TABLE))
def test_capability_table(name):
    """What each ring answers for itself: its integer modulus, which kernels
    serve which coefficients at which point, whether the point policy takes
    it, and the class facts that stay as they were."""
    make, int_modulus, dense, sparse, policy, is_ext, text = RING_TABLE[name]
    ring = make()
    assert ring.int_modulus == int_modulus and type(ring.int_modulus) is type(int_modulus)
    for ctx, point, served in dense:
        ctx = ring if ctx == "self" else ctx
        if point == "x":
            point = ring.x
        elif point == "equal to x":
            point = ring.from_coeffs(ring.coeffs(ring.x))
            assert point == ring.x and point is not ring.x
        assert ring.serves_dense(ctx, point) is served
    for ctx, served in sparse:
        assert ring.serves_sparse(ring if ctx == "self" else ctx) is served
    assert ring.serves_point_policy() is policy
    assert isinstance(ring, ExtField) is is_ext
    for again in (make(), copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
        assert again == ring and hash(again) == hash(ring) and type(again) is type(ring)
    assert repr(ring) == text
    assert not hasattr(ring, "__dict__")
    assert (ring.x is None) is not is_ext


def _gf2_mul_mod(a, b, m):
    """a b mod m for bit-packed GF(2) polynomials a, b of degree below
    d = deg m: shift and XOR, then one XOR of m per high bit."""
    d = m.bit_length() - 1
    want = 0
    for i in range(d):
        if b >> i & 1:
            want ^= a << i
    for i in range(2 * d - 2, d - 1, -1):
        if want >> i & 1:
            want ^= m << (i - d)
    return want


class TestExtField:
    def test_defining_relation_gf4(self):
        K = ExtField(pc.GF(2), (1, 1, 1))  # X^2 + X + 1
        x = K.from_coeffs([0, 1])
        assert K.coeffs(K.mul(x, x)) == (1, 1)  # X * X = X + 1

    def test_matches_schoolbook_long_division(self, rng):
        from polycheck.oracle import poly_divmod

        for _ in range(120):
            q = (2, 3, 7)[rng.below(3)]
            d = 1 + rng.below(4)
            Rp = random_irreducible(pc.GF(q), d, Fraction(1, 16), rng)
            K = ExtField(pc.GF(q), Rp.coeffs)
            a = K.from_coeffs([rng.below(q) for _ in range(d)])
            b = K.from_coeffs([rng.below(q) for _ in range(d)])
            got = K.coeffs(K.mul(a, b))
            pa = pc.DensePoly(pc.GF(q), K.coeffs(a))
            pb = pc.DensePoly(pc.GF(q), K.coeffs(b))
            prod = pc.mul_oracle(pa, pb)
            _, rem = poly_divmod(prod, Rp)
            want = tuple(list(rem.coeffs) + [0] * (d - len(rem.coeffs)))
            assert got == want

    def test_axioms_random(self, rng):
        K = ExtField(pc.GF(3), (2, 0, 1, 1))
        for _ in range(100):
            a = K.sample(rng)
            b = K.sample(rng)
            c = K.sample(rng)
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            assert K.add(a, K.neg(a)) == K.zero()
            assert K.mul(a, K.one()) == a

    @given(st.data())
    def test_gf2_product_matches_shift_and_xor(self, data):
        d = data.draw(st.sampled_from((1, 8, 9, 64)) | st.integers(1, 70))
        low = data.draw(st.integers(0, 2**d - 1))
        K = ExtField(pc.GF(2), [(low >> i) & 1 for i in range(d)] + [1])
        a, b = (data.draw(st.integers(0, 2**d - 1)) for _ in "ab")
        assert K.mul(a, b) == _gf2_mul_mod(a, b, low | 1 << d)

    @given(st.data())
    def test_sliced_gf2_product_matches_the_packed_one(self, data):
        # slot k of the integer product counts up to d pairs, which all-ones
        # factors reach, at slot widths 8, 16 and 32 and both edges of each;
        # R is random or X^d + 1; a factor x is a shift, counted by neither
        d = data.draw(st.sampled_from((1, 2, 3, 7, 8, 9, 23, 34, 64, 254, 255, 256, 257)))
        ones = (1 << d) - 1
        dense = st.integers(0, 2**32).map(lambda seed: RngStream(seed).bits(d))
        low = data.draw(st.sampled_from((1, ones)) | dense)
        K = ExtField(pc.GF(2), [(low >> i) & 1 for i in range(d)] + [1])
        element = st.sampled_from((0, 1, ones, K.x)) | st.integers(0, ones) | dense
        a, b = data.draw(element), data.draw(element)
        assert K._unslice(K._slice(a)) == a
        for a, b in ((a, b), (ones, ones), (ones, a)):
            before = POLY_MUL_OPS.count
            want = K.mul(a, b)
            counted = POLY_MUL_OPS.count - before
            assert counted == (K.x not in (a, b))
            got = K._mul_sliced(K._slice(a), K._slice(b))
            assert POLY_MUL_OPS.count - before == 2 * counted
            assert got == K._slice(want)
            assert want == _gf2_mul_mod(a, b, low | 1 << d)

    @pytest.mark.parametrize("q, d", [(2, 41), (3, 6), (65537, 3)])
    def test_pow_counts_squarings_and_products(self, q, d, rng):
        K = ExtField(pc.GF(q), [rng.below(q) for _ in range(d)] + [1])
        for e in (1, 2, 3, 7, 8, 1000, 2**40 + 5, 3**30):
            a = K.sample(rng)
            assert a != K.x
            before = POLY_MUL_OPS.count
            got = K.pow(a, e)
            assert POLY_MUL_OPS.count - before == (e.bit_length() - 1) + (bin(e).count("1") - 1)
            want, base, k = K.one(), a, e  # right to left, as a reference
            while k:
                if k & 1:
                    want = K.mul(want, base)
                base = K.mul(base, base)
                k >>= 1
            assert got == want
        assert K.pow(K.sample(rng), 0) == K.one()

    def test_size(self):
        assert ExtField(pc.GF(2), (1, 1, 1)).size() == 4
        assert ExtField(pc.GF(5), (2, 1, 1)).size() == 25


class TestNumericHelpers:
    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(Fraction(17, 2)) == 4
        assert ceil_log2(8) == 3

    def test_ln_upper_is_upper(self):
        import math

        for x in (2, 3, 10, 10**6, 2**200):
            assert float(ln_upper(x)) >= math.log(x)

    def test_ln_pow2_upper_is_ln_upper_of_the_power(self):
        for k in list(range(0, 2100)) + [2**20 + 1, 3 * 2**21]:
            assert ln_pow2_upper(k) == ln_upper(1 << k)

    def test_random_monic_uniform_shape(self, rng):
        R = random_monic(pc.GF(7), 5, rng)
        assert len(R) == 6 and R[-1] == 1
        assert all(0 <= c < 7 for c in R)

    def test_random_monic_over_gf2_draws_what_below_2_draws(self):
        # GF(2) coefficients come from bits(1); below(2) is one bits(1) draw,
        # so every R, and every draw after it, is the same as through below
        for seed in range(200):
            for d in (1, 2, 7, 41, 64):
                fast, slow = RngStream(seed), RngStream(seed)
                R = random_monic(pc.GF(2), d, fast)
                assert R == [slow.below(2) for _ in range(d)] + [1]
                assert fast.bits(64) == slow.bits(64)
