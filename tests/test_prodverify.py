import math
import pytest
from fractions import Fraction

import polycheck as pc
from polycheck.modverify import FieldTooSmallError, VerifyConfig
from polycheck.prodverify import (
    KaminskiParams,
    SparseVerifyParams,
    count_binomial_divisors,
    fold_mersenne,
    kaminski_k,
    kaminski_round,
    verify_int_product,
    verify_product_kaminski,
    verify_product_kaminski_nomul,
    verify_product_kronecker,
    verify_sparse_product,
)
from polycheck.rings import POLY_MUL_OPS, RngStream
from conftest import perturb_poly, rand_dense, rand_sparse

Z = pc.ZZ
F2 = pc.GF(2)
QUARTER = Fraction(1, 4)
E_SMALL = Fraction(1, 10)


def cfg(seed, eps=QUARTER):
    return VerifyConfig(epsilon=eps, seed=seed)


EX1_F = pc.SparsePoly(Z, [(0, 2), (7, 2), (14, 1)])
EX1_G = pc.SparsePoly(Z, [(0, 3), (8, 5), (13, 3)])
EX1_H = pc.SparsePoly(Z, [(0, 2), (7, -2), (14, 1)])
EX1_FG = pc.mul_oracle(EX1_F, EX1_G)
EX1_FH = pc.SparsePoly(Z, [(0, 4), (28, 1)])


def example2(t):
    F = pc.SparsePoly(Z, [(i, 1) for i in range(t)])
    G = pc.SparsePoly.from_dict(
        Z, {**{i * t: -1 for i in range(t)}, **{i * t + 1: 1 for i in range(t)}}
    )
    H = pc.SparsePoly(Z, [(0, -1), (t * t, 1)])
    return F, G, H


class TestKaminskiParams:
    def test_e_range_enforced(self):
        with pytest.raises(ValueError):
            KaminskiParams(e=Fraction(1, 2))
        with pytest.raises(ValueError):
            KaminskiParams(e=0)

    def test_k_matches_formula(self):
        p = KaminskiParams()
        for n in (256, 1024, 4096):
            e = float(p.e)
            want = math.ceil(2 * 1.78107 * n**e * math.log(math.log(n ** (1 - e))))
            assert p.k(n) == want

    def test_fold_range_inside_real_interval(self):
        p = KaminskiParams()
        for n in (64, 1000, 4096):
            lo, hi = p.fold_range(n)
            x = n ** (1 - float(p.e))
            assert lo >= x and hi - 1 < 2 * x

    def test_default_e_is_vacuous_at_desk_scale(self):
        p = KaminskiParams()
        assert p.per_round_bound(4096) > Fraction(1, 2)

    def test_small_e_is_usable(self):
        p = KaminskiParams(e=E_SMALL)
        assert p.per_round_bound(4096) < Fraction(1, 64)

    def test_n_min_boundary(self):
        p = KaminskiParams(e=E_SMALL)
        nm = p.n_min()
        assert p.per_round_bound(nm) <= Fraction(1, 2)
        assert p.per_round_bound(max(2, nm // 2)) > Fraction(1, 2)

    def test_no_bound_claimed_below_validity_floor(self):
        # at (n=5, e=1/10) the raw count formula would claim at most one
        # binomial divisor, but lcm(X^5-1, X^6-1) has degree 10 <= 2n and is
        # divisible by both X^5-1 and X^6-1
        p = KaminskiParams(e=E_SMALL)
        assert p.per_round_bound(5) == 1


class TestKaminski:
    def test_true_product_always(self, rng):
        for seed in range(25):
            F = rand_dense(Z, 60, rng)
            G = rand_dense(Z, 50, rng)
            H = pc.mul_oracle(F, G)
            assert verify_product_kaminski(F, G, H, cfg(seed)).verdict is True

    def test_example_triples(self):
        r = verify_product_kaminski(EX1_F.to_dense(), EX1_G.to_dense(), EX1_FG.to_dense(), cfg(0))
        assert r.verdict is True
        r = verify_product_kaminski(EX1_F.to_dense(), EX1_H.to_dense(), EX1_FH.to_dense(), cfg(0))
        assert r.verdict is True

    def test_deterministic_fallback_at_default_e(self, rng):
        F = rand_dense(Z, 64, rng)
        G = rand_dense(Z, 64, rng)
        H = pc.mul_oracle(F, G)
        r = verify_product_kaminski(F, G, H, cfg(1))
        assert r.rounds == 0 and r.witnesses == [{"deterministic": "reference-product"}]

    def test_probabilistic_path_small_e(self, rng):
        params = KaminskiParams(e=E_SMALL)
        for seed in range(5):
            F = rand_dense(F2, 4096, rng)
            G = rand_dense(F2, 4000, rng)
            H = pc.mul_oracle(F, G)
            r = verify_product_kaminski(F, G, H, cfg(seed), params)
            assert r.verdict is True and r.rounds >= 1
            Hbad = perturb_poly(H, rng)
            assert verify_product_kaminski(F, G, Hbad, cfg(seed), params).verdict is False

    def test_degree_overflow_immediate_false(self, rng):
        F = rand_dense(Z, 4, rng)
        G = rand_dense(Z, 4, rng)
        H = rand_dense(Z, 9, rng)
        r = verify_product_kaminski(F, G, H, cfg(0))
        assert r.verdict is False and r.witnesses == [{"deterministic": "shape"}]

    def test_zero_cases(self, rng):
        Zp = pc.DensePoly.zero(Z)
        G = rand_dense(Z, 5, rng)
        assert verify_product_kaminski(Zp, G, Zp, cfg(0)).verdict is True
        assert verify_product_kaminski(Zp, G, G, cfg(0)).verdict is False

    def test_per_round_bound_empirical(self, rng):
        # measured single-round acceptance on adversarial folds stays within
        # the proven bound
        params = KaminskiParams(e=E_SMALL)
        n = 1024
        lo, hi = params.fold_range(n)
        bound = params.per_round_bound(n)
        F = rand_dense(F2, n, rng)
        G = rand_dense(F2, n, rng)
        H = pc.mul_oracle(F, G)
        for delta_seed in range(4):
            Hbad = perturb_poly(H, RngStream(delta_seed))
            accepts = sum(
                1 for i in range(lo, hi) if kaminski_round(F, G, Hbad, i)
            )
            assert accepts / (hi - lo) <= float(bound)

    def test_per_round_bound_lcm_structured(self, rng):
        # worst-case differences of the form X^L - 1 with L a common multiple
        # of many fold degrees; the brute-force divisor count is the exact
        # per-round acceptance and must stay below (k-1)/n^(1-e)
        n = 4096
        for e in (Fraction(9, 20),):
            params = KaminskiParams(e=e)
            lo, hi = params.fold_range(n)
            k = params.k(n)
            F = rand_dense(F2, n, rng)
            G = rand_dense(F2, n, rng)
            H = pc.mul_oracle(F, G)
            for seed in range(3):
                r = RngStream(seed)
                base = lo + r.below(hi - lo)
                L = base
                for cand in range(base + 1, hi):
                    nxt = L * cand // math.gcd(L, cand)
                    if nxt <= 2 * n:
                        L = nxt
                cs = list(H.coeffs) + [0] * max(0, L + 1 - len(H.coeffs))
                cs[0] ^= 1
                cs[L] ^= 1
                Hbad = pc.DensePoly(F2, cs)
                assert Hbad != H
                delta = pc.SparsePoly(Z, [(0, -1), (L, 1)]).to_dense()
                count = count_binomial_divisors(delta, n, e)
                accepts = sum(
                    1 for i in range(lo, hi) if kaminski_round(F, G, Hbad, i)
                )
                assert accepts == count  # folds accept exactly on divisors
                assert accepts / (n ** (1 - float(e))) <= (k - 1) / (
                    n ** (1 - float(e))
                )


class TestKaminskiNoMul:
    def test_true_product_and_no_multiplications(self, rng):
        params = KaminskiParams(e=E_SMALL)
        cases = [
            (Z, 512, None),
            (F2, 512, None),
            (pc.GF(65537), 300, None),
        ]
        for ctx, n, _ in cases:
            F = rand_dense(ctx, n, rng)
            G = rand_dense(ctx, n - 7, rng)
            H = pc.mul_oracle(F, G)
            before = POLY_MUL_OPS.count
            r = verify_product_kaminski_nomul(F, G, H, cfg(3), params)
            assert POLY_MUL_OPS.count == before, ctx
            assert r.verdict is True

    def test_adversarial_no_multiplications(self, rng):
        params = KaminskiParams(e=E_SMALL)
        F = rand_dense(F2, 600, rng)
        G = rand_dense(F2, 600, rng)
        Hbad = perturb_poly(pc.mul_oracle(F, G), rng)
        before = POLY_MUL_OPS.count
        r = verify_product_kaminski_nomul(F, G, Hbad, cfg(1), params)
        assert POLY_MUL_OPS.count == before
        assert r.verdict is False

    def test_small_degree_full_fold_equivalence(self, rng):
        # below the useful fold range the verifier checks modulo X^(D+1) - 1
        F = rand_dense(Z, 12, rng)
        G = rand_dense(Z, 11, rng)
        H = pc.mul_oracle(F, G)
        before = POLY_MUL_OPS.count
        r = verify_product_kaminski_nomul(F, G, H, cfg(0))
        assert POLY_MUL_OPS.count == before
        assert r.verdict is True
        assert "full-degree-fold" in r.witnesses[0]
        Hbad = perturb_poly(H, rng)
        assert verify_product_kaminski_nomul(F, G, Hbad, cfg(0)).verdict is False

    def test_adversarial_quarter_gf2(self, rng):
        params = KaminskiParams(e=E_SMALL)
        n = 4096
        F = rand_dense(F2, n, rng)
        G = rand_dense(F2, n - 3, rng)
        H = pc.mul_oracle(F, G)
        Hbad = perturb_poly(H, rng)
        accepted = 0
        trials = 2000
        for seed in range(trials):
            if verify_product_kaminski_nomul(F, G, Hbad, cfg(seed), params).verdict:
                accepted += 1
        assert accepted / trials <= 0.30


class TestIntProduct:
    def test_exact_products_always(self, rng):
        for seed in range(40):
            a = rng.bits(2000) | 1
            b = rng.bits(2000) | 1
            r = verify_int_product(a, b, a * b, cfg(seed), e=E_SMALL)
            assert r.verdict is True

    def test_one_times_one_is_not_two(self):
        for seed in range(10):
            assert verify_int_product(1, 1, 2, cfg(seed)).verdict is False

    def test_sign_screens(self):
        assert verify_int_product(-3, 5, 15, cfg(0)).verdict is False
        assert verify_int_product(-3, 5, -15, cfg(0)).verdict is True
        assert verify_int_product(0, 5, 0, cfg(0)).verdict is True
        assert verify_int_product(0, 5, 1, cfg(0)).verdict is False

    def test_adversarial_quarter_large(self, rng):
        bits = 10**5
        a = rng.bits(bits) | (1 << (bits - 1))
        b = rng.bits(bits) | (1 << (bits - 1))
        c = a * b
        accepted = 0
        trials = 2000
        for seed in range(trials):
            r = RngStream(seed)
            cbad = c + (1 << r.below(2 * bits - 2))
            if verify_int_product(a, b, cbad, cfg(seed), e=Fraction(3, 10)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_fold_mersenne_exact(self, rng):
        for _ in range(300):
            i = 1 + rng.below(70)
            x = rng.bits(1 + rng.below(400))
            assert fold_mersenne(x, i) == x % ((1 << i) - 1)


class TestKronecker:
    def test_example_triples(self):
        assert verify_product_kronecker(
            EX1_F.to_dense(), EX1_G.to_dense(), EX1_FG.to_dense(), cfg(0)
        ).verdict is True
        assert verify_product_kronecker(
            EX1_F.to_dense(), EX1_H.to_dense(), EX1_FH.to_dense(), cfg(0)
        ).verdict is True

    def test_off_by_one_rejected(self, rng):
        for seed in range(10):
            F = rand_dense(Z, 30, rng)
            G = rand_dense(Z, 28, rng)
            H = pc.mul_oracle(F, G)
            cs = list(H.coeffs)
            cs[0] += 1
            r = verify_product_kronecker(F, G, pc.DensePoly(Z, cs), cfg(seed))
            assert r.verdict is False

    def test_true_products_large_coeffs(self, rng):
        for seed in range(8):
            F = rand_dense(Z, 120, rng, hi=2**64)
            G = rand_dense(Z, 110, rng, hi=2**64)
            H = pc.mul_oracle(F, G)
            assert verify_product_kronecker(F, G, H, cfg(seed)).verdict is True

    def test_adversarial_quarter(self, rng):
        F = rand_dense(Z, 512, rng, hi=2**64)
        G = rand_dense(Z, 500, rng, hi=2**64)
        H = pc.mul_oracle(F, G)
        accepted = 0
        trials = 2000
        for seed in range(trials):
            Hbad = perturb_poly(H, RngStream(seed ^ 0xABCD))
            if verify_product_kronecker(F, G, Hbad, cfg(seed), e=Fraction(3, 10)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_substitution_is_exact_with_exact_inner_check(self, rng):
        # with the inner integer verification replaced by exact comparison,
        # the verdict must match polynomial equality exactly
        from polycheck.prodverify import kronecker_point, _eval_power_of_two

        for _ in range(200):
            F = rand_dense(Z, rng.below(20), rng, hi=40)
            G = rand_dense(Z, rng.below(20), rng, hi=40)
            H = pc.mul_oracle(F, G)
            if rng.below(2):
                H = perturb_poly(H, rng)
            beta = kronecker_point(F, G, H)
            w = beta.bit_length() - 1
            same_int = _eval_power_of_two(F, w) * _eval_power_of_two(
                G, w
            ) == _eval_power_of_two(H, w)
            assert same_int == (pc.mul_oracle(F, G) == H)

    @pytest.mark.parametrize("w", [1, 2, 7, 8, 77])
    def test_eval_power_of_two_is_the_shifted_sum(self, w, rng):
        from polycheck.prodverify import _eval_power_of_two

        for deg in (0, 1, 31, 32, 33, 200, 700):
            F = rand_dense(Z, deg, rng, hi=2**40)
            for X in (F, F.to_sparse()):
                naive = sum(c << (i * w) for i, c in enumerate(F.coeffs))
                assert _eval_power_of_two(X, w) == naive

    def test_needs_integer_ring(self, rng):
        F = rand_dense(F2, 4, rng)
        with pytest.raises(TypeError):
            verify_product_kronecker(F, F, F, cfg(0))


class TestSparseVerifyParams:
    def test_default_split_satisfies_inequality(self):
        p = SparseVerifyParams.from_epsilon(QUARTER)
        head = Fraction(10, 3) * p.eps1
        assert head + (1 - head) * p.eps2 <= QUARTER

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            SparseVerifyParams(Fraction(1, 4), Fraction(1, 3), Fraction(1, 8))
        with pytest.raises(ValueError):
            SparseVerifyParams(Fraction(1, 4), Fraction(1, 8), Fraction(1, 2))


class TestSparseProduct:
    def test_example_triples(self):
        assert verify_sparse_product(EX1_F, EX1_H, EX1_FH, cfg(0)).verdict is True
        assert verify_sparse_product(EX1_F, EX1_G, EX1_FG, cfg(0)).verdict is True

    def test_collapsing_product(self):
        F, G, H = example2(10)
        assert pc.mul_oracle(F, G) == H
        assert verify_sparse_product(F, G, H, cfg(0)).verdict is True

    def test_shape_rejections_draw_nothing(self):
        F = pc.SparsePoly(Z, [(0, 1), (3, 1)])
        G = pc.SparsePoly(Z, [(0, 1), (4, 1)])
        too_many = pc.SparsePoly(Z, [(i, 1) for i in range(5)] + [(7, 1)])
        r = verify_sparse_product(F, G, too_many, cfg(0))
        assert r.verdict is False and r.witnesses == [{"rejected": "shape"}]
        wrong_degree = pc.SparsePoly(Z, [(0, 1), (8, 1)])
        r = verify_sparse_product(F, G, wrong_degree, cfg(0))
        assert r.verdict is False

    def test_true_products_huge_degree(self, rng):
        for seed in range(10):
            n = 2**30
            F = rand_sparse(Z, n // 2, 16, rng)
            G = rand_sparse(Z, n // 2, 16, rng)
            H = pc.mul_oracle(F, G)
            assert verify_sparse_product(F, G, H, cfg(seed)).verdict is True

    def test_small_field_routes_through_extension(self, rng):
        F = rand_sparse(F2, 100, 6, rng)
        G = rand_sparse(F2, 100, 6, rng)
        H = pc.mul_oracle(F, G)
        r = verify_sparse_product(F, G, H, cfg(4))
        assert r.verdict is True

    def test_small_extension_field_raises(self, rng):
        # only GF(q) has an extension path; GF(4) cannot reach the bound
        ext = pc.ExtField(F2, (1, 1, 1))
        F = rand_sparse(ext, 100, 6, rng)
        G = rand_sparse(ext, 100, 6, rng)
        with pytest.raises(FieldTooSmallError):
            verify_sparse_product(F, G, pc.mul_oracle(F, G), cfg(4))

    def test_adversarial_extra_monomial_quarter(self, rng):
        n = 2**30
        F = rand_sparse(Z, n // 2, 32, rng)
        G = rand_sparse(Z, n // 2, 32, rng)
        H = pc.mul_oracle(F, G)
        target = n - 1
        d = dict(H.terms)
        d[target] = d.get(target, 0) + 1
        Hbad = pc.SparsePoly.from_dict(Z, d)
        accepted = 0
        trials = 2000
        for seed in range(trials):
            if verify_sparse_product(F, G, Hbad, cfg(seed)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_zero_handling(self, rng):
        Zp = pc.SparsePoly.zero(Z)
        G = rand_sparse(Z, 9, 3, rng)
        assert verify_sparse_product(Zp, G, Zp, cfg(0)).verdict is True
        assert verify_sparse_product(Zp, G, G, cfg(0)).verdict is False
        assert verify_sparse_product(G, G, Zp, cfg(0)).verdict is False


class TestReportDeterminism:
    def test_byte_for_byte_reports(self, rng):
        import json

        F = rand_sparse(Z, 2**24, 12, rng)
        G = rand_sparse(Z, 2**24, 12, rng)
        H = pc.mul_oracle(F, G)
        runs = [
            json.dumps(verify_sparse_product(F, G, H, cfg(31)).to_dict(), sort_keys=True)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        a = rng.bits(4000) | 1
        b = rng.bits(4000) | 1
        runs = [
            json.dumps(
                verify_int_product(a, b, a * b + 2, cfg(5), e=E_SMALL).to_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestBinomialDivisorCount:
    def test_lcm_constructed_divisors(self):
        # X^L - 1 is divisible by X^i - 1 exactly for i | L
        params = KaminskiParams()
        n = 1024
        lo, hi = params.fold_range(n)
        L = lo * 2  # inside [lo, hi) times 2 <= 2n
        delta = pc.SparsePoly(Z, [(0, -1), (L, 1)]).to_dense()
        count = count_binomial_divisors(delta, n)
        divisors = [i for i in range(lo, hi) if L % i == 0]
        assert count >= len(divisors) >= 1

    def test_constant_has_none(self):
        delta = pc.DensePoly(Z, [1])
        assert count_binomial_divisors(delta, 256) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_binomial_divisors(pc.DensePoly.zero(Z), 256)

    def test_random_counts_below_k(self, rng):
        n = 1024
        k = kaminski_k(n)
        for _ in range(30):
            delta = rand_dense(Z, rng.below(2 * n), rng)
            assert count_binomial_divisors(delta, n) < k
