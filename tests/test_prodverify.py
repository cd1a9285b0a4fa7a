import itertools
import json
import math
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck import cli, modeval, modverify, prodverify, rings
from polycheck.cli import main
from polycheck.modverify import (
    FieldTooSmallError,
    VerifyConfig,
    extension_degree,
    prime_lambda,
    prime_lambda_pow2,
)
from polycheck.poly import power_table, product_terms, read_poly_file, write_poly_file
from polycheck.prodverify import (
    KaminskiParams,
    kaminski_round,
    kronecker_point,
    verify_int_product,
    verify_product_kaminski,
    verify_product_kaminski_nomul,
    verify_product_kronecker,
    verify_sparse_product,
)
from polycheck.rings import POLY_MUL_OPS, RngStream, poly_list_is_irreducible
from conftest import Draws, perturb_poly, rand_dense, rand_nonzero_coeff, rand_sparse
from oracle import count_binomial_divisors, poly_divmod

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


def shifted_sum(X, w):
    """X(2^w) as the plain sum of shifted terms: the oracle for every check
    at a power of two."""
    terms = X.terms if isinstance(X, pc.SparsePoly) else enumerate(X.coeffs)
    return sum(c << (i * w) for i, c in terms)


GF256 = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])  # GF(2)[X]/(X^8 + X^4 + X^3 + X + 1)


def _sparse_of_degree(ctx, deg, rng, t=3):
    """A random sparse polynomial of t terms and exact degree deg."""
    low = rand_sparse(ctx, deg, t - 1, rng)
    return pc.SparsePoly(ctx, [*low.terms, (deg, rand_nonzero_coeff(ctx, rng))])


def _change_one_coefficient(H, rng):
    """H with one coefficient below its lead raised by one (dropped where
    that makes it zero): a wrong product of H's degree."""
    terms = dict(H.terms)
    e = H.terms[rng.below(len(H.terms) - 1)][0]
    terms[e] = H.ctx.add(terms[e], H.ctx.one())
    return pc.SparsePoly.from_dict(H.ctx, terms)


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

    def test_one_point_fallback_at_default_e(self):
        # at the default e the fold bound is vacuous, so one point is compared:
        # a random prime and a point of GF(p) over Z, a point of a large
        # GF(q), X modulo a screened irreducible R over a small GF(q)
        rng = RngStream(77)
        pinned = {
            Z: [{"p": 1307, "alpha": 806}],
            pc.GF(65537): [{"alpha": 2051}],
            F2: [{"extension_degree": 10, "modulus": [1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1]}],
        }
        for ctx, witnesses in pinned.items():
            F = rand_dense(ctx, 64, rng)
            G = rand_dense(ctx, 64, rng)
            H = pc.mul_oracle(F, G)
            r = verify_product_kaminski(F, G, H, cfg(1))
            assert r.verdict is True
            assert (r.rounds, r.error_bound, r.method) == (1, 0.25, "kaminski")
            assert r.witnesses == witnesses

    def test_quotient_ring_coefficients_take_the_exact_product(self, rng):
        # over GF(2^8) as coefficient ring, degrees 29 and 16: at 2^-20 the
        # field is too small for a point (256 2^-20 < 45), so one exact
        # product decides, with a certain verdict; at 1/4 it is large
        # enough (256/4 >= 45), and one random point of it decides
        ring = pc.ExtField(F2, (1, 0, 1, 1, 1, 0, 0, 0, 1))
        F = rand_dense(ring, 30, rng)
        G = rand_dense(ring, 17, rng)
        H = pc.mul_oracle(F, G)
        for X, verdict in ((H, True), (perturb_poly(H, rng), False)):
            r = verify_product_kaminski(F, G, X, cfg(0, Fraction(1, 2**20)))
            assert (r.verdict, r.error_bound, r.rounds) == (verdict, 0.0, 0)
            assert r.witnesses == [{"deterministic": "reference-product"}]
            r = verify_product_kaminski(F, G, X, cfg(0))
            assert (r.verdict, r.error_bound, r.rounds) == (verdict, 0.25, 1)
            assert list(r.witnesses[0]) == ["alpha"] and len(r.witnesses[0]["alpha"]) == 8

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

    @pytest.mark.parametrize("q", [3, 65537])
    def test_a_certain_full_degree_rejection_states_no_error(self, q):
        # H has more terms than F*G can have: the inner check's term-count
        # screen rejects for certain, and the report states error bound 0.0
        ctx = pc.GF(q)
        F = pc.SparsePoly(ctx, [(0, 1), (3, 1)])
        G = pc.SparsePoly(ctx, [(0, 1), (5, 1)])
        H = pc.SparsePoly(ctx, [(e, 1) for e in (0, 1, 2, 3, 5, 8)])
        for eps in (QUARTER, Fraction(1, 2**20)):
            r = verify_product_kaminski_nomul(F, G, H, cfg(0, eps))
            assert (r.verdict, r.error_bound, r.rounds) == (False, 0.0, 0)
            assert r.witnesses == [{"full-degree-fold": 9, "inner": []}]

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

    def test_extension_coefficients_test_R_once_per_ring(self, monkeypatch):
        # K = GF(2^8): K runs Ben-Or's test on R the first time a check asks
        # it and keeps the answer for every later check
        K = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])
        rng = RngStream(7)
        F, G = (pc.DensePoly(K, [K.from_coeffs([rng.below(2) for _ in range(8)])
                                 for _ in range(6)]) for _ in range(2))
        H = pc.mul_oracle(F, G)
        calls = {"check": 0, "irreducible": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(prodverify, "_modular_check_no_mul",
                            counted("check", prodverify._modular_check_no_mul))
        monkeypatch.setattr(rings, "poly_list_is_irreducible",
                            counted("irreducible", poly_list_is_irreducible))
        for X, verdict in ((H, True), (perturb_poly(H, rng), False)):
            r = verify_product_kaminski_nomul(F, G, X, cfg(1, Fraction(1, 8)))
            assert r.verdict is verdict
            assert r.witnesses[0]["full-degree-fold"] == 11
        assert calls == {"check": 2, "irreducible": 1}

    def test_small_quotient_ring_field_is_refused_below_its_size(self):
        # K = GF(2^8): the check at X^41 - 1 needs 256 epsilon >= 40, and
        # kaminski-nomul may neither multiply nor extend K; kaminski answers
        # by its exact product
        K = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])
        rng = RngStream(3)
        F, G = (pc.DensePoly(K, [K.from_coeffs([rng.below(2) for _ in range(8)])
                                 for _ in range(20)] + [K.one()]) for _ in range(2))
        H = pc.mul_oracle(F, G)
        for eps in (Fraction(1, 8), Fraction(1, 2**20)):
            with pytest.raises(FieldTooSmallError, match="size 256"):
                verify_product_kaminski_nomul(F, G, H, cfg(0, eps))
            r = verify_product_kaminski(F, G, H, cfg(0, eps))
            assert r.verdict is True
            assert r.witnesses == [{"deterministic": "reference-product"}]
        r = verify_product_kaminski_nomul(F, G, H, cfg(0, Fraction(1, 2)))
        assert r.verdict is True
        assert r.witnesses[0]["full-degree-fold"] == 41

    def test_full_degree_check_draws_kaminskis_prime(self):
        # nothing wraps at X^(D+1) - 1, so Delta's bound is the plain one; on
        # 2048-bit factors, where that bound sets lambda, both checks draw
        # one prime and one point
        rnd = RngStream(0x2048)
        F, G = (rand_dense(Z, 63, rnd, 2**2048 - 1) for _ in "FG")
        H = pc.mul_oracle(F, G)
        P = pc.x_pow_minus_one(Z, F.degree() + G.degree() + 1)
        assert modverify.delta_norm_bound(F, G, H, P) == modverify.delta_norm_bound(F, G, H)
        for seed in range(3):
            (point,) = verify_product_kaminski(F, G, H, cfg(seed)).witnesses
            nomul = verify_product_kaminski_nomul(F, G, H, cfg(seed))
            prime, alpha = nomul.witnesses[0]["inner"]
            assert {"p": prime["q"], **alpha} == point

    @pytest.mark.parametrize("q", [3, 7])
    def test_all_sparse_full_degree_check_is_kaminskis(self, q, tmp_path):
        # two 8-term factors below 2^16 are read sparse at X^(D+1) - 1, so
        # the check takes kaminski's one screened R with its products and
        # never scans the 1.3*10^5 coefficients of the dense triple
        prefix = str(tmp_path / "g")
        gen = ["gen", "--ring", "GF", "--q", str(q), "--n", "65535", "--T", "8", "--seed", "1"]
        assert main([*gen, "--out-prefix", prefix]) == 0
        F, G, H = (read_poly_file(f"{prefix}_{X}.poly") for X in "FGH")
        for X in (H, _change_one_coefficient(H, RngStream(q))):
            before = POLY_MUL_OPS.count
            want = verify_product_kaminski(F, G, X, cfg(1, Fraction(1, 2**20)))
            middle = POLY_MUL_OPS.count
            got = verify_product_kaminski_nomul(F, G, X, cfg(1, Fraction(1, 2**20)))
            assert got.verdict is want.verdict is (X is H)
            assert got.witnesses[0]["inner"] == want.witnesses
            assert POLY_MUL_OPS.count - middle == middle - before

    @pytest.mark.parametrize("ctx", [Z, pc.GF(7)], ids=str)
    def test_shape_screens_are_pinned(self, ctx, rng):
        F, G = rand_dense(ctx, 6, rng), rand_dense(ctx, 4, rng)
        for H in (pc.DensePoly.zero(ctx), rand_dense(ctx, 11, rng)):
            r = verify_product_kaminski_nomul(F, G, H, cfg(0))
            assert (r.verdict, r.error_bound, r.rounds) == (False, 0.0, 0)
            assert r.witnesses == [{"deterministic": "shape"}]
            assert r.method == "kaminski-nomul"

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


class TestCoefficientsWithNoSize:
    """Over Z[X]/(X^2 + 1), which has no size to weigh epsilon against, the
    verifiers that need one raise a TypeError naming the rings they take;
    verify_product_kaminski keeps its exact product."""

    K = pc.ExtField(Z, [1, 0, 1])

    def triple(self):
        K = self.K
        F = pc.SparsePoly(K, [(0, K.one()), (3, K.x)])
        G = pc.SparsePoly(K, [(1, K.from_coeffs([2, -1])), (4, K.one())])
        return F, G, pc.mul_oracle(F, G)

    def test_the_two_verifiers_that_need_a_size_raise(self):
        F, G, H = self.triple()
        supported = r"Z, GF\(q\) or GF\(q\)\[X\]/\(R\)"
        for verify in (verify_sparse_product, verify_product_kaminski_nomul):
            with pytest.raises(TypeError, match=supported):
                verify(F, G, H, cfg(0))

    def test_kaminski_keeps_the_exact_product(self):
        F, G, H = self.triple()
        K = self.K
        wrong = pc.mul_oracle(F, pc.SparsePoly(K, [(1, K.one()), (4, K.one())]))
        for form in (lambda X: X, lambda X: X.to_dense()):
            for X, verdict in ((H, True), (wrong, False)):
                r = verify_product_kaminski(form(F), form(G), form(X), cfg(0))
                assert r.verdict is verdict
                assert r.witnesses == [{"deterministic": "reference-product"}]


class TestCoefficientsNotAField:
    """K = GF(2)[X]/(X^20) has 2^20 elements but is not a field: half of K
    annihilates x^19, so Δ = x^19 Y vanishes at half of the points, and a
    random point of K let a wrong H through about 176 times in 400 at
    epsilon 2^-10.  The checks that evaluate at a point refuse K;
    verify_product_kaminski keeps its exact product."""

    K = pc.ExtField(F2, [0] * 20 + [1])

    def wrong(self, H):
        x19 = self.K.from_coeffs([0] * 19 + [1])
        return pc.SparsePoly.from_dict(self.K, {**dict(H.terms), 1: self.K.add(H.coeff(1), x19)})

    def test_point_checks_raise(self):
        K = self.K
        P = pc.SparsePoly(K, [(0, K.one()), (2, K.one())])
        F = pc.SparsePoly(K, [(0, K.one()), (1, K.one())])
        H = pc.mul_oracle(F, F)
        supported = r"Z, GF\(q\) or GF\(q\)\[X\]/\(R\) with R irreducible"
        c = cfg(0, Fraction(1, 2**10))
        with pytest.raises(TypeError, match=supported):
            modverify.verify_mod(F, F, self.wrong(pc.mod_reduce(H, P)), P, c)
        for verify in (verify_sparse_product, verify_product_kaminski_nomul):
            with pytest.raises(TypeError, match=supported):
                verify(F, F, self.wrong(H), c)
        r = verify_product_kaminski(F, F, self.wrong(H), c)
        assert r.verdict is False
        assert r.witnesses == [{"deterministic": "reference-product"}]


class TestBenOrOncePerRing:
    """A quotient ring over GF(q) runs Ben-Or's test on R the first time
    the point policy asks it and keeps the answer: every later check over
    the same ring object reads it."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []

        def counted(coeffs, q):
            calls.append((tuple(coeffs), q))
            return poly_list_is_irreducible(coeffs, q)

        monkeypatch.setattr(rings, "poly_list_is_irreducible", counted)
        return calls

    def test_two_checks_run_one_test(self, monkeypatch):
        K = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])  # X^8 + X^4 + X^3 + X + 1
        rng = RngStream(11)
        F, G = (pc.DensePoly(K, [K.from_coeffs([rng.below(2) for _ in range(8)])
                                 for _ in range(6)] + [K.one()]) for _ in "FG")
        H = pc.mul_oracle(F, G)
        calls = self._counted(monkeypatch)
        for seed in (1, 2):
            r = verify_product_kaminski(F, G, H, cfg(seed, Fraction(1, 8)))
            assert r.verdict is True and "alpha" in r.witnesses[0]
        assert calls == [(K.modulus, 2)]
        assert K.serves_point_policy() is True and len(calls) == 1

    def test_a_reducible_modulus_is_still_refused(self, monkeypatch):
        K = pc.ExtField(F2, [1, 0, 0, 0, 0, 0, 0, 0, 1])  # X^8 + 1 = (X + 1)^8
        F = pc.DensePoly(K, [K.one(), K.x])
        H = pc.mul_oracle(F, F)
        calls = self._counted(monkeypatch)
        message = r"^coefficients must lie in Z, GF\(q\) or GF\(q\)\[X\]/\(R\) with R irreducible$"
        for _ in range(2):
            with pytest.raises(TypeError, match=message):
                modverify.point_kind(K, 2, Fraction(1, 8))
            with pytest.raises(TypeError, match=message):
                verify_product_kaminski_nomul(F, F, H, cfg(0, Fraction(1, 8)))
            r = verify_product_kaminski(F, F, H, cfg(0, Fraction(1, 8)))
            assert r.witnesses == [{"deterministic": "reference-product"}]
        assert calls == [(K.modulus, 2)]

    def test_making_a_ring_runs_no_test(self, monkeypatch):
        calls = self._counted(monkeypatch)
        for q, R in ((2, [1, 1, 1]), (7, [1, 0, 1]), (2, [1, 0, 1])):
            pc.ExtField(pc.GF(q), R)
        assert calls == []


@pytest.mark.parametrize("base", [F2, Z], ids=["GF2", "Z"])
class TestCoefficientsWithZeroDivisors:
    """Over K = B[X]/(X^2), B = GF(2) or Z, x = X mod X^2 is a zero divisor:
    (x + x Y^3)(x Y) = 0 and (1 + x Y^3)(1 + x Y) = 1 + x Y + x Y^3 has
    degree 3 < 4.  Neither shape is a certain rejection there: kaminski
    decides both by its exact product, and the checks that evaluate at a
    point refuse K."""

    def triples(self, base):
        K = pc.ExtField(base, [0, 0, 1])
        one, x = K.one(), K.x
        for F, G in (
            ([(1, x), (3, x)], [(1, x)]),
            ([(0, one), (3, x)], [(0, one), (1, x)]),
        ):
            F, G = pc.SparsePoly(K, F), pc.SparsePoly(K, G)
            H = pc.mul_oracle(F, G)
            wrong = pc.SparsePoly.from_dict(K, {**dict(H.terms), 2: one})
            yield F, G, H, wrong

    def test_kaminski_takes_the_exact_product(self, base):
        for F, G, H, wrong in self.triples(base):
            for form in (lambda X: X, lambda X: X.to_dense()):
                for X, verdict in ((H, True), (wrong, False)):
                    r = verify_product_kaminski(form(F), form(G), form(X), cfg(0))
                    assert r.verdict is verdict
                    assert r.witnesses == [{"deterministic": "reference-product"}]

    def test_the_point_checks_raise(self, base):
        supported = r"Z, GF\(q\) or GF\(q\)\[X\]/\(R\)"
        for F, G, H, _ in self.triples(base):
            for verify in (verify_sparse_product, verify_product_kaminski_nomul):
                with pytest.raises(TypeError, match=supported):
                    verify(F, G, H, cfg(0))


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

    def test_certain_screens_are_pinned(self):
        for c, reason in ((0, "sign"), (-15, "sign"), (2**100, "size")):
            r = verify_int_product(3, 5, c, cfg(0))
            assert (r.verdict, r.error_bound, r.rounds) == (False, 0.0, 0)
            assert r.witnesses == [{"deterministic": reason}]

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
        # with the inner integer verification replaced by exact comparison of
        # the packed values, the verdict must match polynomial equality
        for _ in range(200):
            F = rand_dense(Z, rng.below(20), rng, hi=40)
            G = rand_dense(Z, rng.below(20), rng, hi=40)
            H = pc.mul_oracle(F, G)
            if rng.below(2):
                H = perturb_poly(H, rng)
            w = kronecker_point(F, G, H).bit_length() - 1
            a, b, c = (shifted_sum(X, w) for X in (F, G, H))
            assert (a * b == c) == (pc.mul_oracle(F, G) == H)

    @pytest.mark.parametrize("dense", [True, False])
    def test_h_below_a_factor_degree_is_a_certain_rejection(self, dense):
        # a nonzero product over Z has degree deg F + deg G; the screen runs
        # before any value at 2^w, which at deg F = 2^40 would not fit in memory
        F = pc.SparsePoly(Z, [(2**40, 1)] if not dense else [(9, 1)])
        G = pc.SparsePoly(Z, [(0, 1)])
        H = pc.SparsePoly(Z, [(1, 1)])
        if dense:
            F, G, H = F.to_dense(), G.to_dense(), H.to_dense()
        r = verify_product_kronecker(F, G, H, cfg(0, STRICT))
        assert (r.verdict, r.error_bound, r.rounds) == (False, 0.0, 0)
        assert r.witnesses == [{"deterministic": "shape"}]

    def test_needs_integer_ring(self, rng):
        F = rand_dense(F2, 4, rng)
        with pytest.raises(TypeError):
            verify_product_kronecker(F, F, F, cfg(0))

    @pytest.mark.parametrize("degree", [2**26, 2**40])
    def test_sparse_identity_past_the_densify_cap(self, degree):
        # nothing of degree size is formed: the prime's λ comes from s
        # without building 2^(2s)
        F = pc.SparsePoly(Z, [(degree, 1)])
        G = pc.SparsePoly(Z, [(0, 1)])
        for seed in range(3):
            r = verify_product_kronecker(F, G, F, cfg(seed, STRICT))
            assert r.verdict is True and r.rounds == 1
            assert list(r.witnesses[0]["inner"][0]) == ["p"]
            wrong = pc.SparsePoly(Z, [(degree, 2)])
            assert verify_product_kronecker(F, G, wrong, cfg(seed, STRICT)).verdict is False


class TestPrimeLambdaFromBits:
    EPS = (Fraction(1, 2), QUARTER, Fraction(3, 10), Fraction(1, 2**20))

    def test_equals_the_built_norm_up_to_s_4096(self):
        # the λ of _check_at_power_of_two, prime_lambda(1, 2^(2s), ε), for
        # every s <= 2^12, so no golden kronecker report moves
        for s in range(2**12 + 1):
            for eps in self.EPS:
                assert prime_lambda_pow2(1, 2 * s, eps) == prime_lambda(1, 1 << (2 * s), eps)

    def test_equals_the_built_norm_at_random_s(self, rng):
        for _ in range(60):
            s = rng.randint(2**12, 2**20)
            for eps in self.EPS:
                assert prime_lambda_pow2(1, 2 * s, eps) == prime_lambda(1, 1 << (2 * s), eps)


class TestSparseVerifyParams:
    def test_default_split_satisfies_inequality(self):
        for eps in (QUARTER, Fraction(1, 2**20), Fraction(99, 100)):
            head = Fraction(10, 3) * prodverify.SPARSE_EPS1 * eps
            assert head + (1 - head) * prodverify.SPARSE_EPS2 * eps <= eps


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

    def test_shape_verdicts_are_certain(self):
        # every screen verdict holds for sure: error bound 0 at any epsilon
        F = pc.SparsePoly(Z, [(0, 1), (3, 1)])
        cases = [
            (F, F, pc.SparsePoly(Z, [(i, 1) for i in range(5)] + [(6, 1)]), False),
            (F, F, pc.SparsePoly(Z, [(0, 1), (7, 1)]), False),
            (F, F, pc.SparsePoly.zero(Z), False),
            (F, pc.SparsePoly.zero(Z), pc.SparsePoly.zero(Z), True),
        ]
        for A, B, H, verdict in cases:
            r = verify_sparse_product(A, B, H, cfg(0, Fraction(1, 2**20)))
            assert (r.verdict, r.error_bound, r.rounds) == (verdict, 0.0, 0)

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

    @pytest.mark.parametrize("ctx, deg, eps", [
        (Z, 2**20, Fraction(1, 2**20)),
        (F2, 2**20, Fraction(1, 2**20)),
        (pc.GF(7), 2**20, Fraction(1, 2**20)),
        (pc.GF(65537), 2**20, Fraction(1, 2**20)),
        (GF256, 30, Fraction(1, 2)),
    ], ids=["Z", "GF2", "GF7", "GF65537", "GF256"])
    def test_one_point_where_no_prime_can_fold(self, ctx, deg, eps, monkeypatch):
        # where lambda > deg F + deg G no fold prime is below the degree: no
        # prime is drawn, nothing is folded, and the report is kaminski's
        def refuse(*args):
            raise AssertionError("a fold where no prime can fold")

        monkeypatch.setattr(prodverify, "random_prime", refuse)
        monkeypatch.setattr(prodverify, "reduce_mod_binomial", refuse)
        rnd = RngStream(0x1F2)
        for seed in range(3):
            F, G = (rand_sparse(ctx, deg, 8, rnd) for _ in "FG")
            H = pc.mul_oracle(F, G)
            for X in (H, _change_one_coefficient(H, rnd)):
                assert prodverify._sparse_lam(F, G, X, eps) > F.degree() + G.degree()
                r = verify_sparse_product(F, G, X, cfg(seed, eps))
                assert r.verdict is (X is H) and r.rounds == 1
                k = verify_product_kaminski(F, G, X, cfg(seed, eps))
                assert {**r.to_dict(), "method": "kaminski"} == k.to_dict()

    def test_small_quotient_field_at_the_degree_of_delta(self):
        # GF(2^8) at epsilon 1/2: Delta has degree at most 53 <= 256/2, so
        # one point of the field serves; a check asked at the degree of a
        # fold prime, far above 53, would need more than 256 elements
        rnd = RngStream(0x92)
        accepted = rejected = 0
        for seed in range(20):
            F, G = _sparse_of_degree(GF256, 31, rnd), _sparse_of_degree(GF256, 22, rnd)
            H = pc.mul_oracle(F, G)
            c = cfg(seed, Fraction(1, 2))
            accepted += verify_sparse_product(F, G, H, c).verdict
            rejected += not verify_sparse_product(F, G, _change_one_coefficient(H, rnd), c).verdict
        assert (accepted, rejected) == (20, 20)


def past_cap_triple(ctx):
    """F = 1 + X^(2^27) sparse, G = 1 + X dense, H = F*G sparse, and H with
    its top term removed: a mixed triple whose degree no dense vector
    reaches (DENSIFY_CAP = 2^26)."""
    n = 2**27
    F = pc.SparsePoly(ctx, [(0, 1), (n, 1)])
    G = pc.DensePoly(ctx, [1, 1])
    H = pc.SparsePoly(ctx, [(0, 1), (1, 1), (n, 1), (n + 1, 1)])
    return F, G, H, pc.SparsePoly(ctx, H.terms[:-1])


class TestOneFormRule:
    """modverify.triple_forms decides the forms every product check reads:
    all-sparse input stays sparse, mixed input is made dense below
    DENSIFY_CAP and read sparse past it, so no verifier refuses a true
    triple for its degree."""

    @pytest.mark.parametrize("ctx", [F2, pc.GF(65537), Z], ids=str)
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2**20)], ids=["1/4", "2^-20"])
    @pytest.mark.parametrize("verify", [verify_product_kaminski, verify_product_kaminski_nomul],
                             ids=["kaminski", "kaminski-nomul"])
    def test_mixed_triple_past_the_cap(self, verify, ctx, eps):
        F, G, H, wrong = past_cap_triple(ctx)
        for X, verdict in ((H, True), (wrong, False)):
            r = verify(F, G, X, cfg(3, eps))
            assert r.verdict is verdict
            # read as the all-sparse triple is
            assert r == verify(F, G.to_sparse(), X, cfg(3, eps))

    @pytest.mark.parametrize("ctx", [F2, pc.GF(65537)], ids=str)
    def test_nomul_multiplies_only_past_the_cap(self, ctx):
        # below the cap the mixed triple is made dense and the dense scans
        # at X multiply nothing; past it the triple is read sparse and takes
        # the one screened point, whose screening and power table multiply
        for n, counted in ((2**12, False), (2**27, True)):
            F = pc.SparsePoly(ctx, [(0, 1), (n, 1)])
            G = pc.DensePoly(ctx, [1, 1])
            H = pc.SparsePoly(ctx, [(0, 1), (1, 1), (n, 1), (n + 1, 1)])
            before = POLY_MUL_OPS.count
            r = verify_product_kaminski_nomul(F, G, H, cfg(1, Fraction(1, 2**20)))
            assert r.verdict is True
            assert "modulus" in r.witnesses[0]["inner"][0]  # draws at X modulo R
            assert (POLY_MUL_OPS.count > before) is counted

    @pytest.mark.parametrize("ctx", [F2, pc.GF(65537), Z], ids=str)
    def test_sparse_verifier_reads_any_form(self, ctx, rng):
        F, G = rand_sparse(ctx, 300, 5, rng), rand_sparse(ctx, 200, 4, rng)
        H = pc.mul_oracle(F, G)
        for X in (H, perturb_poly(H, rng)):
            want = verify_sparse_product(F, G, X, cfg(5))
            for forms in ((F.to_dense(), G.to_dense(), X.to_dense()), (F.to_dense(), G, X)):
                assert verify_sparse_product(*forms, cfg(5)) == want

    def test_the_rule(self):
        K = pc.GF(7)
        F, G, H = pc.DensePoly(K, [1, 2]), pc.SparsePoly(K, [(1, 1)]), pc.DensePoly(K, [0, 1, 2])
        cap = pc.poly.DENSIFY_CAP
        assert modverify.triple_forms(F, G, H, n=3, dense=False) == (F, G, H, False)
        assert modverify.triple_forms(F, G, H, n=3, dense=True) == (F, G.to_dense(), H, False)
        Fs, Hs = F.to_sparse(), H.to_sparse()
        assert modverify.triple_forms(Fs, G, Hs, n=3, dense=True) == (Fs, G, Hs, True)
        for dense in (False, True):
            assert modverify.triple_forms(F, G, H, n=cap, dense=dense) == (
                F.to_sparse(), G, H.to_sparse(), True
            )


class TestInputChecks:
    """The input checks no other test reaches: every product verifier
    refuses polynomials over two rings, and the sparse companion check
    refuses input that is not all sparse."""

    @pytest.mark.parametrize("odd", range(3), ids=["F", "G", "H"])
    @pytest.mark.parametrize(
        "verify",
        [verify_product_kaminski, verify_product_kaminski_nomul, verify_product_kronecker,
         verify_sparse_product, modverify.verify_mod_companion_sparse],
        ids=lambda f: f.__name__,
    )
    def test_refused(self, verify, odd):
        K = pc.GF(7)
        X = pc.SparsePoly(K, [(0, 1), (1, 1)])
        polys = [X, X, pc.mul_oracle(X, X)]
        if verify is modverify.verify_mod_companion_sparse:
            polys[odd] = polys[odd].to_dense()
            P = pc.SparsePoly(K, [(0, 1), (5, 1)])
            with pytest.raises(TypeError, match="^sparse companion verification needs sparse"):
                verify(*polys, P)
        else:
            polys[odd] = pc.SparsePoly(Z, polys[odd].terms)
            with pytest.raises(ValueError, match="^mixed coefficient contexts$"):
                verify(*polys)


class TestMethodRule:
    """Each product verifier runs under "auto" and its own name, with the
    same report, and refuses every other name, product or modular."""

    @pytest.mark.parametrize("verify, name", [
        (verify_product_kaminski, "kaminski"),
        (verify_product_kaminski_nomul, "kaminski-nomul"),
        (verify_product_kronecker, "kronecker"),
        (verify_sparse_product, "sparse"),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_own_name_or_auto(self, verify, name):
        F, G = EX1_F.to_dense(), EX1_G.to_dense()
        for H in (EX1_FG.to_dense(), EX1_H.to_dense()):
            want = verify(F, G, H, VerifyConfig(seed=3))
            assert verify(F, G, H, VerifyConfig(method=name, seed=3)) == want
        for method in modverify.PRODUCT_METHODS + modverify.METHODS:
            if method in ("auto", name):
                continue
            message = f"^the {name} verifier cannot run method '{method}'$"
            with pytest.raises(ValueError, match=message):
                verify(F, G, EX1_FG.to_dense(), VerifyConfig(method=method))


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
        k = KaminskiParams().k(n)
        for _ in range(30):
            delta = rand_dense(Z, rng.below(2 * n), rng)
            assert count_binomial_divisors(delta, n) < k


@st.composite
def product_triples(draw, rings, sparse=False):
    """(F, G, H, seed) with H = F*G over one of rings.  Dense triples may
    mix in sparse encodings; sparse ones have exponents up to 2^30."""
    ctx = draw(st.sampled_from(rings))
    coeffs = st.integers(-(2**40), 2**40) if ctx == Z else st.integers(0, ctx.q - 1)
    if sparse:
        terms = st.dictionaries(st.integers(0, 2**30), coeffs, max_size=6)
        F, G = (pc.SparsePoly.from_dict(ctx, draw(terms)) for _ in "FG")
        return F, G, pc.mul_oracle(F, G), draw(st.integers(0, 2**32))
    n = draw(st.integers(0, 60))
    F, G = (pc.DensePoly(ctx, draw(st.lists(coeffs, max_size=n))) for _ in "FG")
    H = pc.mul_oracle(F, G)
    F, G, H = (X.to_sparse() if draw(st.booleans()) else X for X in (F, G, H))
    return F, G, H, draw(st.integers(0, 2**32))


def _accepts_and_replays(verify, F, G, H, seed):
    """A true identity is accepted, a wrong one gives a verdict, and either
    report is reproduced exactly from the same seed."""
    c = cfg(seed)
    report = verify(F, G, H, c)
    assert report.verdict is True
    assert verify(F, G, H, c) == report
    wrong = perturb_poly(H, RngStream(seed))
    assert verify(F, G, wrong, c) == verify(F, G, wrong, c)


class TestOneSidedAndReplayable:
    @given(product_triples((Z, F2, pc.GF(7), pc.GF(65537))), st.sampled_from((None, E_SMALL)))
    def test_kaminski(self, inst, e):
        params = None if e is None else KaminskiParams(e=e)
        _accepts_and_replays(
            lambda F, G, H, c: verify_product_kaminski(F, G, H, c, params), *inst
        )

    @given(product_triples((Z,)))
    def test_kronecker(self, inst):
        _accepts_and_replays(verify_product_kronecker, *inst)

    @given(product_triples((Z, F2, pc.GF(7), pc.GF(65537)), sparse=True))
    def test_sparse_product(self, inst):
        _accepts_and_replays(verify_sparse_product, *inst)


STRICT = Fraction(1, 2**20)


def _negated(X):
    if isinstance(X, pc.SparsePoly):
        return pc.SparsePoly(Z, [(i, -c) for i, c in X.terms])
    return pc.DensePoly(Z, [-c for c in X.coeffs])


@st.composite
def top_heavy_polys(draw):
    """(X, w): a nonzero integer polynomial, dense or sparse, whose terms
    below the lead are less than 2^(w-1) in absolute value, as at the
    Kronecker point, with w from 2 to 200.  The lead is any nonzero integer;
    power-of-two leads and a next term of the other sign are drawn often."""
    w = draw(st.integers(2, 200))
    low = st.integers(-(2 ** (w - 1)) + 1, 2 ** (w - 1) - 1)
    terms = draw(st.dictionaries(st.integers(0, 300), low, max_size=6))
    n = max(terms, default=-1) + 1 + draw(st.integers(0, 3))
    size = draw(st.one_of(st.integers(0, 300).map(lambda k: 1 << k), st.integers(1, 2**300)))
    lead = draw(st.sampled_from((1, -1))) * size
    if terms and draw(st.booleans()):
        top = max(terms)
        terms[top] = -abs(terms[top] or 1) if lead > 0 else abs(terms[top] or 1)
    terms[n] = lead
    X = pc.SparsePoly.from_dict(Z, terms)
    return (X.to_dense() if draw(st.booleans()) else X), w


class TestCheckAtPowerOfTwo:
    """The integer product check on F(2^w), G(2^w) and H(2^w) that never
    forms any of them, against the packed values."""

    @given(top_heavy_polys())
    def test_sign_and_bits_from_the_top_terms(self, inst):
        X, w = inst
        value = shifted_sum(X, w)
        assert prodverify._sign_and_bits(X, w) == (value > 0, abs(value).bit_length())

    @given(product_triples((Z,)), st.integers(0, 200), st.integers(2, 2**70))
    def test_residues_at_two_to_the_w(self, inst, w, m):
        # both residue maps against the packed values: the Horner and power
        # table route at any modulus (its int loops never invert), the
        # placed terms at 2^i - 1
        F, G, H, _ = inst
        i = 2 + m % 70
        ring = pc.PrimeField(m)
        alpha = pow(2, w, m)
        pw = power_table(ring, alpha)
        for X in (F, G, H):
            value = shifted_sum(X, w)
            assert pc.evaluate(X, alpha, ring, pw) == value % m
            assert prodverify._value_mod_mersenne(X, w, i) == value % ((1 << i) - 1)

    def test_evaluates_at_two_to_the_w_modulo_the_reported_prime(self, rng):
        # H + X - r with r = 2^w mod p is wrong, but its difference vanishes
        # at 2^w modulo p, so the check that reported p accepts it: p and the
        # point are exactly the ones the report names
        F = rand_dense(Z, 40, rng, hi=2**60)
        G = rand_dense(Z, 40, rng, hi=2**60)
        H = pc.mul_oracle(F, G)
        for seed in range(5):
            inner = verify_product_kronecker(F, G, H, cfg(seed)).witnesses[0]
            w, p = inner["beta_log2"], inner["inner"][0]["p"]
            cs = list(H.coeffs)
            cs[0] -= pow(2, w, p)
            cs[1] += 1
            wrong = pc.DensePoly(Z, cs)
            assert kronecker_point(F, G, wrong) == 1 << w
            r = verify_product_kronecker(F, G, wrong, cfg(seed))
            assert r.verdict is True and r.witnesses[0]["inner"] == [{"p": p}]

    @given(product_triples((Z,)), st.sampled_from(("true", "perturbed", "negated")),
           st.sampled_from((None, Fraction(3, 10), E_SMALL)), st.sampled_from((QUARTER, STRICT)))
    def test_kronecker_is_the_integer_check_on_packed_values(self, inst, variant, e, eps):
        # byte for byte the report of verify_int_product on the packed values,
        # inside the kronecker wrapper
        F, G, H, seed = inst
        if variant == "perturbed":
            H = perturb_poly(H, RngStream(seed))
        elif variant == "negated":
            H = _negated(H)
        c = cfg(seed, eps)
        got = verify_product_kronecker(F, G, H, c, e=e).to_dict()
        if "inner" not in got["witnesses"][0]:
            assert got["witnesses"] == [{"deterministic": "shape"}]
            return
        w = got["witnesses"][0]["beta_log2"]
        assert w == kronecker_point(F, G, H).bit_length() - 1
        inner = verify_int_product(*(shifted_sum(X, w) for X in (F, G, H)), c, e=e).to_dict()
        inner_witnesses = inner.pop("witnesses")
        want = dict(inner, method="kronecker", witnesses=[{"beta_log2": w, "inner": inner_witnesses}])
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


ENCODINGS = ("dense", "sparse", "mixed")


def _encode(encoding, F, G, H):
    if encoding == "sparse":
        return F.to_sparse(), G.to_sparse(), H.to_sparse()
    if encoding == "mixed":
        return F, G.to_sparse(), H
    return F, G, H


class TestNoProductRecomputed:
    """The dense product checks decide true and perturbed H with the
    reference product made to fail, in the library and through the CLI.
    On all-sparse input the CLI's auto may compute the exact product
    instead; every report that did says so."""

    @pytest.fixture(autouse=True)
    def _no_reference_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the reference product ran")

        monkeypatch.setattr(prodverify, "mul_oracle", refuse)
        monkeypatch.setattr(cli, "mul_oracle", refuse)
        monkeypatch.setattr(prodverify, "product_terms", refuse)

    @staticmethod
    def _instances(ctx, encoding, rng):
        # an all-sparse 2^12-term evaluation over GF(7) takes seconds, so the
        # sparse encoding stops at 2^9 coefficients
        for n in (1, 2, 40, 2**9 if encoding == "sparse" else 2**12):
            F = rand_dense(ctx, n - 1, rng)
            G = rand_dense(ctx, n - 1 - rng.below(min(n, 3)), rng)
            H = pc.mul_oracle(F, G)
            yield F, G, H, perturb_poly(H, rng)

    def _check(self, verify, ctx, encoding, rng):
        for F, G, H, Hbad in self._instances(ctx, encoding, rng):
            for seed in (0, 1):
                assert verify(*_encode(encoding, F, G, H), cfg(seed)).verdict is True
                assert verify(*_encode(encoding, F, G, H), cfg(seed, STRICT)).verdict is True
                assert verify(*_encode(encoding, F, G, Hbad), cfg(seed, STRICT)).verdict is False

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("ctx", [Z, F2, pc.GF(7), pc.GF(65537)], ids=str)
    def test_kaminski(self, ctx, encoding, rng):
        self._check(verify_product_kaminski, ctx, encoding, rng)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_kronecker(self, encoding, rng):
        self._check(verify_product_kronecker, Z, encoding, rng)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("ctx", [Z, F2, pc.GF(7), pc.GF(65537)], ids=str)
    def test_cli_auto(self, ctx, encoding, rng, tmp_path, capsys, monkeypatch):
        products = []
        if encoding == "sparse":
            monkeypatch.setattr(
                prodverify, "product_terms", lambda *args: products.append(1) or product_terms(*args)
            )
        for F, G, H, Hbad in self._instances(ctx, encoding, rng):
            for X, code in ((H, 0), (Hbad, 1)):
                args = ["verify-prod", "--method", "auto", "--seed", "3"]
                for name, Y in zip("FGH", _encode(encoding, F, G, X)):
                    write_poly_file(tmp_path / f"{name}.poly", Y)
                    args += [f"--{name}", str(tmp_path / f"{name}.poly")]
                ran = len(products)
                assert main(args) == code
                report = json.loads(capsys.readouterr().out)
                if len(products) > ran:
                    assert (report["method"], report["error_bound"]) == ("exact", 0.0)
                else:
                    assert report["method"] != "exact"
        assert bool(products) == (encoding == "sparse")

    def test_kaminski_over_a_large_quotient_ring_field(self):
        # GF(2)[X]/(R), R irreducible of degree 64, is large enough for one
        # random point at 2^-20 with degree-99 factors
        rng = RngStream(11)
        R = pc.random_irreducible(F2, 64, Fraction(1, 2**40), rng)
        assert poly_list_is_irreducible(list(R.coeffs), 2)
        K = pc.ExtField(F2, R.coeffs)
        F, G = (pc.DensePoly(K, [K.sample(rng) for _ in range(99)] + [K.one()])
                for _ in "FG")
        H = pc.mul_oracle(F, G)
        for X, verdict in ((H, True), (perturb_poly(H, rng), False)):
            r = verify_product_kaminski(F, G, X, cfg(5, STRICT))
            assert (r.verdict, r.rounds, r.error_bound) == (verdict, 1, 2**-20)
            assert list(r.witnesses[0]) == ["alpha"] and len(r.witnesses[0]["alpha"]) == 64


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


class TestOnePointSoundness:
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2)])
    def test_prime_divides_few_int_differences(self, eps):
        # the worst nonzero C - AB for the prime check of verify_int_product:
        # the product of the consecutive primes >= λ that fit below 2^(2s);
        # at most an ε/4 share of the primes in [λ, 2λ] divides it
        for s in range(1, 65):
            lam = prime_lambda(1, 1 << (2 * s), eps)
            primes = _primes_upto(4 * lam)
            window = [p for p in primes if lam <= p <= 2 * lam]
            assert len(window) >= 3 * lam / (5 * math.log(lam))
            delta = 1
            for p in (p for p in primes if p >= lam):
                if delta * p >= 1 << (2 * s):
                    break
                delta *= p
            dividing = sum(delta % p == 0 for p in window)
            assert dividing <= eps / 4 * len(window)
            a = (1 << s) - 1
            p = verify_int_product(a, a, a * a, cfg(s, eps)).witnesses[0]["p"]
            assert lam <= p <= 2 * lam

    @pytest.mark.parametrize("q, m_max", [(2, 8), (3, 5)])
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2)])
    def test_irreducible_divides_few_product_differences(self, q, m_max, eps):
        # the small-field point of verify_product_kaminski, exhaustively: for
        # every nonzero Δ of degree <= m = deg F + deg G, at most a 3ε/4 share
        # of the monic irreducible R of degree D = extension_degree(q, m, ε)
        # divides Δ
        K = pc.GF(q)
        for m in range(1, m_max + 1):
            if q * eps >= m:
                continue  # a random point of GF(q) serves
            D = extension_degree(q, m, eps)
            F = pc.SparsePoly(K, [(m // 2, 1)]).to_dense()
            G = pc.SparsePoly(K, [(m - m // 2, 1)]).to_dense()
            r = verify_product_kaminski(F, G, pc.mul_oracle(F, G), cfg(0, eps))
            assert r.witnesses[0]["extension_degree"] == D
            irreducibles = [
                pc.DensePoly(K, list(tail) + [1])
                for tail in itertools.product(range(q), repeat=D)
                if poly_list_is_irreducible(list(tail) + [1], q)
            ]
            for cs in itertools.product(range(q), repeat=m + 1):
                if any(cs):
                    delta = pc.DensePoly(K, list(cs))
                    divisors = sum(poly_divmod(delta, R)[1].is_zero() for R in irreducibles)
                    assert divisors <= Fraction(3, 4) * eps * len(irreducibles)

    @pytest.mark.parametrize("modulus, m_max", [((1, 1, 1), 3), ((1, 1, 0, 1), 2)])
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2)])
    def test_quotient_ring_field_point_finds_few_roots(self, modulus, m_max, eps):
        # the point of verify_product_kaminski over K = GF(2)[X]/(R) with R
        # irreducible, exhaustively: every nonzero Δ of degree <= m over K
        # has at most deg Δ roots in K, an ε share of K at most where
        # |K| ε >= m and the check draws a random point of K
        K = pc.ExtField(F2, modulus)
        elements = [K.from_coeffs(cs) for cs in itertools.product(range(2), repeat=K.d)]
        for m in range(1, m_max + 1):
            F = pc.SparsePoly(K, [(m // 2, K.one())]).to_dense()
            G = pc.SparsePoly(K, [(m - m // 2, K.one())]).to_dense()
            r = verify_product_kaminski(F, G, pc.mul_oracle(F, G), cfg(0, eps))
            if len(elements) * eps < m:
                assert r.witnesses == [{"deterministic": "reference-product"}]
                continue
            assert list(r.witnesses[0]) == ["alpha"]
            for cs in itertools.product(elements, repeat=m + 1):
                if any(not K.is_zero(c) for c in cs):
                    delta = pc.DensePoly(K, list(cs))
                    roots = sum(K.is_zero(pc.evaluate(delta, a, K)) for a in elements)
                    assert roots <= delta.degree() <= m
                    assert roots <= eps * len(elements)

    @pytest.mark.parametrize("ctx", [pc.GF(7), Z], ids=str)
    def test_perturbed_product_acceptance_rate(self, ctx, rng):
        F = rand_dense(ctx, 30, rng)
        G = rand_dense(ctx, 25, rng)
        H = pc.mul_oracle(F, G)
        trials = 2000
        accepted = 0
        for seed in range(trials):
            Hbad = perturb_poly(H, RngStream(seed ^ 0xABCD))
            if verify_product_kaminski(F, G, Hbad, cfg(seed)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30


def test_only_kaminski_nomul_reaches_the_modular_scan(monkeypatch):
    """The plain one-point checks (kaminski, kronecker, the integer check)
    answer without modeval.eval_mod, the scan of a modular check;
    kaminski-nomul's check at X^(D+1) - 1 reaches it."""

    class ReachedEvalMod(Exception):
        pass

    def eval_mod(*args, **kwargs):
        raise ReachedEvalMod

    monkeypatch.setattr(modeval, "eval_mod", eval_mod)
    rnd = Draws(0x1F1)
    F, G = (rand_dense(Z, 64, rnd) for _ in "FG")
    with pytest.raises(ReachedEvalMod):
        verify_product_kaminski_nomul(F, G, pc.mul_oracle(F, G), cfg(0))
    for ctx, hi in ((Z, 2**31 - 1), (Z, 2**2048 - 1), (pc.GF(7), 9), (GF256, 9)):
        F, G = rand_dense(ctx, 20, rnd, hi), rand_dense(ctx, 13, rnd, hi)
        H = pc.mul_oracle(F, G)
        for X, eps in ((H, QUARTER), (perturb_poly(H, rnd), STRICT)):
            assert verify_product_kaminski(F, G, X, cfg(0, eps)).verdict is (X is H)
            if ctx == Z:
                assert verify_product_kronecker(F, G, X, cfg(0, eps)).verdict is (X is H)
    a, b = rnd.getrandbits(2048) | 1, rnd.getrandbits(2048) | 1
    for c in (a * b, a * b + 1):
        assert verify_int_product(a, b, c, cfg(0, STRICT)).verdict is (c == a * b)
