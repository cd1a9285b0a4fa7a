import itertools

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck import modverify
from polycheck.modverify import (
    FieldTooSmallError,
    VerifyConfig,
    VerifyReport,
    delta_norm_bound,
    minimal_extension_degree,
    verify_mod,
    verify_mod_companion,
    verify_mod_companion_sparse,
    verify_mod_ff,
    verify_mod_over_Z,
)
from polycheck.oracle import oracle_mod_product, poly_divmod
from polycheck.rings import (
    POLY_MUL_OPS,
    ExtField,
    RngStream,
    poly_list_is_irreducible,
    random_monic,
)
from conftest import gf2_clmul, perturb_poly, rand_dense, rand_monic_sparse, rand_sparse

Z = pc.ZZ
F2 = pc.GF(2)
QUARTER = Fraction(1, 4)


def cfg(seed, eps=QUARTER, method="auto"):
    return VerifyConfig(epsilon=eps, method=method, seed=seed)


def make_instance(ctx, n, t, rng, sparse=True):
    P = rand_monic_sparse(ctx, n, 3, rng)
    if sparse:
        F = rand_sparse(ctx, n, t, rng)
        G = rand_sparse(ctx, n, t, rng)
    else:
        F = rand_dense(ctx, rng.below(n), rng)
        G = rand_dense(ctx, rng.below(n), rng)
    H = oracle_mod_product(F, G, P)
    if not sparse:
        H = H if isinstance(H, pc.DensePoly) else H.to_dense()
    return P, F, G, H


class TestVerifyMod:
    def test_one_sided_completeness(self, rng):
        K = pc.GF(2**31 - 1)
        for seed in range(40):
            P, F, G, H = make_instance(K, 30, 5, rng)
            assert verify_mod(F, G, H, P, cfg(seed)).verdict is True

    def test_sparsity_rejection_without_sampling(self, rng):
        K = pc.GF(65537)
        P = pc.SparsePoly(K, [(0, 1), (50, 1)])  # gamma = 1
        F = pc.SparsePoly(K, [(0, 1), (1, 1)])
        G = pc.SparsePoly(K, [(0, 1), (2, 1)])
        # any H with more than #F #G (#P-1) = 4 terms is impossible
        H = pc.SparsePoly(K, [(i, 1) for i in range(5)])
        report = verify_mod(F, G, H, P, cfg(1))
        assert report.verdict is False
        assert report.rounds == 0 and report.witnesses == []

    def test_small_field_raises(self, rng):
        P, F, G, H = make_instance(F2, 100, 5, rng)
        with pytest.raises(FieldTooSmallError):
            verify_mod(F, G, H, P, cfg(0))

    def test_single_term_modulus_skips_sparsity_screen(self, rng):
        # mod X^n is plain truncation; the term-count screen needs #P >= 2
        K = pc.GF(65537)
        P = pc.SparsePoly(K, [(12, 1)])
        F = rand_sparse(K, 12, 4, rng)
        G = rand_sparse(K, 12, 4, rng)
        H = oracle_mod_product(F, G, P)
        assert verify_mod(F, G, H, P, cfg(9)).verdict is True

    def test_adversarial_quarter(self, rng):
        K = pc.GF(2**31 - 1)
        n = 100
        accepted = 0
        trials = 2000
        P, F, G, H = make_instance(K, n, 6, rng)
        Hbad = perturb_poly(H, rng)
        for seed in range(trials):
            if verify_mod(F, G, Hbad, P, cfg(seed)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_routes_integers_through_prime(self, rng):
        P, F, G, H = make_instance(Z, 20, 4, rng)
        report = verify_mod(F, G, H, P, cfg(3))
        assert report.verdict is True
        assert "q" in report.witnesses[0]

    def test_extension_field_coefficients(self, rng):
        ext = pc.ExtField(F2, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # 256 elements
        P, F, G, H = make_instance(ext, 24, 4, rng)
        assert verify_mod(F, G, H, P, cfg(4)).verdict is True
        Hbad = pc.SparsePoly.from_dict(
            ext, {**dict(H.terms), 0: ext.add(H.coeff(0), ext.one())}
        )
        rejected = sum(
            0 if verify_mod(F, G, Hbad, P, cfg(s)).verdict else 1 for s in range(40)
        )
        assert rejected >= 30


class TestVerifyModOverZ:
    def test_one_sided(self, rng):
        for seed in range(30):
            P, F, G, H = make_instance(Z, 25, 5, rng)
            assert verify_mod_over_Z(F, G, H, P, cfg(seed)).verdict is True

    def test_delta_bound_fixture(self):
        F = pc.SparsePoly(Z, [(0, 2), (7, 2), (14, 1)])
        G = pc.SparsePoly(Z, [(0, 3), (8, 5), (13, 3)])
        P = pc.x_pow_minus_one(Z, 15)
        H = oracle_mod_product(F, G, P)
        assert delta_norm_bound(F, G, H, P) == H.norm() + 60

    def test_adversarial_quarter(self, rng):
        accepted = 0
        trials = 2000
        P, F, G, H = make_instance(Z, 24, 5, rng)
        Hbad = perturb_poly(H, rng)
        for seed in range(trials):
            if verify_mod_over_Z(F, G, Hbad, P, cfg(seed)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_rejects_non_integer_inputs(self, rng):
        P, F, G, H = make_instance(pc.GF(5), 10, 3, rng)
        with pytest.raises(TypeError):
            verify_mod_over_Z(F, G, H, P, cfg(0))

    def test_prime_is_drawn_at_a_quarter_of_epsilon(self, rng, monkeypatch):
        # composite share eps/4 + divisor share eps/4 + root share eps/2 = eps
        asked = []
        draw = modverify.random_prime

        def spy(lam, eps, stream):
            asked.append(eps)
            return draw(lam, eps, stream)

        monkeypatch.setattr(modverify, "random_prime", spy)
        P, F, G, H = make_instance(Z, 25, 5, rng)
        configs = [cfg(0), cfg(1, Fraction(1, 2**20)), cfg(2, Fraction(3, 7))]
        for c in configs:
            verify_mod_over_Z(F, G, H, P, c)
        assert asked == [c.epsilon / 4 for c in configs]

    def test_copies_F_G_and_P_but_not_H(self, rng, monkeypatch):
        # the scan reads the coefficients of F, G and P in GF(q); H is
        # evaluated at a point of GF(q) as it is
        copied = []
        to_field = modverify._map_to_field

        def spy(X, fq):
            copied.append(X)
            return to_field(X, fq)

        monkeypatch.setattr(modverify, "_map_to_field", spy)
        for sparse in (True, False):
            P, F, G, H = make_instance(Z, 25, 5, rng, sparse)
            for check in (verify_mod, verify_mod_over_Z):
                copied.clear()
                assert check(F, G, H, P, cfg(0)).verdict is True
                assert len(copied) == 3
                assert all(got is want for got, want in zip(copied, (F, G, P)))

    def test_coefficients_with_no_size_are_a_type_error(self):
        # Z[X]/(X^2 + 1) has no size to weigh epsilon against
        K = ExtField(Z, [1, 0, 1])
        F = pc.SparsePoly(K, [(0, K.one()), (3, K.x)])
        P = pc.x_pow_minus_one(K, 8)
        H = pc.mod_reduce(pc.mul_oracle(F, F), P)
        with pytest.raises(TypeError, match=r"Z, GF\(q\) or GF\(q\)\[X\]/\(R\)"):
            verify_mod(F, F, H, P, cfg(0))


class TestVerifyModFF:
    def test_extension_degree_fixture(self):
        # q = 2, n = 100, epsilon = 1/4 needs 2^d >= 8 * 99
        assert minimal_extension_degree(2, Fraction(2, QUARTER) * 99) == 10

    def test_one_sided_small_field(self, rng):
        for seed in range(30):
            P, F, G, H = make_instance(F2, 100, 6, rng)
            report = verify_mod_ff(F, G, H, P, cfg(seed))
            assert report.verdict is True
            assert report.witnesses[0]["extension_degree"] == 10

    def test_large_field_dispatches_direct(self, rng):
        K = pc.GF(65537)
        P, F, G, H = make_instance(K, 30, 4, rng)
        report = verify_mod_ff(F, G, H, P, cfg(2))
        assert report.verdict is True and report.method == "direct-eval"

    def test_forced_extension(self, rng):
        K = pc.GF(65537)
        P, F, G, H = make_instance(K, 10, 3, rng)
        report = verify_mod_ff(F, G, H, P, cfg(2, method="extension"))
        assert report.verdict is True and report.method == "extension"

    def test_adversarial_quarter_gf2(self, rng):
        accepted = 0
        trials = 2000
        P, F, G, H = make_instance(F2, 64, 6, rng)
        Hbad = perturb_poly(H, rng)
        for seed in range(trials):
            if verify_mod_ff(F, G, Hbad, P, cfg(seed)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_companion_method_dispatch(self, rng):
        P, F, G, H = make_instance(F2, 40, 4, rng, sparse=False)
        r = verify_mod_ff(F, G, H, P, cfg(1, method="companion-freivalds"))
        assert r.method == "companion-freivalds" and r.verdict is True
        Ps, Fs, Gs, Hs = (X.to_sparse() if isinstance(X, pc.DensePoly) else X for X in (P, F, G, H))
        r2 = verify_mod_ff(Fs, Gs, Hs, Ps, cfg(1, method="companion-no-polymul"))
        assert r2.method == "companion-sparse"
        # the screened draw keeps its method and is one draw on the sparse scans
        for seed in range(3):
            for eps in (QUARTER, Fraction(1, 2**20)):
                r3 = verify_mod_ff(Fs, Gs, Hs, Ps, cfg(seed, eps, "companion-freivalds"))
                assert r3.method == "companion-freivalds" and r3.verdict is True
                assert r3.rounds == 1


class TestVerifyModCompanion:
    def test_one_sided_both_modes(self, rng):
        for seed in range(10):
            P, F, G, H = make_instance(F2, 64, 5, rng, sparse=False)
            for method in ("companion-freivalds", "companion-no-polymul"):
                r = verify_mod_companion(F, G, H, P, cfg(seed, method=method))
                assert r.verdict is True

    def test_witnesses_replay_moduli(self, rng):
        # the recorded moduli are monic of degree D (one screened irreducible
        # draw) or d (unscreened draws), and comparing H mod R with the true
        # product mod R on them reproduces the verdict
        P, F, G, H = make_instance(F2, 32, 4, rng, sparse=False)
        D = minimal_extension_degree(2, 2 * 31 / QUARTER)
        d = minimal_extension_degree(2, 16 * 32)
        runs = (
            (verify_mod_companion, "companion-freivalds", D),
            (verify_mod_ff, "extension", D),
            (verify_mod_companion, "companion-no-polymul", d),
        )
        for verify, method, degree in runs:
            for Hx in (H, perturb_poly(H, rng)):
                r = verify(F, G, Hx, P, cfg(5, method=method))
                agree = []
                for entry in r.witnesses:
                    R = pc.DensePoly(F2, entry["modulus"])
                    assert R.degree() == degree and R.coeffs[-1] == 1
                    agree.append(poly_divmod(Hx, R)[1] == poly_divmod(H, R)[1])
                assert r.verdict == all(agree)
                if degree == D:
                    assert r.rounds == 1 and r.witnesses[0]["extension_degree"] == D
                    assert poly_list_is_irreducible(r.witnesses[0]["modulus"], 2)
                else:
                    assert r.witnesses[-1].get("mismatch", False) is not r.verdict

    def test_no_polymul_structural(self, rng):
        P, F, G, H = make_instance(F2, 48, 5, rng, sparse=False)
        Hbad = perturb_poly(H, rng)
        before = POLY_MUL_OPS.count
        verify_mod_companion(F, G, H, P, cfg(0, method="companion-no-polymul"))
        verify_mod_companion(F, G, Hbad, P, cfg(0, method="companion-no-polymul"))
        # a sparse-encoded H alone does not switch to the counted sparse scans
        verify_mod_companion(F, G, Hbad.to_sparse(), P, cfg(0, method="companion-no-polymul"))
        assert POLY_MUL_OPS.count == before

    def test_freivalds_mode_may_multiply(self, rng):
        # irreducibility screening is allowed to use naive products
        P, F, G, H = make_instance(F2, 48, 5, rng, sparse=False)
        before = POLY_MUL_OPS.count
        verify_mod_companion(F, G, H, P, cfg(0, method="companion-freivalds"))
        assert POLY_MUL_OPS.count >= before

    def test_adversarial_quarter(self, rng):
        accepted = 0
        trials = 2000
        P, F, G, H = make_instance(F2, 64, 6, rng, sparse=False)
        Hbad = perturb_poly(H, rng)
        for seed in range(trials):
            r = verify_mod_companion(F, G, Hbad, P, cfg(seed))
            if r.verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_rounds_match_epsilon(self, rng):
        # one screened draw at any epsilon; the degree of R carries epsilon
        P, F, G, H = make_instance(F2, 16, 3, rng, sparse=False)
        r = verify_mod_companion(F, G, H, P, cfg(1, eps=Fraction(1, 4)))
        assert r.rounds == 1
        r = verify_mod_companion(F, G, H, P, cfg(1, eps=Fraction(1, 2**20)))
        assert r.rounds == 1

    @pytest.mark.parametrize("q, n_max", [(2, 8), (3, 5)])
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2)])
    def test_irreducible_divides_few_differences(self, q, n_max, eps):
        # the bound behind the screened draw, exhaustively: for every nonzero
        # Δ of degree < n, at most a 3ε/4 share of the monic irreducible R of
        # degree D divides Δ, D being the least with q^D >= max(36, 2(n-1)/ε)
        K = pc.GF(q)
        for n in range(1, n_max + 1):
            D = minimal_extension_degree(q, max(36, 2 * max(n - 1, 1) / eps))
            P = pc.SparsePoly(K, [(n, 1)])
            Zd = pc.DensePoly.zero(K)
            r = verify_mod_ff(Zd, Zd, Zd, P, cfg(0, eps, "extension"))
            assert r.witnesses[0]["extension_degree"] == D
            irreducibles = [
                pc.DensePoly(K, list(tail) + [1])
                for tail in itertools.product(range(q), repeat=D)
                if poly_list_is_irreducible(list(tail) + [1], q)
            ]
            for cs in itertools.product(range(q), repeat=n):
                if any(cs):
                    delta = pc.DensePoly(K, list(cs))
                    divisors = sum(poly_divmod(delta, R)[1].is_zero() for R in irreducibles)
                    assert divisors <= Fraction(3, 4) * eps * len(irreducibles)


def _batch_oracle_check(F, G, H, P, c):
    """The report of the one-draw-at-a-time loop: the witnesses are the
    first len(witnesses) random_monic draws of RngStream(seed), _agree_at
    holds at each but the one marked "mismatch", which is the last, and
    rounds is the draw count.  Returns the mismatching draw or None."""
    r = verify_mod_companion(F, G, H, P, c)
    n = P.degree()
    d = modverify._companion_degree(2, n)
    assert r.rounds == modverify._companion_draws(2, d, c.epsilon)
    assert r.method == "companion-no-polymul"
    stream = RngStream(c.seed)
    bad = None
    for j, entry in enumerate(r.witnesses):
        R = random_monic(F2, d, stream)
        assert entry["modulus"] == R
        ring = ExtField(F2, R)
        agrees = modverify._agree_at(F, G, H, P, ring.x, ring)
        assert entry.get("mismatch", False) is (not agrees)
        if not agrees:
            bad = j
    if bad is None:
        assert r.verdict is True and len(r.witnesses) == r.rounds
    else:
        assert r.verdict is False and bad == len(r.witnesses) - 1
    return bad


class TestBatchedDrawsReport:
    """companion-no-polymul over GF(2) on dense input checks the draws after
    the first in one lane-packed scan; its reports are those of the
    per-draw loop."""

    @pytest.mark.parametrize("eps", [Fraction(1, 2), QUARTER, Fraction(1, 2**20)])
    def test_true_and_flipped(self, rng, eps):
        for seed in range(6):
            P, F, G, H = make_instance(F2, 40 + 37 * seed, 4, rng, sparse=False)
            c = cfg(seed, eps, "companion-no-polymul")
            assert _batch_oracle_check(F, G, H, P, c) is None
            cs = list(H.coeffs) + [0] * (P.degree() - len(H.coeffs))
            cs[rng.below(len(cs))] ^= 1
            _batch_oracle_check(F, G, pc.DensePoly(F2, cs), P, c)

    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2**20)])
    def test_delta_divisible_by_drawn_moduli(self, rng, eps):
        # Δ = R_0 ... R_(k-1) S: the first k draws agree and the mismatch,
        # if any, lands inside the batch
        deep = 0
        for seed in range(12):
            P, F, G, H = make_instance(F2, 300, 4, rng, sparse=False)
            n = P.degree()
            d = modverify._companion_degree(2, n)
            stream = RngStream(seed)
            moduli = [random_monic(F2, d, stream) for _ in range(1 + seed)]
            delta = 1 + rng.below(7)
            for R in moduli:
                delta = gf2_clmul(delta, sum(b << i for i, b in enumerate(R)))
            assert delta.bit_length() <= n
            h = sum(b << i for i, b in enumerate(H.coeffs)) ^ delta
            Hx = pc.DensePoly(F2, [(h >> i) & 1 for i in range(h.bit_length())])
            bad = _batch_oracle_check(F, G, Hx, P, cfg(seed, eps, "companion-no-polymul"))
            assert bad is None or bad >= len(moduli)
            deep += bad is not None and bad > 1
        assert deep >= 6


class TestVerifyModCompanionSparse:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2**20)])
    def test_draws_reach_epsilon(self, q, eps):
        # the least m with (1 - 7(1 - 2q^(-d/2))/(8d))^m <= eps; the draws
        # follow d alone, and these n reach every d of n = 2 .. 2^30
        ns = sorted({2, 2**30} | {-(-q**d // 16) for d in range(1, 40)} - {0, 1})
        seen = set()
        for n in (n for n in ns if 2 <= n <= 2**30):
            d = modverify._companion_degree(q, n)
            seen.add(d)
            draws = modverify._companion_draws(q, d, eps)
            bound = 1 - 7 * (1 - 2 * q ** (-d / 2)) / (8 * d)
            assert bound**draws <= eps
            assert bound ** (draws - 1) > eps
            if n <= 64:
                P = pc.SparsePoly(pc.GF(q), [(n, 1)])
                Zp = pc.SparsePoly.zero(pc.GF(q))
                assert verify_mod_companion_sparse(Zp, Zp, Zp, P, cfg(0, eps)).rounds == draws
                Zd = pc.DensePoly.zero(pc.GF(q))
                r = verify_mod_companion(Zd, Zd, Zd, P, cfg(0, eps, "companion-no-polymul"))
                assert r.method == "companion-no-polymul" and r.rounds == draws
        assert seen == set(range(min(seen), modverify._companion_degree(q, 2**30) + 1))

    def test_one_sided(self, rng):
        for seed in range(6):
            P, F, G, H = make_instance(F2, 1024, 4, rng)
            r = verify_mod_companion_sparse(F, G, H, P, cfg(seed))
            assert r.verdict is True

    def test_zero_product(self, rng):
        P = rand_monic_sparse(F2, 64, 3, rng)
        Zp = pc.SparsePoly.zero(F2)
        r = verify_mod_companion_sparse(Zp, Zp, Zp, P, cfg(0))
        assert r.verdict is True

    def test_adversarial_large_degree(self, rng):
        # n = 2^20, 16-term inputs, 500 seeds
        n = 2**20
        P = pc.x_pow_minus_one(F2, n)
        F = rand_sparse(F2, n, 16, rng)
        G = rand_sparse(F2, n, 16, rng)
        H = oracle_mod_product(F, G, P)
        Hbad = pc.SparsePoly.from_dict(
            F2, {**dict(H.terms), n - 1: (H.coeff(n - 1) + 1) % 2}
        )
        accepted = 0
        trials = 500
        for seed in range(trials):
            if verify_mod_companion_sparse(F, G, Hbad, P, cfg(seed)).verdict:
                accepted += 1
        assert accepted / trials <= 0.30

    def test_constant_modulus_rejected(self):
        # at deg P = 0 the bound per unscreened draw exceeds 1, so no number
        # of draws reaches eps: the modulus is rejected before any draw
        for q in (2, 3):
            K = pc.GF(q)
            P = pc.SparsePoly(K, [(0, 1)])
            Zp = pc.SparsePoly.zero(K)
            with pytest.raises(ValueError, match="modulus must have degree >= 1"):
                verify_mod_companion_sparse(Zp, Zp, Zp, P, cfg(0))
            with pytest.raises(ValueError, match="modulus must have degree >= 1"):
                verify_mod_ff(Zp, Zp, Zp, P, cfg(0, method="companion-no-polymul"))

    def test_witnesses_record_moduli(self, rng):
        P, F, G, H = make_instance(F2, 128, 3, rng)
        r = verify_mod_companion_sparse(F, G, H, P, cfg(2))
        assert all("modulus" in w for w in r.witnesses)

    def test_counts_its_products(self, rng):
        # the products that fill the power table at X are counted; the dense
        # scans at X step by mul_x and count nothing on the same ring
        P, F, G, H = make_instance(F2, 256, 4, rng)
        before = POLY_MUL_OPS.count
        verify_mod_companion_sparse(F, G, H, P, cfg(0))
        assert POLY_MUL_OPS.count > before
        Fd, Gd, Hd = (X.to_dense() for X in (F, G, H))
        before = POLY_MUL_OPS.count
        verify_mod_companion(Fd, Gd, Hd, P, cfg(0, method="companion-no-polymul"))
        assert POLY_MUL_OPS.count == before


@st.composite
def true_small_field_instances(draw):
    q = draw(st.sampled_from((2, 3, 65537)))
    K = pc.GF(q)
    n = draw(st.integers(1, 24))
    coeffs = st.integers(0, q - 1)
    if draw(st.booleans()):
        P = pc.x_pow_minus_one(K, n)
    else:
        P = pc.DensePoly(K, draw(st.lists(coeffs, min_size=n, max_size=n)) + [1]).to_sparse()
    F, G = (pc.DensePoly(K, draw(st.lists(coeffs, max_size=n))) for _ in "FG")
    H = oracle_mod_product(F, G, P)
    return P, F, G, H, draw(st.integers(0, 2**32))


class TestCompanionProperties:
    @given(true_small_field_instances())
    def test_accept_true_and_replay(self, inst):
        P, F, G, H, seed = inst
        sparse = tuple(X.to_sparse() for X in (F, G, H))
        for method in ("companion-freivalds", "companion-no-polymul"):
            c = cfg(seed, method=method)
            r = verify_mod_companion(F, G, H, P, c)
            assert r.verdict is True
            assert r == verify_mod_companion(F, G, H, P, c)
            r = verify_mod_companion_sparse(*sparse, P, c)
            assert r.verdict is True
            assert r == verify_mod_companion_sparse(*sparse, P, c)
        for method in ("auto", "extension"):
            c = cfg(seed, method=method)
            for FGH in ((F, G, H), sparse):
                r = verify_mod_ff(*FGH, P, c)
                assert r.verdict is True
                assert r == verify_mod_ff(*FGH, P, c)


@st.composite
def true_integer_instances(draw):
    """(P, F, G, H, seed) over Z with H = (F*G) mod P; dense or sparse."""
    n = draw(st.integers(1, 24))
    coeffs = st.integers(-(2**40), 2**40)
    low = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9), max_size=3))
    P = pc.SparsePoly.from_dict(Z, {**low, n: 1})
    F, G = (pc.DensePoly(Z, draw(st.lists(coeffs, max_size=n))) for _ in "FG")
    H = oracle_mod_product(F, G, P)
    if draw(st.booleans()):
        F, G, H = (X.to_sparse() for X in (F, G, H))
    return P, F, G, H, draw(st.integers(0, 2**32))


class TestOverZProperties:
    @given(true_integer_instances())
    def test_accept_true_and_replay(self, inst):
        P, F, G, H, seed = inst
        c = cfg(seed)
        r = verify_mod_over_Z(F, G, H, P, c)
        assert r.verdict is True
        assert r == verify_mod_over_Z(F, G, H, P, c)
        wrong = perturb_poly(H, RngStream(seed))
        if wrong.is_zero() or wrong.degree() < P.degree():
            assert verify_mod_over_Z(F, G, wrong, P, c) == verify_mod_over_Z(F, G, wrong, P, c)


class TestReports:
    def test_reproducible(self, rng):
        P, F, G, H = make_instance(Z, 16, 4, rng)
        a = verify_mod_over_Z(F, G, H, P, cfg(77))
        b = verify_mod_over_Z(F, G, H, P, cfg(77))
        assert a == b

    def test_distinct_seeds_distinct_draws(self, rng):
        K = pc.GF(2**31 - 1)
        P, F, G, H = make_instance(K, 30, 4, rng)
        a = verify_mod(F, G, H, P, cfg(1))
        b = verify_mod(F, G, H, P, cfg(2))
        assert a.witnesses != b.witnesses

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(epsilon=Fraction(3, 2))
        with pytest.raises(ValueError):
            VerifyConfig(method="nonsense")

    def test_to_dict_schema(self, rng):
        P, F, G, H = make_instance(Z, 12, 3, rng)
        d = verify_mod_over_Z(F, G, H, P, cfg(0)).to_dict()
        assert d["schema"] == 1
        assert set(d) >= {"verdict", "error_bound", "rounds", "witnesses", "method", "seed"}


class TestCertainRejections:
    """The sparsity precheck rejects with certainty, so its reports state
    error bound 0 whatever epsilon was asked for."""

    def instance(self, ctx):
        P = pc.SparsePoly(ctx, [(0, 1), (50, 1)])  # #F #G (#P - 1) = 4 terms at most
        F = pc.SparsePoly(ctx, [(0, 1), (1, 1)])
        G = pc.SparsePoly(ctx, [(0, 1), (2, 1)])
        return F, G, pc.SparsePoly(ctx, [(i, 1) for i in range(5)]), P

    @pytest.mark.parametrize(
        "verifier, ctx, method",
        [
            (verify_mod, pc.GF(65537), "auto"),
            (verify_mod_over_Z, Z, "auto"),
            (verify_mod_ff, F2, "auto"),
            (verify_mod_ff, pc.GF(65537), "extension"),
            (verify_mod_companion, F2, "companion-freivalds"),
        ],
    )
    def test_precheck_reports_zero_error(self, verifier, ctx, method):
        r = verifier(*self.instance(ctx), cfg(3, Fraction(1, 2**20), method))
        assert (r.verdict, r.error_bound, r.rounds, r.witnesses) == (False, 0.0, 0, [])

    def test_precheck_bound_is_not_built_past_h(self):
        # ceil(1/gamma) = 2^50: the bound 4 * 2^(2^50) is never formed
        n = 2**50
        P = pc.SparsePoly(F2, [(0, 1), (n - 1, 1), (n, 1)])
        F = pc.SparsePoly(F2, [(0, 1), (1, 1)])
        H = pc.SparsePoly(F2, [(i, 1) for i in range(40)])
        assert not modverify.sparsity_precheck(F, F, H, P)
        assert modverify.reduced_product_terms(F, F, P, 40) == 64
