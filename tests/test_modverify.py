import itertools
import math

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck import modeval, modverify
from polycheck.modverify import (
    FieldTooSmallError,
    VerifyConfig,
    VerifyReport,
    _agree_at,
    delta_norm_bound,
    minimal_extension_degree,
    verify_mod,
    verify_mod_companion,
    verify_mod_companion_sparse,
    verify_mod_ff,
    verify_mod_over_Z,
)
from polycheck.oracle import oracle_mod_product, poly_divmod
from polycheck.poly import DENSIFY_CAP, evaluate
from polycheck.prodverify import KaminskiParams, _rounds_for, verify_product_kaminski
from polycheck.rings import (
    POLY_MUL_OPS,
    ExtField,
    RngStream,
    poly_list_is_irreducible,
    random_monic,
)
from conftest import (
    agrees_at_witness,
    assert_witness_certifies,
    gf2_clmul,
    perturb_poly,
    rand_dense,
    rand_monic_sparse,
    rand_sparse,
    rebuilt,
    witness_point,
)

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

    def test_term_count_screen_comes_before_the_field_size(self):
        # GF(2) is too small for direct-eval at degree 50, but an H with
        # more terms than #F #G (#P - 1) is a certain rejection first
        P = pc.SparsePoly(F2, [(0, 1), (50, 1)])
        F = pc.SparsePoly(F2, [(0, 1), (1, 1)])
        G = pc.SparsePoly(F2, [(0, 1), (2, 1)])
        H = pc.SparsePoly(F2, [(i, 1) for i in range(5)])
        for verify in (verify_mod, verify_mod_ff):
            report = verify(F, G, H, P, cfg(1, method="direct-eval"))
            assert (report.verdict, report.rounds, report.witnesses) == (False, 0, [])
            assert report.method == "direct-eval"

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


WIDE = 2**2048
MOD_PRIMES = (2, 3, 65537, 2**61 - 1)


def _z_coeffs(p):
    """Integer coefficients for a check at a point of GF(p): small and
    2048-bit ones of either sign, and multiples of p, which are 0 there."""
    return st.one_of(
        st.integers(-3, 3),
        st.integers(-WIDE, WIDE),
        st.sampled_from((-WIDE, WIDE - 1)),
        st.integers(-(2**64), 2**64).map(lambda k: k * p),
    )


@st.composite
def integer_mod_instances(draw):
    """(P, F, G, H, p, alpha) over Z for a check at a point alpha of GF(p):
    P monic of degree n in 2..40 whose second degree k is at least n/2, so
    the leading-coefficient updates run, with a coefficient at X^k that is
    often 0 mod p, where P mod p has a lower second degree; F, G and H all
    dense or all sparse, of degree < n.  H is the true (F*G) mod P in
    GF(p), each coefficient lifted to Z by a multiple of p, or arbitrary."""
    p = draw(st.sampled_from(MOD_PRIMES))
    alpha = draw(st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1)))
    coeff = _z_coeffs(p)
    n = draw(st.integers(2, 40))
    k = draw(st.integers((n + 1) // 2, n - 1))
    middle = draw(st.one_of(st.sampled_from((p, -p * WIDE)), coeff.filter(bool)))
    low = draw(st.dictionaries(st.integers(0, k - 1), coeff, max_size=3))
    P = pc.SparsePoly.from_dict(Z, {**low, k: middle, n: 1})
    dense = draw(st.booleans())

    def poly():
        if dense:
            return pc.DensePoly(Z, draw(st.lists(coeff, max_size=n)))
        exps = draw(st.sets(st.integers(0, n - 1), max_size=6))
        if draw(st.booleans()):
            exps.add(n - 1)  # the product wraps
        return pc.SparsePoly.from_dict(Z, {e: draw(coeff) for e in exps})

    F, G = poly(), poly()
    if draw(st.booleans()):
        ring = pc.PrimeField(p)
        true = oracle_mod_product(*(rebuilt(X, ring) for X in (F, G, P))).to_sparse()
        lift = st.integers(-WIDE, WIDE).map(lambda j: j * p)
        H = pc.SparsePoly(Z, [(e, c + draw(lift)) for e, c in true.terms])
        H = H.to_dense() if dense else H
    else:
        H = poly()
    return P, F, G, H, p, alpha


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

    @given(integer_mod_instances())
    def test_agree_at_a_point_of_GFp_matches_the_reduced_copies(self, inst):
        # the scans read F, G and P over Z as they are and compute the
        # leading coefficients in GF(p): the same values as on the copies
        # reduced into GF(p), whose P may have a lower second degree
        P, F, G, H, p, alpha = inst
        ring = pc.PrimeField(p)
        Fp, Gp, Hp, Pp = (rebuilt(X, ring) for X in (F, G, H, P))
        assert [v % p for v in modeval.leading_coefficients(P, F, ring)] == (
            modeval.leading_coefficients(Pp, Fp)
        )
        assert modeval.sparse_leading_coefficients(P, F.to_sparse(), ring) == (
            modeval.sparse_leading_coefficients(Pp, Fp.to_sparse())
        )
        want = evaluate(oracle_mod_product(Fp, Gp, Pp), alpha, ring)
        assert modeval.eval_mod(P, F, G, alpha, ring) == want
        assert _agree_at(F, G, H, P, alpha, ring) == (evaluate(Hp, alpha, ring) == want)

    def test_scans_read_the_callers_F_G_and_P(self, rng, monkeypatch):
        # nothing is copied into GF(q): the scan gets the caller's own
        # integer polynomials and reduces them as it reads them
        seen = []
        eval_mod = modeval.eval_mod

        def spy(P, F, G, alpha, ring, pw=None):
            seen.append((P, F, G, ring))
            return eval_mod(P, F, G, alpha, ring, pw)

        monkeypatch.setattr(modeval, "eval_mod", spy)
        for sparse in (True, False):
            P, F, G, H = make_instance(Z, 25, 5, rng, sparse)
            for check in (verify_mod, verify_mod_over_Z):
                seen.clear()
                assert check(F, G, H, P, cfg(0)).verdict is True
                [(got_P, got_F, got_G, ring)] = seen
                assert got_P is P and got_F is F and got_G is G
                assert isinstance(ring, pc.PrimeField)

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


    def test_sparse_gf2_companion_check_counts_what_it_counted(self):
        # one all-sparse GF(2) check at degree 2^20, its power table bit-sliced:
        # every product counts once and none by x, the counts of the packed
        # table (Ben-Or's squarings included)
        n = 2**20
        rng = RngStream(2029)
        F, G = rand_sparse(F2, n, 8, rng), rand_sparse(F2, n, 8, rng)
        P = pc.SparsePoly(F2, [(0, 1), (17, 1), (n, 1)])
        H = oracle_mod_product(F, G, P)
        for eps, d, count in ((QUARTER, 23, 523), (Fraction(1, 2**20), 41, 574)):
            before = POLY_MUL_OPS.count
            report = verify_mod_ff(F, G, H, P, cfg(7, eps, "companion-freivalds"))
            assert POLY_MUL_OPS.count - before == count
            assert report.verdict is True
            assert report.witnesses[0]["extension_degree"] == d


GF256 = ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])  # X^8 + X^4 + X^3 + X + 1


class TestOneFrontEnd:
    """verify_mod_ff is the modular front end of every ring the point
    policy serves, and one rule in point_kind refuses a method a ring
    cannot run: every method but auto and direct-eval needs GF(q)."""

    @pytest.mark.parametrize("method", ["extension", "companion-freivalds"])
    def test_point_kind_refuses_over_Z(self, method):
        with pytest.raises(TypeError, match=rf"^method '{method}' needs GF\(q\) inputs$"):
            modverify.point_kind(Z, 10, QUARTER, method)

    @pytest.mark.parametrize("method", ["auto", "direct-eval"])
    def test_integers_give_the_report_of_verify_mod_over_Z(self, method, rng):
        for sparse in (True, False):
            P, F, G, H = make_instance(Z, 30, 4, rng, sparse)
            for X in (H, perturb_poly(H, rng)):
                for seed in range(3):
                    c = cfg(seed, method=method)
                    assert verify_mod_ff(F, G, X, P, c) == verify_mod_over_Z(F, G, X, P, c)

    @pytest.mark.parametrize("method", ["auto", "direct-eval"])
    @pytest.mark.parametrize("eps", [QUARTER, Fraction(1, 2**20)], ids=["1/4", "2^-20"])
    def test_gf256_gives_the_report_of_verify_mod(self, method, eps, rng):
        # at 1/4 degree 24 fits GF(2^8) and degree 200 does not; at 2^-20 neither
        for n in (24, 200):
            P, F, G, H = make_instance(GF256, n, 4, rng)
            for X in (H, perturb_poly(H, rng)):
                c = cfg(3, eps, method)
                try:
                    want = verify_mod(F, G, X, P, c)
                except FieldTooSmallError as exc:
                    with pytest.raises(FieldTooSmallError) as raised:
                        verify_mod_ff(F, G, X, P, c)
                    assert str(raised.value) == str(exc)
                else:
                    assert verify_mod_ff(F, G, X, P, c) == want

    @pytest.mark.parametrize("method", ["extension", "companion-freivalds", "companion-no-polymul"])
    @pytest.mark.parametrize("ctx", [Z, GF256], ids=["Z", "GF256"])
    def test_gf_q_methods_are_refused_elsewhere(self, method, ctx, rng):
        P, F, G, H = make_instance(ctx, 20, 3, rng)
        message = rf"^method '{method}' needs GF\(q\) inputs$"
        with pytest.raises(TypeError, match=message):
            verify_mod_ff(F, G, H, P, cfg(0, method=method))
        if method != "extension":
            with pytest.raises(TypeError, match=message):
                verify_mod_companion(F, G, H, P, cfg(0, method=method))

    def test_companion_asks_the_method_rule_first(self, rng):
        # a name outside METHODS is refused as verify_mod_ff refuses it,
        # and every name of METHODS gives the report it gave before
        P, F, G, H = make_instance(pc.GF(7), 20, 3, rng)
        for method in ("kaminski", "kaminski-nomul", "kronecker", "sparse"):
            with pytest.raises(ValueError, match=f"^unknown method '{method}'$"):
                verify_mod_companion(F, G, H, P, cfg(0, method=method))
        for X in (H, perturb_poly(H, rng)):
            want = verify_mod_ff(F, G, X, P, cfg(4, method="companion-freivalds"))
            assert want.method == "companion-freivalds"
            for method in ("auto", "direct-eval", "extension", "companion-freivalds"):
                assert verify_mod_companion(F, G, X, P, cfg(4, method=method)) == want
            got = verify_mod_companion(F, G, X, P, cfg(4, method="companion-no-polymul"))
            assert got.method == "companion-sparse" and got.verdict is (X == H)


class TestVerifyModCompanion:
    def test_one_sided_both_modes(self, rng):
        for seed in range(10):
            P, F, G, H = make_instance(F2, 64, 5, rng, sparse=False)
            for method in ("companion-freivalds", "companion-no-polymul"):
                r = verify_mod_companion(F, G, H, P, cfg(seed, method=method))
                assert r.verdict is True

    def test_witnesses_replay_moduli(self, rng):
        # the recorded moduli are monic of degree D (one screened irreducible
        # draw) or d (unscreened draws), and comparing H with the true
        # product at X modulo each of them reproduces the verdict
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
                    agree.append(agrees_at_witness(F, G, Hx, P, entry))
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


class TestPastTheDensifyCap:
    """From deg P = DENSIFY_CAP on no dense scan runs: input that is not all
    sparse is checked as its to_sparse() copies are, with the same report,
    method included, so a true identity is accepted."""

    def instance(self, ctx):
        P = pc.SparsePoly(ctx, [(0, 1), (DENSIFY_CAP, 1)])
        F = pc.DensePoly(ctx, [1, 2, 3])
        G = pc.SparsePoly(ctx, [(0, 1), (5, 1)])
        H = oracle_mod_product(F.to_sparse(), G, P)
        return F, G, H, P

    @pytest.mark.parametrize(
        "verifier, ctx, method",
        [
            (verify_mod_over_Z, Z, "auto"),
            (verify_mod, pc.GF(2**61 - 1), "direct-eval"),
            (verify_mod_ff, pc.GF(65537), "auto"),
            (verify_mod_ff, pc.GF(65537), "extension"),
            (verify_mod_companion, pc.GF(65537), "companion-freivalds"),
            (verify_mod_companion, pc.GF(65537), "companion-no-polymul"),
            (verify_mod_companion, F2, "companion-no-polymul"),
        ],
    )
    def test_as_the_all_sparse_triple(self, verifier, ctx, method, rng):
        F, G, true, P = self.instance(ctx)
        for H in (true, perturb_poly(true, rng)):
            want = verifier(F.to_sparse(), G, H, P, cfg(4, Fraction(1, 2**20), method))
            assert want.verdict is (H == true)
            for forms in ((F, G, H), (F, G.to_dense(), H), (F, G, H.to_dense())):
                got = verifier(*forms, P, cfg(4, Fraction(1, 2**20), method))
                assert got.to_dict() == want.to_dict()


class TestWitnessIsACertificate:
    """Every one-point report's witness rebuilds its point without the
    seed, and the comparison there is the verdict (assert_witness_certifies),
    on true and perturbed H."""

    @given(
        st.sampled_from([Z, F2, pc.GF(7), pc.GF(65537)]),
        st.integers(2, 40),
        st.integers(0, 2**32),
        st.sampled_from([QUARTER, Fraction(1, 2**20)]),
        st.booleans(),
    )
    def test_one_point_reports(self, ctx, n, seed, eps, wrong):
        rng = RngStream(seed)
        P = rand_monic_sparse(ctx, n, 3, rng)
        F, G = rand_dense(ctx, rng.below(n), rng), rand_dense(ctx, rng.below(n), rng)
        H = oracle_mod_product(F, G, P).to_dense()
        if wrong:
            H = perturb_poly(H, rng)
        try:
            assert_witness_certifies(verify_mod(F, G, H, P, cfg(seed, eps)), F, G, H, P)
        except FieldTooSmallError:
            assert ctx.size() * eps < n - 1
        if ctx != Z:
            runs = ((verify_mod_ff, "auto"), (verify_mod_ff, "extension"),
                    (verify_mod_companion, "companion-freivalds"))
            for verify, method in runs:
                r = verify(F, G, H, P, cfg(seed, eps, method))
                assert_witness_certifies(r, F, G, H, P)
        Hp = pc.mul_oracle(F, G)
        if wrong:
            Hp = perturb_poly(Hp, rng)
        r = verify_product_kaminski(F, G, Hp, cfg(seed, eps))
        if r.rounds:
            assert_witness_certifies(r, F, G, Hp)
        else:
            assert r.witnesses == [{"deterministic": "shape"}]

    @given(
        st.sampled_from([Z, F2, pc.GF(7), pc.GF(65537)]),
        st.integers(2, 40),
        st.integers(0, 2**32),
        st.sampled_from([QUARTER, Fraction(1, 2**20)]),
        st.booleans(),
    )
    def test_witness_names_the_drawn_point(self, ctx, n, seed, eps, wrong):
        # every (ring, point, witness) draw_point returns rebuilds from the
        # witness alone, and the report carries that witness
        rng = RngStream(seed)
        P = rand_monic_sparse(ctx, n, 3, rng)
        F, G = rand_dense(ctx, rng.below(n), rng), rand_dense(ctx, rng.below(n), rng)
        H = oracle_mod_product(F, G, P).to_dense()
        Hp = pc.mul_oracle(F, G)
        if wrong:
            H, Hp = perturb_poly(H, rng), perturb_poly(Hp, rng)
        runs = [(verify_mod, (F, G, H, P), "auto"), (verify_product_kaminski, (F, G, Hp), "auto")]
        if ctx != Z:
            runs += [(verify_mod_ff, (F, G, H, P), "auto"),
                     (verify_mod_ff, (F, G, H, P), "extension"),
                     (verify_mod_companion, (F, G, H, P), "companion-freivalds")]
        drawn = []
        draw_point = modverify.draw_point

        def recorded(*args):
            drawn.append(draw_point(*args))
            return drawn[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modverify, "draw_point", recorded)
            for verify, args, method in runs:
                try:
                    r = verify(*args, cfg(seed, eps, method))
                except FieldTooSmallError:
                    assert verify is verify_mod and not drawn
                    continue
                if r.rounds == 0:
                    assert r.witnesses == [{"deterministic": "shape"}] and not drawn
                    continue
                (ring, point, witness), = drawn
                drawn.clear()
                assert witness_point(ctx, witness) == (ring, point)
                entry = {k: v for part in r.witnesses for k, v in part.items()}
                if "q" in entry:  # verify_mod's two entries over Z
                    entry["p"] = entry.pop("q")
                assert entry == witness


def _old_minimal_extension_degree(q, bound):
    """The search loop minimal_extension_degree replaced."""
    bound = Fraction(bound)
    d, power = 1, Fraction(q)
    while power < bound:
        power *= q
        d += 1
    return d


def _old_companion_draws(q, d, eps):
    """The float estimate and loop _companion_draws replaced."""
    root_lo = Fraction(math.isqrt(q**d << 128), 1 << 64)
    rho = 1 - Fraction(7, 8 * d) * (1 - 2 / root_lo)
    log_eps = math.log(eps.numerator) - math.log(eps.denominator)
    m = max(1, math.ceil(log_eps / math.log(rho)) - 1)
    while rho**m > eps:
        m += 1
    return m


def _old_rounds_for(eps, per_round):
    """The loop prodverify._rounds_for replaced."""
    r, acc = 0, Fraction(1)
    while acc > eps:
        acc *= per_round
        r += 1
        if r > 4096:
            raise ValueError("per-round bound too weak to amplify")
    return max(r, 1)


EPS_GRID = [Fraction(1, 2), Fraction(1, 3), QUARTER, Fraction(2, 7), Fraction(1, 2**20),
            Fraction(3, 10**9), Fraction(1, 2**100) + Fraction(1, 2**300)]


class TestOneLeastExponentSearch:
    """minimal_extension_degree is the one search for the least k with
    b^k >= B, which _companion_draws and prodverify._rounds_for call: the
    same answers as the three loops it replaced."""

    @pytest.mark.parametrize("q", [2, 3, 7, 65537, 2**61 - 1, Fraction(3, 2),
                                   Fraction(1001, 1000), Fraction(10**30 + 1, 10**30)])
    def test_minimal_extension_degree(self, q):
        bounds = [Fraction(1, 2), 1]
        bounds += [Fraction(q) ** k + s for k in (1, 2, 5, 17)
                   for s in (-Fraction(1, 10**70), 0, Fraction(1, 10**70))]
        if q > 1.01:  # the old loop takes about ln(bound)/ln(q) steps
            bounds += [2, 36, Fraction(7, 3), 10**6, 2**64, 2**64 + 1, Fraction(2**200 + 1, 3)]
        for bound in bounds:
            got = minimal_extension_degree(q, bound)
            assert got == _old_minimal_extension_degree(q, bound)
            assert Fraction(q) ** got >= bound
            assert got == 1 or Fraction(q) ** (got - 1) < bound

    @pytest.mark.parametrize("q", [2, 3, 5, 65537])
    def test_companion_draws(self, q):
        for n in (2, 5, 16, 2**11, 2**30):
            d = modverify._companion_degree(q, n)
            for eps in EPS_GRID:
                assert modverify._companion_draws(q, d, eps) == _old_companion_draws(q, d, eps)

    def test_rounds_for(self):
        rhos = [Fraction(0), Fraction(1, 2), Fraction(3, 7), QUARTER, Fraction(1, 1000),
                Fraction(1, 2**64)] + [KaminskiParams(e=Fraction(1, 10)).per_round_bound(n)
                                      for n in (4096, 10**5, 10**7)]
        for rho in rhos:
            for eps in EPS_GRID:
                assert _rounds_for(eps, rho) == _old_rounds_for(eps, rho)
        for run in (_rounds_for, _old_rounds_for):
            with pytest.raises(ValueError, match="too weak to amplify"):
                run(Fraction(1, 2**5000), Fraction(1, 2))


class TestPrintedBound:
    """A report states the least double >= epsilon as its error_bound."""

    @given(st.fractions(min_value=Fraction(1, 2**1100), max_value=1).filter(lambda e: 0 < e < 1)
           | st.integers(2, 2**1100).map(lambda k: Fraction(1, k))
           | st.integers(1, 1100).map(lambda k: Fraction(1, 3 * 2**k)))
    def test_least_double_at_or_above(self, eps):
        b = modverify.bound_above(eps)
        assert Fraction(b) >= eps
        if Fraction(float(eps)) >= eps:
            assert b == float(eps)
        else:
            assert math.nextafter(b, 0) < eps

    def test_through_the_verifiers(self, rng):
        P = pc.SparsePoly(F2, [(0, 1), (1, 1), (4, 1)])
        F, G = rand_dense(F2, 3, rng), rand_dense(F2, 2, rng)
        H = oracle_mod_product(F, G, P)
        r = verify_mod_companion(F, G, H, P, cfg(1, Fraction(1, 2**1100), "companion-no-polymul"))
        assert r.verdict is True and r.error_bound == math.nextafter(0.0, 1.0)
        r = verify_mod_ff(F, G, H, P, cfg(1, Fraction(1, 3)))
        assert r.verdict is True and Fraction(r.error_bound) >= Fraction(1, 3)
        assert verify_mod_ff(F, G, H, P, cfg(1, Fraction(1, 2**20))).error_bound == 2**-20
