"""The CLI's auto route for all-sparse input: the exact product where it is
cheaper than verifying it, the paper's verifier where it is not.

prodverify.exact_route_costs weighs the two; only the default (auto) method
of verify-prod and verify-mod consults it, and only on all-sparse files.
"""

import json
from fractions import Fraction

import pytest

import polycheck as pc
from polycheck import prodverify
from polycheck.cli import main
from polycheck.poly import EXPONENT_CAP, write_poly_file
from polycheck.rings import RngStream
from conftest import rand_sparse

Z, GF2 = pc.ZZ, pc.GF(2)
EPS = Fraction(1, 2**20)


def run(capsys, tmp_path, command, polys, *extra):
    """main() on the polynomials written to files; (exit code, report or
    None, stderr)."""
    args = [command, *extra]
    for name, X in polys.items():
        path = tmp_path / f"{name}.poly"
        write_poly_file(path, X)
        args += [f"--{name}", str(path)]
    code = main(args)
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out else None), err


def bumped(H, rng):
    """H with one coefficient below the top raised by one (a term of GF(2)
    drops out): wrong, of the same degree and no more terms, so no shape
    screen decides it."""
    ctx, terms = H.ctx, dict(H.terms)
    e = H.terms[rng.below(len(H.terms) - 1)][0]
    terms[e] = ctx.add(terms[e], ctx.one())
    return pc.SparsePoly.from_dict(ctx, terms)


def example2(ctx, t):
    """F = sum X^i, G = sum (X^(it+1) - X^(it)), F*G = X^(t^2) - 1."""
    one, minus_one = ctx.one(), ctx.neg(ctx.one())
    F = pc.SparsePoly(ctx, [(i, one) for i in range(t)])
    G = pc.SparsePoly.from_dict(
        ctx, {e: c for i in range(t) for e, c in ((i * t, minus_one), (i * t + 1, one))}
    )
    return F, G, pc.SparsePoly(ctx, [(0, minus_one), (t * t, one)])


def random_prod(ctx, rng):
    F, G = (rand_sparse(ctx, 2**29, 32, rng) for _ in "FG")
    return {"F": F, "G": G, "H": pc.mul_oracle(F, G)}


def random_mod(ctx, rng):
    n = 2**20
    P = pc.SparsePoly(ctx, [(0, 1), (17, 1), (n, 1)])
    F, G = (rand_sparse(ctx, n, 32, rng) for _ in "FG")
    return {"F": F, "G": G, "H": pc.mod_reduce(pc.mul_oracle(F, G), P), "P": P}


class TestExactRoute:
    @pytest.mark.parametrize("ctx", [Z, GF2, pc.GF(65537)], ids=repr)
    @pytest.mark.parametrize(
        "command, build", [("verify-prod", random_prod), ("verify-mod", random_mod)]
    )
    def test_random_supports_take_the_exact_product(
        self, ctx, command, build, capsys, tmp_path
    ):
        polys = build(ctx, RngStream(11))
        for truth in (True, False):
            if not truth:
                polys["H"] = bumped(polys["H"], RngStream(12))
            F, G, H, P = (polys.get(name) for name in "FGHP")
            costs = prodverify.exact_route_costs(F, G, H, EPS, P)
            assert costs is not None and costs["product"] < costs["verify"]
            code, report, err = run(capsys, tmp_path, command, polys, "--seed", "4")
            assert (code, err) == (0 if truth else 1, "")
            assert report["verdict"] is truth and report["method"] == "exact"
            assert report["error_bound"] == 0.0 and report["rounds"] == 0
            assert report["schema"] == 1
            assert report["witnesses"] == [
                {"deterministic": "reference-product", "cost": costs}
            ]

    @pytest.mark.parametrize("ctx", [Z, GF2, pc.GF(7)], ids=repr)
    @pytest.mark.parametrize(
        "command, build", [("verify-prod", random_prod), ("verify-mod", random_mod)]
    )
    def test_exact_verdicts(self, ctx, command, build, capsys, tmp_path):
        # the true H, H with a coefficient bumped and H without its first term
        polys = build(ctx, RngStream(13))
        H = polys["H"]
        for X, truth in (
            (H, True),
            (bumped(H, RngStream(14)), False),
            (pc.SparsePoly(ctx, H.terms[1:]), False),
        ):
            polys["H"] = X
            code, report, err = run(capsys, tmp_path, command, polys, "--seed", "2")
            assert (code, err) == (0 if truth else 1, "")
            assert report["verdict"] is truth and report["method"] == "exact"
            assert report["error_bound"] == 0.0

    def test_product_past_the_exponent_cap_runs_the_verifier(self, capsys, tmp_path):
        # X^(2^62) X^(2^62) = X^(2^63) has no term within EXPONENT_CAP, so
        # the exact product cannot be formed though its estimate is tiny
        n = EXPONENT_CAP
        half = pc.SparsePoly(GF2, [(2**62, 1)])
        polys = {"F": half, "G": half, "H": pc.SparsePoly(GF2, [(1, 1)]),
                 "P": pc.x_pow_minus_one(GF2, n)}
        assert prodverify.exact_route_costs(half, half, polys["H"], EPS, polys["P"]) is None
        code, report, err = run(capsys, tmp_path, "verify-mod", polys, "--seed", "1")
        assert (code, err) == (0, "") and report["method"] == "extension"


class TestVerifierRoute:
    @pytest.mark.parametrize("ctx", [Z, GF2], ids=repr)
    def test_example2_runs_the_sparse_verifier(self, ctx, capsys, tmp_path):
        F, G, H = example2(ctx, 512)
        assert prodverify.exact_route_costs(F, G, H, EPS) is None
        code, report, err = run(capsys, tmp_path, "verify-prod", {"F": F, "G": G, "H": H})
        assert (code, err) == (0, "")
        assert report["method"] == "sparse" and report["rounds"] == 1
        assert report["error_bound"] == float(EPS)

    @pytest.mark.parametrize("ctx", [Z, GF2], ids=repr)
    def test_example2_modulo_a_binomial_runs_the_modular_verifier(
        self, ctx, capsys, tmp_path
    ):
        F, G, H = example2(ctx, 512)
        P = pc.x_pow_minus_one(ctx, 512 * 512 + 1)
        assert prodverify.exact_route_costs(F, G, H, EPS, P) is None
        polys = {"F": F, "G": G, "H": H, "P": P}
        code, report, err = run(capsys, tmp_path, "verify-mod", polys)
        assert (code, err) == (0, "")
        assert report["method"] in ("direct-eval", "extension") and report["rounds"] == 1

    def test_screens_decide_before_the_route(self, capsys, tmp_path):
        # too many terms for F*G: the verifier's certain shape reject, not
        # the exact product
        F = pc.SparsePoly(Z, [(0, 1), (3, 1)])
        H = pc.SparsePoly(Z, [(i, 1) for i in range(7)])
        assert prodverify.exact_route_costs(F, F, H, EPS) is None
        code, report, _ = run(capsys, tmp_path, "verify-prod", {"F": F, "G": F, "H": H})
        assert code == 1 and report["witnesses"] == [{"rejected": "shape"}]
        assert report["error_bound"] == 0.0

    def test_tiny_gap_modulus_costs_no_huge_power(self):
        # ceil(1/gamma) = 2^40: the term bound stops once it passes the
        # verifier's estimate instead of building 2^(2^40)
        n = 2**40
        P = pc.SparsePoly(GF2, [(0, 1), (n - 1, 1), (n, 1)])
        F = pc.SparsePoly(GF2, [(0, 1), (5, 1)])
        H = pc.SparsePoly(GF2, [(0, 1), (10, 1)])
        assert pc.modverify.reduced_product_terms(F, F, P, 100) > 100
        assert not pc.modverify.sparsity_precheck(F, F, H, P)
        assert prodverify.exact_route_costs(F, F, H, EPS, P) is None


class TestNoEstimateOffTheRoute:
    """Dense and mixed files and explicit methods never consult the
    estimate."""

    @pytest.fixture(autouse=True)
    def forbid_estimate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("exact_route_costs consulted")

        monkeypatch.setattr(prodverify, "exact_route_costs", fail)

    @pytest.mark.parametrize("dense", ["F", "H", "FGH"])
    @pytest.mark.parametrize("ctx", [Z, pc.GF(7)], ids=repr)
    def test_verify_prod(self, ctx, dense, capsys, tmp_path):
        F = pc.SparsePoly(ctx, [(0, 1), (2, 3)])
        G = pc.SparsePoly(ctx, [(1, 2), (4, 1)])
        polys = {"F": F, "G": G, "H": pc.mul_oracle(F, G)}
        for name in dense:
            polys[name] = polys[name].to_dense()
        code, report, err = run(capsys, tmp_path, "verify-prod", polys)
        assert (code, err) == (0, "") and report["method"] in ("kronecker", "kaminski")

    @pytest.mark.parametrize("dense", ["F", "H", "P", "FGHP"])
    @pytest.mark.parametrize("ctx", [Z, pc.GF(7)], ids=repr)
    def test_verify_mod(self, ctx, dense, capsys, tmp_path):
        P = pc.SparsePoly(ctx, [(0, 1), (3, 1), (8, 1)])
        F = pc.SparsePoly(ctx, [(0, 1), (5, 3)])
        G = pc.SparsePoly(ctx, [(1, 2), (7, 1)])
        polys = {"F": F, "G": G, "H": pc.mod_reduce(pc.mul_oracle(F, G), P), "P": P}
        for name in dense:
            polys[name] = polys[name].to_dense()
        code, _, err = run(capsys, tmp_path, "verify-mod", polys)
        assert (code, err) == (0, "")

    def test_explicit_methods(self, capsys, tmp_path):
        polys = random_prod(GF2, RngStream(3))
        for method in ("sparse", "kaminski"):
            code, report, _ = run(capsys, tmp_path, "verify-prod", polys, "--method", method)
            assert code == 0 and report["method"] == method
        polys = random_mod(GF2, RngStream(3))
        for method in ("extension", "companion-freivalds"):
            code, report, _ = run(capsys, tmp_path, "verify-mod", polys, "--method", method)
            assert code == 0 and report["method"] == method


class TestBadInputUnderAuto:
    """All-sparse files under the default method: validation runs before
    the route, with the error line the verifiers print."""

    def check(self, capsys, tmp_path, bodies, message, command="verify-mod"):
        args = [command]
        for name, (ring, body) in bodies.items():
            path = tmp_path / f"{name}.poly"
            path.write_text(f"ring {ring}\n{body}\n")
            args += [f"--{name}", str(path)]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("ring", ["Z", "GF 2", "GF 65537"])
    def test_h_degree_at_least_deg_p(self, ring, capsys, tmp_path):
        self.check(capsys, tmp_path, {
            "F": (ring, "sparse 0:1 1:1"), "G": (ring, "sparse 0:1 1:1"),
            "H": (ring, "sparse 0:1 5:1"), "P": (ring, "sparse 0:1 5:1")},
            "inputs must have degree < deg P")

    @pytest.mark.parametrize("P", ["sparse 0:1 3:2", "sparse 3:2"])
    @pytest.mark.parametrize("ring", ["Z", "GF 7"])
    def test_non_monic_modulus(self, ring, P, capsys, tmp_path):
        self.check(capsys, tmp_path, {
            "F": (ring, "sparse 0:1 1:1"), "G": (ring, "sparse 0:1 1:1"),
            "H": (ring, "sparse 0:1 1:2 2:1"), "P": (ring, P)},
            "modulus must be monic")

    def test_mixed_rings(self, capsys, tmp_path):
        self.check(capsys, tmp_path, {
            "F": ("Z", "sparse 0:1 1:1"), "G": ("GF 7", "sparse 0:1 1:1"),
            "H": ("GF 7", "sparse 0:1 1:2 2:1"), "P": ("GF 7", "sparse 0:1 3:1")},
            "input polynomials live in different rings")

    def test_composite_q(self, capsys, tmp_path):
        self.check(capsys, tmp_path, {
            "F": ("GF 4", "sparse 0:1 1:1"), "G": ("GF 4", "sparse 0:1 1:1"),
            "H": ("GF 4", "sparse 0:1 2:1"), "P": ("GF 4", "sparse 0:1 3:1")},
            f"{tmp_path / 'F.poly'}: field modulus 4 is not prime")

    def test_composite_q_verify_prod(self, capsys, tmp_path):
        self.check(capsys, tmp_path, {
            "F": ("GF 9", "sparse 0:1 1:1"), "G": ("GF 9", "sparse 0:1 1:1"),
            "H": ("GF 9", "sparse 0:1 2:1")},
            f"{tmp_path / 'F.poly'}: field modulus 9 is not prime", "verify-prod")
