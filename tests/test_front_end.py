"""prodverify.verify_product, the one front end of both checks.

The library's auto is the CLI's auto: on every instance that
test_cli_golden pins, verify_product at the same seed, epsilon and method
gives the report whose printed line has the pinned digest.  One method rule
per front end, one context check, and the exact route taken by
verify_product alone: verify_mod_ff and the per-method verifiers never
compute the product.
"""

import hashlib
import json
from fractions import Fraction

import pytest

import polycheck as pc
from polycheck import cli, poly, prodverify
from polycheck.cli import main
from polycheck.modverify import METHODS, PRODUCT_METHODS, FieldTooSmallError, VerifyConfig
from polycheck.poly import read_poly_file
from polycheck.prodverify import verify_product
from test_cli_golden import CASES, EXPLICIT_CASES, EXPLICIT_GOLDEN, GOLDEN, _instance

F7 = pc.GF(7)
GF2 = pc.GF(2)


def _cfg(seed, method="auto"):
    eps = Fraction(1, 4) if seed == 2 else Fraction(1, 2**20)
    return VerifyConfig(epsilon=eps, method=method, seed=seed)


def _digest(key, cfg):
    """The first 16 hex digits of the sha256 of the line the CLI prints for
    verify_product's report on the instance of key, or of no line where
    the check raises FieldTooSmallError."""
    polys = _instance(key)
    try:
        report = verify_product(polys["F"], polys["G"], polys["H"], cfg, polys.get("P"))
    except FieldTooSmallError:
        out = ""
    else:
        command = "verify-mod" if key[0] == "mod" else "verify-prod"
        out = json.dumps({**report.to_dict(), "command": command}, sort_keys=True) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()[:16]


class TestTheCLIsReports:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_default_method(self, case):
        key, seed = CASES[case]
        assert _digest(key, _cfg(seed)) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(EXPLICIT_CASES))
    def test_explicit_method(self, case):
        key = EXPLICIT_CASES[case]
        seed = CASES["-".join(key[:-1])][1]
        assert _digest(key[:-1], _cfg(seed, key[-1])) == EXPLICIT_GOLDEN[case]


def _small_mod(ctx):
    P = pc.SparsePoly(ctx, [(0, 1), (3, 1), (8, 1)])
    F = pc.SparsePoly(ctx, [(0, 1), (5, 3)])
    G = pc.SparsePoly(ctx, [(1, 2), (7, 1)])
    return F, G, pc.mod_reduce(pc.mul_oracle(F, G), P), P


class TestMethodRule:
    @pytest.mark.parametrize("method", METHODS + PRODUCT_METHODS)
    def test_config_takes_both_lists(self, method):
        assert VerifyConfig(method=method).method == method

    def test_config_refuses_other_names(self):
        with pytest.raises(ValueError, match="^unknown method 'exact'$"):
            VerifyConfig(method="exact")

    def test_verify_mod_ff_refuses_a_product_method(self):
        with pytest.raises(ValueError, match="^unknown method 'kaminski'$"):
            pc.verify_mod_ff(*_small_mod(F7), VerifyConfig(method="kaminski"))

    def test_plain_check_refuses_a_modular_method(self):
        F, G, _, _ = _small_mod(F7)
        with pytest.raises(ValueError, match="^unknown method 'direct-eval'$"):
            verify_product(F, G, pc.mul_oracle(F, G), VerifyConfig(method="direct-eval"))

    def test_modular_check_refuses_a_product_method(self):
        F, G, H, P = _small_mod(F7)
        with pytest.raises(ValueError, match="^unknown method 'sparse'$"):
            verify_product(F, G, H, VerifyConfig(method="sparse"), P)

    @pytest.mark.parametrize("method, name", [
        ("auto", "verify_product_kaminski"),
        ("kaminski", "verify_product_kaminski"),
        ("kaminski-nomul", "verify_product_kaminski_nomul"),
        ("sparse", "verify_sparse_product"),
    ])
    def test_names_are_looked_up_at_call_time(self, method, name, monkeypatch):
        # a wrapper put in place of a verifier, as a tracer puts one, is
        # the function the front end runs
        calls = []
        original = getattr(prodverify, name)
        monkeypatch.setattr(prodverify, name, lambda *a: calls.append(1) or original(*a))
        F, G, _, _ = _small_mod(F7)
        F, G = F.to_dense(), G.to_dense()
        report = verify_product(F, G, pc.mul_oracle(F, G), VerifyConfig(method=method))
        assert report.verdict is True and calls == [1]


class TestOneContext:
    @pytest.mark.parametrize("odd", range(4))
    def test_modular(self, odd):
        polys = list(_small_mod(F7))
        polys[odd] = pc.SparsePoly(pc.GF(5), polys[odd].terms)
        F, G, H, P = polys
        with pytest.raises(ValueError, match="^mixed coefficient contexts$"):
            verify_product(F, G, H, None, P)

    @pytest.mark.parametrize("odd", range(3))
    @pytest.mark.parametrize("method", PRODUCT_METHODS)
    def test_plain(self, odd, method):
        F, G, _, _ = _small_mod(F7)
        polys = [F, G, pc.mul_oracle(F, G)]
        polys[odd] = pc.SparsePoly(pc.GF(5), polys[odd].terms)
        with pytest.raises(ValueError, match="^mixed coefficient contexts$"):
            verify_product(*polys, VerifyConfig(method=method))


def _gen(tmp_path, name, *args):
    assert main(["gen", *args, "--out-prefix", str(tmp_path / name)]) == 0
    return [read_poly_file(tmp_path / f"{name}_{X}.poly") for X in "FGH"]


def _refuse_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("the product was computed")

    for module, name in ((prodverify, "product_terms"), (poly, "product_terms"),
                         (prodverify, "mul_oracle")):
        monkeypatch.setattr(module, name, refuse)


class TestExactRoute:
    """The routing instances of the CLI's smoke run: a random sparse
    product over GF(2) at degree 2^20 with 32 terms per factor, where the
    product is cheaper than the verifier, and the collapsing example2
    triple, where it is not."""

    def test_random_sparse_product(self, tmp_path, capsys, monkeypatch):
        F, G, H = _gen(tmp_path, "rs", "--ring", "GF", "--q", "2", "--n", "1048576",
                       "--T", "32", "--seed", "1")
        capsys.readouterr()
        report = verify_product(F, G, H)
        assert (report.verdict, report.method, report.rounds, report.error_bound) == (
            True, "exact", 0, 0.0)
        assert report.witnesses[0]["deterministic"] == "reference-product"
        args = ["verify-prod"] + [f"--{X}={tmp_path / f'rs_{X}.poly'}" for X in "FGH"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == {**report.to_dict(), "command": "verify-prod"}
        _refuse_products(monkeypatch)
        wrong = pc.SparsePoly(GF2, H.terms[1:])
        for X, verdict in ((H, True), (wrong, False)):
            assert pc.verify_sparse_product(F, G, X).verdict is verdict
            assert verify_product(F, G, X, VerifyConfig(method="sparse")).verdict is verdict

    def test_random_sparse_modular_product(self, tmp_path, monkeypatch):
        F, G, _ = _gen(tmp_path, "m", "--ring", "GF", "--q", "2", "--n", "1048575",
                       "--T", "32", "--seed", "2")
        P = pc.SparsePoly(GF2, [(0, 1), (17, 1), (1 << 20, 1)])
        H = pc.mod_reduce(pc.mul_oracle(F, G), P)
        wrong = pc.SparsePoly(GF2, H.terms[1:])
        for X, verdict in ((H, True), (wrong, False)):
            report = verify_product(F, G, X, VerifyConfig(seed=5), P)
            assert (report.verdict, report.method, report.error_bound) == (verdict, "exact", 0.0)
        _refuse_products(monkeypatch)
        for X, verdict in ((H, True), (wrong, False)):
            assert pc.verify_mod_ff(F, G, X, P, VerifyConfig(seed=5)).verdict is verdict

    @pytest.mark.parametrize("ctx", [pc.ZZ, GF2], ids=str)
    def test_example2(self, ctx, monkeypatch):
        F, G, H = cli._example2_triple(ctx, 256)
        _refuse_products(monkeypatch)
        report = verify_product(F, G, H)
        assert (report.verdict, report.method, report.rounds) == (True, "sparse", 1)
