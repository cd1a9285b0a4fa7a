"""The outcome corpus: one record per call of the package's verifiers,
scans and irreducible draws, on instances drawn from one random.Random
stream (conftest.Draws), so a change to the package's RngStream moves no
input.  A record is the call's report (to_dict()), its value, or the
exception polycheck raised ([type, message]), with the call's POLY_MUL_OPS
delta.  tests/corpus.json holds, under the record's name, the first 16 hex
digits of the sha256 of its sorted-key JSON, one record per line.  The
corpus is drawn once and checked one family at a time (a name's first
segment), so a failure names its family and every record that moved.

Re-record, and list every moved name in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py > tests/corpus.json
"""

import hashlib
import json
from functools import cache
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import polycheck as pc
from polycheck.modeval import eval_mod
from polycheck.modverify import METHODS, VerifyConfig, VerifyReport, verify_mod, verify_mod_ff
from polycheck.oracle import oracle_mod_product
from polycheck.prodverify import (
    KaminskiParams,
    exact_route_costs,
    verify_int_product,
    verify_product,
    verify_product_kaminski,
    verify_product_kaminski_nomul,
    verify_product_kronecker,
)
from polycheck.rings import RngStream, random_irreducible
from conftest import Draws, counted, perturb_poly, rand_dense, rand_sparse

TABLE = Path(__file__).with_name("corpus.json")
PACKAGE = Path(pc.__file__).parent
ACCEPTED = "accepted or refused"  # what the record of a true instance holds
F2, GF7 = pc.GF(2), pc.GF(7)
RINGS = {
    "Z": pc.ZZ,
    "GF2": F2,
    "GF3": pc.GF(3),
    "GF7": GF7,
    "GF65537": pc.GF(65537),
    "GF2^61-1": pc.GF(2**61 - 1),
    "GF2^8": pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
    "GF7^2": pc.ExtField(GF7, [1, 0, 1]),
}
STRICT = Fraction(1, 2**20)
RUNS = ((Fraction(1, 4), 0), (STRICT, 1))  # (epsilon, seed); a name gives the seed
E_FOLD = KaminskiParams(e=Fraction(1, 10))
E_KRONECKER = Fraction(3, 10)

# Each family yields (name, expect, function, arguments) per record: expect
# is ACCEPTED for a true instance, the value a scan must return, or None.


def _hi(ctx):
    """The coefficient bound of the corpus's instances over ctx."""
    return 2**31 - 1 if ctx == pc.ZZ else 9


def _true_and_wrong(H, rnd):
    return ("true", H, ACCEPTED), ("wrong", perturb_poly(H, rnd), None)


def _plain(rnd):
    """Plain products: dense and mixed triples of degree 40 to 96 and
    sparse ones below degree 200 under every product method, Kaminski's two
    at e = 1/10 as well, and sparse triples below 2^16 under auto, sparse
    and kronecker only (kaminski-nomul makes them dense)."""
    for k, (ring, ctx) in enumerate(RINGS.items()):
        hi = _hi(ctx)
        deg = 40 + 8 * k  # a fold range of its own per ring
        F, G = rand_dense(ctx, deg, rnd, hi), rand_dense(ctx, deg - 7, rnd, hi)
        Fs, Gs = (rand_sparse(ctx, 200, 6, rnd, hi) for _ in "FG")
        Fw, Gw = (rand_sparse(ctx, 2**16, 8, rnd, hi) for _ in "FG")
        FG = pc.mul_oracle(F, G)
        for form, A, B, H in (
            ("dense", F, G, FG),
            ("mixed", F, G.to_sparse(), FG),
            ("sparse", Fs, Gs, pc.mul_oracle(Fs, Gs)),
            ("sparse-2^16", Fw, Gw, pc.mul_oracle(Fw, Gw)),
        ):
            wide = form == "sparse-2^16"
            methods = ["auto", "sparse"] + ["kaminski", "kaminski-nomul"] * (not wide)
            methods += ["kronecker"] * (ctx == pc.ZZ)
            for h, X, expect in _true_and_wrong(H, rnd):
                for eps, seed in RUNS:
                    name = f"prod/{ring}/{form}/{h}/{seed}"
                    cfg = VerifyConfig(eps, seed=seed)
                    for m in methods:
                        yield f"{name}/{m}", expect, verify_product, (A, B, X, replace(cfg, method=m))
                    if not wide:
                        args = (A, B, X, cfg, E_FOLD)
                        yield f"{name}/kaminski,e=0.1", expect, verify_product_kaminski, args
                        yield f"{name}/kaminski-nomul,e=0.1", expect, verify_product_kaminski_nomul, args
                    if ctx == pc.ZZ:
                        args = (A, B, X, cfg, E_KRONECKER)
                        yield f"{name}/kronecker,e=0.3", expect, verify_product_kronecker, args


def _modular(rnd):
    """Modular products at X^n - 1 and X^n + X^17 + 1: dense and mixed
    input at n = 48, sparse input at n = 2^20, which wraps; each under every
    verify_mod_ff method, verify_product with P, verify_mod and
    exact_route_costs."""
    for ring, ctx in RINGS.items():
        hi = _hi(ctx)
        for form, n in (("dense", 48), ("mixed", 48), ("sparse", 2**20)):
            if form == "sparse":
                F, G = (rand_sparse(ctx, n, 8, rnd, hi) for _ in "FG")
            else:
                F, G = rand_dense(ctx, n - 1, rnd, hi), rand_dense(ctx, n - 8, rnd, hi)
            B = G.to_sparse() if form == "mixed" else G
            one = ctx.one()
            for shape, P in (
                ("binomial", pc.x_pow_minus_one(ctx, n)),
                ("trinomial", pc.SparsePoly(ctx, [(0, one), (17, one), (n, one)])),
            ):
                for h, X, expect in _true_and_wrong(oracle_mod_product(F, G, P), rnd):
                    for eps, seed in RUNS:
                        name = f"mod/{ring}/{form}/{shape}/{h}/{seed}"
                        cfg = VerifyConfig(eps, seed=seed)
                        for m in METHODS:
                            args = (F, B, X, P, replace(cfg, method=m))
                            yield f"{name}/{m}", expect, verify_mod_ff, args
                        yield f"{name}/verify_product", expect, verify_product, (F, B, X, cfg, P)
                        yield f"{name}/verify_mod", expect, verify_mod, (F, B, X, P, cfg)
                        yield f"{name}/exact_route_costs", None, exact_route_costs, (F, B, X, eps, P)


def _integers(rnd):
    """verify_int_product on operands of 8 to 3000 bits, with c the product,
    the product plus one, with one bit flipped and negated, at the default
    e and at e = 3/10."""
    for bits in (8, 31, 2048, 3000):
        a, b = rnd.getrandbits(bits) | 1, rnd.getrandbits(bits) | 1
        flip = 1 << rnd.randrange(2 * bits)
        ab = a * b
        for kind, c in (("true", ab), ("plus-one", ab + 1), ("bit-flip", ab ^ flip), ("negated", -ab)):
            expect = ACCEPTED if kind == "true" else None
            for eps, seed in RUNS:
                cfg = VerifyConfig(eps, seed=seed)
                for label, e in (("default", None), ("e=0.3", E_KRONECKER)):
                    args = (a, b, c, cfg, e)
                    yield f"int/{bits}/{kind}/{seed}/{label}", expect, verify_int_product, args


def _scans(rnd):
    """eval_mod on sparse GF(2) triples that wrap modulo X^(2^20) + X^17 + 1,
    at x and at a random point of GF(2)[X]/(R) for R of degree 1 to 64,
    each value the oracle's; and evaluate of sparse polynomials over GF(7^2)
    and over the tower GF(7^2)[Y]/(Y^2 + x), at the tower's x and at a
    random point of it."""
    n = 2**20
    P = pc.SparsePoly(F2, [(0, 1), (17, 1), (n, 1)])
    triples = []
    for _ in range(3):
        F, G = (rand_sparse(F2, n, 8, rnd) for _ in "FG")
        assert F.degree() + G.degree() >= n
        triples.append((F, G, oracle_mod_product(F, G, P)))
    for d in (1, 2, 8, 23, 64):
        K = pc.ExtField(F2, [rnd.randrange(2) for _ in range(d)] + [1])
        for k, (F, G, H) in enumerate(triples):
            for point, alpha in (("x", K.x), ("random", K.sample(rnd))):
                truth = pc.evaluate(H, alpha, K)
                yield f"scan/eval_mod/d={d}/{k}/{point}", truth, eval_mod, (P, F, G, alpha, K)
    B = RINGS["GF7^2"]
    T = pc.ExtField(B, [B.x, B.zero(), B.one()])
    for ring, ctx in (("GF7^2", B), ("tower", T)):
        for point, alpha in (("x", T.x), ("random", T.sample(rnd))):
            for t in (0, 1, 5, 12):
                terms = {rnd.randrange(2**40): ctx.sample(rnd) for _ in range(t)}
                F = pc.SparsePoly.from_dict(ctx, terms)
                yield f"scan/evaluate/{ring}/{point}/{t}", None, pc.evaluate, (F, alpha, T)


def _irreducible(q, d, seed):
    """random_irreducible over GF(q) at epsilon 2^-20 from RngStream(seed):
    R and the draw that follows it."""
    rng = RngStream(seed)
    R = random_irreducible(pc.GF(q), d, STRICT, rng)
    return list(R.coeffs), rng.bits(32)


def _irreducibles(rnd):
    """_irreducible at seeds 0-4, with the POLY_MUL_OPS delta of Ben-Or's
    test."""
    for q, degrees in ((2, (8, 34, 61)), (7, (5, 22, 34)), (65537, (3, 4, 8))):
        for d in degrees:
            for seed in range(5):
                yield f"irreducible/GF{q}/d={d}/{seed}", None, _irreducible, (q, d, seed)


def _full_degree(rnd):
    """kaminski and kaminski-nomul at full degree: over Z with 32-bit
    coefficients at n = 4096, where the degree sets the prime's lambda, and
    with 2048-bit ones at n = 64, where the norm sets it; over GF(2^61 - 1)
    at n = 1024 and GF(65537) at n = 512."""
    for label, ctx, n, hi in (
        ("Z-32bit", pc.ZZ, 4096, 2**31 - 1),
        ("Z-2048bit", pc.ZZ, 64, 2**2048 - 1),
        ("GF2^61-1", RINGS["GF2^61-1"], 1024, 9),
        ("GF65537", RINGS["GF65537"], 512, 9),
    ):
        F, G = rand_dense(ctx, n - 1, rnd, hi), rand_dense(ctx, n - 1, rnd, hi)
        for h, X, expect in _true_and_wrong(pc.mul_oracle(F, G), rnd):
            for eps, seed in RUNS:
                for m in ("kaminski", "kaminski-nomul"):
                    args = (F, G, X, VerifyConfig(eps, m, seed))
                    yield f"full-degree/{label}/{n}/{h}/{seed}/{m}", expect, verify_product, args


def _outcome(function, args):
    """The call's report as a dict, or its value, or the exception that
    polycheck raised as [type, message]; an exception raised outside the
    package (its message may differ between Python versions) propagates."""
    try:
        value = function(*args)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        if not Path(tb.tb_frame.f_code.co_filename).is_relative_to(PACKAGE):
            raise
        return [type(exc).__name__, str(exc)]
    return value.to_dict() if isinstance(value, VerifyReport) else value


FAMILIES = {
    "prod": _plain,
    "mod": _modular,
    "int": _integers,
    "scan": _scans,
    "irreducible": _irreducibles,
    "full-degree": _full_degree,
}


@cache
def records():
    """({name: digest} of every record, in the order drawn, [(name, fault)])
    where a fault is a true instance rejected or a scan value that is not
    the oracle's.  The families draw from one stream in turn."""
    rnd = Draws(0xC0)
    table, faults = {}, []
    for family, draw in FAMILIES.items():
        for name, expect, function, args in draw(rnd):
            assert name.startswith(family + "/") and name not in table, name
            out, ops = counted(lambda: _outcome(function, args))
            if expect is ACCEPTED and not (isinstance(out, list) or out["verdict"] is True):
                faults.append((name, f"true instance rejected: {out}"))
            elif expect not in (ACCEPTED, None) and out != expect:
                faults.append((name, f"{out} is not the oracle's {expect}"))
            record = json.dumps({"out": out, "ops": ops}, sort_keys=True)
            table[name] = hashlib.sha256(record.encode()).hexdigest()[:16]
    return table, faults


def _family(name):
    return name.split("/", 1)[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_every_record_matches_the_table(family):
    """The family's records against tests/corpus.json, naming up to 20 that
    moved, went missing or are new; every true instance is accepted or
    refused with an exception, and every scan value is the oracle's."""
    whole = json.loads(TABLE.read_text())
    assert {_family(name) for name in whole} <= FAMILIES.keys(), "unknown family in the table"
    want = {name: digest for name, digest in whole.items() if _family(name) == family}
    table, faults = records()
    faults = [f"{name}: {fault}" for name, fault in faults if _family(name) == family]
    assert not faults, "\n".join(faults[:20])
    got = {name: digest for name, digest in table.items() if _family(name) == family}
    diff = [f"moved   {name}" for name in want if name in got and got[name] != want[name]]
    diff += [f"missing {name}" for name in want if name not in got]
    diff += [f"extra   {name}" for name in got if name not in want]
    head = f"{len(diff)} of {len(want)} {family} records differ from {TABLE.name}:"
    assert not diff, "\n".join([head] + diff[:20])


if __name__ == "__main__":
    table, faults = records()
    assert not faults, faults
    pairs = (f"{json.dumps(name)}: {json.dumps(digest)}" for name, digest in table.items())
    print("{\n" + ",\n".join(pairs) + "\n}")
