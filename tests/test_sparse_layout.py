"""The sparse layout: a SparsePoly keeps its exponents and its coefficients
as two parallel sequences, exps (one array('q')) and cs (a tuple), with no
tuple per term.

- Footprint: the bytes a 2^14-term polynomial read by parse_poly retains
  per term, measured by tracemalloc, over Z and GF(2).  Run as a script,
  this file prints them.
- One layout: every producer stores exps as an array('q') of its own,
  holding the expected exponents; equal polynomials from different
  producers are equal and hash equal; no verifier writes into exps.
- Guard: .terms is a view built per access for callers outside the
  package, and no path inside reads it.  With .terms patched to raise,
  the readers, every product and modular method on all-sparse input and
  the verify commands on sparse files give the reports of the unpatched
  run.
- Parity with one tuple per term (oracle.pair_terms): the constructor,
  from_dict, DensePoly.to_sparse, parse of format and mul_oracle give its
  .terms, equality, repr and error messages.
"""

import gc
import io
import random
import tempfile
import tracemalloc
from array import array
from contextlib import redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import polycheck as pc
from polycheck import cli
from polycheck.cli import main
from polycheck.modeval import eval_mod
from polycheck.modverify import METHODS, PRODUCT_METHODS, VerifyConfig, VerifyReport
from polycheck.poly import EXPONENT_CAP, format_poly, parse_poly, read_poly_file, write_poly_file
from polycheck.rings import PrimeGenerationError, RngStream
from conftest import counted, perturb_poly, rand_coeff, rand_monic_sparse, rand_sparse
from oracle import _pair_product_sparse, _sparse_long_division_rem, pair_terms

F2 = pc.GF(2)
GF256 = pc.ExtField(F2, [1, 1, 0, 1, 1, 0, 0, 0, 1])
RINGS = {
    "Z": pc.ZZ,
    "GF2": F2,
    "GF7": pc.GF(7),
    "GF2^61-1": pc.GF(2**61 - 1),
    "GF2^8": GF256,
}
TERMS = 2**14


# ---------------------------------------------------------------------------
# footprint


def _retained_per_term(ctx, exps, cs):
    """The bytes that parse_poly's result retains per term, by tracemalloc,
    for the polynomial of the parallel lists exps and cs over ctx."""
    text = format_poly(pc.SparsePoly(ctx, zip(exps, cs)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        F = parse_poly(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert F.sparsity() == len(exps)
    return retained / len(exps)


def footprint(ring):
    """The bytes per term retained by a 2^14-term polynomial over ring (Z
    or GF2) read by parse_poly: exponents below 2^40, coefficients 32-bit
    signed over Z."""
    rnd = random.Random(1)
    exps = sorted(rnd.sample(range(2**40), TERMS))
    if ring == "Z":
        cs = [rnd.choice((1, -1)) * rnd.randrange(1, 2**31) for _ in exps]
    else:
        cs = [1] * TERMS
    return _retained_per_term(RINGS[ring], exps, cs)


@pytest.mark.parametrize("ring, bound", [("Z", 56), ("GF2", 24)])
def test_footprint_per_term(ring, bound):
    # a tuple per term retained 126 B/term over Z and 96 over GF(2); two
    # tuples 78 and 48; an int64 array of exponents and a tuple of
    # coefficients about 46 and 16 (CPython 3.11, 64-bit)
    assert footprint(ring) < bound


# ---------------------------------------------------------------------------
# guard: nothing in the package reads .terms


def _no_terms(self):
    raise AssertionError("SparsePoly.terms read inside the package")


def _outcome(call):
    """call()'s value (a report as its dict) or the error it raised, as
    [type, message], and its POLY_MUL_OPS delta."""

    def run():
        try:
            value = call()
        except (ValueError, TypeError, PrimeGenerationError) as exc:
            return [type(exc).__name__, str(exc)]
        return value.to_dict() if isinstance(value, VerifyReport) else value

    return counted(run)


def assert_no_terms_read(call):
    """call() gives the same outcome with SparsePoly.terms raising, both
    runs after a first one that fills the caches of the rings (an
    irreducibility test is run once per ring, and its products counted
    once)."""
    _outcome(call)
    want = _outcome(call)
    with mock.patch.object(pc.SparsePoly, "terms", property(_no_terms)):
        got = _outcome(call)
    assert got == want


@pytest.fixture(scope="module")
def instances():
    """{ring: (F, G, H, P, HP)}: sparse F and G below degree 600, H = F*G,
    a monic sparse P of degree 700 and HP = (F*G) mod P."""
    rng = RngStream(48)
    out = {}
    for name, ctx in RINGS.items():
        F, G = rand_sparse(ctx, 600, 9, rng), rand_sparse(ctx, 600, 7, rng)
        P = rand_monic_sparse(ctx, 700, 4, rng)
        FG = pc.mul_oracle(F, G)
        out[name] = (F, G, FG, P, pc.mod_reduce(FG, P))
    return out


@pytest.mark.parametrize("ring", RINGS)
def test_readers_read_no_terms(ring, instances):
    F, G, H, P, HP = instances[ring]
    ctx = F.ctx
    rng = RngStream(7)
    alpha = ctx.x if ring == "GF2^8" else rand_coeff(ctx, rng)
    assert_no_terms_read(lambda: pc.mul_oracle(F, G))
    assert_no_terms_read(lambda: pc.mul_oracle(F.to_dense(), G.to_dense()))
    assert_no_terms_read(lambda: pc.mod_reduce(H, P))
    assert_no_terms_read(lambda: pc.mod_reduce(H.to_dense(), P))
    assert_no_terms_read(lambda: pc.reduce_mod_binomial(H, 97))
    assert_no_terms_read(lambda: pc.evaluate(H, alpha))
    assert_no_terms_read(lambda: eval_mod(P, F, G, alpha))
    if ring == "Z":  # a point of GF(p), and of a quotient ring over Z
        assert_no_terms_read(lambda: pc.evaluate(H, 12345, pc.GF(65537)))
        assert_no_terms_read(lambda: eval_mod(P, F, G, 12345, pc.GF(65537)))
    if ctx.int_modulus is not None:
        assert_no_terms_read(lambda: parse_poly(format_poly(H)))
        assert_no_terms_read(lambda: format_poly(parse_poly(format_poly(H))))


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("modular", [False, True], ids=["plain", "mod"])
def test_every_method_reads_no_terms(ring, modular, instances):
    F, G, H, P, HP = instances[ring]
    rng = RngStream(9)
    methods, X, Ps = (METHODS, HP, (P,)) if modular else (PRODUCT_METHODS, H, ())
    for method in methods:
        for eps, seed in ((Fraction(1, 4), 0), (Fraction(1, 2**20), 1)):
            cfg = VerifyConfig(eps, method, seed)
            for Y in (X, perturb_poly(X, rng)):
                assert_no_terms_read(lambda: pc.verify_product(F, G, Y, cfg, *Ps))


@pytest.mark.parametrize("ring, q", [("Z", None), ("GF", 3), ("GF", 65537)])
def test_cli_reads_no_terms(ring, q, tmp_path):
    # gen's sparse triples, a perturbed one, and a modular triple, through
    # main: the same exit codes and the same stdout
    ring_args = ["--ring", ring] + ([] if q is None else ["--q", str(q)])
    ctx = pc.ZZ if q is None else pc.GF(q)
    P = pc.SparsePoly(ctx, [(0, 1), (3, 2), (3000, 1)])
    prefix = str(tmp_path / "x")

    def cli(args):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(args)
        return code, out.getvalue()

    def run():
        runs = []
        for adversarial in ([], ["--adversarial", "perturb"], ["--adversarial", "lcm-divisors"]):
            gen = ["gen", *ring_args, "--n", "2999", "--T", "8", "--seed", "3"]
            runs.append(cli(gen + ["--out-prefix", prefix] + adversarial))
            files = [f"--{name}={prefix}_{name}.poly" for name in "FGH"]
            for method in PRODUCT_METHODS:
                runs.append(cli(["verify-prod", *files, "--method", method, "--seed", "1"]))
            F, G = (read_poly_file(f"{prefix}_{name}.poly") for name in "FG")
            write_poly_file(f"{prefix}_H.poly", pc.mod_reduce(pc.mul_oracle(F, G), P))
            write_poly_file(f"{prefix}_P.poly", P)
            for method in METHODS:
                runs.append(cli(["verify-mod", *files, f"--P={prefix}_P.poly",
                                 "--method", method, "--seed", "1"]))
        return runs

    want = run()
    with mock.patch.object(pc.SparsePoly, "terms", property(_no_terms)):
        assert run() == want
    assert {code for code, _ in want} >= {0, 1}


# ---------------------------------------------------------------------------
# parity with one tuple per term


def _exponents():
    """Exponents of every kind the constructor meets: small, near
    EXPONENT_CAP and past it, and negative."""
    return st.one_of(
        st.integers(0, 40),
        st.integers(0, 2**64),
        st.integers(EXPONENT_CAP - 2, EXPONENT_CAP + 2),
        st.integers(-3, -1),
    )


@st.composite
def pair_lists(draw, ctx=None, orders=("valid", "sorted", "any")):
    """(ctx, pairs): a ring of RINGS unless given and up to 12 pairs, their
    exponents valid (distinct, ascending, in range), only sorted, or in any
    order, as orders allows, their coefficients zero, one or anything of
    the ring (over Z any size)."""
    if ctx is None:
        ctx = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    if ctx == pc.ZZ:
        coeff = st.integers(-(2**70), 2**70)
    elif ctx.int_modulus:
        coeff = st.integers(-3 * ctx.int_modulus, 3 * ctx.int_modulus)
    else:
        coeff = st.integers(0, 255)
    coeff = st.sampled_from((0, 1)) | coeff
    order = draw(st.sampled_from(orders))
    if order == "valid":
        valid = (
            st.integers(0, 40)
            | st.integers(0, EXPONENT_CAP)
            | st.integers(EXPONENT_CAP - 40, EXPONENT_CAP)
        )
        exps = sorted(draw(st.sets(valid, max_size=12)))
    else:
        exps = draw(st.lists(_exponents(), max_size=12))
        if order == "sorted":
            exps.sort()
    return ctx, [(e, draw(coeff)) for e in exps]


def _message(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _same_as_pairs(X, want):
    """X holds want, a tuple of pairs, and shows them as a pair list did."""
    assert X.terms == want
    assert tuple(X.exps) == tuple(e for e, _ in want) and X.cs == tuple(c for _, c in want)
    assert repr(X) == f"SparsePoly({X.ctx!r}, {list(want)!r})"
    assert X.sparsity() == len(want)
    for e, c in want:
        assert X.coeff(e) == c
    assert X == pc.SparsePoly(X.ctx, want) and hash(X) == hash(pc.SparsePoly(X.ctx, want))


@given(pair_lists())
def test_constructor_and_from_dict_match_one_tuple_per_term(instance):
    ctx, pairs = instance
    message = _message(lambda: pair_terms(ctx, pairs))
    assert _message(lambda: pc.SparsePoly(ctx, pairs)) == message
    if message is None:
        want = pair_terms(ctx, pairs)
        X = pc.SparsePoly(ctx, pairs)
        _same_as_pairs(X, want)
        assert X == pc.SparsePoly.trusted(ctx, X.exps, X.cs)
        if want:  # one coefficient changed, or one term dropped, is another polynomial
            assert X != pc.SparsePoly(ctx, want[:-1])
            e, c = want[-1]
            assert X != pc.SparsePoly(ctx, want[:-1] + ((e, ctx.add(c, ctx.one())),))
        if ctx.int_modulus is not None:
            _same_as_pairs(parse_poly(format_poly(X)), want)
        if X.is_zero() or X.degree() < 2**12:
            _same_as_pairs(X.to_dense().to_sparse(), want)
    d = dict(pairs)
    message = _message(lambda: pair_terms(ctx, sorted(d.items())))
    assert _message(lambda: pc.SparsePoly.from_dict(ctx, d)) == message
    if message is None:
        _same_as_pairs(pc.SparsePoly.from_dict(ctx, d), pair_terms(ctx, sorted(d.items())))


def test_each_exponent_error():
    for pairs, message in (
        ([(-1, 1)], "negative exponent -1"),
        ([(2, 1), (-1, 1)], "negative exponent -1"),
        ([(2, 1), (2, 3)], "exponents must be strictly increasing"),
        ([(5, 1), (2, 3)], "exponents must be strictly increasing"),
        ([(0, 1), (EXPONENT_CAP + 1, 1)], "exponent exceeds 2^63 - 1"),
    ):
        for ctx in RINGS.values():
            assert _message(lambda: pair_terms(ctx, pairs)) == message
            assert _message(lambda: pc.SparsePoly(ctx, pairs)) == message
    d = {-2: 1, 3: 1}
    assert _message(lambda: pc.SparsePoly.from_dict(pc.ZZ, d)) == "negative exponent -2"


@given(pair_lists(), st.data())
def test_dense_to_sparse_and_mul_oracle_match_one_tuple_per_term(instance, data):
    ctx, pairs = instance
    cs = [c for _, c in pairs]
    D = pc.DensePoly(ctx, cs)
    _same_as_pairs(D.to_sparse(), pair_terms(ctx, enumerate(D.coeffs)))
    F, G = (
        pc.SparsePoly.from_dict(ctx, {e % 2**20: c for e, c in X})
        for X in (pairs, data.draw(pair_lists(ctx))[1])
    )
    _same_as_pairs(pc.mul_oracle(F, G), _pair_product_sparse(F, G).terms)


# ---------------------------------------------------------------------------
# one layout: an int64 array of exponents, whoever builds the polynomial


def _assert_layout(X, exps):
    """X keeps exps, the exponents expected, as one array('q')."""
    assert type(X.exps) is array and X.exps.typecode == "q"
    assert X.exps.tolist() == list(exps)


def _folded(ctx, pairs, i):
    """The terms of pairs with every exponent taken mod i, summed."""
    acc = {}
    for e, c in pairs:
        acc[e % i] = ctx.add(acc.get(e % i, ctx.zero()), c)
    return pair_terms(ctx, sorted(acc.items()))


@given(pair_lists(orders=("valid",)), st.data())
def test_every_producer_keeps_one_int64_array(instance, data):
    ctx, pairs = instance
    want = pair_terms(ctx, pairs)
    exps = [e for e, _ in want]
    X = pc.SparsePoly(ctx, pairs)
    made = [X, pc.SparsePoly.from_dict(ctx, dict(pairs))]
    # trusted drops the zero coefficients with their exponents, from any iterable
    raw, cs = [e for e, _ in pairs], [ctx.canon(c) for _, c in pairs]
    for es in (raw, tuple(raw), (e for e in raw), array("q", raw)):
        made.append(pc.SparsePoly.trusted(ctx, es, cs))
        assert made[-1].exps is not es
    if ctx.int_modulus is not None:
        made.append(parse_poly(format_poly(X)))
    for Y in made:
        _assert_layout(Y, exps)
        assert Y == X and hash(Y) == hash(X)

    dense = pair_terms(ctx, enumerate(cs))
    for Y in (pc.SparsePoly.trusted(ctx, range(len(cs)), cs), pc.DensePoly(ctx, cs).to_sparse()):
        _assert_layout(Y, [e for e, _ in dense])
        assert Y == pc.SparsePoly(ctx, dense) and hash(Y) == hash(pc.SparsePoly(ctx, dense))

    i = data.draw(st.integers(1, 50) | st.integers(1, EXPONENT_CAP), label="i")
    Y = pc.reduce_mod_binomial(X, i)
    _assert_layout(Y, [e for e, _ in _folded(ctx, want, i)])
    if want:  # a monic P of degree near deg X, so the oracle's division is short
        n = max(1, X.degree() - data.draw(st.integers(0, 12), label="gap"))
        low = st.integers(max(0, n - 12), n - 1) | st.integers(0, min(n - 1, 12))
        d = {e: ctx.one() for e in data.draw(st.lists(low, max_size=3), label="low")}
        P = pc.SparsePoly.from_dict(ctx, {**d, n: ctx.one()})
        ref = _sparse_long_division_rem(X, P)
        Y = pc.mod_reduce(X, P)
        _assert_layout(Y, [e for e, _ in ref.terms])
        assert Y == ref
    F, G = (
        pc.SparsePoly.from_dict(ctx, {e % 2**20: c for e, c in Z})
        for Z in (pairs, data.draw(pair_lists(ctx))[1])
    )
    ref = _pair_product_sparse(F, G)
    _assert_layout(pc.mul_oracle(F, G), [e for e, _ in ref.terms])


@given(
    st.sampled_from([["--ring", "Z"], ["--ring", "GF", "--q", "2"], ["--ring", "GF", "--q", "65537"]]),
    st.integers(1, 3000) | st.integers(2**62 - 50, 2**62 - 1),
    st.integers(2, 8),
    st.sampled_from(["none", "perturb", "lcm-divisors", "example2"]),
    st.integers(0, 2**32),
)
def test_gen_keeps_one_int64_array(ring, n, t, kind, seed):
    # every SparsePoly gen --T formats is an array('q') holding the
    # exponents its file holds; lcm-divisors scans the fold range of n
    if kind == "lcm-divisors" and n > 3000:
        kind = "perturb"
    seen = []

    def record(X):
        text = format_poly(X)
        seen.append((X, text))
        return text

    args = ["gen", *ring, "--n", str(n), "--T", str(t), "--seed", str(seed)]
    if kind != "none":
        args += ["--adversarial", kind]
    with tempfile.TemporaryDirectory() as d, mock.patch.object(cli, "format_poly", record):
        assert main(args + ["--out-prefix", f"{d}/x"]) == 0
    assert len(seen) == 3
    for X, text in seen:
        _assert_layout(X, [int(tok.split(":")[0]) for tok in text.splitlines()[1].split()[1:]])
        assert parse_poly(text) == X


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("modular", [False, True], ids=["plain", "mod"])
def test_verifiers_leave_exps_unchanged(ring, modular, instances):
    F, G, H, P, HP = instances[ring]
    methods, X, Ps = (METHODS, HP, (P,)) if modular else (PRODUCT_METHODS, H, ())
    Y = perturb_poly(X, RngStream(9))
    polys = (F, G, X, Y, *Ps)
    want = [Z.exps.tobytes() for Z in polys]
    for method in methods:
        for eps, seed in ((Fraction(1, 4), 0), (Fraction(1, 2**20), 1)):
            for Z in (X, Y):
                try:
                    pc.verify_product(F, G, Z, VerifyConfig(eps, method, seed), *Ps)
                except (ValueError, TypeError, PrimeGenerationError):
                    pass  # a method refused the instance; it still must not write
    assert [Z.exps.tobytes() for Z in polys] == want


if __name__ == "__main__":
    for name in ("Z", "GF2"):
        print(f"retained bytes per term of a parsed {TERMS}-term polynomial over {name}: "
              f"{footprint(name):.1f}")
