"""Command-line front end.

Subcommands: verify-mod (modular products), verify-prod (plain products),
gen (instance files, optionally adversarial), bench (CSV timing harness).
Exit codes: 0 the identity verified, 1 it was rejected, 2 usage, parse or
file error.  Verification reports are printed as one JSON object per line.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import modverify, prodverify
from .modverify import PRODUCT_METHODS, VerifyConfig
from .poly import (
    EXPONENT_CAP,
    DensePoly,
    PolyFormatError,
    SparsePoly,
    format_poly,
    mod_reduce,
    mul_oracle,
    read_poly_file,
)
from .rings import GF, PrimeGenerationError, RngStream, ZZ, is_prime


class CliError(Exception):
    pass


# the least normal double: below it the error bound a report prints, the
# least double >= epsilon, is a subnormal coarser than epsilon
EPSILON_FLOOR = Fraction(1, 2**1022)


def _parse_epsilon(text):
    try:
        if "^" in text:
            base, exp = (int(x) for x in text.split("^", 1))
            if (abs(base).bit_length() - 1) * abs(exp) > 1022:
                # |base^exp| is past 2^1022 or below 2^-1022: (+-2)^(+-1023)
                # of the same sign meets the same range check, unbuilt
                base, exp = (2 if base > 0 or exp % 2 == 0 else -2), (1023 if exp > 0 else -1023)
            eps = Fraction(base) ** exp
        elif "/" in text:
            eps = Fraction(text)
        else:
            # the exact value where the float underflows to 0.0, so a
            # positive epsilon such as 1e-400 meets the floor's message.
            # Its mantissa has fewer than len(text) digits, so its exponent
            # raised to -400 - len(text) keeps it 0, or of its sign and below
            # 10^-400, and builds no power of ten of the exponent's size
            raised = lambda m: str(max(int(m[0]), -400 - len(text)))
            eps = Fraction(float(text)) or Fraction(re.sub(r"(?<=[eE])[-+]?\d+", raised, text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(f"bad epsilon {text!r}: {exc}") from None
    if not 0 < eps < 1:
        raise CliError("epsilon must be in (0, 1)")
    if eps < EPSILON_FLOOR:
        raise CliError("epsilon must be at least 2^-1022")
    return eps


def _seed_from(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("POLYPROOF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"bad POLYPROOF_SEED {env!r}") from None
    return 0


def _file_error(path, exc):
    """The CliError for a file that cannot be read or written."""
    return CliError(f"{path}: {getattr(exc, 'strerror', None) or exc}")


def _load(path):
    try:
        return read_poly_file(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc) from None
    except PolyFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def _same_ctx(*polys):
    ctx = polys[0].ctx
    for p in polys[1:]:
        if p.ctx != ctx:
            raise CliError("input polynomials live in different rings")


def _print_report(report, command):
    payload = report.to_dict()
    payload["command"] = command
    print(json.dumps(payload, sort_keys=True))


def _verify(command, files, args):
    """The verify commands: the polynomials of the file flags named in
    files (F, G, H and, for verify-mod, P), in one ring, checked by
    prodverify.verify_product at the method, epsilon and seed of the
    command line; the report is printed and its verdict is the exit
    code."""
    polys = [_load(getattr(args, name)) for name in files]
    _same_ctx(*polys)
    cfg = VerifyConfig(
        epsilon=_parse_epsilon(args.epsilon), method=args.method, seed=_seed_from(args)
    )
    F, G, H, *P = polys
    try:
        report = prodverify.verify_product(F, G, H, cfg, *P)
    except (ValueError, TypeError, PrimeGenerationError) as exc:
        raise CliError(str(exc)) from None
    _print_report(report, command)
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------
# instance generation


def _random_sparse(ctx, n, t, coeff_bits, rng):
    exps = set()
    t = min(t, n + 1)
    exps.add(n)
    while len(exps) < t:
        exps.add(rng.below(n))
    exps = sorted(exps)
    cs = []
    for _ in exps:
        c = ctx.zero()
        while ctx.is_zero(c):
            if ctx == ZZ:
                c = rng.bits(coeff_bits) - (1 << (coeff_bits - 1)) if coeff_bits > 1 else 1
            else:
                c = rng.below(ctx.q)
        cs.append(c)
    return SparsePoly(ctx, zip(exps, cs))


def _random_dense(ctx, n, coeff_bits, rng):
    cs = []
    for _ in range(n):
        if ctx == ZZ:
            cs.append(rng.bits(coeff_bits) - (1 << (coeff_bits - 1)))
        else:
            cs.append(rng.below(ctx.q))
    top = ctx.zero()
    while ctx.is_zero(top):
        top = 1 if ctx == ZZ else rng.below(ctx.q)
    return DensePoly(ctx, cs + [top])


def _perturb(H, rng):
    ctx = H.ctx
    if isinstance(H, SparsePoly):
        terms = dict(zip(H.exps, H.cs))
        if H.exps:
            k = rng.below(len(H.exps))
            terms[H.exps[k]] = ctx.add(H.cs[k], ctx.one())
        else:
            terms[1] = ctx.one()
        return SparsePoly.from_dict(ctx, terms)  # drops a term bumped to zero
    cs = list(H.coeffs) or [ctx.zero()]
    i = rng.below(len(cs))
    cs[i] = ctx.add(cs[i], ctx.one())
    return DensePoly(ctx, cs)


def _divisors(m):
    """The divisors of m >= 1, by trial division up to sqrt(m)."""
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return {*low, *(m // d for d in low)}


def _lcm_adversarial(n, rng):
    """The L of a difference X^L - 1 added to F*G, a multiple of several
    fold degrees, so many binomials X^i - 1 divide the difference.  L
    starts at a random fold degree and takes in, in increasing order, each
    later one whose lcm with it stays at most 2n.  Such an i is d k for a
    divisor d of L and k <= 2n // L, so the search steps from one such
    multiple to the next rather than through the fold range, and it ends
    once L > n, where only divisors of L, which leave it as it is, would
    join.  The divisors of L m are the products of one of L and one of m."""
    lo, hi = prodverify.KaminskiParams().fold_range(n)
    i = L = lo + rng.below(max(hi - lo, 1))
    divisors = _divisors(L)
    while L <= n:
        i = min(((i // d + 1) * d for d in divisors if i // d < 2 * n // L), default=hi)
        if i >= hi:
            break
        m = math.lcm(L, i) // L
        L *= m
        divisors = {d * e for e in _divisors(m) for d in divisors}
    return L


def _example2_triple(ctx, t):
    F = SparsePoly(ctx, [(i, ctx.one()) for i in range(t)])
    terms = []
    for i in range(t):
        terms.append((i * t, ctx.neg(ctx.one())))
        terms.append((i * t + 1, ctx.one()))
    G = SparsePoly.from_dict(ctx, dict(terms))
    H = SparsePoly.from_dict(ctx, {0: ctx.neg(ctx.one()), t * t: ctx.one()})
    return F, G, H


def _cmd_gen(args):
    if args.ring == "GF" and args.q is None:
        raise CliError("--q is required with --ring GF")
    if args.ring == "Z" and args.q is not None:
        raise CliError("--q is not allowed with --ring Z")
    if args.ring == "GF" and not is_prime(args.q):
        raise CliError(f"--q {args.q} is not prime")
    if args.n < 0:
        raise CliError("--n must be >= 0")
    if args.T is not None and 2 * args.n > EXPONENT_CAP:  # F*G has degree 2n
        raise CliError(f"--n {args.n} is too large: 2n must be at most {EXPONENT_CAP}")
    if args.coeff_bits < 1:
        raise CliError("--coeff-bits must be >= 1")
    ctx = ZZ if args.ring == "Z" else GF(args.q)
    rng = RngStream(_seed_from(args))
    kind = args.adversarial or "none"
    sparse_mode = args.T is not None
    t = args.T or 0
    if kind == "example2":
        if not sparse_mode or t < 2:
            raise CliError("example2 needs --T >= 2")
        F, G, H = _example2_triple(ctx, t)
        true_product = True
    else:
        if sparse_mode:
            if t < 1:
                raise CliError("--T must be >= 1")
            F = _random_sparse(ctx, args.n, t, args.coeff_bits, rng)
            G = _random_sparse(ctx, args.n, t, args.coeff_bits, rng)
        else:
            F = _random_dense(ctx, args.n, args.coeff_bits, rng)
            G = _random_dense(ctx, args.n, args.coeff_bits, rng)
        H = mul_oracle(F, G)
        true_product = True
        if kind == "perturb":
            H = _perturb(H, rng)
            true_product = False
        elif kind == "lcm-divisors":
            L = _lcm_adversarial(max(args.n, 4), rng)
            S = H.to_sparse()
            acc = dict(zip(S.exps, S.cs))
            for e, c in ((0, ctx.neg(ctx.one())), (L, ctx.one())):
                acc[e] = ctx.add(acc.get(e, ctx.zero()), c)
            H = SparsePoly.from_dict(ctx, acc)  # drops the terms that cancel
            if not sparse_mode:
                H = H.to_dense()
            true_product = False
    texts = {}  # all three, before any file is written
    for name, X in (("F", F), ("G", G), ("H", H)):
        path = f"{args.out_prefix}_{name}.poly"
        try:
            texts[path] = format_poly(X)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
    for path, text in texts.items():
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise _file_error(path, exc) from None
    manifest = {
        "ring": args.ring if args.ring == "Z" else f"GF {args.q}",
        "n": args.n,
        "T": args.T,
        "coeff_bits": args.coeff_bits,
        "seed": _seed_from(args),
        "adversarial": kind,
        "true_product": true_product,
        "files": dict(zip("FGH", texts)),
    }
    print(json.dumps(manifest, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# bench


def _time_call(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _bench_rows(row, trials, rng, draw, multiply, verify):
    """The table row for one suite and size: per trial, draw F and G, time
    the reference multiply(F, G) and then verify(F, G, H, cfg) on its
    result H.  No trials give no row."""
    verify_t = 0.0
    mul_t = 0.0
    accepted = 0
    for _ in range(trials):
        F, G = draw(), draw()
        tm, H = _time_call(lambda: multiply(F, G))
        mul_t += tm
        cfg = VerifyConfig(epsilon=Fraction(1, 2**20), seed=rng.bits(32))
        tv, report = _time_call(lambda: verify(F, G, H, cfg))
        verify_t += tv
        accepted += 1 if report.verdict else 0
    if not trials:
        return []
    return [
        dict(
            row,
            trials=trials,
            verify_mean_s=f"{verify_t / trials:.6f}",
            multiply_mean_s=f"{mul_t / trials:.6f}",
            acceptance_rate=f"{accepted / trials:.4f}",
        )
    ]


def _bench_modverify(n, trials, rng):
    ctx = GF(65537)
    P = SparsePoly(ctx, [(0, 1), (1, rng.below(ctx.q - 1) + 1), (n, 1)])
    return _bench_rows(
        {"method": "verify_mod", "ring": "GF 65537", "n": n, "T": "", "bits": 17},
        trials,
        rng,
        lambda: _random_dense(ctx, n - 1, 16, rng),
        lambda F, G: mod_reduce(mul_oracle(F, G), P),
        lambda F, G, H, cfg: modverify.verify_mod_ff(F, G, H, P, cfg),
    )


def _bench_prodverify(n, trials, rng):
    t = 32
    return _bench_rows(
        {"method": "verify_sparse_product", "ring": "Z", "n": n, "T": t, "bits": 32},
        trials,
        rng,
        lambda: _random_sparse(ZZ, n, t, 32, rng),
        mul_oracle,
        prodverify.verify_sparse_product,
    )


BENCH_COLUMNS = [
    "method",
    "ring",
    "n",
    "T",
    "bits",
    "trials",
    "verify_mean_s",
    "multiply_mean_s",
    "acceptance_rate",
]


def _check_bench_args(sizes, trials):
    # the modverify suite's P = X^n + aX + 1 needs n >= 2, and both suites
    # take the same sizes; zero trials gives a header-only table
    if trials < 0:
        raise CliError(f"trials must be >= 0, got {trials}")
    for n in sizes:
        if n < 2:
            raise CliError(f"sizes must be >= 2, got {n}")


def run_bench(suite, sizes, trials, seed):
    _check_bench_args(sizes, trials)
    rng = RngStream(seed)
    rows = []
    for n in sizes:
        if suite == "modverify":
            rows.extend(_bench_modverify(n, trials, rng))
        elif suite == "prodverify":
            rows.extend(_bench_prodverify(n, trials, rng))
        else:
            raise CliError(f"unknown suite {suite!r}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in sorted(rows, key=lambda r: (r["method"], r["n"])):
        writer.writerow(row)
    return buf.getvalue()


def _cmd_bench(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise CliError(f"bad sizes {args.sizes!r}") from None
    _check_bench_args(sizes, args.trials)
    try:
        # the CSV file is opened before the run: a path that cannot be
        # written fails at once, not after the whole benchmark
        with open(args.csv, "w", encoding="ascii") if args.csv else io.StringIO() as fh:
            out = run_bench(args.suite, sizes, args.trials, _seed_from(args))
            fh.write(out)
    except OSError as exc:
        raise _file_error(args.csv, exc) from None
    sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polycheck",
        description="Probabilistic verification of polynomial products and modular products.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # the verify commands: command, help, file flags and methods
    for command, help_text, files, methods in (
        ("verify-mod", "check H = (F*G) mod P", "FGHP", modverify.METHODS),
        ("verify-prod", "check H = F*G", "FGH", PRODUCT_METHODS),
    ):
        verify = sub.add_parser(command, help=help_text)
        for name in files:
            verify.add_argument(f"--{name}", required=True)
        verify.add_argument("--epsilon", default="2^-20")
        verify.add_argument("--method", default="auto", choices=list(methods))
        verify.add_argument("--seed", type=int, default=None)
        verify.set_defaults(fn=functools.partial(_verify, command, files))

    gen = sub.add_parser("gen", help="generate an instance triple F, G, H")
    gen.add_argument("--ring", required=True, choices=["Z", "GF"])
    gen.add_argument("--q", type=int, default=None)
    gen.add_argument("--n", type=int, default=64)
    gen.add_argument("--T", type=int, default=None)
    gen.add_argument("--coeff-bits", type=int, default=16, dest="coeff_bits")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out-prefix", required=True, dest="out_prefix")
    gen.add_argument(
        "--adversarial",
        default=None,
        choices=["perturb", "lcm-divisors", "example2"],
    )
    gen.set_defaults(fn=_cmd_gen)

    bench = sub.add_parser("bench", help="timing and acceptance-rate harness")
    bench.add_argument("--suite", required=True, choices=["modverify", "prodverify"])
    bench.add_argument("--sizes", default="1024")
    bench.add_argument("--trials", type=int, default=4)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--csv", default=None)
    bench.set_defaults(fn=_cmd_bench)
    return ap


@functools.cache
def _parser():
    """The parser of main, built once per process: building it costs more
    than parsing a command line, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
