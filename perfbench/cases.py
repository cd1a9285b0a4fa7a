"""Workloads of the polycheck benchmark.

A workload is a list of cases.  A case is one verifier entry point on one
kind of instance; its name is the end-to-end metric that reports its
latency (for example ``mod_nomul_s``).  Inputs are drawn from the
benchmark's own ``random.Random`` streams, keyed by workload, seed and case,
so the program under test never sees the seed and a change to its RNG does
not change the inputs.  Ground truth is the program's reference product
``poly.mul_oracle`` (plus ``poly.mod_reduce`` for modular cases).
"""

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

EPS_STRICT = Fraction(1, 2**20)
EPS_LOOSE = Fraction(1, 4)
Q_SMALL = 65537
Q_MERSENNE = 2**61 - 1


@dataclass(frozen=True)
class Case:
    """One verifier entry point on one kind of instance."""

    metric: str  # end-to-end metric name of the case's latency
    entry: str  # "cli verify-mod", "cli verify-prod" or "<module>.<function>"
    ring: str  # "Z" or "GF <q>"
    n: int  # degree of P for modular cases, coefficient count for products
    terms: int  # terms per factor for sparse inputs, 0 for dense ones
    eps: Fraction  # epsilon of the true instances; wrong ones use EPS_STRICT
    method: str = "auto"  # VerifyConfig.method / CLI --method
    p_low: tuple = ()  # (exponent, coefficient) terms of P below X^n
    degree: int = 0  # for sparse products: exponents of F and G stay below this

    @property
    def cli(self):
        return self.entry.startswith("cli ")

    @property
    def modular(self):
        return bool(self.p_low)


def _dense_mod(tiny):
    n = 2**6 if tiny else 2**13
    n_nomul = 2**5 if tiny else 2**11
    odd_p = ((0, 1), (1, 5))  # X^n + 5X + 1
    gf2_p = ((0, 1), (3, 1))  # X^n + X^3 + 1
    return [
        Case("mod_auto_s", "cli verify-mod", f"GF {Q_SMALL}", n, 0, EPS_STRICT, p_low=odd_p),
        Case("mod_direct_s", "modverify.verify_mod", f"GF {Q_MERSENNE}", n, 0, EPS_STRICT,
             p_low=odd_p),
        Case("mod_companion_s", "modverify.verify_mod_ff", "GF 2", n, 0, EPS_STRICT,
             "companion-freivalds", gf2_p),
        Case("mod_nomul_s", "modverify.verify_mod_ff", "GF 2", n_nomul, 0, EPS_LOOSE,
             "companion-no-polymul", gf2_p),
    ]


def _sparse(tiny):
    n = 2**10 if tiny else 2**20
    p = ((0, 1), (17, 1))  # X^n + X^17 + 1
    t = 4 if tiny else 32
    return [
        Case("mod_auto_s", "cli verify-mod", "GF 2", n, t, EPS_STRICT, p_low=p),
        Case("mod_direct_s", "modverify.verify_mod_over_Z", "Z", n, t, EPS_STRICT, p_low=p),
        Case("mod_companion_s", "modverify.verify_mod_ff", "GF 2", n, 2 if tiny else 8,
             EPS_LOOSE, "companion-freivalds", p),
        Case("prod_auto_s", "cli verify-prod", "GF 2", 0, t, EPS_STRICT,
             degree=2**12 if tiny else 2**29),
        Case("prod_sparse_s", "prodverify.verify_sparse_product", "Z", 0, 8 if tiny else 64,
             EPS_STRICT, degree=2**20 if tiny else 2**39),
    ]


def _dense_prod(tiny):
    n = 2**5 if tiny else 2**12
    return [
        Case("prod_auto_s", "cli verify-prod", f"GF {Q_SMALL}", n, 0, EPS_STRICT),
        Case("prod_kaminski_s", "prodverify.verify_product_kaminski", "Z", n, 0, EPS_STRICT),
        Case("prod_kronecker_s", "prodverify.verify_product_kronecker", "Z", n, 0, EPS_STRICT),
        Case("prod_nomul_s", "prodverify.verify_product_kaminski_nomul", "Z", n, 0, EPS_LOOSE),
    ]


WORKLOADS = {"dense-mod": _dense_mod, "sparse": _sparse, "dense-prod": _dense_prod}
# Instances per case.  Sparse verifier costs depend on the instance (exponent
# gaps, the number of nonzero leading coefficients), so that workload rotates
# over six; the dense costs barely do, and their reference products are
# too slow to set up more than once per case.
INSTANCES = {"dense-mod": 1, "sparse": 6, "dense-prod": 1}
# Nominal-host seconds one cycle took when the benchmark was defined.  A run
# makes round(seconds / CYCLE_S) cycles, so every run of a workload makes the
# same calls, however fast the host or the program is.
CYCLE_S = {"dense-mod": 4.25, "sparse": 8.75, "dense-prod": 4.6}

# every case metric of any workload, in report order
CASE_METRICS = (
    "mod_auto_s",
    "mod_direct_s",
    "mod_companion_s",
    "mod_nomul_s",
    "prod_auto_s",
    "prod_kaminski_s",
    "prod_kronecker_s",
    "prod_nomul_s",
    "prod_sparse_s",
)


def cases(workload, tiny=False):
    return WORKLOADS[workload](tiny)


# ---------------------------------------------------------------------------
# instance generation


def _ctx(pc, ring):
    return pc.ZZ if ring == "Z" else pc.GF(int(ring.split()[1]))


def _coeff(ctx, rng):
    """A nonzero coefficient: 32-bit signed over Z, uniform over GF(q)."""
    if hasattr(ctx, "q"):
        return rng.randrange(1, ctx.q)
    c = 0
    while c == 0:
        c = rng.randrange(-(2**31), 2**31)
    return c


def _dense(pc, ctx, n, rng):
    """n coefficients (degree exactly n - 1)."""
    if hasattr(ctx, "q"):
        cs = [rng.randrange(ctx.q) for _ in range(n - 1)]
    else:
        cs = [rng.randrange(-(2**31), 2**31) for _ in range(n - 1)]
    return pc.DensePoly(ctx, cs + [_coeff(ctx, rng)])


def _sparse_poly(pc, ctx, bound, t, rng):
    """t terms with distinct exponents below bound, the top one bound - 1."""
    exps = {bound - 1}
    while len(exps) < t:
        exps.add(rng.randrange(bound - 1))
    return pc.SparsePoly(ctx, [(e, _coeff(ctx, rng)) for e in sorted(exps)])


def _bump(pc, H, rng):
    """H with one coefficient increased by one: a wrong answer for sure."""
    ctx = H.ctx
    if isinstance(H, pc.SparsePoly):
        terms = dict(H.terms)
        e = rng.choice(sorted(terms))
        terms[e] = ctx.add(terms[e], ctx.one())
        return pc.SparsePoly.from_dict(ctx, terms)
    cs = list(H.coeffs)
    i = rng.randrange(len(cs))
    cs[i] = ctx.add(cs[i], ctx.one())
    return pc.DensePoly(ctx, cs)


@dataclass
class Instance:
    """A case's inputs, true answer H, wrong answer Hw and CLI files."""

    case: Case
    F: object
    G: object
    P: object
    H: object
    Hw: object
    ref_s: float  # wall time of the reference product (plus reduction)
    files: dict


def build(pc, workload, seed, case, index, file_dir):
    """Generate instance `index` of a case, its ground truth and, for CLI
    cases, its .poly files under file_dir."""
    rng = random.Random(f"{workload}/{seed}/{case.metric}/{index}")
    ctx = _ctx(pc, case.ring)
    P = None
    if case.modular:
        P = pc.SparsePoly(ctx, list(case.p_low) + [(case.n, 1)])
    if case.terms:
        bound = case.n if case.modular else case.degree
        F = _sparse_poly(pc, ctx, bound, case.terms, rng)
        G = _sparse_poly(pc, ctx, bound, case.terms, rng)
    else:
        F = _dense(pc, ctx, case.n, rng)
        G = _dense(pc, ctx, case.n, rng)
    t0 = time.perf_counter()
    H = pc.mul_oracle(F, G)
    if P is not None:
        H = pc.mod_reduce(H, P)
    ref_s = time.perf_counter() - t0
    Hw = _bump(pc, H, rng)
    files = {}
    if case.cli:
        named = {"F": F, "G": G, "H": H, "Hw": Hw}
        if P is not None:
            named["P"] = P
        for name, X in named.items():
            path = os.path.join(file_dir, f"{case.metric}_{index}_{name}.poly")
            pc.poly.write_poly_file(path, X)
            files[name] = path
    return Instance(case, F, G, P, H, Hw, ref_s, files)


def _eps_text(eps):
    return f"{eps.numerator}/{eps.denominator}"


def call(pc, inst, wrong, seed):
    """Run the case's verifier once and return its verdict (True = accept).

    Wrong instances always run at EPS_STRICT, so accepting one is a failure.
    CLI cases run ``polycheck.cli.main`` in process with its stdout
    captured; an exit code other than 0 or 1 raises RuntimeError.
    """
    case = inst.case
    eps = EPS_STRICT if wrong else case.eps
    if case.cli:
        command = case.entry.split()[1]
        f = inst.files
        argv = [command, "--F", f["F"], "--G", f["G"], "--H", f["Hw" if wrong else "H"]]
        if case.modular:
            argv += ["--P", f["P"]]
        argv += ["--method", case.method, "--epsilon", _eps_text(eps), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = pc.cli.main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"{case.metric}: polycheck {command} exited {code}")
        return code == 0
    module, function = case.entry.split(".")
    verifier = getattr(getattr(pc, module), function)
    cfg = pc.VerifyConfig(epsilon=eps, method=case.method, seed=seed)
    H = inst.Hw if wrong else inst.H
    if case.modular:
        return verifier(inst.F, inst.G, H, inst.P, cfg).verdict
    return verifier(inst.F, inst.G, H, cfg).verdict
