"""Probabilistic verification of H = (F*G) mod P.

All verdicts are one-sided (True-biased): a correct H is always accepted,
and a wrong one is accepted with probability at most the configured epsilon.
Every random choice made along the way is recorded in the report's witness
list so a failing run can be replayed from its seed.

Every method but "companion-no-polymul" compares both sides once, at the
point that point_kind picks and draw_point draws; that pair is the one
point policy of the package.  _verify_at_point is the one check at that
point, for plain products too: with P None it decides H = F*G, which is
prodverify's one-point Kaminski check and its sparse check where no fold
prime can be below the degree, and its comparison _agree_at is
also the one of prodverify's check at 2^w modulo a prime.  Over Z, F, G,
H and P are read as they are at a point of GF(q),
never copied into GF(q): the evaluation kernels and the scans reduce the
integers as they read them.  Only "companion-no-polymul" makes many
unscreened draws instead.  verify_mod_ff runs every method on every ring
the policy serves, and _check_method, which point_kind asks, is the one
rule of which ring may run which method.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import modeval
from .modeval import triple_forms
from .poly import (
    all_sparse,
    evaluate,
    gap_info,
    power_table,
    product_norm_bound,
    reduced_norm_bound,
)
from .rings import (
    ZZ,
    ExtField,
    PrimeField,
    RngStream,
    ln_pow2_upper,
    ln_upper,
    random_irreducible,
    random_monic,
    random_prime,
)

METHODS = (
    "auto",
    "direct-eval",
    "extension",
    "companion-freivalds",
    "companion-no-polymul",
)
# the methods of prodverify.verify_product's plain check, in the order the
# CLI lists them
PRODUCT_METHODS = ("auto", "kaminski", "kaminski-nomul", "kronecker", "sparse")


class FieldTooSmallError(ValueError):
    """The coefficient field is too small for a random point of it to reach
    the error bound (point_kind), and the check may not extend it; use
    verify_mod_ff or a companion method instead."""


@dataclass(frozen=True)
class VerifyConfig:
    epsilon: Fraction = Fraction(1, 2**20)
    method: str = "auto"
    seed: int = 0

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        if not 0 < eps < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.method not in METHODS + PRODUCT_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "epsilon", eps)


@dataclass
class VerifyReport:
    verdict: bool
    error_bound: float
    rounds: int
    witnesses: list = field(default_factory=list)
    method: str = ""
    seed: int = 0

    def to_dict(self):
        return {
            "schema": 1,
            "verdict": self.verdict,
            "error_bound": self.error_bound,
            "rounds": self.rounds,
            "witnesses": self.witnesses,
            "method": self.method,
            "seed": self.seed,
        }


def bound_above(eps):
    """The error_bound a report of a check at eps states: the least double
    >= eps, as float(eps) rounds to nearest and underflows to 0.0 below
    2^-1074."""
    b = float(eps)
    return b if Fraction(b) >= eps else math.nextafter(b, math.inf)


def reduced_product_terms(F, G, P, cap):
    """#F #G max(#P - 1, 1)^ceil(1/gamma), which bounds the terms of
    (F*G) mod P and, up to a small factor, the term operations of
    mod_reduce(mul_oracle(F, G), P); or some value above cap once the bound
    exceeds cap.  The power is built a factor at a time and stops there, so
    a modulus with a tiny gap costs O(log cap) products, not a number with
    ceil(1/gamma) digits."""
    base = max(P.sparsity() - 1, 1)
    k = gap_info(P).inv_gamma_ceil()
    bound = F.sparsity() * G.sparsity()
    while k and bound and base > 1 and bound <= cap:
        bound *= base
        k -= 1
    return bound


def sparsity_precheck(F, G, H, P):
    """Step-one rejection: a true (F*G) mod P can never have more than
    #F #G (#P - 1)^ceil(1/gamma) terms (needs #P >= 2)."""
    if P.sparsity() < 2:
        return False
    return H.sparsity() > reduced_product_terms(F, G, P, H.sparsity())


def verify_mod(F, G, H, P, cfg=None):
    """Decide H = (F*G) mod P at a random point of the coefficient field,
    or over Z at a random point of GF(q) for a random prime q (point_kind).
    It never extends the field: where the field is too small for the bound
    it raises FieldTooSmallError.  Over Z nothing is copied into GF(q): H
    is evaluated as it is (poly.evaluate), and the scan reads F, G and P
    as they are, computing P's leading coefficients in GF(q)."""
    return _verify_at_point(F, G, H, P, cfg or VerifyConfig(), "direct-eval")


def point_kind(ctx, deg, eps, method="auto"):
    """Where a one-point check over the coefficient ring ctx evaluates, so
    that a nonzero Δ of degree at most deg passes with probability at most
    eps:

    - "prime" over Z: a random point of GF(p) for a random prime p
      (prime_lambda);
    - "field" over a field of at least deg/eps elements: a random point
      of it, a root of Δ with probability at most deg/size <= eps (Schwartz
      1980);
    - "extension" over a smaller GF(q), and for the methods "extension"
      and "companion-freivalds" on any GF(q): X modulo one screened
      irreducible R (extension_degree);
    - None where the field is too small and may not be extended:
      "direct-eval" never extends, and only GF(q) has an extension here.

    Every method but "auto" and "direct-eval" runs on GF(q) alone
    (_check_method), and is a TypeError naming it on Z and on
    GF(q)[X]/(R).  One random point bounds the miss chance only in a ring
    without zero divisors, where a product of nonzero polynomials is
    nonzero and of degree deg F + deg G, so ctx must be one the policy serves
    (ctx.serves_point_policy(): Z, GF(q), or GF(q)[X]/(R) with R
    irreducible by Ben-Or's test, which the ring runs once and keeps); any
    other ring is a TypeError."""
    if not ctx.serves_point_policy():
        raise TypeError("coefficients must lie in Z, GF(q) or GF(q)[X]/(R) with R irreducible")
    _check_method(ctx, method)
    if ctx.int_modulus == 0:
        return "prime"
    if method not in ("extension", "companion-freivalds") and ctx.size() * eps >= deg:
        return "field"
    if method != "direct-eval" and ctx.int_modulus:
        return "extension"
    return None


def _check_method(ctx, method):
    """The one rule of which ring may run which modular method: a name
    outside METHODS is a ValueError, "auto" and "direct-eval" run on every
    ring the point policy serves, and every other method, which evaluates
    at X modulo a polynomial R over the coefficient field, needs
    ctx = GF(q).  Over Z a check evaluates in GF(p) for a random prime p,
    and GF(q)[X]/(R) has no extension here."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method not in ("auto", "direct-eval") and not ctx.int_modulus:
        raise TypeError(f"method {method!r} needs GF(q) inputs")


def draw_point(kind, ctx, deg, eps, rng, norm):
    """(ring, point, witness) for the point_kind kind of a check over ctx
    of a Δ of degree at most deg at error eps, drawn from rng:

    - "prime": GF(p) for a prime p of [λ, 2λ], λ = prime_lambda(deg + 1,
      norm, eps) with norm a bound on the coefficients of Δ, drawn by
      random_prime at eps/4, and a uniform α of it; witness {"p": p,
      "alpha": α};
    - "field": ctx and a uniform α of it; witness {"alpha": α};
    - "extension": GF(q)[X]/(R) and the class of X, for an R of degree
      D = extension_degree(q, deg, eps) drawn by random_irreducible at
      eps/4; witness {"extension_degree": D, "modulus": R}.

    None is a FieldTooSmallError."""
    if kind == "prime":
        ring = PrimeField(random_prime(prime_lambda(deg + 1, norm, eps), eps / 4, rng))
        alpha = ring.sample(rng)
        return ring, alpha, {"p": ring.q, "alpha": alpha}
    if kind == "field":
        alpha = ctx.sample(rng)  # in GF(q), or in GF(q)[X]/(R) as its coefficients
        return ctx, alpha, {"alpha": alpha if ctx.int_modulus else list(ctx.coeffs(alpha))}
    if kind == "extension":
        d = extension_degree(ctx.q, deg, eps)
        R = list(random_irreducible(ctx, d, eps / 4, rng).coeffs)
        ring = ExtField(ctx, R)
        return ring, ring.x, {"extension_degree": d, "modulus": R}
    raise FieldTooSmallError(
        f"field of size {ctx.size()} cannot reach epsilon={eps} at degree {deg + 1}"
    )


def _verify_at_point(F, G, H, P, cfg, method):
    """Decide H = (F*G) mod P, or H = F*G where P is None, by comparing
    both sides once, at the point that point_kind picks for method and
    draw_point draws.  Soundness: Δ = H - (F*G) mod P has degree < n =
    deg P, and the point keeps a nonzero Δ nonzero with probability at
    least 1 - ε (see point_kind).

    With P, the scans read the inputs in the forms of triple_forms: at X
    modulo R input that is not all sparse is made dense, as the dense scans
    at X multiply no polynomials, and past DENSIFY_CAP every input is made
    sparse.  All-sparse input is first screened by its term count
    (sparsity_precheck), a certain rejection with rounds = 0 and no
    witness.  Over Z the scans read F, G, H and P as they are at the
    point of GF(q), with no copy into GF(q).  The report has
    rounds = 1 and the witness of draw_point, over Z as two entries
    {"q": q}, {"alpha": α}.
    Its method is the one asked for; "auto" reads "extension" at X modulo
    R and "direct-eval" at a random point.

    With P None, the caller's plain product check, F, G and H are nonzero
    and already in the forms it compares them in, and deg H <= deg F +
    deg G, so Δ = H - F*G has degree at most deg F + deg G, where the
    point is asked for under "auto" (Schwartz 1980; one point in place of
    Kaminski's folds, J. ACM 1989, and of the sparse verifier's exponent
    fold where no prime can fold).  method names the report, and its
    witness is draw_point's single entry."""
    if P is None:
        ctx, deg = F.ctx, F.degree() + G.degree()
    else:
        n = modeval.check_shapes(P, F, G, H)
        ctx, deg = P.ctx, n - 1
    eps = cfg.epsilon
    kind = point_kind(ctx, deg, eps, "auto" if P is None else method)
    if method == "auto":
        method = "extension" if kind == "extension" else "direct-eval"
    if P is not None:
        F, G, H, sparse = triple_forms(F, G, H, n=n, dense=kind == "extension")
        if sparse and sparsity_precheck(F, G, H, P):
            return VerifyReport(False, 0.0, 0, [], method, cfg.seed)
    norm = delta_norm_bound(F, G, H, P) if kind == "prime" else 0
    ring, alpha, witness = draw_point(kind, ctx, deg, eps, RngStream(cfg.seed), norm)
    # schema 1 names a modular check's prime "q", in an entry of its own
    witnesses = [witness] if P is None or kind != "prime" else [{"q": ring.q}, {"alpha": alpha}]
    verdict = _agree_at(F, G, H, P, alpha, ring)
    return VerifyReport(verdict, bound_above(eps), 1, witnesses, method, cfg.seed)


def _agree_at(F, G, H, P, alpha, ring):
    """H(alpha) == ((F*G) mod P)(alpha), or F(alpha) G(alpha) == H(alpha)
    where P is None: the check behind every one-point verifier of the
    package, at a random point or at the class of X modulo R.  One power
    table at alpha serves every sparse polynomial of the check.  Both
    checks evaluate H first, which on a random support has about #F #G
    terms, the most of the three: in GF(q) its many exponents grow the
    windows in bulk (poly.power_table), and F and G then find their
    entries made instead of making them one lazy product at a time."""
    pw = power_table(ring, alpha)
    if P is None:
        ha, fa, ga = (evaluate(X, alpha, ring, pw) for X in (H, F, G))
        return ring.mul(fa, ga) == ha
    return evaluate(H, alpha, ring, pw) == modeval.eval_mod(P, F, G, alpha, ring, pw)


def delta_norm_bound(F, G, H, P=None):
    """Bound on |H - (F*G) mod P| coefficients over Z:
    ||H|| + min(#F, #G) ||F|| ||G|| (#P ||P||)^ceil(1/gamma), and
    ||H|| + min(#F, #G) ||F|| ||G|| on |H - F*G| where P is None."""
    prod = product_norm_bound(F, G)
    if prod and P is not None and F.degree() + G.degree() >= P.degree():
        g = gap_info(P)
        prod = reduced_norm_bound(prod, P.sparsity(), P.norm(), g.n - 1, g)
    return H.norm() + prod


def prime_lambda(n, norm, eps):
    """λ for reducing a nonzero integer polynomial Δ of degree < n, with
    coefficients at most norm in absolute value, modulo a random prime p in
    [λ, 2λ] and evaluating it at a random point of GF(p): the largest of
    21, 2n/eps and (20/3) ln(norm)/eps.

    A nonzero coefficient of Δ has at most ln(norm)/ln λ prime factors
    >= λ, and [λ, 2λ] holds at least 3λ/(5 ln λ) primes for λ >= 21, so a
    uniform prime of [λ, 2λ] divides it with probability at most
    5 ln(norm)/(3λ) <= eps/4.  A random point of GF(p) is a root of a
    nonzero Δ mod p with probability at most (n-1)/λ < eps/2.  A caller
    that asks random_prime for p at eps/4 keeps the total within eps."""
    return _prime_lambda(n, ln_upper(max(norm, 1)), eps)


def prime_lambda_pow2(n, k, eps):
    """prime_lambda(n, 2^k, eps) without building 2^k."""
    return _prime_lambda(n, ln_pow2_upper(k), eps)


def _prime_lambda(n, ln_norm, eps):
    return max(
        21,
        -(-2 * n * eps.denominator // eps.numerator),
        math.ceil(Fraction(20, 3) / eps * ln_norm),
    )


def verify_mod_over_Z(F, G, H, P, cfg=None):
    """verify_mod for integer polynomials only: one comparison at a random
    point of GF(q) for a random prime q, whose error split prime_lambda
    states."""
    if P.ctx != ZZ:
        raise TypeError("verify_mod_over_Z needs integer polynomials")
    return verify_mod(F, G, H, P, cfg)


def _ln(x):
    """ln x for a Fraction x > 1, from its numerator and denominator, or
    near 1 from x - 1, so neither overflows a float nor cancels."""
    return math.log1p(float(x - 1)) if x < 2 else math.log(x.numerator) - math.log(x.denominator)


def minimal_extension_degree(q, bound):
    """The least d >= 1 with q**d >= bound, for a rational q > 1: a float
    estimate from the logarithms, corrected both ways in exact
    arithmetic."""
    q, bound = Fraction(q), Fraction(bound)
    d = 1 if bound <= q else math.ceil(_ln(bound) / _ln(q))
    while d > 1 and q ** (d - 1) >= bound:
        d -= 1
    while q**d < bound:
        d += 1
    return d


def extension_degree(q, deg, eps):
    """The degree D of the screened irreducible R behind one comparison at
    X modulo R, for a nonzero Δ of degree at most deg over GF(q): the least
    D with q^D >= max(36, 2 max(deg, 1)/eps).

    Δ has at most deg/D monic irreducible factors of degree D, and there
    are at least (q^D - 2q^(D/2))/D >= (2/3) q^D/D monic irreducibles of
    degree D, as q^(D/2) >= 6.  So a uniform irreducible R divides Δ with
    probability at most 3 deg/(2q^D) <= 3eps/4, and screening R with
    random_irreducible at eps/4 adds at most eps/4."""
    return minimal_extension_degree(q, max(36, 2 * max(deg, 1) / eps))


def verify_mod_ff(F, G, H, P, cfg=None):
    """The modular front end of every ring the point policy serves: Z,
    GF(q) and a GF(q)[X]/(R) field.  "companion-no-polymul" makes the
    unscreened draws of verify_mod_companion; every other method compares
    both sides once at the point of point_kind (_verify_at_point):
    "direct-eval" at a random point of the field, or of GF(p) over Z, or
    FieldTooSmallError, "extension" at X modulo one screened irreducible
    R, and "auto" at whichever of the two the field size allows.  A method
    the ring cannot run is point_kind's TypeError (_check_method): Z and
    GF(q)[X]/(R) run "auto" and "direct-eval" only, which there give the
    report of verify_mod.  The name fits every ring, as every check it runs
    evaluates in a finite field: GF(p), GF(q), GF(q)[X]/(R) with R
    irreducible, or the field given."""
    cfg = cfg or VerifyConfig()
    if cfg.method == "companion-no-polymul":
        return verify_mod_companion(F, G, H, P, cfg)
    return _verify_at_point(F, G, H, P, cfg, cfg.method)


def _companion_degree(q, n):
    """Smallest d with q^d >= 16n, which holds the chance that a uniform
    irreducible R of degree d divides a nonzero Δ of degree < n below 1/8."""
    return minimal_extension_degree(q, 16 * n)


def _companion_draws(q, d, eps):
    """Least m >= 1 with rho^m <= eps, where rho >= 1 - 7(1 - 2q^(-d/2))/(8d)
    bounds the chance that one unscreened monic R of degree d (q^d >= 16n)
    passes a wrong H; q^(d/2) is bounded below by isqrt(q^d 4^64) / 2^64."""
    root_lo = Fraction(math.isqrt(q**d << 128), 1 << 64)
    rho = 1 - Fraction(7, 8 * d) * (1 - 2 / root_lo)
    return minimal_extension_degree(1 / rho, 1 / eps)


def verify_mod_companion(F, G, H, P, cfg=None):
    """Small-field verification modulo random monic polynomials R.

    Every method but "companion-no-polymul" compares both sides once at X
    modulo one screened irreducible R (_verify_at_point), reported as
    "companion-freivalds".  Both run on GF(q) coefficients only, and a
    name outside METHODS is refused before either runs (_check_method).

    "companion-no-polymul" skips the irreducibility screening, whose
    products it must avoid, and makes several unscreened draws instead.
    Each takes a uniform monic R of degree d, the least d with q^d >= 16n,
    and compares H mod R with ((F*G) mod P) mod R through the evaluation
    scans at the class of X in GF(q)[X]/(R).  The scans use ring operations
    only, never an inverse, so a true H passes for every R, reducible or
    not.  The inputs are read in the forms of triple_forms: all-sparse
    input is never made dense and runs the sparse scans, whose powers of X
    come from one power table per draw, each of its products counted in
    POLY_MUL_OPS; any other input is made dense and runs the dense scans,
    which multiply no polynomials, save past DENSIFY_CAP, where it is made
    sparse.  The first draw runs alone.  If it
    agrees, the rest are drawn at once; over GF(2) on dense input they run
    as one lane-packed scan (modeval.gf2_first_mismatch), while odd q and
    all-sparse input still scan draw by draw.  The draws take nothing from
    the random stream but their R's, so the R's and the report are those of
    the one-at-a-time loop.

    Soundness of the unscreened draws: let Δ = H - (F*G) mod P be nonzero,
    of degree < n; a draw accepts only if R divides Δ.  R is irreducible
    with probability at least (1 - 2q^(-d/2))/d, and a uniform irreducible
    R of degree d divides Δ with probability at most 2(n-1)/q^d < 1/8, so a
    wrong H passes m draws with probability at most
    (1 - 7(1 - 2q^(-d/2))/(8d))^m; the draws are the least m that holds
    this at or below eps.  The report has one witness {"modulus": R} per
    draw, with "mismatch": true on the draw that rejects, rounds = the draw
    count, and method "companion-no-polymul" on the dense scans or
    "companion-sparse" on the sparse scans.
    """
    cfg = cfg or VerifyConfig()
    n = modeval.check_shapes(P, F, G, H)
    ctx = P.ctx
    _check_method(ctx, cfg.method)
    if cfg.method != "companion-no-polymul":
        return _verify_at_point(F, G, H, P, cfg, "companion-freivalds")
    F, G, H, sparse = triple_forms(F, G, H, n=n, dense=True)
    eps = cfg.epsilon
    rng = RngStream(cfg.seed)
    d = _companion_degree(ctx.q, n)
    draws = _companion_draws(ctx.q, d, eps)

    def agrees(R):
        ring = ExtField(ctx, R)
        return _agree_at(F, G, H, P, ring.x, ring)

    # The draws take nothing from rng but their R's, so drawing the rest up
    # front once the first agrees gives the same R's as one at a time.
    moduli = [random_monic(ctx, d, rng)]
    if not agrees(moduli[0]):
        bad = 0
    else:
        moduli += [random_monic(ctx, d, rng) for _ in range(draws - 1)]
        if ctx.q == 2 and not sparse:
            bad = modeval.gf2_first_mismatch(P, F, G, H, moduli[1:])
            bad = None if bad is None else bad + 1
        else:
            bad = next((i for i in range(1, draws) if not agrees(moduli[i])), None)
    witnesses = [{"modulus": R} for R in moduli[: draws if bad is None else bad + 1]]
    if bad is not None:
        witnesses[-1]["mismatch"] = True
    method = "companion-sparse" if sparse else "companion-no-polymul"
    return VerifyReport(bad is None, bound_above(eps), draws, witnesses, method, cfg.seed)


def verify_mod_companion_sparse(F, G, H, P, cfg=None):
    """verify_mod_companion with unscreened draws on sparse inputs, which
    run the sparse scans at X modulo R; the report's method is
    "companion-sparse"."""
    if not all_sparse(F, G, H):
        raise TypeError("sparse companion verification needs sparse polynomials")
    cfg = replace(cfg or VerifyConfig(), method="companion-no-polymul")
    return verify_mod_companion(F, G, H, P, cfg)
