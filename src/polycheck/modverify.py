"""Probabilistic verification of H = (F*G) mod P.

All verdicts are one-sided (True-biased): a correct H is always accepted,
and a wrong one is accepted with probability at most the configured epsilon.
Every random choice made along the way is recorded in the report's witness
list so a failing run can be replayed from its seed.

A field with (n-1)/epsilon elements or more takes one evaluation at a random
point, integers at a random point of GF(q) for a random prime q, where H
is evaluated as it is, never copied into GF(q).  A smaller GF(q) takes
one draw at X modulo one screened irreducible R of degree D; only
"companion-no-polymul" makes many unscreened draws instead.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import modeval
from .poly import (
    DensePoly,
    SparsePoly,
    all_sparse,
    evaluate,
    gap_info,
    power_table,
    product_norm_bound,
    reduced_norm_bound,
)
from .rings import (
    ExtField,
    GF,
    IntegerRing,
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


class FieldTooSmallError(ValueError):
    """The coefficient field has fewer elements than the target error bound
    needs; use verify_mod_ff or a companion method instead."""


@dataclass(frozen=True)
class VerifyConfig:
    epsilon: Fraction = Fraction(1, 2**20)
    method: str = "auto"
    seed: int = 0

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        if not 0 < eps < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.method not in METHODS:
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


def _describe(ctx, a):
    if isinstance(ctx, ExtField):
        return list(ctx.coeffs(a))
    return a


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


def check_shapes(F, G, H, P):
    if not (F.ctx == G.ctx == H.ctx == P.ctx):
        raise ValueError("mixed coefficient contexts")
    if P.is_zero() or P.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    n = P.degree()
    for X in (F, G, H):
        if not X.is_zero() and X.degree() >= n:
            raise ValueError("inputs must have degree < deg P")
    return n


def _eval_mod_point(P, F, G, alpha, ring, lc=None, pw=None):
    """Dispatch to the binomial fast path when P = X^n - 1; lc is the dense
    scans' leading_coefficients(P, F) when the caller has it, pw the sparse
    scans' power_table(ring, alpha)."""
    ctx = P.ctx
    n = P.degree()
    binom = (
        P.sparsity() == 2
        and P.terms[0][0] == 0
        and ctx.is_zero(ctx.add(P.terms[0][1], ctx.one()))
    )
    if all_sparse(F, G):
        if binom:
            return modeval.eval_mod_binomial_sparse(F, G, n, alpha, ring, pw)
        return modeval.eval_mod_p_sparse(P, F, G, alpha, ring, pw)
    F, G = F.to_dense(), G.to_dense()
    if binom:
        return modeval.eval_mod_binomial_dense(F, G, n, alpha, ring, lc)
    return modeval.eval_mod_p_dense(P, F, G, alpha, ring, lc)


def _finite_size(ctx):
    """ctx.size(), or a TypeError for a coefficient ring with no size."""
    size = ctx.size()
    if size is None:
        raise TypeError("coefficients must lie in Z, GF(q) or GF(q)[X]/(R)")
    return size


def verify_mod(F, G, H, P, cfg=None):
    """Decide H = (F*G) mod P by a single random evaluation over the
    coefficient field (or an extension the caller already placed us in),
    or, on integers, over GF(q) for a random prime q (verify_mod_over_Z).

    Needs the field to have at least (1/epsilon)(n-1) elements; smaller
    fields must go through verify_mod_ff or the companion methods.  Over Z,
    F, G and P are copied into GF(q) for the scan, which reads their
    coefficients, and H is evaluated as it is (poly.evaluate).
    """
    cfg = cfg or VerifyConfig()
    n = check_shapes(F, G, H, P)
    ctx = P.ctx
    eps = cfg.epsilon
    if all_sparse(F, G, H) and sparsity_precheck(F, G, H, P):
        return VerifyReport(False, 0.0, 0, [], "direct-eval", cfg.seed)
    rng = RngStream(cfg.seed)
    witnesses = []
    if isinstance(ctx, IntegerRing):
        q = random_prime(prime_lambda(n, delta_norm_bound(F, G, H, P), eps), eps / 4, rng)
        ring = GF(q)
        F, G, P = (_map_to_field(X, ring) for X in (F, G, P))
        witnesses.append({"q": q})
    else:
        size = _finite_size(ctx)
        if size * eps < n - 1:
            raise FieldTooSmallError(
                f"field of size {size} cannot reach epsilon={eps} at degree {n}"
            )
        ring = ctx
    alpha = ring.sample(rng)
    witnesses.append({"alpha": _describe(ring, alpha)})
    verdict = _agree_at(F, G, H, P, alpha, ring)
    return VerifyReport(verdict, float(eps), 1, witnesses, "direct-eval", cfg.seed)


def _agree_at(F, G, H, P, alpha, ring, lc=None):
    """H(alpha) == ((F*G) mod P)(alpha): the check behind every verifier of
    this module, at a random point or at the class of X modulo R.  One
    power table at alpha serves every sparse polynomial of the check."""
    pw = power_table(ring, alpha)
    return evaluate(H, alpha, ring, pw) == _eval_mod_point(P, F, G, alpha, ring, lc, pw)


def delta_norm_bound(F, G, H, P):
    """Bound on |H - (F*G) mod P| coefficients over Z:
    ||H|| + min(#F, #G) ||F|| ||G|| (#P ||P||)^ceil(1/gamma)."""
    g = gap_info(P)
    prod = product_norm_bound(F, G)
    if prod:
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
    """Integer-coefficient variant: bound the coefficients of the would-be
    difference, pick a random prime q that almost surely preserves a nonzero
    difference, and verify its image over GF(q) (verify_mod).

    The error splits three ways (see prime_lambda): random_prime at ε/4
    returns a composite with probability at most ε/4, a prime q divides the
    nonzero coefficient of Δ with probability at most ε/4, and the random
    point is a root of Δ mod q with probability below ε/2."""
    check_shapes(F, G, H, P)
    if not isinstance(P.ctx, IntegerRing):
        raise TypeError("verify_mod_over_Z needs integer polynomials")
    return verify_mod(F, G, H, P, cfg)


def _map_to_field(X, fq):
    """The integer polynomial X with its coefficients reduced into GF(q)."""
    q = fq.q
    if isinstance(X, DensePoly):
        return DensePoly.trusted(fq, [c % q for c in X.coeffs])
    return SparsePoly.trusted(fq, [(e, c % q) for e, c in X.terms])


def minimal_extension_degree(q, bound):
    """Smallest d with q**d >= bound."""
    bound = Fraction(bound)
    d = 1
    power = Fraction(q)
    while power < bound:
        power *= q
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


def screened_extension(ctx, deg, eps, rng):
    """GF(q)[X]/(R) for one irreducible R of degree extension_degree(q,
    deg, eps), screened by random_irreducible at eps/4, and its witness
    {"extension_degree": D, "modulus": R}."""
    d = extension_degree(ctx.q, deg, eps)
    R = list(random_irreducible(ctx, d, eps / 4, rng).coeffs)
    return ExtField(ctx, R), {"extension_degree": d, "modulus": R}


def _verify_at_irreducible(F, G, H, P, cfg, method):
    """One draw at X modulo one screened irreducible R: compare H mod R with
    ((F*G) mod P) mod R, both from the evaluation scans at the class of X in
    GF(q)[X]/(R) (Rabin 1980).  R has degree D = extension_degree(q, n-1,
    eps).  All-sparse input keeps the sparsity precheck and runs the sparse
    scans; any other input is made dense.

    Soundness: a nonzero Δ = H - (F*G) mod P of degree < n passes only if R
    divides it, which happens with probability at most ε (see
    extension_degree).  The report has rounds = 1 and one witness
    {"extension_degree": D, "modulus": R}.
    """
    eps = cfg.epsilon
    if not all_sparse(F, G, H):
        F, G, H = F.to_dense(), G.to_dense(), H.to_dense()
    elif sparsity_precheck(F, G, H, P):
        return VerifyReport(False, 0.0, 0, [], method, cfg.seed)
    ring, witness = screened_extension(P.ctx, P.degree() - 1, eps, RngStream(cfg.seed))
    verdict = _agree_at(F, G, H, P, ring.x, ring)
    return VerifyReport(verdict, float(eps), 1, [witness], method, cfg.seed)


def verify_mod_ff(F, G, H, P, cfg=None):
    """Finite-field front end.  "direct-eval", and "auto" when GF(q) has at
    least (n-1)/epsilon elements, evaluate at a random point (verify_mod).
    "auto" on a smaller field and "extension" make one draw at X modulo one
    screened irreducible R of degree D (_verify_at_irreducible), reported
    as "extension"; the companion methods go to verify_mod_companion."""
    cfg = cfg or VerifyConfig()
    n = check_shapes(F, G, H, P)
    ctx = P.ctx
    if not isinstance(ctx, PrimeField):
        raise TypeError("verify_mod_ff needs GF(q) polynomials")
    if cfg.method in ("companion-freivalds", "companion-no-polymul"):
        return verify_mod_companion(F, G, H, P, cfg)
    if cfg.method == "direct-eval" or (cfg.method == "auto" and ctx.q * cfg.epsilon >= n - 1):
        return verify_mod(F, G, H, P, cfg)
    return _verify_at_irreducible(F, G, H, P, cfg, "extension")


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
    log_eps = math.log(eps.numerator) - math.log(eps.denominator)
    m = max(1, math.ceil(log_eps / math.log(rho)) - 1)
    while rho**m > eps:
        m += 1
    return m


def verify_mod_companion(F, G, H, P, cfg=None):
    """Small-field verification modulo random monic polynomials R.

    Every method but "companion-no-polymul" makes the one screened draw of
    _verify_at_irreducible, reported as "companion-freivalds".

    "companion-no-polymul" skips the irreducibility screening, whose
    products it must avoid, and makes several unscreened draws instead.
    Each takes a uniform monic R of degree d, the least d with q^d >= 16n,
    and compares H mod R with ((F*G) mod P) mod R through the evaluation
    scans at the class of X in GF(q)[X]/(R).  The scans use ring operations
    only, never an inverse, so a true H passes for every R, reducible or
    not.  All-sparse inputs run the sparse scans, whose powers of X come
    from one power table per draw, each of its products counted in
    POLY_MUL_OPS; any other input is made dense and runs the dense scans,
    which multiply no polynomials.  The first draw runs alone.  If it
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
    n = check_shapes(F, G, H, P)
    ctx = P.ctx
    if not isinstance(ctx, PrimeField):
        raise TypeError("companion verification needs GF(q) polynomials")
    if cfg.method != "companion-no-polymul":
        return _verify_at_irreducible(F, G, H, P, cfg, "companion-freivalds")
    sparse = all_sparse(F, G, H)
    lc = None
    if not sparse:
        F, G, H = F.to_dense(), G.to_dense(), H.to_dense()
        lc = modeval.leading_coefficients(P, F)  # one F for every draw
    eps = cfg.epsilon
    rng = RngStream(cfg.seed)
    d = _companion_degree(ctx.q, n)
    draws = _companion_draws(ctx.q, d, eps)

    def agrees(R):
        ring = ExtField(ctx, R)
        return _agree_at(F, G, H, P, ring.x, ring, lc)

    # The draws take nothing from rng but their R's, so drawing the rest up
    # front once the first agrees gives the same R's as one at a time.
    moduli = [random_monic(ctx, d, rng)]
    if not agrees(moduli[0]):
        bad = 0
    else:
        moduli += [random_monic(ctx, d, rng) for _ in range(draws - 1)]
        if ctx.q == 2 and not sparse:
            bad = modeval.gf2_first_mismatch(P, F, G, H, moduli[1:], lc)
            bad = None if bad is None else bad + 1
        else:
            bad = next((i for i in range(1, draws) if not agrees(moduli[i])), None)
    witnesses = [{"modulus": R} for R in moduli[: draws if bad is None else bad + 1]]
    if bad is not None:
        witnesses[-1]["mismatch"] = True
    method = "companion-sparse" if sparse else "companion-no-polymul"
    return VerifyReport(bad is None, float(eps), draws, witnesses, method, cfg.seed)


def verify_mod_companion_sparse(F, G, H, P, cfg=None):
    """verify_mod_companion with unscreened draws on sparse inputs, which
    run the sparse scans at X modulo R; the report's method is
    "companion-sparse"."""
    if not all_sparse(F, G, H):
        raise TypeError("sparse companion verification needs sparse polynomials")
    cfg = replace(cfg or VerifyConfig(), method="companion-no-polymul")
    return verify_mod_companion(F, G, H, P, cfg)
