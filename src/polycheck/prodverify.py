"""Probabilistic verification of plain products H = F*G.

Dense products go through folding modulo a random binomial X^i - 1 (after
Kaminski), with a no-multiplication variant that replaces the folded product
by a modular-product verification.  Integer products a*b = c and
integer-coefficient dense products share one check: H(2^w) = F(2^w) G(2^w)
for constants at w = 0, or at the Kronecker point 2^w where it is equivalent
to H = F*G; signs and sizes come from the top terms, and the identity is
compared modulo one random prime p by evaluating F, G and H at 2^w mod p,
so no value at 2^w is formed.  Sparse products fold exponents modulo a
random prime p and verify modulo X^p - 1 where p can fall below the degree
of the product.

Where Kaminski's fold bound has no force (at the default e = 9/20, every
degree below about 10^13), and where no sparse fold prime can be below the
degree, no verifier recomputes or folds the product: the polynomial check
compares H(α) with F(α)G(α) once (Schwartz 1980, Zippel 1979), by the one
check at a point of the modular verifiers (modverify._verify_at_point with
P None), so the point draw, the norm bound of Δ and the comparison are
theirs; the integer check compares F(2^w) G(2^w) with H(2^w) modulo one
random prime, by the same comparison (modverify._agree_at).  Over Z the
values mod p come from poly.evaluate at a point of GF(p), which reads the
integer coefficients as they are.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from . import modeval, modverify
from .modverify import VerifyConfig, VerifyReport, bound_above
from .poly import (
    EXPONENT_CAP,
    DensePoly,
    SparsePoly,
    all_sparse,
    mul_oracle,
    product_terms,
    reduce_mod_binomial,
    same_ctx,
    x_pow_minus_one,
)
from .rings import (
    ZZ,
    PrimeField,
    RngStream,
    ln_upper,
    random_prime,
)

# Mertens-type constant in the binomial-divisor count bound
KAMINSKI_DELTA = 1.78107


@dataclass(frozen=True)
class KaminskiParams:
    """Tuning for the fold-and-compare dense verifier.

    e sets the fold-degree range [n^(1-e), 2n^(1-e)); k(n) bounds how many
    binomials X^i - 1 in that range can divide a nonzero polynomial of degree
    at most 2n; the per-round error is (k-1)/range."""

    e: Fraction = Fraction(9, 20)

    def __post_init__(self):
        e = Fraction(self.e)
        if not 0 < e < Fraction(1, 2):
            raise ValueError("e must be in (0, 1/2)")
        object.__setattr__(self, "e", e)

    def k(self, n):
        """The divisor-count bound, or 0 where the formula has no force
        (the iterated logarithm must be positive)."""
        if n < 2:
            return 0
        inner = (1 - float(self.e)) * math.log(n)
        if inner <= 1.0:
            return 0
        return max(1, math.ceil(2 * KAMINSKI_DELTA * n ** float(self.e) * math.log(inner)))

    def fold_range(self, n):
        """Integer fold degrees [lo, hi) inside [n^(1-e), 2 n^(1-e))."""
        x = n ** (1 - float(self.e))
        lo = math.ceil(x)
        hi = math.ceil(2 * x)
        return max(lo, 1), max(hi, 2)

    def per_round_bound(self, n):
        """Proven acceptance bound for one fold round on a wrong product, or
        1 when no claim is available.  The count bound is only trusted once
        the fold range is wide enough (lo >= 21) for its asymptotic constant
        to have room; below that the verifiers fall back to one evaluation
        (verify_product_kaminski) or to one modular check at a binomial
        (verify_product_kaminski_nomul)."""
        lo, hi = self.fold_range(n)
        k = self.k(n)
        if hi - lo < 1 or lo < 21 or k == 0:
            return Fraction(1)
        return Fraction(max(k - 1, 0), hi - lo)


def _rounds_for(eps, per_round):
    """Smallest r >= 1 with per_round**r <= eps (requires per_round <=
    1/2): 1 where per_round is 0, else modverify.minimal_extension_degree
    at base 1/per_round."""
    if not per_round:
        return 1
    r = modverify.minimal_extension_degree(1 / per_round, 1 / eps)
    if r > 4096:
        raise ValueError("per-round bound too weak to amplify")
    return r


def _fold_rounds(cfg, rho, fold_range, rng, method, agree):
    """The fold rounds of a check whose rounds each accept a wrong input
    with probability at most rho: as many as rho^rounds <= epsilon needs,
    each at a fold degree i drawn uniformly from fold_range = [lo, hi).
    agree(i) returns the round's verdict and witness; the first rejecting
    round ends the check."""
    eps = cfg.epsilon
    lo, hi = fold_range
    rounds = _rounds_for(eps, rho)
    witnesses = []
    for _ in range(rounds):
        ok, witness = agree(rng.randint(lo, hi - 1))
        witnesses.append(witness)
        if not ok:
            break
    return VerifyReport(ok, bound_above(eps), rounds, witnesses, method, cfg.seed)


def _folded_check(F, G, H, i, eps, rng, check):
    """check(F mod (X^i - 1), G mod (X^i - 1), H mod (X^i - 1), X^i - 1,
    cfg) at error eps, with the seed of cfg drawn from rng: the modular
    check of one fold at degree i."""
    folded = [reduce_mod_binomial(X, i) for X in (F, G, H)]
    cfg = VerifyConfig(epsilon=eps, seed=rng.bits(64))
    return check(*folded, x_pow_minus_one(F.ctx, i), cfg)


def kaminski_round(F, G, H, i):
    """One deterministic fold-and-compare at fold degree i: reduce F, G, H
    modulo X^i - 1, multiply the folded factors (mul_oracle) and compare."""
    Fi = reduce_mod_binomial(F, i)
    Gi = reduce_mod_binomial(G, i)
    Hi = reduce_mod_binomial(H, i)
    Mi = reduce_mod_binomial(mul_oracle(Fi, Gi), i)
    return Mi == Hi


def _own_method(cfg, name):
    """Refuse a cfg.method other than "auto" and name, the method of the
    product verifier that asks: the one method rule of those verifiers."""
    if cfg.method not in ("auto", name):
        raise ValueError(f"the {name} verifier cannot run method {cfg.method!r}")


def _certain(verdict, reason, method, cfg):
    """The report of a verdict that no random choice made: error bound 0,
    no rounds and the one witness {"deterministic": reason}."""
    return VerifyReport(verdict, 0.0, 0, [{"deterministic": reason}], method, cfg.seed)


def _product_shape_reject(F, G, H):
    """Degree screens shared by the dense product verifiers.  Returns a
    verdict for the trivial cases, or None when the probabilistic phase must
    run.  A zero H is a certain rejection only where F*G cannot be zero,
    over a ring the point policy serves (serves_point_policy), which is
    asked only then."""
    if F.is_zero() or G.is_zero():
        return H.is_zero()
    if H.is_zero():
        return False if F.ctx.serves_point_policy() else None
    if H.degree() > F.degree() + G.degree():
        return False
    return None


def verify_product_kaminski(F, G, H, cfg=None, params=None):
    """Decide H = F*G over any coefficient ring by folding modulo a random
    X^i - 1 and comparing folded products.  One-sided.  When the per-round
    bound at this degree is vacuous, which at the default e holds for every
    degree below about 10^13, it compares F(α)G(α) with H(α) once instead,
    by the modular checks' one-point check with P None
    (modverify._verify_at_point): Δ = H - F*G has degree at most
    deg F + deg G, and over Z coefficients at most
    modverify.delta_norm_bound(F, G, H).  The report has rounds = 1 and
    the witness of modverify.draw_point.  Where the point policy cannot
    serve, a ring it refuses (serves_point_policy) or a GF(q)[X]/(R) too
    small for ε, one exact product decides, with rounds = 0 and the
    witness {"deterministic": "reference-product"}.  Every comparison
    meets one form, the one modeval.triple_forms picks for degrees below
    one more than the largest of F, G and H: a triple that is not all
    sparse is made dense below DENSIFY_CAP, and past it all three are read
    sparse, so no degree up to EXPONENT_CAP is refused."""
    cfg = cfg or VerifyConfig()
    params = params or KaminskiParams()
    same_ctx(F, G, H)
    _own_method(cfg, "kaminski")
    quick = _product_shape_reject(F, G, H)
    if quick is not None:
        return _certain(quick, "shape", "kaminski", cfg)
    top = max(X.degree() for X in (F, G, H) if not X.is_zero())
    F, G, H, _ = modeval.triple_forms(F, G, H, n=top + 1, dense=True)
    n = max(F.degree(), G.degree(), 1)
    rho = params.per_round_bound(n)
    if rho <= Fraction(1, 2):
        return _fold_rounds(
            cfg, rho, params.fold_range(n), RngStream(cfg.seed), "kaminski",
            lambda i: (kaminski_round(F, G, H, i), {"i": i}),
        )
    ctx, m = F.ctx, F.degree() + G.degree()
    if ctx.serves_point_policy() and modverify.point_kind(ctx, m, cfg.epsilon):
        return modverify._verify_at_point(F, G, H, None, cfg, "kaminski")
    return _certain(mul_oracle(F, G) == H, "reference-product", "kaminski", cfg)


def _modular_check_no_mul(F, G, H, P, cfg):
    """Verify H = (F*G) mod P at cfg's epsilon and seed through
    modverify.verify_mod_ff on every ring, on F, G and H in the forms of
    modeval.triple_forms.  A triple that is not all sparse, where
    modverify.point_kind picks X modulo an irreducible R, whose screening
    multiplies, runs the method companion-no-polymul: unscreened draws on
    the triple made dense, whose dense scans multiply no polynomials.
    Everything else runs cfg's "auto": one comparison at a random point,
    or, for a triple read sparse (all-sparse input, and any past
    DENSIFY_CAP), at X modulo one screened R, the point of kaminski's own
    check, whose screening and power table products count in POLY_MUL_OPS;
    or point_kind's TypeError on a ring the policy refuses."""
    n = P.degree()
    F, G, H, sparse = modeval.triple_forms(F, G, H, n=n, dense=False)
    if not sparse and modverify.point_kind(F.ctx, n - 1, cfg.epsilon) == "extension":
        cfg = replace(cfg, method="companion-no-polymul")
    return modverify.verify_mod_ff(F, G, H, P, cfg)


def verify_product_kaminski_nomul(F, G, H, cfg=None, params=None):
    """Fold-based product verification with the folded-product comparison
    replaced by a modular-product verification, so on input that is not
    all sparse below DENSIFY_CAP the whole path performs no polynomial
    multiplication.  Small degrees, where
    the fold range is useless, are handled by verifying H = F*G modulo
    X^(D+1) - 1 directly (an equivalence, since deg of both sides stays
    below D+1).  Nothing wraps there, so at a point of the field that check
    is H(alpha) = F(alpha) G(alpha) with no scan (modeval.eval_mod_p_dense);
    only at X modulo R do the scans walk.  F, G and H may have any forms
    and any degree up to EXPONENT_CAP: the modular check reads them in the
    forms of modeval.triple_forms (_modular_check_no_mul), a triple that is
    not all sparse dense at X below DENSIFY_CAP, and an all-sparse one, or
    any past the cap, sparse at kaminski's one screened point, whose
    products count in POLY_MUL_OPS.

    Having neither a product nor an extension of a quotient ring, it
    refuses where the point policy finds GF(q)[X]/(R) too small: over
    GF(2^8) with degree-20 factors it raises FieldTooSmallError on a true
    product at epsilon = 1/8 (the check at X^41 - 1 needs 256 epsilon >=
    40) and answers at epsilon = 1/2; kaminski answers the first by its
    exact product and the second at a random point of GF(2^8).  Over GF(q)
    it makes unscreened draws at X modulo R instead on a triple that is not
    all sparse, and checks an all-sparse one at one screened R
    (_modular_check_no_mul)."""
    cfg = cfg or VerifyConfig()
    params = params or KaminskiParams()
    same_ctx(F, G, H)
    _own_method(cfg, "kaminski-nomul")
    eps = cfg.epsilon
    quick = _product_shape_reject(F, G, H)
    if quick is not None:
        return _certain(quick, "shape", "kaminski-nomul", cfg)
    n = max(F.degree(), G.degree(), 1)
    rho = params.per_round_bound(n) + Fraction(1, n) if n > 1 else Fraction(1)
    if rho > Fraction(1, 2):
        D = F.degree() + G.degree()  # the screen rejected any H of higher degree
        P = x_pow_minus_one(F.ctx, D + 1)
        inner = _modular_check_no_mul(F, G, H, P, VerifyConfig(epsilon=eps, seed=cfg.seed))
        witness = {"full-degree-fold": D + 1, "inner": inner.witnesses}
        return replace(inner, witnesses=[witness], method="kaminski-nomul")
    rng = RngStream(cfg.seed)

    def agree(i):
        inner = _folded_check(F, G, H, i, Fraction(1, n), rng, _modular_check_no_mul)
        return inner.verdict, {"i": i, "inner": inner.witnesses}

    return _fold_rounds(cfg, rho, params.fold_range(n), rng, "kaminski-nomul", agree)


# ---------------------------------------------------------------------------
# integer products


def _sign_and_bits(X, w):
    """The sign (True for positive) and bit length of X(2^w) for a nonzero
    integer polynomial X whose coefficients below the lead are less than
    2^(w-1) in absolute value, read from its top two nonzero terms.  The
    lower terms sum to less than 2^(w deg X - 1) in absolute value and carry
    the sign of their top term, so X(2^w) has the sign of the lead and
    w deg X + bitlen|lead| bits, one less when |lead| is a power of two and
    the next nonzero term has the other sign."""
    if isinstance(X, SparsePoly):
        lead = X.cs[-1]
        below = X.cs[-2] if len(X.cs) > 1 else 0
    else:
        lead = X.coeffs[-1]
        below = next((c for c in islice(reversed(X.coeffs), 1, None) if c), 0)
    size = abs(lead)
    bits = w * X.degree() + size.bit_length()
    if below and (below < 0) != (lead < 0) and size & (size - 1) == 0:
        bits -= 1
    return lead > 0, bits


def _check_at_power_of_two(F, G, H, w, cfg, method):
    """Decide H(2^w) = F(2^w) G(2^w) for integer polynomials whose
    coefficients below the lead are less than 2^(w-1) in absolute value,
    without forming any of the three values.  One-sided.

    The screens read signs and sizes from the top terms (_sign_and_bits):
    a zero factor, a zero or wrongly signed H, and an H(2^w) of more than 2s
    bits, s the larger bit size of F(2^w) and G(2^w), are certain
    rejections.  After them A = F(2^w), B = G(2^w) and C = H(2^w) agree in
    sign, so AB = C modulo m exactly when |A| |B| = |C| modulo m.

    The modulus is one random prime p in [λ, 2λ] with
    λ = modverify.prime_lambda(1, 2^(2s), ε), linear in s/ε and computed
    without building 2^(2s) (prime_lambda_pow2), and F, G and H are
    evaluated at 2^w mod p (modverify._agree_at).
    C and AB are below 2^(2s), so a nonzero Δ = C - AB has fewer than
    2s/log2 λ prime factors >= λ.  [λ, 2λ] holds at least 3λ/(5 ln λ)
    primes, so a uniform prime there divides Δ with probability at most
    (5/3) 2s ln 2/λ <= ε/4, and random_prime at ε/2 returns a composite
    with probability at most ε/2.  The report has rounds = 1 and the
    witness {"p": p}."""
    eps = cfg.epsilon
    if F.is_zero() or G.is_zero():
        return _certain(H.is_zero(), "zero", method, cfg)
    if H.is_zero():
        return _certain(False, "sign", method, cfg)
    (f_pos, f_bits), (g_pos, g_bits), (h_pos, h_bits) = (
        _sign_and_bits(X, w) for X in (F, G, H)
    )
    if (f_pos == g_pos) != h_pos:
        return _certain(False, "sign", method, cfg)
    s = max(f_bits, g_bits)
    if h_bits > 2 * s:
        return _certain(False, "size", method, cfg)
    p = random_prime(modverify.prime_lambda_pow2(1, 2 * s, eps), eps / 2, RngStream(cfg.seed))
    verdict = modverify._agree_at(F, G, H, None, pow(2, w, p), PrimeField(p))
    return VerifyReport(verdict, bound_above(eps), 1, [{"p": p}], method, cfg.seed)


def verify_int_product(a, b, c, cfg=None):
    """Decide a*b = c for integers: _check_at_power_of_two on the constant
    polynomials a, b and c, so signs and sizes are screened first, then
    a*b and c are compared modulo one random prime.  One-sided."""
    a, b, c = (DensePoly(ZZ, (x,)) for x in (a, b, c))
    return _check_at_power_of_two(a, b, c, 0, cfg or VerifyConfig(), "int-fold")


def kronecker_point(F, G, H):
    """The evaluation base for the substitution: the smallest power of two
    whose half exceeds every coefficient the difference H - F*G could have
    (modverify.delta_norm_bound)."""
    return 1 << max((2 * modverify.delta_norm_bound(F, G, H)).bit_length(), 1)


def verify_product_kronecker(F, G, H, cfg=None):
    """Decide H = F*G over Z through the integer identity
    H(beta) = F(beta) G(beta) at a power of two beta = 2^w large enough
    (kronecker_point) that it is equivalent to polynomial equality.  The
    identity is checked by _check_at_power_of_two, as verify_int_product
    checks a*b = c: modulo one random prime p, evaluating F, G and H at
    2^w mod p, so no value at beta is formed.  A nonzero product over Z
    has degree deg F + deg G, so an H of lower degree than F or G is a
    certain shape rejection, made before beta is computed.  The report
    carries the inner error bound, rounds and witnesses."""
    cfg = cfg or VerifyConfig()
    same_ctx(F, G, H)
    _own_method(cfg, "kronecker")
    if F.ctx != ZZ:
        raise TypeError("kronecker needs ring Z inputs")
    quick = _product_shape_reject(F, G, H)
    if quick is None and max(F.degree(), G.degree()) > H.degree():
        quick = False
    if quick is not None:
        return _certain(quick, "shape", "kronecker", cfg)
    w = kronecker_point(F, G, H).bit_length() - 1
    inner = _check_at_power_of_two(F, G, H, w, cfg, "kronecker")
    return replace(inner, witnesses=[{"beta_log2": w, "inner": inner.witnesses}])


# ---------------------------------------------------------------------------
# sparse products


# verify_sparse_product's split of epsilon where it folds: the fold prime
# is drawn at eps1 = SPARSE_EPS1 * epsilon and the folded identity is
# checked at eps2 = SPARSE_EPS2 * epsilon.  The fold loses a nonzero
# difference with probability at most 10 eps1/3 = epsilon/2, and the check
# accepts a surviving one with probability at most eps2 = epsilon/2, so a
# wrong H passes with probability at most
# (10 eps1/3) + (1 - 10 eps1/3) eps2 = epsilon - epsilon^2/4 <= epsilon.
SPARSE_EPS1 = Fraction(3, 20)
SPARSE_EPS2 = Fraction(1, 2)


def _sparse_lam(F, G, H, eps):
    """The lower end lam of the fold prime's range [lam, 2 lam] for a
    check of H = F*G at error eps: the #F #G + #H terms of H - F*G, of
    degree at most n = max(deg F + deg G, 2), stay apart modulo a uniform
    prime of that range with probability at least 1 - 10 SPARSE_EPS1 eps/3
    (verify_sparse_product)."""
    t_products = F.sparsity() * G.sparsity() + H.sparsity()
    n = max(F.degree() + G.degree(), 2)
    return max(21, math.ceil(t_products * ln_upper(n) / (SPARSE_EPS1 * eps)))


def _sparse_screen(F, G, H):
    """The O(1) screens of verify_sparse_product: (verdict, witness) when
    the shapes alone decide H = F*G, else None.  Every such verdict is
    certain.  F*G has #F #G terms at most and degree deg F + deg G at most,
    exactly that degree only over a ring the point policy serves
    (serves_point_policy), which is asked only where a zero H or an H of
    lower degree would be rejected."""
    if F.is_zero() or G.is_zero():
        return H.is_zero(), {"deterministic": "zero"}
    m = F.degree() + G.degree()
    if not H.is_zero() and (H.sparsity() > F.sparsity() * G.sparsity() or H.degree() > m):
        return False, {"rejected": "shape"}
    if (H.is_zero() or H.degree() < m) and F.ctx.serves_point_policy():
        return False, {"deterministic": "shape"} if H.is_zero() else {"rejected": "shape"}
    return None


def verify_sparse_product(F, G, H, cfg=None):
    """Decide H = F*G, reading F, G and H sparse whatever their forms
    (to_sparse()): screen the trivial shape mistakes, then compare at one
    point or fold.

    The fold prime p would be drawn from [lam, 2 lam] (_sparse_lam).
    Where lam > m = deg F + deg G, no such p is below m, so the fold
    would change nothing: the check is the plain one-point check
    (modverify._verify_at_point with P None, as kaminski's), at the whole
    epsilon and the degree m of Δ = H - F*G, with no fold prime and no
    X^p - 1.  Its report is kaminski's one-point report with method
    "sparse": rounds = 1 and the witness of modverify.draw_point.

    Otherwise it folds all exponents modulo a random prime p that almost
    surely keeps a nonzero difference nonzero, and verifies the folded
    identity modulo X^p - 1 at the point of modverify.point_kind, through
    modverify.verify_mod_ff; the witness is {"p": p, "inner": ...}.

    On every ring the point policy serves: over GF(q) either check extends
    a small field, and on a GF(q)[X]/(R) too small for the bound it raises
    FieldTooSmallError."""
    cfg = cfg or VerifyConfig()
    same_ctx(F, G, H)
    _own_method(cfg, "sparse")
    F, G, H = F.to_sparse(), G.to_sparse(), H.to_sparse()
    eps = cfg.epsilon
    screen = _sparse_screen(F, G, H)
    if screen is not None:
        verdict, witness = screen
        return VerifyReport(verdict, 0.0, 0, [witness], "sparse", cfg.seed)
    lam = _sparse_lam(F, G, H, eps)
    if lam > F.degree() + G.degree():
        return modverify._verify_at_point(F, G, H, None, cfg, "sparse")
    rng = RngStream(cfg.seed)
    p = random_prime(lam, Fraction(5, 3) * SPARSE_EPS1 * eps, rng)
    inner = _folded_check(F, G, H, p, SPARSE_EPS2 * eps, rng, modverify.verify_mod_ff)
    witnesses = [{"p": p, "inner": inner.witnesses}]
    return VerifyReport(inner.verdict, bound_above(eps), 1, witnesses, "sparse", cfg.seed)


# The cost model behind exact_route_costs, fitted to timings of both paths
# (README, "auto on sparse input"): the verifier's cost per term and
# exponent byte, in term operations of the exact product, and the factor a
# verifier that evaluates in GF(q)[X]/(R) instead of a prime field pays.
VERIFY_COST_PER_TERM_BYTE = 3
EXTENSION_PRODUCT_COST = 8


def exact_route_costs(F, G, H, eps, P=None):
    """Whether verify_product's auto method should compute the exact
    product of all-sparse F and G (reduced modulo P for a modular check)
    and compare it with H instead of running the paper's verifier.

    The input checks of the verifiers run first and raise as they do: for a
    modular check, modeval.check_shapes.  Then the verifier's O(1) screens
    (_sparse_screen, or modverify.sparsity_precheck): where one decides, the
    verifier's certain answer is the cheapest, and this returns None.  Otherwise both costs
    are estimated in term operations:

    - product: #F #G, and modulo P the bound
      modverify.reduced_product_terms, #F #G max(#P - 1, 1)^ceil(1/gamma);
    - verify: VERIFY_COST_PER_TERM_BYTE (#F + #G + #H [+ #P]) b, with b the
      byte count of the largest exponent the verifier evaluates (one
      power_table product per byte and term): deg P - 1, or for a plain
      product the lam of verify_sparse_product at its fold's eps2, below
      which it folds the exponents; times EXTENSION_PRODUCT_COST where
      modverify.point_kind evaluates at that degree and that epsilon in
      GF(q)[X]/(R).  For a plain product that is an estimate from above
      where lam > deg F + deg G: there the verifier folds nothing and
      evaluates at degree deg F + deg G and the whole epsilon.

    Returns {"product": ..., "verify": ...} when the product is cheaper and
    every exponent of F*G stays within EXPONENT_CAP, else None."""
    if P is None:
        if _sparse_screen(F, G, H) is not None:
            return None
        # verify_sparse_product folds every exponent below a prime p >= lam
        # and checks the folded identity at eps2
        eps = Fraction(eps)
        top = _sparse_lam(F, G, H, eps)
        eps = SPARSE_EPS2 * eps
        terms = F.sparsity() + G.sparsity() + H.sparsity()
    else:
        top = modeval.check_shapes(P, F, G, H) - 1
        if modverify.sparsity_precheck(F, G, H, P):
            return None
        if not (F.is_zero() or G.is_zero()) and F.degree() + G.degree() > EXPONENT_CAP:
            return None
        terms = F.sparsity() + G.sparsity() + H.sparsity() + P.sparsity()
    verify = VERIFY_COST_PER_TERM_BYTE * terms * max(1, (top.bit_length() + 7) >> 3)
    if modverify.point_kind(F.ctx, top, eps) == "extension":
        verify *= EXTENSION_PRODUCT_COST
    if P is None:
        product = F.sparsity() * G.sparsity()
    else:
        product = modverify.reduced_product_terms(F, G, P, verify)
    if product >= verify:
        return None
    return {"product": product, "verify": verify}


def verify_product(F, G, H, cfg=None, P=None):
    """Decide H = F*G, or H = (F*G) mod P where P is given: the one front
    end of both checks, which the CLI calls.  cfg.method names the check.

    Under "auto", all-sparse F, G, H (and P) whose product is cheaper than
    the paper's verifier (exact_route_costs) are decided by computing the
    terms of F*G, reduced modulo P, and comparing them with H's: a certain
    verdict with method "exact", error bound 0, no rounds and the witness
    {"deterministic": "reference-product", "cost": the estimates}.
    Otherwise a modular check runs modverify.verify_mod_ff on P read
    sparse, and a plain one runs verify_sparse_product on all-sparse input,
    verify_product_kronecker over Z and verify_product_kaminski elsewhere.

    An explicit method runs its verifier: with P, verify_mod_ff under any
    of modverify.METHODS, and without P the verifier of one of
    modverify.PRODUCT_METHODS; any other name is a ValueError.

    Only this front end takes the exact route.  verify_mod_ff and the
    per-method verifiers stay free of it: the checks inside them (the
    folded check of verify_sparse_product, kaminski-nomul's check at
    X^(D+1) - 1) run at "auto" on all-sparse input, where the estimate
    would pick the product that the verifier exists to avoid."""
    cfg = cfg or VerifyConfig()
    polys = (F, G, H) if P is None else (F, G, H, P)
    same_ctx(*polys)
    method = cfg.method
    if method == "auto" and all_sparse(*polys):
        costs = exact_route_costs(F, G, H, cfg.epsilon, P)
        if costs:
            verdict = product_terms(F, G, P) == dict(zip(H.exps, H.cs))
            witness = {"deterministic": "reference-product", "cost": costs}
            return VerifyReport(verdict, 0.0, 0, [witness], "exact", cfg.seed)
        method = "sparse"
    if P is not None:
        return modverify.verify_mod_ff(F, G, H, P.to_sparse(), cfg)
    if method == "auto":
        method = "kronecker" if F.ctx == ZZ else "kaminski"
    if method == "sparse":
        return verify_sparse_product(F, G, H, cfg)
    if method == "kronecker":
        return verify_product_kronecker(F, G, H, cfg)
    if method == "kaminski":
        return verify_product_kaminski(F, G, H, cfg)
    if method == "kaminski-nomul":
        return verify_product_kaminski_nomul(F, G, H, cfg)
    raise ValueError(f"unknown method {method!r}")
