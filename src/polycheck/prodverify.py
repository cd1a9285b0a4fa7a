"""Probabilistic verification of plain products H = F*G.

Dense products go through folding modulo a random binomial X^i - 1 (after
Kaminski), with a no-multiplication variant that replaces the folded product
by a modular-product verification.  Integer products fold modulo random
Mersenne-style moduli 2^i - 1; integer-coefficient dense products reduce to
one big integer product by evaluating at a power of two (Kronecker
substitution); sparse products fold exponents modulo a random prime p and
verify modulo X^p - 1.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import modverify
from .modverify import VerifyConfig, VerifyReport, FieldTooSmallError
from .poly import (
    SparsePoly,
    kronecker_pack,
    mul_oracle,
    reduce_mod_binomial,
    x_pow_minus_one,
)
from .rings import (
    IntegerRing,
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
    delta: float = KAMINSKI_DELTA

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
        return max(1, math.ceil(2 * self.delta * n ** float(self.e) * math.log(inner)))

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
        to have room; below that the verifiers fall back to exact checks."""
        lo, hi = self.fold_range(n)
        k = self.k(n)
        if hi - lo < 1 or lo < 21 or k == 0:
            return Fraction(1)
        return Fraction(max(k - 1, 0), hi - lo)

    def n_min(self):
        """A threshold degree at which the per-round bound reaches 1/2; the
        fallback gate in the verifiers tests the bound directly, so this is
        advisory (the bound is not exactly monotone in n)."""
        n = 2
        while self.per_round_bound(n) > Fraction(1, 2):
            n *= 2
            if n > 2**80:
                raise OverflowError("no practical n reaches the bound")
        lo, hi = n // 2, n
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.per_round_bound(mid) > Fraction(1, 2):
                lo = mid
            else:
                hi = mid
        return hi


def _rounds_for(eps, per_round):
    """Smallest r with per_round**r <= eps (requires per_round <= 1/2)."""
    r = 0
    acc = Fraction(1)
    while acc > eps:
        acc *= per_round
        r += 1
        if r > 4096:
            raise ValueError("per-round bound too weak to amplify")
    return max(r, 1)


def kaminski_round(F, G, H, i):
    """One deterministic fold-and-compare at fold degree i: reduce F, G, H
    modulo X^i - 1, multiply the folded factors (mul_oracle) and compare."""
    Fi = reduce_mod_binomial(F, i)
    Gi = reduce_mod_binomial(G, i)
    Hi = reduce_mod_binomial(H, i)
    Mi = reduce_mod_binomial(mul_oracle(Fi, Gi), i)
    return Mi == Hi


def _product_shape_reject(F, G, H):
    """Degree screens shared by the dense product verifiers.  Returns a
    verdict for the trivial cases, or None when the probabilistic phase must
    run."""
    if F.is_zero() or G.is_zero():
        return H.is_zero()
    if H.is_zero():
        return False
    if H.degree() > F.degree() + G.degree():
        return False
    return None


def verify_product_kaminski(F, G, H, cfg=None, params=None):
    """Decide H = F*G over any coefficient ring by folding modulo a random
    X^i - 1 and comparing folded products.  One-sided; when the per-round
    bound at this degree is vacuous, falls back to one exact reference
    multiplication."""
    cfg = cfg or VerifyConfig()
    params = params or KaminskiParams()
    if F.ctx != G.ctx or F.ctx != H.ctx:
        raise ValueError("mixed coefficient contexts")
    eps = cfg.epsilon
    quick = _product_shape_reject(F, G, H)
    if quick is not None:
        return VerifyReport(quick, 0.0, 0, [{"deterministic": "shape"}], "kaminski", cfg.seed)
    n = max(F.degree(), G.degree(), 1)
    rho = params.per_round_bound(n)
    if rho > Fraction(1, 2):
        verdict = mul_oracle(F, G) == H
        return VerifyReport(
            verdict, 0.0, 0, [{"deterministic": "reference-product"}], "kaminski", cfg.seed
        )
    rng = RngStream(cfg.seed)
    lo, hi = params.fold_range(n)
    rounds = _rounds_for(eps, rho)
    witnesses = []
    for _ in range(rounds):
        i = rng.randint(lo, hi - 1)
        witnesses.append({"i": i})
        if not kaminski_round(F, G, H, i):
            return VerifyReport(False, float(eps), rounds, witnesses, "kaminski", cfg.seed)
    return VerifyReport(True, float(eps), rounds, witnesses, "kaminski", cfg.seed)


def _modular_check_no_mul(F, G, H, P, eps, seed):
    """Verify H = (F*G) mod P without any polynomial multiplication, choosing
    the path by coefficient domain and field size."""
    ctx = F.ctx
    n = P.degree()
    cfg = VerifyConfig(epsilon=eps, seed=seed)
    if isinstance(ctx, IntegerRing):
        return modverify.verify_mod_over_Z(F, G, H, P, cfg)
    size = ctx.size()
    if size * eps >= max(n - 1, 0):
        return modverify.verify_mod(F, G, H, P, cfg)
    if isinstance(ctx, PrimeField):
        # the dense scans at X multiply no polynomials; the sparse ones would
        F, G, H = (X.to_dense() if isinstance(X, SparsePoly) else X for X in (F, G, H))
        cfg = VerifyConfig(epsilon=eps, method="companion-no-polymul", seed=seed)
        return modverify.verify_mod_companion(F, G, H, P, cfg)
    raise FieldTooSmallError("small extension-field inputs are not supported here")


def verify_product_kaminski_nomul(F, G, H, cfg=None, params=None):
    """Fold-based product verification with the folded-product comparison
    replaced by a modular-product verification, so the whole path performs no
    polynomial multiplication.  Small degrees, where the fold range is
    useless, are handled by verifying H = F*G modulo X^(D+1) - 1 directly
    (an equivalence, since deg of both sides stays below D+1)."""
    cfg = cfg or VerifyConfig()
    params = params or KaminskiParams()
    if F.ctx != G.ctx or F.ctx != H.ctx:
        raise ValueError("mixed coefficient contexts")
    eps = cfg.epsilon
    quick = _product_shape_reject(F, G, H)
    if quick is not None:
        return VerifyReport(
            quick, 0.0, 0, [{"deterministic": "shape"}], "kaminski-nomul", cfg.seed
        )
    ctx = F.ctx
    n = max(F.degree(), G.degree(), 1)
    rho = params.per_round_bound(n) + Fraction(1, n) if n > 1 else Fraction(1)
    if rho > Fraction(1, 2):
        D = max(H.degree(), F.degree() + G.degree())
        P = x_pow_minus_one(ctx, D + 1)
        inner = _modular_check_no_mul(F, G, H, P, eps, cfg.seed)
        report = VerifyReport(
            inner.verdict,
            float(eps),
            inner.rounds,
            [{"full-degree-fold": D + 1, "inner": inner.witnesses}],
            "kaminski-nomul",
            cfg.seed,
        )
        return report
    rng = RngStream(cfg.seed)
    lo, hi = params.fold_range(n)
    rounds = _rounds_for(eps, rho)
    inner_eps = Fraction(1, n)
    witnesses = []
    for rnd in range(rounds):
        i = rng.randint(lo, hi - 1)
        Fi = reduce_mod_binomial(F, i)
        Gi = reduce_mod_binomial(G, i)
        Hi = reduce_mod_binomial(H, i)
        P = x_pow_minus_one(ctx, i)
        inner = _modular_check_no_mul(Fi, Gi, Hi, P, inner_eps, rng.bits(64))
        witnesses.append({"i": i, "inner": inner.witnesses})
        if not inner.verdict:
            return VerifyReport(
                False, float(eps), rounds, witnesses, "kaminski-nomul", cfg.seed
            )
    return VerifyReport(True, float(eps), rounds, witnesses, "kaminski-nomul", cfg.seed)


# ---------------------------------------------------------------------------
# integer products


def fold_mersenne(x, i):
    """x mod (2^i - 1) by i-bit limb folding with end-around carries,
    canonical in [0, 2^i - 1)."""
    if i < 1:
        raise ValueError("need i >= 1")
    if x < 0:
        raise ValueError("need x >= 0")
    m = (1 << i) - 1
    r = 0
    while x:
        r += x & m
        x >>= i
    while r > m:
        r = (r & m) + (r >> i)
    return 0 if r == m else r


def verify_int_product(a, b, c, cfg=None, e=None):
    """Decide a*b = c for integers by reducing modulo random 2^i - 1 with
    i drawn from [s^(1-e), 2 s^(1-e)), s the operand bit size.  One-sided;
    signs are screened first, and sizes where the per-round bound is vacuous
    use one exact product instead."""
    cfg = cfg or VerifyConfig()
    params = KaminskiParams(e=e if e is not None else Fraction(9, 20))
    eps = cfg.epsilon
    if a == 0 or b == 0:
        return VerifyReport(c == 0, 0.0, 0, [{"deterministic": "zero"}], "int-fold", cfg.seed)
    if c == 0:
        return VerifyReport(False, 0.0, 0, [{"deterministic": "sign"}], "int-fold", cfg.seed)
    if ((a > 0) == (b > 0)) != (c > 0):
        return VerifyReport(False, 0.0, 0, [{"deterministic": "sign"}], "int-fold", cfg.seed)
    A, B, C = abs(a), abs(b), abs(c)
    s = max(A.bit_length(), B.bit_length())
    if C.bit_length() > 2 * s:
        return VerifyReport(False, 0.0, 0, [{"deterministic": "size"}], "int-fold", cfg.seed)
    rho = params.per_round_bound(s)
    lo, hi = params.fold_range(s)
    # 2^i - 1 is a useless modulus below i = 2, so tiny operands go exact
    if rho > Fraction(1, 2) or lo < 2:
        return VerifyReport(
            A * B == C, 0.0, 0, [{"deterministic": "product"}], "int-fold", cfg.seed
        )
    rng = RngStream(cfg.seed)
    rounds = _rounds_for(eps, rho)
    witnesses = []
    for _ in range(rounds):
        i = rng.randint(lo, hi - 1)
        witnesses.append({"i": i})
        m = (1 << i) - 1
        ai = fold_mersenne(A, i)
        bi = fold_mersenne(B, i)
        ci = fold_mersenne(C, i)
        if (ai * bi) % m != ci:
            return VerifyReport(False, float(eps), rounds, witnesses, "int-fold", cfg.seed)
    return VerifyReport(True, float(eps), rounds, witnesses, "int-fold", cfg.seed)


def kronecker_point(F, G, H):
    """The evaluation base for the substitution: the smallest power of two
    whose half exceeds every coefficient the difference H - F*G could have."""
    bound = 2 * (H.norm() if not H.is_zero() else 0)
    if not F.is_zero() and not G.is_zero():
        bound += 2 * min(F.sparsity(), G.sparsity()) * F.norm() * G.norm()
    return 1 << max(bound.bit_length(), 1)


def _eval_power_of_two(F, w):
    """F(2^w), the Kronecker substitution of F: poly.kronecker_pack for
    dense F, a shifted sum of the terms for sparse F."""
    if isinstance(F, SparsePoly):
        acc = 0
        for e, c in F.terms:
            acc += c << (e * w)
        return acc
    return kronecker_pack(F.coeffs, w)


def verify_product_kronecker(F, G, H, cfg=None, e=None):
    """Decide H = F*G over Z by evaluating all three at a power of two beta
    large enough that polynomial equality is equivalent to the integer
    identity H(beta) = F(beta) G(beta), then verifying that integer product."""
    cfg = cfg or VerifyConfig()
    if F.ctx != G.ctx or F.ctx != H.ctx:
        raise ValueError("mixed coefficient contexts")
    if not isinstance(F.ctx, IntegerRing):
        raise TypeError("Kronecker substitution needs integer polynomials")
    quick = _product_shape_reject(F, G, H)
    if quick is not None:
        return VerifyReport(
            quick, 0.0, 0, [{"deterministic": "shape"}], "kronecker", cfg.seed
        )
    beta = kronecker_point(F, G, H)
    w = beta.bit_length() - 1
    fb = _eval_power_of_two(F, w)
    gb = _eval_power_of_two(G, w)
    hb = _eval_power_of_two(H, w)
    inner = verify_int_product(fb, gb, hb, cfg, e=e)
    return VerifyReport(
        inner.verdict,
        inner.error_bound,
        inner.rounds,
        [{"beta_log2": w, "inner": inner.witnesses}],
        "kronecker",
        cfg.seed,
    )


# ---------------------------------------------------------------------------
# sparse products


@dataclass(frozen=True)
class SparseVerifyParams:
    """Error split for the sparse product verifier: eps1 steers the random
    prime choice, eps2 the modular verification, constrained by
    (10 eps1/3) + (1 - 10 eps1/3) eps2 <= eps."""

    epsilon: Fraction
    eps1: Fraction
    eps2: Fraction

    @classmethod
    def from_epsilon(cls, epsilon):
        eps = Fraction(epsilon)
        if not 0 < eps < 1:
            raise ValueError("epsilon must be in (0, 1)")
        eps1 = 3 * eps / 20
        eps2 = eps / 2
        return cls(eps, eps1, eps2)

    def __post_init__(self):
        head = Fraction(10, 3) * self.eps1
        if not 0 < self.eps1 < Fraction(3, 10):
            raise ValueError("eps1 must be in (0, 3/10)")
        if not 0 < self.eps2 < 1:
            raise ValueError("eps2 must be in (0, 1)")
        if head + (1 - head) * self.eps2 > self.epsilon:
            raise ValueError("error split exceeds the target epsilon")

    def lam(self, t_products, n):
        return max(21, math.ceil(Fraction(1, 1) / self.eps1 * t_products * ln_upper(n)))


def verify_sparse_product(F, G, H, cfg=None):
    """Decide H = F*G for sparse polynomials: screen the trivial shape
    mistakes, fold all exponents modulo a random prime p that almost surely
    keeps a nonzero difference nonzero, and verify the folded identity
    modulo X^p - 1: through verify_mod_ff over GF(q), which picks direct
    evaluation or an extension field, and through verify_mod otherwise,
    which reduces integers modulo a random prime and raises
    FieldTooSmallError on an extension field too small for the bound."""
    cfg = cfg or VerifyConfig()
    if F.ctx != G.ctx or F.ctx != H.ctx:
        raise ValueError("mixed coefficient contexts")
    for X in (F, G, H):
        if not isinstance(X, SparsePoly):
            raise TypeError("verify_sparse_product needs sparse polynomials")
    eps = cfg.epsilon
    if F.is_zero() or G.is_zero():
        return VerifyReport(
            H.is_zero(), 0.0, 0, [{"deterministic": "zero"}], "sparse", cfg.seed
        )
    if H.is_zero():
        return VerifyReport(False, 0.0, 0, [{"deterministic": "shape"}], "sparse", cfg.seed)
    n = H.degree()
    if H.sparsity() > F.sparsity() * G.sparsity() or n != F.degree() + G.degree():
        return VerifyReport(False, float(eps), 0, [{"rejected": "shape"}], "sparse", cfg.seed)
    params = SparseVerifyParams.from_epsilon(eps)
    rng = RngStream(cfg.seed)
    t_products = F.sparsity() * G.sparsity() + H.sparsity()
    lam = params.lam(t_products, max(n, 2))
    p = random_prime(lam, Fraction(5, 3) * params.eps1, rng)
    Fp = reduce_mod_binomial(F, p)
    Gp = reduce_mod_binomial(G, p)
    Hp = reduce_mod_binomial(H, p)
    ctx = F.ctx
    P = x_pow_minus_one(ctx, p)
    inner_cfg = VerifyConfig(epsilon=params.eps2, seed=rng.bits(64))
    verify = modverify.verify_mod_ff if isinstance(ctx, PrimeField) else modverify.verify_mod
    inner = verify(Fp, Gp, Hp, P, inner_cfg)
    witnesses = [{"p": p, "inner": inner.witnesses}]
    return VerifyReport(inner.verdict, float(eps), 1, witnesses, "sparse", cfg.seed)


def count_binomial_divisors(delta, n, e=Fraction(9, 20)):
    """Exact count of fold degrees i in [n^(1-e), 2 n^(1-e)) with
    (X^i - 1) dividing delta; brute force, for harness use."""
    if delta.is_zero():
        raise ValueError("delta must be nonzero")
    params = KaminskiParams(e=Fraction(e))
    lo, hi = params.fold_range(n)
    count = 0
    for i in range(lo, hi):
        if reduce_mod_binomial(delta, i).is_zero():
            count += 1
    return count


def kaminski_k(n, e=Fraction(9, 20)):
    """The divisor-count bound k = ceil(2 delta n^e ln ln n^(1-e))."""
    return KaminskiParams(e=Fraction(e)).k(n)
