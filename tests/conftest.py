"""Shared test helpers: deterministic oracles and random instance builders."""

import os
import random

import pytest
from hypothesis import settings

import polycheck as pc
from polycheck.rings import POLY_MUL_OPS, RngStream, is_prime
from oracle import oracle_mod_product

# "ci" is the default; POLYCHECK_HYPOTHESIS_PROFILE=thorough draws many more
# (still reproducible) examples, for the kernel-equivalence tests in CI.
settings.register_profile("ci", deadline=None, derandomize=True, max_examples=80)
settings.register_profile("thorough", deadline=None, derandomize=True, max_examples=1000)
settings.load_profile(os.environ.get("POLYCHECK_HYPOTHESIS_PROFILE", "ci"))


# exact Miller-Rabin below 3.3 * 10^24, as used for moduli from outside
is_prime_det64 = is_prime


def all_monics_gf2(d):
    for mask in range(1 << d):
        yield [((mask >> i) & 1) for i in range(d)] + [1]


def is_irreducible_gf2_exhaustive(coeffs):
    """Trial division by every lower-degree monic over GF(2)."""

    def list_mod(a, b):
        a = list(a)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            if a[i] & 1:
                for j in range(db + 1):
                    a[i - db + j] ^= b[j]
        while a and a[-1] == 0:
            a.pop()
        return a

    d = len(coeffs) - 1
    if d <= 1:
        return d == 1
    for deg in range(1, d // 2 + 1):
        for cand in all_monics_gf2(deg):
            if not list_mod(coeffs, cand):
                return False
    return True


def rebuilt(X, ctx=None):
    """X through the checking constructor of its class, over ctx if given:
    over GF(p), an integer polynomial's canonical copy there."""
    if isinstance(X, pc.DensePoly):
        return pc.DensePoly(ctx or X.ctx, X.coeffs)
    return pc.SparsePoly(ctx or X.ctx, X.terms)


def gf2_clmul(a, b):
    """The GF(2)[X] product of bit-packed a and b."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


class Draws(random.Random):
    """A random.Random with the below(n) and residue(n) of RngStream that
    the builders here and ring.sample read, so instances drawn from it do
    not move when the package's RngStream does."""

    def below(self, n):
        return self.randrange(n)

    residue = below


def counted(call):
    """call()'s value and the POLY_MUL_OPS delta of the call."""
    before = POLY_MUL_OPS.count
    value = call()
    return value, POLY_MUL_OPS.count - before


def rand_coeff(ctx, rng, hi=9):
    if ctx == pc.ZZ:
        return rng.below(2 * hi + 1) - hi
    if isinstance(ctx.zero(), tuple):  # GF(q)[X]/(R) for odd q, or a tower
        return ctx.sample(rng)
    return rng.below(ctx.size())


def rand_nonzero_coeff(ctx, rng, hi=9):
    c = ctx.zero()
    while ctx.is_zero(c):
        c = ctx.canon(rand_coeff(ctx, rng, hi))
    return c


def rand_dense(ctx, deg, rng, hi=9):
    """Random dense polynomial of exact degree deg (deg < 0 gives zero)."""
    if deg < 0:
        return pc.DensePoly.zero(ctx)
    cs = [rand_coeff(ctx, rng, hi) for _ in range(deg)]
    cs.append(rand_nonzero_coeff(ctx, rng, hi))
    return pc.DensePoly(ctx, cs)


def rand_sparse(ctx, max_deg, t, rng, hi=9):
    """Random sparse polynomial with at most t terms, degree < max_deg."""
    exps = set()
    while len(exps) < min(t, max_deg):
        exps.add(rng.below(max_deg))
    return pc.SparsePoly(
        ctx, [(e, rand_nonzero_coeff(ctx, rng, hi)) for e in sorted(exps)]
    )


def rand_monic_sparse(ctx, n, t, rng, hi=9):
    """Random monic sparse modulus of degree exactly n with about t terms."""
    d = {n: ctx.one()}
    while len(d) < min(t, n + 1):
        d[rng.below(n)] = rand_nonzero_coeff(ctx, rng, hi)
    return pc.SparsePoly.from_dict(ctx, d)


def perturb_poly(H, rng):
    """One coefficient changed (or one monomial added)."""
    ctx = H.ctx
    if isinstance(H, pc.SparsePoly):
        d = dict(H.terms)
        if d and rng.below(2):
            e = sorted(d)[rng.below(len(d))]
            v = ctx.add(d[e], ctx.one())
            if ctx.is_zero(v):
                del d[e]
            else:
                d[e] = v
        else:
            e = rng.below(H.degree() + 1) if not H.is_zero() else 0
            v = ctx.add(d.get(e, ctx.zero()), ctx.one())
            if ctx.is_zero(v):
                d.pop(e, None)
            else:
                d[e] = v
        out = pc.SparsePoly.from_dict(ctx, d)
        if out == H:  # degenerate cancellation, force a fresh monomial
            d[(H.degree() + 1) if not H.is_zero() else 0] = ctx.one()
            out = pc.SparsePoly.from_dict(ctx, d)
        return out
    cs = list(H.coeffs) or [ctx.zero()]
    i = rng.below(len(cs))
    cs[i] = ctx.add(cs[i], ctx.one())
    out = pc.DensePoly(ctx, cs)
    if out == H:
        cs.append(ctx.one())
        out = pc.DensePoly(ctx, cs)
    return out


def witness_point(ctx, entry):
    """The ring and point a witness entry names, rebuilt from the entry
    alone: {"modulus": R}, with or without "extension_degree", is the class
    of X in ctx[X]/(R); {"p": p, "alpha": a} or {"q": p, "alpha": a} is the
    point a of GF(p), for a check over Z; {"alpha": a} is the point a of
    ctx."""
    if "modulus" in entry:
        ring = pc.ExtField(ctx, entry["modulus"])
        return ring, ring.x
    prime = entry.get("p", entry.get("q"))
    ring = ctx if prime is None else pc.GF(prime)
    alpha = entry["alpha"]
    if isinstance(ring, pc.ExtField):
        alpha = ring.from_coeffs(alpha)
    return ring, alpha


def agrees_at_witness(F, G, H, P, entry):
    """Whether H agrees at the point of a witness entry with the true
    (F*G) mod P (oracle_mod_product), or with F*G (mul_oracle) when P is
    None."""
    ring, alpha = witness_point(F.ctx, entry)
    truth = pc.mul_oracle(F, G) if P is None else oracle_mod_product(F, G, P)
    return pc.evaluate(H, alpha, ring) == pc.evaluate(truth, alpha, ring)


def assert_witness_certifies(report, F, G, H, P=None):
    """A one-point report is a certificate: its witness alone, without the
    seed, rebuilds the point, and the comparison there is the verdict.  Over
    Z verify_mod records the prime and the point as two entries."""
    assert report.rounds == 1
    entry = {k: v for part in report.witnesses for k, v in part.items()}
    assert agrees_at_witness(F, G, H, P, entry) == report.verdict


@pytest.fixture
def rng():
    return RngStream(20240817)
