"""Shared test helpers: deterministic oracles and random instance builders."""

import os

import pytest
from hypothesis import settings

import polycheck as pc
from polycheck.rings import RngStream, is_prime

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


def gf2_clmul(a, b):
    """The GF(2)[X] product of bit-packed a and b."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def rand_coeff(ctx, rng, hi=9):
    if ctx == pc.ZZ:
        return rng.below(2 * hi + 1) - hi
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


@pytest.fixture
def rng():
    return RngStream(20240817)
