"""Slow, obviously-correct reference implementations.

These back the test suite; no verifier calls them.  They never call the
package's optimized paths: dense products are plain schoolbook convolutions
and reductions are classical term-by-term long division, so they form an
independent route against which everything else is checked.

The last three, sparsity_bound and count_binomial_divisors (the paper's
lemma counters) and CompanionOperator (a test constructor), do call the
package; they are not part of that independent route.
"""

from fractions import Fraction

from polycheck.poly import (
    EXPONENT_CAP,
    DensePoly,
    SparsePoly,
    reduce_mod_binomial,
    reduction_steps,
)
from polycheck.prodverify import KaminskiParams
from polycheck.rings import POLY_MUL_OPS, ExtField


def poly_divmod(Q, P):
    """Classical long division of dense Q by dense monic P: (quotient, remainder)."""
    if Q.ctx != P.ctx:
        raise ValueError("mixed coefficient contexts")
    ctx = Q.ctx
    if P.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not ctx.is_zero(ctx.sub(P.coeffs[-1], ctx.one())):
        raise ValueError("divisor must be monic")
    n = P.degree()
    rem = list(Q.coeffs)
    if len(rem) - 1 < n:
        return DensePoly.zero(ctx), DensePoly(ctx, rem)
    quo = [ctx.zero()] * (len(rem) - n)
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i]
        if ctx.is_zero(c):
            continue
        quo[i - n] = c
        for j in range(n + 1):
            rem[i - n + j] = ctx.sub(rem[i - n + j], ctx.mul(c, P.coeffs[j]))
    return DensePoly(ctx, quo), DensePoly(ctx, rem)


def pair_terms(ctx, pairs):
    """The terms a SparsePoly of the (exponent, coefficient) pairs holds,
    as one tuple per term: exponents ints, strictly increasing from 0 and
    at most EXPONENT_CAP, else the constructor's ValueError; coefficients
    canonical, zeros dropped.  The reference for the two parallel tuples
    a SparsePoly keeps, and for its .terms, repr and errors."""
    out = []
    last = -1
    for e, c in pairs:
        e = int(e)
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if e <= last:
            raise ValueError("exponents must be strictly increasing")
        if e > EXPONENT_CAP:
            raise ValueError("exponent exceeds 2^63 - 1")
        last = e
        c = ctx.canon(c)
        if not ctx.is_zero(c):
            out.append((e, c))
    return tuple(out)


def _school_product_dense(F, G):
    ctx = F.ctx
    if F.is_zero() or G.is_zero():
        return DensePoly.zero(ctx)
    POLY_MUL_OPS.bump()
    out = [ctx.zero()] * (len(F.coeffs) + len(G.coeffs) - 1)
    for i, a in enumerate(F.coeffs):
        if not ctx.is_zero(a):
            for j, b in enumerate(G.coeffs):
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return DensePoly(ctx, out)


def _pair_product_sparse(F, G):
    ctx = F.ctx
    POLY_MUL_OPS.bump()
    acc = {}
    zero = ctx.zero()
    for e1, c1 in F.terms:
        for e2, c2 in G.terms:
            e = e1 + e2
            acc[e] = ctx.add(acc.get(e, zero), ctx.mul(c1, c2))
    return SparsePoly.from_dict(ctx, acc)


def _sparse_long_division_rem(Q, P):
    """Remainder of sparse Q by sparse monic P, killing leading terms one at
    a time (the quadratic classical method)."""
    ctx = Q.ctx
    n = P.degree()
    low = P.terms[:-1]
    acc = dict(Q.terms)
    zero = ctx.zero()
    while acc:
        e = max(acc)
        if e < n:
            break
        c = acc.pop(e)
        for pe, pc in low:
            pos = e - n + pe
            v = ctx.sub(acc.get(pos, zero), ctx.mul(c, pc))
            if ctx.is_zero(v):
                acc.pop(pos, None)
            else:
                acc[pos] = v
    return SparsePoly.from_dict(ctx, acc)


def oracle_mod_product(F, G, P):
    """(F*G) mod P, ground truth for modular products.

    Dense inputs: schoolbook product, then classical long division by the
    densified modulus.  Sparse inputs: all-pairs product, then term-by-term
    long division.
    """
    if F.ctx != G.ctx or F.ctx != P.ctx:
        raise ValueError("mixed coefficient contexts")
    if P.is_zero() or P.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    if not P.ctx.is_zero(P.ctx.sub(P.terms[-1][1], P.ctx.one())):
        raise ValueError("modulus must be monic")
    if isinstance(F, DensePoly) and isinstance(G, DensePoly):
        prod = _school_product_dense(F, G)
        _, rem = poly_divmod(prod, P.to_dense())
        return rem
    if isinstance(F, SparsePoly) and isinstance(G, SparsePoly):
        prod = _pair_product_sparse(F, G)
        return _sparse_long_division_rem(prod, P)
    raise TypeError("oracle_mod_product needs two dense or two sparse polynomials")


def companion_matrix(R):
    """The companion matrix of a monic R (degree k >= 1) as a tuple of rows."""
    ctx = R.ctx
    if R.is_zero() or R.degree() < 1:
        raise ValueError("need degree >= 1")
    if not ctx.is_zero(ctx.sub(R.coeffs[-1], ctx.one())):
        raise ValueError("R must be monic")
    k = R.degree()
    rows = []
    for i in range(k):
        row = [ctx.zero()] * k
        if i > 0:
            row[i - 1] = ctx.one()
        row[k - 1] = ctx.neg(R.coeffs[i])
        rows.append(tuple(row))
    return tuple(rows)


def _mat_mul(ctx, A, B):
    k = len(A)
    cols = list(zip(*B))
    out = []
    for row in A:
        orow = []
        for col in cols:
            s = ctx.zero()
            for a, b in zip(row, col):
                s = ctx.add(s, ctx.mul(a, b))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def _mat_add_scalar_eye(ctx, A, c):
    out = []
    for i, row in enumerate(A):
        r = list(row)
        r[i] = ctx.add(r[i], c)
        out.append(tuple(r))
    return tuple(out)


def oracle_matrix_eval(H, R):
    """H(C_R) by explicit dense matrix Horner with naive k x k products."""
    ctx = H.ctx
    C = companion_matrix(R)
    k = len(C)
    zero_mat = tuple(tuple(ctx.zero() for _ in range(k)) for _ in range(k))
    if H.is_zero():
        return zero_mat
    acc = zero_mat
    for c in reversed(H.coeffs):
        acc = _mat_mul(ctx, acc, C)
        acc = _mat_add_scalar_eye(ctx, acc, c)
    return acc


def oracle_divides(A, B):
    """True iff monic B divides A exactly."""
    if isinstance(A, SparsePoly):
        A = A.to_dense()
    if isinstance(B, SparsePoly):
        B = B.to_dense()
    if B.is_zero():
        raise ValueError("division by the zero polynomial")
    if not B.ctx.is_zero(B.ctx.sub(B.coeffs[-1], B.ctx.one())):
        raise ValueError("divisor must be monic")
    if A.is_zero():
        return True
    _, rem = poly_divmod(A, B)
    return rem.is_zero()


def sparsity_bound(q_terms, p_terms, excess, gap):
    """Upper bound #Q (#P - 1)^ceil(excess/(gamma n)) on #(Q mod P)."""
    if p_terms < 2:
        raise ValueError("bound needs #P >= 2")
    return q_terms * (p_terms - 1) ** reduction_steps(excess, gap)


def count_binomial_divisors(delta, n, e=KaminskiParams.e):
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


def CompanionOperator(R):
    """Multiplication by X modulo a monic R of degree d >= 1: the quotient
    ring B[X]/(R), whose x is the class of X; the companion matrix stays
    implicit."""
    return ExtField(R.ctx, R.to_dense().coeffs)  # raises unless R is monic
