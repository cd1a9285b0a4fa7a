"""Evaluating a modular product (F*G) mod P at a point without ever
forming F*G.

The dense routines run a linear scan driven by the leading coefficients of
the shifted residues (X^i * F) mod P; the sparse routines only visit indices
where something happens, kept as a dict of pending values and a min-heap
of their indices, and bridge the gaps between them by powers of the point
from one windowed power table (poly.power_table), which also serves
P(alpha) and F(alpha) and which the calling check shares with its
evaluation of H.  The table gives its powers in the ring's product form
(ring.product_form), bit-sliced in GF(2)[X]/(R), slot-packed in
GF(q)[X]/(R) for odd q from degree 2 on, and the element itself
elsewhere, and the sparse scan takes its gap powers from it as they are
and keeps its own values in that form, so its gap products are made as
the table makes its own, and only the result leaves the form.  Where
deg F + deg G < deg P nothing wraps, and neither form scans at all: the
result is F(alpha) G(alpha), the sparse routine's from that table
(_nothing_wraps).  That exit serves the folds of verify_sparse_product
whose prime lands above the degree of the product and the full-degree
checks of kaminski-nomul that read their input sparse.  The one exception
is dense input at the class of X in a quotient ring, where that product
would be a counted polynomial multiplication and the dense scan keeps its
walk.
P = X^n - 1 is one such P, not a scan of its own.
eval_mod is the one entry: it reads F and G in the forms of triple_forms,
the one form rule of every check, and runs the sparse scan when both are
sparse, the dense scan, which makes either form dense, otherwise; the
sparse scans read either form sparse.  check_shapes is
the one shape check of every scan and of every modular verifier, and runs
before anything reads P's terms.  Every scan computes its own leading
coefficients, in the ring it evaluates in; no caller hands it any.  They
are the quotient of X^(n-1) F by P, reversed: the dense ones come from
poly.divide_in_place, the long division whose remainder is
poly.mod_reduce's, and the sparse ones from a heap walk of the same
division.  For F, G and P over Z at a point of GF(p) that ring is GF(p):
the scans read the signed integers as they are and reduce them as they
go, and nothing is copied into GF(p).

The companion matrix C_R of a monic R needs no scan of its own either:
column 0 of H(C_R) is the coefficient vector of H mod R, which is H
evaluated at the class of X in the quotient ring B[X]/(R), and column j is
X^j * (H mod R).  So the companion routines run the same scans at alpha = X
in that ring, where "times alpha" is ExtField.mul_x, and only read the
columns off the result.

The dense scan runs as the fused kernel ring.dense_scan wherever the ring
says it serves (ring.serves_dense(ctx, alpha), as dense Horner does in
poly.evaluate, a block of coefficients at a time; see rings), and as the
generic ring-method loop _dense_scan, its reference, everywhere else: Z,
quotient rings over Z or over another quotient ring, coefficients in the
quotient ring itself, and any point of a quotient ring but its x.
There are three kernels, one per element representation:
  - ints in GF(q), or signed integers, at any point of GF(q)
    (PrimeField.dense_scan): the scan transposed, sum g_i f_i =
    F(alpha) G(alpha) - P(alpha) sum v_j s_j with s_j = g_(j+1) + alpha
    s_(j+1), one multiply-add and one % q per index and one C-level dot
    product with V;
  - packed GF(2)[X]/(R) at x, eight indices per step (GF2Ext.dense_scan):
    f <- (f x^8 mod R) + T[v-byte], two table lookups, with G's bytes as
    256 buckets of f and the pairs inside a byte as 28 popcounts of ANDed
    bit-vectors;
  - GF(q)[X]/(R) at x for odd q (GFqExt.dense_scan): the d coordinates sit
    unreduced in w-bit slots of one int, the top coordinate in the low
    slot, so x * f is one shift plus (low slot % q) times the packed -R
    mod q, and -v P(x) one more multiply-add.  The f-slots stay below
    2d q^2 and the slots of a sum of m terms below 2m d q^3; w is the bit
    length of that bound.
A fourth kernel, gf2_first_mismatch, runs the packed GF(2) scan for many
moduli R of one degree d at once: each R's residue sits in its own
(d+1)-bit lane of one int, and the first R at which H and the product
disagree is the lowest nonzero lane of their difference.  Its Horner pass
for H, F and P runs a block of codes at a time, as PrimeField.horner and
GFqExt.horner do: a block is one C-level sum of masked powers of x, and the
giant step, acc times x^b, is a linear map of each lane's d bits, made of
shifts, ANDs and one subtraction per bit, so no product is made.
A fifth, sparse_sum, is the sparse evaluation of poly.evaluate, and so
gives the sparse scan its P(alpha) and F(alpha), wherever the ring says it
serves (ring.serves_sparse(ctx)).  In GF(q) (PrimeField.sparse_sum), for
each byte position of the exponents, one C-level pass multiplies every
term's value by its entry of that window of the shared power table, whose
window grows in bulk (PrimeField.double_powers) where the request asks for
enough of it, and runs of terms that share a top byte are summed before
their one product.  Its reference is the bucketed loop poly._sparse_sum,
which every other ring, Z included, runs in its product form: for each
byte position, one product per distinct high part of the exponents, on
the table's windows as they are, leaving the form once with the sum.
None of them multiplies polynomials or counts in POLY_MUL_OPS.
"""

import heapq
import math
from functools import reduce
from operator import and_, xor

from .poly import (
    DENSIFY_CAP,
    _check_eval_ring,
    _require_monic,
    all_sparse,
    divide_in_place,
    evaluate,
    power_table,
    same_ctx,
    x_pow_minus_one,
)
from .rings import _gf2_bits


def check_shapes(P, *polys):
    """The shape of a modular check of polys modulo P, the one check of
    every scan and modular verifier: every polynomial over P's ring,
    deg P >= 1, every other polynomial of degree < deg P, and P a monic
    SparsePoly.  Returns n = deg P."""
    same_ctx(P, *polys)
    if P.is_zero() or P.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    n = P.degree()
    for X in polys:
        if not X.is_zero() and X.degree() >= n:
            raise ValueError("inputs must have degree < deg P")
    _require_monic(P)
    return n


def triple_forms(*polys, n, dense):
    """(*polys, sparse): the forms a check of polys, each of degree below n,
    reads them in, and whether those are all sparse.  This is the one form
    rule of every check that meets more than one form: of the verifiers on
    their triple F, G, H, and of eval_mod on its F and G.  All-sparse input
    is read as it is, whatever is asked: a check reads its sparse terms
    only and never expands them.  From n = DENSIFY_CAP on, where no vector
    of n coefficients is built, every one is read as its to_sparse() copy,
    so the check is the one of the all-sparse input.  Below it, mixed or
    dense input is made dense where dense is asked for (at X modulo R,
    where the dense scans multiply no polynomials) and stays as it is
    otherwise."""
    if n >= DENSIFY_CAP:
        polys = [X.to_sparse() for X in polys]
    elif dense and not all_sparse(*polys):
        polys = [X.to_dense() for X in polys]
    return (*polys, all_sparse(*polys))


# ---------------------------------------------------------------------------
# products modulo X^n - 1


def eval_mod_binomial_dense(F, G, n, alpha, ring=None):
    """((F*G) mod X^n - 1)(alpha): eval_mod_p_dense at P = X^n - 1, whose
    leading coefficients need no updates, so the scan is the recurrence
    c_0 = F(alpha), c_{j+1} = alpha*c_j - (alpha^n - 1) f_{n-j-1}."""
    return eval_mod_p_dense(x_pow_minus_one(F.ctx, n), F, G, alpha, ring)


def eval_mod_binomial_sparse(F, G, n, alpha, ring=None, pw=None):
    """Sparse variant: eval_mod_p_sparse at P = X^n - 1, in
    O(#F + #G) ring operations and powers of alpha."""
    return eval_mod_p_sparse(x_pow_minus_one(F.ctx, n), F, G, alpha, ring, pw)


# ---------------------------------------------------------------------------
# leading coefficients of the shifted residues (X^i * F) mod P


def _coefficient_ring(P, ring):
    """The ring a scan that evaluates in ring computes P's leading
    coefficients in: GF(p) for P over Z at a point of GF(p), where every
    update is reduced mod p and no value grows, and P's own ring otherwise,
    ring = None included."""
    ring = _check_eval_ring(P, ring)
    return ring if ring.int_modulus else P.ctx


def leading_coefficients(P, F, ring=None):
    """Dense vector [v_0, ..., v_{n-2}] where v_i is the degree-(n-1)
    coefficient of (X^i * F) mod P: v_i is the coefficient of X^(n-2-i)
    of the quotient of X^(n-1) F by P, read off poly.divide_in_place run
    on F's coefficients 1..n-1, which stand for X^n..X^(2n-2), and
    reversed.  It runs in the coefficient ring of ring, the ring a scan
    evaluates in (see _coefficient_ring), at one product per nonzero
    source i < k - 1 and lower term X^k' of P with k' > i + 1, k the
    second degree of P; over Z and GF(q) those are int products, zero
    sources included, in blocks of n - k sources.  For P and F over Z and
    ring a GF(p), v_i is given modulo p where a write of the division
    reaches it, and is F's integer coefficient as it is elsewhere, which
    the scans reduce as they read."""
    n = check_shapes(P, F)
    if n >= DENSIFY_CAP:
        raise ValueError(f"degree {n} too large to densify")
    ctx = _coefficient_ring(P, ring)
    V = list(F.to_dense().coeffs)
    del V[:1]  # V[i] stands for X^(n+i), coefficient i + 1 of F
    divide_in_place(V, P, n, ctx)
    V += [ctx.zero()] * (n - 1 - len(V))
    V.reverse()
    return V


def sparse_leading_coefficients(P, F, ring=None):
    """The nonzero pairs (i, v_i) of leading_coefficients, ascending in i,
    computed without touching silent indices, in the same ring, from F in
    either form read sparse.  Output length is at most
    #F * #P^ceil(1/gamma - 1)."""
    n = check_shapes(P, F)
    ctx = _coefficient_ring(P, ring)
    F = F.to_sparse()
    pending = {n - 1 - t: ctx.canon(c) for t, c in zip(F.exps, F.cs) if t > 0}  # index -> v_i
    heap = sorted(pending)
    updates = [(k, ctx.canon(c)) for k, c in zip(P.exps[:-1], P.cs[:-1]) if k > 0]
    out = []
    while heap:
        i = heapq.heappop(heap)
        v = pending.pop(i, None)
        if v is None or ctx.is_zero(v):
            continue  # cancelled to zero after it was pushed, or 0 mod p
        out.append((i, v))
        for k, pk in updates:
            if k > i + 1:
                j = i + n - k
                if j <= n - 2:
                    old = pending.get(j)
                    if old is None:
                        heapq.heappush(heap, j)
                        nv = ctx.neg(ctx.mul(pk, v))
                    else:
                        nv = ctx.sub(old, ctx.mul(pk, v))
                    if ctx.is_zero(nv):
                        pending.pop(j, None)
                    else:
                        pending[j] = nv
    return out


# ---------------------------------------------------------------------------
# products modulo a general monic sparse P


def _nothing_wraps(n, F, G):
    """Whether deg F + deg G < n = deg P for nonzero F and G: then nothing
    wraps, (F*G) mod P is F*G, and its value at any point is
    F(alpha) G(alpha), with no scan."""
    return F.degree() + G.degree() < n


def eval_mod_p_dense(P, F, G, alpha, ring=None):
    """((F*G) mod P)(alpha) without forming F*G.  Where something wraps, by
    the scan: O(n #P) base-ring operations plus O(n) operations where alpha
    lives.  F and G may be dense or sparse; the scan makes them dense.  It
    is the ring's fused dense_scan where the ring serves coefficients in
    F's ring at alpha (ring.serves_dense), and _dense_scan otherwise.

    Where nothing wraps (_nothing_wraps) the result is F(alpha) G(alpha):
    O(n) operations where alpha lives for the two evaluations and one
    product, with no leading coefficients, no P(alpha) and no scan.  That
    is every full-degree check of verify_product_kaminski_nomul at a point
    of the field.  At the class of X in a quotient ring the scan stays,
    since there the product of F(x) and G(x) would be a counted polynomial
    multiplication.

    That product has no degree cap: past DENSIFY_CAP it is made from F and
    G as they are.  The scan does have one, as it builds the n - 1 leading
    coefficients: leading_coefficients refuses n >= DENSIFY_CAP before
    anything is made dense."""
    n = check_shapes(P, F, G)
    ring = _check_eval_ring(F, ring)
    if G.is_zero() or F.is_zero():
        return ring.zero()
    # at the class of X (ring.x, None in Z and GF(q)), dense Horner
    # multiplies no polynomials, but F(x) G(x) would (ExtField.mul)
    at_x = alpha is ring.x
    if not at_x and _nothing_wraps(n, F, G):
        return ring.mul(evaluate(F, alpha, ring), evaluate(G, alpha, ring))
    V = leading_coefficients(P, F, ring)
    F, G = F.to_dense(), G.to_dense()
    p_alpha = evaluate(P.to_dense() if at_x else P, alpha, ring)
    f_alpha = evaluate(F, alpha, ring)
    if ring.serves_dense(F.ctx, alpha):
        return ring.dense_scan(f_alpha, alpha, p_alpha, V, G.coeffs)
    return _dense_scan(f_alpha, alpha, p_alpha, V, G.coeffs, ring, G.ctx)


def _dense_scan(f_alpha, alpha, p_alpha, V, gs, ring, ctx):
    """The generic scan on the ring interface, the reference for every
    ring.dense_scan: f_0 = F(alpha), f_i = alpha f_{i-1} - V[i-1] P(alpha)
    is ((X^i F) mod P)(alpha), and the result is sum gs[i] f_i, with gs
    and V in ctx, which scale by ring.scalar_mul from a base and by
    ring.mul in the ring itself.  A zero v or g is skipped, as its product
    adds nothing.  Past the last entry of gs the f_i matter no more."""
    scale = ring.mul if ctx == ring else ring.scalar_mul
    beta = scale(gs[0], f_alpha)
    zero = ctx.is_zero
    for v, g in zip(V, gs[1:]):
        f_alpha = ring.mul(alpha, f_alpha)
        if not zero(v):
            f_alpha = ring.sub(f_alpha, scale(v, p_alpha))
        if not zero(g):
            beta = ring.add(beta, scale(g, f_alpha))
    return beta


def gf2_first_mismatch(P, F, G, H, moduli):
    """The index of the first R in moduli at which H mod R differs from
    ((F*G) mod P) mod R, or None if there is none: the comparison of
    modverify._agree_at at the class of X in GF(2)[X]/(R), for every R at
    once.  F, G and H are dense over GF(2); the moduli are monic coefficient
    lists of one degree d >= 1, as random_monic draws them.

    The residue modulo the j-th R sits in lane j, bits [j(d+1), (j+1)(d+1)),
    of one int, so one int operation acts on every lane (SWAR).  With TOP
    bit d of every lane and RS every lane's R, its X^d bit included, x times
    every lane is f <<= 1; t = f & TOP; f ^= ((t << 1) - (t >> d)) & RS: the
    difference sets every bit of exactly the lanes whose bit d is set.  One
    Horner pass over 3m lanes (m = len(moduli)) gives H(x), F(x) and P(x)
    in every lane from the n + 1 codes h_i | f_i << 1 | p_i << 2, in
    blocks of b = isqrt((n + 1) d) codes, at most n + 1, the rule of
    GFqExt.horner (baby steps, giant steps; Paterson and Stockmeyer, SIAM
    J. Comput. 1973).  The powers x^k, k < b + d, come once, from
    b + d - 1 steps of x times every lane.  A block is one C-level sum:
    code i ANDs x^(i mod b) with MASKS[code], every bit of the lanes its
    pattern sets, and the terms are XORed.  The giant step acc x^b is the
    lane-wise linear map a -> sum_(k<d) a_k x^(b+k): with SEL bit k of
    every lane moved to bit 0, (SEL << (d+1)) - SEL sets every bit of the
    lanes whose a_k is 1, and is ANDed with the packed x^(b+k).  So a block
    costs O(d) steps in Python, and a code a few C-level int operations.
    The scan then runs one index per step in every lane: each lane has its
    own R, so no one table serves them as in GF2Ext.dense_scan's byte
    step.  The first mismatch is the lowest nonzero lane of H(x) ^ beta.
    Shifts, ANDs, XORs and subtractions only, each lane's bits kept apart:
    no polynomial is multiplied, so nothing counts in POLY_MUL_OPS."""
    n = check_shapes(P, F, G, H)
    if P.ctx.int_modulus != 2:
        raise ValueError("the lane kernel needs F, G, H and P over GF(2)")
    if n >= DENSIFY_CAP:
        raise ValueError(f"degree {n} too large to densify")
    if not moduli:
        return None
    d = len(moduli[0]) - 1
    if d < 1 or any(len(R) != d + 1 or R[-1] != 1 for R in moduli):
        raise ValueError("the moduli must be monic of one degree d >= 1")
    L = d + 1
    m = len(moduli)
    ones = sum(1 << (j * L) for j in range(m))  # bit 0 of every lane
    top = ones << d
    rs = sum(_gf2_bits(R) << (j * L) for j, R in enumerate(moduli))
    width = m * L
    # H, F and P side by side: 3m lanes, one blocked Horner pass
    ones3 = ones | ones << width | ones << 2 * width
    top3, rs3 = ones3 << d, rs | rs << width | rs << 2 * width
    full = (1 << width) - 1  # every bit of m lanes
    masks = [sum(full << g * width for g in range(3) if k >> g & 1) for k in range(8)]
    p_bits = sum(1 << (8 * e) for e in P.exps)
    codes = (
        int.from_bytes(bytes(H.coeffs), "little")
        | int.from_bytes(bytes(F.coeffs), "little") << 1
        | p_bits << 2
    ).to_bytes(n + 1, "little")
    b = min(n + 1, math.isqrt((n + 1) * d))
    powers = [ones3]  # x^k in every lane, k < b + d
    for _ in range(b + d - 1):
        p = powers[-1] << 1
        t = p & top3
        powers.append(p ^ ((t << 1) - (t >> d)) & rs3)
    table, shifted = powers[:b], powers[b:]
    acc = 0
    for start in range(n // b * b, -1, -b):
        sels = [acc >> k & ones3 for k in range(d)]  # bit k of every lane, at bit 0
        acc = reduce(xor, [((s << L) - s) & xk for s, xk in zip(sels, shifted)])
        acc ^= reduce(xor, map(and_, table, map(masks.__getitem__, codes[start : start + b])))
    h_x, f, p_x = acc & full, (acc >> width) & full, acc >> 2 * width
    gs = G.coeffs
    beta = 0
    if gs and not F.is_zero():
        V = leading_coefficients(P, F)
        beta = f if gs[0] else 0
        for v, g in zip(V, gs[1:]):
            f <<= 1
            t = f & top
            f ^= ((t << 1) - (t >> d)) & rs
            if v:
                f ^= p_x
            if g:
                beta ^= f
    diff = h_x ^ beta
    if not diff:
        return None
    return ((diff & -diff).bit_length() - 1) // L


def eval_mod_p_sparse(P, F, G, alpha, ring=None, pw=None):
    """Sparse variant: F and G, in either form, are read sparse, and only
    indices where a leading coefficient is nonzero or G has a term are
    visited; power gaps are bridged by alpha^gap.  P(alpha) and F(alpha)
    (sparse sums, by buckets outside GF(q)) and every gap power come from
    pw, the power_table(ring, alpha) of the calling check (a fresh one if
    not given), a gap power at about (bits of the power)/8 - 1 products.

    The scan runs in the ring's product form (ring.product_form), the
    bit-sliced one in GF(2)[X]/(R), the slot-packed one in GF(q)[X]/(R)
    for odd q from degree 2 on, and the element itself elsewhere:
    alpha, P(alpha) and F(alpha) enter it once, the gap powers come from
    the table in it, and the result leaves it once.  Coefficients in a
    base are added and scaled by the ring's add, sub and scalar_mul on
    form values, as the form is linear over the base; coefficients in the
    ring itself enter the form and scale by its product.

    When nothing wraps (_nothing_wraps, the rule of eval_mod_p_dense too)
    the result is F(alpha) G(alpha), both from pw, with no scan at all, at
    every point, the class of X included.  That is every fold of
    verify_sparse_product whose prime lands above the degree of the
    product (where no prime of its range can be below it, that verifier
    folds nothing and compares at one point instead) and every
    full-degree check of kaminski-nomul that reads its input sparse."""
    n = check_shapes(P, F, G)
    F, G = F.to_sparse(), G.to_sparse()
    if G.sparsity() < F.sparsity():
        F, G = G, F  # the product is symmetric and the cost follows #F
    ring = _check_eval_ring(F, ring)
    if G.is_zero() or F.is_zero():
        return ring.zero()
    pw = pw or power_table(ring, alpha)
    if _nothing_wraps(n, F, G):
        return ring.mul(evaluate(F, alpha, ring, pw), evaluate(G, alpha, ring, pw))
    vals = dict(sparse_leading_coefficients(P, F, ring))  # no zero among them
    g = dict(zip(G.exps, G.cs))
    into, mul, out = ring.product_form()
    if F.ctx == ring:
        scale = mul
        vals = {i: into(v) for i, v in vals.items()}
        g = {e: into(c) for e, c in g.items()}
    else:
        scale = ring.scalar_mul
    a = into(alpha)
    p_alpha = into(evaluate(P, alpha, ring, pw))
    f_alpha = into(evaluate(F, alpha, ring, pw))
    beta = scale(g[0], f_alpha) if 0 in g else into(ring.zero())
    i = 0
    for j in sorted(set(vals) | set(g)):
        if j == 0:
            continue
        # advancing past index i applies its stored correction exactly once
        step = mul(a, f_alpha)
        if i in vals:
            step = ring.sub(step, scale(vals[i], p_alpha))
        value_j = mul(pw(j - i - 1), step)
        if j in vals:
            f_alpha = value_j
            i = j
        if j in g:
            beta = ring.add(beta, scale(g[j], value_j))
    return out(beta)


def eval_mod(P, F, G, alpha, ring=None, pw=None):
    """((F*G) mod P)(alpha), the one entry into the scans: F and G are read
    in the forms of triple_forms (as they are, or both sparse from
    DENSIFY_CAP on), then the sparse scan runs when both are sparse, with
    pw as in eval_mod_p_sparse, at every P, and the dense scan otherwise,
    through eval_mod_binomial_dense at P = X^n - 1."""
    n = check_shapes(P, F, G)
    F, G, sparse = triple_forms(F, G, n=n, dense=False)
    if sparse:
        return eval_mod_p_sparse(P, F, G, alpha, ring, pw)
    ctx = P.ctx
    binom = (
        P.sparsity() == 2
        and P.exps[0] == 0
        and ctx.is_zero(ctx.add(P.cs[0], ctx.one()))
    )
    if binom:
        return eval_mod_binomial_dense(F, G, n, alpha, ring)
    return eval_mod_p_dense(P, F, G, alpha, ring)


# ---------------------------------------------------------------------------
# companion-matrix views of the scans at X


def _columns(op, w):
    """Coordinates of X^j * w mod R for j < d: the columns of W(C_R) when w
    is the residue W mod R."""
    cols = []
    for _ in range(op.d):
        cols.append(op.coeffs(w))
        w = op.mul_x(w)
    return cols


def _matrix(op, w):
    return tuple(zip(*_columns(op, w)))


def _projection(op, u, w):
    """The row vector u * W(C_R) for the residue w = W mod R."""
    ctx = op.base
    if len(u) != op.d:
        raise ValueError("vector length must equal deg R")
    uv = [ctx.canon(x) for x in u]
    out = []
    for col in _columns(op, w):
        s = ctx.zero()
        for a, b in zip(uv, col):
            s = ctx.add(s, ctx.mul(a, b))
        out.append(s)
    return tuple(out)


def _same_ctx(X, op):
    if X.ctx != op.base:
        raise ValueError("operator must live over the same ctx")


def project_poly_companion(H, op, u):
    """The row vector u * H(C_R)."""
    _same_ctx(H, op)
    return _projection(op, u, evaluate(H, op.x, op))


def project_modprod_companion(P, F, G, op, u):
    """u * ((F*G) mod P)(C_R): the dense scan at X modulo R, projected."""
    _same_ctx(P, op)
    return _projection(op, u, eval_mod_p_dense(P, F, G, op.x, op))


def poly_at_companion(H, op):
    """The full matrix H(C_R)."""
    _same_ctx(H, op)
    return _matrix(op, evaluate(H, op.x, op))


def eval_modprod_companion_sparse(P, F, G, op):
    """The full matrix ((F*G) mod P)(C_R), from the sparse scan at X."""
    _same_ctx(P, op)
    return _matrix(op, eval_mod_p_sparse(P, F, G, op.x, op))

