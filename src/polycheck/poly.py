"""Dense and sparse polynomial values.

Reference-grade arithmetic (dense products over Z and GF(q) by Kronecker
substitution, one big-integer multiply; schoolbook/Karatsuba over quotient
rings; reduction modulo a monic sparse P, in one top-down pass when
dense), evaluation, the gap parameter of a monic sparse modulus, growth
bounds for products and reductions, and the on-disk text format shared
with the CLI.  Polynomials are immutable; the zero
polynomial is the empty coefficient vector / empty term list and has no
degree.
"""

from fractions import Fraction

from .rings import ExtField, IntegerRing, PrimeField, POLY_MUL_OPS, ZZ, GF, is_prime

EXPONENT_CAP = 2**63 - 1
KARATSUBA_THRESHOLD = 32
KRONECKER_LEAF = 32
DENSIFY_CAP = 2**26
WINDOW_BITS = 8  # power_table reads exponents a byte at a time


class PolyFormatError(ValueError):
    """Malformed polynomial text."""


def _int_ctx(ctx):
    return isinstance(ctx, (IntegerRing, PrimeField))


class DensePoly:
    """Coefficient vector over a ring; index = degree; last entry nonzero."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        cs = [ctx.canon(c) for c in coeffs]
        while cs and ctx.is_zero(cs[-1]):
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one(),))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero()

    def sparsity(self):
        z = self.ctx.is_zero
        return sum(1 for c in self.coeffs if not z(c))

    def norm(self):
        if not isinstance(self.ctx, IntegerRing):
            raise TypeError("norm is defined over Z only")
        return max((abs(c) for c in self.coeffs), default=0)

    def to_sparse(self):
        z = self.ctx.is_zero
        return SparsePoly(
            self.ctx, [(i, c) for i, c in enumerate(self.coeffs) if not z(c)]
        )

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        return f"DensePoly({self.ctx!r}, {list(self.coeffs)!r})"


class SparsePoly:
    """Strictly-increasing (exponent, nonzero coefficient) term list."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        out = []
        last = -1
        for e, c in terms:
            e = int(e)
            if e <= last:
                raise ValueError("exponents must be strictly increasing")
            if e > EXPONENT_CAP:
                raise ValueError("exponent exceeds 2^63 - 1")
            last = e
            c = ctx.canon(c)
            if not ctx.is_zero(c):
                out.append((e, c))
        self.ctx = ctx
        self.terms = tuple(out)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def from_dict(cls, ctx, d):
        return cls(ctx, sorted(d.items()))

    @classmethod
    def trusted(cls, ctx, terms):
        """A SparsePoly from terms the caller built in order: exponents
        strictly increasing ints within EXPONENT_CAP, coefficients canonical
        in ctx.  Only zero coefficients are dropped; the checks of the
        constructor are skipped."""
        F = cls.__new__(cls)
        F.ctx = ctx
        if _int_ctx(ctx):
            F.terms = tuple(t for t in terms if t[1])
        else:
            z = ctx.is_zero
            F.terms = tuple(t for t in terms if not z(t[1]))
        return F

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return self.terms[-1][0]

    def coeff(self, i):
        for e, c in self.terms:
            if e == i:
                return c
            if e > i:
                break
        return self.ctx.zero()

    def sparsity(self):
        return len(self.terms)

    def norm(self):
        if not isinstance(self.ctx, IntegerRing):
            raise TypeError("norm is defined over Z only")
        return max((abs(c) for _, c in self.terms), default=0)

    def to_dense(self):
        if not self.terms:
            return DensePoly.zero(self.ctx)
        n = self.terms[-1][0]
        if n >= DENSIFY_CAP:
            raise ValueError(f"degree {n} too large to densify")
        cs = [self.ctx.zero()] * (n + 1)
        for e, c in self.terms:
            cs[e] = c
        return DensePoly(self.ctx, cs)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.terms))

    def __repr__(self):
        return f"SparsePoly({self.ctx!r}, {list(self.terms)!r})"


def x_pow_minus_one(ctx, n):
    """The binomial X^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SparsePoly(ctx, [(0, ctx.neg(ctx.one())), (n, ctx.one())])


# ---------------------------------------------------------------------------
# reference multiplication


def kronecker_pack(cs, w):
    """sum cs[i] * 2^(i*w) for any integers cs[i], signed or not.

    Kronecker substitution: the coefficient vector read as base-2^w digits.
    The vector is split in halves and the high half's value shifted past
    the low one, with a short Horner loop at the leaves, so the cost is
    O(n w log n) bit operations instead of the quadratic n shifts of one
    growing accumulator."""
    n = len(cs)
    if n <= KRONECKER_LEAF:
        acc = 0
        for c in reversed(cs):
            acc = (acc << w) + c
        return acc
    m = n // 2
    return kronecker_pack(cs[:m], w) + (kronecker_pack(cs[m:], w) << (m * w))


def _kronecker_ints(a, b):
    """The integer convolution of a and b as one big-integer product.

    Every product coefficient is below min(len) max|a| max|b| < 2^(w-1) in
    absolute value, with w a multiple of 8.  Adding 2^(w-1) to every digit
    of the packed product (the offset 2^(w-1) (2^(size w) - 1)/(2^w - 1),
    built as repeated bytes) makes all digits nonnegative and below 2^w, so
    they are read back whole, w/8 bytes each, and shifted down again."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    nb = bound.bit_length() // 8 + 1
    w = 8 * nb
    half = 1 << (w - 1)
    size = len(a) + len(b) - 1
    offset = int.from_bytes(half.to_bytes(nb, "little") * size, "little")
    buf = (kronecker_pack(a, w) * kronecker_pack(b, w) + offset).to_bytes(
        size * nb, "little"
    )
    return [
        int.from_bytes(buf[i : i + nb], "little") - half
        for i in range(0, size * nb, nb)
    ]


def _school_ctx(ctx, a, b):
    zero = ctx.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ctx.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return out


def _kara_ctx(ctx, a, b):
    if not a or not b:
        return []
    if min(len(a), len(b)) <= KARATSUBA_THRESHOLD:
        return _school_ctx(ctx, a, b)
    m = max(len(a), len(b)) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    z0 = _kara_ctx(ctx, a0, b0)
    z2 = _kara_ctx(ctx, a1, b1)

    def padd(x, y):
        if len(x) < len(y):
            x, y = y, x
        out = list(x)
        for i, v in enumerate(y):
            out[i] = ctx.add(out[i], v)
        return out

    z1 = _kara_ctx(ctx, padd(a0, a1), padd(b0, b1))
    for i, v in enumerate(z0):
        z1[i] = ctx.sub(z1[i], v)
    for i, v in enumerate(z2):
        z1[i] = ctx.sub(z1[i], v)
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, v in enumerate(z0):
        out[i] = ctx.add(out[i], v)
    for i, v in enumerate(z1):
        out[i + m] = ctx.add(out[i + m], v)
    for i, v in enumerate(z2):
        out[i + 2 * m] = ctx.add(out[i + 2 * m], v)
    return out


def mul_oracle(F, G):
    """Reference product.

    Dense over Z or GF(q): Kronecker substitution, both factors packed at
    2^w and multiplied once by CPython's big-integer product, the product's
    digits read back and reduced mod q.  Dense over a quotient ring:
    schoolbook below the Karatsuba threshold, Karatsuba above.  Sparse:
    generate all #F*#G monomials, merge equal exponents, drop zeros.
    """
    if F.ctx != G.ctx:
        raise ValueError("mixed coefficient contexts")
    POLY_MUL_OPS.bump()
    ctx = F.ctx
    if isinstance(F, DensePoly) and isinstance(G, DensePoly):
        if F.is_zero() or G.is_zero():
            return DensePoly.zero(ctx)
        if _int_ctx(ctx):
            return DensePoly(ctx, _kronecker_ints(F.coeffs, G.coeffs))
        return DensePoly(ctx, _kara_ctx(ctx, list(F.coeffs), list(G.coeffs)))
    if isinstance(F, SparsePoly) and isinstance(G, SparsePoly):
        acc = {}
        zero = ctx.zero()
        for e1, c1 in F.terms:
            for e2, c2 in G.terms:
                e = e1 + e2
                acc[e] = ctx.add(acc.get(e, zero), ctx.mul(c1, c2))
        return SparsePoly.from_dict(ctx, acc)
    raise TypeError("mul_oracle needs two dense or two sparse polynomials")


# ---------------------------------------------------------------------------
# modular reduction


def _require_monic(P):
    if not isinstance(P, SparsePoly):
        raise TypeError("modulus must be a SparsePoly")
    if P.is_zero() or P.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    if not P.ctx.is_zero(P.ctx.sub(P.terms[-1][1], P.ctx.one())):
        raise ValueError("modulus must be monic")


def mod_reduce(Q, P):
    """Remainder of Q modulo a monic sparse P of degree n, rewriting X^n
    as X^n - P.  Dense Q: one top-down pass, in which the coefficient c
    of X^i, i >= n, adds -c p_e to the coefficient of X^(i-n+e) for every
    lower term p_e X^e of P; those indices are below i, so every
    coefficient is final when the pass reaches it, and the cost is
    (deg Q - n + 1)(#P - 1) ring products.  Sparse Q: every monomial of
    degree >= n is rewritten in rounds until none is left, at a cost that
    follows the term count."""
    _require_monic(P)
    if Q.ctx != P.ctx:
        raise ValueError("mixed coefficient contexts")
    ctx = Q.ctx
    n = P.degree()
    low_terms = P.terms[:-1]  # X^n - P = -(low part of P)
    if isinstance(Q, DensePoly):
        cs = list(Q.coeffs)
        for i in range(len(cs) - 1, n - 1, -1):
            c = cs[i]
            if not ctx.is_zero(c):
                for e, pe in low_terms:
                    j = i - n + e
                    cs[j] = ctx.sub(cs[j], ctx.mul(c, pe))
        return DensePoly(ctx, cs[:n])
    if isinstance(Q, SparsePoly):
        acc = dict(Q.terms)
        zero = ctx.zero()
        while acc:
            high = [(e, c) for e, c in acc.items() if e >= n]
            if not high:
                break
            for e, c in high:
                del acc[e]
            for e, c in high:
                for pe, pc in low_terms:
                    pos = e - n + pe
                    v = ctx.sub(acc.get(pos, zero), ctx.mul(c, pc))
                    if ctx.is_zero(v):
                        acc.pop(pos, None)
                    else:
                        acc[pos] = v
        return SparsePoly.trusted(ctx, sorted(acc.items()))
    raise TypeError("unsupported polynomial type")


def reduce_mod_binomial(F, i):
    """F mod (X^i - 1): fold every exponent e to e mod i and merge."""
    if i < 1:
        raise ValueError("binomial degree must be >= 1")
    ctx = F.ctx
    if isinstance(F, DensePoly):
        cs = list(F.coeffs)
        if len(cs) <= i:
            return DensePoly(ctx, cs)
        if _int_ctx(ctx):
            out = [0] * i
            for start in range(0, len(cs), i):
                block = cs[start : start + i]
                for j in range(len(block)):
                    out[j] += block[j]
            return DensePoly(ctx, out)
        out = [ctx.zero()] * i
        for e, c in enumerate(cs):
            out[e % i] = ctx.add(out[e % i], c)
        return DensePoly(ctx, out)
    if isinstance(F, SparsePoly):
        acc = {}
        zero = ctx.zero()
        for e, c in F.terms:
            pos = e % i
            acc[pos] = ctx.add(acc.get(pos, zero), c)
        return SparsePoly.trusted(ctx, sorted(acc.items()))
    raise TypeError("unsupported polynomial type")


# ---------------------------------------------------------------------------
# evaluation


def _check_eval_ring(F, ring):
    if ring is None:
        return F.ctx
    if ring == F.ctx:
        return ring
    if isinstance(ring, ExtField) and ring.base == F.ctx:
        return ring
    raise ValueError("evaluation point must live in the ctx or an extension of it")


def power_table(ring, alpha):
    """The map e -> alpha^e for many exponents at one point.

    In GF(q) and in an ExtField it is one fixed-base windowed table
    (Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992): window i holds
    alpha^(j 2^(8i)) for 0 < j < 256, and alpha^e is the product of one
    entry per nonzero byte of e, so (nonzero bytes of e) - 1 products once
    its entries exist.  Entries are filled lazily, one product each:
    T[j] = T[j ^ low] T[low] with low the lowest set bit of j, and the
    power-of-two entries T[2^k] = alpha^(2^(8i+k)) come from the squares of
    alpha, one product per square, as far as the largest exponent asked
    for needs.  Every product is ring.mul, which an ExtField counts in
    POLY_MUL_OPS.  Z keeps its builtin pow.  One table serves every term of
    every polynomial evaluated at alpha in one check; it is local to that
    check."""
    if not isinstance(ring, (ExtField, PrimeField)):
        return lambda e: ring.pow(alpha, e)
    mul = ring.mul
    squares = [alpha]
    windows = []

    def entry(window, i, j):
        v = window[j]
        if v is None:
            low = j & -j
            if low == j:
                k = WINDOW_BITS * i + j.bit_length() - 1
                while len(squares) <= k:
                    s = squares[-1]
                    squares.append(mul(s, s))
                v = squares[k]
            else:
                v = mul(entry(window, i, j ^ low), entry(window, i, low))
            window[j] = v
        return v

    def pw(e):
        digits = e.to_bytes((e.bit_length() + 7) >> 3, "little")
        while len(windows) < len(digits):
            windows.append([None] * (1 << WINDOW_BITS))
        acc = None
        for i, j in enumerate(digits):
            if j:
                window = windows[i]
                v = window[j]
                if v is None:
                    v = entry(window, i, j)
                acc = v if acc is None else mul(acc, v)
        return ring.one() if acc is None else acc

    return pw


def fused(ring, ctx, alpha):
    """Whether ring's fused kernels (horner, dense_scan; see rings) serve
    coefficients in ctx at alpha: in GF(q) at any point, and in
    GF(q)[X]/(R) only at its own x with coefficients in GF(q).  Z, a
    quotient ring over anything else, coefficients in the ring itself
    (where 2 is x of GF(2^d)) and other points of the ring take the
    generic loops."""
    if isinstance(ring, ExtField):
        return alpha is ring.x and ring.base == ctx and isinstance(ctx, PrimeField)
    return isinstance(ring, PrimeField)


def _horner(cs, alpha, ring):
    """The generic Horner loop on the ring interface, the reference for
    every ring.horner."""
    acc = ring.zero()
    for c in reversed(cs):
        acc = ring.add(ring.mul(acc, alpha), ring.embed(c))
    return acc


def evaluate(F, alpha, ring=None, pw=None):
    """F(alpha).  alpha may live in F.ctx or in an ExtField over it; dense
    polynomials use Horner, the ring's fused loop where it has one, sparse
    ones take every alpha^e from pw, a power_table(ring, alpha) that a
    check evaluating several polynomials at alpha builds once and shares,
    or from a fresh one.  At the class of X in a quotient ring, F(X) is
    F mod R, and dense Horner multiplies no polynomials (see ExtField.mul)."""
    ring = _check_eval_ring(F, ring)
    if isinstance(F, DensePoly):
        if fused(ring, F.ctx, alpha):
            return ring.horner(F.coeffs, alpha)
        return _horner(F.coeffs, alpha, ring)
    if isinstance(F, SparsePoly):
        pw = pw or power_table(ring, alpha)
        acc = ring.zero()
        for e, c in F.terms:
            acc = ring.add(acc, ring.scalar_mul(c, pw(e)))
        return acc
    raise TypeError("unsupported polynomial type")


# ---------------------------------------------------------------------------
# gap parameter and growth bounds


class GapInfo:
    """Degree n, second degree k and gap parameter (n - k)/n of a monic P."""

    __slots__ = ("n", "second_degree", "gamma")

    def __init__(self, n, second_degree):
        if not 0 <= second_degree < n:
            raise ValueError("need 0 <= second_degree < n")
        self.n = n
        self.second_degree = second_degree
        self.gamma = Fraction(n - second_degree, n)

    @property
    def gap_width(self):
        """gamma * n, exactly (an integer)."""
        return self.n - self.second_degree

    def inv_gamma_ceil(self):
        """ceil(1/gamma), exactly."""
        return -(-self.n // self.gap_width)

    def inv_gamma_minus_one_ceil(self):
        """ceil(1/gamma - 1), exactly."""
        return -(-self.second_degree // self.gap_width)

    def __eq__(self, other):
        return (
            isinstance(other, GapInfo)
            and (self.n, self.second_degree) == (other.n, other.second_degree)
        )

    def __repr__(self):
        return f"GapInfo(n={self.n}, second_degree={self.second_degree}, gamma={self.gamma})"


def gap_info(P):
    """Gap data of a monic sparse P.  For P = X^n (single term) the second
    degree is 0 by convention, giving gamma = 1."""
    _require_monic(P)
    n = P.degree()
    if len(P.terms) == 1:
        return GapInfo(n, 0)
    return GapInfo(n, P.terms[-2][0])


def reduction_steps(excess, gap):
    """ceil(excess / (gamma n)) for a dividend of degree (n - 1) + excess."""
    if excess <= 0:
        return 0
    return -(-excess // gap.gap_width)


def sparsity_bound(q_terms, p_terms, excess, gap):
    """Upper bound #Q (#P - 1)^ceil(excess/(gamma n)) on #(Q mod P)."""
    if p_terms < 2:
        raise ValueError("bound needs #P >= 2")
    return q_terms * (p_terms - 1) ** reduction_steps(excess, gap)


def reduced_norm_bound(q_norm, p_terms, p_norm, excess, gap):
    """Upper bound ||Q|| (#P ||P||)^ceil(excess/(gamma n)) on ||Q mod P||."""
    return q_norm * (p_terms * p_norm) ** reduction_steps(excess, gap)


def product_norm_bound(F, G):
    """Upper bound min(#F, #G) ||F|| ||G|| on ||FG|| over Z."""
    if F.is_zero() or G.is_zero():
        return 0
    return min(F.sparsity(), G.sparsity()) * F.norm() * G.norm()


# ---------------------------------------------------------------------------
# text format:  line 1 "ring Z" | "ring GF <q>",
#               line 2 "dense <c0> ... <cn>" | "sparse <e>:<c> ..."


def format_poly(F):
    if isinstance(F.ctx, IntegerRing):
        head = "ring Z"
    elif isinstance(F.ctx, PrimeField):
        head = f"ring GF {F.ctx.q}"
    else:
        raise TypeError("only Z and GF(q) polynomials have a file form")
    if isinstance(F, DensePoly):
        body = " ".join(["dense"] + [str(c) for c in F.coeffs])
    elif isinstance(F, SparsePoly):
        body = " ".join(["sparse"] + [f"{e}:{c}" for e, c in F.terms])
    else:
        raise TypeError("unsupported polynomial type")
    return head + "\n" + body + "\n"


def parse_poly(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise PolyFormatError("expected a ring line and a coefficient line")
    head = lines[0].split()
    if head == ["ring", "Z"]:
        ctx = ZZ
    elif len(head) == 3 and head[:2] == ["ring", "GF"]:
        try:
            q = int(head[2])
        except ValueError:
            raise PolyFormatError(f"bad field modulus {head[2]!r}") from None
        if not is_prime(q):
            raise PolyFormatError(f"field modulus {q} is not prime")
        ctx = GF(q)
    else:
        raise PolyFormatError(f"bad ring line {lines[0]!r}")
    body = lines[1].split()
    if not body:
        raise PolyFormatError("missing polynomial body")
    kind, items = body[0], body[1:]

    def parse_coeff(tok):
        try:
            c = int(tok)
        except ValueError:
            raise PolyFormatError(f"bad coefficient {tok!r}") from None
        if isinstance(ctx, PrimeField) and not 0 <= c < ctx.q:
            raise PolyFormatError(f"coefficient {c} not reduced into [0, {ctx.q})")
        return c

    if kind == "dense":
        try:
            cs = list(map(int, items))
        except ValueError:
            cs = None
        if cs is None or (
            isinstance(ctx, PrimeField) and cs and (min(cs) < 0 or max(cs) >= ctx.q)
        ):
            for tok in items:  # raises the error of the first bad token
                parse_coeff(tok)
        return _canonical_dense(ctx, cs)
    if kind == "sparse":
        terms = []
        last = -1
        for tok in items:
            if ":" not in tok:
                raise PolyFormatError(f"bad term {tok!r}")
            es, cs = tok.split(":", 1)
            try:
                e = int(es)
            except ValueError:
                raise PolyFormatError(f"bad exponent {es!r}") from None
            if e < 0 or e > EXPONENT_CAP:
                raise PolyFormatError(f"exponent {e} out of range")
            if e <= last:
                raise PolyFormatError("exponents must be strictly increasing")
            last = e
            c = parse_coeff(cs)
            if c == 0:
                raise PolyFormatError("zero coefficient in sparse term")
            terms.append((e, c))
        return SparsePoly(ctx, terms)
    raise PolyFormatError(f"bad representation {kind!r}")


def _canonical_dense(ctx, cs):
    """DensePoly(ctx, cs) for a list cs of ints already canonical in ctx (in
    [0, q) over GF(q)), without the constructor's per-coefficient canon."""
    while cs and cs[-1] == 0:
        cs.pop()
    F = DensePoly.__new__(DensePoly)
    F.ctx = ctx
    F.coeffs = tuple(cs)
    return F


def read_poly_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_poly(fh.read())


def write_poly_file(path, F):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_poly(F))
