"""Dense and sparse polynomial values.

Reference-grade arithmetic (dense products over Z and GF(q) by Kronecker
substitution, one big-integer multiply; all-pairs term products otherwise;
reduction modulo a monic sparse P, in one top-down pass when
dense), evaluation, the gap parameter of a monic sparse modulus, growth
bounds for products and reductions, and the on-disk text format shared
with the CLI.  Polynomials are immutable; the zero
polynomial is the empty coefficient vector / empty term list and has no
degree.  Both classes have to_dense() and to_sparse(); asked for the form
it already has, a polynomial returns itself.
"""

from fractions import Fraction
from operator import itemgetter, lt

from .rings import ExtField, IntegerRing, PrimeField, POLY_MUL_OPS, ZZ, GF, is_prime

EXPONENT_CAP = 2**63 - 1
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
        self._take(ctx, [ctx.canon(c) for c in coeffs])

    def _take(self, ctx, cs):
        z = ctx.is_zero
        while cs and z(cs[-1]):
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one(),))

    @classmethod
    def trusted(cls, ctx, coeffs):
        """A DensePoly from a list of coefficients the caller built canonical
        in ctx.  Only trailing zeros are dropped, the constructor's canon is
        skipped, and the list is taken over: it may be shortened in place."""
        F = cls.__new__(cls)
        F._take(ctx, coeffs)
        return F

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
        return len(self.coeffs) - self.coeffs.count(self.ctx.zero())

    def norm(self):
        if not isinstance(self.ctx, IntegerRing):
            raise TypeError("norm is defined over Z only")
        return max(map(abs, self.coeffs), default=0)

    def to_dense(self):
        return self

    def to_sparse(self):
        return SparsePoly.trusted(self.ctx, enumerate(self.coeffs))

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
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
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
            F.terms = tuple(filter(itemgetter(1), terms))
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
        return max(map(abs, map(itemgetter(1), self.terms)), default=0)

    def to_sparse(self):
        return self

    def to_dense(self):
        if not self.terms:
            return DensePoly.zero(self.ctx)
        n = self.terms[-1][0]
        if n >= DENSIFY_CAP:
            raise ValueError(f"degree {n} too large to densify")
        cs = [self.ctx.zero()] * (n + 1)
        for e, c in self.terms:
            cs[e] = c
        return DensePoly.trusted(self.ctx, cs)

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


def all_sparse(*polys):
    """Whether every polynomial given is a SparsePoly: the verifiers run
    their sparse paths on such input and make any other input dense."""
    return all(isinstance(X, SparsePoly) for X in polys)


def x_pow_minus_one(ctx, n):
    """The binomial X^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SparsePoly(ctx, [(0, ctx.neg(ctx.one())), (n, ctx.one())])


# ---------------------------------------------------------------------------
# reference multiplication


def _kronecker_ints(a, b):
    """The integer convolution of a and b as one big-integer product.

    Every coefficient of a, b and their product is at most
    min(len) max|a| max|b| < 2^(w-1) in absolute value, with w a multiple
    of 8.  So every digit c + 2^(w-1) lies in [0, 2^w) and takes w/8 bytes:
    a factor is packed as its digits' bytes read as one int, minus the
    offset 2^(w-1) (2^(size w) - 1)/(2^w - 1) of that many digits, built as
    repeated bytes; the product plus its offset is read back the same way,
    w/8 bytes a digit, each shifted down again."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    nb = bound.bit_length() // 8 + 1
    half = 1 << (8 * nb - 1)
    half_bytes = half.to_bytes(nb, "little")

    def offset(size):
        return int.from_bytes(half_bytes * size, "little")

    def pack(cs):
        digits = b"".join([(c + half).to_bytes(nb, "little") for c in cs])
        return int.from_bytes(digits, "little") - offset(len(cs))

    size = len(a) + len(b) - 1
    buf = (pack(a) * pack(b) + offset(size)).to_bytes(size * nb, "little")
    return [
        int.from_bytes(buf[i : i + nb], "little") - half
        for i in range(0, size * nb, nb)
    ]


def mul_oracle(F, G):
    """Reference product.

    Dense over Z or GF(q): Kronecker substitution, both factors packed at
    2^w and multiplied once by CPython's big-integer product, the product's
    digits read back, taken as they are over Z (DensePoly.trusted) and
    reduced mod q by the checking constructor.  Sparse, and dense over a
    quotient ring: one loop over all #F*#G term pairs on the ring's
    methods, merging equal exponents in a dict; the largest exponent,
    deg F + deg G, is checked against EXPONENT_CAP once, so the sorted
    merge is built with SparsePoly.trusted, which only drops the zeros.  A
    dense product is made dense again.
    """
    if F.ctx != G.ctx:
        raise ValueError("mixed coefficient contexts")
    POLY_MUL_OPS.bump()
    ctx = F.ctx
    dense = isinstance(F, DensePoly) and isinstance(G, DensePoly)
    if dense and _int_ctx(ctx):
        if F.is_zero() or G.is_zero():
            return DensePoly.zero(ctx)
        cs = _kronecker_ints(F.coeffs, G.coeffs)
        return DensePoly.trusted(ctx, cs) if ctx == ZZ else DensePoly(ctx, cs)
    if dense:
        F, G = F.to_sparse(), G.to_sparse()
    elif not (isinstance(F, SparsePoly) and isinstance(G, SparsePoly)):
        raise TypeError("mul_oracle needs two dense or two sparse polynomials")
    FG = SparsePoly.trusted(ctx, sorted(_sparse_product(F, G).items()))
    return FG.to_dense() if dense else FG


def _sparse_product(F, G):
    """The merge dict, exponent -> coefficient (zeros included), of the
    product of sparse F and G over all #F*#G term pairs, once deg F + deg G
    is checked against EXPONENT_CAP."""
    fs, gs = F.terms, G.terms
    if fs and gs and fs[-1][0] + gs[-1][0] > EXPONENT_CAP:
        raise ValueError("exponent exceeds 2^63 - 1")
    ctx = F.ctx
    acc = {}
    get = acc.get
    add, mul = ctx.add, ctx.mul
    zero = ctx.zero()
    for e1, c1 in fs:
        for e2, c2 in gs:
            e = e1 + e2
            acc[e] = add(get(e, zero), mul(c1, c2))
    return acc


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
        return DensePoly.trusted(ctx, cs[:n])
    if isinstance(Q, SparsePoly):
        return SparsePoly.trusted(ctx, sorted(_reduce_terms(dict(Q.terms), P).items()))
    raise TypeError("unsupported polynomial type")


def mul_mod_oracle(F, G, P):
    """Reference modular product of sparse F and G: mod_reduce(mul_oracle(F,
    G), P), with the product's merge dict reduced in place, so it is
    sorted once."""
    if not all_sparse(F, G):
        raise TypeError("mul_mod_oracle needs two sparse polynomials")
    _require_monic(P)
    if not F.ctx == G.ctx == P.ctx:
        raise ValueError("mixed coefficient contexts")
    POLY_MUL_OPS.bump()
    acc = _reduce_terms(_sparse_product(F, G), P)
    return SparsePoly.trusted(F.ctx, sorted(acc.items()))


def _reduce_terms(acc, P):
    """Reduce the dict acc, exponent -> coefficient, modulo the monic P of
    degree n in place and return it: every monomial of degree >= n is
    rewritten in rounds until none is left."""
    ctx = P.ctx
    n = P.degree()
    low_terms = P.terms[:-1]
    get, pop = acc.get, acc.pop
    sub, mul, is_zero = ctx.sub, ctx.mul, ctx.is_zero
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
                v = sub(get(pos, zero), mul(c, pc))
                if is_zero(v):
                    pop(pos, None)
                else:
                    acc[pos] = v
    return acc


def reduce_mod_binomial(F, i):
    """F mod (X^i - 1): fold every exponent e to e mod i and merge.  F
    itself when F is zero or of degree below i, where nothing folds."""
    if i < 1:
        raise ValueError("binomial degree must be >= 1")
    if not isinstance(F, (DensePoly, SparsePoly)):
        raise TypeError("unsupported polynomial type")
    if F.is_zero() or F.degree() < i:
        return F
    ctx = F.ctx
    if isinstance(F, DensePoly):
        cs = F.coeffs
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
    acc = {}
    zero = ctx.zero()
    for e, c in F.terms:
        pos = e % i
        acc[pos] = ctx.add(acc.get(pos, zero), c)
    return SparsePoly.trusted(ctx, sorted(acc.items()))


# ---------------------------------------------------------------------------
# evaluation


def _check_eval_ring(F, ring):
    if ring is None:
        return F.ctx
    if ring == F.ctx:
        return ring
    if isinstance(ring, ExtField) and ring.base == F.ctx:
        return ring
    if isinstance(ring, PrimeField) and isinstance(F.ctx, IntegerRing):
        return ring
    raise ValueError("evaluation point must lie in the ctx, an extension, or GF(p) over Z")


def power_table(ring, alpha):
    """The map e -> alpha^e for many exponents at one point.

    In GF(q) and in an ExtField it is one fixed-base windowed table
    (Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992): window i holds
    alpha^(j 2^(8i)) for 0 <= j < 256, entry 0 being 1, and alpha^e is the
    product of one entry per nonzero byte of e, so (nonzero bytes of e) - 1
    products once its entries exist.  Entries are filled lazily, one product
    each: T[j] = T[j ^ low] T[low] with low the lowest set bit of j, and the
    power-of-two entries T[2^k] = alpha^(2^(8i+k)) come from the squares of
    alpha, one product per square, as far as the largest exponent asked
    for needs.  Every product is ring.mul, which an ExtField counts in
    POLY_MUL_OPS.  Z keeps its builtin pow.

    Besides pw(e), the table gives bulk access to one window:
    pw.window(i, digits) fills the entries of window i that the byte values
    digits need, by the same lazy products, and returns the window, which
    the fused sparse kernel PrimeField.sparse_sum indexes by byte.  One
    table serves every term of every polynomial evaluated at alpha in one
    check, through either access and in any order; it is local to that
    check."""
    if not isinstance(ring, (ExtField, PrimeField)):
        return lambda e: ring.pow(alpha, e)
    mul = ring.mul
    squares = [alpha]
    windows = []

    def fill(i, digits=()):
        while len(windows) <= i:
            windows.append([ring.one()] + [None] * ((1 << WINDOW_BITS) - 1))
        w = windows[i]
        for j in set(digits):
            if w[j] is None:
                entry(w, i, j)
        return w

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
        if len(windows) < len(digits):
            fill(len(digits) - 1)
        acc = None
        for i, j in enumerate(digits):
            if j:
                window = windows[i]
                v = window[j]
                if v is None:
                    v = entry(window, i, j)
                acc = v if acc is None else mul(acc, v)
        return ring.one() if acc is None else acc

    pw.window = fill
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


def _sparse_sum(terms, pw, ring):
    """The generic per-term loop on the ring interface, the reference for
    PrimeField.sparse_sum."""
    acc = ring.zero()
    for e, c in terms:
        acc = ring.add(acc, ring.scalar_mul(c, pw(e)))
    return acc


def evaluate(F, alpha, ring=None, pw=None):
    """F(alpha).  alpha may live in F.ctx, in an ExtField over it or, for F
    over Z, in GF(p), whose kernels reduce the integer coefficients.  Dense
    polynomials use Horner, the ring's fused kernel where it has one, sparse
    ones take every alpha^e from pw, a power_table(ring, alpha) that a
    check evaluating several polynomials at alpha builds once and shares,
    or from a fresh one: in GF(q) by the fused kernel sparse_sum, a byte of
    every exponent at a time, elsewhere term by term.  At the class of X in
    a quotient ring, F(X) is F mod R, and dense Horner multiplies no
    polynomials (see ExtField.mul)."""
    ring = _check_eval_ring(F, ring)
    if isinstance(F, DensePoly):
        if fused(ring, F.ctx, alpha):
            return ring.horner(F.coeffs, alpha)
        return _horner(F.coeffs, alpha, ring)
    if isinstance(F, SparsePoly):
        pw = pw or power_table(ring, alpha)
        if isinstance(ring, PrimeField):
            return ring.sparse_sum(F.terms, pw)
        return _sparse_sum(F.terms, pw, ring)
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
    return min(F.sparsity(), G.sparsity()) * F.norm() * G.norm()


# ---------------------------------------------------------------------------
# text format:  line 1 "ring Z" | "ring GF <q>",
#               line 2 "dense <c0> ... <cn>" | "sparse <e>:<c> ..."


def format_poly(F):
    """F's text form, over Z or GF(q) only.  A coefficient past CPython's
    int-to-str digit limit (4300 by default) raises its ValueError."""
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
    """The polynomial a .poly text holds.  Both bodies are read in bulk
    (one split, one map(int, ...), C-level range checks); a body that fails
    any check is read again token by token, so its PolyFormatError names
    the first bad token."""
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
    if kind == "dense":
        try:
            cs = list(map(int, items))
        except ValueError:
            cs = None
        if cs is None or (
            isinstance(ctx, PrimeField) and cs and (min(cs) < 0 or max(cs) >= ctx.q)
        ):
            for tok in items:  # raises the error of the first bad token
                _parse_coeff(ctx, tok)
        return DensePoly.trusted(ctx, cs)
    if kind == "sparse":
        terms = _bulk_sparse_terms(ctx, items)
        if terms is None:
            terms = _sparse_terms(ctx, items)  # raises the error of the first bad token
        return SparsePoly.trusted(ctx, terms)
    raise PolyFormatError(f"bad representation {kind!r}")


TOKEN_SHOWN = 40  # the widest token an error message quotes in full


def _quoted(tok):
    """tok as an error message names it: its repr, or past TOKEN_SHOWN
    characters a short prefix and its length, so that a bad token of
    thousands of digits still makes a short message."""
    if len(tok) <= TOKEN_SHOWN:
        return repr(tok)
    return f"{tok[:8] + '...'!r} ({len(tok)} characters)"


def _shown(tok, value):
    """The int value read from tok as an error message names it: the value
    itself, or _quoted(tok) when tok is past TOKEN_SHOWN characters."""
    return value if len(tok) <= TOKEN_SHOWN else _quoted(tok)


def _parse_coeff(ctx, tok):
    try:
        c = int(tok)
    except ValueError:
        raise PolyFormatError(f"bad coefficient {_quoted(tok)}") from None
    if isinstance(ctx, PrimeField) and not 0 <= c < ctx.q:
        raise PolyFormatError(f"coefficient {_shown(tok, c)} not reduced into [0, {ctx.q})")
    return c


def _sparse_terms(ctx, items):
    """The terms of the sparse body items, read and checked token by token;
    raises the PolyFormatError of the first bad token."""
    terms = []
    last = -1
    for tok in items:
        if ":" not in tok:
            raise PolyFormatError(f"bad term {_quoted(tok)}")
        es, cs = tok.split(":", 1)
        try:
            e = int(es)
        except ValueError:
            raise PolyFormatError(f"bad exponent {_quoted(es)}") from None
        if e < 0 or e > EXPONENT_CAP:
            raise PolyFormatError(f"exponent {_shown(es, e)} out of range")
        if e <= last:
            raise PolyFormatError("exponents must be strictly increasing")
        last = e
        c = _parse_coeff(ctx, cs)
        if c == 0:
            raise PolyFormatError("zero coefficient in sparse term")
        terms.append((e, c))
    return terms


_NUMBER_CHARS = str.maketrans("", "", "0123456789+-_")


def _bulk_sparse_terms(ctx, items):
    """What _sparse_terms returns for a valid body, from C-level passes:
    each token has exactly one ':' (without the digits, signs and
    underscores of int literals the body is ": : ... :"), both halves are
    ints, the exponents increase strictly within [0, EXPONENT_CAP], no
    coefficient is zero and over GF(q) all lie in [0, q).  None when any
    check fails."""
    body = " ".join(items)
    if body.translate(_NUMBER_CHARS) != (" :" * len(items))[1:]:
        return None
    try:
        nums = list(map(int, body.replace(":", " ").split()))
    except ValueError:
        return None
    if len(nums) != 2 * len(items):  # an empty half
        return None
    exps, cs = nums[::2], nums[1::2]
    if exps and (exps[0] < 0 or exps[-1] > EXPONENT_CAP):
        return None
    if not all(map(lt, exps, exps[1:])) or 0 in cs:
        return None
    if isinstance(ctx, PrimeField) and cs and (min(cs) < 0 or max(cs) >= ctx.q):
        return None
    return zip(exps, cs)


def read_poly_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_poly(fh.read())


def write_poly_file(path, F):
    """Write F's text form to path, formatted first: F without one writes no file."""
    text = format_poly(F)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
