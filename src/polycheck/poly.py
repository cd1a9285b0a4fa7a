"""Dense and sparse polynomial values.

Reference-grade arithmetic (dense products over Z and GF(q) by Kronecker
substitution, one big-number multiply, binary or decimal; all-pairs term
products otherwise; reduction modulo a monic sparse P, by one top-down
long division when dense, divide_in_place, which also gives modeval's
scans their leading coefficients as the quotient of X^(n-1) F by P),
evaluation, the gap parameter of a monic sparse modulus, growth bounds for
products and reductions, and the on-disk text format shared with the CLI.
Polynomials are immutable; the zero polynomial is the empty coefficient
vector / empty term list and has no degree.  Both classes have to_dense()
and to_sparse(); asked for the form it already has, a polynomial returns
itself.
"""

import functools
import json
from bisect import bisect_left
from decimal import MAX_EMAX, Context, Inexact, InvalidOperation
from fractions import Fraction
from operator import itemgetter, lt

from .rings import PrimeField, POLY_MUL_OPS, ZZ, GF, is_prime

EXPONENT_CAP = 2**63 - 1
DENSIFY_CAP = 2**26
WINDOW_BITS = 8  # power_table reads exponents a byte at a time
BULK_GROWTH = 4  # power_table grows a GF(q) window in bulk from one byte asked per 4


class PolyFormatError(ValueError):
    """Malformed polynomial text."""


def _abs_max(cs):
    """max |c| over the nonempty ints cs, with no abs() results made."""
    return max(max(cs), -min(cs))


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
        if self.ctx != ZZ:
            raise TypeError("norm is defined over Z only")
        return _abs_max(self.coeffs) if self.coeffs else 0

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
        if ctx.int_modulus is not None:
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
        if self.ctx != ZZ:
            raise TypeError("norm is defined over Z only")
        return _abs_max(list(map(itemgetter(1), self.terms))) if self.terms else 0

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
    """Whether every polynomial given is a SparsePoly: with the degree, what
    modeval.triple_forms decides a check's forms by."""
    return all(isinstance(X, SparsePoly) for X in polys)


def same_ctx(*polys):
    """Refuse polynomials over different coefficient rings: the one ring
    check of the products, the reductions and the verifiers."""
    if any(X.ctx != polys[0].ctx for X in polys[1:]):
        raise ValueError("mixed coefficient contexts")


def x_pow_minus_one(ctx, n):
    """The binomial X^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SparsePoly(ctx, [(0, ctx.neg(ctx.one())), (n, ctx.one())])


# ---------------------------------------------------------------------------
# reference multiplication


# Dense products whose smaller factor packs to fewer decimal digits than
# this take one CPython int product (Karatsuba) of binary-packed factors;
# larger ones take one decimal.Decimal product, which libmpdec computes by
# a number-theoretic transform.  On CPython 3.11 the decimal product took
# up to 2.3x the time of the binary one below 10k digits, 1.04-1.15x at
# 41k-49k digits and 0.56-0.90x from 61k digits on.
_DECIMAL_MIN_DIGITS = 50_000
# The lowest limit sys.set_int_max_str_digits accepts: decimal slots up to
# this wide convert by str() and int(); wider ones are written through
# Decimal, which has no limit, and read as int() of pieces this wide.
_STR_SAFE_DIGITS = 640
_STR_SAFE_SCALE = 10**_STR_SAFE_DIGITS


def _kronecker_ints(a, b):
    """The integer convolution of a and b by Kronecker substitution: each
    factor packed as one number, one product, the product's slots read
    back.

    Every coefficient of a, b and their product is at most
    bound = min(len) max|a| max|b| in absolute value, so a slot holds it
    plus an offset that makes it nonnegative.  Small products pack in
    binary slots (_kronecker_binary), large ones in decimal slots
    (_kronecker_decimal), by the packed size of the smaller factor; both
    give the same list, and neither depends on
    sys.get_int_max_str_digits()."""
    bound = min(len(a), len(b)) * _abs_max(a) * _abs_max(b)
    s = bound.bit_length() * 30103 // 100000 + 2  # so 10^(s-1) > bound
    if min(len(a), len(b)) * s < _DECIMAL_MIN_DIGITS:
        return _kronecker_binary(a, b, bound)
    return _kronecker_decimal(a, b, s)


def _kronecker_binary(a, b, bound):
    """_kronecker_ints at 2^w per slot, for w the least multiple of 8 with
    bound < 2^(w-1).  Every digit c + 2^(w-1) lies in [0, 2^w) and takes
    w/8 bytes: a factor is packed as its digits' bytes read as one int,
    minus the offset 2^(w-1) (2^(size w) - 1)/(2^w - 1) of that many
    digits, built as repeated bytes; the CPython int product plus its
    offset is read back the same way, w/8 bytes a digit, each shifted down
    again."""
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


def _kronecker_decimal(a, b, s):
    """_kronecker_ints at 10^s per slot, with bound < 10^(s-1).  Every
    coefficient plus 10^(s-1) lies in (0, 10^s) and is written as s
    digits, highest degree first: a factor is those digits read as one
    Decimal, minus the offset 10^(s-1) (10^(size s) - 1)/(10^s - 1) of that
    many slots, written as repeated digits; the product plus its offset is
    written out and cut back into s-digit slots, each shifted down again.
    A slot wider than _STR_SAFE_DIGITS is read as int of pieces of at most
    that many digits, combined by powers of 10^_STR_SAFE_DIGITS: about 4x
    faster than int(Decimal) at 1235 digits.

    Every Decimal is made and combined in one local context whose
    precision is the product's slot count times s, with Inexact trapped:
    the arithmetic is exact, and the caller's thread context is neither
    read nor changed."""
    off = 10 ** (s - 1)
    off_digits = "1".ljust(s, "0")
    size = len(a) + len(b) - 1
    exact = Context(prec=size * s, Emax=MAX_EMAX, traps=[InvalidOperation, Inexact])
    if s <= _STR_SAFE_DIGITS:
        digits, value = str, int
    else:

        def digits(c):
            return exact.to_sci_string(exact.create_decimal(c))

        def value(t):
            head = len(t) % _STR_SAFE_DIGITS or _STR_SAFE_DIGITS
            v = int(t[:head])
            for k in range(head, len(t), _STR_SAFE_DIGITS):
                v = v * _STR_SAFE_SCALE + int(t[k : k + _STR_SAFE_DIGITS])
            return v

    def pack(cs):
        text = "".join([digits(c + off).zfill(s) for c in reversed(cs)])
        return exact.subtract(
            exact.create_decimal(text), exact.create_decimal(off_digits * len(cs))
        )

    product = exact.multiply(pack(a), pack(b))
    product = exact.add(product, exact.create_decimal(off_digits * size))
    text = exact.to_sci_string(product).zfill(size * s)
    return [value(text[i : i + s]) - off for i in range(size * s - s, -1, -s)]


def mul_oracle(F, G):
    """Reference product.

    Dense over Z or GF(q): Kronecker substitution (_kronecker_ints), both
    factors packed as one number each and multiplied once, in binary by
    CPython's int product when small and in decimal by libmpdec's
    number-theoretic transform when large, the product's slots read back,
    taken as they are over Z (DensePoly.trusted) and reduced mod q by the
    checking constructor.  The product is exact at any coefficient width,
    whatever the caller's decimal context or int string limit.  Sparse,
    and dense over a quotient ring: the terms product_terms gives, sorted
    by exponent.  A dense product is made dense again.
    """
    same_ctx(F, G)
    ctx = F.ctx
    dense = isinstance(F, DensePoly) and isinstance(G, DensePoly)
    if dense and ctx.int_modulus is not None:
        POLY_MUL_OPS.bump()
        if F.is_zero() or G.is_zero():
            return DensePoly.zero(ctx)
        cs = _kronecker_ints(F.coeffs, G.coeffs)
        return DensePoly.trusted(ctx, cs) if ctx == ZZ else DensePoly(ctx, cs)
    if dense:
        F, G = F.to_sparse(), G.to_sparse()
    elif not all_sparse(F, G):
        raise TypeError("mul_oracle needs two dense or two sparse polynomials")
    FG = _sorted_poly(ctx, product_terms(F, G))
    return FG.to_dense() if dense else FG


def product_terms(F, G, P=None):
    """F*G, or (F*G) mod P for a monic sparse P, of sparse F and G as the
    dict {exponent: coefficient} of its nonzero terms, coefficients
    canonical: the reference product of mul_oracle, and what the exact
    route of prodverify.verify_product compares with H.
    Counts one product in POLY_MUL_OPS; deg F + deg G is checked against
    EXPONENT_CAP once.

    Each term c1 X^e1 of the shorter factor gives one row, the other
    factor's terms times it: one list of exponents, ascending, and one of
    coefficients, each made by one comprehension.  Modulo P the rows are
    reduced (_reduced_rows) and then all rows are merged (_merged_rows), so
    no Python step is taken per term pair unless exponents repeat (after
    Johnson, SIGSAM Bull. 1974, which builds a sparse product from the
    rows of its smaller factor).  Over a ring other than Z and GF(q) the
    rows are summed before the reduction, zero sums kept, so that every
    exponent of the pairs that reaches deg P costs #P - 1 ring products in
    the first round."""
    if not all_sparse(F, G):
        raise TypeError("product_terms needs two sparse polynomials")
    if P is not None:
        _require_monic(P)
    same_ctx(*(X for X in (F, G, P) if X is not None))
    ctx = F.ctx
    POLY_MUL_OPS.bump()
    fs, gs = F.terms, G.terms
    if len(fs) > len(gs):
        fs, gs = gs, fs
    if not fs:
        return {}
    if fs[-1][0] + gs[-1][0] > EXPONENT_CAP:
        raise ValueError("exponent exceeds 2^63 - 1")
    ges = [e for e, _ in gs]
    gcs = [c for _, c in gs]
    q = ctx.int_modulus
    rows = [([e1 + e for e in ges], _scaled(gcs, c1, q, ctx.mul)) for e1, c1 in fs]
    if P is None:
        return _merged_rows(rows, ctx, q)
    if q is None:
        rows = [_row(_ring_sum(rows, ctx))]
    return _merged_rows(_reduced_rows(rows, P, q), ctx, q)


def _scaled(cs, c, q, mul):
    """[c * x for x in cs], canonical: mod q over GF(q) (q > 0), as they
    are over Z (q = 0), by mul over any other ring (q None).  cs itself
    when c is the int 1."""
    if q is None:
        return [mul(c, x) for x in cs]
    if c == 1:
        return cs
    if q:
        return [c * x % q for x in cs]
    return [c * x for x in cs]


def _row(terms):
    """The dict terms, exponent -> coefficient, as a row: its exponents
    sorted and their coefficients."""
    es = sorted(terms)
    return es, list(map(terms.__getitem__, es))


def _sorted_poly(ctx, terms):
    """The SparsePoly of the dict terms, exponent -> canonical nonzero
    coefficient."""
    return SparsePoly.trusted(ctx, zip(*_row(terms)))


def _reduced_rows(rows, P, q):
    """The rows, (exponents ascending, coefficients), rewritten modulo the
    monic P of degree n into rows below X^n.  Each round splits every row
    at n by bisect and rewrites the high parts once per low term p_e X^e
    of P as X^(e'-n+e) with coefficient -p_e c, ascending again; rounds
    repeat until no row reaches n.  From the second round on the high
    parts are merged into one row first, which bounds the round by the
    distinct exponents left, as merging does in long division; the first
    round's rows are the caller's, whose exponents rarely meet, while
    rewritten rows meet whenever two exponents differ by a difference of
    the degrees of P."""
    ctx = P.ctx
    n = P.degree()
    low = [(e - n, pe) for e, pe in P.terms[:-1]]
    done = []
    high = _split_rows(rows, n, done)
    while high:
        rows = [
            ([e + shift for e in es], _times_minus(cs, pe, q, ctx))
            for es, cs in high
            for shift, pe in low
        ]
        high = _split_rows(rows, n, done)
        if high:
            high = [_row(_merged_rows(high, ctx, q))]
    return done


def _split_rows(rows, n, done):
    """The parts of the rows at or above n, split off by bisect; the parts
    below n are appended to done."""
    high = []
    for es, cs in rows:
        i = bisect_left(es, n)
        if i == len(es):
            done.append((es, cs))
            continue
        if i:
            done.append((es[:i], cs[:i]))
        high.append((es[i:], cs[i:]))
    return high


def _times_minus(cs, pe, q, ctx):
    """[-pe * c for c in cs], canonical; over a ring other than Z and GF(q)
    each the negated ring product c * pe."""
    if q is not None:
        return _scaled(cs, ctx.neg(pe), q, None)
    neg, mul = ctx.neg, ctx.mul
    return [neg(mul(c, pe)) for c in cs]


def _merged_rows(rows, ctx, q):
    """The dict {exponent: canonical nonzero coefficient} of the sum of the
    rows.  With ints (q not None) each row's coefficients are canonical and
    its exponents distinct, so a row that shares no exponent with the rows
    before it is added by one dict.update; only a row that does takes a
    Python step per term, and one C-level scan finds any zero to drop.
    Over any other ring every term is added by the ring's methods."""
    if q is None:
        is_zero = ctx.is_zero
        return {e: c for e, c in _ring_sum(rows, ctx).items() if not is_zero(c)}
    acc = {}
    get = acc.get
    for es, cs in rows:
        if acc.keys().isdisjoint(es):
            acc.update(zip(es, cs))
        elif q:
            for e, c in zip(es, cs):
                acc[e] = (get(e, 0) + c) % q
        else:
            for e, c in zip(es, cs):
                acc[e] = get(e, 0) + c
    if 0 in acc.values():
        return {e: c for e, c in acc.items() if c}
    return acc


def _ring_sum(rows, ctx):
    """The dict {exponent: sum of its coefficients} of the rows, by the
    ring's methods, zero sums kept."""
    acc = {}
    get, add, zero = acc.get, ctx.add, ctx.zero()
    for es, cs in rows:
        for e, c in zip(es, cs):
            acc[e] = add(get(e, zero), c)
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
    as X^n - P.  Dense Q: the long division divide_in_place, whose entries
    below X^n are the remainder.  Sparse Q: its terms as one row of
    _reduced_rows, merged."""
    _require_monic(P)
    same_ctx(Q, P)
    ctx = Q.ctx
    if isinstance(Q, DensePoly):
        cs = list(Q.coeffs)
        divide_in_place(cs, P)
        del cs[P.degree() :]
        return DensePoly.trusted(ctx, cs)
    if isinstance(Q, SparsePoly):
        q = ctx.int_modulus
        row = ([e for e, _ in Q.terms], [c for _, c in Q.terms])
        return _sorted_poly(ctx, _merged_rows(_reduced_rows([row], P, q), ctx, q))
    raise TypeError("unsupported polynomial type")


def divide_in_place(cs, P, start=0, ctx=None):
    """Long division of the coefficient list cs by the monic sparse P of
    degree n, in place and top-down, where cs[i] stands for X^(start + i)
    and writes below X^start are dropped.  Afterwards an entry at X^m is
    the coefficient of X^(m - n) of the quotient where m >= n, and of the
    remainder where m < n.  The arithmetic runs in ctx, P's ring by
    default, into which P's coefficients are taken by canon; entries that
    no write reaches stay as they are.  For P over Z and ctx a GF(p) they
    may be any integers, and each block is reduced once as it is read,
    into a copy.

    The entry c at X^m, m >= n, adds -c p_e at X^(m - n + e) for every
    lower term p_e X^e of P, an index below m, so every entry is final when
    the pass reaches it, and the cost is one product per index at or above
    n and lower term whose write is kept.  Over Z and GF(q) the pass cuts
    blocks of n - k indices, k the second degree of P, off the top, one
    _plus_multiple per block and lower term: every index a block writes
    lies below the block, so its values are final when it is cut.  Over
    any other ring it takes one index at a time and skips the zero ones."""
    ctx = ctx or P.ctx
    n = P.degree()
    width = gap_info(P).gap_width
    low = [(n - e, ctx.canon(pe)) for e, pe in P.terms[:-1]]  # cs[i] writes at i - (n - e)
    q = ctx.int_modulus
    top = len(cs)
    floor = max(n - start, width)  # the lowest quotient entry with a write kept
    if q is None:
        for i in range(top - 1, floor - 1, -1):
            c = cs[i]
            if not ctx.is_zero(c):
                for g, pe in low:
                    if i >= g:
                        cs[i - g] = ctx.sub(cs[i - g], ctx.mul(c, pe))
        return
    while top > floor:
        lo = max(floor, top - width)
        ys = cs[lo:top] if ctx == P.ctx else [y % q for y in cs[lo:top]]
        for g, pe in low:
            if g < top:
                a = max(lo, g)
                cs[a - g : top - g] = _plus_multiple(cs[a - g : top - g], -pe, ys[a - lo :], q)
        top = lo


def _plus_multiple(xs, c, ys, q):
    """[x + c*y for x, y in zip(xs, ys)], mod q over GF(q) (q > 0)."""
    if q:
        return [(x + c * y) % q for x, y in zip(xs, ys)]
    return [x + c * y for x, y in zip(xs, ys)]


def reduce_mod_binomial(F, i):
    """F mod (X^i - 1): fold every exponent e to e mod i and merge.  F
    itself when F is zero or of degree below i, where nothing folds.  A
    dense F over Z or GF(q) is the long division of mod_reduce at X^i - 1,
    which there adds the blocks of i coefficients; any other F sums its
    terms by folded exponent (_ring_sum), a dense one over a quotient ring
    read through its sparse form."""
    if i < 1:
        raise ValueError("binomial degree must be >= 1")
    if not isinstance(F, (DensePoly, SparsePoly)):
        raise TypeError("unsupported polynomial type")
    if F.is_zero() or F.degree() < i:
        return F
    ctx = F.ctx
    dense = isinstance(F, DensePoly)
    if dense and ctx.int_modulus is not None:
        return mod_reduce(F, x_pow_minus_one(ctx, i))
    terms = F.to_sparse().terms
    acc = _ring_sum([([e % i for e, _ in terms], [c for _, c in terms])], ctx)
    folded = SparsePoly.trusted(ctx, sorted(acc.items()))
    return folded.to_dense() if dense else folded


# ---------------------------------------------------------------------------
# evaluation


def _check_eval_ring(F, ring):
    """ring, where a polynomial over F.ctx evaluates: F.ctx itself, a
    quotient ring over it or, for F over Z, GF(p); F.ctx for None."""
    ctx = F.ctx
    if ring is None:
        return ctx
    if ring == ctx or ring.x is not None and ring.base == ctx or ring.int_modulus and ctx == ZZ:
        return ring
    raise ValueError("evaluation point must lie in the ctx, an extension, or GF(p) over Z")


def power_table(ring, alpha):
    """The map e -> alpha^e for many exponents at one point.

    It is one fixed-base windowed table (Brickell, Gordon, McCurley and
    Wilson, EUROCRYPT 1992), in Z, GF(q) and every quotient ring alike:
    window i holds alpha^(j 2^(8i)) for 0 <= j < 256, entry 0 being 1, and
    alpha^e is the product of one entry per nonzero byte of e, so (nonzero
    bytes of e) - 1 products once its entries exist.  Entries are filled
    lazily, one product each: T[j] = T[j ^ low] T[low] with low the lowest
    set bit of j, and the power-of-two entries T[2^k] = alpha^(2^(8i+k))
    come from the squares of alpha, one product per square, as far as the
    largest exponent asked for needs.

    pw(e) is alpha^e in the form the ring names with its product
    (ring.product_form), in which the squares and entries are kept: the
    element itself and ring.mul, but bit-sliced in GF(2)[X]/(R), where a
    product is three integer multiplications (see
    rings.GF2Ext._sliced_product), and slot-packed in GF(q)[X]/(R) for odd
    q from degree 2 on (see rings.GFqExt._packing).  Its readers, the sparse
    sums and the sparse scan of modeval, stay in that form and leave it
    once, with their result; ring.product_form()'s out gives the element
    of one power.  alpha enters the form with the first entry made, so a
    table nothing reads costs nothing.  A product in the form is counted
    in POLY_MUL_OPS where ring.mul is: every ExtField product but one with
    x.

    Besides pw(e), the table gives bulk access to one window:
    pw.window(i, digits) fills the entries of window i that the byte values
    digits need and returns the window, which the sparse sums index by
    byte: the fused kernel PrimeField.sparse_sum and the bucketed loop
    _sparse_sum of every other ring.  In GF(q) (a ring whose int_modulus
    is a q > 0) such a request may instead grow the window in bulk: with
    its entries below L = 2^t all filled, PrimeField.double_powers doubles
    that prefix, one C-level pass per doubling.  A request of at least
    BULK_GROWTH 255 bytes grows the window to all 256 entries, without
    building the set of its bytes (about 70 us per 4096 bytes on the host
    below).  A shorter one grows it to cover the largest byte asked for
    when BULK_GROWTH times the number of nonzero bytes asked for reaches
    that byte (and it lies past L).  Single lookups pw(e) and the remaining
    requests keep the lazy fill.  Measured on a fresh window
    (CPython 3.11, 2-vCPU VM), a lazy entry costs about 0.65 us and a bulk
    one 0.07 us at a 17-bit q and 0.24 us at a 61-bit q, where % q is a
    long division; bulk growth up to byte 255 broke even at about 32
    distinct bytes asked for at 17 bits and 56-64 at 61 and 127 bits, as
    a lazy entry also fills the entries its product chain needs.  Both
    fills give the same canonical values, so lazy entries and bulk growth
    mix in one window.

    One table serves every term of every polynomial evaluated at alpha in
    one check, through any access and in any order; it is local to that
    check."""
    into, mul, _ = ring.product_form()
    squares = []
    windows = []
    prefix = []  # window i holds every entry below prefix[i], a power of two
    bulk = bool(ring.int_modulus)

    def fill(i, digits=()):
        while len(windows) <= i:
            windows.append([into(ring.one())] + [None] * ((1 << WINDOW_BITS) - 1))
            prefix.append(1)
        w = windows[i]
        if bulk and len(digits) >= BULK_GROWTH * 255:
            top = 255
        else:
            asked = set(digits)
            asked.discard(0)
            top = max(asked) if asked else 0
            if not (bulk and BULK_GROWTH * len(asked) >= top):
                for j in asked:
                    if w[j] is None:
                        entry(w, i, j)
                return w
        if top >= prefix[i]:
            # doubling 2^t entries takes the step alpha^(2^t 2^(8i)), entry 2^t
            size = prefix[i]
            steps = [entry(w, i, 1 << t) for t in range(size.bit_length() - 1, top.bit_length())]
            prefix[i] = size << len(steps)
            w[: prefix[i]] = ring.double_powers(w[:size], steps)
        return w

    def entry(window, i, j):
        v = window[j]
        if v is None:
            low = j & -j
            if low == j:
                k = WINDOW_BITS * i + j.bit_length() - 1
                if not squares:
                    squares.append(into(alpha))
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
        return into(ring.one()) if acc is None else acc

    pw.window = fill
    return pw


def _horner(cs, alpha, ring, ctx):
    """The generic Horner loop on the ring interface, the reference for
    every ring.horner, for coefficients cs in ctx: lifted by ring.embed
    from a base, taken as they are (ring.canon) in the ring itself."""
    lift = ring.canon if ctx == ring else ring.embed
    acc = ring.zero()
    for c in reversed(cs):
        acc = ring.add(ring.mul(acc, alpha), lift(c))
    return acc


def _sparse_sum(terms, pw, ring, ctx):
    """sum c alpha^e over the ascending (e, c) terms, with coefficients
    in ctx: the loop of every ring without a sparse kernel, and the
    reference for every ring.sparse_sum.  It sums by buckets (Pippenger,
    SIAM J. Comput. 1980), one form product per distinct high part, not
    one per term and byte.  At byte level i the values are keyed by
    e >> 8i, and the values whose keys agree but for the low byte j form
    one run, as the terms ascend; a run's sum of value times entry j of
    window i (read through pw.window) is the value of key >> 8 at the
    next level, until the one key 0 is left.

    It sums in the ring's product form (ring.product_form), the form pw
    keeps its powers in, and leaves it once.  A value carries how it
    multiplies an entry: a coefficient in a base by ring.scalar_mul, no
    product, until it meets another value of its run and enters the form
    as c 1; a coefficient in the ring itself, or a sum, by the form's
    product.  Byte 0 multiplies nothing.  So the sum never makes more
    products than the per-term loop it replaced, alpha^e from pw scaled
    by c, and the table makes the same entries for both."""
    if not terms:
        return ring.zero()
    into, mul, out = ring.product_form()
    add, scale = ring.add, ring.scalar_mul
    if ctx == ring:
        level = [(e, into(c), mul) for e, c in terms]
    else:
        level = [(e, c, scale) for e, c in terms]
    low = (1 << WINDOW_BITS) - 1
    i = 0
    while True:
        window = pw.window(i, [e & low for e, _, _ in level])
        runs = []
        for e, v, times in level:
            j = e & low
            if j:
                v, times = times(v, window[j]), mul
            h = e >> WINDOW_BITS
            if runs and runs[-1][0] == h:
                _, acc, by = runs[-1]
                runs[-1] = (h, add(acc if by is mul else scale(acc, window[0]), v), mul)
            else:
                runs.append((h, v, times))
        level = runs
        i += 1
        if runs[-1][0] == 0:
            _, v, times = runs[0]
            return out(v if times is mul else scale(v, window[0]))


def evaluate(F, alpha, ring=None, pw=None):
    """F(alpha).  alpha may live in F.ctx, in a quotient ring over it or,
    for F over Z, in GF(p), whose kernels reduce the integer
    coefficients.  The ring says which kernel serves.  Dense polynomials
    use Horner: the ring's fused horner where ring.serves_dense(F.ctx,
    alpha), that is in GF(q) and at x of GF(q)[X]/(R), else the generic
    loop _horner.  Sparse ones take every alpha^e from pw, a
    power_table(ring, alpha) that a check evaluating several polynomials at
    alpha builds once and shares, or from a fresh one: by the fused
    sparse_sum where ring.serves_sparse(F.ctx), in GF(q) a byte of every
    exponent at a time, elsewhere by buckets of a byte at a time in the
    ring's product form (_sparse_sum).  At the class of X in a quotient
    ring, F(X) is F mod R, and dense Horner multiplies no polynomials (see
    ExtField.mul)."""
    ring = _check_eval_ring(F, ring)
    if isinstance(F, DensePoly):
        if ring.serves_dense(F.ctx, alpha):
            return ring.horner(F.coeffs, alpha)
        return _horner(F.coeffs, alpha, ring, F.ctx)
    if isinstance(F, SparsePoly):
        pw = pw or power_table(ring, alpha)
        if ring.serves_sparse(F.ctx):
            return ring.sparse_sum(F.terms, pw)
        return _sparse_sum(F.terms, pw, ring, F.ctx)
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
    q = F.ctx.int_modulus
    if q is None:
        raise TypeError("only Z and GF(q) polynomials have a file form")
    head = f"ring GF {q}" if q else "ring Z"
    if isinstance(F, DensePoly):
        body = " ".join(["dense"] + [str(c) for c in F.coeffs])
    elif isinstance(F, SparsePoly):
        body = " ".join(["sparse"] + [f"{e}:{c}" for e, c in F.terms])
    else:
        raise TypeError("unsupported polynomial type")
    return head + "\n" + body + "\n"


@functools.lru_cache(maxsize=64)
def _modulus_is_prime(q):
    """is_prime(q) for the field modulus of a .poly text, asked once per
    process and modulus: is_prime is deterministic (exact below 3.3 * 10^24,
    seeded from q above), so the cache changes no answer."""
    return is_prime(q)


def parse_poly(text):
    """The polynomial a .poly text holds.  A canonical body (plain decimal
    tokens one space apart) is read by one C-level JSON scan (_bulk_ints,
    _bulk_sparse_terms) and range-checked by C-level passes; any other body, and one that fails
    a check, is read again token by token, which gives the same values or
    the PolyFormatError that names the first bad token."""
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
        if not _modulus_is_prime(q):
            raise PolyFormatError(f"field modulus {q} is not prime")
        ctx = GF(q)
    else:
        raise PolyFormatError(f"bad ring line {lines[0]!r}")
    body = lines[1].split(None, 1)
    if not body:
        raise PolyFormatError("missing polynomial body")
    kind, rest = body[0], body[1] if len(body) > 1 else ""
    if kind == "dense":
        cs = _bulk_ints(rest)
        if cs is None or (
            isinstance(ctx, PrimeField) and cs and ("-" in rest or max(cs) >= ctx.q)
        ):
            cs = [_parse_coeff(ctx, tok) for tok in rest.split()]
        return DensePoly.trusted(ctx, cs)
    if kind == "sparse":
        terms = _bulk_sparse_terms(ctx, rest)
        if terms is None:
            terms = _sparse_terms(ctx, rest.split())  # raises the error of the first bad token
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


_INT_CHARS = str.maketrans("", "", "0123456789- ")


def _bulk_ints(text):
    """The ints of text, a canonical body: plain decimal tokens without '+',
    '_' or leading zeros, one space apart, none past CPython's int-to-str
    digit limit.  One str.translate pass checks the characters and one
    C-level JSON scan reads every number; JSON numbers made of these
    characters are a subset of what int() reads, with the same values.
    None for any other text, which the per-token readers then read."""
    if text.translate(_INT_CHARS):
        return None
    try:
        return json.loads("[" + text.replace(" ", ",") + "]")
    except ValueError:
        return None


_NUMBER_BYTES = b"0123456789+-_"


def _bulk_sparse_terms(ctx, text):
    """What _sparse_terms returns for text, a valid sparse body, from
    C-level passes: without the digits, signs and underscores of int
    literals its bytes are ": : ... :", one ':' per space-separated token,
    so the tokens are one space apart and each has exactly one ':'; one
    json.loads of the bytes with every ' ' and ':' made a ',' reads both
    halves of every term (so neither is empty, and JSON refuses '+', '_'
    and leading zeros); the exponents increase strictly
    within [0, EXPONENT_CAP], no coefficient is zero and over GF(q) all lie
    in [0, q).  None when any check fails."""
    body = text.encode()
    tokens = body.count(b" ") + 1 if body else 0
    if body.translate(None, _NUMBER_BYTES) != (b" :" * tokens)[1:]:
        return None
    try:
        nums = json.loads(b"[" + body.replace(b" ", b",").replace(b":", b",") + b"]")
    except ValueError:
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
