"""Coefficient domains and randomness.

Provides exact integer arithmetic, prime fields GF(q), quotient rings
B[X]/(R) over any of these (extension fields when B = GF(q) and R is
irreducible), a deterministic seedable random stream, primality checks,
probable-prime generation and probable-irreducible generation.  Field
elements are plain Python ints (residues in [0, q)); quotient-ring elements
are tuples of base elements, or bit-packed ints when the base field is
GF(2).  All values are immutable; every operation is pure except RngStream
draws.
"""

import math
import operator
import random
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import repeat

_MASK64 = (1 << 64) - 1
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # GF(2) coefficients as binary digits
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")  # and back
_TOP_BIT_DIGITS = bytes(48 + (b >> 7) for b in range(256))  # a byte's top bit as a binary digit
RUN_TERMS = 8  # PrimeField.sparse_sum sums runs of a top byte first from this many terms per value


def _gf2_bits(cs):
    """The int sum cs[i] 2^i of nonempty GF(2) coefficients cs: their bytes
    as binary digits, read from the top."""
    return int(bytearray(cs).translate(_BIT_DIGITS)[::-1], 2)


def _gf2_slice(a, k):
    """The GF(2) coefficients of the int a, coefficient i in bit 0 of
    k-byte slot i of one int: a's binary digits as bytes, each the last of
    its slot."""
    digits = format(a, "b").encode().translate(_DIGIT_BITS)  # top coefficient first
    if k > 1:
        spread = bytearray(len(digits) * k)
        spread[k - 1 :: k] = digits
        digits = spread
    return int.from_bytes(digits, "big")


def _same(a):
    return a


# the answers of a ring's serves_* questions where they hold whatever is asked


def _always(*_):
    return True


def _never(*_):
    return False


class PrimeGenerationError(RuntimeError):
    """The random-prime trial budget was exhausted (RNG or parameter pathology)."""


class OpCounter:
    """Counter for instrumenting how many polynomial multiplications ran."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self, k=1):
        self.count += k


# Every polynomial-multiplication routine in the package bumps this counter,
# so tests can assert that multiplication-free code paths really are.
POLY_MUL_OPS = OpCounter()


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Deterministic random stream: identical seeds give identical draws."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._gen = random.Random(self.seed)

    def bits(self, k):
        return self._gen.getrandbits(k) if k > 0 else 0

    def bit_int(self, k):
        """What k successive bits(1) calls return, from one draw, as one
        int, call i in bit i: CPython fills getrandbits(32 k) with k
        successive 32-bit outputs, least significant first, and bits(1) is
        the top bit of one output, so it is bit 7 of every fourth byte from
        the fourth on; those bytes, read from the top, are its binary
        digits."""
        if k <= 0:
            return 0
        words = self._gen.getrandbits(32 * k).to_bytes(4 * k, "little")
        return int(words[:2:-4].translate(_TOP_BIT_DIGITS), 2)

    def below(self, n):
        """Uniform integer in [0, n), unbiased (rejection sampling)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        k = (n - 1).bit_length()
        if n == 1:
            return 0
        while True:
            x = self.bits(k)
            if x < n:
                return x

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def residue(self, n):
        """Near-uniform value in [0, n) without rejection (64 guard bits)."""
        return self.bits(n.bit_length() + 64) % n


def ceil_log2(x):
    """Smallest k >= 0 with 2**k >= x, for a positive int or Fraction."""
    fr = Fraction(x)
    if fr <= 1:
        return 0
    return (-(-fr.numerator // fr.denominator) - 1).bit_length()


def ln_upper(x):
    """An exact-rational upper bound on ln(x) for x >= 1."""
    if x < 1:
        raise ValueError("ln_upper needs x >= 1")
    if x == 1:
        return Fraction(0)
    # math.log has ~1 ulp relative error; a 1e-9 relative pad keeps us above.
    return Fraction(math.log(x)) * (1 + Fraction(1, 10**9))


def ln_pow2_upper(k):
    """ln_upper(2**k) without building 2**k.  math.log converts an int that
    fits a float, as 2^k does below k = 1024, and otherwise takes
    log(m) + e log(2) from its frexp m 2^e, here 0.5 * 2^(k+1); the same
    float operations give the same bound."""
    if k == 0:
        return Fraction(0)
    ln = math.log(math.ldexp(1.0, k)) if k < 1024 else math.log(0.5) + math.log(2.0) * (k + 1)
    return Fraction(ln) * (1 + Fraction(1, 10**9))


# ---------------------------------------------------------------------------
# coefficient domains
#
# Z (IntegerRing), GF(q) (PrimeField) and the quotient rings B[X]/(R)
# (ExtField, one class per element representation) share the ring
# interface, and each ring answers the questions the rest of the package
# would otherwise answer by testing its class:
#
#   int_modulus                q in GF(q) and 0 in Z, whose elements are
#                              plain ints (reduced mod q where q > 0);
#                              None in a quotient ring, whose elements take
#                              its methods
#   x                          the class of X in a quotient ring (which
#                              also has its base B); None in Z and GF(q)
#   serves_dense(ctx, alpha)   whether horner and dense_scan serve
#                              coefficients in ctx at alpha: GF(q) at any
#                              point, GF(q)[X]/(R) only at its own x (by
#                              identity) with coefficients in GF(q); never Z
#                              or a quotient ring over another ring
#   serves_sparse(ctx)         whether sparse_sum serves coefficients in ctx:
#                              GF(q) only
#   serves_point_policy()      whether one random point bounds a miss
#                              (modverify.point_kind): Z, GF(q), and
#                              GF(q)[X]/(R) for R irreducible, which Ben-Or's
#                              test decides once per ring, on first asking
#
# Coefficients in a quotient ring itself (where 2 is x of GF(2^d)) and any
# point of it but x take the generic loops.  Those decide from the
# coefficient ring, never from a value: coefficients in a base enter by
# embed and scalar_mul, which take base scalars only, and coefficients in
# the ring itself are elements and multiply by mul.  Where a ring serves,
# its kernels have the contract of the generic loops poly._horner,
# modeval._dense_scan and poly._sparse_sum, their reference:
#
#   horner(cs, alpha)                sum cs[i] alpha^i
#   dense_scan(f, alpha, pa, V, gs)  f_0 = f, f_i = alpha f_{i-1} - V[i-1] pa;
#                                    returns sum gs[i] f_i over i < len(gs)
#   sparse_sum(exps, cs, pw)         sum c alpha^e over the exponents exps,
#                                    ascending as a SparsePoly keeps them, and
#                                    their coefficients cs, the powers from
#                                    the windows of the power_table pw at alpha
#
# The quotient-ring classes are GF2Ext (GF(2)[X]/(R), one bit-packed int
# per element), GFqExt (odd GF(q), tuples of ints that the kernels pack
# into slots of one int) and ExtField itself (tuples over Z or a quotient
# ring, no kernel).  A new element class gets the fused kernels by
# defining them and answering serves_dense and serves_sparse for the
# coefficients and points where their contract holds; poly.evaluate and
# modeval.eval_mod_p_dense ask nothing else.
#
# pow, the power table, the sparse sum poly._sparse_sum and the sparse scan
# of modeval keep their values in the ring's product form (product_form):
# elements appear only at a loop's input and result, which enter and leave
# the form once.  The form is the element itself and mul, but in GF2Ext the
# bit-sliced form of GF2Ext._slice, where a product is three integer
# multiplications, and in GFqExt from d = 2 on the slot-packed form of
# GFqExt._into, where a product is one integer product and its reduction in
# the slots.  The form is linear over the base: into and out commute with
# add, sub and scalar_mul by a base scalar, which the sparse sum and scan
# apply to form values (GFqExt's take packed values as well as elements).
# So GF2Ext and GFqExt have no sparse_sum: the generic loop sums in their
# forms, by buckets of a byte at a time, one product per distinct high
# part of the exponents with a nonzero byte, where a base coefficient only
# scales an entry.  Z runs the same loop on its exact ints.
#
# GF2Ext has that one product: mul slices its factors and unslices the
# result, which costs more than the 4-bit comb it replaced at small d.
# Best of 5 x 20000 calls of mul, comb against sliced with slice and
# unslice: 1.07 against 1.80 us at d = 8, 1.81 against 2.11 us at d = 23,
# 3.70 against 3.34 us at d = 64.  On the benchmark's workloads no such
# standalone product is left: every GF(2)[X]/(R) product there is made in
# the form, by the power table or the sparse scan.
#
# horner runs a block of coefficients at a time: one C-level dot product
# per block with a table of alpha's powers, and Horner across the blocks
# (baby steps, giant steps).  dense_scan takes one Python step per index in
# GF(q) (transposed: a Horner step down gs, then one C-level dot product
# with V), eight per step in GF2Ext at x (lookups, XORs and bit-vector
# inner products) and one per step in GFqExt's slots.  Measured and left
# out, on CPython 3.11 on one Xeon core at n = 2^13:
#   - the closed form as prefix sums through alpha^-1, and that form in
#     baby-step giant-step blocks: 4.7 against 4.0 ms at 61 bits, 2.9
#     against 1.8 ms at 17 bits;
#   - in GF(q), the untransposed scan two indices per % q (f_(i+1) left
#     unreduced): 3.1 against 2.7 ms for the transposed scan at 61 bits,
#     and 36 against 20 ms with 2048-bit V and gs over Z, where
#     g_(i+1) f_(i+1) has two wide factors;
#   - the odd-q slot scan two steps per iteration, in the layout with the
#     top coordinate in the low slot: 4.74 against 4.62 ms (best of 25 at
#     q = 65537, d = 3), and with v NP made for every index ahead of the
#     loop by a C-level map: 4.83 against 4.23 ms;
#   - GFqExt's product with one slot reduction at the end instead of
#     three, in slots of 2 bit_length((d-1)^3 p^4 + d p^2) + 1 bits: a
#     square in the slots took 0.84 against 1.16 us at q = 65537, d = 3,
#     but 9.8 against 3.4 us at q = 7, d = 34, where its ints are twice
#     as wide; and a fold of the d - 1 high slots one at a time through
#     the packed x^(d+i) mod R in place of Barrett's step: about as fast
#     at d <= 4, 4.6-5.2 against 2.4-2.6 us at q = 7, d = 22 and 8.3-8.6
#     against 3.6-6.3 us at d = 34 (best of 9 x 20000 squares);
#   - GF(2) Horner on 16-bit and 32-bit words: 441 against 480 us and 503
#     against 501 us;
#   - a C-level sparse product and reduction: slower than the dict loop;
#   - a fold by shifts for Mersenne q only: 3%, not worth the branch;
#   - Ben-Or over GF(2) in one body with odd q, squaring by ring.pow in
#     GF2Ext(f) with the same gcds: the same answers and POLY_MUL_OPS
#     counts on 500 random candidates per d in {8, 17, 34, 41, 61} (200
#     each at d = 8 and 17 over GF(7) and GF(65537)), but
#     random_irreducible(GF(2), d, 2^-22) went from 0.37-0.38 to
#     0.92-1.00 ms at d = 34 and from 1.32-1.33 to 2.60-2.66 ms at d = 61
#     (medians over 40 seeds, two runs, 2-vCPU Xeon), since a ring and its
#     sliced constants are made per candidate; so _gf2_is_irreducible
#     keeps its packed squaring.
#
# PrimeField's horner, dense_scan and sparse_sum also take integer
# coefficients of any sign (dense_scan in V and gs as well), for a
# polynomial over Z at a point of GF(p): poly.evaluate and the scans of
# modeval read them as they are.
#
# The kernels multiply no polynomials and count nothing in POLY_MUL_OPS.


class IntegerRing:
    """Arbitrary-precision exact integers."""

    __slots__ = ()
    int_modulus = 0
    x = None

    def __repr__(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("IntegerRing")

    def size(self):
        return None

    def canon(self, x):
        return int(x)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, e):
        return a**e

    def is_zero(self, a):
        return a == 0

    def product_form(self):
        """(into, mul, out) as ExtField.product_form: the element itself."""
        return _same, self.mul, _same

    embed = canon
    scalar_mul = mul
    serves_dense = serves_sparse = _never
    serves_point_policy = _always


ZZ = IntegerRing()


class PrimeField:
    """GF(q) for a (probable) prime q; elements are ints in [0, q)."""

    __slots__ = ("q", "int_modulus")
    x = None

    def __init__(self, q):
        if q < 2:
            raise ValueError("field modulus must be >= 2")
        self.q = self.int_modulus = int(q)

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def size(self):
        return self.q

    def canon(self, x):
        return int(x) % self.q

    def zero(self):
        return 0

    def one(self):
        return 1 % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def pow(self, a, e):
        return pow(a, e, self.q)

    def is_zero(self, a):
        return a == 0

    def sample(self, rng):
        return rng.residue(self.q)

    serves_dense = serves_sparse = serves_point_policy = _always

    # -- fused kernels: plain int arithmetic ----------------------------

    def horner(self, cs, alpha):
        """Baby steps, giant steps (Paterson and Stockmeyer, SIAM J.
        Comput. 1973): with b = isqrt(len(cs)), the block of cs from index
        k b on is one C-level dot product with the powers alpha^0 ..
        alpha^(b-1), and Horner runs across the blocks in alpha^b, reducing
        once per block: about 2 sqrt(n) steps in Python for the n
        multiply-adds, b for the powers and n / b for the blocks."""
        q = self.q
        alpha %= q
        b = max(1, math.isqrt(len(cs)))
        table = [1]
        for _ in range(b - 1):
            table.append(table[-1] * alpha % q)
        giant = table[-1] * alpha % q
        acc = 0
        for start in range((len(cs) - 1) // b * b, -1, -b):
            acc = (acc * giant + sum(map(operator.mul, cs[start : start + b], table))) % q
        return acc

    def dense_scan(self, f, alpha, pa, V, gs):
        """The scan transposed.  With m = min(len(V), len(gs) - 1) steps,
        f_i = alpha^i f - pa sum_(j<i) v_j alpha^(i-1-j), so

            sum_(i<=m) g_i f_i = f G(alpha) - pa sum_(j<m) v_j s_j,

        where s_j = sum_(i>j) g_i alpha^(i-1-j) runs down from s_(m-1) = g_m
        as s_j = g_(j+1) + alpha s_(j+1), and G(alpha) = g_0 + alpha s_0.
        So a step is one multiply-add and one % q, and the sum over V is one
        C-level dot product with the s_j, each below q.  Every value is
        reduced or exact, so V and gs may hold signed integers of any
        width, and a product never has two wide factors."""
        q = self.q
        m = min(len(V), len(gs) - 1)
        s = 0
        S = [s := (g + alpha * s) % q for g in gs[m:0:-1]]  # s_(m-1) down to s_0
        S.reverse()
        return (f * (gs[0] + alpha * s) - pa * sum(map(operator.mul, V, S))) % q

    def sparse_sum(self, exps, cs, pw):
        """Exponent byte i of every term at once: the exponents sit side by
        side as the little-endian 64-bit words of one C-level array, so
        window i's bytes are one slice.  A SparsePoly's exps is that array
        already, and its bytes are read as they are; any other int sequence
        (and any array on a big-endian host) is copied into one.  One
        C-level map multiplies every term's running value (its coefficient
        at first) by its entry of window i, where byte 0 stands for 1.  Only
        the sum is reduced: a value is a coefficient times at most 8
        entries, below |c| q^8, and multiplying it by one more entry costs
        less than reducing it first.

        The terms ascend by exponent, as a SparsePoly keeps them, so the top
        bytes ascend too and each of their values covers one run of terms.
        Where the top byte spans at most one value per RUN_TERMS terms, each
        run's values are summed first and multiplied by their top entry
        once (bucket accumulation): one product per run, not per term."""
        if not exps:
            return 0
        vals = cs  # every term's running value, its coefficient at first
        nb = max(1, (exps[-1].bit_length() + 7) >> 3)
        digits = exps if isinstance(exps, array) else array("q", exps)
        if sys.byteorder == "big":
            digits = array("q", digits)  # a copy: the caller's array is never written
            digits.byteswap()
        width, digits = digits.itemsize, digits.tobytes()
        for i in range(nb - 1):
            col = digits[i::width]
            vals = map(operator.mul, vals, map(pw.window(i, col).__getitem__, col))
        col = digits[nb - 1 :: width]
        window = pw.window(nb - 1, col)
        lo, hi = col[0], col[-1]
        if RUN_TERMS * (hi - lo + 1) > len(col):
            return sum(map(operator.mul, vals, map(window.__getitem__, col))) % self.q
        vals = list(vals)
        cut = [bisect_left(col, b) for b in range(lo, hi + 2)]
        runs = zip(range(lo, hi + 1), cut, cut[1:])
        return sum([window[b] * sum(vals[s:e]) for b, s, e in runs if s < e]) % self.q

    def product_form(self):
        """(into, mul, out) as ExtField.product_form: the element itself."""
        return _same, self.mul, _same

    def double_powers(self, powers, steps):
        """powers = [1, a, .., a^(L-1)] grown in place by doubling: for each
        step s = a^L, a^(2L), .. in turn, one C-level pass appends s times
        every power so far, each reduced.  The power-table windows of
        poly.power_table grow this way in bulk."""
        q = self.q
        for s in steps:
            powers += [v * s % q for v in powers]
        return powers

    embed = canon
    scalar_mul = mul


def GF(q):
    return PrimeField(q)


class ExtField:
    """B[X]/(R) for a coefficient ring B of this package and R monic of
    degree d >= 1.

    A quotient ring in general: over GF(q) it is a field exactly when R is
    irreducible, and no operation here requires that.  ExtField(B, R)
    makes a ring of the class for B's elements: GF2Ext over GF(2), one
    bit-packed int per element; GFqExt over an odd GF(q), tuples of d ints
    whose kernels pack them into slots; and ExtField itself over any other
    ring (Z, a quotient ring), tuples of d base elements with no fused
    kernel.  Tuples are added, negated and scaled by the base ring's
    methods.  Rings of one B and one R are equal and of one class; a
    subclass of one of the three is made as it is asked for.  ``x`` is the
    class of X; mul_x multiplies by it with one shift and subtract, which
    is not a polynomial product and is not counted in POLY_MUL_OPS, so
    scans run at x multiply no polynomials.
    """

    __slots__ = ("base", "modulus", "d", "x")
    int_modulus = None

    def __new__(cls, base, modulus):
        if cls is ExtField:
            q = base.int_modulus
            cls = GF2Ext if q == 2 else GFqExt if q else ExtField
        return object.__new__(cls)

    def __getnewargs__(self):
        """The arguments copy and pickle make a ring of this class from."""
        return self.base, self.modulus

    def __init__(self, base, modulus):
        mod = tuple(base.canon(c) for c in modulus)
        if len(mod) < 2 or not base.is_zero(base.sub(mod[-1], base.one())):
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = mod
        self.d = len(mod) - 1
        self._start()
        self.x = self.mul_x(self.one())

    def _start(self):
        """Set the representation's own state, which making x may read."""

    def __repr__(self):
        return f"{self.base!r}[X]/{self.modulus}"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and self.base == other.base
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.base, self.modulus))

    def size(self):
        s = self.base.size()
        return None if s is None else s**self.d

    serves_dense = serves_sparse = serves_point_policy = _never

    # -- representation helpers ------------------------------------------

    def from_coeffs(self, coeffs):
        base = self.base
        cs = [base.canon(c) for c in coeffs]
        if len(cs) > self.d:
            raise ValueError("representative degree too large")
        return tuple(cs + [base.zero()] * (self.d - len(cs)))

    def coeffs(self, a):
        return a

    # -- ring operations ---------------------------------------------------

    def zero(self):
        return (self.base.zero(),) * self.d

    def one(self):
        return self.from_coeffs([self.base.one()])

    def canon(self, a):
        return a

    def embed(self, c):
        """Lift a base scalar."""
        return self.from_coeffs([c])

    def add(self, a, b):
        add = self.base.add
        return tuple(add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        sub = self.base.sub
        return tuple(sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def scalar_mul(self, c, a):
        """Multiply by a base scalar."""
        mul = self.base.mul
        return tuple(mul(c, x) for x in a)

    def mul_x(self, a):
        """X * a: shift up one place and subtract the overflow times the
        modulus, O(d) base operations."""
        base = self.base
        top = a[-1]
        shifted = (base.zero(),) + a[:-1]
        if base.is_zero(top):
            return shifted
        return tuple(base.sub(y, base.mul(top, m)) for y, m in zip(shifted, self.modulus))

    def mul(self, a, b):
        """The ring product, counted in POLY_MUL_OPS.  A factor that is
        ``x`` itself (by identity) makes it mul_x, which is not counted."""
        if a is self.x:
            return self.mul_x(b)
        if b is self.x:
            return self.mul_x(a)
        POLY_MUL_OPS.bump()
        return self._product(a, b)

    def _product(self, a, b):
        """Horner over the coefficients of b."""
        acc = self.zero()
        for c in reversed(b):
            acc = self.add(self.mul_x(acc), self.scalar_mul(c, a))
        return acc

    def product_form(self):
        """(into, mul, out): the form pow, poly.power_table, the sparse sum
        and the sparse scan of modeval keep values in, its product and the
        way back, here the element itself and mul (GF2Ext and GFqExt keep
        their own forms).  A form is linear over the base: into and out
        commute with add, sub and scalar_mul by a base scalar, on which the
        sparse sum and scan rely."""
        return _same, self.mul, _same

    def pow(self, a, e):
        """a^e, left to right from the top set bit of e: bit_length(e) - 1
        squarings and popcount(e) - 1 products by a, made in the product
        form, which a enters and the result leaves once."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return self.one()
        into, mul, out = self.product_form()
        acc = fa = into(a)
        for i in range(e.bit_length() - 2, -1, -1):
            acc = mul(acc, acc)
            if (e >> i) & 1:
                acc = mul(acc, fa)
        return out(acc)

    def is_zero(self, a):
        return a == self.zero()

    def sample(self, rng):
        return self.from_coeffs([self.base.sample(rng) for _ in range(self.d)])


class _FiniteExt(ExtField):
    """GF(q)[X]/(R): what the two classes over GF(q) share, the fused
    dense kernels at x and the cached answer of Ben-Or's test."""

    __slots__ = ("_field",)

    def _start(self):
        self._field = None  # R irreducible? asked on first use

    def __repr__(self):
        return f"GF({self.base.q}^{self.d})"

    def serves_dense(self, ctx, alpha):
        return alpha is self.x and self.base == ctx

    def serves_point_policy(self):
        """Whether R is irreducible, so that the ring is a field: Ben-Or's
        test, run on the first call and cached.  Never run when the ring is
        made, since companion-no-polymul makes one per unscreened draw and
        asks nothing."""
        if self._field is None:
            self._field = poly_list_is_irreducible(self.modulus, self.base.q)
        return self._field

    def _require_x(self, alpha):
        if alpha is not self.x:
            raise ValueError("the fused kernels run at x only")


class GFqExt(_FiniteExt):
    """GF(q)[X]/(R) for odd q: tuples of d ints in [0, q).  Every kernel
    packs the d coordinates into w-bit slots of one int in one layout,
    coordinate j in slot d - 1 - j, so that the top coordinate is the low
    slot (_shifts, _pack, _unpack).  The one product packs both factors
    and is one integer product reduced by Barrett's method, in two more
    multiplications and three reductions mod q of every slot at once
    (_packing, _reduced).  From d = 2 on pow, the power table, the sparse
    sum and the sparse scan of modeval keep their values packed
    (product_form), so they pack and unpack once.  horner and dense_scan
    keep the coordinates unreduced in slots of a width of their own, where
    x f is a shift down one slot plus (low slot % q) times -R mod q packed
    (_slots)."""

    __slots__ = ("_neg_r", "_packed")

    def _start(self):
        super()._start()
        q = self.base.q
        self._neg_r = [(-c) % q for c in self.modulus[:-1]]  # -R mod q below X^d
        self._packed = None  # the packed product's constants, built by the first _packing

    def _packing(self):
        """The constants of the packed product, built on first use: the
        slot shifts, the slot mask, x packed, q in every slot, and those
        _reduced reads.

        Coordinates up to p = q - 1 sit in w-bit slots, and the integer
        product t of two packed elements has 2d - 1 slots, each a sum of
        at most d products: at most d p^2.  The layout reverses the
        coefficients, and the product of two reversed polynomials is their
        product reversed: coefficient i of t sits in slot 2d - 2 - i.
        Reducing mod q commutes with adding, multiplying and shifting whole
        slots, so Barrett's method (CRYPTO 1986) runs on packed slots as on
        polynomials, where it is exact (see GF2Ext._sliced_product): with
        t = t1 X^d + t0 and mu = floor(X^(2d-2) / R) mod q, the quotient
        is (t1 mu) div X^(d-2), and t mod R = t0 + quotient (-R mod q).
        Reversed, t1 is the low d - 1 slots of t and t0 the rest, the
        quotient is the low d - 1 slots of t1 mu, and the low d - 2 slots
        of quotient (-R mod q) are the part dropped by the reduction mod
        X^d.  With t1 and the quotient reduced mod q, every slot on the way
        is at most B = (2d - 1) p^2 < 2^s.  One multiplication reduces
        every slot v mod q at once (_mod_slots): with k = s + bit_length(q)
        and m = ceil(2^k / q), floor(v m / 2^k) = floor(v / q), since
        v m / 2^k exceeds v / q by less than 2^(s-k) < 1 / q; v m <
        2^(2s+1) = 2^w, so the slots of t m never carry, and after the
        shift by k each slot's quotient sits in its low w - k bits, under
        the mask quot.

        x packs with q added to its coordinate 0 (0 from d = 2 on), equal
        to x mod q, so the packed x is an int of its own that no reduced
        value equals: at d = 2 x would pack to 1, which CPython shares with
        every equal int, and identity could not tell x from a value equal
        to it (product_form).  A product with it has slots of at most q^2,
        so a slot on the way is at most q^2 + (d - 1) p^2 < 2^s: at most B
        for q >= 5 or d >= 3, and 13 < 16 at q = 3, d = 2.  Its slots are
        at most q, so add, sub and scalar_mul take it too."""
        q, d = self.base.q, self.d
        p = q - 1
        s = ((2 * d - 1) * p * p).bit_length()
        k = s + q.bit_length()
        w = 2 * s + 1
        shifts = self._shifts(w)
        r = self.modulus[-2::-1]  # R's coefficients below X^d, from the top
        top = [1]  # mu's coefficients from the top: R mu has none at X^(2d-3) .. X^(d-1)
        for j in range(1, d - 1):
            top.append(-sum(map(operator.mul, r[:j], reversed(top))) % q)
        pack = self._pack
        self._packed = (
            shifts, (1 << w) - 1, pack([self.x[0] + q, *self.x[1:]], shifts), pack([q] * d, shifts),
            (d - 1) * w, max(d - 2, 0) * w, (1 << ((d - 1) * w)) - 1,  # the low d - 1 slots
            pack(top[::-1], shifts[1:]) if d > 1 else 0,  # mu, d - 1 slots
            pack(self._neg_r, shifts),
            k, -(-(1 << k) // q), pack([(1 << (w - k)) - 1] * d, shifts), q,  # m, quot
        )
        return self._packed

    def _mod_slots(self, t):
        """Every slot of t, each at most 2^s - 1, reduced mod q."""
        k, m, quot, q = self._packed[-4:]
        return t - ((t * m >> k) & quot) * q

    def _reduced(self, t):
        """The integer product t of two packed elements, taken mod R with
        every slot reduced mod q (_packing): _mod_slots written out three
        times, on t1, on the quotient and on the remainder."""
        hw, lw, low, mu, N, k, m, quot, q = self._packed[4:]
        t1 = t & low
        t1 -= ((t1 * m >> k) & quot) * q
        quotient = t1 * mu & low
        quotient -= ((quotient * m >> k) & quot) * q
        t = (t >> hw) + (quotient * N >> lw)
        return t - ((t * m >> k) & quot) * q

    def _into(self, a):
        """a in the packed form.  x itself packs to the one packed x and
        _out takes that back to x itself, so that identity marks x in the
        form and out of it, as mul reads it."""
        shifts, _, x = (self._packed or self._packing())[:3]
        return x if a is self.x else self._pack(a, shifts)

    def _out(self, a):
        """The element of a value of the packed form."""
        shifts, slot, x = (self._packed or self._packing())[:3]
        return self.x if a is x else tuple([(a >> j) & slot for j in shifts])

    def _product(self, a, b):
        shifts, slot = (self._packed or self._packing())[:2]
        t = self._reduced(self._pack(a, shifts) * self._pack(b, shifts))
        return tuple([(t >> j) & slot for j in shifts])

    def _mul_packed(self, a, b):
        """The product of packed elements, counted in POLY_MUL_OPS as mul
        counts it: not where a factor is the packed x itself."""
        x = self._packed[2]
        if a is not x and b is not x:
            POLY_MUL_OPS.bump()
        return self._reduced(a * b)

    def product_form(self):
        """(into, mul, out) as ExtField.product_form: from d = 2 on the
        packed form, its product and the way back, so that pow squares and
        multiplies in the slots.  Packed values are added, subtracted and
        scaled by a base scalar exactly, by add, sub and scalar_mul, on
        which the sparse sum and scan rely.  At d = 1 the packed x is a
        value below 2q, which CPython may keep as one object with every
        equal int, so identity could not mark it: the element itself stays
        the form there."""
        if self.d == 1:
            return ExtField.product_form(self)
        return self._into, self._mul_packed, self._out

    def add(self, a, b):
        """a + b, of elements or of values of the packed form."""
        if a.__class__ is int:
            return self._mod_slots(a + b)
        return tuple(map(operator.mod, map(operator.add, a, b), repeat(self.base.q)))

    def sub(self, a, b):
        """a - b, of elements or of values of the packed form."""
        if a.__class__ is int:
            return self._mod_slots(a + self._packed[3] - b)
        return tuple(map(operator.mod, map(operator.sub, a, b), repeat(self.base.q)))

    def scalar_mul(self, c, a):
        """c a for a base scalar c, of an element or a value of the packed
        form."""
        if a.__class__ is int:
            return self._mod_slots(c * a)
        q = self.base.q
        return tuple([c * y % q for y in a])

    def horner(self, cs, alpha):
        """sum cs[i] x^i, that is the polynomial cs mod R, for coefficients
        cs in GF(q); alpha must be x.

        PrimeField.horner's blocked form on slot-packed elements: the
        powers x^0 .. x^(b+d-1) mod R come from the dense scan's step
        without reduction, so their slots stay below d q^2; a block of b
        coefficients is one dot product with the first b of them, and
        acc x^b is the linear map a_t -> sum a_t x^(b+t) through the next d,
        after reducing acc's slots to a_t < q.  A slot then holds below
        b q d q^2 + d q d q^2 = (b + d) d q^3 < 2^w, so no slot carries
        into the next.  That map costs O(d) per block against the block's
        O(b), so b = isqrt(n d) for n = len(cs), at most n: about
        sqrt(n / d) blocks and b + d powers.  A block whose coefficients
        are all zero costs its map alone, so a sparse polynomial made dense,
        such as P = X^n + 5X + 1, pays its blocks' any() and giant steps and
        no dot product.  No ring product is made."""
        self._require_x(alpha)
        q, d, n = self.base.q, self.d, len(cs)
        b = max(1, min(n, math.isqrt(n * d)))
        w, slot, shifts, M = self._slots((b + d) * d * q**3)
        powers = [1 << (d - 1) * w]
        for _ in range(b + d - 1 if n > b else b - 1):
            p = powers[-1]
            powers.append((p >> w) + (p & slot) % q * M)
        table, shifted = powers[:b], powers[b:]
        top = (n - 1) // b * b
        acc = sum(map(operator.mul, cs[top:], table))
        for start in range(top - b, -1, -b):
            acc = sum(map(operator.mul, self._unpack(acc, shifts, slot), shifted))
            block = cs[start : start + b]
            if any(block):
                acc += sum(map(operator.mul, block, table))
        return self._unpack(acc, shifts, slot)

    def dense_scan(self, f, alpha, pa, V, gs):
        """The dense scan at alpha = x for V and gs in GF(q).  The d
        coordinates sit unreduced in w-bit slots of one int, coordinate j
        in slot d - 1 - j, so the top coordinate is the low slot, and a
        step is f <- f >> w + (low slot % q) M + v NP, where M packs -R mod
        q and NP packs -pa mod q.  A step adds two nonnegative terms of at
        most (q-1)^2 to every slot, and coordinate j inherits coordinate
        j-1 from the slot above, so coordinate j stays below 2(j+1) q^2,
        every f-slot below 2d q^2, and every slot of the sum of len(gs)
        terms g f below 2 len(gs) d q^3 < 2^w: no slot carries into the
        next, and one reduction per slot at the end gives the element."""
        self._require_x(alpha)
        q = self.base.q
        w, slot, shifts, M = self._slots(2 * len(gs) * self.d * q**3)
        NP = self._pack([(-c) % q for c in pa], shifts)
        f = self._pack(f, shifts)
        beta = gs[0] * f
        for v, g in zip(V, gs[1:]):
            f = (f >> w) + (f & slot) % q * M + v * NP
            if g:
                beta += g * f
        return self._unpack(beta, shifts, slot)

    def _slots(self, bound):
        """For a slot bound: the width w with 2^w > bound, the mask of one
        slot, the shifts of coordinates 0 .. d-1 and M, -R mod q packed."""
        w = bound.bit_length()
        shifts = self._shifts(w)
        return w, (1 << w) - 1, shifts, self._pack(self._neg_r, shifts)

    def _shifts(self, w):
        """The bit offsets of coordinates 0 .. d-1 in w-bit slots: (d - 1) w
        down to 0."""
        return list(range((self.d - 1) * w, -1, -w))

    @staticmethod
    def _pack(cs, shifts):
        """The coordinates cs, coordinate j at bit shifts[j] of one int."""
        return sum(map(operator.lshift, cs, shifts))

    def _unpack(self, a, shifts, slot):
        """The element whose coordinate j is the slot of a at shifts[j],
        reduced mod q."""
        q = self.base.q
        return tuple([((a >> j) & slot) % q for j in shifts])


class GF2Ext(_FiniteExt):
    """GF(2)[X]/(R): an element is one int, coefficient i in bit i, so
    addition is XOR and mul_x a shift and a conditional XOR with R.  The
    one product is bit-sliced (_slice): coefficient i in bit 0 of slot i
    of one int, where a product is three integer multiplications
    (_sliced_product).  mul slices its factors and unslices the result;
    poly.power_table, the sparse sum and the sparse scan of modeval keep
    their values in that form (product_form), so they slice and unslice
    once."""

    __slots__ = ("_r", "_fold", "_sliced")

    def _start(self):
        super()._start()
        self._r = _gf2_bits(self.modulus)  # R, its X^d bit included
        self._fold = None  # the fold table, built by the first _fold_table
        self._sliced = None  # sliced-form constants, built by the first _slicing

    def from_coeffs(self, coeffs):
        return _gf2_bits(ExtField.from_coeffs(self, coeffs))

    def coeffs(self, a):
        return tuple((a >> i) & 1 for i in range(self.d))

    def zero(self):
        return 0

    def embed(self, c):
        """The packed form of a canonical base bit is the bit itself."""
        return int(c)

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def scalar_mul(self, c, a):
        """c a for a bit c."""
        return a if c else 0

    def mul_x(self, a):
        a <<= 1
        return a ^ self._r if a >> self.d else a

    def horner(self, cs, alpha):
        """sum cs[i] x^i, that is the polynomial cs mod R, for coefficients
        cs in GF(2); alpha must be x.  The bits of cs as one int, reduced a
        byte at a time."""
        self._require_x(alpha)
        if not cs:
            return 0
        table = self._fold_table()
        d = self.d
        low = (1 << d) - 1
        acc = 0
        for byte in _gf2_bits(cs).to_bytes((len(cs) + 7) // 8, "big"):
            acc = (acc << 8) ^ byte
            acc = (acc & low) ^ table[acc >> d]
        return acc

    def dense_scan(self, f, alpha, pa, V, gs):
        """The dense scan at alpha = x for V and gs in GF(2), eight indices
        per step (the Four Russians method of Arlazarov, Dinic, Kronrod and
        Faradzev, 1970).  From f_i at the start of a block,
        f_(i+k) = x^k f_i + pa sum_(j<k) v_(i+j) x^(k-1-j), so with
        w = sum_(j<8) v_(i+j) x^(7-j),

            f_(i+8) = (x^8 f_i mod R) + T[w],   T[w] = pa w mod R:

        one lookup in the fold table for the part of f x^8 past degree d, and
        one in T, a table of 256 entries built by 8 doublings.  The sum over
        a block is g(x) f_i + pa U_B, with g(x) = sum_k g_(i+k) x^k and
        U_B = sum_(j<k<8) g_(i+k) v_(i+j) x^(k-1-j).  f_i is XORed into the
        bucket of its block's g, one of 256, and at the end sum_g g(x) A[g]
        is sum_k x^k (XOR of the A[g] whose g has g_(i+k) set).  pa is the
        same in every block, so sum_B pa U_B = pa U = T[U], and
        coefficient k-1-j of U is the parity of the pairs g_(i+k) v_(i+j)
        over all blocks: a popcount of ANDed bit-vectors.  Lookups, XORs,
        shifts and bit-vector inner products only: no polynomial is
        multiplied."""
        self._require_x(alpha)
        m = min(len(V) + 1, len(gs))
        nb = (m + 7) >> 3
        # bit 8 nb - 1 - i of gb and vb is g_i and v_i, so the block of
        # indices 8B to 8B + 7 is big-endian byte B, index 8B + k at bit
        # 7 - k (bytearray reads a tuple or list of ints faster than bytes)
        gb = int((bytearray(gs[:m]) + bytes(8 * nb - m)).translate(_BIT_DIGITS), 2)
        vb = int((bytearray(V[: m - 1]) + bytes(8 * nb - m + 1)).translate(_BIT_DIGITS), 2)
        table = self._byte_multiples(pa)
        fold = self._fold_table()
        d = self.d
        low = (1 << d) - 1
        buckets = [0] * 256
        for g, v in zip(gb.to_bytes(nb, "big"), vb.to_bytes(nb, "big")):
            buckets[g] ^= f
            f <<= 8
            f = (f & low) ^ fold[f >> d] ^ table[v]
        # bit 7 - k of a bucket's index stands for x^k: halve the buckets
        # by their low bit, x^7 first, and run Horner from there
        beta = 0
        while len(buckets) > 1:
            odd = buckets[1::2]
            beta = self.mul_x(beta) ^ reduce(operator.xor, odd)
            buckets = list(map(operator.xor, buckets[::2], odd))
        ones = int.from_bytes(b"\1" * nb, "big")  # bit 0 of every block
        gk = [(gb >> (7 - k)) & ones for k in range(8)]
        vk = [(vb >> (7 - k)) & ones for k in range(8)]
        u = 0
        for t in range(7):
            pairs = reduce(operator.xor, [gk[j + 1 + t] & vk[j] for j in range(7 - t)])
            u |= (pairs.bit_count() & 1) << t
        return beta ^ table[u]

    def _product(self, a, b):
        """The sliced product of packed elements: both factors sliced, one
        _sliced_product, the result unsliced."""
        return self._unslice(self._sliced_product(self._slice(a), self._slice(b)))

    def _fold_table(self):
        """c X^d mod R for the 256 bytes c, built on first use: horner and
        the dense scan fold the part of a value past degree d, below 2^8,
        back in one lookup."""
        if self._fold is None:
            self._fold = self._byte_multiples(self._r ^ (1 << self.d))
        return self._fold

    def _byte_multiples(self, v):
        """The 256 products c v mod R for the bytes c, bit t of c standing
        for x^t, XORed together from the 8 values v x^t by doubling the
        table once per bit."""
        table = [0]
        for _ in range(8):
            table += [t ^ v for t in table]
            v = self.mul_x(v)
        return table

    # -- the bit-sliced product form ---------------------------------------

    def product_form(self):
        """(into, mul, out) as ExtField.product_form: the bit-sliced form,
        its product and the way back.  Slicing moves each coefficient bit
        to its own slot, so XOR and scaling by a bit act alike on both
        forms."""
        return self._slice, self._mul_sliced, self._unslice

    def _slicing(self):
        """The constants of the sliced form, built on first use: the slot
        width w, the least of 8, 16 and 32 with 2^w > d; the shifts d w and
        max(d - 2, 0) w; and sliced, the ones of the low d slots and of the
        d - 1 slots above them, mu = floor(X^(2d-2) / R), R - X^d, R and
        x."""
        d, m = self.d, self._r
        w = next(w for w in (8, 16, 32) if d < 1 << w)
        k = w >> 3
        mu, rem = 0, 1 << (2 * d - 2)
        while rem.bit_length() > d:
            shift = rem.bit_length() - 1 - d
            mu |= 1 << shift
            rem ^= m << shift
        ones = (1 << d) - 1
        self._sliced = (w, d * w, max(d - 2, 0) * w) + tuple(
            _gf2_slice(a, k) for a in (ones, ones >> 1, mu, m ^ (1 << d), m, self.x)
        )
        return self._sliced

    def _slice(self, a):
        """A packed element in the bit-sliced form: coefficient i in bit 0
        of slot i, bits i w to i w + w - 1 of one int."""
        return _gf2_slice(a, (self._sliced or self._slicing())[0] >> 3)

    def _unslice(self, a):
        """The packed element of a sliced one."""
        k = (self._sliced or self._slicing())[0] >> 3
        return int(a.to_bytes(self.d * k, "big")[k - 1 :: k].translate(_BIT_DIGITS), 2)

    def _mul_sliced(self, a, b):
        """The product of sliced elements, counted in POLY_MUL_OPS as mul
        counts it.  A factor equal to x (which in the packed form is
        exactly when mul sees x itself, CPython keeping one object per
        small int) is a slot shift and one conditional XOR with R, and is
        not counted."""
        w, dw, _, _, _, _, _, r, x = self._sliced or self._slicing()
        if a == x:
            a, b = b, a
        if b == x:
            a <<= w
            return a ^ r if a >> dw else a
        POLY_MUL_OPS.bump()
        return self._sliced_product(a, b)

    def _sliced_product(self, a, b):
        """The product of sliced elements, reduced by Barrett's method
        (CRYPTO 1986) on polynomials, where it is exact, and not counted.
        Slot k of the integer a b counts the pairs i + j = k of set
        coefficients, at most d < 2^w, so no slot carries and its bit 0 is
        the coefficient of the carry-less product t.  With
        t = t1 X^d + t0, the quotient t div R is (t1 mu) div X^(d-2): the
        two differ by t1 rho / (R X^(d-2)) with X^(2d-2) = mu R + rho, of
        negative degree.  Its slots count at most d - 1 pairs, and so do
        those of the quotient times R - X^d, which gives the low d
        coefficients of t - (t div R) R.  Three integer multiplications."""
        _, dw, sw, low, high, mu, r0, _, _ = self._sliced or self._slicing()
        t = a * b
        quotient = ((t >> dw & high) * mu >> sw) & high
        return (t ^ quotient * r0) & low


# ---------------------------------------------------------------------------
# schoolbook polynomial helpers on coefficient lists over GF(q), for the
# gcd of the irreducibility test over odd q


def _list_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _list_mod(a, b, q):
    """The remainder of a modulo a nonzero b."""
    lead_inv = pow(b[-1], -1, q)
    rem = [c % q for c in a]
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % q
        if c:
            f = (c * lead_inv) % q
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - f * b[j]) % q
    return _list_trim(rem)


def _list_gcd(a, b, q):
    a = _list_trim([c % q for c in list(a)])
    b = _list_trim([c % q for c in list(b)])
    while b:
        a, b = b, _list_mod(a, b, q)
    return a


def _gf2_gcd(a, b):
    """gcd of two bit-packed GF(2) polynomials, by XOR Euclid."""
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def _gf2_is_irreducible(m, d):
    """Ben-Or's test on the bit-packed GF(2) polynomial m of degree d.
    Step i = 1 is the screen f(0) = f(1) = 1, as x^2 - x = x (x - 1); from
    i = 2 on, x^(2^i) mod m is the carry-less square of x^(2^(i-1)), its
    binary digits interleaved with zeros, reduced a bit at a time.  Each
    square is a ring product and is counted in POLY_MUL_OPS."""
    if d < 2:
        return True
    if not m & 1 or not m.bit_count() & 1:
        return False
    h = 4 ^ m if d == 2 else 4  # x^2 mod m
    for _ in range(2, d // 2 + 1):
        POLY_MUL_OPS.bump()
        h = int("0".join(format(h, "b")), 2)
        top = h.bit_length() - 1
        while top >= d:
            h ^= m << (top - d)
            top = h.bit_length() - 1
        if _gf2_gcd(m, h ^ 2).bit_length() > 1:
            return False
    return True


def poly_list_is_irreducible(coeffs, q):
    """Exact irreducibility test for a monic polynomial over GF(q).

    Ben-Or's test: f of degree d is irreducible iff gcd(x^(q^i) - x, f) = 1
    for every i <= d/2, since a reducible f has an irreducible factor of
    degree i <= d/2, which divides x^(q^i) - x.  The powers x^(q^i) come by
    successive q-th powers, so most reducible f stop at a small i.  Over
    GF(2) the whole test runs on one packed int (_gf2_is_irreducible); over
    odd q the powers are taken in ExtField(GF(q), f) and the gcd on
    coefficient lists.
    """
    f = [c % q for c in coeffs]
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if q == 2:
        return _gf2_is_irreducible(_gf2_bits(f), d)
    ring = ExtField(PrimeField(q), f)
    h = ring.x
    for _ in range(d // 2):
        h = ring.pow(h, q)
        if len(_list_gcd(list(ring.sub(h, ring.x)), f, q)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# probable primes


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin to every one of these bases is exact below _DET_LIMIT, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015).
_DET_BASES = _SMALL_PRIMES + (41,)
_DET_LIMIT = 3317044064679887385961981
# Below 2^64 seven bases do, each reduced mod n and skipped where that is 0
# (Sinclair's set, 2011; see _fixed_bases).
_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _strong_probable_prime(n, a):
    """One Miller-Rabin round: False proves the odd n > 2 composite."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _fixed_bases(n):
    """The bases that decide an odd n < _DET_LIMIT with no factor in
    _SMALL_PRIMES: Sinclair's seven reduced mod n below 2^64, with those
    that n divides left out, and the 13 of _DET_BASES above."""
    if n >> 64:
        return _DET_BASES
    return [a % n for a in _BASES_64 if a % n]


def is_probable_prime(n, rounds, rng=None):
    """Miller-Rabin with rounds random bases: True for every prime; a
    composite passes with probability at most 4**-rounds.

    When the first random base passes, n < _DET_LIMIT and more rounds
    remain than it has fixed bases (_fixed_bases), those decide instead: if n
    passes them all it is prime, so every remaining random base would pass
    too, and those bases are drawn from rng and discarded.  Otherwise the
    random rounds go on.  Either way the answer, and every draw taken from
    rng, are those of the plain loop of random rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if rng is None:
        rng = RngStream(_splitmix64((n & _MASK64) ^ rounds))
    if not _strong_probable_prime(n, 2 + rng.below(n - 3)):
        return False
    rest = rounds - 1
    if n < _DET_LIMIT:
        bases = _fixed_bases(n)
        if rest > len(bases) and all(_strong_probable_prime(n, a) for a in bases):
            for _ in range(rest):
                rng.below(n - 3)
            return True
    return all(_strong_probable_prime(n, 2 + rng.below(n - 3)) for _ in range(rest))


def is_prime(n):
    """Primality check for a modulus given from outside: exact below
    3.3 * 10^24, and above that Miller-Rabin with 64 rounds (a composite
    passes with probability at most 4**-64)."""
    if n >= _DET_LIMIT:
        return is_probable_prime(n, 64)
    if n < 2:
        return False
    for p in _DET_BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _fixed_bases(n))


def random_prime(lam, epsilon, rng):
    """An integer in [lam, 2*lam] that is prime with probability >= 1 - epsilon.

    Draws uniform odd candidates and screens them with Miller-Rabin using
    ceil(log2(2/epsilon)) rounds.  Raises PrimeGenerationError if the trial
    cap 64*ceil(ln lam) is exhausted, which signals a pathology rather than
    an expected outcome.
    """
    lam = int(lam)
    eps = Fraction(epsilon)
    if lam < 21:
        raise ValueError("lam must be >= 21")
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    rounds = max(1, ceil_log2(Fraction(2) / eps))
    lo = lam if lam % 2 == 1 else lam + 1
    n_odd = (2 * lam - lo) // 2 + 1
    cap = 64 * math.ceil(math.log(lam))
    for _ in range(cap):
        cand = lo + 2 * rng.below(n_odd)
        if is_probable_prime(cand, rounds, rng):
            return cand
    raise PrimeGenerationError(
        f"no probable prime found in [{lam}, {2 * lam}] after {cap} trials"
    )


def random_monic(field, d, rng):
    """Uniformly random monic degree-d polynomial over GF(q), as a coefficient
    list (no irreducibility screening, no polynomial products).  Over GF(2)
    coefficient i is bit i of RngStream.bit_int(d), the d bits(1) draws
    of below(2) in one."""
    if not isinstance(field, PrimeField):
        raise TypeError("random_monic needs a PrimeField")
    q = field.q
    if q == 2:  # below(2) is one bits(1) draw
        bits = rng.bit_int(d)
        return [(bits >> i) & 1 for i in range(d)] + [1]
    return [rng.below(q) for _ in range(d)] + [1]


def random_irreducible(field, d, epsilon, rng):
    """Monic degree-d polynomial over the finite field, irreducible with
    probability >= 1 - epsilon.

    Monte Carlo: samples up to ceil(2*d*ln(1/epsilon)) monic candidates and
    returns the first one passing poly_list_is_irreducible (Ben-Or's exact
    test); if none passes, the last candidate is returned (this happens with
    probability at most epsilon).  The result is uniform over the monic
    irreducibles of degree d whenever it is irreducible.  Over GF(2) a
    candidate is one packed int, the draw of random_monic read by
    RngStream.bit_int, screened by _gf2_is_irreducible directly.
    """
    from .poly import DensePoly

    if d < 1:
        raise ValueError("degree must be >= 1")
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    # ln(1/eps) from its numerator and denominator: as floats, 1/eps
    # overflows from eps = 2^-1024 on, and eps is 0.0 from 2^-1075 on
    ln_inv = math.log(eps.denominator) - math.log(eps.numerator)
    budget = max(1, math.ceil(2 * d * ln_inv + 1e-9))
    q = field.q
    if q == 2:  # each candidate one packed int, its X^d bit set
        for _ in range(budget):
            cand = rng.bit_int(d) | 1 << d
            if _gf2_is_irreducible(cand, d):
                break
        return DensePoly(field, [(cand >> i) & 1 for i in range(d + 1)])
    for _ in range(budget):
        cand = random_monic(field, d, rng)
        if poly_list_is_irreducible(cand, q):
            break
    return DensePoly(field, cand)
