"""The p-adic coefficient field, its residue field, and polynomials over it.

The base field is the unramified extension K = Q_p(theta) of degree m, with
theta a root of a monic integer polynomial whose reduction mod p is
irreducible.  Elements are restricted to the number field Q(theta) sitting
inside K, so all arithmetic is exact; completions are never approximated.

A polynomial holds the integer power-basis coordinates (1, theta, ...,
theta^(m-1)) of all its coefficients in one flat tuple over one positive
denominator, in lowest terms.  An element of K is a constant polynomial:
m coordinates, or none for zero.  Products are reduced by the monic integer
defining polynomial, so the arithmetic forms no Fraction.  Values enter
through ``BaseField.elem`` and ``poly`` as ints or Fractions, read off
their numerators and denominators; Fractions appear only in valuations.
The valuation has val(p) = 1.  The power basis reduces to the basis of
the residue field that FField uses, so a valuation is that of the content
(gcd of the coordinates over the denominator), and a reduction takes each
coordinate mod p.

Division and phi-adic expansion are one kernel, ``_zexpand``: all the
divisions of an expansion in one in-place pass over the flat coordinates,
each coefficient built in lowest terms directly; a division is its
one-step case.  Its divisor is monic with integer coordinates, as every
key polynomial is, so every piece keeps the one denominator of f.  Over Q_p
(m = 1) its step is scalar: one integer per quotient coefficient, and by a
linear centre synthetic division.  Over Q_p a product is one int product
(Kronecker substitution, ``_kronecker``).  Inside an ``expansion_scope``
call each (polynomial, phi) pair is expanded once, and each polynomial's
discriminant valuation taken once; the same memo holds the reductions of
``newton.reduce_poly``, one per (chain, polynomial, upto), and is dropped
when the outermost scoped call returns.  A caller may ask ``phi_expand``
for only the first ``upto`` coefficients: the memo entry then keeps the
coefficients so far and the pending quotient q, f = sum_i a_i phi^i +
q phi^k, and a later request for more resumes the kernel from q, so no
part of f is divided twice.  Expanding in x divides nothing: a field's x
is one object, and its expansion is the coefficient list.

Separability is certified modulo word-size primes: ``KPoly.is_separable``
maps f to F_q[X] (theta to a root of gen_minpoly mod q) and asks whether
gcd(f, f') = 1 there, through the residue layer's remainder kernel.  Only
an f that no prime certifies, every inseparable f among them, pays for the
exact discriminant.  The resultant, and with it the discriminant, is one
subresultant kernel, ``_zresultant``, on the integer numerators:
pseudo-remainders followed by exact divisions in Z[theta], which keep the
coefficients from growing (Collins 1967, Brown-Traub 1971).  The
denominators come out once at the end.
"""

from __future__ import annotations

import contextvars
import functools
import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from .errors import InputError, InternalInconsistency
from .ff import (FField, FFPoly, prime_field, is_irreducible,
                 find_irreducible_int_poly, find_irreducible_over,
                 _conv, _equal_degree_split, _theta_reduce, _theta_multiples)
from .rationals import OO, ratio_str


# Memo of the innermost open expansion scope: (id(poly), id(phi)) ->
# (poly, phi, coefficients, pending quotient or None when complete),
# (id(f), None) -> (f, None, v(disc f)), and (id(v), id(f), upto) ->
# (v, f, reduction) for newton.reduce_poly.
# Holding the objects keeps their ids from being reused while the scope is
# open.  A ContextVar keeps each thread's and each task's scope its own.
_EXPANSIONS = contextvars.ContextVar("clusterfibre_expansions", default=None)


def expansion_scope(fn):
    """Decorator: phi-adic expansions, discriminant valuations and
    reductions made during a call of ``fn`` are memoized and dropped when
    it returns or raises.  A call made inside an open scope shares the
    outer memo."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _EXPANSIONS.get() is not None:
            return fn(*args, **kwargs)
        token = _EXPANSIONS.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _EXPANSIONS.reset(token)
    return scoped


def vp_int(n: int, p: int) -> int:
    """The exponent of p in n != 0, in O(log v) divisions: divide by
    p, p^2, p^4, ... while they divide, then by the same powers downwards."""
    if n == 0:
        raise InputError("valuation of integer 0")
    if n % p:
        return 0
    n //= p
    v = 1
    powers = []  # powers[k] = p^(2^k), each of which has divided n
    q = p
    while n % q == 0:
        n //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    # what is left of v is below 2^len(powers): take its binary digits
    while powers:
        q = powers.pop()
        if n % q == 0:
            n //= q
            v += 1 << len(powers)
    return v


# Integer coordinates: m power-basis coordinates per coefficient of
# Q(theta), over one denominator.

def _normal(nums, den):
    """nums / den in lowest terms with a positive denominator."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


def _plus(a, da, b, db, sign):
    """a / da + sign * b / db, as (coordinates, denominator)."""
    if da == db:
        den = da
    else:
        den = lcm(da, db)
        a = [x * (den // da) for x in a]
        b = [y * (den // db) for y in b]
    return [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)], den


def _kronecker(a, b):
    """The product of two integer coefficient sequences, neither all zero,
    as one int product (Kronecker substitution, as in ff._Packing): each
    sequence is read as its polynomial at 2^w, with w one bit more than the
    largest product coefficient needs, so the product's coefficients are its
    signed base-2^w digits and none carries into the next.

    w is rounded up to whole bytes and every digit biased by half = 2^(w-1)
    into [0, 2^w), so the sequences are packed from bytes and the product
    read back through one ``to_bytes``: linear in its size."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    wb = (bound.bit_length() + 8) // 8
    half = 1 << (8 * wb - 1)
    unit = bytes(wb - 1) + b"\x80"  # half as one little-endian digit
    n = len(a) + len(b) - 1
    raw = (_packed(a, wb, half, unit) * _packed(b, wb, half, unit)
           + int.from_bytes(unit * n, "little")).to_bytes(n * wb, "little")
    return [int.from_bytes(raw[i:i + wb], "little") - half for i in range(0, n * wb, wb)]


def _packed(cs, wb, half, unit):
    """sum_i c_i 2^(8 wb i), read from the digits c_i + half."""
    return (int.from_bytes(b"".join([(c + half).to_bytes(wb, "little") for c in cs]), "little")
            - int.from_bytes(unit * len(cs), "little"))


def _content_val(nums, den, p):
    """The least valuation of the coordinates nums / den; OO if all are 0."""
    g = gcd(*nums)
    if not g:
        return OO
    return vp_int(g, p) - (vp_int(den, p) if den != 1 else 0)


def _residues(nums, den, p, shift=0):
    """The coordinates of p^(-shift) * nums / den mod p.  Raises
    InputError when one of them has negative valuation."""
    e = vp_int(den, p) if den != 1 else 0
    inv = pow(den // p ** e, -1, p)
    e += shift
    if e < 0:
        return (0,) * len(nums)
    q = p ** e
    if any(n % q for n in nums):
        raise InputError("cannot reduce an element of negative valuation")
    return tuple(n // q * inv % p for n in nums)


def _zsolve(cols, *rhs):
    """(ys, d) with sum_k y[k] * cols[k] = d * b, d != 0, for each right-hand
    side b and its y in ys, of the square integer system with columns
    ``cols``; None if it is singular.  Fraction-free (Bareiss) Gauss-Jordan
    elimination, after which every diagonal entry is d = +-det."""
    n = len(cols)
    a = [[col[i] for col in cols] + [b[i] for b in rhs] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        pk = top[k]
        for i in range(n):
            if i != k:
                c = a[i][k]
                a[i] = [(pk * x - c * y) // prev for x, y in zip(a[i], top)]
        prev = pk
    return [[row[n + j] for row in a] for j in range(len(rhs))], prev


# Division and phi-adic expansion: one kernel, _zexpand.

def _zexpand(f, phi, limit=None):
    """[a_0, ..., a_(k-1), q] with f = a_0 + a_1 phi + ... + a_(k-1)
    phi^(k-1) + q phi^k and deg a_i < deg phi, for the monic ``phi`` with
    integer coordinates: k divisions, as many as f takes, so that q is the
    top coefficient of the phi-adic expansion, or ``limit`` if fewer.

    One in-place pass over the flat coordinates of f: dividing the tail
    rows[lo:] by phi leaves the remainder in its first deg phi coefficients
    and the quotient above them, and the quotient is the tail of the next
    division.  A step reads the top coefficient c of what is left of the
    tail, subtracts c * phi and writes only below it, so the tops stay in
    place as the quotient.  No step divides, so every piece is over the
    denominator of f.  Over Q_p (m = 1) a quotient coefficient is one
    integer.  By a linear phi = X + g_0 a step is one update per
    coefficient, c <- r - g_0 c; for m > 1 coordinate j of g_0 c is one dot
    product of c with row j of the transposed table of theta^i g_0.
    """
    K = f.field
    m, d = K.m, phi.degree
    dm = d * m
    rows, den, n = list(f.rows), f.den, len(f.rows)
    if m > 1:
        cols = _theta_multiples(phi.rows[:dm], K.gen_minpoly)
        if d == 1:
            table = list(zip(*cols))
    else:
        g = phi.rows[:d]
    k = lo0 = 0  # divisions made, and the start of the tail
    while n - lo0 > dm and k != limit:
        if m > 1 and d == 1:
            c = rows[n - m:n]
            for lo in range(n - 2 * m, lo0 - 1, -m):
                c = rows[lo:lo + m] = [r - sum(map(mul, c, t))
                                       for r, t in zip(rows[lo:lo + m], table)]
        elif m > 1:
            for lo in range(n - dm - m, lo0 - 1, -m):
                for c, col in zip(rows[lo + dm:lo + dm + m], cols):
                    if c:
                        rows[lo:lo + dm] = [a - c * b for a, b in zip(rows[lo:lo + dm], col)]
        elif d == 1:
            g0, c = g[0], rows[n - 1]
            for lo in range(n - 2, lo0 - 1, -1):
                c = rows[lo] = rows[lo] - c * g0
        else:
            for lo in range(n - d - 1, lo0 - 1, -1):
                c = rows[lo + d]
                if c:
                    rows[lo:lo + d] = [a - c * b for a, b in zip(rows[lo:lo + d], g)]
        k += 1
        lo0 += dm
    # each piece rows[lo:hi] / den becomes a KPoly in lowest terms here; a
    # zero piece has gcd den, so it comes out as () over 1
    new, out = KPoly.__new__, []
    if lo0 == n - 1 and dm == 1:
        # every piece is one integer: one gcd takes it to lowest terms
        for c in rows:
            e = gcd(c, den)
            a = new(KPoly)
            a.field, a.rows, a.den, a._gauss = K, (c // e,) if c else (), den // e, None
            out.append(a)
        return out
    for j in range(k + 1):
        lo = j * dm
        hi = n if j == k else lo + dm
        while hi > lo and not any(rows[hi - m:hi]):
            hi -= m
        nums = rows[lo:hi]
        e = gcd(den, *nums)
        if e != 1:
            nums = [c // e for c in nums]
        a = new(KPoly)
        a.field, a.rows, a.den, a._gauss = K, tuple(nums), den // e, None
        out.append(a)
    return out


def _split_pending(pieces, phi):
    """(coefficients, q) from the pieces [a_0, ..., q] that ``_zexpand``
    returns: q is None when it is the top coefficient, deg q < deg phi."""
    if len(pieces[-1].rows) < len(phi.rows):
        return tuple(pieces), None
    return tuple(pieces[:-1]), pieces[-1]


def _zinverse(nums, mod):
    """(y, d) with nums * y = d, d a nonzero integer, for the nonzero
    element of Z[theta] with coordinates ``nums``: the Bareiss solution of
    the system whose column k is theta^k * nums."""
    (y,), d = _zsolve(_theta_multiples(nums, mod), [1] + [0] * (len(mod) - 2))
    return y, d


# The resultant.  Polynomials over Z[theta] are flat coordinate lists, m per
# coefficient; an element is the list of its m coordinates.

def _zscale(rows, c, mod):
    """The flat ``rows`` with every coefficient multiplied by the element c."""
    m = len(c)
    if m == 1:
        c = c[0]
        return [c * a for a in rows]
    return [x for lo in range(0, len(rows), m)
            for x in _theta_reduce(_conv(c, rows[lo:lo + m]), mod)]


def _zdivide_exactly(rows, c, mod):
    """The flat ``rows`` with every coefficient divided by the element c,
    which must divide each of them in Z[theta]: a multiplication by the
    Bareiss inverse c * y = d, then an integer division of every coordinate
    by d.  A remainder is a broken law of the subresultant PRS and raises
    InternalInconsistency; nothing is rounded."""
    y, d = _zinverse(c, mod)
    if len(c) > 1:
        rows = _zscale(rows, y, mod)
    out = []
    for a in rows:
        q, r = divmod(a, d)
        if r:
            raise InternalInconsistency("subresultant division is not exact")
        out.append(q)
    return out


def _zpower(c, n, mod):
    """The element c ** n, n >= 0."""
    out = [1] + [0] * (len(c) - 1)
    for _ in range(n):
        out = _zscale(out, c, mod)
    return out


def _zprem(a, b, mod):
    """The pseudo-remainder lead(b)^(deg a - deg b + 1) * a mod b of the
    flat polynomials a and b, deg a >= deg b >= 1: each step multiplies by
    lead(b) and cancels the top coefficient with a multiple of b."""
    m = len(mod) - 1
    lead, low = b[-m:], b[:-m]
    r = a
    for _ in range((len(a) - len(b)) // m + 1):
        top = r[-m:]
        r = _zscale(r[:-m], lead, mod)
        if any(top):
            lo = len(r) - len(low)
            r[lo:] = [x - y for x, y in zip(r[lo:], _zscale(low, top, mod))]
    while r and not any(r[-m:]):
        del r[-m:]
    return r


def _zresultant(a, b, mod):
    """The coordinates of res(a, b) for nonzero flat polynomials a and b
    over Z[theta], theta a root of the monic ``mod``.

    Subresultant PRS (Collins, J. ACM 1967; Brown-Traub, J. ACM 1971; the
    sign and the degree drops as in Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 3.3.7): each pseudo-remainder is
    divided exactly by g * h^delta, where g is the lead of the last divisor
    and h tracks the leads of the subresultants, h <- g^delta / h^(delta-1).
    """
    m = len(mod) - 1
    one = [1] + [0] * (m - 1)
    da, db = len(a) // m - 1, len(b) // m - 1
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            sign = -1
    g = h = one
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _zprem(a, b, mod)
        if not r:
            return [0] * m
        a, da = b, db
        b = _zdivide_exactly(r, _zscale(g, _zpower(h, delta, mod), mod), mod)
        db = len(b) // m - 1
        g = a[-m:]
        if delta:
            h = _zdivide_exactly(_zpower(g, delta, mod), _zpower(h, delta - 1, mod), mod)
    # b is a nonzero constant: res = lead(b)^da / h^(da - 1)
    out = _zpower(b, da, mod)
    if da > 1:
        out = _zdivide_exactly(out, _zpower(h, da - 1, mod), mod)
    return out if sign > 0 else [-x for x in out]


# Every composite below PRIME_BOUND fails the strong probable-prime test to
# a prime base up to 41 (Sorenson and Webster, Math. Comp. 2017); the bases
# up to 37 alone pass the composite 318665857834031151167461.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The largest m for which BaseField searches its own defining polynomial
# (Ben-Or tests on candidates of degree m), and the largest residue degree
# geometric mode extends the base field to.
MAX_UNRAMIFIED_DEGREE = 64


class BaseField:
    """Unramified p-adic base field with exact Q(theta) coefficients."""

    def __init__(self, p: int, m: int = 1, gen_minpoly=None):
        if p >= PRIME_BOUND:
            raise InputError(f"residue characteristic must be below {PRIME_BOUND}")
        if p < 3 or not _is_prime(p):
            raise InputError("residue characteristic must be an odd prime")
        if m < 1:
            raise InputError("unramified degree must be at least 1")
        if gen_minpoly is None:
            if m > MAX_UNRAMIFIED_DEGREE:
                raise InputError(f"unramified degree must be at most {MAX_UNRAMIFIED_DEGREE}")
            gen_minpoly = find_irreducible_int_poly(p, m)
        gen_minpoly = tuple(int(c) for c in gen_minpoly)
        if len(gen_minpoly) != m + 1 or gen_minpoly[-1] != 1:
            raise InputError("gen_minpoly must be monic of degree m")
        self.p = p
        self.m = m
        self.gen_minpoly = gen_minpoly
        if m == 1:
            self.residue_field = prime_field(p)
        else:
            red = FFPoly.from_ints(prime_field(p), gen_minpoly)
            if not is_irreducible(red):
                raise InputError("gen_minpoly reduction mod p must stay irreducible")
            self.residue_field = FField(p, gen_minpoly)
        self.zero = KPoly._of(self, (), 1)
        self.one = KPoly._of(self, (1,) + (0,) * (m - 1), 1)
        self._x = KPoly._of(self, (0,) * m + self.one.rows, 1)
        self._extensions = {}  # t -> extend_unramified(self, t)

    def elem(self, *coords) -> "KPoly":
        """The constant with the power-basis coordinates ``coords``, each an
        int or a Fraction."""
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        if len(coords) > self.m:
            raise InputError("too many coordinates")
        for c in coords:
            if not isinstance(c, (int, Fraction)):
                raise InputError(f"a coordinate must be an int or a Fraction, not {type(c).__name__}")
        den = lcm(*[c.denominator for c in coords])
        nums = [c.numerator * (den // c.denominator) for c in coords]
        return KPoly._of(self, nums + [0] * (self.m - len(coords)), den)

    @property
    def theta(self) -> "KPoly":
        return self.elem(0, 1) if self.m > 1 else self.zero

    def poly(self, coeffs) -> "KPoly":
        """Coefficients constant term first: ints, Fractions or constants of the field."""
        return KPoly(self, [c if isinstance(c, KPoly) else self.elem(c) for c in coeffs])

    def x(self) -> "KPoly":
        """The polynomial x, one object per field."""
        return self._x

    def __repr__(self):
        return f"Q_{self.p}" if self.m == 1 else f"Q_{self.p}(theta_deg{self.m})"


class KPoly:
    """Dense univariate polynomial over the base field.

    ``rows`` holds the integer coordinates of the coefficients, m per
    coefficient from the constant term up, over the positive denominator
    ``den``; in lowest terms, with no trailing zero coefficient, so the zero
    polynomial has no rows.  An element of the field is a constant KPoly.
    """

    __slots__ = ("field", "rows", "den", "_gauss")

    def __init__(self, field: BaseField, coeffs):
        """The polynomial with the constants ``coeffs`` of ``field`` as its
        coefficients, constant term first."""
        coeffs = list(coeffs)
        if not all(isinstance(c, KPoly) and c.field is field and c.degree < 1 for c in coeffs):
            raise InputError("a coefficient must be a constant of the field")
        den = lcm(*[c.den for c in coeffs])
        zero = (0,) * field.m
        self._set(field, [n * (den // c.den) for c in coeffs for n in c.rows or zero], den)

    @classmethod
    def _of(cls, field: BaseField, rows, den: int) -> "KPoly":
        """The polynomial with flat integer coordinates ``rows`` over ``den``."""
        f = cls.__new__(cls)
        f._set(field, rows, den)
        return f

    def _set(self, field, rows, den):
        m = field.m
        end = len(rows)
        while end and not any(rows[end - m:end]):
            end -= m
        self.field = field
        self.rows, self.den = _normal(rows[:end], den)
        self._gauss = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients, each built in lowest terms directly."""
        K, rows, den = self.field, self.rows, self.den
        m, new, out = K.m, KPoly.__new__, []
        for lo in range(0, len(rows), m):
            nums = rows[lo:lo + m]
            e = gcd(den, *nums)
            a = new(KPoly)
            a.field, a.den, a._gauss = K, den // e, None
            a.rows = (nums if e == 1 else tuple(c // e for c in nums)) if any(nums) else ()
            out.append(a)
        return tuple(out)

    @property
    def degree(self) -> int:
        return len(self.rows) // self.field.m - 1

    def is_zero(self) -> bool:
        return not self.rows

    def __getitem__(self, i) -> "KPoly":
        """Coefficient i, a constant."""
        m = self.field.m
        if 0 <= i < len(self.rows) // m:
            return KPoly._of(self.field, self.rows[i * m:i * m + m], self.den)
        return self.field.zero

    def lead(self) -> "KPoly":
        if self.is_zero():
            raise InputError("zero polynomial")
        return self[self.degree]

    def is_monic(self) -> bool:
        rows, m = self.rows, self.field.m
        return bool(rows) and rows[-m] == self.den and not any(rows[len(rows) - m + 1:])

    def __eq__(self, other):
        return (isinstance(other, KPoly) and other.field is self.field
                and other.rows == self.rows and other.den == self.den)

    def __hash__(self):
        return hash((self.rows, self.den))

    def __add__(self, other):
        return KPoly._of(self.field, *_plus(self.rows, self.den, other.rows, other.den, 1))

    def __sub__(self, other):
        return KPoly._of(self.field, *_plus(self.rows, self.den, other.rows, other.den, -1))

    def __neg__(self):
        return KPoly._of(self.field, [-n for n in self.rows], self.den)

    def __mul__(self, other):
        K = self.field
        if not self.rows or not other.rows:
            return KPoly._of(K, (), 1)
        m = K.m
        if m == 1:
            a, b = self.rows, other.rows
            if len(a) > len(b):
                a, b = b, a
            # a constant factor, as in the first step of a power and in
            # lift_key's products of constants, only scales the other
            rows = [a[0] * c for c in b] if len(a) == 1 else _kronecker(a, b)
        else:
            # a coefficient of the product has theta-degree up to 2m - 2:
            # spread each coefficient over w = 2m - 1 places, multiply once,
            # then reduce each coefficient of the product
            w, pad = 2 * m - 1, (0,) * (m - 1)

            def spread(r):
                return [c for lo in range(0, len(r), m) for c in r[lo:lo + m] + pad]

            prod = _conv(spread(self.rows), spread(other.rows))
            rows = [c for lo in range(0, len(prod) + 1 - w, w)
                    for c in _theta_reduce(prod[lo:lo + w], K.gen_minpoly)]
        return KPoly._of(K, rows, self.den * other.den)

    def __pow__(self, n: int) -> "KPoly":
        """self ** n for n >= 0, by repeated squaring."""
        if n < 0:
            raise InputError("negative power")
        result, x = self.field.one, self
        while n:
            if n & 1:
                result = result * x
            n >>= 1
            if n:
                x = x * x
        return result

    def divmod(self, other):
        """(q, r) with self = q * other + r, deg r < deg other, for a monic
        ``other`` with integer coordinates."""
        if not other.is_monic() or other.den != 1:
            raise InputError("divisor must be monic with integer coordinates")
        if len(self.rows) < len(other.rows):
            return self.field.zero, self
        r, q = _zexpand(self, other, 1)
        return q, r

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "KPoly":
        m, rows = self.field.m, self.rows
        return KPoly._of(self.field, [(k // m) * n for k, n in enumerate(rows)][m:], self.den)

    def subst_scaled_x(self, c_exp: int) -> "KPoly":
        """Return f(p^c * x)."""
        p, m = self.field.p, self.field.m
        # coefficient i gains p^(c i); for c < 0 the rows are multiplied
        # through by p^(-c deg f), and so is the denominator
        top = max(0, -c_exp * self.degree)
        rows = [n * p ** (c_exp * (j // m) + top) for j, n in enumerate(self.rows)]
        return KPoly._of(self.field, rows, self.den * p ** top)

    def gauss_val(self):
        """The Gauss valuation: the least valuation of a coefficient.

        Computed on the first call and kept: a KPoly never changes, so the
        fill is idempotent and the object stays safe to share."""
        if self._gauss is None:
            self._gauss = _content_val(self.rows, self.den, self.field.p)
        return self._gauss

    def residue(self, alpha: int = 0) -> FFPoly:
        """The reduction of p^(-alpha) * self to the residue field,
        coefficientwise; requires gauss_val() >= alpha."""
        return FFPoly._of(self.field.residue_field,
                          _residues(self.rows, self.den, self.field.p, alpha))

    def phi_expand(self, phi: "KPoly", upto=None) -> tuple:
        """Coefficients (a_0, a_1, ...) of the phi-adic expansion, deg a_i < deg phi,
        for a monic phi with integer coordinates: all of them, or only the
        first ``upto`` (all, when there are no more than that).

        Inside an ``expansion_scope`` the expansion is shared by every caller
        that expands the same objects, hence a tuple.  The memo entry of a
        partial expansion keeps the pending quotient q with self = sum_i a_i
        phi^i + q phi^k, and a later request for more coefficients divides
        only q, by as many steps as are missing.  In the field's own
        ``x()``, known by identity, the expansion is the coefficient list.
        """
        memo = _EXPANSIONS.get()
        hit = memo.get((id(self), id(phi))) if memo is not None else None
        if hit is not None:
            out, rest = hit[2], hit[3]
            if rest is None or (upto is not None and len(out) >= upto):
                return out if upto is None else out[:upto]
            missing = None if upto is None else upto - len(out)
            more, rest = _split_pending(_zexpand(rest, phi, missing), phi)
            out += more
        elif not phi.is_monic() or phi.degree < 1 or phi.den != 1:
            raise InputError("expansion base must be monic of positive degree "
                             "with integer coordinates")
        elif len(self.rows) < len(phi.rows):
            out, rest = (self,), None
        elif phi is self.field.x():
            out, rest = self.coeffs, None
        elif upto is None:
            out, rest = tuple(_zexpand(self, phi)), None
        else:
            out, rest = _split_pending(_zexpand(self, phi, upto), phi)
        if memo is not None:
            memo[(id(self), id(phi))] = (self, phi, out, rest)
        return out if upto is None else out[:upto]

    def is_separable(self) -> bool:
        """True when a word-size prime q certifies that self has no repeated
        root: gcd(F, F') = 1 in F_q[X] for the numerator F mapped to F_q, so
        res(F, F') is not 0 mod q (von zur Gathen-Gerhard, *Modern Computer
        Algebra*, 6.7).  False says only that no prime certified it.

        A prime q is skipped when it is p, divides the denominator or the
        image of the lead, or (m > 1) when gen_minpoly has no root mod q;
        otherwise theta maps to such a root, a ring map Z[theta] -> F_q.
        For m > 1 the ``_ROOT_PRIMES`` follow the certificate primes."""
        K = self.field
        m, rows = K.m, self.rows
        for q in _CERTIFICATE_PRIMES + (_ROOT_PRIMES if m > 1 else ()):
            if q == K.p or self.den % q == 0:
                continue
            Fq = prime_field(q)
            if m == 1:
                image = [c % q for c in rows]
            else:
                a = _theta_root(K.gen_minpoly, q)
                if a is None:
                    continue
                powers = [pow(a, k, q) for k in range(m)]
                image = [sum(c * w for c, w in zip(rows[lo:lo + m], powers)) % q
                         for lo in range(0, len(rows), m)]
            if image and image[-1]:
                fbar = FFPoly._of(Fq, image)
                if fbar.gcd(fbar.derivative()).degree == 0:
                    return True
        return False

    def resultant(self, other) -> "KPoly":
        """res(self, other), exactly.  With self = F / D and other = G / E,
        res(self, other) = res(F, G) / (D^deg other * E^deg self)."""
        K = self.field
        if self.is_zero() or other.is_zero():
            return K.zero
        nums = _zresultant(self.rows, other.rows, K.gen_minpoly)
        return KPoly._of(K, nums, self.den ** other.degree * other.den ** self.degree)

    def __repr__(self):
        m, den = self.field.m, self.den

        def coeff(lo):
            cs = [ratio_str(n, den) for n in self.rows[lo:lo + m]]
            if m == 1:
                return cs[0]
            terms = [f"{c}*th^{i}" if i else c for i, c in enumerate(cs) if c != "0"]
            return "(" + " + ".join(terms) + ")" if terms else "0"
        return "KPoly[" + ", ".join(coeff(lo) for lo in range(0, len(self.rows), m)) + "]"


# The primes of KPoly.is_separable: below 2^30, where a CPython int is one
# digit.  An input that none of them certifies pays for discriminant_val.
_CERTIFICATE_PRIMES = (1_000_000_007, 1_000_000_009, 998_244_353)
# Tried after those over a base of degree m > 1, whose theta needs a root
# of gen_minpoly mod q: the primes past 10^9 + 9, in increasing order, that
# give a root to a base that none before them did, until every base with
# m <= 64 and p in {3, 5, 7, 11} has one; (3, 10), (5, 8) and 17 more had
# none among the first three.
_ROOT_PRIMES = (1_000_000_021, 1_000_000_033, 1_000_000_093, 1_000_000_103, 1_000_000_123)


def _root_mod(g, F):
    """A root in the prime field F of the monic integer polynomial g, or
    None: one linear factor of gcd(X^q - X, g) mod q."""
    g = FFPoly.from_ints(F, g)
    x = FFPoly.x(F)
    linear = g.gcd(x.pow_mod(F.p, g) - x)
    if linear.degree < 1:
        return None
    return -_equal_degree_split(linear, 1, random.Random(0))[0].rows[0] % F.p


@functools.lru_cache(maxsize=256)
def _theta_root(gen_minpoly, q):
    """``_root_mod`` of gen_minpoly in F_q, once per process."""
    return _root_mod(gen_minpoly, prime_field(q))


def discriminant_val(f: KPoly):
    """Valuation of disc(f) = res(f, f') / lc(f), exactly.

    It raises InputError when the resultant is zero, i.e. when f has a
    repeated root.  The pipeline runs it only where the cheap certificate
    ``KPoly.is_separable`` fails, and where refinement goes deeper than
    deg f + 4, to bound the depth exactly; inside an ``expansion_scope``
    both read one value.
    """
    memo = _EXPANSIONS.get()
    hit = memo.get((id(f), None)) if memo is not None else None
    if hit is not None:
        return hit[2]
    r = f.resultant(f.derivative())
    if r.is_zero():
        raise InputError("polynomial has repeated roots")
    v = r.gauss_val() - f.lead().gauss_val()
    if memo is not None:
        memo[(id(f), None)] = (f, None, v)
    return v


def extend_unramified(K: BaseField, t: int):
    """Extend the base field so its residue degree is multiplied by t.

    Returns ``(K2, embed)`` where K2 is a BaseField of unramified degree
    m * t and embed maps the constants of K to those of K2 exactly (over
    Q).  The construction finds a global compositum Q(theta, eta) with eta
    a root of a lift of an irreducible residue polynomial, then a primitive
    element whose minimal polynomial stays irreducible mod p.  K keeps the
    pair: a later call with the same t returns it again.
    """
    if t <= 1:
        return K, lambda a: a
    if t in K._extensions:
        return K._extensions[t]
    p, m = K.p, K.m
    M = m * t

    # degree-t irreducible over the residue field, lifted to Z[theta][y]:
    # E = K[eta]/(h) holds the remainders mod h.  Powers of an integral
    # generator mod the monic integral h are integral (den 1), so their
    # flat coordinates are the columns of an integer system.
    h = KPoly._of(K, find_irreducible_over(K.residue_field, t).rows, 1)

    def flat(v):
        return list(v.rows) + [0] * (M - len(v.rows))

    for mult in range(1, p + 1):  # acceptance depends on mult mod p only
        gen = K.poly([K.elem(mult) * K.theta, 1]) if m > 1 else K.x()
        powers = [K.one]
        for _ in range(M):
            powers.append(powers[-1] * gen % h)
        cols = [flat(v) for v in powers[:M]]  # column j: the vector of gen^j
        # with d = +-det of the power matrix, p does not divide d exactly
        # when gen generates the residue field of E, so when its integral
        # minimal polynomial stays irreducible mod p (BaseField checks it)
        sol = _zsolve(cols, [-x for x in flat(powers[M])], flat(K.theta))
        if sol is None or sol[1] % p == 0:
            continue
        (lower, theta_coords), d = sol
        if any(c % d for c in lower):
            raise InternalInconsistency("integral generator with a non-integral minimal polynomial")
        K2 = BaseField(p, M, tuple(c // d for c in lower) + (1,))
        # the images of 1, theta, ..., theta^m as integer columns over one
        # denominator e, so an image is one integer combination of them
        theta_img, images = KPoly._of(K2, theta_coords, d), [K2.one]
        for _ in range(m):
            images.append(images[-1] * theta_img)
        e = lcm(*[v.den for v in images])
        img_cols = [[x * (e // v.den) for x in flat(v)] for v in images]

        def embed(a: KPoly, _cols=img_cols, _e=e, _K2=K2):
            out = [0] * M
            for n, col in zip(a.rows, _cols):
                out = [x + n * y for x, y in zip(out, col)]
            return KPoly._of(_K2, out, a.den * _e)

        # the image of theta must still satisfy the old defining polynomial
        if any(sum(c * col[j] for c, col in zip(K.gen_minpoly, img_cols)) for j in range(M)):
            raise InternalInconsistency("embedding failed minimal polynomial check")
        K._extensions[t] = K2, embed
        return K2, embed
    raise InternalInconsistency("no primitive element found for the compositum")
