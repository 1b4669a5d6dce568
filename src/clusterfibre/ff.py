"""Finite fields of odd characteristic, represented absolutely over F_p.

A field of p^d elements is F_p[t]/(modulus) with a monic irreducible modulus
of degree d; elements are coordinate vectors of length d.  Every field object
has its own identity, and moving between fields always goes through an
explicit Embedding.  There is no implicit coercion anywhere: arithmetic
between elements of different field objects raises.

Elements and polynomials share one integer representation: an FFElem holds
its d power-basis coordinates, an FFPoly those of all its coefficients in
one flat tuple, each in [0, p), with no trailing zero coefficient.  An
element product is one convolution reduced by the modulus, mod p, and an
inverse solves the system whose columns are t^k * a; these helpers
(``_conv``, ``_theta_reduce``, ``_theta_multiples``) serve field.py too.
All polynomial division, and with it gcd, factorization and ``ff_extend``,
goes through one remainder kernel by a monic divisor, ``_divide``.

Polynomial products run on packed integers (Kronecker substitution, von zur
Gathen-Gerhard, *Modern Computer Algebra* 8.4): every coordinate of every
coefficient becomes one digit of a Python int, one int multiplication forms
the whole product, and the reduction of all coefficients mod (modulus, p) is
a handful of shifts, masks and multiplications by constants on that int
(``_Packing``).  ``FFPoly.pow_mod`` stays packed for its whole
square-and-multiply loop and takes remainders by Barrett reduction, with the
quotient of X^(2n-1) by the modulus computed once per call.

Irreducibility is Ben-Or's test (Ben-Or, "Probabilistic algorithms in
finite fields", FOCS 1981): f of degree n is irreducible exactly when
gcd(X^(q^i) - X, f) = 1 for i = 1 .. n/2.  It is the distinct-degree loop
of the factorization stopped at its first factor.  ``find_irreducible_over``
returns the first monic irreducible of a given degree in a fixed counting
order, and tests fewer candidates than it passes: it skips blocks of
candidates that hold no irreducible (p-th powers; binomials X^t + c_0 when
no such binomial is irreducible; for t = p, the X^p + c_1 X + c_0 for which
x -> x^p + c_1 x is a bijection), and, once enough tests in a block have
failed, sieves out the candidates with a root.  The result is that of
testing every candidate.

Factorization is squarefree decomposition, then distinct-degree splitting,
then Cantor-Zassenhaus equal-degree splitting.  The equal-degree step draws
random elements from a caller-supplied ``random.Random``, so results are
reproducible for a fixed seed (the returned factor list is sorted into a
canonical order regardless).
"""

from __future__ import annotations

import random
from itertools import zip_longest
from typing import Optional

from .errors import InputError, InternalInconsistency


def _conv(a, b):
    """The product of two nonempty integer coefficient sequences."""
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + nb] = [o + x * y for o, y in zip(out[i:i + nb], b)]
    return out


def _theta_reduce(row, mod):
    """The first m coordinates of the list ``row`` (a polynomial in theta)
    after reduction by the monic integer polynomial ``mod`` of degree m;
    ``row`` is consumed."""
    m = len(mod) - 1
    for i in range(len(row) - 1, m - 1, -1):
        c = row[i]
        if c:
            row[i - m:i] = [a - c * b for a, b in zip(row[i - m:i], mod)]
    return row[:m]


def _theta_multiples(rows, mod):
    """[rows, theta * rows, ..., theta^(m-1) * rows] for the flat
    coordinates ``rows``, m per coefficient, m = deg mod."""
    m = len(mod) - 1
    out = [list(rows)]
    for _ in range(1, m):
        prev = out[-1]
        out.append([c for lo in range(0, len(prev), m)
                    for c in _theta_reduce([0] + prev[lo:lo + m], mod)])
    return out


def _fmul(a, b, F):
    """The coordinates of the product of the elements of F with
    coordinates a and b."""
    p = F.p
    return [c % p for c in _theta_reduce(_conv(a, b), F.modulus)]


class FField:
    """F_{p^degree} as F_p[t]/(modulus); modulus is a tuple of d+1 ints."""

    _counter = 0

    def __init__(self, p: int, modulus):
        modulus = tuple(c % p for c in modulus)
        if not modulus or modulus[-1] != 1:
            raise InputError("modulus must be monic")
        self.p = p
        self.degree = len(modulus) - 1
        self.modulus = modulus
        FField._counter += 1
        self.uid = FField._counter
        self.zero = FFElem._of(self, (0,) * self.degree)
        self.one = FFElem._of(self, (1,) + (0,) * (self.degree - 1))
        self.gen = FFElem._of(self, tuple(1 if i == 1 else 0 for i in range(self.degree))) \
            if self.degree > 1 else FFElem._of(self, (-modulus[0] % p,))

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def elem(self, coords) -> "FFElem":
        coords = (coords,) if isinstance(coords, int) else tuple(coords)
        return FFElem(self, coords + (0,) * (self.degree - len(coords)))

    def __repr__(self):
        return f"GF({self.p}^{self.degree})#{self.uid}"


def prime_field(p: int) -> FField:
    return FField(p, (0, 1))


class FFElem:
    """An element of an FField: its power-basis coordinates, each in [0, p)."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        p = field.p
        self.field = field
        self.coords = tuple(c % p for c in coords)

    @classmethod
    def _of(cls, field, coords) -> "FFElem":
        """The element with coordinates ``coords``, each already in [0, p)."""
        a = cls.__new__(cls)
        a.field = field
        a.coords = tuple(coords)
        return a

    def _check(self, other):
        if not isinstance(other, FFElem) or other.field is not self.field:
            raise TypeError("mixed-field arithmetic; use an explicit Embedding")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElem._of(self.field, [(a + b) % p for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElem._of(self.field, [(a - b) % p for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        p = self.field.p
        return FFElem._of(self.field, [(-a) % p for a in self.coords])

    def __mul__(self, other):
        self._check(other)
        return FFElem._of(self.field, _fmul(self.coords, other.coords, self.field))

    def __pow__(self, n):
        F = self.field
        if n < 0:
            return self.inverse() ** (-n)
        result, base = F.one.coords, self.coords
        while n:
            if n & 1:
                result = _fmul(result, base, F)
            n >>= 1
            if n:
                base = _fmul(base, base, F)
        return FFElem._of(F, result)

    def inverse(self) -> "FFElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        F = self.field
        if F.degree == 1:
            return FFElem._of(F, (pow(self.coords[0], -1, F.p),))
        # y with a * y = 1: column k of the system is t^k * a
        cols = _theta_multiples(self.coords, F.modulus)
        y = _gauss_solve_mod_p(list(zip(*cols)), [1] + [0] * (F.degree - 1), F.p)
        return FFElem._of(F, y)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, FFElem) and other.field is self.field and other.coords == self.coords

    def __hash__(self):
        return hash((self.field.uid, self.coords))

    def __repr__(self):
        return f"ff({list(self.coords)})"


class Embedding:
    """Ring injection between explicit finite fields.

    ``matrix`` maps source coordinates to target coordinates (columns are the
    images of the source basis 1, t, t^2, ...).  Identity embeddings carry no
    matrix.
    """

    def __init__(self, src: FField, dst: FField, matrix=None):
        if matrix is None and dst is not src:
            raise TypeError("identity embedding with distinct fields")
        self.src = src
        self.dst = dst
        self.matrix = matrix  # list of dst-coordinate tuples, one per src basis vector

    def image(self, rows):
        """The flat target coordinates of the flat source coordinates
        ``rows``, src.degree of them per element."""
        if self.matrix is None:
            return rows
        p, d, out = self.dst.p, self.src.degree, []
        for lo in range(0, len(rows), d):
            acc = [0] * self.dst.degree
            for c, col in zip(rows[lo:lo + d], self.matrix):
                if c:
                    acc = [a + c * m for a, m in zip(acc, col)]
            out += [a % p for a in acc]
        return out

    def map_poly(self, f: "FFPoly") -> "FFPoly":
        if f.field is not self.src:
            raise TypeError("polynomial not over the embedding's source field")
        return FFPoly._of(self.dst, self.image(f.rows))

    @staticmethod
    def identity(F: FField) -> "Embedding":
        return Embedding(F, F, None)


def _repunit(count: int, width: int) -> int:
    """The int with a 1 at bits 0, width, 2*width, ... (count ones)."""
    return ((1 << (count * width)) - 1) // ((1 << width) - 1)


class _Packing:
    """Polynomials over one FField packed into Python ints.

    Coordinate u of the coefficient of X^i is the digit at i*S + u, with
    S = 2d - 1 digits of W bits per coefficient, so the product of two
    packed polynomials is one int multiplication and no t-power of a
    product coefficient reaches the next coefficient.  Packed values keep
    every digit nonnegative and never let one carry into the next; a packed
    polynomial is canonical when each coefficient has t-degree < d and
    digits 0 <= c < p.

    ``reduce`` makes a packed value canonical without unpacking it: Barrett
    division of every coefficient by the modulus (its quotient digits come
    from one multiplication by floor(t^(2d-1) / modulus)), then every digit
    mod p by multiplication with r = floor(2^k / p) + 1 and a shift, exact
    for digits below 2^k / p.  Its input may have up to ``blocks``
    coefficients of t-degree <= 2d - 2 with digits <= ``bound``; W leaves
    room for the growth of a digit in both steps.
    """

    def __init__(self, F: FField, bound: int, blocks: int):
        p, d = F.p, F.degree
        self.p, self.d, self.S = p, d, 2 * d - 1
        # largest digit the Barrett step can make from digits <= bound
        top = bound * (1 + d * (d - 1) * (p - 1) ** 2)
        self.k = top.bit_length() + p.bit_length()
        self.r = (1 << self.k) // p + 1
        self.w = ((top * self.r).bit_length() + 7) // 8
        W = self.W = 8 * self.w
        self.block_bits = self.S * W
        per_block = _repunit(blocks, self.block_bits)
        self.low_d = per_block * ((1 << (d * W)) - 1)
        self.low_d1 = per_block * ((1 << ((d - 1) * W)) - 1)
        self.quot_mask = _repunit(blocks * self.S, W) * ((1 << (W - self.k)) - 1)
        # floor(t^(2d-1) / modulus) mod p, and -modulus below t^d, as digits
        self.mu = self._digits(_divide([0] * (2 * d - 1) + [1], F.modulus, p, (0, 1))[0])
        self.neg_mod = self._digits([-c for c in F.modulus[:d]])

    def _digits(self, coords) -> int:
        return sum((c % self.p) << (u * self.W) for u, c in enumerate(coords))

    def pack(self, rows) -> int:
        """Flat coordinates, d per coefficient, each 0 <= c < p -> packed int."""
        w, d = self.w, self.d
        pad = bytes(w * (d - 1))
        return int.from_bytes(
            b"".join([b"".join([c.to_bytes(w, "little") for c in rows[lo:lo + d]]) + pad
                      for lo in range(0, len(rows), d)]), "little")

    def unpack(self, packed: int, blocks: int):
        """Canonical packed int of at most ``blocks`` coefficients -> flat
        coordinates, d per coefficient."""
        w, d = self.w, self.d
        raw = packed.to_bytes(blocks * self.S * w, "little")
        return [int.from_bytes(raw[o:o + w], "little")
                for i in range(0, len(raw), self.S * w) for o in range(i, i + d * w, w)]

    def reduce(self, packed: int) -> int:
        if self.d > 1:
            W, d = self.W, self.d
            high = (packed >> ((d - 1) * W)) & self.low_d
            quot = ((high * self.mu) >> (d * W)) & self.low_d1
            packed = (packed & self.low_d) + ((quot * self.neg_mod) & self.low_d)
        return packed - self.p * (((packed * self.r) >> self.k) & self.quot_mask)


def _divide(rows, g, p, mod):
    """Divide by the monic g over F_p[t]/(mod), both given by their flat
    coordinates, deg mod per coefficient: (q, r) with rows = q * g + r,
    deg r < deg g and digits in [0, p).  Consumes ``rows``.  Each quotient
    coefficient c removes c * g = sum_k c_k * t^k * g, with the t^k * g
    formed once; digits are reduced mod p only where they are read."""
    d = len(mod) - 1
    nd = len(g) - d
    nq = (len(rows) - nd) // d
    cols = [[c % p for c in col] for col in _theta_multiples(g[:nd], mod)]
    q = [0] * (nq * d)
    for lo in range((nq - 1) * d, -1, -d):
        top = q[lo:lo + d] = [c % p for c in rows[lo + nd:lo + nd + d]]
        for c, col in zip(top, cols):
            if c:
                rows[lo:lo + nd] = [a - c * b for a, b in zip(rows[lo:lo + nd], col)]
    return q, [c % p for c in rows[:nd]]


class FFPoly:
    """Polynomial over one FField.

    ``rows`` holds the coordinates of the coefficients, d per coefficient
    from the constant term up, each in [0, p), with no trailing zero
    coefficient, so the zero polynomial has no rows.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: FField, coeffs):
        self._set(field, [c for a in coeffs for c in a.coords])

    @classmethod
    def _of(cls, field: FField, rows) -> "FFPoly":
        """The polynomial with flat coordinates ``rows``, each in [0, p)."""
        f = cls.__new__(cls)
        f._set(field, rows)
        return f

    def _set(self, field, rows):
        d = field.degree
        end = len(rows)
        while end and not any(rows[end - d:end]):
            end -= d
        self.field = field
        self.rows = tuple(rows[:end])

    @staticmethod
    def from_ints(field, ints) -> "FFPoly":
        return FFPoly(field, [field.elem(i) for i in ints])

    @staticmethod
    def x(field) -> "FFPoly":
        return FFPoly(field, [field.zero, field.one])

    @staticmethod
    def const(field, c: FFElem) -> "FFPoly":
        return FFPoly(field, [c])

    @property
    def coeffs(self) -> tuple:
        return tuple(self[i] for i in range(len(self.rows) // self.field.degree))

    @property
    def degree(self) -> int:
        return len(self.rows) // self.field.degree - 1

    def is_zero(self) -> bool:
        return not self.rows

    def __getitem__(self, i) -> FFElem:
        d = self.field.degree
        if 0 <= i < len(self.rows) // d:
            return FFElem._of(self.field, self.rows[i * d:i * d + d])
        return self.field.zero

    def lead(self) -> FFElem:
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def is_monic(self) -> bool:
        rows, d = self.rows, self.field.degree
        return bool(rows) and rows[-d] == 1 and not any(rows[len(rows) - d + 1:])

    def __eq__(self, other):
        return (isinstance(other, FFPoly) and other.field is self.field
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field.uid, self.rows))

    def _check(self, other) -> FField:
        if other.field is not self.field:
            raise TypeError("mixed-field arithmetic; use an explicit Embedding")
        return self.field

    def __add__(self, other):
        F = self._check(other)
        p = F.p
        return FFPoly._of(F, [(a + b) % p for a, b in zip_longest(self.rows, other.rows,
                                                                  fillvalue=0)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        p = self.field.p
        return FFPoly._of(self.field, [-c % p for c in self.rows])

    def __mul__(self, other):
        F = self._check(other)
        if not self.rows or not other.rows:
            return FFPoly._of(F, ())
        d = F.degree
        la, lb = len(self.rows) // d, len(other.rows) // d
        pk = _Packing(F, min(la, lb) * d * (F.p - 1) ** 2, la + lb - 1)
        prod = pk.pack(self.rows) * pk.pack(other.rows)
        return FFPoly._of(F, pk.unpack(pk.reduce(prod), la + lb - 1))

    def scale(self, c: FFElem) -> "FFPoly":
        F, d = self.field, self.field.degree
        rows, cs = self.rows, c.coords
        return FFPoly._of(F, [x for lo in range(0, len(rows), d)
                              for x in _fmul(rows[lo:lo + d], cs, F)])

    def shift(self, k: int) -> "FFPoly":
        """Multiply by X^k, k >= 0."""
        if self.is_zero():
            return self
        return FFPoly._of(self.field, (0,) * (k * self.field.degree) + self.rows)

    def divmod(self, other):
        F = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.rows) < len(other.rows):
            return FFPoly._of(F, ()), self
        inv = None if other.is_monic() else other.lead().inverse()
        g = other if inv is None else other.scale(inv)
        q, r = _divide(list(self.rows), g.rows, F.p, F.modulus)
        q = FFPoly._of(F, q)
        return (q if inv is None else q.scale(inv)), FFPoly._of(F, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "FFPoly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.lead().inverse())

    def gcd(self, other) -> "FFPoly":
        # every divisor is monic, so no division inverts a lead
        a, b = self, other.monic()
        while b.rows:
            a, b = b, (a % b).monic()
        return a.monic()

    def derivative(self) -> "FFPoly":
        F = self.field
        d, p = F.degree, F.p
        return FFPoly._of(F, [(j // d) * c % p for j, c in enumerate(self.rows)][d:])

    def evaluate(self, x: FFElem) -> FFElem:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, n: int, modulus: "FFPoly") -> "FFPoly":
        """self^n mod modulus, for n >= 0."""
        F = self.field
        if n < 0:
            raise InputError("negative exponent")
        if n == 0:
            return FFPoly.const(F, F.one)
        f = modulus.monic()
        base = self % f
        if base.is_zero():
            return base
        # Barrett reduction by f: every operand has fewer than m = deg f
        # coefficients, a product fewer than 2m - 1, and its quotient by f is
        # floor(floor(product / X^(m-1)) * mu / X^m) with mu = X^(2m-1) // f
        m, p, d = f.degree, F.p, F.degree
        pk = _Packing(F, (m + 1) * d * (p - 1) ** 2, 2 * m)
        bits = pk.block_bits
        neg_f = pk.pack([-c % p for c in f.rows[:m * d]])
        low = (1 << (m * bits)) - 1
        mu = pk.pack(_divide([0] * ((2 * m - 1) * d) + list(F.one.coords), f.rows, p, F.modulus)[0])

        def mul_mod(a, b):
            prod = pk.reduce(a * b)
            quot = pk.reduce(((prod >> ((m - 1) * bits)) * mu) >> (m * bits))
            return pk.reduce((prod & low) + ((quot * neg_f) & low))

        b = pk.pack(base.rows)
        result = b
        for bit in bin(n)[3:]:
            result = mul_mod(result, result)
            if bit == "1":
                result = mul_mod(result, b)
        return FFPoly._of(F, pk.unpack(result, m))

    def compose_frobenius_root(self) -> "FFPoly":
        """Given f = g(X^p) return g with p-th roots taken on coefficients."""
        F = self.field
        root_exp = F.order // F.p
        return FFPoly(F, [self[i] ** root_exp for i in range(0, self.degree + 1, F.p)])

    def key(self):
        return (self.degree + 1,) + self.rows

    def __repr__(self):
        return f"FFPoly({[list(c.coords) for c in self.coeffs]})"


def squarefree_decomposition(f: FFPoly):
    """List of (g_i, multiplicity) with f = lead * prod g_i^m_i, g_i squarefree monic."""
    F = f.field
    parts = []
    f = f.monic()

    def rec(g, mult):
        if g.degree <= 0:
            return
        dg = g.derivative()
        if dg.is_zero():
            rec(g.compose_frobenius_root(), mult * F.p)
            return
        c = g.gcd(dg)
        w = g // c
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            z = w // y
            if z.degree > 0:
                parts.append((z, mult * i))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            # leftover collects the factors with multiplicity divisible by p,
            # so it is a polynomial in X^p; strip one Frobenius layer
            rec(c.compose_frobenius_root(), mult * F.p)

    rec(f, 1)
    return parts


def _distinct_degree(f: FFPoly):
    """f squarefree monic -> (product of the degree-d factors, d) for each d
    that has one, d increasing.  For any monic f, the first d is deg f
    exactly when f is irreducible."""
    F = f.field
    x = FFPoly.x(F)
    h = x % f
    d = 0
    rest = f
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            yield rest, rest.degree
            return
        h = h.pow_mod(F.order, f)
        g = rest.gcd(h - x)
        if g.degree > 0:
            yield g, d
            rest = rest // g


def _equal_degree_split(f: FFPoly, d: int, rng: random.Random):
    """Split a squarefree monic product of degree-d irreducibles (odd char)."""
    F = f.field
    if f.degree == d:
        return [f]
    exponent = (F.order ** d - 1) // 2
    while True:
        a = FFPoly._of(F, [rng.randrange(F.p) for _ in range(f.degree * F.degree)])
        if a.degree < 1:
            continue
        g = f.gcd(a)
        if 0 < g.degree < f.degree:
            pass
        else:
            b = a.pow_mod(exponent, f) - FFPoly.const(F, F.one)
            g = f.gcd(b)
            if not (0 < g.degree < f.degree):
                continue
        return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def ff_factor(f: FFPoly, rng: Optional[random.Random] = None):
    """Factor a nonzero polynomial into monic irreducibles with multiplicities.

    Returns a canonically sorted list of (factor, multiplicity); the product
    of the factors (to their multiplicities), times lead(f), rebuilds f.
    """
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    if rng is None:
        rng = random.Random(0)
    factors = []
    for g, mult in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            for irr in _equal_degree_split(h, d, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: fm[0].key())
    return factors


def is_irreducible(f: FFPoly) -> bool:
    """Ben-Or test: the distinct-degree loop stopped at its first factor."""
    if f.degree < 1:
        return False
    f = f.monic()
    return next(_distinct_degree(f))[1] == f.degree


def find_irreducible_over(k: FField, t: int) -> FFPoly:
    """Smallest (in a fixed counting order) monic irreducible of degree t over k.

    Candidates X^t + c_{t-1} X^{t-1} + ... + c_0 are counted by code =
    sum_i n(c_i) q^i, q = |k|, so c_0 varies fastest; an element of k with
    coordinates (a_0, ..., a_{d-1}) over F_p has number n = sum_u a_u p^u.
    The order must not change: the field built from the result defines
    theta, and geometric-mode output prints centres in theta coordinates.

    The candidates come in blocks of q, one block per tail
    g = X^t + c_{t-1} X^{t-1} + ... + c_1 X, and these rules skip candidates
    that cannot be irreducible, so the result is the first candidate that
    passes Ben-Or's test, as if every one were tested.  Three skip a block:

      * p | t and g' = 0: every g + c_0 is a polynomial in X^p, a p-th power;
      * g = X^t: some X^t - a is irreducible exactly when every prime r | t
        divides q - 1, and q = 1 mod 4 when 4 | t (Lidl-Niederreiter,
        *Finite Fields*, Thm 3.75; a a generator of k^*);
      * t = p and g = X^p + c_1 X with (-c_1)^((q-1)/(p-1)) != 1, that is,
        -c_1 is not a (p-1)-th power in k^*: the F_p-linear map
        x -> x^p + c_1 x has no kernel, so it is onto and every g + c_0 has
        a root.

    And within a block:

      * for t >= 2, g + c_0 has a root, hence a linear factor, when
        c_0 = -g(a) for some a in k.  Evaluating g on all of k costs about
        as much as q / (t log2 q) Ben-Or tests, so it is done once that many
        tests have failed in the block (a ski-rental rule), and those c_0
        are skipped for the rest of it.  A block that finds its polynomial
        after a few tests never pays for the sieve.
    """
    p, d, q = k.p, k.degree, k.order
    price = t * (q - 1).bit_length()  # t * ceil(log2 q) tests buy the sieve
    for code in range(q ** (t - 1)):
        tail = _coordinates(code, p, (t - 1) * d) + list(k.one.coords)
        if _barren(k, t, code, tail):
            continue
        rejected, rooted = 0, ()
        for c0 in range(q):
            if c0 in rooted:
                continue
            cand = FFPoly._of(k, _coordinates(c0, p, d) + tail)
            if is_irreducible(cand):
                return cand
            rejected += 1
            if not rooted and rejected * price >= q:
                rooted = _rooted_constants(k, tail)
    raise InternalInconsistency("no irreducible polynomial found")  # unreachable


def _barren(k: FField, t: int, code: int, tail) -> bool:
    """Whether a block rule of ``find_irreducible_over`` skips block ``code``,
    whose ``tail`` holds the flat coordinates of the coefficients of X .. X^t."""
    p, d, q = k.p, k.degree, k.order
    if t % p == 0 and not any(c for i in range(1, t) if i % p
                              for c in tail[(i - 1) * d:i * d]):
        return True  # g' = 0
    if code == 0:
        return not _has_irreducible_binomial(q, t)
    # x -> x^p + c_1 x is a bijection of k
    return t == p and code < q and (-k.elem(tail[:d])) ** ((q - 1) // (p - 1)) != k.one


def _has_irreducible_binomial(q: int, t: int) -> bool:
    """Whether some X^t + c_0 over GF(q) is irreducible: every prime factor
    of t divides q - 1, so t | (q - 1)^t, and q = 1 mod 4 when 4 | t."""
    return pow(q - 1, t, t) == 0 and (t % 4 != 0 or q % 4 == 1)


def _coordinates(n: int, p: int, count: int):
    """The first ``count`` base-p digits of n, least significant first."""
    out = []
    for _ in range(count):
        n, digit = divmod(n, p)
        out.append(digit)
    return out


def _rooted_constants(k: FField, tail):
    """The numbers of the c_0 in k for which g + c_0 has a root in k and a
    degree t >= 2, so is reducible; ``tail`` holds the flat coordinates of
    the coefficients of X .. X^t of g, which has no constant term."""
    p, d = k.p, k.degree
    if len(tail) < 2 * d:
        return set()
    # Horner's rule on packed elements: acc * a + c has digits below
    # d (p - 1)^2 + p
    pk = _Packing(k, d * (p - 1) ** 2 + p - 1, 1)
    coeffs = [pk.pack(tail[lo:lo + d]) for lo in range(0, len(tail) - d, d)]
    one = pk.pack(k.one.coords)
    out = set()
    for n in range(k.order):
        a = pk.pack(_coordinates(n, p, d))
        acc = one
        for c in reversed(coeffs):
            acc = pk.reduce(acc * a + c)
        # -g(a) = -(acc * a), numbered as in find_irreducible_over
        out.add(sum(-c % p * p ** u for u, c in enumerate(pk.unpack(pk.reduce(acc * a), 1))))
    return out


def find_irreducible_int_poly(p: int, degree: int):
    """The monic integer polynomial of the given degree that reduces to
    ``find_irreducible_over(GF(p), degree)``, coefficients in [0, p)."""
    return find_irreducible_over(prime_field(p), degree).rows


def _gauss_solve_mod_p(rows, rhs, p):
    """Solve the square system M x = rhs over F_p, M given by its rows.
    Returns the solution as a list, or None when M is singular."""
    n = len(rhs)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        top = aug[c] = [(v * inv) % p for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], top)]
    return [row[n] for row in aug]


def ff_extend(F: FField, h: FFPoly):
    """Build the extension of F by a monic irreducible h.

    Returns ``(G, emb, root, basis)`` where G is an absolute field of degree
    [F:F_p] * deg h, emb : F -> G is a ring injection, h(root) = 0 after
    mapping h's coefficients through emb, and row k of ``basis`` writes the
    k-th power-basis element of G as sum_j emb(t_j) root^j, t_j in F: the
    coordinates of t_j sit at j*[F:F_p] onwards.  A degree-1 h gives G = F,
    the identity, and basis None.
    """
    if h.degree < 1 or not is_irreducible(h):
        raise InputError("modulus of a field extension must be irreducible")
    if h.degree == 1:
        root = -(h[0] * h[1].inverse())
        return F, Embedding.identity(F), root, None

    p, a, t = F.p, F.degree, h.degree
    n = a * t
    hm = h.monic()
    y = FFPoly.x(F)

    for c in range(p * a + 1):
        # candidate generator gamma = Y + c*theta_F in E = F[Y]/(h); the n
        # coordinates over F_p of a remainder mod h are its padded rows
        gamma = y + FFPoly.const(F, F.elem(c) * F.gen)
        powers = [FFPoly.const(F, F.one)]
        for _ in range(n):
            powers.append(powers[-1] * gamma % hm)
        rows = [v.rows + (0,) * (n - len(v.rows)) for v in powers]
        # minimal polynomial: the dependence of gamma^n on 1, ..., gamma^(n-1),
        # which is unique exactly when gamma generates E over F_p; a gamma in
        # a proper subfield leaves the n x n power matrix singular
        power_cols = [tuple(col) for col in zip(*rows[:n])]
        sol = _gauss_solve_mod_p(power_cols, [(-x) % p for x in rows[n]], p)
        if sol is None:
            continue
        modulus = tuple(sol) + (1,)
        G = FField(p, modulus)

        def to_G(u):
            # coordinates w.r.t. the gamma-powers
            x = _gauss_solve_mod_p(power_cols, list(u.rows) + [0] * (n - len(u.rows)), p)
            if x is None:
                raise InternalInconsistency("powers of the extension generator are not a basis")
            return FFElem._of(G, x)

        emb_cols = [to_G(FFPoly.const(F, F.gen ** j)).coords for j in range(a)]
        emb = Embedding(F, G, emb_cols)
        root = to_G(y)
        # sanity: root satisfies the mapped modulus
        mapped = emb.map_poly(hm)
        if not mapped.evaluate(root).is_zero():
            raise InternalInconsistency("extension construction failed root check")
        return G, emb, root, rows[:n]
    raise InternalInconsistency("no primitive generator found")  # unreachable for finite fields
