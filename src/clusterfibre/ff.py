"""Finite fields of odd characteristic, represented absolutely over F_p.

A field of p^d elements is F_p[t]/(modulus) with a monic irreducible modulus
of degree d; an element has d coordinates over F_p.  Every field object
has its own identity, and moving between fields always goes through an
explicit ``Extension``, the step k -> k[Y]/(h) that ``ff_extend`` builds
and that maps both ways.  There is no implicit coercion anywhere: arithmetic
between elements of different field objects raises.

Elements and polynomials share one type: an element of a field is a
constant FFPoly.  An FFPoly holds the power-basis coordinates of all its
coefficients in one flat tuple, d per coefficient, each in [0, p), with no
trailing zero coefficient, so a nonzero constant has d coordinates and zero
has none.  A product of two constants is a convolution reduced by the
modulus, mod p (its helpers ``_conv``, ``_theta_reduce`` and
``_theta_multiples`` serve field.py too), over F_p one product and one
residue; over F_p a constant factor is one product per coefficient, and
over GF(p^d), d > 1, it takes the packed product below, as a power of a
constant takes its squarings on one packed element.  The inverse of a
constant is the extended Euclidean algorithm on coordinates mod p, O(d^2).

Polynomial products and remainders run on packed integers (Kronecker
substitution, von zur Gathen-Gerhard, *Modern Computer Algebra* 8.4): every
coordinate of every coefficient becomes one digit of a Python int, one int
multiplication forms the whole product, and the reduction of all
coefficients mod (modulus, p) is a handful of shifts, masks and
multiplications by constants on that int (``_Packing``, shared by every
operation over one field in one size class).  All polynomial division, gcd,
and with them factorization and ``ff_extend``, go through one remainder
kernel, ``_Packing.divide``: a step reads the top coefficient by a shift,
adds top * (P - b) * X^k, which is -top * b * X^k with nonnegative digits,
and makes the result canonical with one reduction.  Division by a monic
divisor collects the tops as the quotient; gcd is fraction-free,
lead(b) * a - top(a) * X^k * b at each step, with one inverse at the end for
the monic result.  Division packs even the smallest operands: the list
kernel it replaced was up to twice as fast there (3.2 against 6.5 us at
degree 2 over F_p), which came to under 1 % of a benchmark pass, whose
divisions are mostly that small.  Products modulo a polynomial f stay
packed and take remainders by Barrett reduction under one ``_Modulus`` per
f, which holds the quotient of X^(2n-1) by f, n = deg f, computed once by
the same kernel.

Irreducibility is Ben-Or's test (Ben-Or, "Probabilistic algorithms in
finite fields", FOCS 1981): f of degree n is irreducible exactly when
gcd(X^(q^i) - X, f) = 1 for i = 1 .. n/2.  It is the distinct-degree loop
of the factorization stopped at its first factor.  ``find_irreducible_over``
returns the first monic irreducible of a given degree in a fixed counting
order, and tests fewer candidates than it passes: it skips blocks of
candidates that hold no irreducible (p-th powers; binomials X^t + c_0 when
no such binomial is irreducible; for t = p, the X^p + c_1 X + c_0 for which
x -> x^p + c_1 x is a bijection, past which one echelon pass gives the
answer; the X^t + c_1 X + c_0 whose discriminants are non-squares, which
Stickelberger's parity theorem rules out), and, once enough tests in a block
have failed, sieves out the candidates with a root.  The result is that of
testing every candidate.

Factorization does only the work its input needs.  A linear input is its
own factor.  Over F_p with p <= ``_ROOT_SCAN_MAX_P`` the squarefree
decomposition takes the roots first, by evaluation at every point of F_p,
each stripped by repeated synthetic division, which counts its
multiplicity; a residual that splits into linear factors, as those of
inputs with rational roots do, needs nothing more.  Where the scan does not
run, a pure power (X - c)^n with p not dividing n, as most residuals over
GF(p^d) are, is found by comparing its coefficients with the binomial ones,
with no gcd.  Yun's algorithm takes the rest, then come distinct-degree
and equal-degree splitting.  The distinct-degree loop keeps X^(q^e) packed
under the ``_Modulus`` of what is left to split, and takes its Frobenius
steps in blocks of growing length, one gcd per block (the interval
partition of von zur Gathen-Shoup), refining a block only when its gcd is
not 1; Ben-Or's test keeps the plain loop, one gcd per step.  The
equal-degree step splits a product of degree-D factors by an absolute
trace T, which is in F_p modulo each factor: by gcd(g, T - c) over every c
in F_p for p up to ``_TRACE_CLASSES_MAX_P``, T that of gamma X for roots,
read off one Frobenius chain X^(p^i) mod f, and that of a random element
for D > 1; by Cantor-Zassenhaus (q^D - 1)/2-th powers above it.  It draws
from a caller-supplied ``random.Random``; the returned factor list is
sorted into a canonical order, so it does not depend on the draws.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import zip_longest
from math import isqrt
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
    coordinates a and b; over F_p (d = 1) one product and one residue."""
    p = F.p
    if F.degree == 1:
        return [a[0] * b[0] % p]
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
        self.zero = FFPoly._of(self, ())
        self.one = self.elem(1)
        self.gen = self.elem((0, 1) if self.degree > 1 else -modulus[0])

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def elem(self, coords) -> "FFPoly":
        """The constant with the power-basis coordinates ``coords`` (an int
        for the first alone), each taken mod p."""
        coords = (coords,) if isinstance(coords, int) else tuple(coords)
        if len(coords) > self.degree:
            raise InputError("more coordinates than the degree of the field")
        p = self.p
        return FFPoly._of(self, [c % p for c in coords] + [0] * (self.degree - len(coords)))

    def __repr__(self):
        return f"GF({self.p}^{self.degree})#{self.uid}"


def prime_field(p: int) -> FField:
    return FField(p, (0, 1))


class Extension:
    """One step src = k -> dst = G = k[Y]/(h) of a tower of finite fields.

    ``root`` is the image of Y in G, a root of h.  Entry j of ``matrix`` is
    the coordinate tuple in G of the power-basis element t^j of k, and row i
    of ``basis`` writes the i-th power-basis element of G as sum_j emb(c_j)
    root^j, the coordinates of c_j in k at j*[k:F_p] onwards.  A linear h
    gives dst is src, and no matrix and no basis.
    """

    __slots__ = ("src", "dst", "matrix", "root", "basis")

    def __init__(self, src: FField, dst: FField, matrix, root: "FFPoly", basis):
        self.src, self.dst, self.matrix, self.root, self.basis = src, dst, matrix, root, basis

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

    def evaluate(self, rows, shift: int = 0) -> list:
        """The coordinates in G of root^shift * g(root) for the nonzero g over
        k with flat coordinates ``rows``, trailing zero coefficients allowed,
        by Horner's rule on the mapped coordinates.  The root is zero when
        h = Y, and a zero constant has no rows, so its coordinates are
        padded."""
        G, root = self.dst, self.root
        rows = self.image(rows)
        d, p = G.degree, G.p
        if shift < 0 and root.is_zero():
            raise InternalInconsistency("negative power of a vanishing step generator")
        zero = (0,) * d
        r, acc = root.rows or zero, rows[-d:]
        for lo in range(len(rows) - 2 * d, -1, -d):
            acc = [(a + c) % p for a, c in zip(_fmul(acc, r, G), rows[lo:lo + d])]
        return _fmul(acc, (root ** shift).rows or zero, G) if shift else acc

    def over_src(self, c: "FFPoly") -> list:
        """The constants c_j of k with c = sum_j emb(c_j) root^j, j < [G:k],
        for c in G: the basis rows map the coordinates of c to theirs."""
        if self.basis is None:
            return [c]
        k = self.src
        p, d = k.p, k.degree
        flat = [0] * len(self.basis)
        for x, row in zip(c.rows, self.basis):
            if x:
                flat = [a + x * r for a, r in zip(flat, row)]
        return [FFPoly._of(k, [a % p for a in flat[lo:lo + d]])
                for lo in range(0, len(flat), d)]


def _repunit(count: int, width: int) -> int:
    """The int with a 1 at bits 0, width, 2*width, ... (count ones)."""
    return ((1 << (count * width)) - 1) // ((1 << width) - 1)


class _Packing:
    """Polynomials over F_p[t]/(modulus) packed into Python ints.

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

    def __init__(self, p: int, modulus, bound: int, blocks: int):
        d = len(modulus) - 1
        self.p, self.d, self.S = p, d, 2 * d - 1
        # largest digit the Barrett step can make from digits <= bound
        top = bound * (1 + d * (d - 1) * (p - 1) ** 2)
        self.k = top.bit_length() + p.bit_length()
        self.r = (1 << self.k) // p + 1
        self.w = ((top * self.r).bit_length() + 7) // 8
        W = self.W = 8 * self.w
        self.block_bits = self.S * W
        per_block = _repunit(blocks, self.block_bits)
        self.ones = per_block * _repunit(d, W)
        self.low_d = per_block * ((1 << (d * W)) - 1)
        self.low_d1 = per_block * ((1 << ((d - 1) * W)) - 1)
        self.quot_mask = _repunit(blocks * self.S, W) * ((1 << (W - self.k)) - 1)
        if d > 1:
            # floor(t^(2d-1) / modulus) mod p, and -modulus below t^d, as
            # digits; over F_p itself reduce needs neither
            self.mu = self._digits(_divide([0] * (2 * d - 1) + [1], modulus, p, (0, 1))[0])
            self.neg_mod = self._digits([-c for c in modulus[:d]])

    def _digits(self, coords) -> int:
        return sum((c % self.p) << (u * self.W) for u, c in enumerate(coords))

    def pack(self, rows) -> int:
        """Flat coordinates, d per coefficient, each 0 <= c < p -> packed int.
        For p < 256 a coordinate is one byte, and coordinate u of every
        coefficient is written by one strided slice: d slices in place of
        one ``to_bytes`` per coordinate, which took divmod of degree 64 by
        63 over GF(3) from 89 to 11 us."""
        w, d = self.w, self.d
        if self.p < 256:
            step = self.S * w
            raw = bytearray(len(rows) // d * step)
            for u in range(d):
                raw[u * w::step] = bytes(rows[u::d])
            return int.from_bytes(raw, "little")
        pad = bytes(w * (d - 1))
        return int.from_bytes(
            b"".join([b"".join([c.to_bytes(w, "little") for c in rows[lo:lo + d]]) + pad
                      for lo in range(0, len(rows), d)]), "little")

    def unpack(self, packed: int, blocks: int):
        """Canonical packed int of at most ``blocks`` coefficients -> flat
        coordinates, d per coefficient; for p < 256 by strided slices."""
        w, d, step = self.w, self.d, self.S * self.w
        raw = packed.to_bytes(blocks * step, "little")
        if self.p < 256:
            rows = [0] * (blocks * d)
            for u in range(d):
                rows[u::d] = raw[u * w::step]
            return rows
        return [int.from_bytes(raw[o:o + w], "little")
                for i in range(0, len(raw), step) for o in range(i, i + d * w, w)]

    def blocks(self, packed: int) -> int:
        """The number of coefficients up to the last nonzero one of a
        canonical packed value."""
        return -(-packed.bit_length() // self.block_bits)

    def reduce(self, packed: int) -> int:
        if self.d > 1:
            W, d = self.W, self.d
            high = (packed >> ((d - 1) * W)) & self.low_d
            quot = ((high * self.mu) >> (d * W)) & self.low_d1
            packed = (packed & self.low_d) + ((quot * self.neg_mod) & self.low_d)
        return packed - self.p * (((packed * self.r) >> self.k) & self.quot_mask)

    def power(self, a: int, n: int) -> int:
        """a^n, n >= 1, for a canonical packed constant a, by square and
        multiply; the packing's bound must cover d (p - 1)^2."""
        result = a
        for bit in bin(n)[3:]:
            result = self.reduce(result * result)
            if bit == "1":
                result = self.reduce(result * a)
        return result

    def divide(self, a: int, b: int, lead: int = 1):
        """The remainder kernel on canonical packed values, b != 0 with the
        packed leading coefficient ``lead``: (q, r) with r canonical, of
        lower degree than b and equal to lead^s * a mod b for the number s
        of steps.  When lead is 1 (b monic), q is the quotient:
        a = q * b + r; otherwise q is not used.

        A step reads the top coefficient c of a by a shift and adds
        c * (P - b) * X^k to lead * a, where P - b is -b with digits in
        [1, p] (P has the digit p wherever b has a coordinate), so the top
        coefficient becomes 0 mod (modulus, p) with every digit
        nonnegative; one ``reduce`` makes the result canonical.  A canonical
        value is bounded by its top coefficient, so ``blocks`` gives the
        degree.  Digits before the reduction are at most
        d (p - 1)^2 + d (p - 1) p.  A step that leaves the degree, as one
        by a b whose lead is not ``lead`` would, raises."""
        bits, m = self.block_bits, self.blocks(b)
        neg_b = self.p * (self.ones & ((1 << (m * bits)) - 1)) - b
        q, n = 0, self.blocks(a)
        while n >= m:
            top, k = a >> ((n - 1) * bits), (n - m) * bits
            if lead == 1:
                q |= top << k
            a = self.reduce((a if lead == 1 else a * lead) + ((top * neg_b) << k))
            n, was = self.blocks(a), n
            if n >= was:
                raise InternalInconsistency("a remainder step kept the top coefficient")
        return q, a


@lru_cache(maxsize=128)
def _packing_of_class(p: int, modulus, bound_bits: int, blocks_bits: int) -> _Packing:
    return _Packing(p, modulus, (1 << bound_bits) - 1, (1 << blocks_bits) - 1)


def _packing(p: int, modulus, bound: int, blocks: int) -> _Packing:
    """The shared ``_Packing`` over F_p[t]/(modulus) for digits up to
    ``bound`` in up to ``blocks`` coefficients: one per field and size
    class, the bit lengths of the two."""
    return _packing_of_class(p, modulus, bound.bit_length(), blocks.bit_length())


def _divide_packing(p: int, mod, blocks: int) -> _Packing:
    """The packing of ``_Packing.divide`` on up to ``blocks`` coefficients."""
    d = len(mod) - 1
    return _packing(p, mod, d * (p - 1) * (2 * p - 1), blocks)


def _divide(rows, g, p, mod):
    """Divide by the monic g over F_p[t]/(mod), both given by their flat
    coordinates, deg mod per coefficient: (q, r) with rows = q * g + r,
    deg r < deg g and digits in [0, p), by ``_Packing.divide``."""
    d = len(mod) - 1
    n, m = len(rows) // d, len(g) // d
    pk = _divide_packing(p, mod, n)
    q, r = pk.divide(pk.pack(rows), pk.pack(g))
    return pk.unpack(q, n - m + 1), pk.unpack(r, m - 1)


class _Modulus:
    """Products modulo one monic f of degree m >= 1, on packed polynomials.

    Operands are canonical packed values (``_Packing``) of fewer than m
    coefficients.  A product has fewer than 2m - 1, and its quotient by f is
    floor(floor(product / X^(m-1)) * mu / X^m) with mu = X^(2m-1) // f
    (Barrett reduction), so ``mul`` is three int multiplications and a few
    shifts.  mu, the packed -f and the packing widths are built once per
    modulus, and every power modulo f goes through here.
    """

    __slots__ = ("f", "m", "pk", "bits", "low", "neg_f", "mu")

    def __init__(self, f: "FFPoly"):
        F = f.field
        m, p, d = f.degree, F.p, F.degree
        self.f, self.m = f, m
        pk = self.pk = _packing(p, F.modulus, (m + 1) * d * (p - 1) ** 2, 2 * m)
        self.bits = pk.block_bits
        self.low = (1 << (m * self.bits)) - 1
        self.neg_f = pk.pack([-c % p for c in f.rows[:m * d]])
        self.mu = pk.pack(_divide([0] * ((2 * m - 1) * d) + list(F.one.rows), f.rows, p,
                                  F.modulus)[0])

    def pack(self, g: "FFPoly") -> int:
        """g of degree < m, packed."""
        return self.pk.pack(g.rows)

    def unpack(self, packed: int) -> "FFPoly":
        return FFPoly._of(self.f.field, self.pk.unpack(packed, self.m))

    def mul(self, a: int, b: int) -> int:
        pk, m, bits = self.pk, self.m, self.bits
        prod = pk.reduce(a * b)
        quot = pk.reduce(((prod >> ((m - 1) * bits)) * self.mu) >> (m * bits))
        return pk.reduce((prod & self.low) + ((quot * self.neg_f) & self.low))

    def pow(self, b: int, n: int) -> int:
        """b^n mod f for n >= 1, by square and multiply."""
        result = b
        for bit in bin(n)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, b)
        return result

    def minus_x(self, h: int) -> int:
        """h - X, for m >= 2: p - 1 added to the first coordinate of the
        coefficient of X."""
        return self.pk.reduce(h + ((self.pk.p - 1) << self.bits))


class FFPoly:
    """Polynomial over one FField; an element of the field is a constant.

    ``rows`` holds the coordinates of the coefficients, d per coefficient
    from the constant term up, each in [0, p), with no trailing zero
    coefficient, so a nonzero constant has d rows and zero has none.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: FField, coeffs):
        """The polynomial with the constants ``coeffs`` of ``field`` as its
        coefficients, constant term first."""
        coeffs = list(coeffs)
        if not all(isinstance(c, FFPoly) and c.field is field and c.degree < 1 for c in coeffs):
            raise InputError("a coefficient must be a constant of the field")
        zero = (0,) * field.degree
        self._set(field, [x for c in coeffs for x in c.rows or zero])

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
        return FFPoly._of(field, (0,) * field.degree + field.one.rows)

    @property
    def coeffs(self) -> tuple:
        return tuple(self[i] for i in range(len(self.rows) // self.field.degree))

    @property
    def degree(self) -> int:
        return len(self.rows) // self.field.degree - 1

    def is_zero(self) -> bool:
        return not self.rows

    def __getitem__(self, i) -> "FFPoly":
        """Coefficient i, a constant."""
        d = self.field.degree
        if 0 <= i < len(self.rows) // d:
            return FFPoly._of(self.field, self.rows[i * d:i * d + d])
        return self.field.zero

    def lead(self) -> "FFPoly":
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
        if not isinstance(other, FFPoly) or other.field is not self.field:
            raise TypeError("mixed-field arithmetic; map through an Extension step")
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
        a, b = self.rows, other.rows
        if not a or not b:
            return FFPoly._of(F, ())
        d = F.degree
        if len(a) == d:
            a, b = b, a
        if len(b) == d:
            if d == 1:  # a constant factor over F_p: one product per coefficient
                c, p = b[0], F.p
                return FFPoly._of(F, [x * c % p for x in a])
            if len(a) == d:  # two constants; one times a polynomial is packed
                return FFPoly._of(F, _fmul(a, b, F))
        la, lb = len(a) // d, len(b) // d
        pk = _packing(F.p, F.modulus, min(la, lb) * d * (F.p - 1) ** 2, la + lb - 1)
        return FFPoly._of(F, pk.unpack(pk.reduce(pk.pack(a) * pk.pack(b)), la + lb - 1))

    def __pow__(self, n: int) -> "FFPoly":
        """self ** n by repeated squaring; n < 0 for a nonzero constant only."""
        if n < 0:
            return self.inverse() ** -n
        F, d = self.field, self.field.degree
        if n and d > 1 and len(self.rows) == d:
            # a constant: the whole power on one packed element
            pk = _packing(F.p, F.modulus, d * (F.p - 1) ** 2, 1)
            return FFPoly._of(F, pk.unpack(pk.power(pk.pack(self.rows), n), 1))
        result, x = F.one, self
        while n:
            if n & 1:
                result = result * x
            n >>= 1
            if n:
                x = x * x
        return result

    def inverse(self) -> "FFPoly":
        """The inverse of a nonzero constant."""
        F, p, rows = self.field, self.field.p, self.rows
        if not rows:
            raise ZeroDivisionError("inverse of zero")
        if len(rows) > F.degree:
            raise InputError("only a constant has an inverse")
        if F.degree == 1:
            return FFPoly._of(F, (pow(rows[0], -1, p),))
        # the extended Euclidean algorithm in F_p[t] on coordinate lists,
        # with s * a = r mod the modulus kept for each remainder r; the
        # modulus is irreducible, so the remainders end at a constant
        r0, s0 = list(F.modulus), [0]
        r1, s1 = list(rows), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            inv, n = pow(r1[-1], -1, p), len(r1)
            while len(r0) >= n:
                c, k = r0[-1] * inv % p, len(r0) - n
                r0[k:] = [(x - c * y) % p for x, y in zip(r0[k:], r1)]
                s0 += [0] * (k + len(s1) - len(s0))
                s0[k:k + len(s1)] = [(x - c * y) % p for x, y in zip(s0[k:], s1)]
                while r0 and not r0[-1]:
                    r0.pop()
            r0, s0, r1, s1 = r1, s1, r0, s0
        c = pow(r1[0], -1, p)
        return FFPoly._of(F, [x * c % p for x in s1] + [0] * (F.degree - len(s1)))

    def shift(self, k: int) -> "FFPoly":
        """Multiply by X^k, k >= 0."""
        if k < 0:
            raise InputError("negative shift")
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
        g = other if inv is None else other * inv
        q, r = _divide(self.rows, g.rows, F.p, F.modulus)
        q = FFPoly._of(F, q)
        return (q if inv is None else q * inv), FFPoly._of(F, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "FFPoly":
        if self.is_zero() or self.is_monic():
            return self
        if self.degree == 0:  # a unit, where the gcd of coprime inputs ends
            return self.field.one
        return self * self.lead().inverse()

    def gcd(self, other) -> "FFPoly":
        """The monic gcd, by fraction-free remainder steps on packed values
        (``_Packing.divide`` with the divisor's lead) and one inverse at the
        end.  Against the monic Euclid on coordinate lists that it replaced,
        one inverse and one scaling per remainder, on degree n against n - 1
        over GF(3^d) and GF(7^d) (best of 5): 0.4 to 1.2 times as long for
        n <= 2 over F_p and n = 1 over GF(p^d), under half as long from
        n = 3 over F_p and n = 2 over GF(p^d), and 0.16 against 0.83 ms at
        d = 1, n = 64, 16 against 159 ms at d = 15."""
        F = self._check(other)
        pk = _divide_packing(F.p, F.modulus, max(len(self.rows), len(other.rows)) // F.degree)
        bits = pk.block_bits
        a, b = pk.pack(self.rows), pk.pack(other.rows)
        while b:
            a, b = b, pk.divide(a, b, b >> ((pk.blocks(b) - 1) * bits))[1]
        n = pk.blocks(a)
        if n <= 1:
            return F.one if a else F.zero
        inv = FFPoly._of(F, pk.unpack(a >> ((n - 1) * bits), 1)).inverse()
        return FFPoly._of(F, pk.unpack(pk.reduce(a * pk.pack(inv.rows)), n))

    def derivative(self) -> "FFPoly":
        F = self.field
        d, p = F.degree, F.p
        return FFPoly._of(F, [(j // d) * c % p for j, c in enumerate(self.rows)][d:])

    def pow_mod(self, n: int, modulus: "FFPoly") -> "FFPoly":
        """self^n mod modulus, for n >= 0."""
        F = self.field
        if n < 0:
            raise InputError("negative exponent")
        if n == 0:
            return F.one
        f = modulus.monic()
        base = self % f
        if base.is_zero():
            return base
        ctx = _Modulus(f)
        return ctx.unpack(ctx.pow(ctx.pack(base), n))

    def compose_frobenius_root(self) -> "FFPoly":
        """Given f = g(X^p) return g with p-th roots taken on coefficients."""
        F = self.field
        root_exp = F.order // F.p
        return FFPoly(F, [self[i] ** root_exp for i in range(0, self.degree + 1, F.p)])

    def key(self):
        return (self.degree + 1,) + self.rows

    def __repr__(self):
        return f"FFPoly({[list(c.rows) for c in self.coeffs]})"


# Over F_p, squarefree_decomposition finds the roots by evaluation for p up
# to this bound.  Against the general path, ff_factor on sets of six
# polynomials of degree 4 to 64 at p = 3 to 211 (best of 15, CPython 3.11,
# 2 shared vCPUs): products of linear factors took 0.03 to 0.17 times as
# long; random ones, with few roots, took at most 1.10 times as long up to
# p = 101, and up to 1.5 times as long at p = 211.
_ROOT_SCAN_MAX_P = 101


def _strip_roots(f: FFPoly):
    """f monic over a prime field -> ([(X - a, multiplicity)] for the roots a
    of f, the cofactor that has no root).  Each a in F_p is tried by
    synthetic division, repeated while it leaves no remainder."""
    p = f.field.p
    rows, roots = list(f.rows), []
    for a in range(p):
        mult = 0
        while len(rows) > 1:
            acc, quot = 0, []
            for c in reversed(rows):
                acc = (acc * a + c) % p
                quot.append(acc)
            if quot.pop():
                break
            quot.reverse()
            rows, mult = quot, mult + 1
        if mult:
            roots.append((FFPoly._of(f.field, (-a % p, 1)), mult))
    return roots, FFPoly._of(f.field, rows)


def _pure_power_root(f: FFPoly):
    """X - c when the monic f of degree n >= 1 is (X - c)^n with p not
    dividing n, else None: c = -a_(n-1) / n, and each coefficient a_k is
    compared with C(n, k) (-c)^(n-k), on packed elements."""
    F, n = f.field, f.degree
    p = F.p
    if n < 1 or n % p == 0:
        return None
    pk = _packing(p, F.modulus, F.degree * (p - 1) ** 2, 1)
    bits = pk.block_bits
    mask = (1 << bits) - 1
    packed = pk.pack(f.rows)
    neg_c = pk.reduce((packed >> ((n - 1) * bits) & mask) * pow(n, -1, p))
    power, binom = neg_c, n
    for k in range(n - 2, -1, -1):
        power = pk.reduce(power * neg_c)
        binom = binom * (k + 1) // (n - k)
        if pk.reduce(power * (binom % p)) != (packed >> (k * bits)) & mask:
            return None
    return FFPoly._of(F, pk.unpack(neg_c, 1) + list(F.one.rows))


def squarefree_decomposition(f: FFPoly):
    """List of (g_i, multiplicity) with f = lead * prod g_i^m_i, g_i squarefree
    monic and pairwise coprime.  Over F_p with p <= _ROOT_SCAN_MAX_P each root
    comes first as its own X - a; elsewhere a pure power (X - c)^n with p not
    dividing n is its own answer, with no gcd.  Yun's algorithm takes the
    rest."""
    F = f.field
    parts = []
    f = f.monic()
    if F.degree == 1 and F.p <= _ROOT_SCAN_MAX_P:
        parts, f = _strip_roots(f)
    else:
        root = _pure_power_root(f)
        if root is not None:
            return [(root, f.degree)]

    def rec(g, mult):
        if g.degree <= 0:
            return
        dg = g.derivative()
        if dg.is_zero():
            rec(g.compose_frobenius_root(), mult * F.p)
            return
        c = g.gcd(dg)
        if c.degree == 0:  # g is squarefree: its one part is itself
            parts.append((g, mult))
            return
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


def _distinct_degree(f: FFPoly, block: int = 1):
    """f squarefree monic -> (product of the degree-e factors, e) for each e
    that has one, e increasing.  For any monic f, the first e is deg f
    exactly when f is irreducible.

    h runs through X^(q^e) modulo the part ``rest`` of f not yet split off,
    packed under the ``_Modulus`` of rest, which is rebuilt only when rest
    shrinks.  The steps go in blocks of 1, 2, 4, ... and at most ``block``
    steps (the interval partition of von zur Gathen-Shoup, "Computing
    Frobenius maps and factoring polynomials", 1992): one gcd of rest with
    the product of the h - X of a block gives the factors of every degree in
    the block, and only a block where that gcd is not 1 is refined, one gcd
    per step.  With block = 1 this is the plain loop, Ben-Or's test with its
    exit at the first factor."""
    F, q = f.field, f.field.order
    rest, e, h, ctx, size = f, 0, FFPoly.x(F), None, 1
    while 2 * (e + 1) <= rest.degree:
        if ctx is None:
            ctx = _Modulus(rest)
            h = ctx.pack(h % rest)
        steps = []
        for _ in range(min(size, rest.degree // 2 - e)):
            h = ctx.pow(h, q)
            steps.append(ctx.minus_x(h))
        prod = steps[0]
        for s in steps[1:]:
            prod = ctx.mul(prod, s)
        found = rest.gcd(ctx.unpack(prod))
        if found.degree > 0:
            g = found
            for i, s in enumerate(steps, e + 1):
                if g.degree < 2 * i:
                    break  # no factor of g has degree below i: g is one factor or 1
                gi = g if len(steps) == 1 else g.gcd(ctx.unpack(s))
                if gi.degree > 0:
                    yield gi, i
                    g = g // gi
            if g.degree > 0:
                yield g, g.degree
            rest = rest // found
            h, ctx = ctx.unpack(h), None  # rebuilt for the smaller rest
        e += len(steps)
        size = min(2 * size, block)
    if rest.degree > 0:
        yield rest, rest.degree


# _equal_degree_split splits by every class of the absolute trace for p up
# to this bound, in its gamma X rounds (D = 1) and its random-a rounds
# (D > 1), and by a (q^D - 1)/2-th power above it: a round of classes takes
# up to p - 1 gcds per part.  Against the power, on 16 roots over GF(p^e),
# e = 2, 3, 4, 6, and 4 quadratics or cubics over GF(p^2) (best of 21 or 11,
# CPython 3.11, 2 shared vCPUs), random-a classes took 0.62 to 1.04 times as
# long for p <= 13, and 1.08 to 1.13 times at p = 17 and 23 over GF(p^2).
_TRACE_CLASSES_MAX_P = 13


def _trace_classes(g: FFPoly, trace: FFPoly, D: int):
    """The parts of g of degree > 0 among gcd(g, trace - c), c in F_p, the
    last with no gcd: g split by the value of ``trace`` at its roots."""
    F, rest, parts = g.field, g, []
    for c in range(F.p - 1):
        h = rest.gcd(trace - F.elem(c))
        if h.degree > 0:
            parts.append(h)
            rest = rest // h
            if rest.degree <= D:
                break
    if rest.degree > 0:
        parts.append(rest)
    return parts


def _equal_degree_split(f: FFPoly, D: int, rng: random.Random):
    """Split a squarefree monic product of degree-D irreducibles over
    GF(p^e), odd p, into its factors.

    For p up to ``_TRACE_CLASSES_MAX_P`` a split takes the classes of an
    absolute trace, in F_p modulo each factor (Berlekamp's trace algorithm,
    Math. Comp. 24, 1970).  For roots (D = 1) the chain X^(p^i) mod f,
    i < e, is computed once; a round draws gamma in GF(p^e) and splits every
    open part by sum_i gamma^(p^i) X^(p^i), whose value at a root a is
    Tr(gamma a), with no modular product.  For D > 1 gamma X cannot part
    two factors whose roots have equal trace to GF(p^e), so each part g
    draws nonconstant a mod g until sum_(i < e D) a^(p^i) mod g splits it.
    Above the bound g splits in two by gcd(g, a^((q^D - 1)/2) - 1)
    (Cantor-Zassenhaus, Math. Comp. 36, 1981).  ff_factor sorts the
    factors, so the order of the splits does not show."""
    F = f.field
    p, e = F.p, F.degree
    if D == 1 and p <= _TRACE_CLASSES_MAX_P and f.degree > 1:
        ctx = _Modulus(f)
        pk, chain = ctx.pk, [ctx.pack(FFPoly.x(F))]
        for _ in range(e - 1):
            chain.append(ctx.pow(chain[-1], p))
        todo, out = [f], []
        while todo:
            gamma, total = pk.pack([rng.randrange(p) for _ in range(e)]), 0
            for x in chain:
                total += pk.reduce(gamma * x)
                gamma = pk.power(gamma, p)
            trace, parts = ctx.unpack(pk.reduce(total)), []
            for g in todo:
                parts += _trace_classes(g, trace % g, 1)
            out += [g for g in parts if g.degree == 1]
            todo = [g for g in parts if g.degree > 1]
        return out
    todo, out = [f], []
    while todo:
        g = todo.pop()
        if g.degree == D:
            out.append(g)
            continue
        ctx, parts = _Modulus(g), [g]
        while len(parts) == 1:
            a = FFPoly._of(F, [rng.randrange(p) for _ in range(g.degree * e)])
            if a.degree < 1:
                continue
            if p > _TRACE_CLASSES_MAX_P:
                h = g.gcd(ctx.unpack(ctx.pow(ctx.pack(a), (F.order ** D - 1) // 2)) - F.one)
                if 0 < h.degree < g.degree:
                    parts = [h, g // h]
                continue
            power = total = ctx.pack(a)
            for _ in range(e * D - 1):
                power = ctx.pow(power, p)
                total += power
            parts = _trace_classes(g, ctx.unpack(ctx.pk.reduce(total)), D)
        todo += reversed(parts)
    return out


def ff_factor(f: FFPoly, rng: Optional[random.Random] = None):
    """Factor a nonzero polynomial into monic irreducibles with multiplicities.

    Returns a canonically sorted list of (factor, multiplicity); the product
    of the factors (to their multiplicities), times lead(f), rebuilds f.
    """
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    if f.degree == 1:
        return [(f.monic(), 1)]
    if rng is None:
        rng = random.Random(0)
    factors = []
    for g, mult in squarefree_decomposition(f):
        if g.degree == 1:
            factors.append((g, mult))
            continue
        # blocks of up to sqrt(2 deg g) steps: at degree 128 to 1024 over
        # GF(3) and GF(5) as fast as the best fixed size, and at degree 2 to
        # 16 over GF(5^2) to GF(5^6), where a step costs more, within the
        # noise of single steps
        for h, d in _distinct_degree(g, isqrt(2 * g.degree)):
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
    passes Ben-Or's test, as if every one were tested.  Four skip a block:

      * p | t and g' = 0: every g + c_0 is a polynomial in X^p, a p-th power;
      * g = X^t: some X^t - a is irreducible exactly when every prime r | t
        divides q - 1, and q = 1 mod 4 when 4 | t (Lidl-Niederreiter,
        *Finite Fields*, Thm 3.75; a a generator of k^*);
      * t = p and g = X^p + c_1 X with (-c_1)^((q-1)/(p-1)) != 1, that is,
        -c_1 is not a (p-1)-th power in k^*: the F_p-linear map
        x -> x^p + c_1 x has no kernel, so it is onto and every g + c_0 has
        a root;
      * g = X^t + c_1 X with p | t - 1, t = 3 mod 4 and q = 3 mod 4: the
        discriminant of g + c_0 is (-1)^(t(t-1)/2) t^t c_0^(t-1) = -c_0^(t-1),
        as the term in (t-1)^(t-1) vanishes mod p and t^t = 1, a non-square
        for c_0 != 0 since -1 is one in k.  An irreducible polynomial of odd
        degree has a square discriminant (Stickelberger's parity theorem;
        Swan, Pacific J. Math. 12, 1962), and g itself has the root 0, so no
        g + c_0 is irreducible.

    A block that no rule skips for t = p and c_2 = ... = c_{p-1} = 0 holds
    the answer, which ``_artin_schreier`` constructs.  Within other blocks:

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
        tail = _coordinates(code, p, (t - 1) * d) + list(k.one.rows)
        if _barren(k, t, code, tail):
            continue
        if t == p and code < q:
            return _artin_schreier(k, tail)
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
    if code >= q:
        return False
    if t == p:
        # x -> x^p + c_1 x is a bijection of k
        return (-k.elem(tail[:d])) ** ((q - 1) // (p - 1)) != k.one
    # every discriminant -c_0^(t-1) is a non-square, against Stickelberger
    return (t - 1) % p == 0 and t % 4 == 3 and q % 4 == 3


def _artin_schreier(k: FField, tail) -> FFPoly:
    """The first irreducible X^p + c_1 X + c_0 in counting order, for the c_1
    of ``tail`` that ``_barren`` keeps: -c_1 is a (p-1)-th power, so
    g = X^p + c_1 X is F_p-linear with p roots in k, and g + c_0 is
    irreducible exactly when it has no root, when c_0 lies outside the
    hyperplane g(k).  The c_0 numbered below p^j span t^0 .. t^(j-1), so the
    answer is c_0 = t^j for the least j with t^j outside g(k), found by
    reducing each t^j by an echelon basis of g(k)."""
    p, d = k.p, k.degree
    c1, units = k.elem(tail[:d]), [k.elem([0] * u + [1]) for u in range(d)]
    image = []  # (pivot, row): 1 at the pivot, 0 at the pivots before it

    def reduced(v):
        for c, row in image:
            v = [(a - v[c] * b) % p for a, b in zip(v, row)]
        return v

    for e in units:
        v = reduced(list((e ** p + c1 * e).rows or (0,) * d))
        c = next((i for i, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            image.append((c, [x * inv % p for x in v]))
    j = next((j for j, e in enumerate(units) if any(reduced(list(e.rows)))), 0)
    cand = FFPoly._of(k, list(units[j].rows) + list(tail))
    if not is_irreducible(cand):
        raise InternalInconsistency("Artin-Schreier candidate is reducible")
    return cand


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
    pk = _packing(p, k.modulus, d * (p - 1) ** 2 + p - 1, 1)
    coeffs = [pk.pack(tail[lo:lo + d]) for lo in range(0, len(tail) - d, d)]
    one = pk.pack(k.one.rows)
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
    """Solve M X = B over F_p for the square M given by its rows and the
    rows ``rhs`` of B.  Returns the rows of X, or None when M is singular."""
    n = len(rows)
    aug = [list(r) + list(b) for r, b in zip(rows, rhs)]
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
    return [row[n:] for row in aug]


def ff_extend(F: FField, h: FFPoly):
    """The step F -> G = F[Y]/(h) for an irreducible h, as an ``Extension``.

    G is an absolute field of degree [F:F_p] * deg h, found from the first
    primitive generator Y + c*theta_F of F[Y]/(h), c = 0 .. p - 1; the
    step's root is the image of Y, so h(root) = 0 after mapping h's
    coefficients up, and its basis rows write the power basis of G over F.
    A degree-1 h gives dst = F and no matrix and no basis.
    """
    if h.degree == 1:  # a linear modulus is irreducible
        return Extension(F, F, None, -(h[0] * h[1].inverse()), None)
    if h.degree < 1 or not is_irreducible(h):
        raise InputError("modulus of a field extension must be irreducible")

    p, a, t = F.p, F.degree, h.degree
    n = a * t
    hm = h.monic()
    y = FFPoly.x(F)

    for c in range(p):
        # candidate generator gamma = Y + c*theta_F in E = F[Y]/(h), one per
        # residue of c mod p; the n coordinates over F_p of a remainder mod h
        # are its padded rows
        gamma = y + F.elem(c) * F.gen
        powers = [F.one]
        for _ in range(n):
            powers.append(powers[-1] * gamma % hm)
        rows = [v.rows + (0,) * (n - len(v.rows)) for v in powers]
        # one elimination on the power matrix P, whose column k is gamma^k,
        # solves for -gamma^n and the flat unit vectors e_0 .. e_a.  The
        # first solution is the minimal polynomial of gamma, unique exactly
        # when gamma generates E over F_p (a gamma in a proper subfield leaves
        # P singular); the others are the gamma-power coordinates of
        # theta_F^j, j < a, which are the columns of emb, and of Y, the root
        rhs = [[-x % p] + [int(i == j) for j in range(a + 1)] for i, x in enumerate(rows[n])]
        sol = _gauss_solve_mod_p(list(zip(*rows[:n])), rhs, p)
        if sol is None:
            continue
        cols = list(zip(*sol))
        G = FField(p, cols[0] + (1,))
        step = Extension(F, G, cols[1:a + 1], FFPoly._of(G, cols[a + 1]), rows[:n])
        # sanity: the root satisfies the modulus mapped up
        if any(step.evaluate(hm.rows)):
            raise InternalInconsistency("extension construction failed root check")
        return step
    raise InternalInconsistency("no primitive generator found")  # unreachable for finite fields
