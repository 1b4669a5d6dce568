"""The p-adic coefficient field, its residue field, and polynomials over it.

The base field is the unramified extension K = Q_p(theta) of degree m, with
theta a root of a monic integer polynomial whose reduction mod p is
irreducible.  Elements are restricted to the number field Q(theta) sitting
inside K, so all arithmetic is exact; completions are never approximated.

Elements and polynomials share one integer representation: a KElem holds
its m power-basis coordinates (1, theta, ..., theta^(m-1)) over one
positive denominator, a KPoly the coordinates of all its coefficients in
one flat tuple over one positive denominator, both in lowest terms.
Products are reduced by the monic integer defining polynomial, so the
arithmetic forms no Fraction; Fractions appear only where values enter
(``BaseField.elem``, ``rat``, ``poly``), in ``KElem.coords`` and in
valuations.  The valuation has val(p) = 1.  The power basis reduces to the
basis of the residue field that FField uses, so a valuation is that of the
content (gcd of the coordinates over the denominator), and a reduction
takes each coordinate mod p.

Division and phi-adic expansion share one kernel, ``_zdivmod``.  Inside an
``expansion_scope`` call each (polynomial, phi) pair is expanded once; the
memo is dropped when the outermost scoped call returns.

The resultant, and with it the discriminant, is one subresultant kernel,
``_zresultant``, on the integer numerators: pseudo-remainders followed by
exact divisions in Z[theta], which keep the coefficients from growing
(Collins 1967, Brown-Traub 1971).  The denominators come out once at the
end.
"""

from __future__ import annotations

import contextvars
import functools
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from .errors import InputError, InternalInconsistency
from .ff import (FField, FFElem, FFPoly, prime_field, is_irreducible,
                 find_irreducible_int_poly, find_irreducible_over,
                 _conv, _theta_reduce, _theta_multiples)
from .rationals import OO


# Memo of the innermost open expansion scope: (id(poly), id(phi)) ->
# (poly, phi, expansion).  Holding both objects keeps their ids from being
# reused while the scope is open.  A ContextVar keeps each thread's and each
# task's scope its own.
_EXPANSIONS = contextvars.ContextVar("clusterfibre_expansions", default=None)


def expansion_scope(fn):
    """Decorator: phi-adic expansions made during a call of ``fn`` are
    memoized and dropped when it returns or raises.  A call made inside an
    open scope shares the outer memo."""
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


def _power(x, n: int, one):
    """x ** n for n >= 0, by repeated squaring."""
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


def _zsolve(cols, rhs):
    """(y, d) with sum_k y[k] * cols[k] = d * rhs, d != 0, for the square
    integer system with columns ``cols``; None if it is singular.
    Fraction-free (Bareiss) Gauss-Jordan elimination, after which every
    diagonal entry is d."""
    n = len(rhs)
    a = [[col[i] for col in cols] + [rhs[i]] for i in range(n)]
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
    return [row[n] for row in a], prev


# Division.  A monic divisor g = G / lead (G integral, lead its
# denominator) is prepared once by _zdivisor; _zdivmod then divides by it
# with integer multiplications and subtractions only.

def _zdivisor(phi):
    """Prepare the monic KPoly ``phi`` for _zdivmod.

    Returns (cols, d, lead) with phi = G / lead, G integral of degree d:
    cols[k] holds the coordinates of theta^k * G_j for j < d, flat.
    """
    m = phi.field.m
    dm = len(phi.rows) - m
    return _theta_multiples(phi.rows[:dm], phi.field.gen_minpoly), dm // m, phi.den


def _zdivmod(rows, den, divisor):
    """Divide rows / den by the divisor from _zdivisor: returns (q, r, den2)
    with f = q * g + r, deg r < deg g, both over den2.  Consumes ``rows``.

    When g = G / lead with lead > 1 this is pseudo-division: rows are first
    multiplied by lead to the number of quotient terms, after which every
    top coefficient is divisible by lead and all arithmetic is integral.
    """
    cols, d, lead = divisor
    m = len(cols)
    dm = d * m
    nq = len(rows) // m - d
    if nq <= 0:
        return [], rows, den
    if lead != 1:
        scale = lead ** nq
        rows = [a * scale for a in rows]
        den *= scale
    q = [0] * (nq * m)
    for lo in range((nq - 1) * m, -1, -m):
        top = rows[lo + dm:lo + dm + m]
        q[lo:lo + m] = top
        for c, col in zip(top, cols):
            if c:
                if lead != 1:
                    c //= lead
                rows[lo:lo + dm] = [a - c * b for a, b in zip(rows[lo:lo + dm], col)]
    return q, rows[:dm], den


def _zinverse(nums, mod):
    """(y, d) with nums * y = d, d a nonzero integer, for the nonzero
    element of Z[theta] with coordinates ``nums``: the Bareiss solution of
    the system whose column k is theta^k * nums."""
    return _zsolve(_theta_multiples(nums, mod), [1] + [0] * (len(mod) - 2))


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
        self.zero = KElem(self, (0,) * m)
        self.one = KElem(self, (1,) + (0,) * (m - 1))

    def elem(self, *coords) -> "KElem":
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.m:
            raise InputError("too many coordinates")
        den = lcm(*[c.denominator for c in cs])
        nums = [c.numerator * (den // c.denominator) for c in cs]
        return KElem(self, nums + [0] * (self.m - len(cs)), den)

    def rat(self, x) -> "KElem":
        return self.elem(Fraction(x))

    @property
    def theta(self) -> "KElem":
        return self.elem(0, 1) if self.m > 1 else self.zero

    def poly(self, coeffs) -> "KPoly":
        return KPoly(self, [c if isinstance(c, KElem) else self.rat(c) for c in coeffs])

    def x(self) -> "KPoly":
        return self.poly([0, 1])

    def __repr__(self):
        return f"Q_{self.p}" if self.m == 1 else f"Q_{self.p}(theta_deg{self.m})"


class KElem:
    """An element of Q(theta): the integer power-basis coordinates ``nums``
    over the positive denominator ``den``, in lowest terms."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: BaseField, nums, den: int = 1):
        self.field = field
        self.nums, self.den = _normal(nums, den)

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        return (isinstance(other, KElem) and other.field is self.field
                and other.nums == self.nums and other.den == self.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        return KElem(self.field, *_plus(self.nums, self.den, other.nums, other.den, 1))

    def __sub__(self, other):
        return KElem(self.field, *_plus(self.nums, self.den, other.nums, other.den, -1))

    def __neg__(self):
        return KElem(self.field, [-n for n in self.nums], self.den)

    def __mul__(self, other):
        K = self.field
        nums = _theta_reduce(_conv(self.nums, other.nums), K.gen_minpoly)
        return KElem(K, nums, self.den * other.den)

    def inverse(self) -> "KElem":
        K = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        y, d = _zinverse(self.nums, K.gen_minpoly)
        return KElem(K, [self.den * c for c in y], d)

    def __pow__(self, n: int) -> "KElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one)

    def val(self):
        """Normalized valuation: min of coordinate p-adic valuations; val(p)=1."""
        return _content_val(self.nums, self.den, self.field.p)

    def residue(self) -> FFElem:
        """Reduction to the residue field; requires val >= 0."""
        K = self.field
        return FFElem._of(K.residue_field, _residues(self.nums, self.den, K.p))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.coords[0])
        terms = [f"{c}*th^{i}" if i else str(c) for i, c in enumerate(self.coords) if c]
        return "(" + " + ".join(terms) + ")" if terms else "0"


class KPoly:
    """Dense univariate polynomial over the base field.

    ``rows`` holds the integer coordinates of the coefficients, m per
    coefficient from the constant term up, over the positive denominator
    ``den``; in lowest terms, with no trailing zero coefficient, so the zero
    polynomial has no rows.
    """

    __slots__ = ("field", "rows", "den")

    def __init__(self, field: BaseField, coeffs):
        coeffs = list(coeffs)
        den = lcm(*[c.den for c in coeffs])
        self._set(field, [n * (den // c.den) for c in coeffs for n in c.nums], den)

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

    @property
    def coeffs(self) -> tuple:
        return tuple(self[i] for i in range(len(self.rows) // self.field.m))

    @property
    def degree(self) -> int:
        return len(self.rows) // self.field.m - 1

    def is_zero(self) -> bool:
        return not self.rows

    def __getitem__(self, i) -> KElem:
        m = self.field.m
        if 0 <= i < len(self.rows) // m:
            return KElem(self.field, self.rows[i * m:i * m + m], self.den)
        return self.field.zero

    def lead(self) -> KElem:
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
            rows = _conv(self.rows, other.rows)
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

    def scale(self, c: KElem) -> "KPoly":
        return self * KPoly._of(self.field, c.nums, c.den)

    def __pow__(self, n: int) -> "KPoly":
        return _power(self, n, self.field.poly([1]))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        K = self.field
        if len(self.rows) < len(other.rows):
            return KPoly._of(K, (), 1), self
        inv = None if other.is_monic() else other.lead().inverse()
        monic = other if inv is None else other.scale(inv)
        q, r, den = _zdivmod(list(self.rows), self.den, _zdivisor(monic))
        q = KPoly._of(K, q, den)
        return (q if inv is None else q.scale(inv)), KPoly._of(K, r, den)

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
        """The Gauss valuation: the least valuation of a coefficient."""
        return _content_val(self.rows, self.den, self.field.p)

    def residue(self, alpha: int = 0) -> FFPoly:
        """The reduction of p^(-alpha) * self to the residue field,
        coefficientwise; requires gauss_val() >= alpha."""
        return FFPoly._of(self.field.residue_field,
                          _residues(self.rows, self.den, self.field.p, alpha))

    def phi_expand(self, phi: "KPoly") -> tuple:
        """Coefficients (a_0, a_1, ...) of the phi-adic expansion, deg a_i < deg phi.

        Inside an ``expansion_scope`` the result is shared by every caller
        that expands the same objects, hence a tuple.
        """
        memo = _EXPANSIONS.get()
        if memo is not None:
            hit = memo.get((id(self), id(phi)))
            if hit is not None:
                return hit[2]
        if not phi.is_monic() or phi.degree < 1:
            raise InputError("expansion base must be monic of positive degree")
        if self.degree < phi.degree:
            out = (self,)
        else:
            K = self.field
            divisor = _zdivisor(phi)
            rows, den = list(self.rows), self.den
            out = []
            while rows:
                rows, r, den = _zdivmod(rows, den, divisor)
                out.append(KPoly._of(K, r, den))
            out = tuple(out)
        if memo is not None:
            memo[(id(self), id(phi))] = (self, phi, out)
        return out

    def resultant(self, other) -> KElem:
        """res(self, other), exactly.  With self = F / D and other = G / E,
        res(self, other) = res(F, G) / (D^deg other * E^deg self)."""
        K = self.field
        if self.is_zero() or other.is_zero():
            return K.zero
        nums = _zresultant(self.rows, other.rows, K.gen_minpoly)
        return KElem(K, nums, self.den ** other.degree * other.den ** self.degree)

    def __repr__(self):
        if self.is_zero():
            return "KPoly(0)"
        return "KPoly[" + ", ".join(repr(c) for c in self.coeffs) + "]"


def discriminant_val(f: KPoly):
    """Valuation of disc(f) = res(f, f') / lc(f).

    This is the pipeline's only separability test: it raises InputError
    when the resultant is zero, i.e. when f has a repeated root.  The value
    bounds the refinement depth of the cluster discovery.
    """
    r = f.resultant(f.derivative())
    if r.is_zero():
        raise InputError("polynomial has repeated roots")
    return r.val() - f.lead().val()


def extend_unramified(K: BaseField, t: int):
    """Extend the base field so its residue degree is multiplied by t.

    Returns ``(K2, embed)`` where K2 is a BaseField of unramified degree
    m * t and embed maps KElem of K to KElem of K2 exactly (over Q).  The
    construction finds a global compositum Q(theta, eta) with eta a root of
    a lift of an irreducible residue polynomial, then a primitive element
    whose minimal polynomial stays irreducible mod p.
    """
    if t <= 1:
        return K, lambda a: a
    p, m = K.p, K.m
    M = m * t

    # degree-t irreducible over the residue field, lifted to Z[theta][y]:
    # E = K[eta]/(h) holds the remainders mod h.  Powers of an integral
    # generator mod the monic integral h are integral (den 1), so their
    # flat coordinates are the columns of an integer system.
    h = KPoly._of(K, find_irreducible_over(K.residue_field, t).rows, 1)

    def flat(v):
        return list(v.rows) + [0] * (M - len(v.rows))

    for mult in range(1, p * M + 2):
        gen = K.poly([K.rat(mult) * K.theta, 1]) if m > 1 else K.x()
        powers = [K.poly([1])]
        for _ in range(M):
            powers.append(powers[-1] * gen % h)
        cols = [flat(v) for v in powers[:M]]  # column j: the vector of gen^j
        sol = _zsolve(cols, [-x for x in flat(powers[M])])
        if sol is None or any(c % sol[1] for c in sol[0]):
            continue  # gen is not primitive, or its minimal polynomial not integral
        minpoly = tuple(c // sol[1] for c in sol[0]) + (1,)
        red = FFPoly.from_ints(prime_field(p), minpoly)
        if not is_irreducible(red):
            continue
        K2 = BaseField(p, M, minpoly)
        theta_img = KElem(K2, *_zsolve(cols, flat(K.poly([K.theta]))))

        def embed(a: KElem, _img=theta_img, _K2=K2):
            acc = _K2.zero
            for c in reversed(a.coords):
                acc = acc * _img + _K2.rat(c)
            return acc

        # the image of theta must still satisfy the old defining polynomial
        check = K2.zero
        for c in reversed(K.gen_minpoly):
            check = check * theta_img + K2.rat(c)
        if not check.is_zero():
            raise InternalInconsistency("embedding failed minimal polynomial check")
        return K2, embed
    raise InternalInconsistency("no primitive element found for the compositum")
