"""The p-adic coefficient field, its residue field, and polynomials over it.

The base field is the unramified extension K = Q_p(theta) of degree m, with
theta a root of a monic integer polynomial whose reduction mod p is
irreducible.  Elements are restricted to the number field Q(theta) sitting
inside K, stored as coordinate vectors of Fractions in the power basis
1, theta, ..., theta^(m-1).  Every computation in the package stays inside
Q(theta), so all arithmetic is exact; completions are never approximated.

The normalized valuation has val(p) = 1.  Because the reduction of the
defining polynomial stays irreducible, the power basis reduces to a basis of
the residue field, and the valuation of an element is the minimum of the
p-adic valuations of its coordinates; this is checked at construction time.

KPoly is a dense univariate polynomial over K.  The phi-adic expansion
(repeated division by a monic phi) is the workhorse for everything
valuation-theoretic downstream.  Division and expansion run on integer
coordinates over one common denominator (``_zdivmod``): the operands are
converted once, the loop multiplies and subtracts integers only, and the
results are converted back to Fractions once.  Inside an
``expansion_scope`` call each (polynomial, phi) pair is expanded once; the
memo is dropped when the outermost scoped call returns, so nothing outlives
that call.
"""

from __future__ import annotations

import contextvars
import functools
from fractions import Fraction
from math import lcm
from .ff import (FField, FFElem, FFPoly, prime_field, is_irreducible,
                 find_irreducible_int_poly, find_irreducible_over)
from .rationals import OO, ext_min


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


class NegativeValuation(ValueError):
    pass


class NotSeparable(ValueError):
    pass


def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of integer 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x: Fraction, p: int):
    if x == 0:
        return OO
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def _qpoly_divmod(a, b):
    """divmod of Fraction coefficient lists (dense, may have trailing zeros)."""
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError
    inv = 1 / b[-1]
    rows, den = _to_z(a)
    q, r, den = _zdivmod(rows, den, _zdivisor([c * inv for c in b], 1, None))
    r = [Fraction(n, den) for n in r]
    while r and r[-1] == 0:
        r.pop()
    return [Fraction(n, den) * inv for n in q], r


# Division on integer coordinates.  A polynomial over Q(theta) is passed as
# one flat list of integers, the m power-basis coordinates of each
# coefficient in turn, over one positive common denominator.  Products in
# Z[theta] are reduced by the monic integer gen_minpoly, so no Fraction is
# formed between _to_z and the conversion back.

def _to_z(coords):
    """(rows, den): den the least common denominator of the Fractions in
    ``coords`` and rows their numerators over it."""
    den = lcm(*[c.denominator for c in coords])
    if den == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (den // c.denominator) for c in coords], den


def _zdivisor(coords, m, mod):
    """Prepare the monic divisor g with flat Fraction ``coords`` (m per
    coefficient, reduced by the integer ``mod`` when m > 1) for _zdivmod.

    Returns (cols, d, lead) with g = G / lead, G integral of degree d:
    cols[k] holds the coordinates of theta^k * G_j for j < d, flat.
    """
    rows, lead = _to_z(coords)
    dm = len(rows) - m
    cols = [rows[:dm]]
    for _ in range(1, m):
        prev, nxt = cols[-1], []
        for lo in range(0, dm, m):
            t = prev[lo + m - 1]
            nxt.append(-t * mod[0])
            nxt.extend(prev[lo + r - 1] - t * mod[r] for r in range(1, m))
        cols.append(nxt)
    return cols, dm // m, lead


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


def _flat(f):
    """The coordinates of the KPoly f, m per coefficient, in one list."""
    return [c for a in f.coeffs for c in a.coords]


def _from_z(K, rows, den):
    """The KPoly with flat integer coordinates ``rows`` over ``den``."""
    m = K.m
    out = []
    for lo in range(0, len(rows), m):
        block = rows[lo:lo + m]
        out.append(KElem(K, [Fraction(n, den) for n in block]) if any(block) else K.zero)
    return KPoly(K, out)


class BaseField:
    """Unramified p-adic base field with exact Q(theta) coefficients."""

    def __init__(self, p: int, m: int = 1, gen_minpoly=None):
        if p < 3 or not _is_prime(p):
            raise ValueError("residue characteristic must be an odd prime")
        if gen_minpoly is None:
            gen_minpoly = find_irreducible_int_poly(p, m)
        gen_minpoly = tuple(int(c) for c in gen_minpoly)
        if len(gen_minpoly) != m + 1 or gen_minpoly[-1] != 1:
            raise ValueError("gen_minpoly must be monic of degree m")
        self.p = p
        self.m = m
        self.gen_minpoly = gen_minpoly
        if m == 1:
            self.residue_field = prime_field(p)
        else:
            red = FFPoly.from_ints(prime_field(p), gen_minpoly)
            if not is_irreducible(red):
                raise ValueError("gen_minpoly reduction mod p must stay irreducible")
            self.residue_field = FField(p, gen_minpoly)
        self.zero = KElem(self, (Fraction(0),) * m)
        self.one = KElem(self, (Fraction(1),) + (Fraction(0),) * (m - 1))

    def elem(self, *coords) -> "KElem":
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) > self.m:
            raise ValueError("too many coordinates")
        return KElem(self, cs + (Fraction(0),) * (self.m - len(cs)))

    def rat(self, x) -> "KElem":
        return self.elem(Fraction(x))

    @property
    def theta(self) -> "KElem":
        if self.m == 1:
            return self.zero
        return self.elem(*([0, 1]))

    def poly(self, coeffs) -> "KPoly":
        out = []
        for c in coeffs:
            if isinstance(c, KElem):
                out.append(c)
            else:
                out.append(self.rat(c))
        return KPoly(self, out)

    def x(self) -> "KPoly":
        return self.poly([0, 1])

    def __repr__(self):
        return f"Q_{self.p}" if self.m == 1 else f"Q_{self.p}(theta_deg{self.m})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class KElem:
    __slots__ = ("field", "coords")

    def __init__(self, field: BaseField, coords):
        self.field = field
        self.coords = tuple(coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, KElem) and other.field is self.field
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other):
        return KElem(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return KElem(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return KElem(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        K = self.field
        if K.m == 1:
            return KElem(K, (self.coords[0] * other.coords[0],))
        out = [Fraction(0)] * (2 * K.m - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    out[i + j] += a * b
        mod = K.gen_minpoly
        for i in range(len(out) - 1, K.m - 1, -1):
            c = out[i]
            if c:
                out[i] = Fraction(0)
                for j in range(K.m):
                    out[i - K.m + j] -= c * mod[j]
        return KElem(K, tuple(out[:K.m]))

    def inverse(self) -> "KElem":
        K = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if K.m == 1:
            return KElem(K, (1 / self.coords[0],))
        # extended Euclid in Q[x] against the defining polynomial: maintain
        # s with s * self = r (mod minpoly); degrees of s stay below m
        a = [Fraction(c) for c in K.gen_minpoly]
        b = [c for c in self.coords]
        while b and b[-1] == 0:
            b.pop()
        s_prev, s_cur = [Fraction(0)], [Fraction(1)]
        while len(b) > 1:
            q, r = _qpoly_divmod(a, b)
            prod = [Fraction(0)] * (len(q) + len(s_cur))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s_cur):
                        prod[i + j] += qi * sj
            nxt = [Fraction(0)] * max(len(s_prev), len(prod))
            for i, c in enumerate(s_prev):
                nxt[i] += c
            for i, c in enumerate(prod):
                nxt[i] -= c
            while nxt and nxt[-1] == 0:
                nxt.pop()
            a, b = b, r
            s_prev, s_cur = s_cur, nxt
        inv = 1 / b[0]
        out = [c * inv for c in s_cur] + [Fraction(0)] * K.m
        return KElem(K, tuple(out[:K.m]))

    def __pow__(self, n: int) -> "KElem":
        if n < 0:
            return self.inverse() ** (-n)
        result, base = self.field.one, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def val(self):
        """Normalized valuation: min of coordinate p-adic valuations; val(p)=1."""
        return ext_min(vp_fraction(c, self.field.p) for c in self.coords)

    def residue(self) -> FFElem:
        """Reduction to the residue field; requires val >= 0."""
        if self.val() is not OO and self.val() < 0:
            raise NegativeValuation("cannot reduce an element of negative valuation")
        K, p = self.field, self.field.p
        k = K.residue_field
        acc = k.zero
        gen_pow = k.one
        for c in self.coords:
            num = c.numerator % p
            den = c.denominator % p
            acc = acc + k.elem(num * pow(den, -1, p)) * gen_pow
            gen_pow = gen_pow * k.gen if K.m > 1 else gen_pow
        return acc

    def __repr__(self):
        if self.field.m == 1:
            return str(self.coords[0])
        return "(" + " + ".join(f"{c}*th^{i}" if i else str(c)
                                for i, c in enumerate(self.coords) if c) + ")" \
            if not self.is_zero() else "0"


class KPoly:
    """Dense univariate polynomial over the base field; zero = empty tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: BaseField, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i) -> KElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def lead(self) -> KElem:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lead() == self.field.one

    def __eq__(self, other):
        return (isinstance(other, KPoly) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash(tuple(c.coords for c in self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return KPoly(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return KPoly(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return KPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return KPoly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return KPoly(self.field, out)

    def scale(self, c: KElem) -> "KPoly":
        return KPoly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "KPoly":
        result = self.field.poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        K = self.field
        if len(self.coeffs) < len(other.coeffs):
            return KPoly(K, []), self
        inv = None if other.is_monic() else other.lead().inverse()
        monic = other if inv is None else other.scale(inv)
        rows, den = _to_z(_flat(self))
        q, r, den = _zdivmod(rows, den, _zdivisor(_flat(monic), K.m, K.gen_minpoly))
        q = _from_z(K, q, den)
        return (q if inv is None else q.scale(inv)), _from_z(K, r, den)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "KPoly":
        K = self.field
        return KPoly(K, [K.rat(i) * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x: KElem) -> KElem:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subst_scaled_x(self, c_exp: int) -> "KPoly":
        """Return f(p^c * x)."""
        K = self.field
        scale = Fraction(K.p) ** c_exp
        out, power = [], Fraction(1)
        for c in self.coeffs:
            out.append(c * K.rat(power))
            power *= scale
        return KPoly(K, out)

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
            raise ValueError("expansion base must be monic of positive degree")
        if self.degree < phi.degree:
            out = (self,)
        else:
            K = self.field
            divisor = _zdivisor(_flat(phi), K.m, K.gen_minpoly)
            rows, den = _to_z(_flat(self))
            out = []
            while rows:
                rows, r, den = _zdivmod(rows, den, divisor)
                out.append(_from_z(K, r, den))
            out = tuple(out)
        if memo is not None:
            memo[(id(self), id(phi))] = (self, phi, out)
        return out

    def resultant(self, other) -> KElem:
        f, g = self, other
        K = self.field
        if f.is_zero() or g.is_zero():
            return K.zero
        sign = 1
        acc = K.one
        while g.degree > 0:
            r = f % g
            if r.is_zero():
                return K.zero
            if (f.degree * g.degree) % 2:
                sign = -sign
            acc = acc * g.lead() ** (f.degree - r.degree)
            f, g = g, r
        acc = acc * g.lead() ** f.degree
        return acc if sign > 0 else -acc

    def __repr__(self):
        if self.is_zero():
            return "KPoly(0)"
        return "KPoly[" + ", ".join(repr(c) for c in self.coeffs) + "]"


def discriminant_val(f: KPoly):
    """Valuation of disc(f) = res(f, f') / lc(f).

    This is the pipeline's only separability test: it raises NotSeparable
    when the resultant is zero, i.e. when f has a repeated root.  The value
    bounds the refinement depth of the cluster discovery.
    """
    r = f.resultant(f.derivative())
    if r.is_zero():
        raise NotSeparable("polynomial has repeated roots")
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
    k = K.residue_field

    # degree-t irreducible over the residue field, lifted to Z[theta][y]
    hbar = find_irreducible_over(k, t)
    h = KPoly(K, [K.elem(*[int(x) for x in c.coords]) for c in hbar.coeffs])

    # E = K[eta]/(h): vectors of t KElems

    def e_mul(u, v):
        out = (KPoly(K, u) * KPoly(K, v)) % h
        return list(out.coeffs) + [K.zero] * (t - len(out.coeffs))

    def flat(u):
        coords = []
        for c in u:
            coords.extend(c.coords)
        return coords

    eta = [K.zero, K.one] + [K.zero] * (t - 2)
    theta = [K.theta] + [K.zero] * (t - 1)

    for mult in range(1, p * M + 2):
        gen = [a + K.rat(mult) * b for a, b in zip(eta, theta)] if m > 1 else eta
        powers = [[K.one] + [K.zero] * (t - 1)]
        for _ in range(M):
            powers.append(e_mul(powers[-1], gen))
        rows = [flat(v) for v in powers]
        cols = rows[:M]  # column j of the system is the vector of gen^j
        sol = _gauss_solve_q(cols, [-x for x in rows[M]])
        if sol is None:
            if m == 1:
                raise AssertionError("degenerate extension of the rationals")
            continue
        if any(c.denominator != 1 for c in sol):
            continue
        minpoly = tuple(int(c) for c in sol) + (1,)
        red = FFPoly.from_ints(prime_field(p), minpoly)
        if not is_irreducible(red):
            continue
        K2 = BaseField(p, M, minpoly)
        theta_img_coords = _gauss_solve_q(cols, flat(theta))
        theta_img = K2.elem(*theta_img_coords)

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
            raise AssertionError("embedding failed minimal polynomial check")
        return K2, embed
    raise AssertionError("no primitive element found for the compositum")


def _gauss_solve_q(cols, rhs):
    """Solve over Q: sum_j x_j * cols[j] = rhs. cols: list of columns. None if unsolvable."""
    ncols = len(cols)
    nrows = len(rhs)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [Fraction(rhs[i])]
           for i in range(nrows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][ncols]
    return x
