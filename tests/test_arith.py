"""Exact arithmetic layer: extended rationals, base field, finite fields."""

import functools
import json
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clusterfibre.rationals import OO, qstr
from clusterfibre.errors import InputError, InternalInconsistency
from clusterfibre.field import (BaseField, KPoly, expansion_scope,
                                extend_unramified, discriminant_val)
from clusterfibre import field
from clusterfibre.ff import (FField, FFPoly, prime_field, ff_factor, ff_extend,
                             is_irreducible, find_irreducible_int_poly, find_irreducible_over)
from clusterfibre import ff
from clusterfibre.newton import is_key
from clusterfibre.valuation import MacLaneVal

from guards import refuse_constant_arithmetic


def _qparse(text):
    """The extended rational that qstr prints as ``text``."""
    return OO if text == "inf" else Fraction(text)


def _vp(x, p):
    """The p-adic valuation of a Fraction, one division at a time; OO at 0."""
    return OO if x == 0 else _vp_naive(x.numerator, p) - _vp_naive(x.denominator, p)


def _ext_min(values):
    """The least of some extended rationals; OO when there are none."""
    finite = [x for x in values if x is not OO]
    return min(finite) if finite else OO


class TestExtendedRationals:
    def test_infinity_has_no_arithmetic(self):
        # OO is the value of 0: it is compared, never added or scaled
        for op in (lambda: OO + Fraction(3, 2), lambda: Fraction(-5) + OO,
                   lambda: 2 * OO, lambda: OO * 0):
            with pytest.raises(TypeError):
                op()

    def test_total_order(self):
        assert Fraction(10**9) < OO
        assert not (OO < OO)
        assert OO <= OO
        assert OO > Fraction(-1)

    def test_qstr_roundtrip(self):
        for x in [Fraction(5, 3), Fraction(-7), Fraction(0), OO]:
            assert _qparse(qstr(x)) == x


def _kcoords(a):
    """The power-basis coordinates of the constant KPoly a, as Fractions."""
    return tuple(Fraction(n, a.den) for n in a.rows or (0,) * a.field.m)


class TestBaseField:
    def test_val_plain(self):
        K = BaseField(5)
        assert K.elem(Fraction(50, 3)).gauss_val() == 2
        assert K.elem(0).gauss_val() is OO
        assert K.elem(Fraction(3, 25)).gauss_val() == -2

    def test_val_unramified(self):
        # min of coordinate valuations: v3(6 + 9*theta) = min(1, 2) = 1
        K = BaseField(3, 2)
        a = K.elem(6, 9)
        assert a.gauss_val() == 1

    def test_val_multiplicative_random(self):
        K = BaseField(3, 2)
        rng = random.Random(7)
        for _ in range(10_000):
            a = K.elem(Fraction(rng.randrange(-40, 40), rng.randrange(1, 9)),
                       Fraction(rng.randrange(-40, 40), rng.randrange(1, 9)))
            b = K.elem(Fraction(rng.randrange(-40, 40), rng.randrange(1, 9)),
                       Fraction(rng.randrange(-40, 40), rng.randrange(1, 9)))
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).gauss_val() == a.gauss_val() + b.gauss_val()
            s = a + b
            if not s.is_zero():
                lo = min(a.gauss_val(), b.gauss_val())
                assert s.gauss_val() >= lo
                if a.gauss_val() != b.gauss_val():
                    assert s.gauss_val() == lo

    def test_residue_values(self):
        K = BaseField(5)
        assert K.elem(7).residue()[0] == K.residue_field.elem(2)
        assert K.elem(Fraction(10, 3)).residue()[0] == K.residue_field.elem(0)
        with pytest.raises(InputError, match="cannot reduce an element of negative valuation"):
            K.elem(Fraction(1, 5)).residue()

    def test_residue_unramified(self):
        K = BaseField(3, 2)
        k = K.residue_field
        a = K.elem(4, 1)  # theta + 4 -> gen + 1
        assert a.residue()[0] == k.gen + k.one

    def test_residue_is_ring_hom(self):
        K = BaseField(3, 2)
        rng = random.Random(1)
        for _ in range(50):
            a = K.elem(rng.randrange(-20, 20), rng.randrange(-20, 20))
            b = K.elem(rng.randrange(-20, 20), rng.randrange(-20, 20))
            assert (a * b).residue() == a.residue() * b.residue()
            assert (a + b).residue() == a.residue() + b.residue()

    def test_coefficients_are_constants(self):
        # a coefficient must be a constant of the same field
        K = BaseField(3, 2)
        for bad in (K.x(), K.poly([1, 1]), BaseField(3, 2).one, 5):
            with pytest.raises(InputError, match="constant of the field"):
                KPoly(K, [K.one, bad])
        with pytest.raises(InputError, match="constant of the field"):
            K.poly([K.x()])
        assert K.poly([K.one, K.zero, K.theta]) == K.poly([1, 0, K.elem(0, 1)])
        assert K.poly([K.zero, K.zero]).is_zero()
        # a constant has no inverse: a negative power is refused, not looped on
        with pytest.raises(InputError, match="negative power"):
            K.elem(2, 1) ** -1

    def test_repr_of_constants(self):
        K = BaseField(3, 2)
        assert repr(K.poly([K.elem(Fraction(1, 2), 1), 0, 1])) == "KPoly[(1/2 + 1*th^1), 0, (1)]"
        assert repr(K.zero) == "KPoly[]"
        assert repr(BaseField(5).poly([Fraction(-2, 3), 0, 1])) == "KPoly[-2/3, 0, 1]"


# ints: zero, small of either sign, and past 64 bits; Fractions: negative,
# and built from numerators and denominators that share factors
_ENTRY_INTS = st.one_of(st.just(0), st.integers(-50, 50),
                        st.integers(2 ** 64, 2 ** 80), st.integers(-2 ** 80, -2 ** 64))
_ENTRY_FRACTIONS = st.builds(lambda n, d, k: Fraction(n * k, d * k),
                             st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 20),
                             st.integers(1, 12))


def _entries(K):
    """Coefficients that K.poly takes: ints, Fractions and constants of K."""
    rational = st.one_of(_ENTRY_INTS, _ENTRY_FRACTIONS)
    constant = st.lists(rational, max_size=K.m).map(lambda cs: K.elem(*cs))
    return st.lists(st.one_of(rational, constant), max_size=6)


def _expression(K, coeffs):
    """The coefficient list as an expression of parse_poly: each coefficient
    a parenthesized sum of a/b literals times powers of th, times x^i."""
    terms = []
    for i, c in enumerate(coeffs):
        if not isinstance(c, KPoly):
            c = K.elem(c)
        coords = [f"({n}/{c.den})" + (f"*th^{j}" if j else "")
                  for j, n in enumerate(c.rows)]
        terms.append("(" + (" + ".join(coords) or "0") + f")*x^{i}")
    return " + ".join(terms) or "0"


class TestIntegerEntryPoints:
    """BaseField.elem and poly read ints and Fractions off their numerators
    and denominators, and parse_poly builds integer literals as ints."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_poly_is_the_sum_of_its_terms(self, m, data):
        K = _kernel_base(m)
        coeffs = data.draw(_entries(K))
        want = K.zero
        for i, c in enumerate(coeffs):
            want = want + (c if isinstance(c, KPoly) else K.elem(c)) * K.x() ** i
        got = K.poly(coeffs)
        assert (got.rows, got.den) == (want.rows, want.den)
        # lowest terms, no trailing zero coefficient
        assert math.gcd(got.den, *got.rows) == 1
        assert len(got.rows) % m == 0 and (not got.rows or any(got.rows[-m:]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_parse_poly_of_the_printed_list(self, m, data):
        from clusterfibre.cli import parse_poly
        K = _kernel_base(m)
        coeffs = data.draw(_entries(K))
        assert parse_poly(_expression(K, coeffs), K) == K.poly(coeffs)

    def test_integer_literals_are_ints(self):
        from clusterfibre.cli import _Tokens, _coefficient_list
        assert [type(_Tokens(t).number()) for t in ("0", " 12", "4/2", "3 / 7")] == \
            [int, int, Fraction, Fraction]
        assert _coefficient_list("-5,+0,2/4,7") == [-5, 0, Fraction(1, 2), 7]
        assert [type(c) for c in _coefficient_list("-5,+0,2/4,7")] == [int, int, Fraction, int]

    @pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.5")])
    def test_other_types_are_refused(self, bad):
        # a float, a str or a Decimal is not read as a rational
        name = type(bad).__name__
        for K in (BaseField(5), BaseField(3, 2)):
            with pytest.raises(InputError, match=f"not {name}"):
                K.elem(bad)
            with pytest.raises(InputError, match=f"not {name}"):
                K.poly([bad, 1])
            with pytest.raises(InputError, match=f"not {name}"):
                K.poly([1, K.one, bad])
        with pytest.raises(InputError, match=f"not {name}"):
            BaseField(3, 2).elem(1, bad)


class TestPrimality:
    """BaseField's primality test is deterministic Miller-Rabin, exact below
    field.PRIME_BOUND, and fails fast on large input."""

    CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to every prime base up to 7, 23 and 37 in turn
    STRONG = [3215031751, 3825123056546413051, 318665857834031151167461]

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        ns = list(range(-3, 3000)) + self.CARMICHAEL + self.STRONG
        ns += [rng.randrange(3, field.PRIME_BOUND) | 1 for _ in range(300)]
        primes = [sympy.randprime(10 ** k, 10 ** (k + 1)) for k in range(3, 24)]
        ns += primes + [a * b for a, b in zip(primes, primes[1:])] + [q * q for q in primes[:8]]
        ns += [sympy.prevprime(field.PRIME_BOUND), field.PRIME_BOUND - 2]
        for n in ns:
            assert field._is_prime(n) == sympy.isprime(n), n

    def test_pseudoprimes_are_composite(self):
        for n in self.CARMICHAEL + self.STRONG:
            assert not field._is_prime(n), n
            with pytest.raises(ValueError):
                BaseField(n)

    def test_bound_is_refused(self):
        # the bound itself is the least composite that passes every base
        with pytest.raises(ValueError, match="below"):
            BaseField(field.PRIME_BOUND)
        with pytest.raises(ValueError, match="below"):
            BaseField(2 ** 89 - 1)  # a Mersenne prime past the bound


def _vp_naive(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@st.composite
def _valued_integer(draw):
    """(n, p) with n = +-u * p^k, p | u allowed; k above 5000 for small p."""
    p = draw(st.one_of(st.sampled_from([2, 3, 5, 7, 101]),
                       st.integers(2, field.PRIME_BOUND)))
    k = draw(st.integers(0, 6000 if p < 1000 else 40))
    u = draw(st.integers(1, 10 ** 30)) * draw(st.sampled_from([1, -1]))
    return u * p ** k, p


class TestIntegerValuation:
    """field.vp_int, which divides by p^(2^k), against the plain loop."""

    @settings(max_examples=150, deadline=None)
    @given(_valued_integer())
    def test_against_the_loop(self, np_):
        n, p = np_
        assert field.vp_int(n, p) == _vp_naive(n, p)

    @pytest.mark.parametrize("p", [2, 3, 7, field.PRIME_BOUND - 2])
    def test_long_valuations(self, p):
        for k in (0, 1, 2, 3, 5000, 5001, 2 ** 13 - 1, 2 ** 13):
            if p > 7 and k > 100:
                continue
            for u in (1, -1, p + 1, p * p - 1):
                assert field.vp_int(u * p ** k, p) == k + _vp_naive(u, p)

    def test_zero_is_refused(self):
        with pytest.raises(ValueError):
            field.vp_int(0, 5)


class TestPhiExpand:
    def test_simple_square(self):
        K = BaseField(5)
        x = K.x()
        phi = K.poly([-5, 0, 1])
        g = phi * phi
        coeffs = g.phi_expand(phi)
        assert [c.coeffs for c in coeffs] == [(), (), (K.one,)]

    def test_paper_sextic(self):
        # (x^2-p)^3 - p^5 expands as [-p^5, 0, 0, 1] in phi = x^2 - p
        K = BaseField(5)
        phi = K.poly([-5, 0, 1])
        f = phi ** 3 - K.poly([5 ** 5])
        coeffs = f.phi_expand(phi)
        assert coeffs[0] == K.poly([-5 ** 5])
        assert coeffs[1].is_zero() and coeffs[2].is_zero()
        assert coeffs[3] == K.poly([1])

    def test_worked_cubic_example(self):
        # (x^3-2p)^2 - p x^2 (x^3-2p) expands as [0, -p x^2, 1]
        K = BaseField(7)
        p = 7
        phi = K.poly([-2 * p, 0, 0, 1])
        f = phi * phi - K.poly([0, 0, p]) * phi
        coeffs = f.phi_expand(phi)
        assert coeffs[0].is_zero()
        assert coeffs[1] == K.poly([0, 0, -p])
        assert coeffs[2] == K.poly([1])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, data):
        K = BaseField(3)
        dg = data.draw(st.integers(0, 30))
        dphi = data.draw(st.integers(1, 8))
        g = K.poly([data.draw(st.integers(-9, 9)) for _ in range(dg + 1)])
        phi = K.poly([data.draw(st.integers(-9, 9)) for _ in range(dphi)] + [1])
        coeffs = g.phi_expand(phi)
        acc = K.poly([])
        for c in reversed(coeffs):
            acc = acc * phi + c
        assert acc == g
        assert all(c.degree < phi.degree for c in coeffs)


def _reference_divmod(f, g):
    """Long division by the monic g, one constant coefficient at a time."""
    assert g.is_monic()
    K = f.field
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return KPoly(K, []), f
    quo = [K.zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = quo[i] = rem[i + g.degree]
        if not c.is_zero():
            for j, b in enumerate(g.coeffs):
                rem[i + j] = rem[i + j] - c * b
    return KPoly(K, quo), KPoly(K, rem)


def _reference_expand(f, phi):
    out = []
    g = f
    while not g.is_zero():
        g, r = _reference_divmod(g, phi)
        out.append(r)
    return tuple(out) if out else (KPoly(f.field, []),)


def _kernel_base(m):
    # built when a test runs, not at import: a field made at import would
    # shift the FField numbers in the parametrized ids further down
    return BaseField({1: 3, 2: 5, 3: 3}[m], m)


def _coordinate(p):
    """Integers, p-power denominators and denominators prime to p."""
    den = st.one_of(st.just(1), st.integers(1, 4).map(lambda k: p ** k),
                    st.sampled_from([2, 4, 7, 8, 11, 13, 16]).filter(lambda q: q % p))
    return st.builds(Fraction, st.integers(-40, 40), den)


def _element(K):
    return st.one_of(st.just(K.zero),
                     st.lists(_coordinate(K.p), min_size=K.m, max_size=K.m).map(K.elem))


def _centre(K, min_degree, max_degree):
    """A monic divisor with integer coordinates, the only one the kernel takes."""
    element = st.lists(st.integers(-40, 40), min_size=K.m, max_size=K.m).map(K.elem)
    return st.lists(element, min_size=min_degree,
                    max_size=max_degree).map(lambda low: K.poly(low + [K.one]))


def _kpoly(K, max_degree):
    return st.lists(_element(K), max_size=max_degree + 1).map(K.poly)


def _expand_back(coeffs, phi):
    acc = phi.field.poly([])
    for c in reversed(coeffs):
        acc = acc * phi + c
    return acc


class TestIntegerKernel:
    """phi_expand and divmod run on integer coordinates over a common
    denominator, by centres with integer coordinates; they must agree
    exactly with the Fraction loop."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, m, data):
        K = _kernel_base(m)
        f = data.draw(_kpoly(K, 9))
        phi = data.draw(_centre(K, 1, 3))
        g = data.draw(_centre(K, 0, 4))
        assert f.phi_expand(phi) == _reference_expand(f, phi)
        assert f.divmod(g) == _reference_divmod(f, g)
        assert f.divmod(phi) == _reference_divmod(f, phi)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_expansion_identity(self, m, data):
        K = _kernel_base(m)
        f = data.draw(_kpoly(K, 12))
        phi = data.draw(_centre(K, 1, 4))
        coeffs = f.phi_expand(phi)
        assert _expand_back(coeffs, phi) == f
        assert all(a.degree < phi.degree for a in coeffs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_non_monic_divisor_is_refused(self, m, data):
        K = _kernel_base(m)
        f = data.draw(_kpoly(K, 10))
        g = data.draw(_kpoly(K, 4).filter(lambda g: not g.is_monic()))
        with pytest.raises(InputError, match="divisor must be monic"):
            f.divmod(g)
        with pytest.raises(InputError, match="divisor must be monic"):
            f % g

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_cases(self, m):
        K = _kernel_base(m)
        phi = K.poly([-2, 1, 1])
        zero, const = K.poly([]), K.poly([K.elem(Fraction(7, 4))])
        low = K.poly([K.elem(3), K.elem(Fraction(1, 5))])
        for f in (zero, const, low):
            assert f.phi_expand(phi) == (f,)
            assert f.divmod(phi) == (zero, f)
        q, r = const.divmod(K.one)
        assert q == const and r.is_zero()

    def test_after_extend_unramified(self):
        # the image of theta under this embedding has denominator 72,
        # prime to p = 5, so f carries such denominators; a centre with
        # rational integer coefficients embeds with integer coordinates, and
        # one in the generator of K2 has them by construction
        K = BaseField(5, 2)
        K2, embed = extend_unramified(K, 3)
        th, th2 = K.theta, K2.theta
        f = K.poly([th, 5, K.elem(Fraction(1, 25)), th * th, -th, 1]) ** 2
        phi = K.poly([-5, 3, 1])
        f2, phi2 = (K2.poly([embed(c) for c in h.coeffs]) for h in (f, phi))
        assert phi2.den == 1
        assert any(c.denominator % 5 and c.denominator > 1
                   for a in f2.coeffs for c in _kcoords(a))
        assert f2.phi_expand(phi2) == _reference_expand(f2, phi2)
        assert tuple(K2.poly([embed(c) for c in a.coeffs]) for a in f.phi_expand(phi)) \
            == f2.phi_expand(phi2)
        psi2 = K2.poly([th2 - K2.elem(5), th2 * th2, 1])
        assert psi2.den == 1
        assert f2.phi_expand(psi2) == _reference_expand(f2, psi2)
        monic = K2.poly([th2 ** 3, -th2, 0, 1])
        assert f2.divmod(monic) == _reference_divmod(f2, monic)


class TestIntegerCentres:
    """The kernel divides only by monic centres with integer coordinates.  A
    monic centre over a denominator prime to p, integral as a p-adic
    polynomial, is refused by divmod, phi_expand and the chain, and is not a
    key polynomial."""

    @staticmethod
    def _centres():
        K, K2 = BaseField(11), BaseField(11, 2)
        return [K.poly([K.elem(Fraction(-1, 2)), 1]),
                K2.poly([K2.theta * K2.elem(Fraction(1, 7)), 0, 1])]

    def test_centres_with_a_denominator_are_refused(self):
        for phi in self._centres():
            K = phi.field
            assert phi.is_monic() and phi.gauss_val() == 0 and phi.den in (2, 7)
            for f in (K.one, K.poly([1, 2, 3, 4, 5])):
                with pytest.raises(InputError, match="divisor must be monic with integer"):
                    f.divmod(phi)
                with pytest.raises(InputError, match="expansion base must be monic of "
                                   "positive degree with integer coordinates"):
                    f.phi_expand(phi)
            with pytest.raises(InputError, match="integer coordinates"):
                MacLaneVal.gauss(K).augment_unchecked(phi, 1)

    def test_centres_with_a_denominator_are_not_keys(self):
        for phi in self._centres():
            assert not is_key(MacLaneVal.gauss(phi.field), phi)


def _fraction_divmod(f, g):
    """Schoolbook long division of Fraction lists, constant term first, by g
    with a nonzero last entry: (quotient, remainder of len(g) - 1 entries)."""
    rem = list(f)
    quo = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + len(g) - 1] / g[-1]
        for j, b in enumerate(g):
            rem[i + j] -= c * b
    return quo, rem[:len(g) - 1]


class TestScalarKernel:
    """Over Q_p (m = 1) the remainder kernel takes one integer per quotient
    coefficient, and by a linear centre it is synthetic division; divmod and
    phi_expand must agree with Fraction long division."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_centres_match_fraction_division(self, degree, data):
        K = BaseField(5)
        f = data.draw(st.lists(_coordinate(5), max_size=12))
        phi = [Fraction(data.draw(st.integers(-60, 60))) for _ in range(degree)]
        phi.append(Fraction(1))
        F, Phi = K.poly(f), K.poly(phi)
        assert F.divmod(Phi) == tuple(K.poly(h) for h in _fraction_divmod(f, phi))
        expansion, rest = [], f
        while any(rest):
            rest, r = _fraction_divmod(rest, phi)
            expansion.append(K.poly(r))
        coeffs = F.phi_expand(Phi)
        assert coeffs == (tuple(expansion) or (F,))
        assert _expand_back(coeffs, Phi) == F
        assert all(a.degree < degree for a in coeffs)


class TestExpansionKernel:
    """The one expansion kernel against the Fraction model of Q(theta) below:
    sum a_i phi^i = f with deg a_i < deg phi, each a_i in lowest terms and
    equal to the model's remainder, for m = 1, 2, 3 and centres of degree 1,
    2, 3 with integer coordinates; with denominators in f, and for
    deg f < deg phi."""

    @staticmethod
    def _draw(K, rng, degree, den):
        """A polynomial of the given degree over den: integer coordinates
        and a top coefficient 1/den, so its denominator is den exactly."""
        coeffs = [K.elem(*[rng.randrange(-30, 31) for _ in range(K.m)]) for _ in range(degree)]
        return K.poly(coeffs + [K.elem(Fraction(1, den))])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_the_fraction_model(self, m, d):
        K = _kernel_base(m)
        mod = [Fraction(c) for c in K.gen_minpoly]
        rng = random.Random(100 * m + d)
        for den_f in (1, 6, K.p ** 2, 4):
            low = [K.elem(*[rng.randrange(-30, 31) for _ in range(m)]) for _ in range(d)]
            phi = K.poly(low + [K.one])
            assert phi.is_monic() and phi.degree == d and phi.den == 1
            for degree in (d - 1, d, 3 * d + 1):
                f = self._draw(K, rng, degree, den_f)
                assert f.den == den_f
                digits = f.phi_expand(phi)
                assert all(_canonical(a) and a.degree < d for a in digits)
                total = []
                for a in reversed(digits):
                    total = _q_polymul(total, _q(phi), mod)
                    total = _q_trim([tuple(x + y for x, y in zip(u, v)) for u, v in
                                     zip_longest(total, _q(a), fillvalue=(Fraction(0),) * m)])
                assert total == _q(f)
                rest, want = _q(f), []
                while rest:
                    rest, r = _q_divmod(rest, _q(phi), mod)
                    want.append(r)
                assert [_q(a) for a in digits] == want
                assert len(digits) == degree // d + 1
                q, r = f.divmod(phi)
                assert (_q(q), _q(r)) == _q_divmod(_q(f), _q(phi), mod)
                assert _canonical(r) and (q.is_zero() or _canonical(q))


class TestKroneckerProduct:
    """Over Q_p a product of polynomials is one int product: its
    coefficients are the signed digits of that product, and must equal the
    schoolbook convolution, also where a coefficient reaches the bound the
    digit width is chosen from."""

    def test_matches_convolution(self):
        rng = random.Random(24)
        cases = [([1], [1]), ([0, 1], [-1]), ([-7] * 9, [-7] * 4), ([7, -7] * 5, [-7, 7] * 3),
                 ([2 ** 64, 0, 0, -1], [0, 2 ** 64 - 1]), ([-1, 1], [1, 1, 1, 1])]
        for _ in range(200):
            bits = rng.choice([1, 3, 30, 31, 64, 200])
            a, b = ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randrange(1, 12))]
                    for _ in range(2))
            cases.append((a, b))
        for a, b in cases:
            assert field._kronecker(a, b) == ff._conv(a, b), (a, b)

    def test_constant_factor(self):
        # a product with a constant factor scales the other factor's rows
        K = BaseField(5)
        for c, rows in [(-3, [7]), (Fraction(2, 15), [1, -2, 0, 4]), (5 ** 40, [-1, 0, 1])]:
            f, g = K.poly([c]), K.poly(rows)
            want = K.poly([c * r for r in rows])
            assert f * g == want and g * f == want

    def test_long_products(self):
        # the digits go through bytes with a bias of half a digit.  The
        # middle coefficients reach -bound and +bound: with 128 terms bound
        # has 71 bits and the digit is 9 whole bytes with no spare bit; with
        # 256 it has 72, so the 73-bit digit takes 10 bytes, where a digit
        # one bit narrower would take 9, too few for +-bound and its sign
        top = (1 << 32) - 1
        for k in (128, 256):
            bound = top * top * k
            for a, b in [([top] * k, [-top] * k), ([top] * k, [top] * k),
                         ([-top] * k, [-top] * (k + 72))]:
                got = field._kronecker(a, b)
                assert max(map(abs, got)) == bound and got == ff._conv(a, b)
        rng = random.Random(25)
        for _ in range(40):
            bits = rng.choice([1, 8, 30, 64, 200, 512])
            a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randrange(1, 160))]
            b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randrange(64, 160))]
            got = field._kronecker(a, b)
            assert min(got) < 0 and got == ff._conv(a, b), (a, b)


# A test-local model of Q(theta): an element is a tuple of m Fraction
# power-basis coordinates, a polynomial a list of such tuples.  Every
# operation is Fraction arithmetic, independent of the integer layer.

def _q_reduce(row, mod):
    m = len(mod) - 1
    row = list(row) + [Fraction(0)] * max(0, m - len(row))
    for i in range(len(row) - 1, m - 1, -1):
        c, row[i] = row[i], Fraction(0)
        for j in range(m):
            row[i - m + j] -= c * mod[j]
    return tuple(row[:m])


def _q_mul(a, b, mod):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _q_reduce(out, mod)


def _q_inverse(a, mod):
    """Solve a * y = 1 by Gauss-Jordan elimination over Q."""
    m = len(a)
    cols, col = [], tuple(a)
    for _ in range(m):
        cols.append(col)
        col = _q_reduce((Fraction(0),) + col, mod)
    aug = [[cols[j][i] for j in range(m)] + [Fraction(int(i == 0))] for i in range(m)]
    for k in range(m):
        piv = next(i for i in range(k, m) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(m):
            if i != k:
                aug[i] = [x - aug[i][k] * y for x, y in zip(aug[i], aug[k])]
    return tuple(row[m] for row in aug)


def _q_trim(f):
    f = list(f)
    while f and not any(f[-1]):
        f.pop()
    return f


def _q_polymul(f, g, mod):
    m = len(mod) - 1
    if not f or not g:
        return []
    out = [(Fraction(0),) * m] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = tuple(x + y for x, y in zip(out[i + j], _q_mul(a, b, mod)))
    return _q_trim(out)


def _q_divmod(f, g, mod):
    f, g = _q_trim(f), _q_trim(g)
    m = len(mod) - 1
    inv = _q_inverse(g[-1], mod)
    quo = [(Fraction(0),) * m] * max(0, len(f) - len(g) + 1)
    for i in range(len(f) - len(g), -1, -1):
        c = quo[i] = _q_mul(f[i + len(g) - 1], inv, mod)
        for j, b in enumerate(g):
            f[i + j] = tuple(x - y for x, y in zip(f[i + j], _q_mul(c, b, mod)))
    return _q_trim(quo), _q_trim(f[:len(g) - 1])


def _q_det(rows, mod):
    """Determinant over Q(theta) by Gaussian elimination."""
    m = len(mod) - 1
    rows = [list(r) for r in rows]
    det = (Fraction(1),) + (Fraction(0),) * (m - 1)
    for k in range(len(rows)):
        piv = next((i for i in range(k, len(rows)) if any(rows[i][k])), None)
        if piv is None:
            return (Fraction(0),) * m
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = tuple(-x for x in det)
        det = _q_mul(det, rows[k][k], mod)
        inv = _q_inverse(rows[k][k], mod)
        for i in range(k + 1, len(rows)):
            c = _q_mul(rows[i][k], inv, mod)
            rows[i] = [tuple(x - y for x, y in zip(u, _q_mul(c, w, mod)))
                       for u, w in zip(rows[i], rows[k])]
    return det


def _q_resultant(f, g, mod):
    """res(f, g) as the determinant of the Sylvester matrix."""
    m = len(mod) - 1
    zero = (Fraction(0),) * m
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = [[zero] * i + list(reversed(f)) + [zero] * (n - df - 1 - i) for i in range(dg)]
    rows += [[zero] * i + list(reversed(g)) + [zero] * (n - dg - 1 - i) for i in range(df)]
    return _q_det(rows, mod)


def _q_val(a, p):
    return _ext_min(_vp(c, p) for c in a)


def _q_residue(a, k, p):
    """The reduction coordinatewise, by a running power of the generator."""
    acc, power = k.zero, k.one
    for c in a:
        acc = acc + k.elem(c.numerator * pow(c.denominator, -1, p)) * power
        power = power * k.gen if k.degree > 1 else power
    return acc


def _q(f):
    return [_kcoords(a) for a in f.coeffs]


def _canonical(x):
    """x is stored in lowest terms over a positive denominator, with no
    trailing zero coefficient."""
    rows, m = x.rows, x.field.m
    assert x.den > 0 and math.gcd(x.den, *rows) == 1
    assert len(rows) % m == 0 and (not rows or any(rows[-m:]))
    return True


class TestIntegerRepresentation:
    """A KPoly stores integer coordinates over one denominator, and an
    element of the field is a constant KPoly; every operation must agree
    with the Fraction model above."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_elements(self, m, data):
        K = _kernel_base(m)
        mod = [Fraction(c) for c in K.gen_minpoly]
        a, b = data.draw(_element(K)), data.draw(_element(K))
        assert all(_canonical(x) for x in (a, b, a + b, a - b, a * b, -a, a ** 3))
        assert all(x.degree < 1 for x in (a, b, a + b, a - b, a * b))
        ac, bc = _kcoords(a), _kcoords(b)
        assert _kcoords(a + b) == tuple(x + y for x, y in zip(ac, bc))
        assert _kcoords(a - b) == tuple(x - y for x, y in zip(ac, bc))
        assert _kcoords(a * b) == _q_mul(ac, bc, mod)
        assert a * b == b * a and (a - b) + b == a
        assert a.gauss_val() == _q_val(ac, K.p)
        if a.gauss_val() is OO or a.gauss_val() >= 0:
            assert a.residue()[0] == _q_residue(ac, K.residue_field, K.p)
        else:
            with pytest.raises(InputError, match="cannot reduce an element of negative valuation"):
                a.residue()
        # lowest terms: equal values are equal objects
        assert K.elem(*ac) == a and a.den > 0
        assert K.poly([a]) == a and a.coeffs == ((a,) if not a.is_zero() else ())

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_polynomials(self, m, data):
        K = _kernel_base(m)
        mod = [Fraction(c) for c in K.gen_minpoly]
        f, g = data.draw(_kpoly(K, 6)), data.draw(_kpoly(K, 3))
        monic = data.draw(_centre(K, 0, 3))
        assert _q(f * g) == _q_polymul(_q(f), _q(g), mod)
        assert all(_canonical(x) for x in (f, g, f * g, f + g, f - g, f.derivative()))
        one = (Fraction(1),) + (Fraction(0),) * (m - 1)
        assert f.is_monic() == (bool(_q(f)) and _q(f)[-1] == one)
        assert f.gauss_val() == _ext_min([_q_val(a, K.p) for a in _q(f)])
        q, r = f.divmod(monic)
        assert (_q(q), _q(r)) == _q_divmod(_q(f), _q(monic), mod)
        assert _canonical(q) and _canonical(r)
        phi = data.draw(_centre(K, 1, 3))
        rest, expansion = _q(f), []
        while rest:
            rest, r = _q_divmod(rest, _q(phi), mod)
            expansion.append(r)
        assert [_q(a) for a in f.phi_expand(phi)] == (expansion or [[]])
        if f.degree >= 1 and g.degree >= 1:
            assert _kcoords(f.resultant(g)) == _q_resultant(_q(f), _q(g), mod)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gauss_val_cache(self, m, data):
        # filled on the first call, from the stored lowest-terms coordinates
        K = _kernel_base(m)
        f, g = data.draw(_kpoly(K, 5)), data.draw(_kpoly(K, 3))
        for h in (f, g, f * g, f - g, f.derivative(), f.subst_scaled_x(-1)):
            assert h._gauss is None
            want = field._content_val(h.rows, h.den, K.p)
            assert want == _ext_min([_q_val(a, K.p) for a in _q(h)])
            assert h.gauss_val() == want and h._gauss == want
            assert h.gauss_val() == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_polynomial_residue(self, m, data):
        K = _kernel_base(m)
        f = data.draw(_kpoly(K, 5).filter(lambda f: not f.is_zero()))
        alpha = data.draw(st.integers(-2, 2))
        scaled = [tuple(c * Fraction(K.p) ** -alpha for c in a) for a in _q(f)]
        if f.gauss_val() >= alpha:
            expected = [_q_residue(a, K.residue_field, K.p) for a in scaled]
            assert f.residue(alpha) == FFPoly(K.residue_field, expected)
        else:
            with pytest.raises(InputError, match="cannot reduce an element of negative valuation"):
                f.residue(alpha)

    def test_monic(self):
        K = BaseField(5, 2)
        assert K.poly([K.theta, 1]).is_monic()
        for lead in (K.theta, K.one + K.theta, K.elem(2), K.elem(Fraction(1, 5))):
            f = K.poly([1, lead])
            assert not f.is_monic()
            with pytest.raises(ValueError):
                K.x().phi_expand(f)
        assert not K.poly([]).is_monic()

    def test_no_fraction_in_the_arithmetic(self, monkeypatch):
        # the arithmetic must not build a Fraction: make building one fail
        K = BaseField(5, 2)
        f = K.poly([K.elem(Fraction(1, 3), 2), K.elem(Fraction(5, 7)), K.elem(0, 1), 1])
        g = K.poly([K.elem(2, Fraction(-1, 25)), K.elem(3, 1)])
        a = K.elem(Fraction(2, 15), 4)
        b = K.elem(3, Fraction(5, 7))
        phi = K.poly([K.elem(1, 1), 0, 1])

        def no_fraction(*args, **kwargs):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(field, "Fraction", no_fraction)
        f * g + f - g
        f.divmod(phi)
        f.phi_expand(phi)
        f.resultant(g).gauss_val()
        f.gauss_val()
        f.subst_scaled_x(-2)
        (a * b - b ** 3).gauss_val()
        (b * b - b ** 3).residue()
        f.residue(0)


@st.composite
def _sparse_kpoly(draw, K, max_degree):
    """A nonzero lead and at most two other nonzero coefficients, so the
    remainder sequence drops by more than one degree at a time."""
    d = draw(st.integers(0, max_degree))
    coeffs = [K.zero] * (d + 1)
    for i in draw(st.lists(st.integers(0, d), max_size=2)):
        coeffs[i] = draw(_element(K))
    coeffs[d] = draw(_element(K).filter(lambda a: not a.is_zero()))
    return K.poly(coeffs)


class TestResultant:
    """KPoly.resultant, the subresultant PRS over Z[theta], against the
    Sylvester determinant of the Fraction model."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_against_sylvester(self, m, data):
        K = _kernel_base(m)
        mod = [Fraction(c) for c in K.gen_minpoly]
        shape = st.one_of(_kpoly(K, 8), _sparse_kpoly(K, 8)).filter(lambda f: not f.is_zero())
        f, g = data.draw(shape), data.draw(shape)
        res = f.resultant(g)
        assert _canonical(res)
        assert _kcoords(res) == _q_resultant(_q(f), _q(g), mod)
        swapped = g.resultant(f)
        assert swapped == (res if f.degree * g.degree % 2 == 0 else -res)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_common_factor_and_products(self, m, data):
        K = _kernel_base(m)
        shape = st.one_of(_kpoly(K, 3), _sparse_kpoly(K, 3)).filter(lambda f: not f.is_zero())
        f, g, h = data.draw(shape), data.draw(shape), data.draw(shape)
        assert f.resultant(g * h) == f.resultant(g) * f.resultant(h)
        if h.degree >= 1:
            assert (f * h).resultant(g * h).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_constant_and_zero_operands(self, m):
        K = _kernel_base(m)
        c = K.elem(Fraction(2, 9), Fraction(-1, 7)) if m > 1 else K.elem(Fraction(2, 9))
        f = K.poly([K.elem(Fraction(1, 3)), 0, c, K.elem(5)])
        const, zero = K.poly([c]), K.poly([])
        assert f.resultant(const) == const.resultant(f) == c ** 3
        assert const.resultant(K.poly([7])) == K.one
        assert f.resultant(zero).is_zero() and zero.resultant(const).is_zero()

    def test_abnormal_sequence(self, monkeypatch):
        # Knuth's example (TAOCP vol. 2, 4.6.1): the remainder sequence has
        # degrees 8, 6, 4, 2, 1, 0, so three steps drop by two
        seen = []  # (deg a, deg b) of every pseudo-remainder taken
        prem = field._zprem

        def recording(a, b, mod):
            m = len(mod) - 1
            seen.append((len(a) // m - 1, len(b) // m - 1))
            return prem(a, b, mod)

        monkeypatch.setattr(field, "_zprem", recording)
        K = BaseField(3)
        f = K.poly([-5, 2, 8, -3, -3, 0, 1, 0, 1])
        g = K.poly([21, -9, -4, 0, 5, 0, 3])
        res = f.resultant(g)
        assert seen == [(8, 6), (6, 4), (4, 2), (2, 1)]
        assert _kcoords(res) == _q_resultant(_q(f), _q(g), [Fraction(c) for c in K.gen_minpoly])
        # the same drops over Z[theta], with theta in every coefficient
        K = BaseField(5, 2)
        th = K.theta
        f = K.poly([th, 0, 0, 3, 0, 0, 0, 0, 1])
        g = K.poly([K.elem(Fraction(2, 7)), 0, th, 0, 0, 0, 1])
        del seen[:]
        res = f.resultant(g)
        assert seen[:3] == [(8, 6), (6, 4), (4, 3)]
        assert _kcoords(res) == _q_resultant(_q(f), _q(g), [Fraction(c) for c in K.gen_minpoly])

    def test_inexact_division_raises(self):
        K = BaseField(5, 2)
        with pytest.raises(AssertionError, match="not exact"):
            field._zdivide_exactly([6, 7], [3], (0, 1))
        with pytest.raises(AssertionError, match="not exact"):
            field._zdivide_exactly([2, 1, 4, 0], [2, 0], K.gen_minpoly)
        assert field._zdivide_exactly([6, -9], [3], (0, 1)) == [2, -3]


class TestExpansionMemo:
    """phi-adic expansions are memoized within one scoped call and dropped
    when it returns."""

    def _tree(self):
        from clusterfibre.clusters import build_cluster_tree
        K = BaseField(5)
        return build_cluster_tree(K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5]), K)

    def test_scoped_equals_unscoped(self):
        K = BaseField(7)
        phi = K.poly([-14, 0, 0, 1])
        f = phi * phi - K.poly([0, 0, 7]) * phi + K.poly([3, 1])
        plain = f.phi_expand(phi)

        @expansion_scope
        def twice():
            assert field._EXPANSIONS.get() is not None
            return f.phi_expand(phi), f.phi_expand(phi)

        first, second = twice()
        assert isinstance(plain, tuple) and isinstance(first, tuple)
        assert first == plain and second is first
        assert f.phi_expand(phi) is not first  # nothing kept after the call

    def test_no_memo_after_entry_points(self, monkeypatch, capsys):
        from clusterfibre.clusters import build_cluster_tree, cluster_chain
        from clusterfibre.newton import reduce_poly
        from clusterfibre.cli import run
        scoped = []
        original = KPoly.phi_expand

        def spy(self, phi, upto=None):
            scoped.append(field._EXPANSIONS.get() is not None)
            return original(self, phi, upto)

        monkeypatch.setattr(KPoly, "phi_expand", spy)
        tree = self._tree()
        assert field._EXPANSIONS.get() is None
        cc = cluster_chain(tree.nodes[-1])
        reduce_poly(cc, tree.field.poly([1, 2, 3]))
        assert field._EXPANSIONS.get() is None
        assert run(["fibre", "(x^2-5)^3 - 5^5", "--prime", "5"]) == 0
        assert field._EXPANSIONS.get() is None
        assert scoped and all(scoped)
        K = tree.field
        with pytest.raises(InputError, match="polynomial has repeated roots"):
            build_cluster_tree(K.poly([-5, 1]) ** 2, K)
        assert field._EXPANSIONS.get() is None
        with pytest.raises(ValueError):
            reduce_poly(cc, K.poly([]))
        assert field._EXPANSIONS.get() is None
        assert run(["picture", "(x-5)^2", "--prime", "5"]) == 1
        assert field._EXPANSIONS.get() is None

    def test_nothing_retained_between_calls(self, monkeypatch):
        from clusterfibre.clusters import cluster_chain
        from clusterfibre.newton import reduce_poly
        tree = self._tree()
        cc = cluster_chain(tree.nodes[-1])
        K = tree.field
        g = K.poly([7, -3, 0, 2, 1])
        reduce_poly(cc, K.poly([1, 1]))  # builds and caches the residue tower
        counts = [0]
        original = field._zexpand

        def counting(f, phi, limit=None):
            counts[0] += 1
            return original(f, phi, limit)

        monkeypatch.setattr(field, "_zexpand", counting)
        first = reduce_poly(cc, g)
        n_first, counts[0] = counts[0], 0
        second = reduce_poly(cc, g)
        assert n_first > 0 and counts[0] == n_first
        assert first.poly == second.poly

    def test_threads_keep_their_own_scope(self):
        import sys
        import threading
        from clusterfibre.clusters import cluster_chain
        from clusterfibre.newton import reduce_poly
        tree = self._tree()
        cc = cluster_chain(tree.nodes[-1])
        K = tree.field
        rng = random.Random(5)
        polys = [K.poly([rng.randrange(-30, 30) for _ in range(rng.randrange(2, 8))])
                 for _ in range(12)]
        polys = [g for g in polys if not g.is_zero()]
        expected = [reduce_poly(cc, g).poly for g in polys]
        results = {}

        def work(t):
            results[t] = [reduce_poly(cc, g).poly for g in polys]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(results[t] == expected for t in range(4))


class TestResumableExpansion:
    """Inside a scope a partial expansion keeps its pending quotient q, with
    f = sum_i a_i phi^i + q phi^k, and a request for more coefficients
    resumes the kernel from q with the missing count: it never divides a
    part of f twice, and the result equals a fresh full expansion."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_resume_divides_only_what_is_missing(self, m, monkeypatch):
        K = _kernel_base(m)
        rng = random.Random(25 + m)
        calls = []  # (dividend, divisions made) of every kernel call
        original = field._zexpand

        def counting(f, phi, limit=None):
            out = original(f, phi, limit)
            calls.append((f, len(out) - 1))
            return out

        for d in (1, 1, 2, 2, 3):
            low = [K.elem(*[rng.randrange(-30, 31) for _ in range(m)]) for _ in range(d)]
            phi = K.poly(low + [K.one])
            assert phi.den == 1
            f = TestExpansionKernel._draw(K, rng, 5 * d + d // 2, 6)
            full = f.phi_expand(phi)  # unscoped: fresh, and not kept
            n = len(full)
            assert n == 6
            monkeypatch.setattr(field, "_zexpand", counting)
            for steps in [(1,), (2, 4), (1, 3, 5), (n - 1,), (n,), (n + 3,)]:
                del calls[:]
                parts = self._scoped(f, phi, steps)
                assert parts[-1] == full
                for want, part in zip(steps, parts):
                    assert part == full[:want]
                # each call starts from the quotient the last one left and
                # makes only the divisions that were missing, n - 1 in all
                done = 0
                for g, k in calls:
                    assert g.degree == f.degree - done * d
                    done += k
                assert done == n - 1
            monkeypatch.setattr(field, "_zexpand", original)

    @expansion_scope
    def _scoped(self, f, phi, steps):
        """The expansions of f for each count in ``steps`` and then all of
        it, in one scope, checking each pending quotient on the way."""
        out = []
        for upto in steps + (None,):
            part = f.phi_expand(phi, upto)
            _, _, coeffs, rest = field._EXPANSIONS.get()[(id(f), id(phi))]
            assert part == (coeffs if upto is None else coeffs[:upto])
            total = _expand_back(coeffs, phi)
            if rest is not None:
                assert rest.degree >= phi.degree
                total = total + rest * phi ** len(coeffs)
            assert total == f
            out.append(part)
        return out

    def test_short_polynomial_is_its_own_expansion(self, monkeypatch):
        K = _kernel_base(2)
        phi = K.poly([K.theta, 0, 1])
        f = K.poly([K.elem(Fraction(1, 3)), K.theta])
        monkeypatch.setattr(field, "_zexpand", lambda *a: pytest.fail("kernel called"))

        @expansion_scope
        def expand():
            return f.phi_expand(phi, 1), f.phi_expand(phi, 4), f.phi_expand(phi)

        first, second, third = expand()
        assert first == second == third == (f,)


class TestFiniteFields:
    def test_factor_cube(self):
        k = prime_field(5)
        f = FFPoly.from_ints(k, [-1, 3, -3, 1])
        factors = ff_factor(f)
        assert len(factors) == 1
        g, mult = factors[0]
        assert mult == 3
        assert g == FFPoly.from_ints(k, [-1, 1])

    def test_factor_split(self):
        k = prime_field(7)
        f = FFPoly.from_ints(k, [-1, 0, 1])
        factors = ff_factor(f)
        assert sorted(m for _, m in factors) == [1, 1]
        assert {g.coeffs[0] for g, _ in factors} == {k.elem(1), k.elem(-1)}

    def test_factor_irreducible_quadratic(self):
        k = prime_field(3)
        f = FFPoly.from_ints(k, [1, 0, 1])
        factors = ff_factor(f)
        assert factors == [(f, 1)]

    def test_factor_reconstruction_random(self):
        rng = random.Random(13)
        for p in (3, 5):
            k = prime_field(p)
            for _ in range(40):
                coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 9))] + [1]
                f = FFPoly.from_ints(k, coeffs)
                prod = f.lead()
                for g, mult in ff_factor(f, random.Random(99)):
                    assert is_irreducible(g)
                    assert g.is_zero() or g.lead() == k.one
                    for _ in range(mult):
                        prod = prod * g
                assert prod == f

    def test_factor_frobenius_power(self):
        # x^9 - x over F_3 = prod of all monic linear and quadratic-free parts
        k = prime_field(3)
        f = FFPoly.from_ints(k, [0, -1] + [0] * 7 + [1])
        prod = k.one
        for g, mult in ff_factor(f):
            for _ in range(mult):
                prod = prod * g
        assert prod == f

    def test_squarefree_input_makes_one_gcd(self, monkeypatch):
        # over GF(5^2) no root scan runs first; Yun's loop ends at the one
        # gcd(g, g') = 1 of a squarefree g, which is its own part
        k = _small_field(5, 2)
        t = k.gen
        g = FFPoly(k, [t, k.one]) * FFPoly(k, [t + k.one, k.one]) * FFPoly(k, [t, k.zero, k.one])
        assert g.gcd(g.derivative()).degree == 0
        calls = []
        gcd = FFPoly.gcd
        monkeypatch.setattr(FFPoly, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        assert ff.squarefree_decomposition(g) == [(g, 1)]
        assert len(calls) == 1
        # a square still splits by multiplicity
        h = FFPoly(k, [k.one, k.one])
        parts = ff.squarefree_decomposition(g * h * h)
        assert sorted((m, f.degree) for f, m in parts) == [(1, 4), (2, 1)]

    def test_extend_trivial(self):
        k = prime_field(5)
        h = FFPoly.from_ints(k, [-1, 1])
        step = ff_extend(k, h)
        assert step.src is step.dst is k
        assert step.matrix is None and step.basis is None
        assert step.root == k.elem(1)

    def test_extend_quadratic(self):
        k = prime_field(3)
        h = FFPoly.from_ints(k, [1, 0, 1])
        step = ff_extend(k, h)
        G, root = step.dst, step.root
        assert step.src is k and G.degree == 2
        assert (root * root + G.one).is_zero()

    def test_extend_tower(self):
        k = prime_field(3)
        h = FFPoly.from_ints(k, [1, 0, 1])
        G = ff_extend(k, h).dst
        h2 = _find_quadratic_irreducible(G)
        step = ff_extend(G, h2)
        assert step.src is G and step.dst.degree == 4
        assert _value(_mapped(step, h2), step.root).is_zero()
        assert step.evaluate(h2.rows) == [0] * 4

    def test_extend_past_generator_in_subfield(self):
        # h has prime-field coefficients, so its root Y generates only
        # GF(5^3) inside GF(25)[Y]/(h) = GF(5^6): Y is not a primitive element
        k = FField(5, find_irreducible_int_poly(5, 2))
        h = FFPoly.from_ints(k, [1, 1, 0, 1])
        step = ff_extend(k, h)
        assert step.dst.degree == 6
        assert is_irreducible(FFPoly.from_ints(prime_field(5), step.dst.modulus))
        assert _value(_mapped(step, h), step.root).is_zero()

    def test_shifted_root_is_caught(self, monkeypatch):
        # a root off the modulus breaks the root check: the solve returns
        # the root's coordinates in its last column, and 1 is added to the
        # first of them
        solve = ff._gauss_solve_mod_p

        def shifted(rows, rhs, p):
            sol = solve(rows, rhs, p)
            if sol is not None:
                sol[0][-1] = (sol[0][-1] + 1) % p
            return sol

        k, G = prime_field(3), FField(5, find_irreducible_int_poly(5, 2))
        cases = [(k, FFPoly.from_ints(k, [1, 0, 1])), (G, _find_quadratic_irreducible(G))]
        for F_, h in cases:
            ff_extend(F_, h)
        monkeypatch.setattr(ff, "_gauss_solve_mod_p", shifted)
        for F_, h in cases:
            with pytest.raises(InternalInconsistency, match="failed root check"):
                ff_extend(F_, h)

    def test_extend_rejects_reducible(self):
        k = prime_field(3)
        with pytest.raises(InputError, match="modulus of a field extension must be irreducible"):
            ff_extend(k, FFPoly.from_ints(k, [-1, 0, 1]))

    def test_linear_modulus_needs_no_irreducibility_test(self, monkeypatch):
        calls = []

        def spy(h):
            calls.append(h.degree)
            return is_irreducible(h)

        k = prime_field(5)
        F9 = FField(3, find_irreducible_int_poly(3, 2))
        monkeypatch.setattr(ff, "is_irreducible", spy)
        for F_, h in ((k, FFPoly.from_ints(k, [-1, 1])), (k, FFPoly.from_ints(k, [3, 2])),
                      (F9, FFPoly.x(F9) * F9.gen + F9.one)):
            step = ff_extend(F_, h)
            assert step.dst is F_ and step.basis is None and _value(h, step.root).is_zero()
        assert calls == []
        with pytest.raises(InputError, match="modulus of a field extension must be irreducible"):
            ff_extend(prime_field(3), FFPoly.from_ints(prime_field(3), [-1, 0, 1]))
        with pytest.raises(InputError, match="modulus of a field extension must be irreducible"):
            ff_extend(k, FFPoly.from_ints(k, [2]))
        assert calls == [2]

    def test_find_irreducible_int_poly(self):
        mod = find_irreducible_int_poly(3, 2)
        k = prime_field(3)
        assert is_irreducible(FFPoly.from_ints(k, mod))


def _gauss_count(q, n):
    """Number of monic irreducibles of degree n over GF(q):
    (1/n) sum_{e | n} mu(e) q^(n/e)."""
    def mobius(e):
        sign, k = 1, 2
        while e > 1:
            if e % k == 0:
                e //= k
                if e % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign
    return sum(mobius(e) * q ** (n // e) for e in range(1, n + 1) if n % e == 0) // n


def _school_divmod(a, b):
    """Schoolbook long division on lists of constants (b nonzero, trimmed)."""
    k = b[0].field
    rem = list(a)
    quo = [k.zero] * max(0, len(rem) - len(b) + 1)
    inv = b[-1].inverse()
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv
        quo[i] = c
        for j, bj in enumerate(b):
            rem[i + j] = rem[i + j] - c * bj
    return quo, rem


def _school_mul(a, b):
    if not a or not b:
        return []
    k = a[0].field
    out = [k.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _monic_polys(k, n):
    """All monic degree-n polynomials over k, as lists of constants."""
    elems = [k.elem(tuple((v // k.p ** u) % k.p for u in range(k.degree)))
             for v in range(k.order)]
    for code in range(k.order ** n):
        yield [elems[(code // k.order ** i) % k.order] for i in range(n)] + [k.one]


def _irreducible_by_trial_division(f):
    k = f[0].field
    n = len(f) - 1
    for e in range(1, n // 2 + 1):
        for g in _monic_polys(k, e):
            if all(c.is_zero() for c in _school_divmod(f, g)[1]):
                return False
    return True


# fields of the kernel tests: prime fields, extensions of degree 2, 3 and 5,
# and a prime large enough that a packed digit spans several machine words
_KERNEL_FIELDS = [prime_field(3), BaseField(5, 2).residue_field, BaseField(5, 3).residue_field,
                  BaseField(3, 5).residue_field, prime_field(10007), prime_field(2 ** 61 - 1)]


@st.composite
def _kernel_polys(draw, k, max_len=8):
    """FFPoly over k with a nonzero lead; other coordinates may be any
    representative of their class mod p, not only 0 <= c < p."""
    n = draw(st.integers(0, max_len))
    coeffs = []
    for i in range(n):
        coords = [draw(st.integers(0, k.p - 1)) for _ in range(k.degree)]
        if i == n - 1:
            if not any(coords):
                coords[0] = 1
        else:
            coords = [c + k.p * draw(st.integers(-2, 2)) for c in coords]
        coeffs.append(k.elem(coords))
    return FFPoly(k, coeffs)


class TestResidueKernels:
    @pytest.mark.parametrize("p,m,max_degree", [(3, 1, 4), (3, 2, 3)])
    def test_is_irreducible_exhaustive(self, p, m, max_degree):
        k = prime_field(p) if m == 1 else BaseField(p, m).residue_field
        for n in range(1, max_degree + 1):
            count = 0
            for f in _monic_polys(k, n):
                verdict = is_irreducible(FFPoly(k, f))
                assert verdict == _irreducible_by_trial_division(f), f
                count += verdict
            assert count == _gauss_count(k.order, n)

    def test_is_irreducible_ignores_scaling(self):
        k = BaseField(5, 2).residue_field
        f = FFPoly.from_ints(k, [2, 1, 0, 1])
        for c in (k.elem(3), k.gen, k.gen + k.one):
            assert is_irreducible(f * c) == is_irreducible(f)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernels_match_schoolbook(self, data):
        k = data.draw(st.sampled_from(_KERNEL_FIELDS))
        a = data.draw(_kernel_polys(k))
        b = data.draw(_kernel_polys(k))
        f = data.draw(_kernel_polys(k).filter(lambda g: not g.is_zero()))
        assert a * b == FFPoly(k, _school_mul(a.coeffs, b.coeffs))
        # division may pass an input coefficient through unchanged, so it is
        # compared up to the representatives of the coordinates
        canon = lambda cs: FFPoly(k, [k.elem(c.rows) for c in cs])
        quo, rem = a.divmod(f)
        ref_quo, ref_rem = _school_divmod(a.coeffs, f.coeffs)
        assert (canon(quo.coeffs), canon(rem.coeffs)) == (canon(ref_quo), canon(ref_rem))
        n = data.draw(st.integers(0, 10 ** 6))
        mul_mod = lambda u, v: FFPoly(k, _school_divmod(_school_mul(u, v), f.coeffs)[1]).coeffs
        ref, square = [k.one], a.coeffs
        for bit in reversed(bin(n)[2:]):
            if bit == "1":
                ref = mul_mod(ref, square)
            square = mul_mod(square, square)
        assert a.pow_mod(n, f) == FFPoly(k, ref)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_steps_match_the_general_product(self, data):
        # over F_p an element product is one product and one residue, and a
        # product with a constant factor matches the packed product, taken
        # here as a * (X + c) - a * X
        k = data.draw(st.sampled_from([prime_field(3), prime_field(10007),
                                       prime_field(1_000_000_007), prime_field(2 ** 61 - 1)]))
        a = data.draw(_kernel_polys(k))
        x, y = (data.draw(st.integers(0, k.p - 1)) for _ in range(2))
        assert ff._fmul([x], [y], k) == [c % k.p for c in ff._theta_reduce(ff._conv([x], [y]), k.modulus)]
        assert k.elem(x) * k.elem(y) == k.elem(x * y)
        c = k.elem(y)
        assert a * c == c * a == a * (FFPoly.x(k) + c) - a.shift(1)

    @pytest.mark.parametrize("k", _KERNEL_FIELDS, ids=repr)
    def test_kernels_at_largest_digits(self, k):
        # every coordinate p - 1: the largest digits a packed product holds
        top = k.elem((k.p - 1,) * k.degree)
        for length in (1, 2, 7, 20):
            a = FFPoly(k, [top] * length)
            assert a * a == FFPoly(k, _school_mul(a.coeffs, a.coeffs))
            f = FFPoly(k, [top] * length + [k.one])
            square = FFPoly(k, _school_divmod(_school_mul(a.coeffs, a.coeffs), f.coeffs)[1])
            assert a.pow_mod(2, f) == square

    def test_pow_mod_exponent_of_field_size(self):
        # X^(q^2) = X mod every irreducible quadratic over GF(q)
        k = BaseField(5, 3).residue_field
        x = FFPoly.x(k)
        f = _find_quadratic_irreducible(k)
        assert x.pow_mod(k.order ** 2, f) == x
        assert x.pow_mod(k.order, f) != x

    def test_prime_field_inverse(self):
        k = prime_field(10007)
        for c in (1, 2, 5003, 10006, 10007 + 3):
            x = k.elem(c)
            assert (x * x.inverse()) == k.one

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), d=st.integers(1, 15), data=st.data())
    def test_inverse_over_every_degree(self, p, d, data):
        k = _small_field(p, d)
        coords = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d).filter(any))
        a = k.elem(coords)
        assert a * a.inverse() == k.one
        assert a.inverse().inverse() == a

    @pytest.mark.parametrize("p, d", [(3, 1), (5, 2), (3, 6), (5, 15), (7, 15)])
    def test_inverse_of_zero_raises(self, p, d):
        with pytest.raises(ZeroDivisionError):
            _small_field(p, d).zero.inverse()

    def test_inverse_solves_no_linear_system(self, monkeypatch):
        # the extended Euclidean algorithm on coordinates, not a d x d solve
        fields = [_small_field(p, d) for p, d in ((5, 2), (3, 6), (5, 15))]
        calls = []
        monkeypatch.setattr(ff, "_gauss_solve_mod_p", lambda *args: calls.append(args))
        rng = random.Random(15)
        for k in fields:
            for _ in range(20):
                a = k.elem([rng.randrange(k.p) for _ in range(k.degree)])
                if not a.is_zero():
                    assert a * a.inverse() == k.one
        assert calls == []

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_prime_field_division_matches_sympy(self, data):
        from sympy import Poly, div, symbols
        p = data.draw(st.sampled_from([3, 5, 7, 10007, 2 ** 61 - 1]))
        k = prime_field(p)
        a = data.draw(st.lists(st.integers(0, p - 1), max_size=14))
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
                      .filter(lambda b: b[-1]))
        f, g = FFPoly._of(k, a), FFPoly._of(k, b)
        x = symbols("x")
        want = div(Poly(a[::-1] or [0], x, modulus=p), Poly(b[::-1], x, modulus=p))
        q, r = f.divmod(g)
        assert (q, r) == tuple(FFPoly._of(k, [c % p for c in h.all_coeffs()[::-1]])
                               for h in want)
        assert all(0 <= c < p for c in q.rows + r.rows)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_compositum_of_the_slow_case(self):
        # the tower 1 -> 3 -> 15 at p = 5; both minimal polynomials depend on
        # the order in which ff.find_irreducible_over tries candidates and on
        # every verdict of is_irreducible along the way
        K3, _ = extend_unramified(BaseField(5), 3)
        assert K3.gen_minpoly == (1, 1, 0, 1)
        K15, _ = extend_unramified(K3, 5)
        assert K15.gen_minpoly == (131, 359, 243, 139, 290, -119, -166, -7, -165,
                                   0, 23, 22, 5, 5, 0, 1)


def _find_quadratic_irreducible(G):
    for a in range(G.p):
        for b in range(G.p):
            cand = FFPoly(G, [G.elem(a) + G.gen * G.elem(b), G.zero, G.one])
            if is_irreducible(cand):
                return cand
    raise AssertionError


def _value(f, x):
    """f(x) for the constant x, by Horner's rule on constants."""
    acc = f.field.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def _mapped(step, f):
    """f with every coefficient taken up by the step: its coordinates times
    the columns of the step's matrix."""
    G = step.dst
    return FFPoly(G, [sum((G.elem(x) * G.elem(col) for x, col in zip(c.rows, step.matrix)),
                          G.zero) for c in f.coeffs])


def _unsieved_search(k, t, block=0):
    """find_irreducible_over as it tests every candidate in counting order,
    from the block numbered ``block``: the base-p digits of code are the
    flat coordinates of c_0 .. c_{t-1}."""
    for code in range(block * k.order, k.order ** t):
        rows, c = [], code
        for _ in range(t * k.degree):
            c, digit = divmod(c, k.p)
            rows.append(digit)
        cand = FFPoly._of(k, rows + list(k.one.rows))
        if is_irreducible(cand):
            return cand
    raise AssertionError("no irreducible polynomial")


def _search_cases():
    """(p, [k:F_p], t) with p in {3, 5, 7}, q <= 400 and q^t <= 10^6, and
    the slow case's GF(125) with t = 5."""
    cases = [(p, d, t) for p in (3, 5, 7) for d in range(1, 6) if p ** d <= 400
             for t in range(1, 13) if p ** (d * t) <= 10 ** 6]
    return cases + [(5, 3, 5)]


@functools.lru_cache(maxsize=None)
def _small_field(p, d):
    return prime_field(p) if d == 1 else FField(p, find_irreducible_int_poly(p, d))


def _elements(k):
    return [k.elem(ff._coordinates(n, k.p, k.degree)) for n in range(k.order)]


def _flat(c):
    """The d coordinates of the constant c; a zero constant has no rows."""
    return list(c.rows or (0,) * c.field.degree)


def _trinomial_tail(k, t, c1):
    """The flat coordinates of the coefficients of X .. X^t of X^t + c_1 X."""
    return _flat(c1) + [0] * ((t - 2) * k.degree) + list(k.one.rows)


def _trinomials(k, t):
    """Every X^t + c_1 X + c_0 over k."""
    elements = _elements(k)
    return [FFPoly._of(k, _flat(c0) + _trinomial_tail(k, t, c1))
            for c1 in elements for c0 in elements]


class TestIrreducibleSearch:
    @pytest.mark.parametrize("p, d, t", _search_cases(), ids=str)
    def test_same_polynomial_as_testing_every_candidate(self, p, d, t):
        # the zero-derivative skip and the root sieve only pass over
        # reducible candidates, so the first irreducible is unchanged
        k = _small_field(p, d)
        assert find_irreducible_over(k, t) == _unsieved_search(k, t)

    @pytest.mark.parametrize("p, d, t", [(3, 1, 1), (5, 2, 1), (3, 1, 2), (3, 2, 2),
                                         (5, 1, 3), (3, 3, 3), (7, 1, 4), (5, 2, 4)])
    def test_rooted_constants_are_those_of_candidates_with_a_root(self, p, d, t):
        # exactly the c_0 with tail + c_0 reducible by a root, and none when
        # t = 1, where X + c_0 always has a root and is irreducible
        k = _small_field(p, d)
        elements = _elements(k)
        rng = random.Random(p * 100 + d * 10 + t)
        for _ in range(3):
            tail = [rng.randrange(p) for _ in range((t - 1) * d)] + list(k.one.rows)
            with_root = set()
            if t > 1:
                for n, c0 in enumerate(elements):
                    cand = FFPoly._of(k, _flat(c0) + tail)
                    if any(_value(cand, a).is_zero() for a in elements):
                        with_root.add(n)
            assert ff._rooted_constants(k, tail) == with_root

    @pytest.mark.parametrize("p, d, t", [(5, 1, 3), (3, 1, 4), (7, 1, 4), (3, 3, 4),
                                         (3, 1, 3), (3, 2, 3), (5, 1, 5), (5, 3, 5)])
    def test_barren_blocks_are_not_tested(self, monkeypatch, p, d, t):
        # no candidate of a block the rules rule out reaches Ben-Or's test:
        # X^t + c_0 when no binomial of degree t is irreducible, and, for
        # t = p, X^p + c_1 X + c_0 when x -> x^p + c_1 x is a bijection of k;
        # the blocks are numbered by c_1, brute force decides both rules
        k = _small_field(p, d)
        elements = _elements(k)
        number = {tuple(_flat(c)): n for n, c in enumerate(elements)}
        ruled_out = set()
        if not any(is_irreducible(FFPoly._of(k, _flat(c) + [0] * ((t - 1) * d)
                                             + list(k.one.rows))) for c in elements):
            ruled_out.add(0)
        if t == p:
            ruled_out |= {n for n, c in enumerate(elements)
                          if len({a ** p + c * a for a in elements}) == k.order}
        assert ruled_out  # each case reaches a rule
        tested = []

        def counted(f):
            tested.append(f)
            return is_irreducible(f)

        monkeypatch.setattr(ff, "is_irreducible", counted)
        assert find_irreducible_over(k, t) == _unsieved_search(k, t)
        assert tested
        assert [f for f in tested if not any(f.rows[2 * d:t * d])
                and number[tuple(f.rows[d:2 * d])] in ruled_out] == []

    @pytest.mark.parametrize("p, d", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2),
                                      (5, 2), (3, 3)])
    def test_binomial_rule_matches_brute_force(self, p, d):
        # some X^t + c_0 is irreducible exactly when every prime factor of t
        # divides q - 1, and q = 1 mod 4 when 4 | t
        k = _small_field(p, d)
        elements = _elements(k)
        for t in range(1, 13):
            found = any(is_irreducible(FFPoly._of(
                k, _flat(c) + [0] * ((t - 1) * d) + list(k.one.rows))) for c in elements)
            assert ff._has_irreducible_binomial(k.order, t) == found, (k.order, t)

    @pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
    def test_frobenius_block_rule_matches_brute_force(self, p, d):
        # for t = p the block X^p + c_1 X is skipped exactly when
        # x -> x^p + c_1 x is a bijection of k
        k = _small_field(p, d)
        elements = _elements(k)
        for code, c1 in enumerate(elements):
            tail = _flat(c1) + [0] * ((p - 2) * d) + list(k.one.rows)
            bijective = len({a ** p + c1 * a for a in elements}) == k.order
            assert ff._barren(k, p, code, tail) == bijective, (k.order, c1)

    @pytest.mark.parametrize("p, d, t", [(3, 1, 7), (3, 3, 7), (7, 1, 15), (3, 1, 19),
                                         (11, 1, 23), (3, 1, 31)])
    def test_parity_blocks_are_not_tested(self, monkeypatch, p, d, t):
        # p | t - 1, t = 3 mod 4 and q = 3 mod 4: every X^t + c_1 X + c_0 has
        # the non-square discriminant -c_0^(t-1), so by Stickelberger's
        # parity theorem none is irreducible; brute force agrees, every block
        # of the family is skipped, and none of its candidates is tested
        k = _small_field(p, d)
        family = _trinomials(k, t)
        assert not any(is_irreducible(f) for f in family)
        assert all(ff._barren(k, t, code, _trinomial_tail(k, t, c1))
                   for code, c1 in enumerate(_elements(k)))
        tested = []

        def counted(f):
            tested.append(f)
            return is_irreducible(f)

        monkeypatch.setattr(ff, "is_irreducible", counted)
        assert find_irreducible_over(k, t) == _unsieved_search(k, t)
        assert tested
        assert set(tested).isdisjoint(family)

    @pytest.mark.parametrize("p, d, t, count", [(3, 2, 7, 16), (5, 1, 11, 4), (3, 1, 13, 2),
                                                (7, 1, 11, 12)])
    def test_parity_rule_needs_each_condition(self, p, d, t, count):
        # each case misses one condition: q = 1 mod 4 makes -1 a square,
        # t = 1 mod 4 makes the sign +1, and p not dividing t - 1 keeps the
        # term in c_1^t; the family holds irreducibles, and no block
        # X^t + c_1 X, c_1 != 0, is skipped
        k = _small_field(p, d)
        assert sum(map(is_irreducible, _trinomials(k, t))) == count
        assert not any(ff._barren(k, t, code, _trinomial_tail(k, t, c1))
                       for code, c1 in enumerate(_elements(k)) if code)
        assert find_irreducible_over(k, t) == _unsieved_search(k, t)

    def test_slow_case_search_skips_the_rooted_blocks(self, monkeypatch):
        # over GF(125) the blocks X^5 + c_1 X + c_0 with c_1 in {1, 2, 3}
        # all have a root, and X^5 + c_0 is a fifth power: the parent search
        # tested 504 candidates, the Artin-Schreier rule tests its answer
        k = BaseField(5, 3).residue_field
        tested = []

        def counted(f):
            tested.append(f)
            return is_irreducible(f)

        monkeypatch.setattr(ff, "is_irreducible", counted)
        assert find_irreducible_over(k, 5) == _unsieved_search(k, 5)
        assert len(tested) <= 20

    @pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 8),
                                      (3, 9), (5, 1), (5, 2), (5, 4), (5, 5), (7, 1), (7, 2)])
    def test_artin_schreier_block_matches_brute_force(self, p, d):
        # for t = p the answer is X^p + c_1 X + t^j from one echelon pass;
        # testing every candidate agrees.  Past q = 3^6 the brute force starts
        # at the first block that _barren keeps, whose rules have their own
        # brute-force tests above: the blocks before it hold 2 q candidates
        # over GF(3^9), and the answer sits at c_0 = t^7 there
        k = _small_field(p, d)
        q = k.order
        block = 0
        if q > 3 ** 6:
            block = next(c for c in range(1, q) if not ff._barren(
                k, p, c, _trinomial_tail(k, p, k.elem(ff._coordinates(c, p, d)))))
        assert find_irreducible_over(k, p) == _unsieved_search(k, p, block)

    @pytest.mark.parametrize("p, m", [(3, 15), (3, 21), (7, 7)])
    def test_artin_schreier_search_tests_one_candidate(self, monkeypatch, p, m):
        # the searches that ran for minutes over GF(3^15), GF(3^21) and
        # GF(7^7): X^p + c_1 X + c_0 is irreducible only for c_0 outside a
        # hyperplane, which a search in counting order can reach late
        k = _small_field(p, m)
        tested = []

        def counted(f):
            tested.append(f)
            return is_irreducible(f)

        monkeypatch.setattr(ff, "is_irreducible", counted)
        f = find_irreducible_over(k, p)
        assert tested == [f] and f.degree == p
        assert not any(f.rows[2 * m:p * m]) and is_irreducible(f)


# A model of the residue layer on lists of coordinate tuples, one tuple per
# coefficient: the element-object loops the flat representation replaced,
# with their own element product (schoolbook, then reduction by the
# modulus) and inverse by x^(q - 2).

def _m_elem_mul(k, a, b):
    p, mod, d = k.p, k.modulus, k.degree
    out = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for i in range(len(out) - 1, d - 1, -1):
        c, out[i] = out[i], 0
        for j in range(d):
            out[i - d + j] = (out[i - d + j] - c * mod[j]) % p
    return tuple(out[:d])


def _m_elem_inv(k, a):
    n, result, base = k.order - 2, k.one.rows, a
    while n:
        if n & 1:
            result = _m_elem_mul(k, result, base)
        base = _m_elem_mul(k, base, base)
        n >>= 1
    return result


def _m_trim(k, cs):
    cs = [tuple(c % k.p for c in x) for x in cs]
    while cs and not any(cs[-1]):
        cs.pop()
    return cs


def _m_add(k, a, b, sign=1):
    zero = (0,) * k.degree
    n = max(len(a), len(b))
    a, b = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
    return _m_trim(k, [[x + sign * y for x, y in zip(u, v)] for u, v in zip(a, b)])


def _m_mul(k, a, b):
    if not a or not b:
        return []
    out = [(0,) * k.degree] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = tuple(s + t for s, t in zip(out[i + j], _m_elem_mul(k, x, y)))
    return _m_trim(k, out)


def _m_divmod(k, a, b):
    rem = list(a)
    quo = [(0,) * k.degree] * max(0, len(a) - len(b) + 1)
    inv = _m_elem_inv(k, b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = quo[i] = _m_elem_mul(k, rem[i + len(b) - 1], inv)
        for j, y in enumerate(b):
            rem[i + j] = tuple((s - t) % k.p for s, t in zip(rem[i + j], _m_elem_mul(k, c, y)))
    return _m_trim(k, quo), _m_trim(k, rem)


def _m_monic(k, a):
    return [_m_elem_mul(k, x, _m_elem_inv(k, a[-1])) for x in a] if a else a


def _m_gcd(k, a, b):
    while b:
        a, b = b, _m_divmod(k, a, b)[1]
    return _m_monic(k, a)


def _m_derivative(k, a):
    return _m_trim(k, [tuple(i * c for c in x) for i, x in enumerate(a)][1:])


def _m_pow_mod(k, a, n, f):
    result, square = [k.one.rows], _m_divmod(k, a, f)[1]
    while n:
        if n & 1:
            result = _m_divmod(k, _m_mul(k, result, square), f)[1]
        square = _m_divmod(k, _m_mul(k, square, square), f)[1]
        n >>= 1
    return _m_divmod(k, result, f)[1]


def _coords(f):
    """The model's form of f, after checking that f is stored canonically:
    d digits in [0, p) per coefficient and no trailing zero coefficient."""
    k, rows = f.field, f.rows
    d = k.degree
    assert isinstance(rows, tuple) and len(rows) % d == 0
    assert all(0 <= c < k.p for c in rows)
    assert not rows or any(rows[-d:])
    return [rows[lo:lo + d] for lo in range(0, len(rows), d)]


class TestFlatResidueRepresentation:
    """FFPoly stores flat coordinates mod p; every operation must agree with
    the coordinate-tuple model above."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_against_the_model(self, data):
        k = data.draw(st.sampled_from(_KERNEL_FIELDS))
        a = data.draw(_kernel_polys(k, max_len=6))
        b = data.draw(_kernel_polys(k, max_len=6))
        f = data.draw(_kernel_polys(k, max_len=5).filter(lambda g: not g.is_zero()))
        ma, mb, mf = _coords(a), _coords(b), _coords(f)
        assert _coords(a + b) == _m_add(k, ma, mb)
        assert _coords(a - b) == _m_add(k, ma, mb, -1)
        assert _coords(-a) == _m_add(k, [], ma, -1)
        assert _coords(a * b) == _m_mul(k, ma, mb)
        quo, rem = a.divmod(f)
        assert (_coords(quo), _coords(rem)) == _m_divmod(k, ma, mf)
        assert _coords(a // f) == _coords(quo) and _coords(a % f) == _coords(rem)
        assert _coords(a.gcd(b)) == _m_gcd(k, ma, mb)
        assert _coords(a.monic()) == _m_monic(k, ma)
        assert _coords(a.derivative()) == _m_derivative(k, ma)
        n = data.draw(st.integers(0, 10 ** 4))
        expected = _m_pow_mod(k, ma, n, mf) if n else [k.one.rows]
        assert _coords(a.pow_mod(n, f)) == expected
        c = k.elem(tuple(data.draw(st.integers(0, k.p - 1)) for _ in range(k.degree)))
        mc = _coords(c) or [(0,) * k.degree]
        assert _coords(a * c) == _coords(c * a) == _m_trim(k, [_m_elem_mul(k, x, mc[0]) for x in ma])
        assert _coords(a.shift(2)) == (_m_trim(k, [(0,) * k.degree] * 2 + ma) if ma else [])

    # fields of degree 1, 2, 6 and 15, one whose coordinates take more than
    # a byte, and the largest prime the kernels take
    _LONG_FIELDS = [FField(p, find_irreducible_int_poly(p, d))
                    for p, d in ((3, 1), (5, 2), (3, 6), (3, 15), (10007, 2))]
    _LONG_FIELDS.append(prime_field(2 ** 61 - 1))

    @pytest.mark.parametrize("k", _LONG_FIELDS, ids=repr)
    def test_long_operands_against_the_model(self, k):
        # operands of 1 to 40 coefficients whose leads lie outside F_p (not
        # 1 over F_p), and gcds with planted common factors
        rng = random.Random(k.p * 100 + k.degree)
        p, d = k.p, k.degree

        def draw(n):
            if not n:
                return []
            lead = [rng.randrange(1, p) for _ in range(d)] if d > 1 else [rng.randrange(2, p)]
            return [tuple(rng.randrange(p) for _ in range(d)) for _ in range(n - 1)] + [tuple(lead)]

        poly = lambda cs: FFPoly._of(k, [c for x in cs for c in x])
        sizes = [(1, 1), (2, 1), (3, 2), (5, 5), (8, 3), (13, 12), (21, 9), (33, 32),
                 (40, 17), (40, 39), (6, 40)]
        for na, nb in sizes:
            ma, mb = draw(na), draw(nb)
            a, b = poly(ma), poly(mb)
            assert _coords(a) == ma and _coords(b) == mb
            quo, rem = a.divmod(b)
            assert (_coords(quo), _coords(rem)) == _m_divmod(k, ma, mb), (na, nb)
            assert _coords(a.gcd(b)) == _m_gcd(k, ma, mb), (na, nb)
        for nc, nu, nv in [(1, 20, 19), (4, 30, 2), (9, 31, 25), (20, 1, 20)]:
            mc = draw(nc)
            ma, mb = _m_mul(k, mc, draw(nu)), _m_mul(k, mc, draw(nv))
            a, b, c = poly(ma), poly(mb), poly(mc)
            g = a.gcd(b)
            assert _coords(g) == _m_gcd(k, ma, mb) and g.is_monic()
            assert g.degree >= c.degree and (g % c).is_zero()
            assert a.divmod(c)[1].is_zero() and a // c * c == a

    @pytest.mark.parametrize("k", _KERNEL_FIELDS, ids=repr)
    def test_zero_and_constant_operands(self, k):
        zero, one = FFPoly(k, []), k.one
        c = k.elem((k.p - 1,) * k.degree)
        f = FFPoly(k, [k.gen, k.one, k.elem(2)])
        for a in (zero, one, c, f):
            ma = _coords(a)
            for b in (zero, one, c, f):
                mb = _coords(b)
                assert _coords(a * b) == _m_mul(k, ma, mb)
                assert _coords(a + b) == _m_add(k, ma, mb)
                assert _coords(a.gcd(b)) == _m_gcd(k, ma, mb)
                if mb:
                    assert tuple(map(_coords, a.divmod(b))) == _m_divmod(k, ma, mb)
            assert _coords(a.derivative()) == _m_derivative(k, ma)
        with pytest.raises(ZeroDivisionError):
            f.divmod(zero)
        assert FFPoly(k, [k.zero, k.zero]) == zero and zero.rows == ()

    @pytest.mark.parametrize("k", _KERNEL_FIELDS, ids=repr)
    def test_inverse(self, k):
        rng = random.Random(k.order % 1000)
        elems = [k.one, k.gen, k.elem((k.p - 1,) * k.degree)]
        elems += [k.elem(tuple(rng.randrange(k.p) for _ in range(k.degree))) for _ in range(20)]
        for x in elems:
            if x.is_zero():
                continue
            inv = x.inverse()
            assert inv == x ** (k.order - 2)
            assert inv.rows == _m_elem_inv(k, x.rows)
            assert x * inv == k.one

    def test_constructor_reduces_coordinates(self):
        # the public constructor takes any representative of a class mod p
        for k in (prime_field(5), FField(5, (2, 1, 1))):
            d = k.degree
            zero = k.elem((5, -10)[:d])
            assert zero.is_zero() and zero == k.zero and hash(zero) == hash(k.zero)
            with pytest.raises(ZeroDivisionError):
                zero.inverse()
            x = k.elem((7, -4)[:d])
            assert x.rows == (2, 1)[:d] and x == k.elem((2, 1)[:d])
            assert x.inverse() == k.elem((2, 1)[:d]).inverse()
            assert x * x.inverse() == k.one

    def test_elem_takes_at_most_degree_coordinates(self):
        with pytest.raises(InputError, match="coordinates"):
            prime_field(5).elem((1, 2))
        with pytest.raises(InputError, match="coordinates"):
            FField(5, (2, 1, 1)).elem((1, 2, 3))
        k = FField(5, (2, 1, 1))
        assert k.elem((6,)) == k.elem((1, 0)) == k.one and k.elem(()) == k.zero

    def test_negative_shift_raises(self):
        k = prime_field(5)
        for f in (FFPoly.x(k), k.one, k.zero):
            with pytest.raises(InputError, match="negative"):
                f.shift(-1)
        assert FFPoly.x(k).shift(0) == FFPoly.x(k)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_key_orders_by_degree_then_coordinates(self, data):
        # the flat key sorts as (number of coefficients, coordinate tuples)
        k = data.draw(st.sampled_from(_KERNEL_FIELDS[:4]))
        polys = data.draw(st.lists(_kernel_polys(k, max_len=4), min_size=2, max_size=6))
        reference = lambda f: (len(f.coeffs), _coords(f))
        assert sorted(polys, key=FFPoly.key) == sorted(polys, key=reference)
        # a linear factor sorts before a quadratic one with a smaller constant
        f = FFPoly.from_ints(prime_field(3), [2, 1, 2, 1])  # (X + 2)(X^2 + 1) over GF(3)
        assert [g.degree for g, _ in ff_factor(f)] == [1, 2]

    def test_kernels_run_on_ints(self, monkeypatch):
        # divmod, gcd, pow_mod, is_irreducible and ff_factor never multiply
        # two constants, and the first four never raise one to a power;
        # ff_factor takes the p-th roots of coefficients as powers of
        # constants, and only the products inside those powers are allowed
        k = BaseField(5, 2).residue_field
        g = FFPoly(k, [k.gen, k.elem(3), k.one])
        h = FFPoly(k, [k.elem(2), k.gen + k.one])
        f = g * g * g * g * g * h * FFPoly.x(k).shift(3)  # a 5th power: Frobenius roots
        expected = (f.divmod(h), f.gcd(g * h), g.pow_mod(k.order ** 2, f),
                    is_irreducible(g), is_irreducible(f), ff_factor(f, random.Random(1)))
        refuse_constant_arithmetic(monkeypatch, powers=False)
        assert (f.divmod(h), f.gcd(g * h), g.pow_mod(k.order ** 2, f),
                is_irreducible(g), is_irreducible(f)) == expected[:5]
        monkeypatch.undo()
        refuse_constant_arithmetic(monkeypatch)
        assert ff_factor(f, random.Random(1)) == expected[5]
        with pytest.raises(AssertionError, match="constant __mul__"):
            k.gen * k.gen  # the guard is live

    # (p, field modulus, h as coordinate tuples) -> (modulus of G, embedding
    # matrix, root), as the element-object construction produced them
    _EXTEND_PINS = [
        (3, (0, 1), [(1,), (0,), (1,)], ((1, 0, 1), [(1, 0)], (0, 1))),
        (5, (2, 0, 1), [(1, 0), (1, 0), (0, 0), (1, 0)],
         ((3, 0, 3, 2, 3, 0, 1), [(1, 0, 0, 0, 0, 0), (0, 3, 1, 0, 1, 3)], (0, 3, 4, 0, 4, 2))),
        (3, (1, 0, 1), [(2, 1), (1, 1), (0, 0), (1, 1)],
         ((1, 0, 1, 0, 2, 0, 1), [(1, 0, 0, 0, 0, 0), (0, 2, 0, 2, 0, 0)], (0, 1, 0, 0, 0, 0))),
        (5, (1, 1, 0, 1), [(1, 0, 0), (4, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)],
         ((1, 4, 3, 4, 0, 1, 4, 3, 0, 0, 3, 2, 0, 0, 0, 1),
          [(1,) + (0,) * 14, (0, 4, 4, 0, 0, 1, 2, 0, 0, 0, 4, 0, 0, 0, 0),
           (0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
          (0, 2, 1, 0, 0, 4, 3, 0, 0, 0, 1, 0, 0, 0, 0))),
    ]

    @pytest.mark.parametrize("p,modulus,h,expected", _EXTEND_PINS)
    def test_ff_extend_pins(self, p, modulus, h, expected):
        F = FField(p, modulus)
        step = ff_extend(F, FFPoly(F, [F.elem(c) for c in h]))
        assert (step.dst.modulus, step.matrix, step.root.rows) == expected


# Outputs of extend_unramified and of ff_extend with a nonlinear modulus,
# recorded from the constructions that solved one system per unknown: the
# minimal polynomial and theta image on a (p, m, t) grid, and the modulus,
# embedding matrix, root and basis rows over GF(p^a).  "tries" counts the
# generators tested; an "h" forces the residue polynomial of the extension
# to one whose first generator y + theta lies in a proper subfield.
_PINS = json.loads((Path(__file__).parent / "extension_pins.json").read_text())


def _pin_id(case):
    return ",".join(f"{k}={case[k]}" for k in ("p", "m", "a", "t") if k in case)


class TestUnramifiedExtension:
    @pytest.mark.parametrize("case", _PINS["extend_unramified"], ids=_pin_id)
    def test_pinned_extensions(self, case, monkeypatch):
        if case["h"] is not None:
            monkeypatch.setattr(field, "find_irreducible_over",
                                lambda k, t: FFPoly._of(k, case["h"] + list(k.one.rows)))
        calls = []
        solve = field._zsolve
        monkeypatch.setattr(field, "_zsolve", lambda *args: calls.append(args) or solve(*args))
        K = BaseField(case["p"], case["m"])
        calls.clear()
        K2, embed = extend_unramified(K, case["t"])
        assert list(K2.gen_minpoly) == case["minpoly"]
        assert [str(c) for c in _kcoords(embed(K.theta))] == case["theta"]
        assert len(calls) == case["tries"]  # one solve per generator tested
        assert case["tries"] == (1 if case["h"] is None else 2)

    @pytest.mark.parametrize("case", _PINS["ff_extend"], ids=_pin_id)
    def test_pinned_field_extensions(self, case, monkeypatch):
        F = FField(case["p"], case["F"])
        calls = []
        solve = ff._gauss_solve_mod_p
        monkeypatch.setattr(ff, "_gauss_solve_mod_p", lambda *args: calls.append(args) or solve(*args))
        step = ff_extend(F, FFPoly._of(F, case["h"]))
        assert list(step.dst.modulus) == case["modulus"]
        assert [list(col) for col in step.matrix] == case["emb"]
        assert list(step.root.rows) == case["root"]
        assert [list(row) for row in step.basis] == case["basis"]
        assert len(calls) == case["tries"]  # one elimination per generator tested

    def test_extend_from_qp(self):
        K = BaseField(3)
        K2, embed = extend_unramified(K, 2)
        assert K2.m == 2
        a = K.elem(Fraction(7, 2))
        assert embed(a).gauss_val() == a.gauss_val()
        assert (embed(a) * embed(a)) == embed(a * a)

    def test_extend_tower_gcd_not_one(self):
        # degree 2 extended again by 2: compositum of residue degree 4
        K = BaseField(3, 2)
        K2, embed = extend_unramified(K, 2)
        assert K2.m == 4
        th = K.theta
        img = embed(th)
        acc = K2.zero
        for c in reversed(K.gen_minpoly):
            acc = acc * img + K2.elem(c)
        assert acc.is_zero()
        # the embedding is a ring map, over denominators too
        a, b = K.elem(Fraction(2, 7), -5), K.elem(Fraction(1, 9), Fraction(4, 3))
        assert embed(a * b + a) == embed(a) * embed(b) + embed(a)
        assert embed(K.zero).is_zero() and embed(K.one) == K2.one

    def test_wrong_theta_image_is_caught(self, monkeypatch):
        # an image of theta off the old defining polynomial breaks the law
        solve = field._zsolve

        def shifted(*args):
            sol = solve(*args)
            if sol is None:
                return sol
            (lower, theta), d = sol
            return (lower, [theta[0] + d] + theta[1:]), d

        monkeypatch.setattr(field, "_zsolve", shifted)
        with pytest.raises(InternalInconsistency, match="minimal polynomial check"):
            extend_unramified(BaseField(3, 2), 2)

    def test_discriminant_val(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1])
        assert discriminant_val(f) == 1


def _oracle_draws(sympy, x):
    """(p, f, fk): seeded sympy polynomials f over Z at p in {3, 5, 7}, free
    draws, g^2 * h with a repeated root, and g * (g + p^k) with close roots,
    and fk the same polynomial over BaseField(p)."""
    rng = random.Random(4242)

    def rand(deg, size):
        cs = [rng.randrange(-size, size + 1) for _ in range(deg)]
        return sympy.Poly(cs + [rng.choice([1, -1, 2, 3])], x, domain="ZZ") \
            if deg else sympy.Poly(rng.choice([1, -2, 6]), x, domain="ZZ")

    for p in (3, 5, 7):
        K = BaseField(p)
        for trial in range(45):
            kind = trial % 3
            if kind == 0:    # free draw
                f = rand(rng.randrange(1, 8), p ** 3)
            elif kind == 1:  # g^2 * h: a repeated root
                f = rand(rng.randrange(1, 3), p ** 2) ** 2 * rand(rng.randrange(0, 4), p ** 2)
            else:            # g * (g + p^k): close roots, deep discriminant
                g = rand(rng.randrange(1, 3), p ** 2)
                f = g * (g + p ** rng.randrange(1, 5))
            yield p, f, K.poly([Fraction(int(c)) for c in reversed(f.all_coeffs())])


def _has_root(coeffs, p):
    """Whether the polynomial with these coefficients, constant first, has a
    root in F_p, by evaluation at every point."""
    return any(functools.reduce(lambda acc, c: (acc * a + c) % p, reversed(coeffs), 0) == 0
               for a in range(p))


def _factor_draws():
    """(p, coefficients) over GF(p), constant term first: seeded polynomials
    of degree 8 to 60, and up to 200 over GF(3) and GF(5); root-free ones;
    products of many roots whose multiplicities include multiples of p, times
    a cofactor; g^p * h products, some with a root-free g, whose squarefree
    decomposition strips a Frobenius layer; and draws at a prime above
    ff._ROOT_SCAN_MAX_P, where the roots go through the general path."""
    rng = random.Random(2026)

    def rand(deg, p):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    def rootless(deg, p):
        while True:
            coeffs = rand(deg, p)
            if not _has_root(coeffs, p):
                return coeffs

    def roots_times(k, pairs, cofactor):
        f = FFPoly.from_ints(k, cofactor)
        for a, m in pairs:
            f = f * FFPoly.from_ints(k, [-a, 1]) ** m
        return list(f.rows)

    for p in (3, 5, 7):
        k = prime_field(p)
        for _ in range(12):
            yield p, rand(rng.randrange(8, 61), p)
        for _ in range(4):
            g, h = (FFPoly.from_ints(k, rand(rng.randrange(1, 4), p)) for _ in range(2))
            yield p, list((g ** p * h).rows)
        for _ in range(2):
            g, h = FFPoly.from_ints(k, rootless(rng.randrange(2, 5), p)), FFPoly.from_ints(k, rand(3, p))
            yield p, list((g ** p * h).rows)
        for _ in range(3):
            yield p, rootless(rng.randrange(8, 41), p)
        yield p, roots_times(k, [(1, p), (2, 2 * p + 1)], rand(rng.randrange(0, 9), p))
        for _ in range(2):
            pairs = [(a, rng.choice([1, 2, p - 1, p, p + 1, 2 * p, 3 * p]))
                     for a in rng.sample(range(p), rng.randrange(2, p + 1))]
            yield p, roots_times(k, pairs, rand(rng.randrange(0, 13), p))
    for p in (3, 5):
        for _ in range(2):
            yield p, rand(rng.randrange(150, 201), p)
    p, k = 211, prime_field(211)
    yield p, rand(30, p)
    yield p, roots_times(k, [(a, rng.randrange(1, 4)) for a in rng.sample(range(p), 8)], rand(6, p))


class TestPackedEuclid:
    """The packed remainder kernel at the degree cap and at its digit bound."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_gcd_at_the_degree_cap_against_sympy(self, p):
        # operands of degree 512 to 1024 with planted common factors of
        # degree 1, 37 and 300, against sympy's gcd over GF(p); the planted
        # factor also divides its multiple exactly
        gf = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ
        k, rng = prime_field(p), random.Random(p)

        def rand(deg):
            return FFPoly.from_ints(k, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

        for deg_c in (1, 37, 300):
            c = rand(deg_c)
            u, v = rand(rng.randrange(512, 1025) - deg_c), rand(rng.randrange(512, 1025) - deg_c)
            a, b = c * u, c * v
            assert 512 <= min(a.degree, b.degree) and max(a.degree, b.degree) <= 1024
            want = gf.gf_gcd(list(reversed(a.rows)), list(reversed(b.rows)), p, ZZ)
            g = a.gcd(b)
            assert list(reversed(g.rows)) == [int(x) for x in want], (p, deg_c)
            assert g.degree >= deg_c and (g % c).is_zero()
            assert a.divmod(c) == (u, k.zero)

    def test_a_step_that_keeps_the_degree_raises(self):
        # a divisor whose lead is not the one given cannot lose its top
        # coefficient; the kernel raises instead of looping
        pk = ff._divide_packing(5, (0, 1), 8)
        with pytest.raises(InternalInconsistency, match="top coefficient"):
            pk.divide(pk.pack([1, 2, 3, 4]), pk.pack([1, 2]))
        # with its lead given: three steps, 2^3 * a(-1/2) = 8 * a(2) = 2 mod 5
        assert pk.divide(pk.pack([1, 2, 3, 4]), pk.pack([1, 2]), 2)[1] == 2

    @pytest.mark.parametrize("p,d", [(3, 1), (7, 1), (10007, 1), (2 ** 61 - 1, 1),
                                     (5, 2), (10007, 2), (7, 3), (3, 6), (3, 15)])
    def test_reduce_at_the_largest_digits(self, p, d):
        # every digit of every coefficient at the bound of its size class,
        # from p up past the bound of a remainder step: the digit width
        # leaves room for the Barrett step and the residues mod p
        mod = tuple(find_irreducible_int_poly(p, d)) if d > 1 else (0, 1)
        step_bound = d * (p - 1) * (2 * p - 1)
        for bits in range(p.bit_length(), step_bound.bit_length() + 9):
            bound = (1 << bits) - 1
            pk = ff._packing(p, mod, bound, 3)
            assert pk is ff._packing(p, mod, 1 << (bits - 1), 2)  # one per size class
            row = [bound] * (2 * d - 1)
            for i in range(2 * d - 2, d - 1, -1):
                c = row[i]
                for j in range(d):
                    row[i - d + j] -= c * mod[j]
            packed = sum(bound << (u * pk.W) for u in range(3 * pk.S))
            assert pk.unpack(pk.reduce(packed), 3) == [x % p for x in row[:d]] * 3, bits


class TestFactorOracle:
    """ff_factor over GF(p) against sympy's factor list modulo p."""

    def test_blocked_loop_matches_plain_loop(self):
        # the distinct-degree loop in blocks, as ff_factor runs it, against
        # the plain loop of Ben-Or's test on every squarefree part
        for p, coeffs in _factor_draws():
            for g, _ in ff.squarefree_decomposition(FFPoly.from_ints(prime_field(p), coeffs)):
                assert list(ff._distinct_degree(g, math.isqrt(2 * g.degree))) == \
                    list(ff._distinct_degree(g)), (p, coeffs)

    def test_against_sympy(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        assert 211 > ff._ROOT_SCAN_MAX_P  # the last draws take the general path
        stripped = []
        root = FFPoly.compose_frobenius_root
        monkeypatch.setattr(FFPoly, "compose_frobenius_root",
                            lambda f: stripped.append(f) or root(f))
        count = 0
        for p, coeffs in _factor_draws():
            k = prime_field(p)
            f = FFPoly.from_ints(k, coeffs)
            factors = ff_factor(f)
            # the factor list is canonical, whatever the random draws
            assert all(ff_factor(f, random.Random(seed)) == factors for seed in range(5))
            got = sorted((tuple(g.rows), m) for g, m in factors)
            _, pairs = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
            want = []
            for g, m in pairs:
                cs = [int(c) % p for c in reversed(g.all_coeffs())]
                inv = pow(cs[-1], -1, p)
                want.append((tuple(c * inv % p for c in cs), m))
            assert got == sorted(want), (p, coeffs)
            count += 1
        assert count == 78 and stripped


class TestDiscriminantOracle:
    """discriminant_val, the exact fallback of the separability certificate,
    must give the p-adic valuation of sympy's discriminant, and raise
    InputError exactly when that discriminant is zero."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        seen = {"separable": 0, "repeated": 0}
        for p, f, fk in _oracle_draws(sympy, sympy.Symbol("x")):
            disc = int(sympy.discriminant(f))
            if disc == 0:
                seen["repeated"] += 1
                with pytest.raises(InputError, match="polynomial has repeated roots"):
                    discriminant_val(fk)
            else:
                seen["separable"] += 1
                assert discriminant_val(fk) == _vp(Fraction(disc), p), (p, f)
        assert seen["repeated"] >= 45 and seen["separable"] >= 60

    def test_product_of_48_rational_roots(self):
        sympy = pytest.importorskip("sympy")
        coeffs = _rational_root_product(48, 3)
        disc = int(sympy.discriminant(sympy.Poly(coeffs[::-1], sympy.Symbol("x"), domain="ZZ")))
        assert discriminant_val(BaseField(3).poly(coeffs)) == _vp(Fraction(disc), 3)

    def test_product_of_48_rational_roots_is_fast(self):
        # 0.74 s with the Euclid sequence over Q; about 0.09 s with the
        # subresultant kernel (2 vCPUs, CPython 3.11)
        f = BaseField(3).poly(_rational_root_product(48, 3))
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            discriminant_val(f)
            best = min(best, time.perf_counter() - start)
        assert best < 0.5

    def test_integer_polynomials_over_an_unramified_base(self):
        rng = random.Random(808)
        for p in (3, 5, 7):
            K1, K2 = BaseField(p), BaseField(p, 2)
            for trial in range(12):
                g = [rng.randrange(-p ** 3, p ** 3) for _ in range(rng.randrange(1, 6))] + [1]
                f = K1.poly(g) * K1.poly(g) if trial % 4 == 0 else K1.poly(g) * K1.poly([p ** trial, 1])
                cs = [_kcoords(c)[0] for c in f.coeffs]
                try:
                    want = discriminant_val(K1.poly(cs))
                except InputError:
                    with pytest.raises(InputError, match="polynomial has repeated roots"):
                        discriminant_val(K2.poly(cs))
                    continue
                assert discriminant_val(K2.poly(cs)) == want

    def test_theta_coefficients(self):
        K = BaseField(5, 2)
        th = K.theta
        f = K.poly([th * K.elem(5), K.elem(Fraction(1, 25)), th * th - K.elem(3),
                    K.elem(Fraction(2, 7), 1), 0, th])
        mod = [Fraction(c) for c in K.gen_minpoly]
        res = _q_resultant(_q(f), _q(f.derivative()), mod)
        assert discriminant_val(f) == _q_val(res, 5) - f.lead().gauss_val()


def _theta_draws(sympy, x, t):
    """(K, f, fk) over K = BaseField(p, 2), p in {3, 5, 7}: seeded sympy
    polynomials f in x with coefficients a + b t, t standing for theta, of
    the three kinds of _oracle_draws, and fk the same polynomial over K."""
    rng = random.Random(2424)

    def rand(deg, size):
        cs = [rng.randrange(-size, size + 1) + rng.randrange(-size, size + 1) * t
              for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
        return sum(c * x ** i for i, c in enumerate(cs))

    for p in (3, 5, 7):
        K = BaseField(p, 2)
        mod = sum(c * t ** i for i, c in enumerate(K.gen_minpoly))
        for trial in range(15):
            kind = trial % 3
            if kind == 0:
                f = rand(rng.randrange(1, 6), p ** 2)
            elif kind == 1:
                f = rand(rng.randrange(1, 3), p) ** 2 * rand(rng.randrange(0, 3), p)
            else:
                g = rand(rng.randrange(1, 3), p)
                f = g * (g + p ** rng.randrange(1, 4))
            f = sympy.expand(f)
            coeffs = []
            for c in reversed(sympy.Poly(f, x).all_coeffs()):
                r = sympy.Poly(sympy.rem(c, mod, t), t).all_coeffs()[::-1] + [0]
                coeffs.append(K.elem(int(r[0]), int(r[1])))
            yield K, mod, f, K.poly(coeffs)


class TestSeparabilityCertificate:
    """KPoly.is_separable: gcd(f, f') = 1 modulo a word-size prime q
    certifies that f has no repeated root; anything else leaves the
    decision to discriminant_val."""

    @staticmethod
    def _certify(f, monkeypatch):
        """(is_separable(f), the primes whose gcd it took)."""
        seen = []
        gcd = FFPoly.gcd
        with monkeypatch.context() as patch:
            patch.setattr(FFPoly, "gcd", lambda a, b: seen.append(a.field.p) or gcd(a, b))
            out = f.is_separable()
        return out, [q for q in seen if q in field._CERTIFICATE_PRIMES]

    def test_primes_are_one_digit(self):
        assert all(field._is_prime(q) and q < 2 ** 30 for q in field._CERTIFICATE_PRIMES)

    @pytest.mark.parametrize("m", [1, 2])
    def test_constants(self, m):
        # a nonzero constant has no root; the zero polynomial is not certified
        K = BaseField(5, m)
        assert K.poly([3]).is_separable()
        assert not K.poly([0]).is_separable()

    def test_against_sympy(self):
        from clusterfibre.clusters import normalize_input
        sympy = pytest.importorskip("sympy")
        seen = {"certified": 0, "repeated": 0}
        for p, f, fk in _oracle_draws(sympy, sympy.Symbol("x")):
            disc = int(sympy.discriminant(f))
            if fk.is_separable():
                seen["certified"] += 1
                assert disc != 0, (p, f)
            else:
                # every separable draw is certified
                assert disc == 0, (p, f)
                seen["repeated"] += 1
                if fk.degree >= 1:
                    with pytest.raises(InputError, match="polynomial has repeated roots"):
                        normalize_input(fk)
        assert seen["repeated"] >= 45 and seen["certified"] >= 60

    def test_against_sympy_over_theta(self):
        # disc(f) of f over Q(theta) is the discriminant in x of the
        # bivariate f, reduced mod gen_minpoly(t)
        from clusterfibre.clusters import normalize_input
        sympy = pytest.importorskip("sympy")
        x, t = sympy.symbols("x t")
        seen = {"certified": 0, "repeated": 0}
        for K, mod, f, fk in _theta_draws(sympy, x, t):
            zero = sympy.rem(sympy.discriminant(f, x), mod, t) == 0
            if fk.is_separable():
                seen["certified"] += 1
                assert not zero, (K, f)
            else:
                assert zero, (K, f)
                seen["repeated"] += 1
                if fk.degree >= 1:
                    with pytest.raises(InputError, match="polynomial has repeated roots"):
                        normalize_input(fk)
        assert seen["repeated"] >= 15 and seen["certified"] >= 20

    def test_theta_maps_to_a_root(self):
        for p, m in [(3, 2), (5, 2), (7, 3), (3, 8), (5, 32)]:
            g = BaseField(p, m).gen_minpoly
            for q in field._CERTIFICATE_PRIMES:
                a = field._root_mod(g, prime_field(q))
                if a is not None:
                    assert sum(c * pow(a, k, q) for k, c in enumerate(g)) % q == 0
        # x^2 + 1 has a root mod q exactly when q = 1 mod 4
        for q in field._CERTIFICATE_PRIMES:
            assert (field._root_mod((1, 0, 1), prime_field(q)) is None) == (q % 4 == 3)

    def test_residue_characteristic_is_skipped(self, monkeypatch):
        p = 1_000_000_007
        assert p in field._CERTIFICATE_PRIMES
        f = BaseField(p).poly([-5, 0, 1])
        ok, primes = self._certify(f, monkeypatch)
        assert ok and p not in primes
        ok, primes = self._certify(BaseField(5).poly([-5, 0, 1]), monkeypatch)
        assert ok and primes == [p]

    @pytest.mark.parametrize("where", ["lead", "denominator", "both"])
    def test_lead_or_denominator_divisible_by_q_is_skipped(self, monkeypatch, where):
        # f = lead/den x^2 - 5: the numerator's lead stays a unit mod q1
        q0, q1, q2 = field._CERTIFICATE_PRIMES
        lead = q0 if where in ("lead", "both") else 1
        den = q1 if where in ("denominator", "both") else 1
        f = BaseField(5).poly([-5, 0, Fraction(lead, den)])
        assert f.den == den
        ok, primes = self._certify(f, monkeypatch)
        skipped = {"lead": [q0], "denominator": [q1], "both": [q0, q1]}[where]
        assert ok and primes == [q for q in (q0, q1, q2) if q not in skipped][:1]

    def test_a_zero_lead_image_everywhere_leaves_f_uncertified(self, monkeypatch):
        # every prime divides the lead: no prime can certify, and
        # normalize_input takes the exact discriminant, which is nonzero
        from clusterfibre.clusters import normalize_input
        lead = math.prod(field._CERTIFICATE_PRIMES)
        f = BaseField(5).poly([-5, 0, lead])
        ok, primes = self._certify(f, monkeypatch)
        assert not ok and primes == []
        assert normalize_input(f) == (f, 0)


class TestRootPrimes:
    """Over a base whose gen_minpoly has no root modulo the certificate
    primes, theta maps to a root modulo one of ``field._ROOT_PRIMES``."""

    # the root _root_mod takes, or None, modulo each certificate prime and
    # then each root prime: its split draws from random.Random(0), and these
    # are the roots it took before the root primes were added
    ROOTS = {
        (3, 2): [None, 430477711, 86583718, 484563811, 324344011, 545422843, None, None],
        (5, 2): [None, 53417020, 861252819, None, 219110065, None, None, 975587297],
        (7, 3): [326661172, None, 722897168, None, None, None, 892612686, 535719785],
        (3, 8): [None, 718513459, None, None, 326910674, 871018973, None, 891250266],
        (3, 10): [None, None, None, None, None, 846051511, 215298726, 920644818],
        (5, 8): [None, None, None, None, None, None, None, 354658086],
        (3, 27): [None, None, None, 395846854, 196441918, None, 726713102, 980318047],
        (11, 7): [None, None, None, 192121197, None, None, 850313714, None],
    }

    def test_roots_are_pinned(self):
        primes = field._CERTIFICATE_PRIMES + field._ROOT_PRIMES
        assert all(field._is_prime(q) and q < 2 ** 30 for q in field._ROOT_PRIMES)
        for (p, m), roots in self.ROOTS.items():
            g = find_irreducible_int_poly(p, m)
            assert [field._root_mod(g, prime_field(q)) for q in primes] == roots, (p, m)

    @pytest.mark.parametrize("p,m", [(3, 10), (3, 15), (3, 27), (5, 8), (5, 15), (5, 16),
                                     (5, 32)])
    def test_separable_inputs_skip_the_discriminant(self, monkeypatch, p, m):
        from clusterfibre import clusters
        K = BaseField(p, m)
        assert all(field._root_mod(K.gen_minpoly, prime_field(q)) is None
                   for q in field._CERTIFICATE_PRIMES)
        calls = []
        monkeypatch.setattr(clusters, "discriminant_val", lambda f: calls.append(f))
        f = K.x() ** 3 + K.theta * K.x() - K.elem(p)
        assert f.is_separable()
        clusters.normalize_input(f)
        assert calls == []


def _rational_root_product(n, p, seed=48):
    """Integer coefficients, constant first, of the product of x - a over n
    distinct seeded roots a = p * r, 0 < r < p^4."""
    rng = random.Random(seed)
    roots = set()
    while len(roots) < n:
        roots.add(p * rng.randrange(1, p ** 4))
    coeffs = [1]
    for a in sorted(roots):
        coeffs = [-a * coeffs[0]] + [coeffs[i - 1] - a * coeffs[i]
                                     for i in range(1, len(coeffs))] + [coeffs[-1]]
    return coeffs
