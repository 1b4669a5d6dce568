"""ff_factor against brute force over small residue fields, the pure-power
shortcut of the squarefree decomposition, and root splitting over large
residue fields.

Every ff_factor call here draws from a ``_Budget``, a random.Random that
fails the test after a fixed number of draws, so a split that never
separates its parts fails instead of running for good."""

import random
from collections import Counter

import pytest

from clusterfibre import cli, clusters, ff
from clusterfibre.ff import FField, FFPoly, ff_factor, find_irreducible_int_poly

DRAWS = 100_000


class _Budget(random.Random):
    """random.Random whose ``randrange``, the only draw ff makes, fails the
    test after ``DRAWS`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.left = DRAWS

    def randrange(self, *args):
        self.left -= 1
        if self.left < 0:
            pytest.fail(f"ff_factor drew more than {DRAWS} random coordinates")
        return super().randrange(*args)


def _field(p, d):
    return FField(p, find_irreducible_int_poly(p, d))


def _elements(k):
    """Every element of k, as constants."""
    out = []
    for n in range(k.order):
        digits = []
        for _ in range(k.degree):
            n, digit = divmod(n, k.p)
            digits.append(digit)
        out.append(k.elem(digits))
    return out


def _linear(r):
    """X - r."""
    return FFPoly(r.field, [-r, r.field.one])


def _evaluate(f, r):
    acc = f.field.zero
    for c in reversed(f.coeffs):
        acc = acc * r + c
    return acc


def _multiplicity(f, r):
    """How often X - r divides f, by synthetic division at r."""
    k, coeffs, mult = f.field, list(f.coeffs), 0
    while len(coeffs) > 1:
        acc, quot = k.zero, []
        for c in reversed(coeffs):
            acc = acc * r + c
            quot.append(acc)
        if not quot.pop().is_zero():
            break
        coeffs, mult = quot[::-1], mult + 1
    return mult


def _product(k, factors):
    """prod g^m over the (g, m) of ``factors``."""
    out = k.one
    for g, mult in factors:
        out = out * g ** mult
    return out


def _irreducibles(k, degree, count, rng):
    """``count`` distinct monic polynomials of degree 2 or 3 over k without
    a root in k, so irreducible."""
    elements, out = _elements(k), []
    while len(out) < count:
        g = FFPoly(k, [rng.choice(elements) for _ in range(degree)] + [k.one])
        if g not in out and all(not _evaluate(g, r).is_zero() for r in elements):
            out.append(g)
    return out


def _check(f, elements):
    """Factor f for five rng seeds and check the list against brute force;
    return it."""
    factors = ff_factor(f, _Budget(0))
    assert all(ff_factor(f, _Budget(seed)) == factors for seed in range(1, 5))
    assert [g.key() for g, _ in factors] == sorted({g.key() for g, _ in factors})
    assert f.lead() * _product(f.field, factors) == f
    roots = {g: mult for g, mult in factors if g.degree == 1}
    for r in elements:
        assert roots.get(_linear(r), 0) == _multiplicity(f, r)
    for g, _ in factors:
        assert g.is_monic()
        if g.degree > 1:
            assert all(not _evaluate(g, r).is_zero() for r in elements)
    return factors


def _expected(factors):
    """The sorted factor list of prod g^m for distinct irreducible g."""
    counts = Counter()
    for g, mult in factors:
        counts[g] += mult
    return sorted(counts.items(), key=lambda gm: gm[0].key())


SMALL = [(3, 2), (5, 2), (7, 2), (3, 3)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("p,d", SMALL)
    def test_seeded_products(self, p, d):
        k = _field(p, d)
        elements, rng = _elements(k), random.Random(100 * p + d)
        pool = ([_linear(r) for r in rng.sample(elements, 4)]
                + _irreducibles(k, 2, 3, rng) + _irreducibles(k, 3, 3, rng))
        for _ in range(8):
            chosen = rng.sample(pool, rng.randrange(1, 4))
            factors = [(g, rng.choice((1, 2, 3, p, p + 1))) for g in chosen]
            f = _product(k, factors) * rng.choice(elements[1:])
            assert _check(f, elements) == _expected(factors)

    @pytest.mark.parametrize("p,d", SMALL)
    def test_pure_powers(self, p, d):
        k = _field(p, d)
        elements, rng = _elements(k), random.Random(p * d)
        for n in sorted({2, 3, p - 1, p, p + 1, 2 * p}):
            c = rng.choice(elements)
            assert _check(_linear(c) ** n, elements) == [(_linear(c), n)]

    @pytest.mark.parametrize("p,d", SMALL)
    def test_near_misses(self, p, d):
        # the roots c + u, c - u and n - 2 times c sum to n c, the root the
        # shortcut reads off the top coefficient; only a_(n-2) differs from
        # (X - c)^n.  Changing the constant term alone leaves every
        # coefficient but the last one right
        k = _field(p, d)
        elements, rng = _elements(k), random.Random(p + d)
        for n in sorted(n for n in {3, 4, p - 1, p + 1, p + 2} if n >= 3):
            c, u = rng.choice(elements), rng.choice(elements[1:])
            factors = [(_linear(c + u), 1), (_linear(c - u), 1), (_linear(c), n - 2)]
            assert _check(_product(k, factors), elements) == _expected(factors)
            _check(_linear(c) ** n + rng.choice(elements[1:]), elements)


class TestPurePowerShortcut:
    @staticmethod
    def _gcds(monkeypatch):
        calls = []
        gcd = FFPoly.gcd
        monkeypatch.setattr(FFPoly, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        return calls

    @pytest.mark.parametrize("p,d", [(5, 2), (3, 3), (103, 1)])
    def test_pure_power_takes_no_gcd(self, monkeypatch, p, d):
        # over GF(p^d), d > 1, or F_p past the root scan's bound
        k = _field(p, d)
        c = k.gen + k.elem(2)
        calls = self._gcds(monkeypatch)
        for n in (1, 2, p - 1, p + 1, 2 * p + 1):
            assert ff.squarefree_decomposition(_linear(c) ** n) == [(_linear(c), n)]
            assert ff_factor(_linear(c) ** n, _Budget(0)) == [(_linear(c), n)]
        assert calls == []

    def test_p_dividing_n_and_near_misses_take_gcds(self, monkeypatch):
        k = _field(5, 2)
        c = k.gen
        f = _linear(c) ** 10
        near = _linear(c) ** 6 + k.one
        split = _linear(c + k.one) * _linear(c - k.one) * _linear(c) ** 4
        calls = self._gcds(monkeypatch)
        assert ff.squarefree_decomposition(f) == [(_linear(c), 10)]
        assert calls
        for g in (near, split):
            calls.clear()
            ff.squarefree_decomposition(g)
            assert calls


def _root_product(p, d, count, seed):
    """A seeded product of ``count`` distinct X - r over GF(p^d)."""
    k, rng = _field(p, d), random.Random(seed)
    roots = set()
    while len(roots) < count:
        roots.add(tuple(rng.randrange(p) for _ in range(d)))
    return _product(k, [(_linear(k.elem(r)), 1) for r in sorted(roots)])


def _assert_split_into_roots(f, degree):
    factors = ff_factor(f, _Budget(0))
    assert [(g.degree, mult) for g, mult in factors] == [(1, 1)] * degree
    for g, _ in factors:
        assert _evaluate(f, -g[0]).is_zero()


class TestLargeResidueFields:
    def test_slow_case_residual(self, monkeypatch, capsys):
        # the residue tower 1 -> 3 -> 15 at p = 5 ends with eight roots
        # over GF(5^15)
        seen = []
        factor = clusters.ff_factor
        monkeypatch.setattr(clusters, "ff_factor", lambda f, rng: seen.append(f) or factor(f, rng))
        assert cli.run(["fibre", "2*x^8+33*x^7-10*x^6+27*x^5+7*x^4-80*x^3-100*x^2-68*x-3",
                        "--prime", "5", "--residue-mode", "geometric", "--format", "json"]) == 0
        capsys.readouterr()
        octics = [f for f in seen if f.field.degree == 15 and f.degree == 8]
        assert octics
        for f in octics:
            _assert_split_into_roots(f, 8)

    @pytest.mark.parametrize("p,d,count", [(5, 15, 16), (3, 20, 24), (7, 12, 32)])
    def test_seeded_root_products(self, p, d, count):
        _assert_split_into_roots(_root_product(p, d, count, seed=p * d), count)

    def test_roots_on_both_sides_of_the_class_bound(self):
        bound = ff._TRACE_CLASSES_MAX_P
        primes = [p for p in range(3, 2 * bound + 8, 2) if all(p % q for q in range(3, p, 2))]
        below = [p for p in primes if p <= bound][-2:]
        above = [p for p in primes if p > bound][:2]
        for p in below + above:
            f = _root_product(p, 2, 12, seed=p)
            _assert_split_into_roots(f, 12)
            assert ff_factor(f, _Budget(0)) == ff_factor(f, _Budget(1))


def _slow_case_octic(monkeypatch, capsys):
    """The octic over GF(5^15) that the slow case's last build factors."""
    seen = []
    factor = clusters.ff_factor
    monkeypatch.setattr(clusters, "ff_factor", lambda f, rng: seen.append(f) or factor(f, rng))
    assert cli.run(["fibre", "2*x^8+33*x^7-10*x^6+27*x^5+7*x^4-80*x^3-100*x^2-68*x-3",
                    "--prime", "5", "--residue-mode", "geometric", "--format", "json"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(clusters, "ff_factor", factor)
    return next(f for f in seen if f.field.degree == 15 and f.degree == 8)


class TestRootSplit:
    """Roots over GF(p^e) split by the trace of gamma X against one
    Frobenius chain; products of higher-degree factors keep random-a rounds,
    and primes past the class bound keep Cantor-Zassenhaus."""

    @pytest.mark.parametrize("p,d", [(3, 2), (5, 3)])
    def test_quadratics_with_equal_x_coefficient(self, p, d):
        # X^2 + a X + b_1 and X^2 + a X + b_2 have roots of equal relative
        # trace -a to GF(p^d): the trace of gamma X cannot tell them apart
        k = _field(p, d)
        elements, rng = _elements(k), random.Random(p * d)
        a = rng.choice(elements[1:])
        pair = []
        for b in rng.sample(elements, len(elements)):
            g = FFPoly(k, [b, a, k.one])
            if all(not _evaluate(g, r).is_zero() for r in elements):
                pair.append(g)
            if len(pair) == 2:
                break
        factors = [(g, 1) for g in pair]
        f = _product(k, factors)
        assert [h.degree for h, _ in ff.squarefree_decomposition(f)] == [4]
        assert list(ff._distinct_degree(f)) == [(f, 2)]
        assert _check(f, elements) == _expected(factors)

    def test_slow_case_octic_takes_few_products(self, monkeypatch, capsys):
        # one Frobenius chain of 14 p-th powers, where each round of random
        # a took 14 of its own: 221 products with random.Random(0) before
        f = _slow_case_octic(monkeypatch, capsys)
        calls = []
        mul = ff._Modulus.mul
        monkeypatch.setattr(ff._Modulus, "mul", lambda s, a, b: calls.append(1) or mul(s, a, b))
        factors = ff_factor(f, _Budget(0))
        assert len(calls) <= 110
        assert [(g.degree, mult) for g, mult in factors] == [(1, 1)] * 8

    def test_past_the_class_bound_roots_take_powers(self, monkeypatch):
        p = 17
        assert p > ff._TRACE_CLASSES_MAX_P
        f = _root_product(p, 2, 12, seed=p)
        monkeypatch.setattr(ff, "_trace_classes",
                            lambda *args: pytest.fail("trace classes past the bound"))
        _assert_split_into_roots(f, 12)
