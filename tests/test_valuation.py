"""Chain evaluation, validation, prefix links, and chain numerics."""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from clusterfibre import newton, valuation
from clusterfibre.ff import FFElem, FFPoly
from clusterfibre.field import BaseField, KPoly
from clusterfibre.errors import InputError
from clusterfibre.newton import graded_H, is_key, newton_polygon, reduce_poly, residue_tower
from clusterfibre.rationals import OO
from clusterfibre.valuation import MacLaneVal, AugStep


def _v13(p):
    """The two-step chain of the running sextic example: v(x)=1/2, v(x^2-p)=5/3."""
    K = BaseField(p)
    v0 = MacLaneVal.gauss(K)
    v1 = v0.augment_unchecked(K.x(), F(1, 2))
    v2 = v1.augment_unchecked(K.poly([-p, 0, 1]), F(5, 3))
    return K, v0, v1, v2


def _sextic(K, p):
    return K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])


def _same_values(v, w, K, rng, count=300):
    """v(g) == w(g) on ``count`` random integer polynomials of degree < 6."""
    for _ in range(count):
        g = K.poly([rng.randrange(-50, 50) for _ in range(rng.randrange(1, 7))])
        if not g.is_zero() and v.eval(g) != w.eval(g):
            return False
    return True


class TestGaussAndEval:
    def test_gauss_values(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        assert v0.eval(K.poly([5, 5, 1])) == 0
        assert v0.eval(K.poly([-5, 0, 0, 5 ** 3])) == 1
        assert v0.eval(K.poly([])) is OO

    def test_eval_sextic(self):
        K, v0, v1, v2 = _v13(5)
        f = _sextic(K, 5)
        assert v1.eval(f) == 3
        assert v2.eval(f) == 5

    def test_eval_cubic_worked_example(self):
        # v = [v0, v(x)=1/3, v(x^3-2p)=5/3] gives value 10/3 on the running cubic
        p = 7
        K = BaseField(p)
        v0 = MacLaneVal.gauss(K)
        v1 = v0.augment_unchecked(K.x(), F(1, 3))
        phi = K.poly([-2 * p, 0, 0, 1])
        v2 = v1.augment_unchecked(phi, F(5, 3))
        f = phi * phi - K.poly([0, 0, p]) * phi
        assert v2.eval(f) == F(10, 3)

    def test_eval_constant(self):
        K, _, v1, v2 = _v13(3)
        c = K.poly([F(9, 2)])
        assert v1.eval(c) == 2
        assert v2.eval(c) == 2

    def test_eval_multiplicative_random(self):
        K, _, v1, v2 = _v13(3)
        rng = random.Random(5)
        for v in (v1, v2):
            for _ in range(60):
                g = K.poly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 6))])
                h = K.poly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 6))])
                if g.is_zero() or h.is_zero():
                    continue
                assert v.eval(g * h) == v.eval(g) + v.eval(h)

    def test_pseudo_valuation_eval(self):
        K, v0, v1, _ = _v13(5)
        phi = K.poly([-5, 0, 1])
        vinf = v1.augment_unchecked(phi, OO)
        assert vinf.is_pseudo
        assert vinf.eval(phi * K.poly([1, 1])) is OO
        assert vinf.eval(K.poly([1, 1])) == 0


class TestChainValidation:
    def test_radius_must_increase(self):
        K, _, v1, _ = _v13(5)
        with pytest.raises(InputError, match="augmentation radius must exceed the current centre value"):
            v1.augment_unchecked(K.poly([-5, 0, 1]), F(1, 1))

    def test_maclane_condition(self):
        K, v0, v1, _ = _v13(5)
        # same centre again is v-equivalent to itself: not a MacLane chain
        with pytest.raises(InputError, match="consecutive centres must not be v-equivalent"):
            v1.augment_unchecked(K.x(), F(2, 3))

    def test_degree_divisibility(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        v = v0.augment_unchecked(K.poly([-5, 0, 1]), F(3, 2))
        with pytest.raises(InputError, match="centre degrees must divide along the chain"):
            v.augment_unchecked(K.poly([5, 0, 0, 1]), F(7, 2))

    def test_nonintegral_centre_rejected(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        with pytest.raises(InputError, match="centres must have integral coefficients"):
            v0.augment_unchecked(K.poly([F(1, 5), 1]), F(1, 2))


class TestPrefixLinks:
    """A chain is its prefix plus one step."""

    def test_steps_build_linked_prefixes(self, monkeypatch):
        K, v0, v1, v2 = _v13(5)
        links = []
        real = MacLaneVal._link
        monkeypatch.setattr(MacLaneVal, "_link",
                            lambda self, *a: links.append(a[2]) or real(self, *a))
        w = MacLaneVal(K, v2.steps)
        # each step checked once, the Gauss level made once
        assert links == [None] + list(v2.steps)
        assert w == v2 and w.prefix == v1 and w.prefix.prefix.is_gauss
        assert w.prefix.prefix.prefix is None
        assert (w.e_levels, w.e_rel, w.h_rel) == (v2.e_levels, v2.e_rel, v2.h_rel)

    def test_augmentation_extends_the_prefix(self):
        K, v0, v1, v2 = _v13(5)
        assert v2.prefix is v1 and v1.prefix is v0
        assert v2.e_levels[:-1] == v1.e_levels and v2.ell[:-1] == v1.ell

    def test_infinite_radius_only_last(self):
        K, v0, v1, _ = _v13(5)
        pseudo = v1.augment_unchecked(K.poly([-5, 0, 1]), OO)
        with pytest.raises(InputError, match="only the final radius may be infinite"):
            pseudo.augment_unchecked(K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5]), F(20, 1))
        steps = pseudo.steps + (AugStep(K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5]), F(20, 1)),)
        with pytest.raises(InputError, match="only the final radius may be infinite"):
            MacLaneVal(K, steps)

    def test_chains_are_made_in_valuation_only(self):
        # outside valuation.py a chain comes from gauss() and augmentation
        import ast
        from pathlib import Path
        src = Path(valuation.__file__).parent
        calls = []
        for path in sorted(src.glob("*.py")):
            if path.name == "valuation.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "MacLaneVal"):
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == []


class TestOrder:
    def test_leq_matches_pointwise(self):
        K, v0, v1, v2 = _v13(3)
        rng = random.Random(11)
        for _ in range(100):
            g = K.poly([rng.randrange(-20, 20) for _ in range(rng.randrange(1, 7))])
            if g.is_zero():
                continue
            assert v1.eval(g) <= v2.eval(g)


class TestChainNumerics:
    def test_sextic_chain_data(self):
        K, v0, v1, v2 = _v13(5)
        assert (v1.epsilon, v1.b_last, v1.group_index, v1.deg) == (1, 2, 2, 1)
        assert v1.radius == F(1, 2)
        assert (v2.epsilon, v2.b_last, v2.group_index, v2.deg) == (2, 3, 6, 2)
        assert v2.radius == F(5, 3)
        assert v0.group_index == 1
        assert v0.deg == 1
        assert v0.radius == 0

    def test_bezout_identities(self):
        K, v0, v1, v2 = _v13(5)
        for v in (v1, v2):
            for i in range(1, v.depth + 1):
                assert v.ell[i] * v.h_rel[i] + v.ellp[i] * v.e_rel[i] == 1
                assert 0 <= v.ell[i] < v.e_rel[i]

    def test_epsilon_chain_independence(self):
        # the same valuation through a longer MacLane chain keeps epsilon
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        long = v0.augment_unchecked(K.x(), F(1)).augment_unchecked(K.poly([-5, 1]), F(2))
        short = v0.augment_unchecked(K.poly([-5, 1]), F(2))
        assert _same_values(long, short, K, random.Random(3))
        assert long.epsilon == short.epsilon == 1
        assert long.group_index == short.group_index == 1


class TestAugmentMonotone:
    def test_augment_increases(self):
        K, v0, v1, v2 = _v13(3)
        rng = random.Random(9)
        for _ in range(80):
            g = K.poly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 7))])
            if g.is_zero():
                continue
            assert v2.eval(g) >= v1.eval(g)
            if g.degree < 2:
                assert v2.eval(g) == v1.eval(g)


# ---------------------------------------------------------------------------
# The scaled kernel against a Fraction model of the full descent


def _model_eval(v, level, g):
    """v_level(g) by descending every level, with Fraction sums."""
    if g.is_zero():
        return OO
    if level == 0:
        return F(g.gauss_val())
    step = v.steps[level - 1]
    best = OO
    for s, a in enumerate(g.phi_expand(step.phi)):
        if a.is_zero():
            continue
        term = _model_eval(v, level - 1, a) + step.lam * s
        if term is not OO and (best is OO or term < best):
            best = term
    return best


def _model_hull(points):
    verts = []
    for bx, by in points:
        while len(verts) >= 2:
            (ox, oy), (ax, ay) = verts[-2], verts[-1]
            if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= 0:
                verts.pop()
            else:
                break
        verts.append((bx, by))
    return verts


def _model_rho(tower, level, shift, poly):
    """X^shift * poly(X) at the step generator of ``level``, one FFElem
    term emb(c_j) * gen^(shift + j) per coefficient."""
    emb, gen, kf = tower.embeddings[level - 1], tower.gens[level], tower.fields[level]
    acc = kf.zero
    for j, c in enumerate(poly.coeffs):
        if not c.is_zero():
            acc = acc + FFElem(kf, emb.image(c.coords)) * gen ** (shift + j)
    return acc


def _model_H(v, tower, level, alpha, g):
    """(shift, poly) of H_{level, alpha}(g), alpha a Fraction."""
    kf = tower.fields[level]
    if g.is_zero() or _model_eval(v, level, g) > alpha:
        return 0, FFPoly(kf, [])
    assert _model_eval(v, level, g) == alpha
    if level == 0:
        return 0, g.residue(int(alpha))
    lam, phi = v.steps[level - 1].lam, v.steps[level - 1].phi
    e_i, e_prev = v.e_rel[level], v.e_levels[level - 1]
    i_a = next(i for i in range(e_i) if ((alpha - i * lam) * e_prev).denominator == 1)
    u_a = int((alpha - i_a * lam) * e_prev)
    expansion = g.phi_expand(phi)
    coeffs = []
    for s in range(i_a, len(expansion), e_i):
        shift, poly = _model_H(v, tower, level - 1, alpha - s * lam, expansion[s])
        coeffs.append(_model_rho(tower, level, shift, poly))
    return v.ellp[level] * i_a - v.ell[level] * u_a, FFPoly(kf, coeffs)


def _model_reduce(v, f):
    """(poly, alpha, i0, i1, b, h_exponent) of reduce_poly(v, f)."""
    if v.is_gauss:
        alpha = F(f.gauss_val())
        return f.residue(int(alpha)), alpha, 0, f.degree, 1, 0
    tower = residue_tower(v)
    n, lam, phi = v.depth, v.steps[-1].lam, v.steps[-1].phi
    expansion = f.phi_expand(phi)
    terms = [(s, _model_eval(v, n - 1, a) + lam * s) for s, a in enumerate(expansion)
             if not a.is_zero()]
    alpha = min(t for _, t in terms)
    on_line = [s for s, t in terms if t == alpha]
    i0, i1, e_n = on_line[0], on_line[-1], v.e_rel[n]
    coeffs = []
    for s in range(i0, i1 + 1, e_n):
        shift, poly = _model_H(v, tower, n - 1, alpha - s * lam, expansion[s])
        coeffs.append(_model_rho(tower, n, shift, poly))
    h_exp = F(i0, e_n) - v.ell[n] * v.e_levels[n - 1] * alpha
    assert h_exp.denominator == 1
    return FFPoly(tower.top, coeffs), alpha, i0, i1, e_n, int(h_exp)


@functools.lru_cache(maxsize=None)
def _chains(p, m):
    """Checked chains over Q_p(theta) (theta = 0 for m = 1), by name:
    'linear' repeats degree 1 (the shape of products of rational roots) and
    ends with e = 2; 'ramified' has e = 2 and e = 3 at its two levels;
    'pseudo' is 'ramified' closed by an infinite radius."""
    K = BaseField(p, m)
    t = K.theta if m > 1 else K.zero
    x = K.x()
    y = x - K.poly([t])
    v0 = MacLaneVal.gauss(K)
    lin = _key_step(v0, y, F(1))
    lin = _key_step(lin, y - K.poly([p]), F(2))
    lin = _key_step(lin, y - K.poly([p]) + K.poly([p * p]) * K.poly([K.one + t]), F(7, 2))
    quad = y * y - K.poly([p])
    ram = _key_step(_key_step(v0, y, F(1, 2)), quad, F(5, 3))
    pseudo = _key_step(ram, quad ** 3 - K.poly([p ** 5]), OO)
    return K, {"linear": lin, "ramified": ram, "pseudo": pseudo}


def _key_step(v, phi, lam):
    """[v; phi -> lam] for a key polynomial phi of v."""
    assert is_key(v, phi)
    return v.augment_unchecked(phi, lam)


def _truncation(v, depth):
    """The prefix of v of the given depth."""
    while v.depth > depth:
        v = v.prefix
    return v


_FIELDS = [(3, 1), (5, 1), (3, 2)]


@st.composite
def _test_poly(draw, K, v):
    """h * phi^k + r for a centre phi of v: terms on several lines."""
    p = K.p

    def small():
        d = draw(st.integers(0, 3))
        cs = []
        for _ in range(d + 1):
            nums = [draw(st.integers(-2 * p, 2 * p)) for _ in range(K.m)]
            cs.append(K.elem(*[F(n, p ** draw(st.integers(0, 1))) for n in nums]))
        return K.poly(cs)

    phi = draw(st.sampled_from([K.x()] + [s.phi for s in v.steps]))
    g = small() * phi ** draw(st.integers(0, 2)) + draw(st.sampled_from([K.poly([]), small()]))
    return g if not g.is_zero() else K.poly([1])


class TestScaledKernel:
    """eval, newton_polygon, reduce_poly and graded_H on the scaled kernel,
    against the Fraction model of the full descent."""

    @pytest.mark.parametrize("name", ["linear", "ramified", "pseudo"])
    @pytest.mark.parametrize("pm", _FIELDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_against_the_fraction_model(self, pm, name, data):
        K, chains = _chains(*pm)
        v = chains[name]
        g = data.draw(_test_poly(K, v))
        for d in range(v.depth + 1):
            w = _truncation(v, d)
            val = w.eval(g)
            assert val == _model_eval(v, d, g)
            assert val is OO or type(val) is F
            if d < v.depth:
                phi = v.steps[d].phi
                N = newton_polygon(w, phi, g)
                points = [(i, _model_eval(v, d, a)) for i, a in enumerate(g.phi_expand(phi))
                          if not a.is_zero()]
                hull = _model_hull(points)
                edges = [(F(u0 - u1, i1 - i0), i0, u0, i1, u1)
                         for (i0, u0), (i1, u1) in zip(hull, hull[1:])]
                assert N.vertices == hull
                assert [(e.lam, e.i0, e.u0, e.i1, e.u1) for e in N.edges()] == edges
            if w.is_pseudo:
                continue
            red = reduce_poly(w, g)
            got = (red.poly, red.alpha, red.i0, red.i1, red.b, red.h_exponent)
            assert got == _model_reduce(w, g)
            assert type(red.alpha) is F
            tower = residue_tower(w)
            for level in range(d + 1):
                alpha = _model_eval(v, level, g)
                lau = graded_H(w, level, alpha, g)
                assert (lau.shift, lau.poly) == _model_H(w, tower, level, alpha, g)

    def test_level_skipping_saves_expansions(self, monkeypatch):
        # constants and centres of lower degree are never expanded by the
        # degree-1 centres above them
        K, chains = _chains(5, 1)
        v = chains["linear"]
        g = K.poly([25, 5])
        assert _model_eval(v, v.depth, g) == 2
        calls = []
        expand = KPoly.phi_expand

        def counting(self, phi):
            calls.append(phi)
            return expand(self, phi)

        monkeypatch.setattr(KPoly, "phi_expand", counting)
        assert v.eval(g) == 2
        assert calls == [v.centre]  # each coefficient a_s is a constant

    def test_fraction_count(self, monkeypatch):
        # eval and reduce_poly build at most one Fraction per call: the
        # conversion of the scaled value at the boundary
        K, chains = _chains(5, 1)
        built = []

        def counting(*args):
            built.append(args)
            return F(*args)

        rng = random.Random(3)
        polys = [K.poly([rng.randrange(-30, 30) for _ in range(rng.randrange(1, 9))]) + K.x() ** 7
                 for _ in range(25)]
        for v in chains.values():
            residue_tower(v)
        monkeypatch.setattr(valuation, "Fraction", counting)
        monkeypatch.setattr(newton, "Fraction", counting)
        assert chains["linear"].depth == 3
        for v in chains.values():
            for g in polys:
                del built[:]
                v.eval(g)
                assert len(built) <= 1
                if not v.is_pseudo:
                    del built[:]
                    reduce_poly(v, g)
                    assert len(built) <= 1
