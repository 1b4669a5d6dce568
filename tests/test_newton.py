"""Polygons, graded reductions, residual polynomials, key lifting."""

import functools
import inspect
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from clusterfibre import newton
from clusterfibre.cli import parse_poly
from clusterfibre.clusters import build_cluster_tree, cluster_chain
from clusterfibre.field import BaseField
from clusterfibre.ff import (FFElem, FFPoly, FField, ff_extend,
                             find_irreducible_int_poly, is_irreducible, prime_field)
from clusterfibre.rationals import OO
from clusterfibre.errors import InputError
from clusterfibre.valuation import MacLaneVal
from clusterfibre.newton import (newton_polygon, graded_H, reduce_poly, residue_tower,
                                 is_key, lift_key, residual_order, Laurent,
                                 ResidueTower)


def _chains(p):
    K = BaseField(p)
    v0 = MacLaneVal.gauss(K)
    v1 = v0.augment_unchecked(K.x(), F(1, 2))
    v2 = v1.augment_unchecked(K.poly([-p, 0, 1]), F(5, 3))
    f = K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])
    return K, v0, v1, v2, f


def _cubic_chain(p):
    K = BaseField(p)
    v0 = MacLaneVal.gauss(K)
    v1 = v0.augment_unchecked(K.x(), F(1, 3))
    phi = K.poly([-2 * p, 0, 0, 1])
    v2 = v1.augment_unchecked(phi, F(5, 3))
    f = phi * phi - K.poly([0, 0, p]) * phi
    return K, v1, v2, phi, f


class TestPolygons:
    def test_sextic_gauss_polygon(self):
        K, v0, v1, v2, f = _chains(5)
        N = newton_polygon(v0, K.x(), f)
        assert N.vertices == [(0, 3), (6, 0)]
        assert N.slopes() == [F(-1, 2)]

    def test_cubic_second_level_polygon(self):
        K, v1, v2, phi, f = _cubic_chain(7)
        N = newton_polygon(v1, phi, f)
        assert N.vertices == [(1, F(5, 3)), (2, 0)]

    def test_linear(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        N = newton_polygon(v0, K.x(), K.poly([-5, 1]))
        assert N.vertices == [(0, 1), (1, 0)]


class TestGradedH:
    def test_worked_cubic_H(self):
        for p in (3, 5, 7):
            K, v1, v2, phi, f = _cubic_chain(p)
            g = K.poly([0, 0, -p])
            lau = graded_H(v2, 1, F(5, 3), g)
            assert lau.shift == -1
            assert lau.poly.coeffs == (K.residue_field.elem(-1),)

    def test_constant_one(self):
        K, v0, v1, v2, f = _chains(5)
        lau = graded_H(v2, 1, F(0), K.poly([1]))
        assert lau.shift == 0
        assert lau.poly.coeffs == (K.residue_field.one,)

    def test_centre_at_level_one(self):
        # H_{1,1}(x^2 - p) is X - 1 behind the monomial twist X^{-1}
        K, v0, v1, v2, f = _chains(5)
        lau = graded_H(v2, 1, F(1), K.poly([-5, 0, 1]))
        assert lau.shift == -1
        k = K.residue_field
        assert lau.poly == FFPoly.from_ints(k, [-1, 1])

    def test_zero_when_above(self):
        K, v0, v1, v2, f = _chains(5)
        lau = graded_H(v2, 1, F(0), K.poly([5]))
        assert lau.is_zero()

    def test_alpha_not_in_group(self):
        K, v0, v1, v2, f = _chains(5)
        with pytest.raises(InputError, match="1/2 is not in the value group at level 0"):
            graded_H(v2, 0, F(1, 2), K.x())

    def test_multiplicative(self):
        K, v0, v1, v2, f = _chains(3)
        rng = random.Random(2)
        tower = residue_tower(v2)
        for _ in range(40):
            g = K.poly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 4))])
            h = K.poly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 4))])
            if g.is_zero() or h.is_zero():
                continue
            a, b = v1.eval(g), v1.eval(h)
            la = graded_H(v2, 1, a, g)
            lb = graded_H(v2, 1, b, h)
            lab = graded_H(v2, 1, a + b, g * h)
            assert lab.shift + lab.poly.degree == la.shift + lb.shift \
                + la.poly.degree + lb.poly.degree or lab.is_zero()
            prod = la.poly * lb.poly
            assert lab.poly == prod


class TestReduction:
    def test_worked_cubic_reduction(self):
        # f|_v = X - 1/2 in F_p for the running cubic, any odd p
        for p in (3, 5, 7):
            K, v1, v2, phi, f = _cubic_chain(p)
            red = reduce_poly(v2, f)
            k = red.poly.field
            half_inv = k.elem(pow(2, -1, p))
            assert red.poly.coeffs == (-half_inv, k.one)
            assert (red.i0, red.i1) == (1, 2)

    def test_sextic_level1_reduction(self):
        K, v0, v1, v2, f = _chains(5)
        red = reduce_poly(v1, f)
        k = red.poly.field
        assert red.poly == FFPoly.from_ints(k, [-1, 3, -3, 1])
        assert (red.i0, red.i1) == (0, 6)
        assert red.b == 2

    def test_degree_law(self):
        K, v0, v1, v2, f = _chains(5)
        for v in (v1, v2):
            red = reduce_poly(v, f)
            assert red.poly.degree == (red.i1 - red.i0) // red.b
            assert not red.poly[0].is_zero()

    def test_centre_reduces_to_unit(self):
        K, v0, v1, v2, f = _chains(5)
        red = reduce_poly(v2, v2.centre)
        assert red.poly.degree == 0

    def test_multiplicativity_random(self):
        for p in (3, 5):
            K, v0, v1, v2, f = _chains(p)
            rng = random.Random(p)
            for v in (v1, v2):
                done = 0
                while done < 100:
                    g = K.poly([rng.randrange(-p ** 3, p ** 3)
                                for _ in range(rng.randrange(1, 5))])
                    h = K.poly([rng.randrange(-p ** 3, p ** 3)
                                for _ in range(rng.randrange(1, 5))])
                    if g.is_zero() or h.is_zero():
                        continue
                    rg, rh, rgh = reduce_poly(v, g), reduce_poly(v, h), reduce_poly(v, g * h)
                    assert rgh.poly == rg.poly * rh.poly
                    done += 1

    def test_v_equivalence_criterion(self):
        # adding something of much larger value preserves value and reduction
        K, v0, v1, v2, f = _chains(5)
        eps = K.poly([5 ** 9, 5 ** 9, 5 ** 9])
        g = f + eps
        assert v2.eval(f) == v2.eval(g) == 5
        assert reduce_poly(v2, f).poly == reduce_poly(v2, g).poly

    def test_gauss_reduction(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        red = reduce_poly(v0, K.poly([10, 7, 5, 1]))
        assert red.poly == FFPoly.from_ints(K.residue_field, [0, 2, 0, 1])


class TestIsKeyAugment:
    def test_examples(self):
        K, v0, v1, v2, f = _chains(5)
        assert is_key(v1, K.poly([-5, 0, 1]))
        assert is_key(v0, K.x())
        assert not is_key(v1, K.poly([0, 0, 1]))  # x^2 = x*x reducible over v1

    def test_gauss_keys(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        assert is_key(v0, K.poly([3, 1]))
        assert not is_key(v0, K.poly([-5, 0, 1]))  # X^2 reducible mod 5
        assert is_key(v0, K.poly([2, 0, 1]))  # x^2+2 irreducible mod 5


class TestLiftKey:
    def test_lift_over_v1_matches_example(self):
        K, v0, v1, v2, f = _chains(5)
        red = reduce_poly(v1, f)
        k = red.poly.field
        h = FFPoly.from_ints(k, [-1, 1])
        phi = lift_key(v1, h)
        assert phi.degree == 2
        assert is_key(v1, phi)
        rphi = reduce_poly(v1, phi)
        assert rphi.poly == h and rphi.i0 == 0

    def test_lift_over_gauss(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        k = K.residue_field
        h = FFPoly.from_ints(k, [2, 0, 1])
        phi = lift_key(v0, h)
        assert phi.degree == 2 and is_key(v0, phi)

    def test_lift_rejects_X(self):
        K, v0, v1, v2, f = _chains(5)
        k = residue_tower(v1).top
        with pytest.raises(InputError, match="cannot lift a residual polynomial divisible by X"):
            lift_key(v1, FFPoly.from_ints(k, [0, 1]))

    def test_lift_roundtrip_towers(self):
        # degrees up to 3 over residue towers for p in {3, 5}
        for p in (3, 5):
            K = BaseField(p)
            v0 = MacLaneVal.gauss(K)
            v1 = v0.augment_unchecked(K.x(), F(1, 2))
            for v in (v0, v1):
                k = residue_tower(v).top
                for d in (1, 2, 3):
                    h = _pick_irreducible(k, d, avoid_x=True)
                    phi = lift_key(v, h)
                    red = reduce_poly(v, phi)
                    assert red.poly == h
                    assert phi.degree == (v.b_last or 1) * v.deg * d
                    assert is_key(v, phi)

    @pytest.mark.parametrize("p,modulus", [(3, [1, 0, 1]), (5, [2, 0, 1])])
    def test_lift_deeper_tower(self, p, modulus):
        # build a genuine residue extension: v with irreducible quadratic centre
        K = BaseField(p)
        v0 = MacLaneVal.gauss(K)
        phi = K.poly(modulus)
        v = v0.augment_unchecked(phi, F(1))
        tower = residue_tower(v)
        assert tower.top.degree == 2
        for d in (1, 2, 3):
            h = _pick_irreducible(tower.top, d, avoid_x=True)
            psi = lift_key(v, h)
            assert psi.degree == 1 * 2 * d
            assert reduce_poly(v, psi).poly == h

    def test_lift_tower_to_degree_four_field(self):
        # two extension steps: k_v = F_81, then lift over it and roundtrip
        K = BaseField(3)
        v1 = MacLaneVal.gauss(K).augment_unchecked(K.poly([1, 0, 1]), F(1))
        h2 = _pick_irreducible(residue_tower(v1).top, 2, avoid_x=True)
        psi = lift_key(v1, h2)
        v2 = v1.augment_unchecked(psi, F(5, 2))
        tower = residue_tower(v2)
        assert tower.top.degree == 4
        for d in (1, 2):
            h = _pick_irreducible(tower.top, d, avoid_x=True)
            key = lift_key(v2, h)
            assert key.degree == v2.b_last * v2.deg * d
            red = reduce_poly(v2, key)
            assert red.poly == h and red.i0 == 0
            assert is_key(v2, key)

    def test_tower_consistency_two_chains(self):
        K = BaseField(5)
        v0 = MacLaneVal.gauss(K)
        long = v0.augment_unchecked(K.x(), F(1)).augment_unchecked(K.poly([-5, 1]), F(2))
        short = v0.augment_unchecked(K.poly([-5, 1]), F(2))
        rng = random.Random(3)
        for _ in range(300):
            g = K.poly([rng.randrange(-50, 50) for _ in range(rng.randrange(1, 7))])
            if not g.is_zero():
                assert long.eval(g) == short.eval(g)
        t1, t2 = residue_tower(long), residue_tower(short)
        assert t1.top.degree == t2.top.degree


def _tower(base, step_degrees):
    """The tower over ``base`` whose step i adjoins a root of the
    ``_pick_irreducible`` polynomial of degree step_degrees[i] over the field
    below."""
    fields, embeddings, gens, bases = [base], [], [None], []
    for t in step_degrees:
        k = fields[-1]
        h = _pick_irreducible(k, t, avoid_x=True)
        G, emb, root, basis = ff_extend(k, h)
        fields.append(G)
        embeddings.append(emb)
        gens.append(root)
        bases.append(basis)
    return ResidueTower(fields, embeddings, gens, bases)


_TOWERS = {
    "F3-F9-F81": lambda: _tower(prime_field(3), [2, 2]),
    "F25-F625": lambda: _tower(FField(5, find_irreducible_int_poly(5, 2)), [2]),
    "F7-F7-F343": lambda: _tower(prime_field(7), [1, 3]),
}


class TestStepDecomposition:
    """_decompose_over_step against the equation it solves."""

    @pytest.mark.parametrize("name", sorted(_TOWERS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_recomposes(self, name, data):
        tower = _TOWERS[name]()
        level = data.draw(st.integers(1, len(tower.fields) - 1))
        kf, sub = tower.fields[level], tower.fields[level - 1]
        c = FFElem(kf, tuple(data.draw(st.lists(st.integers(0, kf.p - 1),
                                                 min_size=kf.degree, max_size=kf.degree))))
        parts = newton._decompose_over_step(tower, level, c)
        assert len(parts) == kf.degree // sub.degree
        assert all(t.field is sub for t in parts)
        emb, gen = tower.embeddings[level - 1], tower.gens[level]
        total = kf.zero
        for j, t in enumerate(parts):
            total = total + FFElem(kf, emb.image(t.coords)) * gen ** j
        assert total == c

    def test_degree_one_step_returns_c(self):
        tower = _TOWERS["F7-F7-F343"]()
        assert tower.bases[0] is None and tower.fields[1] is tower.fields[0]
        c = tower.fields[1].elem(3)
        assert newton._decompose_over_step(tower, 1, c) == [c]

    def test_no_linear_solve(self, monkeypatch):
        # the stored basis rows replace the Gauss solve of each call
        import clusterfibre.ff as ff
        tower = _TOWERS["F3-F9-F81"]()
        monkeypatch.setattr(ff, "_gauss_solve_mod_p", None)
        c = tower.top.gen
        t0, t1 = newton._decompose_over_step(tower, 2, c)
        emb, kf = tower.embeddings[1], tower.top
        assert FFElem(kf, emb.image(t0.coords)) + FFElem(kf, emb.image(t1.coords)) * tower.gens[2] == c
        assert "solve" not in inspect.getsource(newton._decompose_over_step)


class TestResidualOrder:
    def test_order_counting(self):
        K, v0, v1, v2, f = _chains(5)
        red = reduce_poly(v1, f)
        k = red.poly.field
        assert residual_order(red.poly, FFPoly.from_ints(k, [-1, 1])) == 3
        assert residual_order(red.poly, FFPoly.from_ints(k, [1, 1])) == 0


def _pick_irreducible(k, d, avoid_x=False):
    """Deterministic small irreducible of degree d over k."""
    q = k.order
    for code in range(q ** d):
        coeffs, c = [], code
        for _ in range(d):
            coeffs.append(c % q)
            c //= q
        vecs = []
        for v in coeffs:
            vec = []
            for _ in range(k.degree):
                vec.append(v % k.p)
                v //= k.p
            vecs.append(k.elem(tuple(vec)))
        cand = FFPoly(k, vecs + [k.one])
        if avoid_x and cand[0].is_zero():
            continue
        if is_irreducible(cand):
            return cand
    raise AssertionError


# ---------------------------------------------------------------------------
# The graded descent against a model of the element-object descent: every
# term's value evaluated by its caller and again by the callee, and each
# Laurent coefficient mapped up by its own embedding, power, product and sum


def _model_embed(emb, c):
    """emb(c) from the embedding matrix, column by column."""
    if emb.matrix is None:
        return c
    return emb.dst.elem([sum(x * col[i] for x, col in zip(c.coords, emb.matrix))
                         for i in range(emb.dst.degree)])


def _model_rho(tower, level, lau):
    """The sum of emb(c_j) * gen^(shift + j) in k_level."""
    gen, acc = tower.gens[level], tower.fields[level].zero
    if not lau.is_zero() and lau.shift < 0 and gen.is_zero():
        raise AssertionError("negative power of a vanishing step generator")
    for j, c in enumerate(lau.poly.coeffs):
        if not c.is_zero():
            acc = acc + _model_embed(tower.embeddings[level - 1], c) * gen ** (lau.shift + j)
    return acc


def _model_H(v, tower, level, scaled_alpha, g):
    """H(level, alpha, g) for alpha = scaled_alpha / e_level, with the value
    of g checked here although the caller may have computed it."""
    kf = tower.fields[level]
    val = v._scaled(level, g)
    if val is OO or val > scaled_alpha:
        return Laurent(kf, 0, FFPoly(kf, []))
    if val < scaled_alpha:
        raise ValueError("graded reduction of an element below the stated degree")
    if level == 0:
        return Laurent(kf, 0, g.residue(scaled_alpha))
    e_i, h_i = v.e_rel[level], v.h_rel[level]
    u_a, i_a = newton._ui_pair(e_i, h_i, scaled_alpha)
    child = newton._child_value(v, level, scaled_alpha, i_a)
    coeffs = []
    for a_s in g.phi_expand(v.steps[level - 1].phi)[i_a::e_i]:
        coeffs.append(_model_rho(tower, level, _model_H(v, tower, level - 1, child, a_s)))
        child -= h_i
    return Laurent(kf, v.ellp[level] * i_a - v.ell[level] * u_a, FFPoly(kf, coeffs))


def _model_reduce(v, f):
    """The fields (poly, alpha, i0, i1, b, h_exponent) of reduce_poly(v, f)."""
    tower, n = residue_tower(v), v.depth
    e_n, h_n = v.e_rel[n], v.h_rel[n]
    expansion = f.phi_expand(v.steps[-1].phi)
    terms = [(s, e_n * v._scaled(n - 1, a) + h_n * s) for s, a in enumerate(expansion)
             if not a.is_zero()]
    alpha = min(t for _, t in terms)
    on_line = [s for s, t in terms if t == alpha]
    i0, i1 = on_line[0], on_line[-1]
    child = newton._child_value(v, n, alpha, i0)
    coeffs = []
    for a_s in expansion[i0:i1 + 1:e_n]:
        coeffs.append(_model_rho(tower, n, _model_H(v, tower, n - 1, child, a_s)))
        child -= h_n
    h_exp = F(i0 - v.ell[n] * alpha, e_n)
    assert h_exp.denominator == 1
    return FFPoly(tower.top, coeffs), F(alpha, v.e_levels[n]), i0, i1, e_n, int(h_exp)


def _fields(red):
    return red.poly, red.alpha, red.i0, red.i1, red.b, red.h_exponent


@functools.lru_cache(maxsize=None)
def _descent_chains():
    """Chains by name: identity towers (the running sextic and cubic, whose
    first step has generator 0), the selfcheck input (x^2+1)^2 - 3^5 in both
    residue modes (an F_3 -> F_9 step in exact mode, a degree-2 residue field
    in geometric mode), F_3 -> F_9 -> F_81, and F_25 -> F_625 with e = 2."""
    out = {"sextic": _chains(5)[3], "cubic": _cubic_chain(7)[2]}
    K = BaseField(3)
    f = parse_poly("(x^2+1)^2 - 3^5", K)
    for mode in ("exact", "geometric"):
        tree = build_cluster_tree(f, K, mode=mode, seed=0)
        for node in tree.nodes:
            out[f"{mode} #{node.id}"] = cluster_chain(node)
    v1 = MacLaneVal.gauss(K).augment_unchecked(K.poly([1, 0, 1]), F(1))
    h = _pick_irreducible(residue_tower(v1).top, 2, avoid_x=True)
    out["F_81"] = v1.augment_unchecked(lift_key(v1, h), F(5, 2))
    K = BaseField(5, 2)
    v0 = MacLaneVal.gauss(K)
    out["F_625"] = v0.augment_unchecked(
        lift_key(v0, _pick_irreducible(K.residue_field, 2, avoid_x=True)), F(1, 2))
    for v in out.values():
        residue_tower(v)
    return out


_DESCENT_NAMES = sorted(_descent_chains())


def _descent_poly(draw, v):
    """small * phi^k + small for a centre phi of v (or x), with coefficients
    of denominator 1 or p: terms on several lines.  ``draw(lo, hi)`` picks an
    int in [lo, hi]."""
    K = v.field
    p = K.p

    def small():
        cs = []
        for _ in range(draw(0, 3) + 1):
            nums = [F(draw(-2 * p, 2 * p), p ** draw(0, 1)) for _ in range(K.m)]
            cs.append(K.elem(*nums))
        return K.poly(cs)

    centres = [K.x()] + [s.phi for s in v.steps]
    g = small() * centres[draw(0, len(centres) - 1)] ** draw(0, 2)
    if draw(0, 1):
        g = g + small()
    return g if not g.is_zero() else K.poly([1])


def _sample(count, seed=0):
    """(chain, polynomial) pairs over every descent chain."""
    rng = random.Random(seed)
    chains = _descent_chains()
    return [(chains[name], _descent_poly(rng.randint, chains[name]))
            for name in _DESCENT_NAMES for _ in range(count)]


class TestGradedDescent:
    def test_chains_cover_the_tower_shapes(self):
        towers = [residue_tower(v) for v in _descent_chains().values()]
        embeddings = [e for t in towers for e in t.embeddings]
        assert any(e.matrix is not None and e.src.degree > 1 for e in embeddings)
        assert any(e.matrix is not None and e.src.degree == 1 for e in embeddings)
        assert any(e.matrix is None for e in embeddings)
        assert any(g.is_zero() for t in towers for g in t.gens[1:])

    @pytest.mark.parametrize("name", _DESCENT_NAMES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_against_the_model(self, name, data):
        v = _descent_chains()[name]
        g = _descent_poly(lambda lo, hi: data.draw(st.integers(lo, hi)), v)
        assert _fields(reduce_poly(v, g)) == _model_reduce(v, g)
        tower = residue_tower(v)
        for level in range(v.depth + 1):
            scaled = v._scaled(level, g)
            for delta in (0, -1):
                alpha = F(scaled + delta * v.e_levels[level], v.e_levels[level])
                lau = graded_H(v, level, alpha, g)
                want = _model_H(v, tower, level, scaled + delta * v.e_levels[level], g)
                assert (lau.shift, lau.poly) == (want.shift, want.poly)
                assert lau.is_zero() == (delta != 0)
            with pytest.raises(ValueError, match="below the stated degree"):
                graded_H(v, level, F(scaled, v.e_levels[level]) + 1, g)

    @pytest.mark.parametrize("name", _DESCENT_NAMES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rho_against_the_model(self, name, data):
        # every level of every tower, shifts of both signs
        tower = residue_tower(_descent_chains()[name])
        level = data.draw(st.integers(1, len(tower.fields) - 1))
        sub = tower.fields[level - 1]
        coeffs = data.draw(st.lists(st.lists(st.integers(0, sub.p - 1), min_size=sub.degree,
                                             max_size=sub.degree), min_size=1, max_size=4))
        poly = FFPoly(sub, [sub.elem(c) for c in coeffs])
        assume(not poly.is_zero())  # the descent maps up only terms on the line
        lau = Laurent(sub, data.draw(st.integers(-3, 3)), poly)
        if lau.shift < 0 and tower.gens[level].is_zero():
            with pytest.raises(AssertionError, match="vanishing step generator"):
                newton._rho(tower, level, lau)
            return
        got = newton._rho(tower, level, lau)
        assert FFElem._of(tower.fields[level], got) == _model_rho(tower, level, lau)

    def test_zero_generator_with_shift_zero(self):
        # gen = 0 keeps only the constant coefficient, and only at shift 0
        tower = residue_tower(_descent_chains()["sextic"])
        assert tower.gens[1].is_zero()
        k = tower.fields[0]
        poly = FFPoly.from_ints(k, [3, 1, 4])
        assert list(newton._rho(tower, 1, Laurent(k, 0, poly))) == [3]
        assert list(newton._rho(tower, 1, Laurent(k, 2, poly))) == [0]
        assert _model_rho(tower, 1, Laurent(k, 0, poly)) == tower.fields[1].elem(3)

    def test_descent_shifts_take_both_signs(self, monkeypatch):
        # the sample the guards below use reaches _rho with negative, zero
        # and positive shifts
        shifts = set()
        rho = newton._rho

        def recording(tower, level, lau):
            shifts.add((lau.shift > 0) - (lau.shift < 0))
            return rho(tower, level, lau)

        monkeypatch.setattr(newton, "_rho", recording)
        for v, g in _sample(12):
            reduce_poly(v, g)
        assert shifts == {-1, 0, 1}

    def test_each_term_valued_once(self, monkeypatch):
        # the descent asks for the value of each expansion term at most once
        # per level; the kernel's own recursion inside _scaled is not counted
        calls, depth = [], [0]
        scaled = MacLaneVal._scaled

        def counting(self, level, g):
            if not depth[0]:
                calls.append((level, id(g)))
            depth[0] += 1
            try:
                return scaled(self, level, g)
            finally:
                depth[0] -= 1

        sample = _sample(12)
        monkeypatch.setattr(MacLaneVal, "_scaled", counting)
        deep = 0
        for v, g in sample:
            calls.clear()
            reduce_poly(v, g)
            assert calls and len(calls) == len(set(calls))
            deep += any(level < v.depth - 1 for level, _ in calls)
        assert deep  # the descent went below the top level

    def test_no_element_objects_in_the_descent(self, monkeypatch):
        sample = _sample(12)
        want = [_model_reduce(v, g) for v, g in sample]

        def refuse(*args):
            raise AssertionError("element-object arithmetic inside reduce_poly")

        for name in ("__add__", "__mul__"):
            monkeypatch.setattr(FFElem, name, refuse)
        assert [_fields(reduce_poly(v, g)) for v, g in sample] == want
