r"""Newton polygons, graded reductions, residue towers, and key polynomials.

Everything here is relative to a MacLaneVal chain.  The residue tower
k_0 <= k_1 <= ... <= k_n attaches one finite field per augmentation step:
k_{i+1} is k_i extended by the reduction of phi_{i+1} with respect to the
depth-i truncation, and the root of the step is the image of the graded
variable of level i.  A chain's tower is its prefix's tower plus the one
``ff.Extension`` that ``ff_extend`` returns, so chains with a common prefix
share its fields and steps.  Graded reduction takes a step forward
(``evaluate``) and key lifting takes it back (``over_src``).

The graded reduction H(level, alpha, g) is a Laurent polynomial
X^shift * poly(X) over k_level, computed by recursive descent on phi-adic
expansions: only the expansion terms sitting on the line u + lambda*i =
alpha contribute, their indices form an arithmetic progression with gap
e_level, and each contributes its own lower-level H image.  Each term's
value is computed once: ``reduce_poly`` keeps the values it finds the line
with, and ``_graded_H`` takes a g already known to have value alpha and
evaluates only its progression one level down.  A constant, like any g
of lower degree than the centre, is its own one-term expansion and goes
down the descent without a ``phi_expand`` call; at level 0 the image is
the residue coordinates of g.

Inside an ``expansion_scope`` (field.py) ``reduce_poly`` computes each
(chain, polynomial, upto) once and keeps the Reduction in the scope's memo,
beside the expansions.  So a chain's tower step reads the reduction of its
centre that ``lift_key``'s roundtrip check made over the prefix, and
``is_key`` the one the tower step made.  A truncated and a whole read stay
separate computations.

No graded ring is ever materialized: ``_graded_H`` returns the pair
(shift, rows), rows the flat coordinates of poly, and the step below the
level maps it one level up by evaluating X^shift * poly(X) at its root.

Values travel as integers scaled by the group index of their level (see
valuation.py): the Newton polygon's hull, the line value alpha of a
reduction and its on-line indices, and the alpha handed down the graded
maps.  The value of a term a_s one level down is (A - s h_i) / e_i for the
scaled alpha A; that division, and the one giving ``h_exponent``, is exact
by the theory and checked, and a remainder raises InternalInconsistency
naming the law.  Fractions appear only at the public boundary: the edge
radii of a Newton polygon and ``Reduction.alpha``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .errors import InputError, InternalInconsistency
from .field import _EXPANSIONS, KPoly, _residues, expansion_scope
from .ff import FField, FFPoly, ff_extend, is_irreducible
from .rationals import OO
from .valuation import MacLaneVal


# ---------------------------------------------------------------------------
# Newton polygons


class EdgeData:
    """One edge of a Newton polygon, from index i0 to i1; lam is minus its
    slope."""

    __slots__ = ("lam", "i0", "i1")

    def __init__(self, lam, i0, i1):
        self.lam, self.i0, self.i1 = lam, i0, i1

    def __repr__(self):
        from .rationals import qstr
        return f"Edge(lam={qstr(self.lam)}, {self.i0}..{self.i1})"


def _lower_hull(points):
    verts = []
    for pt in points:
        while len(verts) >= 2:
            (ox, oy), (ax, ay) = verts[-2], verts[-1]
            bx, by = pt
            if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= 0:
                verts.pop()
            else:
                break
        verts.append(pt)
    return verts


def newton_polygon(v_prev: MacLaneVal, phi: KPoly, f: KPoly, upto=None) -> List[EdgeData]:
    """The edges, left to right, of the lower convex hull of the expansion
    points (i, v_prev(a_i)), taken on the scaled points (i, e v_prev(a_i))
    for the group index e of v_prev.  No three vertices are collinear, so
    lam falls strictly from edge to edge.

    With ``upto`` only the points i < upto are read, and the hull is theirs:
    the caller guarantees that the edges it needs end at a vertex below
    upto, so that they are edges of the whole polygon as well."""
    if f.is_zero():
        raise InputError("Newton polygon of the zero polynomial")
    n, e = v_prev.depth, v_prev.e_levels[-1]
    hull = _lower_hull([(i, v_prev._scaled(n, a))
                        for i, a in enumerate(f.phi_expand(phi, upto)) if a.rows])
    return [EdgeData(Fraction(s0 - s1, e * (i1 - i0)), i0, i1)
            for (i0, s0), (i1, s1) in zip(hull, hull[1:])]


# ---------------------------------------------------------------------------
# Residue towers


class ResidueTower:
    """Fields k_0 .. k_n and the steps between them."""

    __slots__ = ("fields", "steps")

    def __init__(self, fields, steps):
        self.fields = fields
        self.steps = steps  # steps[i]: the ff.Extension k_i -> k_{i+1}

    @property
    def top(self) -> FField:
        return self.fields[-1]


def residue_tower(v: MacLaneVal) -> ResidueTower:
    """Tower of the chain: the tower of its prefix extended by one step, so
    every chain shares its field objects with all chains of a common prefix."""
    if v._tower is not None:
        return v._tower
    if v.is_gauss:
        tower = ResidueTower([v.field.residue_field], [])
    else:
        base = residue_tower(v.prefix)
        # the modulus of the step is the reduction of the new centre, taken
        # over the prefix so its coefficients live in the prefix's top field
        red = reduce_poly(v.prefix, v.centre)
        if red.poly.degree != v.deg // (v.prefix.deg * red.b):
            raise InternalInconsistency("tower modulus has unexpected degree")
        step = ff_extend(base.top, red.poly)
        tower = ResidueTower(base.fields + [step.dst], base.steps + [step])
    v._tower = tower
    return tower


# ---------------------------------------------------------------------------
# Graded reduction maps


def _exact(num: int, den: int, law: str) -> int:
    """num / den, which the law named says is an integer."""
    q, r = divmod(num, den)
    if r:
        raise InternalInconsistency(f"{law}: {num}/{den} is not an integer")
    return q


def _child_value(v: MacLaneVal, level: int, scaled_alpha: int, s: int) -> int:
    """e_{level-1} (alpha - s lambda_level), from alpha scaled by e_level:
    the value a phi_level-adic coefficient a_s needs for a_s phi^s to have
    value alpha.  Along s, s + e_level, ... it falls by h_level per step."""
    return _exact(scaled_alpha - s * v.h_rel[level], v.e_rel[level],
                  f"graded value in the value group at level {level - 1}")


def _ui_pair(e_i: int, h_i: int, scaled_alpha: int):
    """u, i with u*e_i + i*h_i = scaled_alpha and 0 <= i < e_i."""
    if e_i == 1:
        return scaled_alpha, 0
    i = (scaled_alpha * pow(h_i, -1, e_i)) % e_i
    return _exact(scaled_alpha - i * h_i, e_i, "graded value in the value group"), i


def _graded_H(v: MacLaneVal, tower: ResidueTower, level: int, scaled_alpha: int,
              g: KPoly):
    """H_{level, alpha}(g) = X^shift * poly(X) over k_level, as (shift, rows)
    with rows the flat coordinates of poly, for alpha = scaled_alpha /
    e_level and a g of value alpha."""
    if level == 0:
        return 0, _residues(g.rows, g.den, g.field.p, scaled_alpha)
    e_i = v.e_rel[level]
    u_a, i_a = _ui_pair(e_i, v.h_rel[level], scaled_alpha)
    c_a = v.ellp[level] * i_a - v.ell[level] * u_a
    # u_a again, from i_a alone: an index off the progression leaves a remainder
    child = _child_value(v, level, scaled_alpha, i_a)
    phi = v.steps[level - 1].phi
    if len(g.rows) < len(phi.rows):
        # a constant, or any g of lower degree than the centre, is its own
        # one-term expansion: index 0, on the progression only when i_a is
        terms = [(g, v._scaled(level - 1, g))] if i_a == 0 else []
    else:
        terms = [(a, v._scaled(level - 1, a)) for a in g.phi_expand(phi)[i_a::e_i]]
    return c_a, _images(v, tower, level, child, terms)


def _images(v: MacLaneVal, tower: ResidueTower, level: int, child: int, terms) -> list:
    """The flat coordinates over k_level of H(level - 1, a), evaluated by the
    step below, for the terms (a, e_{v_{level-1}} v_{level-1}(a)) of one
    progression, whose first term is on the line when its value is
    ``child``; a term above the line maps to zero.  Trailing zeros drop."""
    d, h_i = tower.fields[level].degree, v.h_rel[level]
    step = tower.steps[level - 1]
    rows = []
    for a, val in terms:
        if val == child:
            shift, sub = _graded_H(v, tower, level - 1, child, a)
            rows += step.evaluate(sub, shift)
        elif val < child:
            raise InternalInconsistency(f"graded reduction below the stated degree at level {level - 1}")
        else:
            rows += [0] * d
        child -= h_i
    while rows and not any(rows[-d:]):
        del rows[-d:]
    return rows


# ---------------------------------------------------------------------------
# Residual polynomials (reductions)


class Reduction:
    """f|_v together with the selected-edge data it came from.

    ``poly`` is f|_v over the top tower field; ``i0``/``i1`` are the edge
    endpoints, ``b`` the last-step relative index e_n, and ``h_exponent``
    the integer E with H_{n,alpha}(f) = X^E * f|_v, so the alpha-graded
    normalization is recoverable from the plain one.
    """

    __slots__ = ("poly", "alpha", "i0", "i1", "b", "h_exponent")

    def __init__(self, poly, alpha, i0, i1, b, h_exponent):
        self.poly = poly
        self.alpha = alpha
        self.i0 = i0
        self.i1 = i1
        self.b = b
        self.h_exponent = h_exponent

    def __repr__(self):
        return f"Reduction(i0={self.i0}, i1={self.i1}, poly={self.poly!r})"


@expansion_scope
def reduce_poly(v: MacLaneVal, f: KPoly, upto=None) -> Reduction:
    """The reduction f|_v along the chain of v (Gauss handled coefficientwise).

    With ``upto`` only the first upto coefficients of the expansion of f in
    the last centre are read: the caller guarantees that the terms on the
    line of value alpha = v(f) all lie among them, and every later term
    strictly above it, as for the right end of an edge of the Newton
    polygon.  Then alpha, the edge and f|_v are those of the whole of f.

    Inside an ``expansion_scope`` each (v, f, upto) is reduced once, and
    every later call returns the same Reduction."""
    memo = _EXPANSIONS.get()
    key = (id(v), id(f), upto)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (v, f, _reduce(v, f, upto))
    return hit[2]


def _reduce(v: MacLaneVal, f: KPoly, upto) -> Reduction:
    """The kernel of ``reduce_poly``, without the memo."""
    if f.is_zero():
        raise InputError("reduction of the zero polynomial")
    if v.is_gauss:
        alpha = v._scaled(0, f)
        return Reduction(f.residue(alpha), Fraction(alpha), 0, f.degree, 1, 0)
    tower = residue_tower(v)
    n = v.depth
    e_n, h_n = v.e_rel[n], v.h_rel[n]
    expansion = f.phi_expand(v.steps[-1].phi, upto)
    # e_{v_{n-1}} v_{n-1}(a_s), once per term; t is the value of a_s phi^s, scaled
    vals = [v._scaled(n - 1, a) for a in expansion]
    terms = [(s, e_n * u + h_n * s) for s, u in enumerate(vals) if u is not OO]
    alpha = min(t for _, t in terms)
    on_line = [s for s, t in terms if t == alpha]
    i0, i1 = on_line[0], on_line[-1]
    rows = _images(v, tower, n, _child_value(v, n, alpha, i0),
                   zip(expansion[i0:i1 + 1:e_n], vals[i0:i1 + 1:e_n]))
    h_exp = _exact(i0 - v.ell[n] * alpha, e_n, "integral graded shift exponent")
    return Reduction(FFPoly._of(tower.top, rows), Fraction(alpha, v.e_levels[n]), i0, i1,
                     e_n, h_exp)


# ---------------------------------------------------------------------------
# Key polynomials


def is_key(v: MacLaneVal, phi: KPoly) -> bool:
    """Key-polynomial test over v: same-degree equivalent-to-centre case, or
    irreducible reduction with full edge and i0 = 0; never a phi with a
    denominator, since every key the pipeline makes has integer coordinates."""
    if not phi.is_monic() or phi.degree < 1 or phi.den != 1:
        return False
    if phi.degree == v.deg and v.equiv(phi, v.centre):
        return True
    if phi.degree % v.deg:
        return False
    red = reduce_poly(v, phi)
    if red.i0 != 0:
        return False
    if phi.degree != red.i1 * v.deg:
        return False
    return is_irreducible(red.poly)


def _lift(K, rows, alpha: int) -> KPoly:
    """p^alpha times the polynomial over K whose integer coordinates are the
    residue coordinates ``rows`` in [0, p), balanced into (-p/2, p/2)."""
    p = K.p
    scale = p ** max(alpha, 0)
    return KPoly._of(K, [(x if 2 * x < p else x - p) * scale for x in rows], p ** max(-alpha, 0))


def _inv_graded(v: MacLaneVal, tower: ResidueTower, level: int, scaled_alpha: int,
                c: FFPoly) -> KPoly:
    """Preimage construction: a in K[x] with deg a < deg phi_{level+1},
    value alpha = scaled_alpha / e_level at depth ``level``, and
    H(level, alpha, a) evaluated by the step k_level -> k_{level+1} is c;
    at level 0, p^alpha times the ``_lift`` of c's coordinates over k_0."""
    K = v.field
    if c.is_zero():
        raise InputError("preimage of zero requested")
    if level == 0:
        zero = (0,) * K.m
        rows = [x for t in tower.steps[0].over_src(c) for x in t.rows or zero]
        return _lift(K, rows, scaled_alpha)
    e_i, h_i = v.e_rel[level], v.h_rel[level]
    u_a, i_a = _ui_pair(e_i, h_i, scaled_alpha)
    c_a = v.ellp[level] * i_a - v.ell[level] * u_a
    step = tower.steps[level]
    parts = step.over_src(c * step.root ** (-c_a) if c_a else c)
    phi = v.steps[level - 1].phi
    child = _child_value(v, level, scaled_alpha, i_a)
    # c != 0 has a nonzero coordinate, so acc is set; a term a_j phi^0 is a_j
    acc = None
    for j, t_j in enumerate(parts):
        if not t_j.is_zero():
            a_j = _inv_graded(v, tower, level - 1, child - j * h_i, t_j)
            k = i_a + j * e_i
            term = a_j * phi ** k if k else a_j
            acc = term if acc is None else acc + term
    return acc


def lift_key(v: MacLaneVal, h: FFPoly) -> KPoly:
    """A key polynomial over v whose reduction is the monic irreducible h != X.

    The result is monic of degree b_v * deg(v) * deg(h) with integral
    coefficients; the roundtrip through reduce_poly is checked before
    returning.  Over the Gauss valuation it is the ``_lift`` of h.
    """
    tower = residue_tower(v)
    kv = tower.top
    if h.field is not kv:
        raise InputError("residual polynomial must live over the top residue field")
    if h.degree < 1 or not h.lead() == kv.one or not is_irreducible(h):
        raise InputError("lift target must be monic irreducible")
    if h.degree >= 1 and h[0].is_zero():
        raise InputError("cannot lift a residual polynomial divisible by X")
    K = v.field
    if v.is_gauss:
        # k_0 is the residue field of K, and the lift of the lead 1 is 1
        phi = _lift(K, h.rows, 0)
        if not is_key(v, phi):
            raise InternalInconsistency("lifted Gauss-level centre is not a key polynomial")
        return phi
    n = v.depth
    e_n = v.e_rel[n]
    phi_n = v.steps[-1].phi
    d = h.degree
    acc = phi_n ** (d * e_n)
    for j in range(d):
        c_j = h[j]
        if c_j.is_zero():
            continue
        # alpha_j = (d - j) e_n lambda_n at depth n - 1, times e_{n-1}
        a_j = _inv_graded(v, tower, n - 1, (d - j) * v.h_rel[n], c_j)
        acc = acc + (a_j * phi_n ** (j * e_n) if j else a_j)
    if acc.gauss_val() < 0:
        raise InternalInconsistency("lifted key has non-integral coefficients")
    red = reduce_poly(v, acc)
    if not (red.i0 == 0 and red.poly == h):
        raise InternalInconsistency("lifted key failed the reduction roundtrip")
    return acc
