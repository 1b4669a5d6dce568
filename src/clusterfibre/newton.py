r"""Newton polygons, graded reductions, residue towers, and key polynomials.

Everything here is relative to a MacLaneVal chain.  The residue tower
k_0 <= k_1 <= ... <= k_n attaches one finite field per augmentation step:
k_{i+1} is k_i extended by the reduction of phi_{i+1} with respect to the
depth-i truncation, and the designated generator of the step is the image
of the graded variable of level i.  A chain's tower is its prefix's tower
plus one ``ff_extend`` step, so chains with a common prefix share its fields.
A step keeps the basis rows ``ff_extend`` returns: with them, writing an
element of k_{i+1} in powers of the step generator over k_i (for key
lifting) is one matrix-vector product mod p.

The graded reduction H(level, alpha, g) returns a Laurent polynomial over
k_level, computed by recursive descent on phi-adic expansions: only the
expansion terms sitting on the line u + lambda*i = alpha contribute, their
indices form an arithmetic progression with gap e_level, and each
contributes its own lower-level H image.  Each term's value is computed
once: ``reduce_poly`` keeps the values it finds the line with, and the
internal ``_graded_H`` takes a g already known to have value alpha and
evaluates only its progression one level down.  The Laurent monomial twist
X^{c(alpha)} is carried as an explicit integer shift so both normalizations
of a residual polynomial are recoverable.

No graded ring is ever materialized: a Laurent value is a pair
(shift, polynomial), and mapping one level up takes the flat coordinates of
its coefficients through the step embedding, then evaluates
X^shift * poly(X) at the step generator by Horner's rule.

Values travel as integers scaled by the group index of their level (see
valuation.py): the Newton polygon's hull, the line value alpha of a
reduction and its on-line indices, and the alpha handed down the graded
maps.  The value of a term a_s one level down is (A - s h_i) / e_i for the
scaled alpha A; that division, and the one giving ``h_exponent``, is exact
by the theory and checked, and a remainder raises InternalInconsistency
naming the law.  Fractions appear only at the public boundary: polygon
vertices and slopes, ``Reduction.alpha``, and the alpha given to
``graded_H``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .errors import InputError, InternalInconsistency
from .field import KPoly, expansion_scope
from .ff import FField, FFElem, FFPoly, ff_extend, is_irreducible, _fmul
from .rationals import OO
from .valuation import MacLaneVal


# ---------------------------------------------------------------------------
# Newton polygons


class EdgeData:
    """Selected-edge endpoints (i0, u0), (i1, u1); lam is minus the slope."""

    __slots__ = ("lam", "i0", "u0", "i1", "u1")

    def __init__(self, lam, i0, u0, i1, u1):
        self.lam, self.i0, self.u0, self.i1, self.u1 = lam, i0, u0, i1, u1

    def __repr__(self):
        from .rationals import qstr
        return f"Edge(lam={qstr(self.lam)}, ({self.i0},{qstr(self.u0)})..({self.i1},{qstr(self.u1)}))"


class NewtonPolygon:
    """Lower convex hull of the expansion points (i, v_prev(a_i)).

    ``scaled`` holds the vertices (i, e * v_prev(a_i)) over the group index
    e of v_prev; ``vertices`` the same points with their values.
    """

    def __init__(self, scaled, e: int):
        self.scaled = scaled
        self.e = e
        self.vertices = [(i, Fraction(u, e)) for i, u in scaled]

    def edges(self) -> List[EdgeData]:
        out = []
        for k, ((i0, s0), (i1, s1)) in enumerate(zip(self.scaled, self.scaled[1:])):
            lam = Fraction(s0 - s1, self.e * (i1 - i0))
            out.append(EdgeData(lam, i0, self.vertices[k][1], i1, self.vertices[k + 1][1]))
        return out

    def slopes(self):
        return [-e.lam for e in self.edges()]

    def __repr__(self):
        return f"NewtonPolygon({self.vertices})"


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


def newton_polygon(v_prev: MacLaneVal, phi: KPoly, f: KPoly) -> NewtonPolygon:
    if f.is_zero():
        raise InputError("Newton polygon of the zero polynomial")
    n = v_prev.depth
    pts = [(i, v_prev._scaled(n, a)) for i, a in enumerate(f.phi_expand(phi)) if a.rows]
    return NewtonPolygon(_lower_hull(pts), v_prev.e_levels[-1])


# ---------------------------------------------------------------------------
# Residue towers


class ResidueTower:
    """Fields k_0 .. k_n with step embeddings, generators, and step bases."""

    __slots__ = ("fields", "embeddings", "gens", "bases")

    def __init__(self, fields, embeddings, gens, bases):
        self.fields = fields
        self.embeddings = embeddings  # embeddings[i]: k_i -> k_{i+1}
        self.gens = gens              # gens[i+1]: image of the level-i variable in k_{i+1}
        self.bases = bases            # bases[i]: the basis rows of ff_extend for k_i -> k_{i+1}

    @property
    def top(self) -> FField:
        return self.fields[-1]


def residue_tower(v: MacLaneVal) -> ResidueTower:
    """Tower of the chain: the tower of its prefix extended by one step, so
    every chain shares its field objects with all chains of a common prefix."""
    if "tower" in v._cache:
        return v._cache["tower"]
    if v.is_gauss:
        tower = ResidueTower([v.field.residue_field], [], [None], [])
    elif v.is_pseudo:
        tower = residue_tower(v.prefix)
    else:
        base = residue_tower(v.prefix)
        # the modulus of the step is the reduction of the new centre, taken
        # over the prefix so its coefficients live in the prefix's top field
        red = reduce_poly(v.prefix, v.centre)
        modulus = red.poly
        if modulus.degree != v.deg // (v.prefix.deg * red.b):
            raise InternalInconsistency("tower modulus has unexpected degree")
        G, emb, root, basis = ff_extend(base.fields[-1], modulus)
        tower = ResidueTower(base.fields + [G], base.embeddings + [emb],
                             base.gens + [root], base.bases + [basis])
    v._cache["tower"] = tower
    return tower


# ---------------------------------------------------------------------------
# Graded reduction maps


class Laurent:
    """A Laurent polynomial over one tower level: X^shift * poly(X)."""

    __slots__ = ("field", "shift", "poly")

    def __init__(self, field: FField, shift: int, poly: FFPoly):
        self.field = field
        self.shift = shift
        self.poly = poly

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __repr__(self):
        return f"X^{self.shift} * {self.poly!r}"


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


def graded_H(v: MacLaneVal, level: int, alpha, g: KPoly) -> Laurent:
    """H_{level, alpha}(g): zero if the level value of g exceeds alpha.

    alpha must lie in the value group of the depth-``level`` truncation, and
    a g of value below alpha raises InputError.
    """
    scaled = alpha * v.e_levels[level]
    if Fraction(scaled).denominator != 1:
        raise InputError(f"{alpha} is not in the value group at level {level}")
    tower = residue_tower(v)
    val = v._scaled(level, g)
    if val < scaled:
        raise InputError("graded reduction of an element below the stated degree")
    if val != scaled:
        return Laurent(tower.fields[level], 0, FFPoly._of(tower.fields[level], ()))
    return _graded_H(v, tower, level, val, g)


def _graded_H(v: MacLaneVal, tower: ResidueTower, level: int, scaled_alpha: int,
              g: KPoly) -> Laurent:
    """graded_H with alpha given as e_level * alpha, for a g of that value."""
    kf = tower.fields[level]
    if level == 0:
        return Laurent(kf, 0, g.residue(scaled_alpha))
    e_i = v.e_rel[level]
    u_a, i_a = _ui_pair(e_i, v.h_rel[level], scaled_alpha)
    c_a = v.ellp[level] * i_a - v.ell[level] * u_a
    # u_a again, from i_a alone: an index off the progression leaves a remainder
    child = _child_value(v, level, scaled_alpha, i_a)
    terms = [(a, v._scaled(level - 1, a))
             for a in g.phi_expand(v.steps[level - 1].phi)[i_a::e_i]]
    return Laurent(kf, c_a, FFPoly._of(kf, _images(v, tower, level, child, terms)))


def _images(v: MacLaneVal, tower: ResidueTower, level: int, child: int, terms) -> list:
    """The flat coordinates over k_level of rho(H(level - 1, a)) for the
    terms (a, e_{v_{level-1}} v_{level-1}(a)) of one progression, whose first
    term is on the line when its value is ``child``; a term above the line
    maps to zero."""
    d, h_i = tower.fields[level].degree, v.h_rel[level]
    rows = []
    for a, val in terms:
        if val == child:
            rows += _rho(tower, level, _graded_H(v, tower, level - 1, child, a))
        elif val < child:
            raise InternalInconsistency(f"graded reduction below the stated degree at level {level - 1}")
        else:
            rows += [0] * d
        child -= h_i
    return rows


def _rho(tower: ResidueTower, level: int, lau: Laurent) -> list:
    """The coordinates in k_level of a nonzero Laurent value over k_{level-1}: its
    coefficients mapped up by the step embedding, then X^shift * poly(X)
    evaluated at the step generator by Horner's rule."""
    kf, gen = tower.fields[level], tower.gens[level]
    rows = tower.embeddings[level - 1].image(lau.poly.rows)
    d, p = kf.degree, kf.p
    if lau.shift < 0 and gen.is_zero():
        raise InternalInconsistency("negative power of a vanishing step generator")
    acc = rows[-d:]
    for lo in range(len(rows) - 2 * d, -1, -d):
        acc = [(a + c) % p for a, c in zip(_fmul(acc, gen.coords, kf), rows[lo:lo + d])]
    return _fmul(acc, (gen ** lau.shift).coords, kf) if lau.shift else acc


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
def reduce_poly(v: MacLaneVal, f: KPoly) -> Reduction:
    """The reduction f|_v along the chain of v (Gauss handled coefficientwise)."""
    if f.is_zero():
        raise InputError("reduction of the zero polynomial")
    if v.is_gauss:
        alpha = v._scaled(0, f)
        return Reduction(f.residue(alpha), Fraction(alpha), 0, f.degree, 1, 0)
    if v.is_pseudo:
        raise InputError("reduction with respect to an infinite pseudo-valuation")
    tower = residue_tower(v)
    n = v.depth
    e_n, h_n = v.e_rel[n], v.h_rel[n]
    expansion = f.phi_expand(v.steps[-1].phi)
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
    irreducible reduction with full edge and i0 = 0."""
    if not phi.is_monic() or phi.degree < 1:
        return False
    if phi.gauss_val() < 0:
        return False
    if v.is_gauss:
        red = reduce_poly(v, phi)
        if v.eval(phi) != 0:
            return False
        return is_irreducible(red.poly)
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


def _balanced(x: int, p: int) -> int:
    x %= p
    return x if x <= p // 2 else x - p


def _lift_subfield_elem(K, t) -> "KElem":
    """Integer lift of a residue element with balanced coordinates."""
    return K.elem(*[_balanced(x, K.p) for x in t.coords])


def _decompose_over_step(tower: ResidueTower, level: int, c: FFElem):
    """Write c in k_level as sum emb(t_j) * gen^j, j < rel degree of the step:
    the basis rows of the step map the coordinates of c to those of the t_j."""
    sub, basis = tower.fields[level - 1], tower.bases[level - 1]
    if basis is None:
        return [c]
    p, d = sub.p, sub.degree
    flat = [0] * len(basis)
    for x, row in zip(c.coords, basis):
        if x:
            flat = [a + x * r for a, r in zip(flat, row)]
    return [FFElem._of(sub, [a % p for a in flat[lo:lo + d]])
            for lo in range(0, len(flat), d)]


def _inv_graded(v: MacLaneVal, tower: ResidueTower, level: int, scaled_alpha: int,
                c: FFElem) -> KPoly:
    """Preimage construction: a in K[x] with deg a < deg phi_{level+1},
    value alpha = scaled_alpha / e_level at depth ``level``, and
    rho(H(level, alpha, a)) = c."""
    K = v.field
    if c.is_zero():
        raise InputError("preimage of zero requested")
    if level == 0:
        parts = _decompose_over_step(tower, 1, c)
        lift = KPoly(K, [_lift_subfield_elem(K, t) for t in parts])
        return lift.scale(K.rat(Fraction(K.p) ** scaled_alpha))
    e_i, h_i = v.e_rel[level], v.h_rel[level]
    u_a, i_a = _ui_pair(e_i, h_i, scaled_alpha)
    c_a = v.ellp[level] * i_a - v.ell[level] * u_a
    gen_up = tower.gens[level + 1]
    target = c * gen_up ** (-c_a) if c_a else c
    parts = _decompose_over_step(tower, level + 1, target)
    phi = v.steps[level - 1].phi
    child = _child_value(v, level, scaled_alpha, i_a)
    acc = KPoly(K, [])
    for j, t_j in enumerate(parts):
        if not t_j.is_zero():
            a_j = _inv_graded(v, tower, level - 1, child - j * h_i, t_j)
            acc = acc + a_j * phi ** (i_a + j * e_i)
    return acc


def lift_key(v: MacLaneVal, h: FFPoly) -> KPoly:
    """A key polynomial over v whose reduction is the monic irreducible h != X.

    The result is monic of degree b_v * deg(v) * deg(h) with integral
    coefficients; the roundtrip through reduce_poly is checked before
    returning.
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
        phi = KPoly(K, [_lift_subfield_elem(K, c) for c in h.coeffs[:-1]] + [K.one])
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
        acc = acc + a_j * phi_n ** (j * e_n)
    if acc.gauss_val() < 0:
        raise InternalInconsistency("lifted key has non-integral coefficients")
    red = reduce_poly(v, acc)
    if not (red.i0 == 0 and red.poly == h):
        raise InternalInconsistency("lifted key failed the reduction roundtrip")
    return acc


def residual_order(red_poly: FFPoly, factor: FFPoly) -> int:
    """Multiplicity of a monic factor inside a residual polynomial."""
    count = 0
    g = red_poly
    while True:
        q, r = g.divmod(factor)
        if not r.is_zero():
            return count
        count += 1
        g = q
