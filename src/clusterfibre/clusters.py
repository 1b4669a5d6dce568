r"""Discovery of the rooted tree of MacLane clusters of a separable polynomial.

The construction is refinement by one loop over a stack of contexts, so
its depth is not bounded by the interpreter's stack.  A *context* is a
valuation v together with a key polynomial phi over it; the edges of the
principal Newton polygon of f relative to (v, phi) give a nested chain of
candidate valuations [v, phi -> lam], shallowest first.  For each candidate
the residual polynomial of f is factored over the residue field:

  * width-1 edges certify a single non-proper orbit (a leaf);
  * a candidate whose residual polynomial is a full power of one linear
    factor with trivial last denominator and nothing deeper is *not* a
    cluster (a same-degree valuation deeper has the same root set): the
    centre is re-lifted and refinement continues in place;
  * otherwise the candidate is a proper cluster node: multiple residual
    factors spawn child contexts with lifted centres, simple factors are
    leaf orbits, exact divisibility of f by the centre is the deepest leaf,
    and deeper edges of the same context become same-centre children.

Child contexts run depth first, so node ids follow discovery, a preorder.
After discovery the section-5 centre rule runs bottom-up (degree-minimal
nodes take the minimal polynomial of a same-degree orbit when one exists,
other nodes inherit a same-degree child's centre), each node gets its
unique cluster chain, and all reductions are recomputed along those chains.
The counting laws (sizes from edge endpoints, additivity over leaves, child
multiplicities inside the residual polynomial, left endpoints against
degree-minimality) are asserted on every run; a violation raises
InternalInconsistency, signalling a bug rather than bad input.

Residue modes: in exact mode residue fields grow as dictated by the input.
In geometric mode the base field is enlarged by unramified extensions until
every residual factor in sight is linear: a build stops at its first
nonlinear residual factor, and the next build runs over the extension of
the base by that factor's degree.  This realizes the
algebraically-closed-residue presentation, up to the residue degree cap
field.MAX_UNRAMIFIED_DEGREE.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional

from .errors import InputError, InternalInconsistency
from .field import (BaseField, KPoly, MAX_UNRAMIFIED_DEGREE, discriminant_val,
                    expansion_scope, extend_unramified)
from .ff import ff_factor
from .rationals import OO, qstr
from .valuation import MacLaneVal
from .newton import newton_polygon, reduce_poly, lift_key, is_key


class LeafOrbit:
    """A non-proper cluster: one Galois orbit of roots below a proper node.

    ``degree`` is the orbit size (= degree of the orbit's minimal
    polynomial over the current base); ``residual_degree`` the degree of
    the simple residual factor that certified it (1 for an exact divisor).
    Residual leaves remember which valuation and residual factor certified
    them, so a key polynomial approximating the orbit's minimal polynomial
    can be lifted on demand.
    """

    __slots__ = ("degree", "residual_degree", "certificate", "poly",
                 "lift_from", "lift_h")

    def __init__(self, degree, residual_degree, certificate, poly=None,
                 lift_from=None, lift_h=None):
        self.degree = degree
        self.residual_degree = residual_degree
        self.certificate = certificate  # "divides" | "residual"
        self.poly = poly  # exact minimal polynomial when certificate == "divides"
        self.lift_from = lift_from
        self.lift_h = lift_h

    def __repr__(self):
        return f"Leaf(deg={self.degree}, {self.certificate})"


class ClusterNode:
    """A proper MacLane cluster with its discovery and cluster-chain data."""

    def __init__(self, valuation: MacLaneVal, size: int):
        self.valuation = valuation          # discovery chain
        self.size = size
        self.degree = valuation.deg
        self.radius = valuation.radius
        self.parent: Optional[ClusterNode] = None
        self.children: List[ClusterNode] = []
        self.leaves: List[LeafOrbit] = []
        self.id: Optional[int] = None
        # set by the centre/chain passes
        self.centre: Optional[KPoly] = None
        self.cluster_chain: Optional[MacLaneVal] = None
        self.reduction = None               # Reduction of f along the cluster chain
        self.child_residuals = {}           # child id -> FFPoly (centre reduction), distinct-centre only
        self.fbar = None                    # f|_v with the child_residuals divided out

    @property
    def is_degree_minimal(self) -> bool:
        return all(c.degree != self.degree for c in self.children)

    @property
    def min_orbit_degree(self) -> Optional[int]:
        return min((l.degree for l in self.leaves), default=None)

    def same_degree_children(self):
        return [c for c in self.children if c.degree == self.degree]

    def __repr__(self):
        return (f"Cluster(deg={self.degree}, radius={qstr(self.radius)}, "
                f"size={self.size}, children={len(self.children)}, leaves={len(self.leaves)})")


class ClusterTree:
    """The proper clusters of f over ``field`` in discovery order: ``nodes[i]``
    has id i, each parent comes before its children, and ``root`` is the
    first node (None when f is a single orbit)."""

    def __init__(self, field, f, nodes: List[ClusterNode], mode, shift):
        self.field = field
        self.f = f
        self.nodes = nodes
        self.root = nodes[0] if nodes else None
        self.mode = mode
        self.shift = shift


def normalize_input(f: KPoly):
    """Rescale x by a power of p so every root gains strictly positive valuation.

    Returns (f(x / p^c), c) with c >= 0 minimal, so each root r of f turns
    into p^c r.  Raises InputError on a constant and on input with repeated
    roots: ``KPoly.is_separable`` certifies almost every separable f, and
    only an f it does not certify pays for the exact ``discriminant_val``.
    The least root valuation is the radius of the last edge of the Gauss
    polygon of f = sum a_i x^i, the least (v(a_i) - v(a_n)) / (n - i) over
    i < n with a_i != 0; f = a_n x^n has none and is separable only for n = 1.
    """
    if f.degree < 1:
        raise InputError("need a non-constant polynomial")
    if not f.is_separable():
        discriminant_val(f)  # raises on a repeated root
    *low, top = [a.gauss_val() for a in f.coeffs]  # OO for a zero a_i
    n = len(low)
    # the least integer c >= 0 with (u_i - top) / (n - i) + c > 0 for all i
    c = max(0, max(((top - u) // (n - i) for i, u in enumerate(low) if u is not OO),
                   default=-1) + 1)
    if c == 0:
        return f, 0
    return f.subst_scaled_x(-c), c


def _depth_bound(f: KPoly, f_norm: KPoly, shift: int) -> int:
    """The exact refinement depth bound 2 D + n + 4 of f, where
    (f_norm, shift) = normalize_input(f) and n = deg f.

    D = v(disc f_norm) - (2n - 2) v(lc f_norm) is the sum of v(r - r') over
    ordered pairs of distinct roots of f_norm, each positive, so D >= 0.
    v(disc) is taken on f, whose coefficients are smaller, and shifted by
    disc(f(lam x)) = lam^(n(n-1)) disc(f)."""
    n = f_norm.degree
    v_disc = discriminant_val(f) - shift * n * (n - 1)
    return 2 * int(v_disc - (2 * n - 2) * f_norm.lead().gauss_val()) + n + 4


class _Builder:
    def __init__(self, f: KPoly, K: BaseField, seed: int, exact_bound,
                 geometric: bool):
        self.f = f
        self.K = K
        self.rng = random.Random(seed)
        self.nodes: List[ClusterNode] = []
        self.exact_bound = exact_bound  # () -> the depth bound, computed once
        self.geometric = geometric
        # geometric mode: the degree of the first nonlinear residual factor,
        # where the build stops, since the base must grow by that degree
        self.nonlinear_residual: Optional[int] = None

    def build(self) -> List[ClusterNode]:
        v0 = MacLaneVal.gauss(self.K)
        stack = [self._context(v0, self.K.x(), 0, None, None, 0)]
        while stack and self.nonlinear_residual is None:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._context(*child))
        return self.nodes

    def _attach_node(self, node: ClusterNode, parent: Optional[ClusterNode]):
        node.parent = parent
        if parent is not None:
            parent.children.append(node)
        elif self.nodes:
            raise InternalInconsistency("two roots discovered")
        node.id = len(self.nodes)
        self.nodes.append(node)

    def _attach_leaf(self, leaf: LeafOrbit, parent: Optional[ClusterNode]):
        if parent is not None:
            parent.leaves.append(leaf)
        elif self.nodes:
            # an orbit in no proper cluster must be the whole of f
            raise InternalInconsistency("stray orbit outside the tree")

    def _context(self, prefix: MacLaneVal, phi: KPoly, bound, ell, parent, depth):
        """Discover the clusters below (prefix, phi), yielding the arguments
        of each child context, which ``build`` runs before resuming this
        one; a re-lifted centre is its last child.

        Only the principal part of the phi-Newton polygon is read, the edges
        with lam > bound.  Its length ell is the order of the residual
        factor that phi lifts in the residual polynomial it came from
        (Guardia-Montes-Nart, Newton polygons of higher order in algebraic
        number theory, Trans. AMS 364 (2012)): the multiplicity of a lifted
        factor, the edge width i1 when a same-degree centre is re-lifted,
        and None, all of f, at the root.  So the polygon and every
        reduction read the first ell + 1 coefficients of the expansion of
        f, and the kept edges must end at ell exactly."""
        if depth > self.f.degree + 4 and depth > self.exact_bound():
            raise InternalInconsistency("refinement exceeded the discriminant depth bound")
        upto = None if ell is None else ell + 1
        # lam falls from edge to edge, so shallowest first is right to left
        edges = [e for e in reversed(newton_polygon(prefix, phi, self.f, upto)) if e.lam > bound]
        if ell is not None and (not edges or edges[0].i1 != ell):
            raise InternalInconsistency("principal polygon does not end at the order "
                                        "of the lifted residual factor")
        current = parent
        for e in edges:
            cand = prefix.augment_unchecked(phi, e.lam)
            red = reduce_poly(cand, self.f, upto)
            if (red.i0, red.i1) != (e.i0, e.i1):
                raise InternalInconsistency("edge endpoints disagree with reduction")
            if e.i1 == 1:
                # single orbit of degree = deg phi: a non-proper cluster
                self._attach_leaf(LeafOrbit(phi.degree, 1, "residual", lift_from=cand,
                                            lift_h=red.poly.monic()), current)
                return
            factors = ff_factor(red.poly, self.rng)
            nonlinear = [h.degree for h, _ in factors if h.degree > 1]
            if self.geometric and nonlinear:
                self.nonlinear_residual = nonlinear[0]
                return
            if (e.i0 == 0 and red.b == 1 and len(factors) == 1
                    and factors[0][0].degree == 1 and factors[0][1] == e.i1):
                # not a cluster: a same-degree valuation deeper has the same roots
                phi2 = lift_key(cand, factors[0][0])
                yield prefix, phi2, e.lam, e.i1, current, depth + 1
                return
            node = ClusterNode(cand, e.i1 * phi.degree)
            self._attach_node(node, current)
            for h, mult in factors:
                orbit_degree = red.b * h.degree * phi.degree
                if mult == 1:
                    node.leaves.append(LeafOrbit(orbit_degree, h.degree, "residual",
                                                 lift_from=cand, lift_h=h))
                else:
                    phi2 = lift_key(cand, h)
                    yield cand, phi2, cand.eval(phi2), mult, node, depth + 1
            current = node
        expansion = self.f.phi_expand(phi, 2)
        if expansion[0].is_zero():
            # f = phi * q and q mod phi is the next expansion coefficient
            if expansion[1].is_zero():
                raise InputError("centre divides the input twice")
            self._attach_leaf(LeafOrbit(phi.degree, 1, "divides", phi), current)


@expansion_scope
def build_cluster_tree(f: KPoly, K: BaseField, mode: str = "exact",
                       seed: int = 0) -> ClusterTree:
    """Full pipeline: normalize, discover, choose centres, build cluster chains,
    recompute reductions along them, and assert the counting laws.

    In geometric mode a build stops at its first nonlinear residual factor,
    the only thing read from a build that will restart: the base is extended
    by that factor's degree and the build starts over, with a fresh
    ``random.Random(seed)``, until a build meets no nonlinear factor."""
    if mode not in ("exact", "geometric"):
        raise InputError("mode must be 'exact' or 'geometric'")
    f_norm, shift = normalize_input(f)
    # Refinement deeper than deg f + 4 is checked against _depth_bound, which
    # needs the exact v(disc): it is computed the first time a build goes
    # that deep and kept for the restarts, since the valuation on Q(theta)
    # extends uniquely to each unramified extension built below, so
    # embedding f there leaves the bound unchanged.  The bound is at least
    # deg f + 4, so the guard raises at the same depths as one computed
    # before discovery.
    exact_bound = functools.cache(lambda: _depth_bound(f, f_norm, shift))
    work_f, work_K = f_norm, K
    while True:
        builder = _Builder(work_f, work_K, seed, exact_bound, mode == "geometric")
        nodes = builder.build()
        grow = builder.nonlinear_residual
        if grow is None:
            break
        new_m = work_K.m * grow
        if new_m > MAX_UNRAMIFIED_DEGREE:
            raise InputError(f"geometric mode needs residue degree {new_m} "
                             f"> budget {MAX_UNRAMIFIED_DEGREE}")
        work_K, embed = extend_unramified(work_K, grow)
        work_f = KPoly(work_K, [embed(c) for c in work_f.coeffs])
    tree = ClusterTree(work_K, work_f, nodes, mode, shift)
    if nodes:
        assign_centres(tree)
        _build_cluster_chains(tree)
        _verify_tree(tree)
    return tree


def assign_centres(tree: ClusterTree):
    """Fix the centre of every proper cluster by the bottom-up selection rule:
    degree-minimal nodes take the minimal polynomial of a matching-degree
    orbit when available, other nodes inherit a same-degree child's centre."""
    for node in reversed(tree.nodes):  # children come after parents in DFS order
        if node.is_degree_minimal:
            node.centre = _degree_minimal_centre(tree, node)
        else:
            child = node.same_degree_children()[0]
            node.centre = child.centre
            if node.centre is None:
                raise InternalInconsistency("child centre missing during assignment")


def _degree_minimal_centre(tree: ClusterTree, node: ClusterNode) -> KPoly:
    matching = [l for l in node.leaves if l.degree == node.degree]
    if not matching:
        return node.valuation.centre
    for leaf in matching:
        if leaf.certificate == "divides":
            return leaf.poly
    # lift the certifying residual factor over the valuation that produced
    # it: the result is a same-degree key sending the orbit strictly inside,
    # hence a valid centre; when it divides f exactly the orbit's minimal
    # polynomial itself has been found
    leaf = matching[0]
    if leaf.lift_from is None or leaf.lift_h is None:
        raise InternalInconsistency("matching orbit carries no lifting context")
    psi = lift_key(leaf.lift_from, leaf.lift_h)
    if psi.degree != node.degree:
        raise InternalInconsistency("lifted orbit centre has the wrong degree")
    if (tree.f % psi).is_zero():
        leaf.certificate = "divides"
        leaf.poly = psi
    return psi


def cluster_chain(node: ClusterNode) -> MacLaneVal:
    """The unique MacLane chain for the node whose centres are the ancestral
    assigned centres: the parent's chain augmented by the node's centre and
    radius, or, when the two share a centre, the parent's prefix augmented
    (a radius bump)."""
    if node.cluster_chain is None:
        if node.parent is None:
            base = MacLaneVal.gauss(node.valuation.field)
        else:
            base = cluster_chain(node.parent)
            if node.centre == node.parent.centre:
                base = base.prefix
        node.cluster_chain = base.augment_unchecked(node.centre, node.radius)
    return node.cluster_chain


def p0_flag(node: ClusterNode) -> int:
    """1 when the node is degree-minimal and realizes the minimal root degree."""
    if not node.is_degree_minimal:
        return 2
    m = node.min_orbit_degree
    return 1 if m == node.degree else 2


def _build_cluster_chains(tree: ClusterTree):
    for node in tree.nodes:
        cc = cluster_chain(node)
        # the edge of the node's radius ends at size / degree, and every
        # later term lies above its line: _verify_tree catches an edge that
        # ends short, selfcheck compares with the whole expansion
        node.reduction = reduce_poly(cc, tree.f, node.size // node.degree + 1)
        for child in node.children:
            if child.centre != node.centre:
                node.child_residuals[id(child)] = reduce_poly(cc, child.centre).poly


def _verify_tree(tree: ClusterTree):
    """Assert the counting laws; the child multiplicity law leaves f-bar in
    ``node.fbar``: f|_v divided exactly by each distinct-centre child's
    residual factor to its multiplicity size / degree, a quotient that factor
    no longer divides."""
    for node in tree.nodes:
        i0, i1 = node.reduction.i0, node.reduction.i1
        if i1 * node.degree != node.size:
            raise InternalInconsistency("size does not match the selected edge width")
        total = sum(c.size for c in node.children) + sum(l.degree for l in node.leaves)
        if total != node.size:
            raise InternalInconsistency("sizes are not additive over children")
        p0 = p0_flag(node)
        if node.is_degree_minimal:
            if i0 != 2 - p0:
                raise InternalInconsistency("left endpoint disagrees with the centre rule")
        else:
            same = [c for c in node.children if c.centre == node.centre]
            if len(same) != 1:
                raise InternalInconsistency("exactly one child must share the centre")
            if i0 != same[0].size // same[0].degree or i0 < 2:
                raise InternalInconsistency("left endpoint disagrees with the same-centre child")
        fbar = node.reduction.poly
        for child in node.children:
            if child.radius <= node.radius or child.degree % node.degree:
                raise InternalInconsistency("child radius/degree monotonicity violated")
            if child.centre != node.centre:
                factor = node.child_residuals[id(child)]
                for _ in range(child.size // child.degree):
                    fbar, rem = fbar.divmod(factor)
                    if not rem.is_zero():
                        raise InternalInconsistency("child multiplicity law violated")
                if (fbar % factor).is_zero():
                    raise InternalInconsistency("child multiplicity law violated")
        node.fbar = fbar
        cc = cluster_chain(node)
        if not is_key(cc.prefix, node.centre):
            raise InternalInconsistency("assigned centre is not a key polynomial")
