r"""Discovery of the rooted tree of MacLane clusters of a separable polynomial.

The construction is recursive refinement.  A *context* is a valuation v
together with a key polynomial phi over it; the edges of the principal
Newton polygon of f relative to (v, phi) give a nested chain of candidate
valuations [v, phi -> lam], shallowest first.  For each candidate the
residual polynomial of f is factored over the residue field:

  * width-1 edges certify a single non-proper orbit (a leaf);
  * a candidate whose residual polynomial is a full power of one linear
    factor with trivial last denominator and nothing deeper is *not* a
    cluster (a same-degree valuation deeper has the same root set): the
    centre is re-lifted and refinement continues in place;
  * otherwise the candidate is a proper cluster node: multiple residual
    factors spawn child contexts with lifted centres, simple factors are
    leaf orbits, exact divisibility of f by the centre is the deepest leaf,
    and deeper edges of the same context become same-centre children.

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

import random
from fractions import Fraction
from typing import List, Optional

from .errors import InputError, InternalInconsistency
from .field import (BaseField, KPoly, MAX_UNRAMIFIED_DEGREE, discriminant_val,
                    expansion_scope, extend_unramified)
from .ff import ff_factor
from .rationals import OO, qstr
from .valuation import MacLaneVal
from .newton import (newton_polygon, reduce_poly, lift_key,
                     residual_order, is_key)


class LeafOrbit:
    """A non-proper cluster: one Galois orbit of roots below a proper node.

    ``degree`` is the orbit size (= degree of the orbit's minimal
    polynomial over the current base); ``residual_degree`` the degree of
    the simple residual factor that certified it (1 for an exact divisor).
    Residual leaves remember which valuation and residual factor certified
    them, so a key polynomial approximating the orbit's minimal polynomial
    can be lifted on demand.
    """

    __slots__ = ("degree", "residual_degree", "certificate", "parent", "poly",
                 "lift_from", "lift_h")

    def __init__(self, degree, residual_degree, certificate, parent, poly=None,
                 lift_from=None, lift_h=None):
        self.degree = degree
        self.residual_degree = residual_degree
        self.certificate = certificate  # "divides" | "residual"
        self.parent = parent
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
        self.i_v: Optional[int] = None
        self.i0_v: Optional[int] = None
        self.child_residuals = {}           # child id -> FFPoly (centre reduction), distinct-centre only

    @property
    def is_degree_minimal(self) -> bool:
        return all(c.degree != self.degree for c in self.children)

    @property
    def min_orbit_degree(self) -> Optional[int]:
        return min((l.degree for l in self.leaves), default=None)

    def same_degree_children(self):
        return [c for c in self.children if c.degree == self.degree]

    def descendants(self):
        yield self
        for c in self.children:
            yield from c.descendants()

    def __repr__(self):
        return (f"Cluster(deg={self.degree}, radius={qstr(self.radius)}, "
                f"size={self.size}, children={len(self.children)}, leaves={len(self.leaves)})")


class ClusterTree:
    def __init__(self, field, f, root, mode, shift):
        self.field = field
        self.f = f
        self.root = root
        self.mode = mode
        self.shift = shift
        self.orphan_leaf: Optional[LeafOrbit] = None
        self.nodes: List[ClusterNode] = list(root.descendants()) if root else []
        for idx, n in enumerate(self.nodes):
            n.id = idx

    def leaves(self):
        out = []
        for n in self.nodes:
            out.extend(n.leaves)
        return out


def normalize_input(f: KPoly):
    """Rescale x by a power of p so every root gains strictly positive valuation.

    Returns (f(x / p^c), c, v_disc) with c >= 0 minimal, so each root r of f
    turns into p^c r, and v_disc the valuation of the discriminant of the
    rescaled polynomial; computing v_disc is the separability test, so this
    raises InputError on input with repeated roots.
    """
    if f.degree < 1:
        raise InputError("need a non-constant polynomial")
    K = f.field
    v0 = MacLaneVal.gauss(K)
    N = newton_polygon(v0, K.x(), f)
    slopes = N.slopes()
    if not slopes:  # f = c * x^d would not be separable unless d <= 1
        min_rootval = OO
    else:
        min_rootval = -max(slopes)
    if min_rootval is OO or min_rootval > 0:
        c = 0
    else:
        # smallest integer c with min_rootval + c > 0; rescaling x by p^-c
        # turns each root r into p^c r
        frac = Fraction(-min_rootval)
        c = frac.numerator // frac.denominator + 1
        f = f.subst_scaled_x(-c)
    return f, c, discriminant_val(f)


class _Builder:
    def __init__(self, f: KPoly, K: BaseField, seed: int, depth_bound: int,
                 geometric: bool):
        self.f = f
        self.K = K
        self.rng = random.Random(seed)
        self.root: Optional[ClusterNode] = None
        self.orphan_leaf: Optional[LeafOrbit] = None
        self.depth_bound = depth_bound
        self.geometric = geometric
        # geometric mode: the degree of the first nonlinear residual factor,
        # where the build stops, since the base must grow by that degree
        self.nonlinear_residual: Optional[int] = None

    def build(self):
        v0 = MacLaneVal.gauss(self.K)
        self._context(v0, self.K.x(), Fraction(0), None, 0)
        return self.root

    def _attach_node(self, node: ClusterNode, parent: Optional[ClusterNode]):
        node.parent = parent
        if parent is None:
            if self.root is not None:
                raise InternalInconsistency("two roots discovered")
            self.root = node
        else:
            parent.children.append(node)

    def _attach_leaf(self, leaf: LeafOrbit, parent: Optional[ClusterNode]):
        if parent is None:
            # no proper cluster contains this orbit: the whole tree is one leaf
            if self.root is not None:
                raise InternalInconsistency("stray orbit outside the tree")
            self.orphan_leaf = leaf
        else:
            parent.leaves.append(leaf)

    def _context(self, prefix: MacLaneVal, phi: KPoly, bound, parent, depth) -> bool:
        """Discover the clusters below (prefix, phi); True when the build
        stops early, so every caller returns at once."""
        if depth > self.depth_bound:
            raise InternalInconsistency("refinement exceeded the discriminant depth bound")
        N = newton_polygon(prefix, phi, self.f)
        edges = [e for e in N.edges() if e.lam > bound]
        edges.sort(key=lambda e: e.lam)
        current = parent
        for e in edges:
            cand = prefix.augment_unchecked(phi, e.lam)
            red = reduce_poly(cand, self.f)
            if (red.i0, red.i1) != (e.i0, e.i1):
                raise InternalInconsistency("edge endpoints disagree with reduction")
            if e.i1 == 1:
                # single orbit of degree = deg phi: a non-proper cluster
                self._attach_leaf(LeafOrbit(phi.degree, 1, "residual", current,
                                            lift_from=cand,
                                            lift_h=red.poly.monic()),
                                  current)
                return False
            factors = ff_factor(red.poly, self.rng)
            if self._stops_at(factors):
                return True
            if (e.i0 == 0 and red.b == 1 and len(factors) == 1
                    and factors[0][0].degree == 1 and factors[0][1] == e.i1):
                # not a cluster: a same-degree valuation deeper has the same roots
                phi2 = lift_key(cand, factors[0][0])
                return self._context(prefix, phi2, e.lam, current, depth + 1)
            node = ClusterNode(cand, e.i1 * phi.degree)
            self._attach_node(node, current)
            for h, mult in factors:
                orbit_degree = red.b * h.degree * phi.degree
                if mult == 1:
                    node.leaves.append(LeafOrbit(orbit_degree, h.degree, "residual",
                                                 node, lift_from=cand, lift_h=h))
                else:
                    phi2 = lift_key(cand, h)
                    if self._context(cand, phi2, cand.eval(phi2), node, depth + 1):
                        return True
            current = node
        expansion = self.f.phi_expand(phi)
        if expansion[0].is_zero():
            # f = phi * q and q mod phi is the next expansion coefficient
            if expansion[1].is_zero():
                raise InputError("centre divides the input twice")
            self._attach_leaf(LeafOrbit(phi.degree, 1, "divides", current, phi), current)
        return False

    def _stops_at(self, factors) -> bool:
        """In geometric mode, True at the first nonlinear factor, whose
        degree is recorded."""
        if self.geometric:
            self.nonlinear_residual = next((h.degree for h, _ in factors if h.degree > 1),
                                           None)
        return self.nonlinear_residual is not None


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
    f_norm, shift, v_disc = normalize_input(f)
    # v(disc) bounds the refinement depth.  It is computed once: the
    # valuation on Q(theta) extends uniquely to each unramified extension
    # built below, so embedding f there leaves v(disc) unchanged.
    depth_bound = 2 * max(0, int(v_disc)) + f_norm.degree + 4
    work_f, work_K = f_norm, K
    while True:
        builder = _Builder(work_f, work_K, seed, depth_bound, mode == "geometric")
        root = builder.build()
        grow = builder.nonlinear_residual
        if grow is None:
            break
        new_m = work_K.m * grow
        if new_m > MAX_UNRAMIFIED_DEGREE:
            raise InputError(f"geometric mode needs residue degree {new_m} "
                             f"> budget {MAX_UNRAMIFIED_DEGREE}")
        work_K, embed = extend_unramified(work_K, grow)
        work_f = KPoly(work_K, [embed(c) for c in work_f.coeffs])
    tree = ClusterTree(work_K, work_f, root, mode, shift)
    tree.orphan_leaf = builder.orphan_leaf
    if root is not None:
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
        node.reduction = reduce_poly(cc, tree.f)
        node.i0_v = node.reduction.i0
        node.i_v = node.reduction.i1
        for child in node.children:
            if child.centre != node.centre:
                node.child_residuals[id(child)] = reduce_poly(cc, child.centre).poly


def _verify_tree(tree: ClusterTree):
    for node in tree.nodes:
        if node.i_v * node.degree != node.size:
            raise InternalInconsistency("size does not match the selected edge width")
        total = sum(c.size for c in node.children) + sum(l.degree for l in node.leaves)
        if total != node.size:
            raise InternalInconsistency("sizes are not additive over children")
        p0 = p0_flag(node)
        if node.is_degree_minimal:
            if node.i0_v != 2 - p0:
                raise InternalInconsistency("left endpoint disagrees with the centre rule")
        else:
            same = [c for c in node.children if c.centre == node.centre]
            if len(same) != 1:
                raise InternalInconsistency("exactly one child must share the centre")
            if node.i0_v != same[0].size // same[0].degree or node.i0_v < 2:
                raise InternalInconsistency("left endpoint disagrees with the same-centre child")
        for child in node.children:
            if child.radius <= node.radius or child.degree % node.degree:
                raise InternalInconsistency("child radius/degree monotonicity violated")
            if child.centre != node.centre:
                hred = node.child_residuals[id(child)]
                if residual_order(node.reduction.poly, hred) * child.degree != child.size:
                    raise InternalInconsistency("child multiplicity law violated")
        cc = cluster_chain(node)
        if not is_key(cc.prefix, node.centre):
            raise InternalInconsistency("assigned centre is not a key polynomial")
