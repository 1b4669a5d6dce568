"""Brute-force rational-cluster oracle for products of linear factors.

For f = c * prod (x - a_i) with known integer roots, the degree-1 cluster
tree is determined by the pairwise valuations v_p(a_i - a_j) alone: a
cluster is a subset cut out by a valuation threshold around one of the
roots, its radius is the minimal pairwise valuation inside, and containment
is set inclusion.  Nothing here touches chains, Newton polygons, or residue
towers; this file is the independent reference the tree builder is checked
against on random all-rational inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List

from .errors import InputError, InternalInconsistency


class RationalCluster:
    __slots__ = ("roots", "radius", "parent", "children", "singleton_count")

    def __init__(self, roots, radius):
        self.roots = tuple(sorted(roots))
        self.radius = radius
        self.parent = None
        self.children: List[RationalCluster] = []
        self.singleton_count = 0

    @property
    def size(self):
        return len(self.roots)

    def descendants(self):
        yield self
        for c in self.children:
            yield from c.descendants()

    def __repr__(self):
        return f"RC(size={self.size}, radius={self.radius})"


def rational_cluster_tree(roots, p):
    """All clusters of >= 2 roots, as a tree ordered by inclusion.

    Roots must be pairwise distinct integers (or Fractions) with positive
    p-adic valuation.
    """
    roots = list(roots)
    n = len(roots)
    if n < 2:
        return None

    def vdiff(a, b):
        d = Fraction(a) - Fraction(b)
        return Fraction(_vp(d.numerator, p) - _vp(d.denominator, p))

    # candidate clusters: for each root and each threshold, the ball around it
    clusters = {}
    depths = sorted({vdiff(a, b) for a in roots for b in roots if a != b})
    for r in roots:
        for d in depths:
            members = tuple(sorted(s for s in roots if s == r or vdiff(s, r) >= d))
            if len(members) >= 2:
                radius = min(vdiff(a, b) for a in members for b in members if a != b)
                clusters[members] = radius
    nodes = [RationalCluster(list(m), rad) for m, rad in clusters.items()]
    nodes.sort(key=lambda c: (-c.size, c.radius, c.roots))
    for i, c in enumerate(nodes):
        best = None
        for other in nodes[:i]:
            if set(c.roots) < set(other.roots):
                if best is None or other.size < best.size:
                    best = other
        c.parent = best
        if best is not None:
            best.children.append(c)
    root = next(c for c in nodes if c.parent is None)
    for c in nodes:
        covered = set()
        for ch in c.children:
            covered.update(ch.roots)
        c.singleton_count = len([r for r in c.roots if r not in covered])
    return root


def oracle_signature(root: RationalCluster):
    """Canonical nested description (size, radius, singletons, children...)."""
    kids = sorted((oracle_signature(c) for c in root.children))
    return (root.size, root.radius, root.singleton_count, tuple(kids))


def tree_signature(node):
    """Same canonical form computed from a builder ClusterNode of degree 1."""
    if node.degree != 1:
        raise InternalInconsistency("degree-1 oracle given a cluster of higher degree")
    kids = sorted(tree_signature(c) for c in node.children)
    singles = len([l for l in node.leaves if l.degree == 1])
    if singles != len(node.leaves):
        raise InternalInconsistency("degree-1 oracle instance grew a big orbit")
    return (node.size, Fraction(node.radius), singles, tuple(kids))


# ---------------------------------------------------------------------------
# The degree-1 specialization of the fibre description, root-data only.


def oracle_fibre_graph(roots, p, lead_val=0):
    """Dual graph of the special fibre for a product of linear factors,
    computed from the explicit roots alone (geometric presentation).

    Everything is the degree-1 specialization: clusters come from pairwise
    valuations, nu is a sum of meet depths, chains use the same minimal
    unimodular sequences as the main path but with data that never touches
    a Newton polygon or residue field.
    """
    from .fibre import FibreGraph, ChainSpec, open_chain

    root = rational_cluster_tree(roots, p)
    if root is None:
        raise InputError("need at least two roots")
    nodes = list(root.descendants())

    # centres: a designated root per cluster, children before parents
    centre = {}
    for c in _postorder(root):
        if c.children:
            centre[id(c)] = centre[id(c.children[0])]
        else:
            centre[id(c)] = c.roots[0]

    data = {}
    for c in _postorder(root):
        lam = Fraction(c.radius)
        # chain radii: ancestors whose centre differs from their designated child
        radii = []
        cur, prev = c, None
        while cur is not None:
            if prev is None or centre[id(cur)] != centre[id(prev)]:
                radii.append(Fraction(cur.radius))
            prev, cur = cur, cur.parent
        radii = radii[::-1]
        e = lcm(*(r_.denominator for r_ in radii))
        eps = lcm(*(r_.denominator for r_ in radii[:-1]))
        b = e // eps
        h = e * lam
        ell = pow(int(h), -1, b) % b if b > 1 else 0
        nu_v = Fraction(lead_val)
        for r_ in roots:
            m = c
            while m is not None and r_ not in m.roots:
                m = m.parent
            if m is None:
                raise InternalInconsistency("a root lies outside the oracle tree")
            inner = m
            if r_ in c.roots:
                inner = c
            nu_v += Fraction(inner.radius)
        i_v = c.size
        n_v = 1 if int(e * nu_v) % 2 else 2
        m_v = 2 * e // n_v
        p_v = 1 if i_v % 2 else 2
        s_v = Fraction(i_v * lam + p_v * lam - nu_v, 2)
        gam = 2 if (i_v % 2 == 0 and _odd_int(eps * (nu_v - i_v * lam))) else 1
        delta = 1 if not c.children else 0
        p0 = 1 if delta else 2
        s0 = -nu_v / 2 + lam
        gam0 = 2 if (p0 == 2 and _odd_int(eps * nu_v)) else 1
        vtilde = []
        for w in c.children:
            eps_w = e if centre[id(w)] != centre[id(c)] else eps
            crit = Fraction(w.size, b) - ell * nu_v * eps_w
            if _not2z(crit):
                vtilde.append(w)
        c0_crit = Fraction(2 - p0, b) - ell * nu_v * eps
        c0 = 1 if _not2z(c0_crit) else 0
        u = Fraction(c.size - sum(w.size for w in c.children) - (2 - p0), e) \
            + len(vtilde) + delta * c0
        if u.denominator != 1 or u < 0:
            raise InternalInconsistency(f"u must be a nonnegative integer, got {u}")
        u = int(u)
        genus = 0 if n_v == 1 else max((u - 1) // 2, 0)
        data[id(c)] = dict(lam=lam, e=e, eps=eps, b=b, nu=nu_v, n=n_v, m=m_v,
                           i=i_v, p=p_v, s=s_v, gamma=gam, delta=delta, p0=p0,
                           s0=s0, gamma0=gam0, u=u, genus=genus)

    g = FibreGraph()
    ends = {}
    for c in nodes:
        d = data[id(c)]
        if d["n"] == 2 and d["u"] == 0:
            a_ = g.add_node(d["m"], 0)
            b_ = g.add_node(d["m"], 0)
            ends[(id(c), "minus")], ends[(id(c), "plus")] = a_, b_
        else:
            nn = g.add_node(d["m"], d["genus"])
            ends[(id(c), "minus")] = ends[(id(c), "plus")] = nn
    for c in nodes:
        d = data[id(c)]
        if d["n"] == 1:
            count = (c.size - sum(w.size for w in c.children) + (d["p0"] - 2)) // d["e"]
            for _ in range(count):
                nn = g.add_node(d["e"], 0)
                g.add_edge(ends[(id(c), "minus")], nn)
        rows = []
        if c.parent is not None:
            dp = data[id(c.parent)]
            end = d["s"] - Fraction(d["p"], 2) * (d["lam"] - dp["lam"])
            rows.append(("conn", d["eps"] * d["gamma"], d["s"], end,
                         d["p"] // d["gamma"], id(c.parent)))
        else:
            rows.append(("open", d["eps"] * d["gamma"], d["s"], None,
                         d["p"] // d["gamma"], None))
        if d["delta"] == 1:
            rows.append(("open", d["eps"] * d["gamma0"], -d["s0"], None,
                         d["p0"] // d["gamma0"], None))
        for kind, alpha, a_val, b_val, copies, target in rows:
            for side_i in range(copies):
                side = "minus" if side_i == 0 else "plus"
                if kind == "open":
                    ch = open_chain(alpha, a_val)
                    if not ch.mults:
                        continue
                else:
                    ch = ChainSpec(alpha, a_val, b_val)
                prev = ends[(id(c), side)]
                for mult in ch.mults:
                    nn = g.add_node(mult, 0)
                    g.add_edge(prev, nn)
                    prev = nn
                if target is not None:
                    g.add_edge(prev, ends[(target, side)])
    return g


def _vp(n: int, p: int) -> int:
    """The exponent of p in n != 0, by plain division: the oracle shares no
    code with the valuations of the pipeline it checks."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _postorder(root):
    for c in root.children:
        yield from _postorder(c)
    yield root


def _odd_int(x) -> bool:
    x = Fraction(x)
    return x.denominator == 1 and x.numerator % 2 == 1


def _not2z(x) -> bool:
    x = Fraction(x)
    return x.denominator != 1 or x.numerator % 2 != 0
