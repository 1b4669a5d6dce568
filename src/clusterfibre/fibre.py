r"""Assembly of the special fibre: components, chains, open families, exports.

Chains of projective lines are encoded by the minimal unimodular fraction
sequence alpha*a = n_0/d_0 > ... > n_{r+1}/d_{r+1} = alpha*b: consecutive
pairs have determinant one, r is minimal, and the intermediate denominators
give the multiplicities alpha*d_i.  The sequence is found by repeatedly
inserting the smallest-denominator fraction of the open interval (any
unimodular interpolation must pass through it), which also yields minimality;
the property suite checks unimodularity, the deletion test, and invariance
under integer translation of both endpoints -- that invariance is what makes
the fibre independent of the nu-normalization dispute.

One component is emitted per proper cluster (two projective lines when it is
ubereven with split residual polynomial), plus per cluster the chain rows:
a connector to the parent, an open tail for the root, and an open tail for
each degree-minimal cluster, each doubled onto the plus side when the
corresponding parity p/gamma (resp. p0/gamma0) equals two.  Clusters with
odd e*nu contribute open-ended projective lines counted by the residual
polynomial of their leaf part.  Empty connector chains become direct
intersections; empty open tails vanish.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .clusters import ClusterTree
from .errors import InputError, InternalInconsistency
from .ff import FFPoly, squarefree_decomposition
from .invariants import InvariantRecord, all_records
from .rationals import qstr


# ---------------------------------------------------------------------------
# Farey / unimodular chains


def simplest_between(lo: Fraction, hi) -> Fraction:
    """Smallest-denominator fraction strictly inside (lo, hi); hi may be None
    for an unbounded interval."""
    n = lo.numerator // lo.denominator  # floor
    if hi is None:
        return Fraction(n + 1)
    if lo < n + 1 < hi:
        return Fraction(n + 1)
    frac = lo - n
    if frac == 0:
        # interval (0, hi - n) with hi - n <= 1: take 1/q with minimal q
        width = hi - n
        q = (width.denominator // width.numerator) + 1
        return n + Fraction(1, q)
    inner = simplest_between(1 / (hi - n), 1 / frac)
    return n + 1 / inner


def _det(a: Fraction, b: Fraction) -> int:
    return a.numerator * b.denominator - b.numerator * a.denominator


def _unimodular_sequence(A: Fraction, B: Fraction) -> List[Fraction]:
    if _det(A, B) == 1:
        return [A, B]
    m = simplest_between(B, A)
    left = _unimodular_sequence(A, m)
    right = _unimodular_sequence(m, B)
    return left[:-1] + right


class ChainSpec:
    """P^1(alpha, a, b): multiplicities alpha*d_i along the minimal sequence."""

    __slots__ = ("alpha", "a", "b", "fractions", "dens", "mults",
                 "row", "cluster", "side", "to_cluster", "geometric_copies")

    def __init__(self, alpha: int, a: Fraction, b: Fraction):
        if alpha < 1:
            raise InputError("chain multiplier must be positive")
        a, b = Fraction(a), Fraction(b)
        if a <= b:
            raise InputError("chain needs a > b")
        self.alpha, self.a, self.b = alpha, a, b
        self.fractions = _unimodular_sequence(alpha * a, alpha * b)
        self.dens = [f.denominator for f in self.fractions[1:-1]]
        self.mults = [alpha * d for d in self.dens]
        self.row = None
        self.cluster = None
        self.side = "minus"
        self.to_cluster = None  # None = open-ended
        self.geometric_copies = 1

    @property
    def length(self) -> int:
        return len(self.mults)

    def __repr__(self):
        return f"ChainSpec(alpha={self.alpha}, {qstr(self.a)}->{qstr(self.b)}, mults={self.mults})"


def farey_chain(alpha: int, a, b) -> ChainSpec:
    return ChainSpec(alpha, a, b)


def open_chain_bound(alpha: int, a) -> Fraction:
    """Lower endpoint floor((alpha*a - 1))/alpha of an open-ended chain."""
    aa = Fraction(alpha) * Fraction(a)
    fl = (aa - 1).numerator // (aa - 1).denominator
    return Fraction(fl, alpha)


def open_chain(alpha: int, a) -> ChainSpec:
    """P^1(alpha, a): the open-ended chain down to floor(alpha*a - 1)/alpha;
    its multiplicity list may be empty."""
    b = open_chain_bound(alpha, a)
    return ChainSpec(alpha, a, b)


# ---------------------------------------------------------------------------
# Fibre assembly


class Component:
    __slots__ = ("cluster", "multiplicity", "genus", "split", "geometric_count")

    def __init__(self, cluster, multiplicity, genus, split):
        self.cluster = cluster
        self.multiplicity = multiplicity
        self.genus = genus
        self.split = split
        self.geometric_count = 2 if split else 1


class OpenP1Family:
    __slots__ = ("cluster", "multiplicity", "count")

    def __init__(self, cluster, multiplicity, count):
        self.cluster = cluster
        self.multiplicity = multiplicity
        self.count = count


class SpecialFibre:
    def __init__(self, tree: ClusterTree, records: Dict[int, InvariantRecord], mode: str):
        self.tree = tree
        self.records = records
        self.mode = mode
        self.components: Dict[int, Component] = {}
        self.chains: List[ChainSpec] = []
        self.open_p1: List[OpenP1Family] = []


def _is_square_in(k, ft: FFPoly) -> bool:
    """Is ft a square in k[x]? (even multiplicities and square leading unit)."""
    if ft.is_zero():
        return True
    for g, mult in squarefree_decomposition(ft):
        if mult % 2:
            return False
    lead = ft.lead()
    return (lead ** ((k.order - 1) // 2)) == k.one


def assemble(tree: ClusterTree,
             records: Optional[Dict[int, InvariantRecord]] = None) -> SpecialFibre:
    """Build the special fibre data from a cluster tree and its records."""
    if tree.root is None:
        raise InternalInconsistency("no proper cluster: the fibre needs deg f >= 2")
    if records is None:
        records = all_records(tree)
    mode = "geometric" if tree.mode == "geometric" else "arithmetic"
    fib = SpecialFibre(tree, records, mode)
    for node in tree.nodes:
        r = records[node.id]
        if mode == "geometric":
            # over the closure every unit is a square, so u = 0 already splits;
            # the polynomial part must then consist of even multiplicities
            split = (r.n == 2 and r.u == 0)
            if split and any(m % 2 for _, m in squarefree_decomposition(r.ftilde)):
                raise InternalInconsistency("ubereven component with odd branch part")
        else:
            split = (r.n == 2 and r.u == 0 and _is_square_in(r.k_v, r.ftilde))
        fib.components[node.id] = Component(node.id, r.m, r.genus, split)
        if r.n == 1:
            count = r.f_v * r.fbar.degree
            gcd_check = r.fbar.gcd(r.fbar.derivative())
            if gcd_check.degree != 0:
                raise InternalInconsistency("leaf residual part must be squarefree")
            if count:
                fib.open_p1.append(OpenP1Family(node.id, r.e, count))
        # connector to the parent, or the root's open tail
        if node.parent is not None:
            rp = records[node.parent.id]
            end = r.s - Fraction(r.p, 2) * (r.lam - Fraction(r.degree, node.parent.degree) * rp.lam)
            copies = [("minus", node.parent.id)]
            if r.p // r.gamma == 2:
                copies.append(("plus", node.parent.id))
            for side, target in copies:
                ch = ChainSpec(r.epsilon * r.gamma, r.s, end)
                ch.row, ch.cluster, ch.side, ch.to_cluster = "connector", node.id, side, target
                ch.geometric_copies = r.f_v
                fib.chains.append(ch)
        else:
            copies = ["minus"] + (["plus"] if r.p // r.gamma == 2 else [])
            for side in copies:
                ch = open_chain(r.epsilon * r.gamma, r.s)
                if ch.length == 0:
                    continue
                ch.row, ch.cluster, ch.side = "root_tail", node.id, side
                ch.geometric_copies = r.f_v
                fib.chains.append(ch)
        if r.delta == 1:
            copies = ["minus"] + (["plus"] if r.p0 // r.gamma0 == 2 else [])
            for side in copies:
                ch = open_chain(r.epsilon * r.gamma0, -r.s0)
                if ch.length == 0:
                    continue
                ch.row, ch.cluster, ch.side = "minimal_tail", node.id, side
                ch.geometric_copies = r.f_v
                fib.chains.append(ch)
    _check_attachments(fib)
    if mode == "geometric":
        check_genus_identity(fib)
    return fib


def _check_attachments(fib: SpecialFibre):
    for ch in fib.chains:
        if ch.cluster not in fib.components:
            raise InternalInconsistency("chain from a missing component")
        if ch.to_cluster is not None and ch.to_cluster not in fib.components:
            raise InternalInconsistency("chain into a missing component")
        if ch.side == "plus":
            r = fib.records[ch.cluster]
            ok = (r.p // r.gamma == 2) if ch.row in ("connector", "root_tail") \
                else (r.p0 // r.gamma0 == 2)
            if not ok:
                raise InternalInconsistency("plus-side chain without even parity")
    # a split component must receive its chains in plus/minus pairs, so the
    # two designated points always land on distinct halves
    for cid, comp in fib.components.items():
        if not comp.split:
            continue
        r = fib.records[cid]
        if r.p // r.gamma != 2 or (r.delta == 1 and r.p0 // r.gamma0 != 2):
            raise InternalInconsistency("split component with odd chain parity")
        for ch in fib.chains:
            if ch.to_cluster == cid:
                rc = fib.records[ch.cluster]
                if rc.p // rc.gamma != 2:
                    raise InternalInconsistency(
                        "single chain into a split component")


# ---------------------------------------------------------------------------
# Dual graph of the geometric special fibre


class FibreGraph:
    """Multigraph with (multiplicity, genus) node labels, for isomorphism tests."""

    def __init__(self):
        self.labels: List[Tuple[int, int]] = []
        self.edges: List[Tuple[int, int]] = []

    def add_node(self, mult: int, genus: int = 0) -> int:
        self.labels.append((mult, genus))
        return len(self.labels) - 1

    def add_edge(self, a: int, b: int):
        self.edges.append((min(a, b), max(a, b)))

    def degree_multiset(self):
        deg = [0] * len(self.labels)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg


def check_genus_identity(fib: SpecialFibre):
    """Adjunction on the complete special fibre of a regular SNC model:

        2 g(C) - 2  =  sum_i m_i (2 g_i - 2)  +  sum_{edges ij} (m_i + m_j),

    summed over geometric components and transversal intersection points,
    with g(C) read off the input degree.  Checked in geometric mode; it ties
    multiplicities, genera, chain sequences, and attachments together, so a
    failure anywhere in the pipeline surfaces here.  The graph must also be
    connected, as the fibre of a model of a geometrically connected curve.
    """
    g = fibre_graph(fib)
    genus_curve = (fib.tree.f.degree - 1) // 2
    total = 0
    for mult, gen in g.labels:
        total += mult * (2 * gen - 2)
    for a, b in g.edges:
        total += g.labels[a][0] + g.labels[b][0]
    if total != 2 * genus_curve - 2:
        raise InternalInconsistency(
            f"fibre fails the adjunction count: got {total}, "
            f"expected {2 * genus_curve - 2}")
    if not _connected(g):
        raise InternalInconsistency("special fibre graph is disconnected")


def _connected(g: FibreGraph) -> bool:
    n = len(g.labels)
    if n == 0:
        return True
    adj = _adj(g)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def fibre_graph(fib: SpecialFibre) -> FibreGraph:
    """Geometric dual graph: every irreducible component over the closure is
    one node; chains contribute their lines, each copy counted."""
    g = FibreGraph()
    ends: Dict[Tuple[int, str], int] = {}
    for cid, comp in fib.components.items():
        if comp.split:
            a = g.add_node(comp.multiplicity, 0)
            b = g.add_node(comp.multiplicity, 0)
            ends[(cid, "minus")] = a
            ends[(cid, "plus")] = b
        else:
            node = g.add_node(comp.multiplicity, comp.genus)
            ends[(cid, "minus")] = node
            ends[(cid, "plus")] = node
    for fam in fib.open_p1:
        for _ in range(fam.count):
            n = g.add_node(fam.multiplicity, 0)
            g.add_edge(ends[(fam.cluster, "minus")], n)
    for ch in fib.chains:
        for _ in range(ch.geometric_copies if fib.mode == "geometric" else 1):
            prev = ends[(ch.cluster, ch.side)]
            for m in ch.mults:
                n = g.add_node(m, 0)
                g.add_edge(prev, n)
                prev = n
            if ch.to_cluster is not None:
                g.add_edge(prev, ends[(ch.to_cluster, ch.side)])
    return g


def graphs_isomorphic(g1: FibreGraph, g2: FibreGraph) -> bool:
    if len(g1.labels) != len(g2.labels) or len(g1.edges) != len(g2.edges):
        return False
    if sorted(g1.labels) != sorted(g2.labels):
        return False
    d1, d2 = g1.degree_multiset(), g2.degree_multiset()
    if sorted(zip(g1.labels, d1)) != sorted(zip(g2.labels, d2)):
        return False
    adj1 = _adj(g1)
    adj2 = _adj(g2)
    n = len(g1.labels)
    order = sorted(range(n), key=lambda i: -d1[i])
    mapping = [-1] * n
    used = [False] * n

    def compatible(i, j):
        if g1.labels[i] != g2.labels[j] or d1[i] != d2[j]:
            return False
        for k, cnt in adj1[i].items():
            if mapping[k] != -1 and adj2[j].get(mapping[k], 0) != cnt:
                return False
        return True

    def rec(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j]:
                continue
            if compatible(i, j):
                mapping[i] = j
                used[j] = True
                if rec(pos + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return rec(0)


def _adj(g: FibreGraph):
    adj = [dict() for _ in g.labels]
    for a, b in g.edges:
        adj[a][b] = adj[a].get(b, 0) + 1
        adj[b][a] = adj[b].get(a, 0) + 1
    return adj


# ---------------------------------------------------------------------------
# Exports


def poly_str(f) -> str:
    """Human-readable polynomial over the base field."""
    if f.is_zero():
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if c.is_zero():
            continue
        cs = _kelem_str(c)
        if i == 0:
            terms.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if cs == "1" else f"-{xs}" if cs == "-1" else f"{cs}*{xs}")
    out = " + ".join(terms)
    return out.replace("+ -", "- ")


def _kelem_str(c) -> str:
    parts = []
    for i, q in enumerate(c.coords):
        if q == 0:
            continue
        if i == 0:
            parts.append(str(q))
        else:
            th = "th" if i == 1 else f"th^{i}"
            parts.append(th if q == 1 else f"{q}*{th}")
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(" + " + ".join(parts) + ")"


def ffpoly_str(f: FFPoly, var="X") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if c.is_zero():
            continue
        cs = "+".join(str(x) for x in c.coords) if f.field.degree > 1 else str(c.coords[0])
        if f.field.degree > 1 and sum(1 for x in c.coords if x) > 1:
            cs = f"({'+'.join(f'{x}*g^{j}' if j else str(x) for j, x in enumerate(c.coords) if x)})"
        elif f.field.degree > 1 and any(x and j for j, x in enumerate(c.coords)):
            cs = "+".join(f"{x}*g^{j}" if j > 1 else (f"{x}*g" if j == 1 else str(x))
                          for j, x in enumerate(c.coords) if x)
        if i == 0:
            terms.append(cs)
        else:
            xs = var if i == 1 else f"{var}^{i}"
            terms.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(terms)


def cluster_dicts(tree: ClusterTree,
                  records: Optional[Dict[int, InvariantRecord]] = None) -> List[dict]:
    """The JSON ``clusters`` list: each proper cluster followed by its leaf
    orbits.  Given the invariant records, every entry carries its
    ``invariants`` as well."""
    clusters = []
    for node in tree.nodes:
        entry = {
            "id": node.id,
            "degree": node.degree,
            "radius": qstr(node.radius),
            "size": node.size,
            "centre": poly_str(node.centre),
            "parent": node.parent.id if node.parent else None,
            "proper": True,
            "degree_minimal": node.is_degree_minimal,
        }
        if records is not None:
            r = records[node.id]
            inv = r.as_dict()
            inv["gbar"] = f"y^{r.gbar_exp} - {ffpoly_str(FFPoly.const(r.k_v, r.gbar_const))}"
            if r.delta:
                inv["gbar0"] = f"y^{r.gbar0_exp} - {ffpoly_str(FFPoly.const(r.k_v, r.gbar0_const))}"
            inv["fbar"] = ffpoly_str(r.fbar)
            inv["ftilde"] = ffpoly_str(r.ftilde)
            entry["invariants"] = inv
        clusters.append(entry)
        for leaf in node.leaves:
            entry = {
                "id": None,
                "degree": leaf.degree,
                "radius": "inf",
                "size": leaf.degree,
                "centre": poly_str(leaf.poly) if leaf.poly is not None else None,
                "parent": node.id,
                "proper": False,
                "degree_minimal": False,
            }
            if records is not None:
                entry["invariants"] = {"certificate": leaf.certificate,
                                       "residual_degree": leaf.residual_degree}
            clusters.append(entry)
    return clusters


def export_json(fib: SpecialFibre) -> bytes:
    tree = fib.tree
    payload = {
        "base_field": {"p": tree.field.p, "m": tree.field.m},
        "normalization_shift": tree.shift,
        "mode": fib.mode,
        "clusters": cluster_dicts(tree, fib.records),
        "fibre": {
            "components": [{
                "cluster": c.cluster,
                "multiplicity": c.multiplicity,
                "genus": c.genus,
                "split": c.split,
                "geometric_count": c.geometric_count,
            } for c in fib.components.values()],
            "chains": [{
                "alpha": ch.alpha,
                "a": qstr(ch.a),
                "b": qstr(ch.b),
                "mults": ch.mults,
                "from": {"cluster": ch.cluster, "side": ch.side},
                "to": ({"cluster": ch.to_cluster, "side": ch.side}
                       if ch.to_cluster is not None else "open"),
                "row": ch.row,
                "copies": ch.geometric_copies,
            } for ch in fib.chains],
            "open_p1": [{
                "cluster": fam.cluster,
                "multiplicity": fam.multiplicity,
                "count": fam.count,
            } for fam in fib.open_p1],
        },
    }
    return json.dumps(payload, sort_keys=True, indent=1).encode()


def export_dot(fib: SpecialFibre) -> bytes:
    g = fibre_graph(fib)
    lines = ["graph fibre {"]
    for i, (mult, genus) in enumerate(g.labels):
        lines.append(f'  n{i} [label="mult={mult}, genus={genus}"];')
    for a, b in g.edges:
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def export_ascii(fib: SpecialFibre) -> bytes:
    out = []
    tree = fib.tree
    out.append(f"special fibre over GF({tree.field.p}^{tree.field.m}) [{fib.mode} mode]")
    for node in tree.nodes:
        r = fib.records[node.id]
        comp = fib.components[node.id]
        pad = "  " * _depth(node)
        split = " (split: two lines)" if comp.split else ""
        out.append(f"{pad}component G{node.id}: mult={comp.multiplicity} "
                   f"genus={comp.genus}{split}  [cluster deg={node.degree} "
                   f"radius={qstr(node.radius)} size={node.size}]")
    for fam in fib.open_p1:
        out.append(f"open P1 x{fam.count} of mult {fam.multiplicity} on G{fam.cluster}")
    for ch in fib.chains:
        dest = f"G{ch.to_cluster}" if ch.to_cluster is not None else "open end"
        mults = ",".join(str(m) for m in ch.mults) if ch.mults else "direct"
        out.append(f"chain [{mults}] from G{ch.cluster}({ch.side}) to {dest}"
                   + (f" x{ch.geometric_copies}" if ch.geometric_copies > 1 else ""))
    return ("\n".join(out) + "\n").encode()


def _depth(node) -> int:
    d = 0
    while node.parent is not None:
        node = node.parent
        d += 1
    return d


def export(fib: SpecialFibre, fmt: str) -> bytes:
    if fmt == "json":
        return export_json(fib)
    if fmt == "dot":
        return export_dot(fib)
    if fmt == "ascii":
        return export_ascii(fib)
    raise InputError(f"unknown export format {fmt!r}")
