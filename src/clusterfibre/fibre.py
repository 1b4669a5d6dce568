r"""Assembly of the special fibre: components, chains, open families, exports.

Chains of projective lines are encoded by the minimal unimodular fraction
sequence alpha*a = n_0/d_0 > ... > n_{r+1}/d_{r+1} = alpha*b: consecutive
pairs have determinant one, r is minimal, and the intermediate denominators
give the multiplicities alpha*d_i.  A loop of Hirzebruch-Jung steps builds
it (``_unimodular_sequence`` says why it is minimal); the property suite
checks unimodularity, the deletion test, and invariance under integer
translation of both endpoints -- that invariance is what makes the fibre
independent of the nu-normalization dispute.

One component is emitted per proper cluster (split when it is ubereven and,
in exact mode, its residual constant is a square in k_v), plus per cluster
the chain rows: a connector to the parent, an open tail for the root, and an
open tail for each degree-minimal cluster, each doubled onto the plus side
when the corresponding parity p/gamma (resp. p0/gamma0) equals two.
Clusters with odd e*nu contribute open-ended projective lines counted by
the residual polynomial of their leaf part.  Empty connector chains become
direct intersections; empty open tails vanish.  ``fibre_graph`` lays the
dual graph over k-bar in both residue modes: a cluster of residue degree
f_v stands for f_v geometric ones, and an ubereven component is two lines
on each.  Every assembly checks the adjunction count and connectivity on
that graph.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

from .clusters import ClusterTree
from .errors import InputError, InternalInconsistency
from .ff import FFPoly
from .invariants import InvariantRecord, all_records
from .rationals import qstr, ratio_str

Pair = Tuple[int, int]  # a rational as (numerator, denominator > 0)


# ---------------------------------------------------------------------------
# Farey / unimodular chains


def _unimodular_sequence(A: Pair, B: Pair) -> List[Pair]:
    """The minimal unimodular sequence A = x_0 > ... > x_r = B, on reduced
    (numerator, denominator) pairs.

    The y < x = n/d with det(x, y) = 1 are x - 1/(d e), e = n^-1 mod d; a
    step takes the least such e with y >= B, e >= den B / det(x, B).  Every
    unimodular sequence from x to B meets this y: a step from x past y lands
    below B, and a step across y from u in (y, x) needs den u < den y, while
    den u >= d + e > den y between the neighbours y and x.  So the loop's
    sequence is part of every unimodular one, hence the minimal one."""
    bn, bd = B
    n, d = A
    seq = [A]
    while (det := n * bd - bn * d) != 1:
        least = -(-bd // det)  # ceil(den B / det(x, B))
        e = least + (pow(n, -1, d) - least) % d
        n, d = (n * e - 1) // d, e
        seq.append((n, d))
    seq.append(B)
    return seq


def _times(alpha: int, q: Pair) -> Pair:
    """alpha * q as a reduced pair, for a reduced pair q."""
    n, d = q
    g = gcd(alpha, d)
    return alpha // g * n, d // g


class ChainSpec:
    """P^1(alpha, a, b): multiplicities alpha*d_i along the minimal sequence.

    The endpoints a > b are reduced (numerator, denominator) pairs ``a_nd``
    and ``b_nd``; ``sequence`` gives the minimal sequence from alpha*a down
    to alpha*b as such pairs."""

    __slots__ = ("alpha", "a_nd", "b_nd", "dens", "mults",
                 "row", "cluster", "side", "to_cluster", "geometric_copies")

    def __init__(self, alpha: int, a_nd: Pair, b_nd: Pair):
        if alpha < 1:
            raise InputError("chain multiplier must be positive")
        if a_nd[0] * b_nd[1] <= b_nd[0] * a_nd[1]:
            raise InputError("chain needs a > b")
        self.alpha, self.a_nd, self.b_nd = alpha, a_nd, b_nd
        self.dens = [d for _, d in self.sequence[1:-1]]
        self.mults = [alpha * d for d in self.dens]
        self.row = None
        self.cluster = None
        self.side = "minus"
        self.to_cluster = None  # None = open-ended
        self.geometric_copies = 1

    @property
    def sequence(self) -> List[Pair]:
        return _unimodular_sequence(_times(self.alpha, self.a_nd),
                                    _times(self.alpha, self.b_nd))

    @property
    def length(self) -> int:
        return len(self.mults)

    def __repr__(self):
        return (f"ChainSpec(alpha={self.alpha}, {ratio_str(*self.a_nd)}->"
                f"{ratio_str(*self.b_nd)}, mults={self.mults})")


def open_chain_bound(alpha: int, a_nd: Pair) -> Pair:
    """Lower endpoint floor(alpha*a - 1)/alpha of an open-ended chain from
    a, as a reduced pair, for a reduced pair a."""
    n, d = a_nd
    fl = (alpha * n - d) // d
    g = gcd(fl, alpha)
    return fl // g, alpha // g


# ---------------------------------------------------------------------------
# Fibre assembly

MODE_NAMES = {"exact": "arithmetic", "geometric": "geometric"}  # fibre mode by residue mode


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


def assemble(tree: ClusterTree,
             records: Optional[Dict[int, InvariantRecord]] = None) -> SpecialFibre:
    """Build the special fibre data from a cluster tree and its records."""
    if tree.root is None:
        raise InternalInconsistency("no proper cluster: the fibre needs deg f >= 2")
    if records is None:
        records = all_records(tree)
    mode = MODE_NAMES[tree.mode]
    fib = SpecialFibre(tree, records, mode)
    for node in tree.nodes:
        r = records[node.id]
        # ubereven: ftilde is a nonzero constant (compute_record), a square
        # over k-bar; in exact mode split only if a square in k_v
        split = r.ubereven and (mode == "geometric" or r.ftilde.lead() ** (
            (r.k_v.order - 1) // 2) == r.k_v.one)
        fib.components[node.id] = Component(node.id, r.m, r.genus, split)
        if r.n == 1:
            count = r.f_v * r.fbar.degree
            gcd_check = r.fbar.gcd(r.fbar.derivative())
            if gcd_check.degree != 0:
                raise InternalInconsistency("leaf residual part must be squarefree")
            if count:
                fib.open_p1.append(OpenP1Family(node.id, r.e, count))
        # the connector to the parent, or the root's open tail, then the
        # minimal tail, as (row, alpha, a, b, copies, target) with a and b
        # reduced pairs; an open tail has no target and vanishes when empty
        alpha, copies = r.epsilon * r.gamma, 1 + (r.p // r.gamma == 2)
        s = (r.s.numerator, r.s.denominator)
        if node.parent is not None:
            rp = records[node.parent.id]
            # end = s - p/2 (lambda - d / d_parent lambda_parent) over 2h,
            # h = e e_parent d_parent: the denominators of s, lambda and
            # lambda_parent divide 2e, e and e_parent
            h = r.e * rp.e * node.parent.degree
            end = (_over(r.s, 2 * h)
                   - r.p * (_over(r.lam, h) - r.degree * _over(rp.lam, r.e * rp.e)))
            g = gcd(end, 2 * h)
            rows = [("connector", alpha, s, (end // g, 2 * h // g), copies, node.parent.id)]
        else:
            rows = [("root_tail", alpha, s, open_chain_bound(alpha, s), copies, None)]
        if r.delta == 1:
            alpha = r.epsilon * r.gamma0
            s0 = (-r.s0.numerator, r.s0.denominator)
            rows.append(("minimal_tail", alpha, s0, open_chain_bound(alpha, s0),
                         1 + (r.p0 // r.gamma0 == 2), None))
        for row, alpha, a, b, copies, target in rows:
            # the chain law, P^1(alpha, a, b) needs alpha >= 1 and a > b: a
            # bug here, so checked before ChainSpec raises its InputError
            if alpha < 1 or a[0] * b[1] <= b[0] * a[1]:
                raise InternalInconsistency(
                    f"{row} chain law violated at cluster {node.id}: alpha = {alpha}, "
                    f"a = {ratio_str(*a)}, b = {ratio_str(*b)}; it needs alpha >= 1 and a > b")
            for side in ("minus", "plus")[:copies]:
                ch = ChainSpec(alpha, a, b)
                if target is None and ch.length == 0:
                    continue
                ch.row, ch.cluster, ch.side, ch.to_cluster = row, node.id, side, target
                ch.geometric_copies = r.f_v
                fib.chains.append(ch)
    _check_attachments(fib)
    check_genus_identity(fib)
    return fib


def _over(q, den: int) -> int:
    """The numerator of the rational q over den, a multiple of q's denominator."""
    return q.numerator * (den // q.denominator)


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
        # a cluster's residue field extends its parent's, so copy j of the
        # chain's cluster meets copy j mod f_target of its target in fibre_graph
        if ch.to_cluster is not None and \
                fib.records[ch.cluster].f_v % fib.records[ch.to_cluster].f_v:
            raise InternalInconsistency(
                "chain's cluster has f_v not a multiple of its target's f_v")
    # an ubereven component is two lines over k-bar, so it must receive its
    # chains in plus/minus pairs and the two designated points always land
    # on distinct halves
    for cid in fib.components:
        r = fib.records[cid]
        if not r.ubereven:
            continue
        if r.p // r.gamma != 2 or (r.delta == 1 and r.p0 // r.gamma0 != 2):
            raise InternalInconsistency("ubereven component with odd chain parity")
        for ch in fib.chains:
            if ch.to_cluster == cid:
                rc = fib.records[ch.cluster]
                if rc.p // rc.gamma != 2:
                    raise InternalInconsistency(
                        "single chain into an ubereven component")


# ---------------------------------------------------------------------------
# Dual graph of the geometric special fibre


class FibreGraph:
    """Multigraph with (multiplicity, genus) node labels: the dual graph of a fibre."""

    def __init__(self):
        self.labels: List[Tuple[int, int]] = []
        self.edges: List[Tuple[int, int]] = []

    def add_node(self, mult: int, genus: int = 0) -> int:
        self.labels.append((mult, genus))
        return len(self.labels) - 1

    def add_edge(self, a: int, b: int):
        self.edges.append((min(a, b), max(a, b)))


def check_genus_identity(fib: SpecialFibre):
    """Adjunction on the complete special fibre of a regular SNC model:

        2 g(C) - 2  =  sum_i m_i (2 g_i - 2)  +  sum_{edges ij} (m_i + m_j),

    summed over geometric components and transversal intersection points,
    with g(C) read off the input degree.  Checked on every assembly; it ties
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
    adj = [[] for _ in g.labels]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def fibre_graph(fib: SpecialFibre) -> FibreGraph:
    """Dual graph over k-bar: a component of residue degree f_v is f_v
    copies, each two genus-0 nodes when ubereven, else one node; each open
    family puts count / f_v lines on every copy, and each chain is laid once
    per copy j of its cluster, into copy j mod f_target of its target."""
    g = FibreGraph()
    ends: Dict[Tuple[int, int, str], int] = {}
    for cid, comp in fib.components.items():
        r = fib.records[cid]
        for j in range(r.f_v):
            minus = g.add_node(comp.multiplicity, comp.genus)
            ends[(cid, j, "minus")] = minus
            ends[(cid, j, "plus")] = g.add_node(comp.multiplicity, 0) if r.ubereven else minus
    for fam in fib.open_p1:
        f_v = fib.records[fam.cluster].f_v
        for j in range(f_v):
            for _ in range(fam.count // f_v):
                g.add_edge(ends[(fam.cluster, j, "minus")], g.add_node(fam.multiplicity, 0))
    for ch in fib.chains:
        for j in range(fib.records[ch.cluster].f_v):
            prev = ends[(ch.cluster, j, ch.side)]
            for m in ch.mults:
                n = g.add_node(m, 0)
                g.add_edge(prev, n)
                prev = n
            if ch.to_cluster is not None:
                f_target = fib.records[ch.to_cluster].f_v
                g.add_edge(prev, ends[(ch.to_cluster, j % f_target, ch.side)])
    return g


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
        cs = _coeff_str(c)
        if i == 0:
            terms.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if cs == "1" else f"-{xs}" if cs == "-1" else f"{cs}*{xs}")
    out = " + ".join(terms)
    return out.replace("+ -", "- ")


def _coeff_str(c) -> str:
    """A constant of the base field, by its power-basis coordinates."""
    parts = []
    for i, n in enumerate(c.rows):
        if n == 0:
            continue
        q = ratio_str(n, c.den)
        if i == 0:
            parts.append(q)
        else:
            th = "th" if i == 1 else f"th^{i}"
            parts.append(th if q == "1" else f"{q}*{th}")
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(" + " + ".join(parts) + ")"


def ffpoly_str(f: FFPoly) -> str:
    if f.is_zero():
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if c.is_zero():
            continue
        cs = "+".join(str(x) for x in c.rows) if f.field.degree > 1 else str(c.rows[0])
        if f.field.degree > 1 and sum(1 for x in c.rows if x) > 1:
            cs = f"({'+'.join(f'{x}*g^{j}' if j else str(x) for j, x in enumerate(c.rows) if x)})"
        elif f.field.degree > 1 and any(x and j for j, x in enumerate(c.rows)):
            cs = "+".join(f"{x}*g^{j}" if j > 1 else (f"{x}*g" if j == 1 else str(x))
                          for j, x in enumerate(c.rows) if x)
        if i == 0:
            terms.append(cs)
        else:
            xs = "X" if i == 1 else f"X^{i}"
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
            inv["gbar"] = f"y^{r.gbar_exp} - {ffpoly_str(r.gbar_const)}"
            if r.delta:
                inv["gbar0"] = f"y^{r.gbar0_exp} - {ffpoly_str(r.gbar0_const)}"
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


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte, on dicts
    with str keys, lists, str, int, bool and None; any other type raises
    TypeError.  (With ``indent`` set, json falls back to its pure-Python
    encoder.)

    The text is appended to one list of parts.  Values are dispatched by
    exact class first; a subclass of str, int, list or dict takes the
    isinstance path, as in json.  A dict's sorted keys and their quoted
    ``",\n<indent>\"key\": "`` prefixes are kept in ``_LAYOUTS`` per (key
    tuple, indent), so each key of an export's fixed schema is quoted once
    per process.  json is imported here, once per call, so that only JSON
    output loads it."""
    from json.encoder import encode_basestring_ascii
    parts: List[str] = []
    _json_parts(obj, "\n", parts.append, encode_basestring_ascii)
    return "".join(parts)


# (key tuple in insertion order, line break and indent) -> (sorted keys,
# their prefixes, the indent of the values, the closing text)
_LAYOUTS: Dict[Tuple[tuple, str], Tuple[tuple, tuple, str, str]] = {}
_LAYOUTS_MAX = 1024


def _dict_layout(obj: dict, nl: str, quote):
    """The ``_LAYOUTS`` entry of obj's key tuple at indent nl, made and kept
    on a miss; a key that is not a str makes the sort or quote raise."""
    keys = tuple(sorted(obj))
    inner = nl + " "
    prefixes = tuple(("," if i else "{") + inner + quote(k) + ": "
                     for i, k in enumerate(keys))
    layout = keys, prefixes, inner, nl + "}"
    if len(_LAYOUTS) >= _LAYOUTS_MAX:
        _LAYOUTS.clear()
    _LAYOUTS[tuple(obj), nl] = layout
    return layout


def _json_parts(obj, nl: str, put, quote):
    """Put the ``json_text`` parts of obj at the level whose line break and
    indent is ``nl``; ``quote`` encodes a str."""
    t = type(obj)
    if t is str:
        put(quote(obj))
    elif t is int:
        put(int.__repr__(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif t is dict or isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        keys, prefixes, inner, close = (_LAYOUTS.get((tuple(obj), nl))
                                        or _dict_layout(obj, nl, quote))
        for k, prefix in zip(keys, prefixes):
            put(prefix)
            v = obj[k]
            t = type(v)
            if t is str:
                put(quote(v))
            elif t is int:
                put(int.__repr__(v))
            else:
                _json_parts(v, inner, put, quote)
        put(close)
    elif t is list or isinstance(obj, list):
        if not obj:
            put("[]")
            return
        inner = nl + " "
        sep = "," + inner
        put("[")
        prefix = inner
        for v in obj:
            put(prefix)
            prefix = sep
            if type(v) is int:
                put(int.__repr__(v))
            else:
                _json_parts(v, inner, put, quote)
        put(nl + "]")
    elif isinstance(obj, str):
        put(quote(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(f"no JSON form for {type(obj).__name__}")


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
                "a": ratio_str(*ch.a_nd),
                "b": ratio_str(*ch.b_nd),
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
    return json_text(payload).encode()


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
