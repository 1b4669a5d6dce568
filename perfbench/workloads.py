"""The three benchmark workloads: their seeded inputs, how one input runs,
and the output checks, which run outside the timed region.

Every input is run through a public entry point from this process, in one
thread: ``clusterfibre.cli.run`` (the ``fibre`` command) for the two pipeline
workloads and ``clusterfibre.newton.reduce_poly`` for ``reduction_laws``.
The finite-field ``--seed`` of the CLI is fixed at 0 throughout.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from fractions import Fraction

# Fibre JSON is only byte-stable for a fixed finite-field seed.
FF_SEED = "0"


class Outcome:
    """One execution of one input: seconds spent, output, and the failure
    (None when it succeeded)."""

    __slots__ = ("seconds", "output", "error")

    def __init__(self, seconds, output, error):
        self.seconds = seconds
        self.output = output
        self.error = error


def run_cli(cf, argv):
    """``cli.run(argv)`` with stdout captured as bytes; exit 1, exit 2 and any
    exception escaping it are failures."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cf.cli.run(argv)
            error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        except SystemExit as ex:
            error = f"exit {ex.code}: {err.getvalue().strip()}"
        except Exception as ex:  # the runner must survive every outcome
            error = f"{type(ex).__name__}: {ex}"
        seconds = time.perf_counter() - t0
    out.flush()
    return Outcome(seconds, raw.getvalue(), error)


# ---------------------------------------------------------------------------
# Dot graphs, read without the package's own graph code


_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="mult=(-?\d+), genus=(-?\d+)"\];$')
_DOT_EDGE = re.compile(r"^\s*n(\d+) -- n(\d+);$")


def parse_dot(data: bytes):
    """(labels, edges) of a ``--format dot`` fibre graph."""
    labels, edges = {}, []
    lines = data.decode().splitlines()
    if not lines or lines[0].strip() != "graph fibre {" or lines[-1].strip() != "}":
        raise ValueError("not a fibre dot graph")
    for line in lines[1:-1]:
        node = _DOT_NODE.match(line)
        edge = _DOT_EDGE.match(line)
        if node:
            labels[int(node.group(1))] = (int(node.group(2)), int(node.group(3)))
        elif edge:
            edges.append((int(edge.group(1)), int(edge.group(2))))
        else:
            raise ValueError(f"unexpected dot line {line!r}")
    if any(a not in labels or b not in labels for a, b in edges):
        raise ValueError("edge to an undeclared node")
    return labels, edges


def adjunction_error(labels, edges, degree):
    """Why the graph fails 2g-2 = sum m_i(2g_i-2) + sum_edges(m_i+m_j) with
    g = floor((deg f - 1)/2), or connectivity; None when it passes."""
    total = sum(m * (2 * g - 2) for m, g in labels.values())
    total += sum(labels[a][0] + labels[b][0] for a, b in edges)
    expected = 2 * ((degree - 1) // 2) - 2
    if total != expected:
        return f"adjunction count {total} != {expected}"
    adj = {i: [] for i in labels}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(labels), None)
    seen = {start} if start is not None else set()
    stack = list(seen)
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(labels):
        return "dual graph is disconnected"
    return None


def _labelled_multigraph(labels, edges):
    import networkx as nx
    g = nx.MultiGraph()
    for i, lab in labels.items():
        g.add_node(i, label=lab)
    g.add_edges_from(edges)
    return g


def isomorphic(labels1, edges1, labels2, edges2):
    import networkx as nx
    return nx.is_isomorphic(_labelled_multigraph(labels1, edges1),
                            _labelled_multigraph(labels2, edges2),
                            node_match=lambda a, b: a["label"] == b["label"])


# ---------------------------------------------------------------------------
# Workloads


class FibreInput:
    """One ``fibre`` command line and what the checks need to know about it."""

    def __init__(self, argv, p, m, degree, roots=None):
        self.argv = argv
        self.p = p
        self.m = m
        self.degree = degree
        self.roots = roots

    def label(self):
        return " ".join(self.argv)


class LinearRoots:
    """Exact mode on products of n distinct rational roots p*r.

    Every run covers n = 12..24 at p = 3 and p = 5 once each (26 inputs);
    the seed draws the roots and the order.  A free draw of n would move
    the median latency between seeds by the n^4 cost alone."""

    name = "linear_roots"
    fields = [(3, 1), (5, 1)]
    fibre_json = True

    def inputs(self, seed, cf):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for p in (3, 5):
            for n in range(12, 25):
                roots = set()
                while len(roots) < n:
                    roots.add(p * rng.randrange(1, p ** 4))
                roots = sorted(roots)
                coeffs = [1]
                for a in roots:  # multiply by (x - a)
                    coeffs = [-a * coeffs[0]] + [
                        coeffs[i - 1] - a * coeffs[i] for i in range(1, len(coeffs))
                    ] + [coeffs[-1]]
                argv = ["fibre", "--coeffs=" + ",".join(map(str, coeffs)),
                        "--prime", str(p), "--format", "json", "--seed", FF_SEED]
                out.append(FibreInput(argv, p, 1, n, roots))
        rng.shuffle(out)
        return out

    def execute(self, cf, inp):
        return run_cli(cf, inp.argv)

    def check(self, cf, inp, outcome):
        """Cluster radii, sizes and nesting against the pairwise-valuation
        oracle; the geometric dual graph against the oracle fibre graph."""
        from clusterfibre.degree1 import (oracle_fibre_graph, oracle_signature,
                                          rational_cluster_tree)
        doc = json.loads(outcome.output)
        if doc["normalization_shift"] != 0:
            return "roots of positive valuation were rescaled"
        got = _json_tree_signature(doc["clusters"])
        want = oracle_signature(rational_cluster_tree(inp.roots, inp.p))
        if got != want:
            return "cluster tree differs from the degree-1 oracle"
        argv = list(inp.argv)
        argv[argv.index("json")] = "dot"
        dot = run_cli(cf, argv + ["--residue-mode", "geometric"])
        if dot.error:
            return f"--format dot failed: {dot.error}"
        labels, edges = parse_dot(dot.output)
        og = oracle_fibre_graph(inp.roots, inp.p)
        if not isomorphic(labels, edges, dict(enumerate(og.labels)), og.edges):
            return "geometric dual graph differs from the degree-1 oracle"
        return None


def _json_tree_signature(clusters):
    """(size, radius, singleton leaves, children) from the JSON clusters,
    the shape of ``degree1.oracle_signature``."""
    kids, singles, root = {}, {}, None
    for c in clusters:
        if c["proper"]:
            if c["parent"] is None:
                root = c
            else:
                kids.setdefault(c["parent"], []).append(c)
        elif c["degree"] == 1:
            singles[c["parent"]] = singles.get(c["parent"], 0) + 1

    def sig(c):
        sub = sorted(sig(k) for k in kids.get(c["id"], []))
        return (c["size"], Fraction(c["radius"]), singles.get(c["id"], 0), tuple(sub))

    return sig(root) if root is not None else None


class GeometricExtension:
    """Geometric mode on products of 1-2 factors g(x)^k - p^e.

    The base draw is fixed; the seed applies x -> u*x + p*a (u a unit, a
    integer), under which the fibre is invariant, so the restart structure
    and the cost stay put while the coefficients change.  Drawn latencies
    span three decades, so a free draw of ~30 inputs per seed would move
    the median latency by about a quarter between seeds."""

    name = "geometric_extension"
    fields = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]
    fibre_json = True
    base_size = 24
    # The ROADMAP slow case (1 -> 3 -> 15) and a case whose residue-field
    # extension fails today in ff_extend.
    fixed = [
        (5, 1, "2*x^8+33*x^7-10*x^6+27*x^5+7*x^4-80*x^3-100*x^2-68*x-3", 8),
        (5, 2, "(x^3+x+1)^2-5^5", 6),
    ]

    def base(self):
        rng = random.Random(f"{self.name}:base")
        return [_draw_geometric(rng) for _ in range(self.base_size)]

    def inputs(self, seed, cf):
        rng = random.Random(f"{self.name}:{seed}")
        drawn = []
        for p, m, expr, degree in self.base():
            u = rng.randrange(1, p) * rng.choice((1, -1))
            a = rng.randrange(-1, 2)
            drawn.append((p, m, expr.replace("x", f"({u}*x{p * a:+d})"), degree))
        out = []
        for p, m, expr, degree in drawn + self.fixed:
            argv = ["fibre", expr, "--prime", str(p), "--unramified-degree", str(m),
                    "--residue-mode", "geometric", "--format", "json", "--seed", FF_SEED]
            out.append(FibreInput(argv, p, m, degree))
        rng.shuffle(out)
        return out

    def execute(self, cf, inp):
        return run_cli(cf, inp.argv)

    def check(self, cf, inp, outcome):
        """Adjunction identity and connectivity of the dual graph, rebuilt
        from the JSON fibre section (the graph ``--format dot`` prints, without
        running the pipeline a second time)."""
        doc = json.loads(outcome.output)
        if doc["mode"] != "geometric":
            return "JSON does not report geometric mode"
        labels, edges = json_fibre_graph(doc["fibre"])
        return adjunction_error(labels, edges, inp.degree)


def json_fibre_graph(fibre):
    """Dual graph of a geometric-mode JSON fibre: a component is one node, or
    two when split; open families hang off the "minus" end; each chain copy
    is a path of its multiplicities from its end to its target's end."""
    labels, edges, ends = {}, [], {}

    def node(mult, genus):
        labels[len(labels)] = (mult, genus)
        return len(labels) - 1

    for c in fibre["components"]:
        cid = c["cluster"]
        if c["split"]:
            ends[cid, "minus"] = node(c["multiplicity"], 0)
            ends[cid, "plus"] = node(c["multiplicity"], 0)
        else:
            ends[cid, "minus"] = ends[cid, "plus"] = node(c["multiplicity"], c["genus"])
    for fam in fibre["open_p1"]:
        for _ in range(fam["count"]):
            edges.append((ends[fam["cluster"], "minus"], node(fam["multiplicity"], 0)))
    for ch in fibre["chains"]:
        for _ in range(ch["copies"]):
            prev = ends[ch["from"]["cluster"], ch["from"]["side"]]
            for mult in ch["mults"]:
                nxt = node(mult, 0)
                edges.append((prev, nxt))
                prev = nxt
            if ch["to"] != "open":
                edges.append((prev, ends[ch["to"]["cluster"], ch["to"]["side"]]))
    return labels, edges


def _draw_geometric(rng):
    p = rng.choice((3, 5, 7))
    m = rng.choice((1, 2))
    count = rng.choice((1, 2))
    factors, degree = [], 0
    while len(factors) < count:
        d = rng.choice((2, 3))
        terms = [f"x^{d}"]
        for i in range(d - 1, -1, -1):
            c = rng.randrange(-2, 3)
            th = m > 1 and rng.random() < 0.3
            if c:
                terms.append(f"{'+' if c > 0 else '-'}{abs(c)}"
                             f"{'*th' if th else ''}{f'*x^{i}' if i else ''}")
        k = rng.choice((2, 3))
        # p^e is not a k-th power, so no factor splits as g^k - c^k
        e = rng.choice([e for e in range(1, 8) if e % k])
        factor = f"(({''.join(terms)})^{k}-{p}^{e})"
        if factor not in factors:
            factors.append(factor)
            degree += d * k
    return p, m, "*".join(factors), degree


# The selfcheck corpus of clusterfibre.cli, copied so that the workload does
# not depend on a private name.
SELFCHECK_CORPUS = [
    (5, "(x^2-5)^3 - 5^5"),
    (3, "(x^2-3)^3 - 3^5"),
    (7, "(x^3-2*7)^2 - 7*x^2*(x^3-2*7)"),
    (3, "(x^3-2*3)^2 - 3*x^2*(x^3-2*3)"),
    (5, "(x-5)*(x+5)*(x-30)*(x+30)"),
    (5, "(x-5)*(x-30)*(x-10)*(x-35)*(x-15)*(x-40)"),
    (5, "x^3-5"),
    (5, "x^2-5"),
    (3, "(x-3)*(x-12)*(x-6)*(x+3)"),
    (5, "((x^2-5)^3-5^5)*(x^2+5)"),
    (3, "(x^2+1)^2 - 3^5"),
]


class PairInput:
    __slots__ = ("chain", "g", "h", "gh", "label_text")

    def __init__(self, chain, g, h, gh, label_text):
        self.chain = chain
        self.g = g
        self.h = h
        self.gh = gh
        self.label_text = label_text

    def label(self):
        return self.label_text


class ReductionLaws:
    """The selfcheck reduction-law traffic: for every node chain of the
    selfcheck corpus trees, in both modes, seeded pairs (g, h) of degree at
    most 4; one input is reduce_poly of g, h and g*h."""

    name = "reduction_laws"
    fields = [(3, 1), (5, 1), (7, 1)]
    fibre_json = False
    pairs_per_chain = 60

    def chains(self, cf):
        out = []
        for p, expr in SELFCHECK_CORPUS:
            K = cf.BaseField(p)
            f = cf.parse_poly(expr, K)
            for mode in ("exact", "geometric"):
                tree = cf.build_cluster_tree(f, K, mode=mode, seed=0)
                for node in tree.nodes:
                    out.append((f"p={p} {mode} {expr} #{node.id}", tree.field,
                                cf.cluster_chain(node)))
        return out

    def inputs(self, seed, cf):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for label, K, chain in self.chains(cf):
            for _ in range(self.pairs_per_chain):
                g, h = _random_poly(rng, K), _random_poly(rng, K)
                out.append(PairInput(chain, g, h, g * h, label))
        return out

    def execute(self, cf, inp):
        reduce_poly = cf.newton.reduce_poly
        t0 = time.perf_counter()
        try:
            out = (reduce_poly(inp.chain, inp.g), reduce_poly(inp.chain, inp.h),
                   reduce_poly(inp.chain, inp.gh))
            error = None
        except Exception as ex:
            out, error = None, f"{type(ex).__name__}: {ex}"
        return Outcome(time.perf_counter() - t0, out, error)

    def check(self, cf, inp, outcome):
        """red(gh) = red(g) red(h), the degree law, and alpha additivity."""
        rg, rh, rgh = outcome.output
        if rgh.poly != rg.poly * rh.poly:
            return "red(gh) != red(g) red(h)"
        for r in (rg, rh, rgh):
            if r.poly.degree != (r.i1 - r.i0) // r.b or r.poly[0].is_zero():
                return "degree law broken"
        if rgh.alpha != rg.alpha + rh.alpha:
            return "alpha(gh) != alpha(g) + alpha(h)"
        return None


def _random_poly(rng, K):
    coeffs = [rng.randrange(-99, 100) for _ in range(rng.randrange(0, 5))]
    coeffs.append(rng.choice([c for c in range(-99, 100) if c]))
    return K.poly(coeffs)


WORKLOADS = {w.name: w for w in (LinearRoots(), GeometricExtension(), ReductionLaws())}
