"""Chains, assembly, exports, and the figure of the running example."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from clusterfibre.errors import InputError
from clusterfibre.field import BaseField
from clusterfibre.clusters import build_cluster_tree
from clusterfibre.invariants import all_records
from clusterfibre.fibre import (farey_chain, open_chain_bound, open_chain,
                                simplest_between, assemble, fibre_graph,
                                graphs_isomorphic, FibreGraph, export)
from clusterfibre.degree1 import oracle_fibre_graph


class TestFarey:
    def test_connector_example(self):
        ch = farey_chain(2, F(-5, 3), F(-2))
        assert ch.mults == [4]
        assert ch.fractions == [F(-10, 3), F(-7, 2), F(-4)]

    def test_tail_example(self):
        ch = farey_chain(2, F(5, 6), F(0))
        assert ch.mults == [4, 2]
        assert ch.fractions == [F(5, 3), F(3, 2), F(1), F(0)]

    def test_consecutive_integers(self):
        ch = farey_chain(1, F(7), F(6))
        assert ch.mults == []

    def test_degenerate(self):
        with pytest.raises(InputError, match="chain needs a > b"):
            farey_chain(2, F(1), F(1))

    def test_open_chain_bounds(self):
        assert open_chain_bound(2, F(5, 6)) == 0
        assert open_chain_bound(1, F(1, 2)) == -1
        assert open_chain_bound(2, F(1)) == F(1, 2)

    def test_open_chain_examples(self):
        assert open_chain(1, F(1, 2)).mults == [1]
        assert open_chain(2, F(1)).mults == []
        assert open_chain(2, F(5, 6)).mults == [4, 2]

    def test_unimodularity_minimality_translation_random(self):
        rng = random.Random(77)
        for _ in range(300):
            alpha = rng.randrange(1, 7)
            a = F(rng.randrange(-40, 40), rng.randrange(1, 9))
            b = a - F(rng.randrange(1, 30), rng.randrange(1, 9))
            ch = farey_chain(alpha, a, b)
            fr = ch.fractions
            for x, y in zip(fr, fr[1:]):
                assert x > y
                assert x.numerator * y.denominator - y.numerator * x.denominator == 1
            # deletion test: removing any intermediate breaks unimodularity
            for k in range(1, len(fr) - 1):
                x, y = fr[k - 1], fr[k + 1]
                assert x.numerator * y.denominator - y.numerator * x.denominator != 1
            # integer translation of both endpoints preserves denominators
            t = rng.randrange(-3, 4)
            ch2 = farey_chain(alpha, a + t, b + t)
            assert ch2.dens == ch.dens

    def test_simplest_between(self):
        assert simplest_between(F(0), F(5, 3)) == 1
        assert simplest_between(F(1), F(5, 3)) == F(3, 2)
        assert simplest_between(F(-4), F(-10, 3)) == F(-7, 2)


def _expected_sextic_figure():
    g = FibreGraph()
    g1 = g.add_node(2, 0)   # the degree-1 component
    g2 = g.add_node(6, 0)   # the degree-2 component
    c = g.add_node(4, 0)    # connector
    g.add_edge(g2, c)
    g.add_edge(c, g1)
    for _ in range(2):      # two tails [4, 2] off the multiplicity-6 component
        a = g.add_node(4, 0)
        b = g.add_node(2, 0)
        g.add_edge(g2, a)
        g.add_edge(a, b)
    for _ in range(2):      # two tails [1] off the multiplicity-2 component
        t = g.add_node(1, 0)
        g.add_edge(g1, t)
    return g


@st.composite
def _multigraph(draw):
    """(labels, edges) of a labelled multigraph on at most 8 nodes, loops and
    parallel edges allowed; the small label range makes equal labels common."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 1)),
                           min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=12))
    return labels, edges


def _fibre_graph(labels, edges):
    g = FibreGraph()
    for mult, genus in labels:
        g.add_node(mult, genus)
    for a, b in edges:
        g.add_edge(a, b)
    return g


def _nx_graph(labels, edges):
    import networkx as nx
    g = nx.MultiGraph()
    for i, label in enumerate(labels):
        g.add_node(i, label=label)
    g.add_edges_from(edges)
    return g


class TestIsomorphismOracle:
    """graphs_isomorphic against networkx on random labelled multigraphs and
    three copies: relabelled, one edge moved, two labels exchanged."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_networkx(self, data):
        import networkx as nx
        labels, edges = data.draw(_multigraph())
        n = len(labels)
        perm = data.draw(st.permutations(range(n)))
        relabelled = ([labels[perm.index(i)] for i in range(n)],
                      [(perm[a], perm[b]) for a, b in edges])
        moved = list(edges)
        if moved:
            k = data.draw(st.integers(0, len(moved) - 1))
            moved[k] = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        # the same edges with two nodes' labels exchanged: the label multiset
        # and the degrees stay, so only the labels tell the graphs apart
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        swapped = list(labels)
        swapped[i], swapped[j] = labels[j], labels[i]
        g = _fibre_graph(labels, edges)
        for other in (relabelled, (labels, moved), (swapped, edges)):
            want = nx.is_isomorphic(_nx_graph(labels, edges), _nx_graph(*other),
                                    node_match=lambda a, b: a["label"] == b["label"])
            assert graphs_isomorphic(g, _fibre_graph(*other)) == want
        assert graphs_isomorphic(g, _fibre_graph(*relabelled))

    def test_edge_multiplicities_count(self):
        # two 6-cycles with the same degree at every node and multiplicities
        # (2, 2, 3, 1, 2, 2) and (1, 3, 2, 2, 1, 3) along their edges: only
        # the identity keeps the degrees, and it moves multiplicities
        import networkx as nx
        labels = [(1, 0)] * 6
        graphs = [[(i, (i + 1) % 6) for i in range(6) for _ in range(mult[i])]
                  for mult in ((2, 2, 3, 1, 2, 2), (1, 3, 2, 2, 1, 3))]
        assert not nx.is_isomorphic(_nx_graph(labels, graphs[0]), _nx_graph(labels, graphs[1]))
        assert not graphs_isomorphic(_fibre_graph(labels, graphs[0]), _fibre_graph(labels, graphs[1]))


class TestSexticFigure:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_figure_isomorphic(self, p):
        K = BaseField(p)
        f = K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        g = fibre_graph(fib)
        assert graphs_isomorphic(g, _expected_sextic_figure())

    def test_chain_inventory(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        rows = sorted((ch.row, tuple(ch.mults), ch.side) for ch in fib.chains)
        assert rows == [
            ("connector", (4,), "minus"),
            ("minimal_tail", (4, 2), "minus"),
            ("minimal_tail", (4, 2), "plus"),
            ("root_tail", (1,), "minus"),
            ("root_tail", (1,), "plus"),
        ]
        assert fib.open_p1 == []
        comps = sorted((c.multiplicity, c.genus, c.split) for c in fib.components.values())
        assert comps == [(2, 0, False), (6, 0, False)]


class TestSplitAndOpen:
    def test_ubereven_splits(self):
        K = BaseField(5)
        f = K.poly([1])
        for a in [5, 30, -5, -30]:
            f = f * K.poly([-a, 1])
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        root_comp = fib.components[tree.root.id]
        assert root_comp.split
        assert root_comp.multiplicity == 1  # e = 1, n = 2
        g = fibre_graph(fib)
        # the split top contributes two multiplicity-1 lines besides the children
        assert sorted(g.labels).count((1, 0)) >= 2

    def test_split_depends_on_square_class_in_exact_mode(self):
        # scaling by a nonsquare unit blocks the split over F_5 but not over
        # the closure
        K = BaseField(5)
        f = K.poly([2])
        for a in [5, 30, -5, -30]:
            f = f * K.poly([-a, 1])
        exact = build_cluster_tree(f, K, mode="exact")
        fe = assemble(exact)
        assert not fe.components[exact.root.id].split
        assert fe.records[exact.root.id].u == 0
        geo = build_cluster_tree(f, K, mode="geometric")
        fg = assemble(geo)
        assert fg.components[geo.root.id].split

    def test_unramified_base_pipeline(self):
        # theta in the coefficients: single cluster over Q_3(theta)
        K = BaseField(3, 2)
        f = K.poly([-(K.theta * K.rat(3)), K.zero, K.one])  # x^2 - 3*theta
        tree = build_cluster_tree(f, K, mode="exact")
        assert len(tree.nodes) == 1
        node = tree.root
        assert (node.degree, node.radius, node.size) == (1, F(1, 2), 2)
        fib = assemble(tree)
        comp = fib.components[node.id]
        assert comp.multiplicity == 2 and comp.genus == 0
        raw = export(fib, "json")
        assert b'"m": 2' in raw

    def test_open_p1_family(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 0, 1])  # x^3 - 5: n = 1 cluster
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        assert len(fib.open_p1) == 1
        fam = fib.open_p1[0]
        assert fam.multiplicity == 3 and fam.count == 1

    def test_attachment_checks(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        tree = build_cluster_tree(f, K)
        fib = assemble(tree)
        for ch in fib.chains:
            if ch.side == "plus":
                r = fib.records[ch.cluster]
                assert (r.p // r.gamma == 2) or (r.p0 // r.gamma0 == 2)


class TestDegree1FibreOracle:
    def test_semistable_example(self):
        # three clusters of two roots each under a root cluster
        K = BaseField(5)
        roots = [5, 5 + 25, 10, 10 + 25, 15, 15 + 25]
        f = K.poly([1])
        for a in roots:
            f = f * K.poly([-a, 1])
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        g = fibre_graph(fib)
        og = oracle_fibre_graph(roots, 5)
        assert graphs_isomorphic(g, og)

    @pytest.mark.parametrize("p", [3, 5])
    def test_randomized(self, p):
        rng = random.Random(31 + p)
        K = BaseField(p)
        done = 0
        while done < 20:
            n = rng.randrange(2, 8)
            roots = set()
            while len(roots) < n:
                roots.add(p * rng.randrange(1, p ** 3))
            roots = sorted(roots)
            f = K.poly([1])
            for a in roots:
                f = f * K.poly([-a, 1])
            tree = build_cluster_tree(f, K, mode="geometric")
            fib = assemble(tree)
            assert graphs_isomorphic(fibre_graph(fib), oracle_fibre_graph(roots, p))
            done += 1


class TestExports:
    def _fib(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        tree = build_cluster_tree(f, K, mode="geometric")
        return assemble(tree)

    def test_json_roundtrip_and_schema(self):
        fib = self._fib()
        raw = export(fib, "json")
        data = json.loads(raw)
        assert data["base_field"] == {"p": 5, "m": 1}
        assert data["normalization_shift"] == 0
        assert data["mode"] == "geometric"
        assert {c["degree"] for c in data["clusters"] if c["proper"]} == {1, 2}
        assert len(data["fibre"]["components"]) == 2
        assert data["fibre"]["open_p1"] == []
        # determinism
        assert export(fib, "json") == raw

    def test_dot_valid(self):
        fib = self._fib()
        dot = export(fib, "dot").decode()
        assert dot.startswith("graph fibre {")
        assert dot.rstrip().endswith("}")
        assert dot.count("--") == len(fibre_graph(fib).edges)
        assert 'label="mult=6, genus=0"' in dot

    def test_ascii_stable(self):
        fib = self._fib()
        a1 = export(fib, "ascii")
        a2 = export(fib, "ascii")
        assert a1 == a2
        assert b"component" in a1


class TestAdjunctionCount:
    def test_worked_example_by_hand(self):
        # 2g - 2 = 2 for the genus-2 sextic: -52 from components, +54 from edges
        K = BaseField(5)
        f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        g = fibre_graph(fib)
        comp_part = sum(m * (2 * gen - 2) for m, gen in g.labels)
        edge_part = sum(g.labels[a][0] + g.labels[b][0] for a, b in g.edges)
        assert comp_part == -52 and edge_part == 54

    def test_randomized(self):
        # assemble() itself raises if the adjunction count fails in geometric
        # mode; run a spread of shapes through it
        rng = random.Random(5150)
        built = 0
        while built < 25:
            p = rng.choice([3, 5])
            K = BaseField(p)
            deg = rng.randrange(2, 8)
            f = K.poly([rng.randrange(-p ** 3, p ** 3) for _ in range(deg)] + [1])
            try:
                tree = build_cluster_tree(f, K, mode="geometric")
            except InputError as ex:
                assert "repeated roots" in str(ex)
                continue
            if tree.root is None:
                continue
            assemble(tree)
            built += 1


class TestEllChoiceInvariance:
    @pytest.mark.parametrize("poly_kind", ["sextic", "cubic", "n1"])
    def test_fibre_invariant_under_ell_shift(self, poly_kind):
        K = BaseField(5)
        if poly_kind == "sextic":
            f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        elif poly_kind == "cubic":
            phi = K.poly([-10, 0, 0, 1])
            f = phi * phi - K.poly([0, 0, 5]) * phi
        else:
            f = K.poly([-5, 0, 0, 1])
        tree = build_cluster_tree(f, K, mode="geometric")
        base = assemble(tree, all_records(tree))
        shifted = assemble(tree, all_records(tree, ell_offset=1))
        assert graphs_isomorphic(fibre_graph(base), fibre_graph(shifted))
