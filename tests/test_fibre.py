"""Chains, assembly, exports, and the figure of the running example."""

import ast
import enum
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import clusterfibre
from clusterfibre.errors import InputError, InternalInconsistency
from clusterfibre.field import BaseField
from clusterfibre.clusters import build_cluster_tree
from clusterfibre.invariants import all_records
from clusterfibre.fibre import (ChainSpec, open_chain_bound,
                                assemble, fibre_graph, FibreGraph, export,
                                json_text, check_genus_identity)
from clusterfibre.degree1 import (oracle_fibre_graph, oracle_signature,
                                  rational_cluster_tree)
from clusterfibre.rationals import OO, qstr
from clusterfibre import cli

from graphs import isomorphic, tree_signature
from oracles.farey import det, simplest_between, unimodular_sequence


def nd(q):
    """An int or a Fraction as its reduced (numerator, denominator) pair."""
    return q.numerator, q.denominator


def fractions_of(ch):
    """A chain's sequence as Fractions."""
    return [F(n, d) for n, d in ch.sequence]


def open_chain(alpha, a):
    """The open-ended chain from a down to open_chain_bound(alpha, a)."""
    return ChainSpec(alpha, nd(a), open_chain_bound(alpha, nd(a)))


def _check_minimal_unimodular(fr):
    """Consecutive fractions fall with determinant one, and no intermediate
    fraction can be deleted (the deletion test)."""
    for x, y in zip(fr, fr[1:]):
        assert x > y
        assert det(x, y) == 1
    for k in range(1, len(fr) - 1):
        assert det(fr[k - 1], fr[k + 1]) != 1


class TestFarey:
    def test_connector_example(self):
        ch = ChainSpec(2, nd(F(-5, 3)), nd(F(-2)))
        assert ch.mults == [4]
        assert fractions_of(ch) == [F(-10, 3), F(-7, 2), F(-4)]

    def test_tail_example(self):
        ch = ChainSpec(2, nd(F(5, 6)), nd(F(0)))
        assert ch.mults == [4, 2]
        assert fractions_of(ch) == [F(5, 3), F(3, 2), F(1), F(0)]

    def test_consecutive_integers(self):
        ch = ChainSpec(1, nd(F(7)), nd(F(6)))
        assert ch.mults == []

    def test_degenerate(self):
        with pytest.raises(InputError, match="chain needs a > b"):
            ChainSpec(2, nd(F(1)), nd(F(1)))

    def test_open_chain_bounds(self):
        assert open_chain_bound(2, nd(F(5, 6))) == nd(0)
        assert open_chain_bound(1, nd(F(1, 2))) == nd(-1)
        assert open_chain_bound(2, nd(F(1))) == nd(F(1, 2))

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
            ch = ChainSpec(alpha, nd(a), nd(b))
            _check_minimal_unimodular(fractions_of(ch))
            # integer translation of both endpoints preserves denominators
            t = rng.randrange(-3, 4)
            ch2 = ChainSpec(alpha, nd(a + t), nd(b + t))
            assert ch2.dens == ch.dens

    def test_loop_against_recursive_insertion(self):
        # the Hirzebruch-Jung loop against the recursive construction of
        # tests/oracles/farey.py, which alone gets a raised recursion limit
        rng = random.Random(2022)
        limit = sys.getrecursionlimit()
        for _ in range(10_000):
            a = F(rng.randrange(-60, 60), rng.randrange(1, 41))
            b = a - F(rng.randrange(1, 60), rng.randrange(1, 41))
            got = fractions_of(ChainSpec(1, nd(a), nd(b)))
            sys.setrecursionlimit(20_000)
            try:
                want = unimodular_sequence(a, b)
            finally:
                sys.setrecursionlimit(limit)
            assert got == want, (a, b)

    def test_long_chain_needs_no_stack(self):
        # 5,002 fractions: the recursive insertion exceeds Python's default
        # recursion limit of 1,000 here, the loop keeps one frame
        ch = ChainSpec(1, nd(F(10001, 2)), nd(F(0)))
        assert fractions_of(ch) == [F(10001, 2)] + [F(k) for k in range(5000, -1, -1)]
        assert ch.mults == [1] * 5000
        _check_minimal_unimodular(fractions_of(ch))

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


def _fibre_graph(labels, edges):
    g = FibreGraph()
    for mult, genus in labels:
        g.add_node(mult, genus)
    for a, b in edges:
        g.add_edge(a, b)
    return g


class TestIsomorphismOracle:
    """graphs.isomorphic, the check the fibre tests compare graphs with."""

    def test_edge_multiplicities_count(self):
        # two 6-cycles with the same degree at every node and multiplicities
        # (2, 2, 3, 1, 2, 2) and (1, 3, 2, 2, 1, 3) along their edges: only
        # the identity keeps the degrees, and it moves multiplicities
        labels = [(1, 0)] * 6
        graphs = [[(i, (i + 1) % 6) for i in range(6) for _ in range(mult[i])]
                  for mult in ((2, 2, 3, 1, 2, 2), (1, 3, 2, 2, 1, 3))]
        assert not isomorphic(_fibre_graph(labels, graphs[0]), _fibre_graph(labels, graphs[1]))
        assert isomorphic(_fibre_graph(labels, graphs[0]), _fibre_graph(labels, graphs[0][::-1]))


class TestSexticFigure:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_figure_isomorphic(self, p):
        K = BaseField(p)
        f = K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])
        tree = build_cluster_tree(f, K, mode="geometric")
        fib = assemble(tree)
        g = fibre_graph(fib)
        assert isomorphic(g, _expected_sextic_figure())

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
        f = K.poly([-(K.theta * K.elem(3)), K.zero, K.one])  # x^2 - 3*theta
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
        assert isomorphic(g, og)

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
            assert isomorphic(fibre_graph(fib), oracle_fibre_graph(roots, p))
            done += 1


class TestDeepPair:
    """Two roots at distance 11^1000 among five rational roots at p = 11: the
    connector between the pair's cluster and the root cluster is a chain of
    about a thousand lines, as many as Python's default recursion limit."""

    ROOTS = [11, 11 + 11 ** 1000, 22, 33, 44]
    EXPR = "(x-11)*(x-11-11^1000)*(x-22)*(x-33)*(x-44)"

    @pytest.mark.parametrize("mode", ["exact", "geometric"])
    def test_fibre_exits_0(self, mode, capsys):
        from clusterfibre.cli import run
        code = run(["fibre", self.EXPR, "--prime", "11", "--residue-mode", mode,
                    "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        chains = json.loads(out)["fibre"]["chains"]
        assert max(len(ch["mults"]) for ch in chains) > 900

    def test_against_the_degree1_oracle(self):
        K = BaseField(11)
        f = K.poly([1])
        for a in self.ROOTS:
            f = f * K.poly([-a, 1])
        tree = build_cluster_tree(f, K)
        assert tree_signature(tree.root) == oracle_signature(rational_cluster_tree(self.ROOTS, 11))
        fib = assemble(build_cluster_tree(f, K, mode="geometric"))
        assert isomorphic(fibre_graph(fib), oracle_fibre_graph(self.ROOTS, 11))


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

    def test_perturbed_genus_breaks_the_adjunction_count(self):
        K = BaseField(5)
        tree = build_cluster_tree(K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5]), K,
                                  mode="geometric")
        fib = assemble(tree)
        check_genus_identity(fib)
        next(iter(fib.components.values())).genus += 1
        with pytest.raises(InternalInconsistency, match="adjunction count"):
            check_genus_identity(fib)

    def test_perturbed_residue_degree_breaks_the_copy_law(self):
        # the cluster of (x^2+1)^2 - 3^5 at p = 3 over x^2 + 1 has f_v = 2
        # under the root's 1; a root of f_v = 3 cannot take its two copies
        K = BaseField(3)
        f = K.poly([1, 0, 1]) ** 2 - K.poly([3 ** 5])
        tree = build_cluster_tree(f, K, mode="exact")
        records = all_records(tree)
        assert records[tree.root.id].f_v == 1
        assert [r.f_v for r in records.values() if r is not records[tree.root.id]] == [2]
        records[tree.root.id].f_v = 3
        with pytest.raises(InternalInconsistency, match="not a multiple of its target's f_v"):
            assemble(tree, records)

    def test_perturbed_parity_breaks_the_ubereven_law(self):
        # the root of 2*((x^2+1)^2 - 3^5) at p = 3 is ubereven and not split
        # over F_3: it is still two lines over k-bar and needs even parity
        K = BaseField(3)
        f = (K.poly([1, 0, 1]) ** 2 - K.poly([3 ** 5])) * K.poly([2])
        tree = build_cluster_tree(f, K, mode="exact")
        records = all_records(tree)
        root = records[tree.root.id]
        assert root.ubereven and not assemble(tree, records).components[tree.root.id].split
        root.gamma = 2
        with pytest.raises(InternalInconsistency, match="ubereven component with odd chain parity"):
            assemble(tree, records)

    def test_randomized(self):
        # assemble() itself raises if the adjunction count fails, in either
        # residue mode; run a spread of shapes through it
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
        # each component's data is intrinsic: equal graphs, not only isomorphic
        g, h = fibre_graph(base), fibre_graph(shifted)
        assert (g.labels, g.edges) == (h.labels, h.edges)


# str with quotes, backslashes, control characters and non-ASCII (BMP and
# astral); ints far past 64 bits either way
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                               st.characters()))
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _JSON_TEXT,
                         st.integers(-2 ** 200, 2 ** 200))
_JSON_PAYLOAD = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(_JSON_TEXT, inner, max_size=5)),
    max_leaves=40)


class TestJsonText:
    """The one JSON writer of the exports against json.dumps."""

    @given(_JSON_PAYLOAD)
    @example({"b": [1, [], {}], "a": {"y": None, "x": [True, False, None]}, "": "\u00e9"})
    @settings(max_examples=100, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)

    def test_int_subclass_prints_as_int(self):
        payload = {"e": [enum.IntEnum("E", "A B")(2), True]}
        assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)

    @pytest.mark.parametrize("bad", [1.5, (1, 2), {1: 2}, {"a": [F(1, 2)]}, b"x", {1, 2}])
    def test_other_types_raise(self, bad):
        with pytest.raises(TypeError):
            json_text(bad)

    def test_exports_use_it(self):
        K = BaseField(5)
        tree = build_cluster_tree(K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5]), K)
        out = export(assemble(tree), "json")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=1).encode()

    @pytest.mark.parametrize("command", ["picture", "invariants"])
    def test_picture_and_invariants_use_it(self, command, capsys):
        for p, expr in cli._CORPUS:
            assert cli.run([command, expr, "--prime", str(p), "--format", "json"]) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n", expr

    def test_one_key_set_at_two_depths(self):
        # the cached prefixes of a key set carry the indent of their depth
        for payload in ({"a": {"a": 1}}, [{"a": {"a": {"a": []}}}, {"a": 2}],
                        {"b": [{"a": 1, "b": {"a": 1, "b": None}}], "a": {"a": 1, "b": 2}}):
            assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)

    def test_one_key_slot_with_every_scalar_class(self):
        member = enum.IntEnum("E", "A B")(2)
        for order in ([True, 1, member, None], [None, member, 1, True]):
            payload = {"rows": [{"k": v, "j": [v]} for v in order] + [{"j": [], "k": False}]}
            assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)

    @pytest.mark.parametrize("depth", range(5))
    def test_empty_containers_at_each_depth(self, depth):
        for empty in ({}, []):
            payload = empty
            for k in range(depth):
                payload = {"x": payload, "y": [payload, 0]} if k % 2 else [payload, {"z": payload}]
            assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)

    def test_known_key_set_with_new_value_types(self):
        for payload in ({"a": 1, "b": "x"}, {"a": [1, "y"], "b": {"c": None}},
                        {"b": True, "a": {"a": "z"}}, {"a": None, "b": []}):
            assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            json_text({"a": 1.5, "b": "x"})

    def test_no_indented_json_dumps_in_the_package(self):
        # json.dumps with an indent runs CPython's pure-Python encoder: the
        # package writes indented JSON through json_text only
        found = []
        for path in sorted(Path(clusterfibre.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
                      and any(k.arg == "indent" for k in node.keywords)]
        assert found == []


def _qstr_by_fraction(x) -> str:
    """qstr as it read through a Fraction copy of x."""
    if x is OO:
        return "inf"
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _sequence_by_fractions(A, B):
    """The minimal unimodular sequence by the Hirzebruch-Jung loop on Fractions."""
    seq = [A]
    n, d = A.numerator, A.denominator
    while (det := n * B.denominator - B.numerator * d) != 1:
        least = -(-B.denominator // det)
        e = least + (pow(n, -1, d) - least) % d
        n, d = (n * e - 1) // d, e
        seq.append(F(n, d))
    return seq + [B]


_BIG = st.integers(-2 ** 100, 2 ** 100)
# small denominators keep chains short: the loop takes up to den steps
_RATIONAL = st.builds(F, st.one_of(st.integers(-200, 200), _BIG), st.integers(1, 60))


class TestIntegerPaths:
    """Chains and display strings on (numerator, denominator) pairs and ints
    against the same computation on Fractions."""

    @given(st.one_of(st.integers(), _BIG, _RATIONAL, st.builds(F, _BIG, _BIG.filter(bool)),
                     st.sampled_from([OO, F(0), F(-7, 3), F(-1), F(2 ** 64 + 1, 3), -2 ** 64])))
    @settings(max_examples=300, deadline=None)
    def test_qstr(self, x):
        assert qstr(x) == _qstr_by_fraction(x)

    @given(st.integers(1, 12), _RATIONAL, st.builds(F, st.integers(1, 300), st.integers(1, 60)))
    @settings(max_examples=300, deadline=None)
    def test_chain_matches_fractions(self, alpha, a, gap):
        b = a - gap
        ch = ChainSpec(alpha, nd(a), nd(b))
        fr = _sequence_by_fractions(alpha * a, alpha * b)
        assert ch.sequence == [nd(x) for x in fr]
        assert ch.dens == [x.denominator for x in fr[1:-1]]
        assert ch.mults == [alpha * x.denominator for x in fr[1:-1]]
        assert (ch.a_nd, ch.b_nd) == ((a.numerator, a.denominator), (b.numerator, b.denominator))

    @given(st.integers(1, 12), st.one_of(_RATIONAL, st.integers(-50, 50)))
    @settings(max_examples=300, deadline=None)
    def test_open_chain_bound(self, alpha, a):
        aa = F(alpha) * F(a)
        want = F((aa - 1).numerator // (aa - 1).denominator, alpha)
        got = open_chain_bound(alpha, nd(a))
        assert type(got) is tuple and got == nd(want)
        assert open_chain(alpha, a).mults == ChainSpec(alpha, nd(a), nd(want)).mults
