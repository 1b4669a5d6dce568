"""Acceptance gate: one test per criterion, printing a PASS line each.

Every tolerance is exact; the only numeric bounds are the stated runtime
budgets.  Criterion 7 records that whole-model reconstruction (regularity,
properness, the scheme itself) is out of scope by design.
"""

import random
import time
from fractions import Fraction as F

from clusterfibre.field import BaseField
from clusterfibre.valuation import MacLaneVal
from clusterfibre.newton import reduce_poly
from clusterfibre.clusters import build_cluster_tree
from clusterfibre.invariants import all_records
from clusterfibre.fibre import assemble, fibre_graph, FibreGraph
from clusterfibre.degree1 import rational_cluster_tree, oracle_signature
from clusterfibre.cli import run

from graphs import isomorphic, tree_signature


def _announce(capsys, num, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: PASS - {text}")


def _sextic(K, p):
    return K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])


def test_criterion_1_cluster_picture(capsys):
    for p in (3, 5, 7, 11):
        t0 = time.monotonic()
        K = BaseField(p)
        tree = build_cluster_tree(_sextic(K, p), K)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"p={p} took {elapsed:.2f}s"
        assert len(tree.nodes) == 2
        root = tree.root
        child = root.children[0]
        assert (root.degree, root.radius, root.size) == (1, F(1, 2), 6)
        assert (child.degree, child.radius, child.size) == (2, F(5, 3), 6)
        assert len(root.leaves) == 0 and len(child.leaves) == 1
        assert child.leaves[0].degree == 6
    _announce(capsys, 1, "two nested proper clusters and a degree-6 orbit, "
                 "p in {3,5,7,11}, under 1s each")


def test_criterion_2_invariant_table(capsys):
    for p in (3, 5, 7, 11):
        K = BaseField(p)
        tree = build_cluster_tree(_sextic(K, p), K)
        recs = all_records(tree)
        r1 = recs[tree.root.id]
        r2 = recs[tree.root.children[0].id]
        got1 = (r1.b, r1.e, r1.n, r1.m, r1.i_v, r1.p, r1.gamma, r1.delta,
                r1.p0, r1.gamma0, r1.genus)
        got2 = (r2.b, r2.e, r2.n, r2.m, r2.i_v, r2.p, r2.gamma, r2.delta,
                r2.p0, r2.gamma0, r2.genus)
        assert got1 == (2, 2, 2, 2, 6, 2, 1, 1, 2, 2, 0), got1
        assert got2 == (3, 6, 2, 6, 3, 1, 1, 1, 2, 1, 0), got2
        for r in (r1, r2):
            assert r.s == F(r.i_v * r.lam + r.p * r.lam - r.nu, 2)
            # both normalizations present
            assert r.nu_intro == r.degree * r.nu
            assert r.s_intro == F(r.i_v * r.lam + r.p * r.lam - r.nu_intro, 2)
            assert r.s0_intro == -r.nu_intro / 2 + r.lam
    _announce(capsys, 2, "invariant table rows match on all normalization-independent "
                 "columns; s-identity exact; both normalizations reported")


def _expected_figure():
    g = FibreGraph()
    g1 = g.add_node(2, 0)
    g2 = g.add_node(6, 0)
    c = g.add_node(4, 0)
    g.add_edge(g2, c)
    g.add_edge(c, g1)
    for _ in range(2):
        a = g.add_node(4, 0)
        b = g.add_node(2, 0)
        g.add_edge(g2, a)
        g.add_edge(a, b)
    for _ in range(2):
        t = g.add_node(1, 0)
        g.add_edge(g1, t)
    return g


def test_criterion_3_figure(capsys):
    t0 = time.monotonic()
    K = BaseField(5)
    tree = build_cluster_tree(_sextic(K, 5), K, mode="geometric")
    fib = assemble(tree)
    g = fibre_graph(fib)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    assert isomorphic(g, _expected_figure())
    _announce(capsys, 3, "geometric fibre graph isomorphic to the expected figure "
                 "(mult 2 and 6 components, connector [4], tails [4,2] and [1])")


def test_criterion_4_reduction(capsys):
    for p in (3, 5, 7):
        K = BaseField(p)
        v = MacLaneVal.gauss(K).augment_unchecked(K.x(), F(1, 3))
        phi = K.poly([-2 * p, 0, 0, 1])
        v = v.augment_unchecked(phi, F(5, 3))
        f = phi * phi - K.poly([0, 0, p]) * phi
        red = reduce_poly(v, f)
        k = red.poly.field
        expected = (-k.elem(pow(2, -1, p)), k.one)
        assert red.poly.coeffs == expected, f"p={p}"
    _announce(capsys, 4, "reduction of the worked cubic is X - 1/2 exactly, p in {3,5,7}")


def test_criterion_5_degree1_oracle(capsys):
    t0 = time.monotonic()
    count = 0
    for p in (3, 5):
        rng = random.Random(90 + p)
        K = BaseField(p)
        for _ in range(50):
            n = rng.randrange(2, 9)
            roots = set()
            while len(roots) < n:
                roots.add(p * rng.randrange(1, p ** 4))
            roots = sorted(roots)
            f = K.poly([1])
            for a in roots:
                f = f * K.poly([-a, 1])
            tree = build_cluster_tree(f, K)
            assert all(node.degree == 1 for node in tree.nodes)
            oracle = rational_cluster_tree(roots, p)
            assert tree_signature(tree.root) == oracle_signature(oracle)
            count += 1
    elapsed = time.monotonic() - t0
    assert count == 100
    assert elapsed < 30.0, f"degree-1 suite took {elapsed:.1f}s"
    _announce(capsys, 5, f"100 random degree-1 trees equal the pairwise-valuation "
                 f"oracle with radii and sizes ({elapsed:.1f}s)")


def test_criterion_6_property_suites(capsys):
    code = run(["selfcheck", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    _announce(capsys, 6, "selfcheck property suites green on the corpus "
                 "(nu identity, size laws, child multiplicities, genus "
                 "cross-check, farey properties, reduction laws, ell-invariance)")


def test_criterion_7_out_of_scope_note(capsys):
    with capsys.disabled():
        print("ACCEPTANCE 7: SKIP - scheme-level model construction (regularity, "
              "properness) is out of scope by design; criteria 1-6 are the surface")
