"""Cluster-tree discovery against worked examples and the degree-1 oracle."""

import random
import time
from fractions import Fraction as F

import pytest

from clusterfibre.errors import InputError
from clusterfibre.field import BaseField
from clusterfibre.rationals import OO
from clusterfibre.clusters import (normalize_input, build_cluster_tree,
                                   cluster_chain, p0_flag)
from clusterfibre.degree1 import rational_cluster_tree, oracle_signature, tree_signature
from clusterfibre.newton import residue_tower
from clusterfibre import cli


def _sextic_tree(p, mode="exact"):
    K = BaseField(p)
    f = K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])
    return K, build_cluster_tree(f, K, mode=mode)


def _linear_product(K, roots):
    f = K.poly([1])
    for a in roots:
        f = f * K.poly([-a, 1])
    return f


def _assert_all_roots_positive(g):
    from clusterfibre.valuation import MacLaneVal
    from clusterfibre.newton import newton_polygon
    N = newton_polygon(MacLaneVal.gauss(g.field), g.field.x(), g)
    assert all(s < 0 for s in N.slopes())


class TestNormalize:
    def test_untouched(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        g, c, _ = normalize_input(f)
        assert c == 0 and g == f

    def test_negative_valuation_roots(self):
        K = BaseField(5)
        f = K.poly([F(-1, 5), 0, 1])  # roots of valuation -1/2
        g, c, _ = normalize_input(f)
        assert c == 1
        _assert_all_roots_positive(g)

    def test_zero_valuation_roots(self):
        K = BaseField(5)
        f = K.poly([0, -1, 1])  # x(x-1)
        g, c, _ = normalize_input(f)
        assert c == 1
        _assert_all_roots_positive(g)

    def test_not_separable(self):
        K = BaseField(5)
        with pytest.raises(InputError, match="polynomial has repeated roots"):
            normalize_input(K.poly([-5, 0, 1]) ** 2)


class TestSexticTree:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_two_proper_clusters(self, p):
        K, tree = _sextic_tree(p)
        assert len(tree.nodes) == 2
        root = tree.root
        assert (root.degree, root.radius, root.size) == (1, F(1, 2), 6)
        child = root.children[0]
        assert (child.degree, child.radius, child.size) == (2, F(5, 3), 6)
        assert len(child.leaves) == 1
        assert child.leaves[0].degree == 6
        assert root.leaves == []

    def test_chains(self):
        K, tree = _sextic_tree(5)
        root, child = tree.root, tree.root.children[0]
        cc = cluster_chain(child)
        assert cc.depth == 2
        assert [s.lam for s in cc.steps] == [F(1, 2), F(5, 3)]
        assert cc.steps[1].phi == K.poly([-5, 0, 1])
        assert cluster_chain(root).depth == 1

    def test_p0_flags(self):
        K, tree = _sextic_tree(5)
        root, child = tree.root, tree.root.children[0]
        assert p0_flag(root) == 2  # min orbit degree 6 != 1
        assert p0_flag(child) == 2  # min orbit degree 6 != 2

    def test_geometric_mode_same_shape(self):
        K, tree = _sextic_tree(5, mode="geometric")
        assert tree.field.m == 1  # residual factors already linear
        assert len(tree.nodes) == 2

    def test_tree_order_matches_valuation_order(self):
        # v <= w in the discoid order when w sends v's centre to at least
        # v's radius
        K, tree = _sextic_tree(5)
        for node in tree.nodes:
            for child in node.children:
                v, w = cluster_chain(node), cluster_chain(child)
                assert w.eval(v.centre) >= v.radius
                assert not v.eval(w.centre) >= w.radius


class TestSmallShapes:
    def test_irreducible_quadratic(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1])
        tree = build_cluster_tree(f, K)
        assert len(tree.nodes) == 1
        node = tree.root
        assert (node.degree, node.radius, node.size) == (1, F(1, 2), 2)
        assert node.leaves[0].degree == 2
        assert p0_flag(node) == 2

    def test_two_rational_roots(self):
        K = BaseField(5)
        f = _linear_product(K, [5, 5 + 25])
        tree = build_cluster_tree(f, K)
        assert len(tree.nodes) == 1
        node = tree.root
        assert (node.degree, node.radius, node.size) == (1, F(2), 2)
        assert sorted(l.degree for l in node.leaves) == [1, 1]
        assert p0_flag(node) == 1
        # centre is the minimal polynomial of one of the two roots
        assert node.centre in (K.poly([-5, 1]), K.poly([-30, 1]))
        assert node.i0_v == 1

    def test_collapse_rule(self):
        # both roots congruent mod p^3: the radius-1 candidate is not a cluster
        K = BaseField(5)
        f = _linear_product(K, [5 + 25, 5 + 25 + 125])
        tree = build_cluster_tree(f, K)
        assert len(tree.nodes) == 1
        assert tree.root.radius == F(3)
        assert tree.root.size == 2

    def test_nested_degree_one(self):
        K = BaseField(5)
        f = _linear_product(K, [5, 5 + 25, -5, -5 + 25 * 2])
        tree = build_cluster_tree(f, K)
        root = tree.root
        assert (root.degree, root.radius, root.size) == (1, F(1), 4)
        assert not root.is_degree_minimal
        assert len(root.children) == 2
        assert {c.size for c in root.children} == {2}
        assert all(c.radius == F(2) for c in root.children)
        # non-degree-minimal root inherits a child's centre, and that child's
        # chain stays one step long (radius bump, not a longer chain)
        assert any(root.centre == c.centre for c in root.children)
        shared = next(c for c in root.children if c.centre == root.centre)
        other = next(c for c in root.children if c.centre != root.centre)
        assert cluster_chain(shared).depth == 1
        assert cluster_chain(other).depth == 2

    def test_mixed_cluster_with_quadratic_orbit(self):
        # roots 5, 5+125 and the orbit of sqrt(5): radius-1/2 top cluster
        K = BaseField(5)
        f = _linear_product(K, [5, 5 + 125]) * K.poly([-5, 0, 1])
        tree = build_cluster_tree(f, K)
        root = tree.root
        assert (root.degree, root.size) == (1, 4)
        assert root.radius == F(1, 2)
        assert len(root.children) == 1
        assert len(root.leaves) == 1 and root.leaves[0].degree == 2
        inner = root.children[0]
        assert (inner.degree, inner.radius, inner.size) == (1, F(3), 2)

    def test_single_leaf_no_proper(self):
        K = BaseField(5)
        f = K.poly([-5, 1])
        tree = build_cluster_tree(f, K)
        assert tree.root is None
        assert tree.orphan_leaf is not None and tree.orphan_leaf.degree == 1

    def test_deep_path_tree(self):
        # strictly nested degree-1 clusters of sizes 4 > 3 > 2
        K = BaseField(3)
        f = _linear_product(K, [3, 3 + 9, 3 + 9 + 27, 12345 * 3 + 3 ** 2 * 0 + 6])
        tree = build_cluster_tree(f, K)
        sizes = sorted(n.size for n in tree.nodes)
        assert sizes[-1] == 4


class TestWorkedCubic:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cubic_tree(self, p):
        K = BaseField(p)
        phi = K.poly([-2 * p, 0, 0, 1])
        f = phi * phi - K.poly([0, 0, p]) * phi
        tree = build_cluster_tree(f, K)
        root = tree.root
        assert (root.degree, root.radius, root.size) == (1, F(1, 3), 6)
        assert len(root.children) == 1
        inner = root.children[0]
        assert (inner.degree, inner.size) == (3, 6)
        assert inner.radius == F(5, 3)


class TestDegreeOneOracle:
    @pytest.mark.parametrize("p", [3, 5])
    def test_randomized_against_oracle(self, p):
        rng = random.Random(1000 + p)
        K = BaseField(p)
        for _ in range(30):
            n = rng.randrange(2, 9)
            roots = set()
            while len(roots) < n:
                roots.add(p * rng.randrange(1, p ** 3))
            roots = sorted(roots)
            f = _linear_product(K, roots)
            tree = build_cluster_tree(f, K)
            oracle = rational_cluster_tree(roots, p)
            assert tree_signature(tree.root) == oracle_signature(oracle)

    def test_oracle_example(self):
        oracle = rational_cluster_tree([5, 30, 55], 5)
        # all pairwise valuations: v(25)=2, v(50)=2, v(25)=2 -> one cluster
        assert oracle.size == 3 and oracle.radius == 2


class TestGeometricMode:
    def test_extension_triggered(self):
        # (x^2+1)-orbit pair at radius 1: residual factor X^2+1 over F_3
        K = BaseField(3)
        f = K.poly([1, 0, 1]) ** 2 - K.poly([3 ** 5])
        exact = build_cluster_tree(f, K, mode="exact")
        geo = build_cluster_tree(f, K, mode="geometric")
        assert geo.field.m > 1
        assert len(geo.nodes) >= len(exact.nodes)

    def test_one_discriminant_per_build(self, monkeypatch):
        # the build restarts twice (m = 1 -> 3 -> 15); v(disc) is the same
        # over every unramified extension, so it is computed once
        from clusterfibre import clusters
        calls = []
        real = clusters.discriminant_val
        monkeypatch.setattr(clusters, "discriminant_val", lambda f: calls.append(f) or real(f))
        K = BaseField(5)
        f = K.poly([-3, -68, -100, -80, 7, 27, -10, 33, 2])
        tree = build_cluster_tree(f, K, mode="geometric")
        assert tree.field.m == 15
        assert len(calls) == 1

    @pytest.mark.parametrize("p, expr, extensions", [
        (5, "2*x^8+33*x^7-10*x^6+27*x^5+7*x^4-80*x^3-100*x^2-68*x-3", [(1, 3), (3, 5)]),
        (3, "((x^2+1)^2-3^5)*(x^3-x+1)", [(1, 2), (2, 3)]),
    ], ids=["slow-case", "squared-quadratic"])
    def test_a_restarting_build_stops_at_its_first_nonlinear_factor(
            self, monkeypatch, p, expr, extensions):
        # the slow case extends the residue degree 1 -> 3 -> 15, the second
        # input 1 -> 2 -> 6; a build that restarts makes no ff_factor call
        # after the one that met a nonlinear factor, whose degree is all the
        # restart reads (built in full, the second input's first two builds
        # would factor the residual polynomials of the square's children)
        from clusterfibre import clusters
        builds, seen = [[]], []
        real_factor, real_extend = clusters.ff_factor, clusters.extend_unramified

        def factor(g, rng):
            out = real_factor(g, rng)
            builds[-1].append(next((h.degree for h, _ in out if h.degree > 1), 1))
            return out

        def extend(K, t):
            seen.append((K.m, t))
            builds.append([])
            return real_extend(K, t)

        monkeypatch.setattr(clusters, "ff_factor", factor)
        monkeypatch.setattr(clusters, "extend_unramified", extend)
        K = BaseField(p)
        tree = build_cluster_tree(cli.parse_poly(expr, K), K, mode="geometric")
        assert seen == extensions
        assert tree.field.m == extensions[-1][0] * extensions[-1][1]
        for degrees, (_, t) in zip(builds, extensions):
            assert degrees[-1] == t and set(degrees[:-1]) <= {1}
        assert set(builds[-1]) == {1}

    def test_budget(self):
        # x^67+x^2+2 is irreducible mod 3: geometric mode would need a
        # degree-67 unramified extension, past the cap, and refuses at once
        K = BaseField(3)
        f = K.poly([2, 0, 1] + [0] * 64 + [1])
        start = time.perf_counter()
        with pytest.raises(InputError, match="geometric mode needs residue degree 67 > budget 64"):
            build_cluster_tree(f, K, mode="geometric")
        assert time.perf_counter() - start < 1


class TestSharedChains:
    """Down the cluster tree every chain augments its parent's chain (or that
    chain's prefix, on a shared centre), and every residue tower extends the
    tower of its chain's prefix: the same objects, not equal copies."""

    @pytest.mark.parametrize("mode", ["exact", "geometric"])
    @pytest.mark.parametrize("p, expr", cli._CORPUS + [
        # in exact mode a degree-4 cluster below a degree-2 one: its tower
        # F_3, F_3, F_9, F_9 has a proper extension below the top
        (3, "((x^2+9)^2-3^7)*((x^2+9)^2-3^7-3^9)")])
    def test_corpus_trees_share(self, p, expr, mode):
        K = BaseField(p)
        tree = build_cluster_tree(cli.parse_poly(expr, K), K, mode=mode)
        for node in tree.nodes:
            chain = cluster_chain(node)
            if node.parent is not None:
                above = cluster_chain(node.parent)
                assert chain.prefix is above or chain.prefix is above.prefix
            low, top = residue_tower(chain.prefix).fields, residue_tower(chain).fields
            assert len(top) == len(low) + 1
            assert all(a is b for a, b in zip(low, top))
