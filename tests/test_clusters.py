"""Cluster-tree discovery against worked examples and the degree-1 oracle."""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clusterfibre.errors import InputError, InternalInconsistency
from clusterfibre.field import BaseField, KPoly, discriminant_val
from clusterfibre.clusters import (normalize_input, build_cluster_tree,
                                   cluster_chain, p0_flag, _depth_bound)
from clusterfibre.degree1 import rational_cluster_tree, oracle_signature
from clusterfibre.newton import residue_tower
from clusterfibre import cli, field

from graphs import tree_signature


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
    assert all(e.lam > 0 for e in newton_polygon(MacLaneVal.gauss(g.field), g.field.x(), g))


def _gauss_polygon_shift(f):
    """The rescaling exponent c of normalize_input by the Newton polygon of f
    over the Gauss valuation: the least root valuation is the least radius
    of an edge, and c is the least integer making it positive."""
    from clusterfibre.valuation import MacLaneVal
    from clusterfibre.newton import newton_polygon
    from clusterfibre.rationals import OO
    K = f.field
    edges = newton_polygon(MacLaneVal.gauss(K), K.x(), f)
    least = min((e.lam for e in edges), default=OO)
    if least is OO or least > 0:
        return 0
    return math.floor(-least) + 1


def _fraction_shift(f):
    """The rescaling exponent c of normalize_input by the Fraction formula it
    replaced: the least root valuation min (v(a_i) - v(a_n)) / (n - i) over
    the nonzero a_i, i < n, and the least integer c >= 0 making it positive."""
    from clusterfibre.rationals import OO
    *low, top = [a.gauss_val() for a in f.coeffs]
    n = len(low)
    least = min((F(u - top, n - i) for i, u in enumerate(low) if u is not OO), default=OO)
    return 0 if least is OO or least > 0 else -least // 1 + 1


# a coefficient as (valuation, unit), or None for a zero coefficient
_VALUED = st.tuples(st.integers(-4, 6), st.sampled_from([1, -1, 2, F(1, 2), F(-1, 2)]))


class TestNormalize:
    @given(p=st.sampled_from([3, 5, 7]), low=st.lists(st.one_of(st.none(), _VALUED),
                                                      min_size=1, max_size=7),
           top=_VALUED)
    @example(p=5, low=[(1, 1), (2, -1), (3, 2)], top=(0, 1))  # all valuations positive
    @example(p=3, low=[(0, 1), None, (5, 1)], top=(0, 1))  # least root valuation 0
    @example(p=5, low=[(-2, 1), (0, F(1, 2))], top=(1, -1))
    @example(p=5, low=[None], top=(2, 1))  # f = a x
    @settings(max_examples=150, deadline=None)
    def test_integer_shift_against_the_fraction_formula(self, p, low, top):
        K = BaseField(p)
        f = K.poly([0 if c is None else c[1] * F(p) ** c[0] for c in low + [top]])
        assert [a.gauss_val() for a in f.coeffs][-1] == top[0]
        try:
            g, c = normalize_input(f)
        except InputError:
            assume(False)  # repeated roots
        assert c == _fraction_shift(f)
        assert g == (f.subst_scaled_x(-c) if c else f)

    def test_a_power_of_x_has_repeated_roots(self):
        # f = a x^n has no finite root valuation; for n >= 2 its root 0 repeats
        K = BaseField(5)
        for n in (2, 3, 4):
            with pytest.raises(InputError, match="polynomial has repeated roots"):
                normalize_input(K.poly([0] * n + [F(2, 25)]))

    def test_untouched(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])
        g, c = normalize_input(f)
        assert c == 0 and g == f

    def test_negative_valuation_roots(self):
        K = BaseField(5)
        f = K.poly([F(-1, 5), 0, 1])  # roots of valuation -1/2
        g, c = normalize_input(f)
        assert c == 1
        _assert_all_roots_positive(g)

    def test_zero_valuation_roots(self):
        K = BaseField(5)
        f = K.poly([0, -1, 1])  # x(x-1)
        g, c = normalize_input(f)
        assert c == 1
        _assert_all_roots_positive(g)

    def test_not_separable(self):
        K = BaseField(5)
        with pytest.raises(InputError, match="polynomial has repeated roots"):
            normalize_input(K.poly([-5, 0, 1]) ** 2)

    @pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (3, 2), (7, 2)])
    def test_against_the_gauss_polygon(self, p, m):
        # the least root valuation read off the coefficients against the
        # radii of the Gauss-valuation Newton polygon, on seeded f with zero
        # and rational coefficients whose valuations are spread over -3..4
        rng = random.Random(100 * p + m)
        K = BaseField(p, m)

        def coeff():
            if rng.random() < 0.3:
                return K.zero
            coords = [F(rng.randint(-20, 20), rng.choice([1, 2, p, p ** 2, 3 * p]))
                      for _ in range(m)]
            return K.elem(*coords) * K.elem(F(p) ** rng.randint(-2, 3))

        checked = 0
        while checked < 60:
            n = rng.randint(1, 9)
            f = KPoly(K, [coeff() for _ in range(n)] + [K.elem(rng.choice([1, 2, p, F(1, p)]))])
            try:
                g, c = normalize_input(f)
            except InputError:
                continue  # repeated roots
            assert c == _gauss_polygon_shift(f)
            assert g == (f.subst_scaled_x(-c) if c else f)
            checked += 1

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_multiple_of_x(self, m):
        # f = a x has no edge: its one root 0 has valuation OO, and x stays
        K = BaseField(5, m)
        for a in (K.one, K.elem(F(2, 25)), K.theta if m > 1 else K.elem(125)):
            f = KPoly(K, [K.zero, a])
            assert normalize_input(f) == (f, 0)
            assert _gauss_polygon_shift(f) == 0

    @pytest.mark.parametrize("p, coeffs", [
        (3, "seeded 16"), (3, "seeded 48"), (5, "seeded 24"),
        (3, [1, 0, -1, 9]), (5, [F(1, 5), 2, 0, 25]), (3, [-1, F(1, 7), 0, 0, 6]),
    ])
    def test_discriminant_taken_before_rescaling(self, p, coeffs):
        # the exact depth bound takes v(disc) on the input and shifts it by
        # disc(f(lam x)) = lam^(n(n-1)) disc(f): it must be the bound read
        # from the rescaled discriminant, here on monic inputs and on inputs
        # with p | lc
        if isinstance(coeffs, str):
            n = int(coeffs.split()[1])
            rng = random.Random(n)
            coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        K = BaseField(p)
        f = K.poly(coeffs)
        g, c = normalize_input(f)
        n = g.degree
        assert c >= 1
        D = discriminant_val(g) - (2 * n - 2) * g.lead().gauss_val()
        assert _depth_bound(f, g, c) == 2 * D + n + 4


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
        assert node.reduction.i0 == 1

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
        assert tree.root is None and tree.nodes == []

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


def _vp(x, p):
    x, v = F(x), 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


class TestDepthGuard:
    """Refinement deeper than n + 4 is checked against the exact bound
    2 D + n + 4, with D = v(disc) - (2n - 2) v(lc) of the rescaled f, the
    sum of v(r - r') over ordered pairs of distinct roots; D is computed
    the first time a build goes that deep."""

    @staticmethod
    def _deep_pair(e):
        # roots of valuation 0, so x is rescaled by 11 and the lead becomes
        # 11^-10, which makes v(disc) of the rescaled f negative; the pair at
        # distance 11^e needs about e relifts
        roots = [F(1, 2), F(1, 2) + 11 ** e] + [F(j) for j in (2, 3, 4, 5, 7, 8, 9, 10)]
        K = BaseField(11)
        return K, roots, _linear_product(K, roots)

    @pytest.mark.parametrize("e", [20, 40])
    def test_deep_pair_among_unit_roots(self, e, monkeypatch):
        from clusterfibre import clusters
        K, roots, f = self._deep_pair(e)
        g, shift = normalize_input(f)
        scaled = [r * 11 ** shift for r in roots]
        assert shift == 1 and discriminant_val(g) < 0
        D = sum(_vp(r - s, 11) for r in scaled for s in scaled if r != s)
        assert discriminant_val(f) - shift * 90 - 18 * g.lead().gauss_val() == D
        assert _depth_bound(f, g, shift) == 2 * D + 14
        calls = []
        monkeypatch.setattr(clusters, "discriminant_val",
                            lambda h: calls.append(h) or discriminant_val(h))
        tree = build_cluster_tree(f, K)
        # the pair refines past n + 4 = 14, so the exact bound is computed once
        assert calls == [f]
        assert tree_signature(tree.root) == oracle_signature(rational_cluster_tree(scaled, 11))
        assert sorted((n.size, n.radius) for n in tree.nodes) == [(2, e + 1), (10, 1)]

    def test_guard_fires_below_the_depth_needed(self, monkeypatch):
        # with v(disc) replaced by the value of a chosen D, the guard raises
        # exactly when the deepest context lies past 2 D + n + 4: at D = 0,
        # where the bound is n + 4 = 14, and one short of the D it needs
        from clusterfibre import clusters
        K, roots, f = self._deep_pair(40)
        depths = []
        context = clusters._Builder._context

        def spy(builder, prefix, phi, bound, ell, parent, depth):
            depths.append(depth)
            return context(builder, prefix, phi, bound, ell, parent, depth)

        monkeypatch.setattr(clusters._Builder, "_context", spy)
        build_cluster_tree(f, K)
        g, shift = normalize_input(f)
        n, deepest = g.degree, max(depths)
        assert deepest > n + 4
        need = (deepest - n - 4 + 1) // 2  # least D with 2 D + n + 4 >= deepest
        for D in (0, need - 1, need):
            value = D + shift * n * (n - 1) + (2 * n - 2) * g.lead().gauss_val()
            monkeypatch.setattr(clusters, "discriminant_val", lambda h, v=value: v)
            if 2 * D + n + 4 < deepest:
                with pytest.raises(InternalInconsistency,
                                   match="refinement exceeded the discriminant depth bound"):
                    build_cluster_tree(f, K)
            else:
                build_cluster_tree(f, K)

    @pytest.mark.parametrize("mode", ["exact", "geometric"])
    def test_thousand_digit_pair_among_unit_roots(self, mode, capsys):
        # the pair needs about a thousand relifts, each one context deeper:
        # run as nested calls they overran the interpreter's stack and the
        # command exited 2 with a RecursionError
        roots = [F(1, 2), F(1, 2) + 11 ** 1000, F(2), F(3), F(4)]
        K = BaseField(11)
        f = _linear_product(K, roots)
        tree = build_cluster_tree(f, K, mode=mode)
        scaled = [r * 11 ** tree.shift for r in roots]
        assert tree_signature(tree.root) == oracle_signature(rational_cluster_tree(scaled, 11))
        assert sorted((n.size, n.radius) for n in tree.nodes) == [(2, 1001), (5, 1)]
        expr = "(x-1/2)*(x-1/2-11^1000)*(x-2)*(x-3)*(x-4)"
        assert cli.run(["picture", expr, "--prime", "11", "--residue-mode", mode]) == 0
        assert "radius=1001 size=2" in capsys.readouterr().out


class TestNodeOrder:
    """Discovery numbers the nodes in preorder: ``tree.nodes[i]`` has id i and
    every parent comes before its children."""

    @staticmethod
    def _preorder(root):
        out, stack = [], [root] if root is not None else []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    @pytest.mark.parametrize("mode", ["exact", "geometric"])
    @pytest.mark.parametrize("p, expr", cli._CORPUS + [
        # two children with a child each, where breadth first is not preorder
        (5, "(x-5)*(x-30)*(x-155)*(x-10)*(x-35)*(x-160)")])
    def test_nodes_in_preorder(self, p, expr, mode):
        K = BaseField(p)
        tree = build_cluster_tree(cli.parse_poly(expr, K), K, mode=mode)
        assert tree.nodes == self._preorder(tree.root)
        assert [n.id for n in tree.nodes] == list(range(len(tree.nodes)))
        assert all(n.parent.id < n.id for n in tree.nodes[1:])


class TestExactModeAtLargeM:
    def test_degree_32_base_is_fast(self):
        # at m = 32 the exact discriminant took 13.45 s of a 14.3 s build
        K = BaseField(3, 32)
        f = cli.parse_poly("((x^3+x+th)^2-3^7)*((x^2+th)^3-3^5)", K)
        start = time.perf_counter()
        tree = build_cluster_tree(f, K)
        assert time.perf_counter() - start < 2
        assert tree.root.size == 12


class TestSeparabilityFallback:
    """An f that no certificate prime certifies is decided by the exact
    discriminant, which then also serves the depth bound."""

    @staticmethod
    def _uncertified():
        # the pair 5/2, 5/2 + Q 5^12 with Q the product of the certificate
        # primes: every prime divides disc f, and the pair refines to depth
        # 11, past n + 4 = 9
        Q = math.prod(field._CERTIFICATE_PRIMES)
        roots = [F(5, 2), F(5, 2) + Q * 5 ** 12, F(10), F(15), F(20)]
        K = BaseField(5)
        return K, roots, _linear_product(K, roots)

    def test_uncertified_input_matches_the_oracle(self, monkeypatch):
        K, roots, f = self._uncertified()
        assert not f.is_separable()
        calls = []
        resultant = KPoly.resultant
        monkeypatch.setattr(KPoly, "resultant", lambda a, b: calls.append(a) or resultant(a, b))
        tree = build_cluster_tree(f, K)
        # one resultant serves the fallback and the depth bound
        assert calls == [f]
        assert tree_signature(tree.root) == oracle_signature(rational_cluster_tree(roots, 5))
        assert sorted((n.size, n.radius) for n in tree.nodes) == [(2, 12), (3, 2), (5, 1)]

    def test_uncertified_input_exits_0(self, capsys):
        Q = math.prod(field._CERTIFICATE_PRIMES)
        expr = f"(2*x-5)*(2*x-5-2*{Q}*5^12)*(x-10)*(x-15)*(x-20)"
        assert cli.run(["picture", expr, "--prime", "5", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted((c["size"], c["radius"]) for c in out["clusters"] if c["proper"]) == \
            [(2, "12"), (3, "2"), (5, "1")]

    def test_repeated_root_is_never_certified(self):
        K, roots, f = self._uncertified()
        g = f * K.poly([F(-5, 2), 1])
        assert not g.is_separable()
        with pytest.raises(InputError, match="polynomial has repeated roots"):
            normalize_input(g)


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
        # over every unramified extension, so it is computed at most once
        from clusterfibre import clusters
        calls = []
        real = clusters.discriminant_val
        monkeypatch.setattr(clusters, "discriminant_val", lambda f: calls.append(f) or real(f))
        K = BaseField(5)
        f = K.poly([-3, -68, -100, -80, 7, 27, -10, 33, 2])
        tree = build_cluster_tree(f, K, mode="geometric")
        assert tree.field.m == 15
        assert len(calls) <= 1

    @pytest.mark.parametrize("mode", ["exact", "geometric"])
    def test_one_exact_bound_across_restarts(self, monkeypatch, mode):
        # y^3 + a^2 y + a^3 with y = 2x - 5 and a = 2 * 5^20: the roots are
        # 5/2 + a * z/2 for the roots z of X^3 + X + 1, irreducible mod 5.
        # Every build refines past n + 4 = 7 towards 5/2; geometric mode then
        # restarts over GF(5^3), and the exact bound is computed once
        from clusterfibre import clusters
        calls, depths = [], {}
        real = clusters.discriminant_val
        monkeypatch.setattr(clusters, "discriminant_val", lambda f: calls.append(f) or real(f))
        context = clusters._Builder._context

        def spy(builder, prefix, phi, bound, ell, parent, depth):
            depths[builder.K.m] = max(depths.get(builder.K.m, 0), depth)
            return context(builder, prefix, phi, bound, ell, parent, depth)

        monkeypatch.setattr(clusters._Builder, "_context", spy)
        K = BaseField(5)
        f = cli.parse_poly("(2*x-5)^3+(2*x-5)*(2*5^20)^2+(2*5^20)^3", K)
        tree = build_cluster_tree(f, K, mode=mode)
        assert sorted(depths) == ([1] if mode == "exact" else [1, 3])
        assert all(d > 7 for d in depths.values())
        assert calls == [f]
        assert [(n.size, n.radius) for n in tree.nodes] == [(3, 20)]

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


class TestPrincipalPart:
    """Discovery reads only the principal part of each phi-Newton polygon,
    from the first ell + 1 expansion coefficients, and the chain stage only
    size / degree + 1 of them.  Against the whole expansion: the kept edges
    of every context are those of the full polygon and end at ell, and each
    node's reduction value is v(f) along its cluster chain."""

    @staticmethod
    def _check(f, K, mode, monkeypatch):
        from clusterfibre import clusters
        from clusterfibre.newton import newton_polygon
        contexts = []
        context = clusters._Builder._context

        def spy(builder, prefix, phi, bound, ell, parent, depth):
            # all of f at the root of each build, the principal part below
            assert (ell is None) == (depth == 0)
            contexts.append((builder.f, prefix, phi, bound, ell))
            return context(builder, prefix, phi, bound, ell, parent, depth)

        monkeypatch.setattr(clusters._Builder, "_context", spy)
        tree = build_cluster_tree(f, K, mode=mode)
        monkeypatch.setattr(clusters._Builder, "_context", context)

        def kept(g, prefix, phi, bound, upto=None):
            return [(e.lam, e.i0, e.i1) for e in newton_polygon(prefix, phi, g, upto)
                    if e.lam > bound]

        truncated = 0
        for g, prefix, phi, bound, ell in contexts:
            full = kept(g, prefix, phi, bound)
            if ell is not None:
                assert kept(g, prefix, phi, bound, ell + 1) == full
                assert full[-1][2] == ell
                truncated += 1
        for node in tree.nodes:
            assert node.reduction.alpha == cluster_chain(node).eval(tree.f)
        return truncated

    @staticmethod
    def _root_products():
        """Products of n distinct rational roots p r, 0 < r < p^4, for n
        = 8, 10, ..., 24 at p = 3 and 5, drawn from random.Random(48): deep
        trees of linear centres."""
        rng = random.Random(48)
        for p in (3, 5):
            K = BaseField(p)
            for n in range(8, 25, 2):
                roots = set()
                while len(roots) < n:
                    roots.add(p * rng.randrange(1, p ** 4))
                f = K.poly([1])
                for a in sorted(roots):
                    f = f * K.poly([-a, 1])
                yield K, f

    @staticmethod
    def _power_products(count):
        """Separable products of one or two g^k - p^e, g monic of degree 2
        or 3 with small coefficients, theta among them when m = 2, and k in
        {2, 3} not dividing e, drawn from random.Random(49): centres of
        degree above 1 and residue extensions in geometric mode."""
        rng = random.Random(49)
        out = []
        while len(out) < count:
            p, m = rng.choice((3, 5, 7)), rng.choice((1, 2))
            K = BaseField(p, m)
            f = K.one
            for _ in range(rng.choice((1, 2))):
                low = [K.elem(*[rng.randrange(-2, 3)] + [rng.randrange(-1, 2)] * (m - 1))
                       for _ in range(rng.choice((2, 3)))]
                k = rng.choice((2, 3))
                e = rng.choice([e for e in range(1, 8) if e % k])
                f = f * (K.poly(low + [K.one]) ** k - K.poly([K.elem(p ** e)]))
            if f.is_separable():
                out.append((K, f))
        return out

    @staticmethod
    def _seeded_products(m, count):
        """Separable products of one or two (x - c)^e - u p^s, c in p Z[theta]
        and u a unit, drawn from random.Random(m)."""
        rng = random.Random(m)
        out = []
        while len(out) < count:
            p = rng.choice((3, 5, 7))
            K = BaseField(p, m)
            f = K.one
            for _ in range(rng.choice((1, 2))):
                c = K.elem(*[p * rng.randrange(-8, 9) for _ in range(m)])
                u = K.elem(*[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m - 1)])
                e, s = rng.choice((2, 3, 4)), rng.randrange(1, 9)
                f = f * (K.poly([-c, K.one]) ** e - K.poly([u * K.elem(p ** s)]))
            if f.is_separable():
                out.append((K, f))
        return out

    def test_corpus_roots_and_powers(self, monkeypatch):
        inputs = [(BaseField(p), expr) for p, expr in cli._CORPUS]
        inputs = [(K, cli.parse_poly(expr, K)) for K, expr in inputs]
        inputs += list(self._root_products()) + self._power_products(30)
        truncated = sum(self._check(f, K, mode, monkeypatch) for K, f in inputs
                        for mode in ("exact", "geometric"))
        assert truncated > 500

    @pytest.mark.parametrize("m", [1, 2])
    def test_seeded_products(self, m, monkeypatch):
        truncated = sum(self._check(f, K, mode, monkeypatch)
                        for K, f in self._seeded_products(m, 150)
                        for mode in ("exact", "geometric"))
        assert truncated > 150
