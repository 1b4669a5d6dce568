"""Definition-style invariant records against the worked sextic and friends."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from clusterfibre import cli, invariants
from clusterfibre.field import BaseField
from clusterfibre.clusters import _verify_tree, build_cluster_tree
from clusterfibre.errors import InternalInconsistency
from clusterfibre.invariants import all_records, nu, genus_double_cover
from clusterfibre.ff import FFPoly, prime_field

from oracles.records import reference_record


def _sextic(p, mode="exact"):
    K = BaseField(p)
    f = K.poly([-p, 0, 1]) ** 3 - K.poly([p ** 5])
    tree = build_cluster_tree(f, K, mode=mode)
    recs = all_records(tree)
    root = tree.root
    child = root.children[0]
    return tree, recs[root.id], recs[child.id]


class TestSexticTable:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_row_v1(self, p):
        tree, r1, r2 = _sextic(p)
        assert (r1.b, r1.e, r1.n, r1.m, r1.i_v, r1.p, r1.gamma, r1.delta,
                r1.p0, r1.gamma0, r1.genus) == (2, 2, 2, 2, 6, 2, 1, 1, 2, 2, 0)
        assert r1.nu == 3
        assert r1.lam == F(1, 2)
        assert r1.s == F(1, 2)
        assert r1.s0 == -1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_row_v2(self, p):
        tree, r1, r2 = _sextic(p)
        assert (r2.b, r2.e, r2.n, r2.m, r2.i_v, r2.p, r2.gamma, r2.delta,
                r2.p0, r2.gamma0, r2.genus) == (3, 6, 2, 6, 3, 1, 1, 1, 2, 1, 0)
        assert r2.nu == 5
        assert r2.s == F(5, 6)
        assert r2.s0 == F(-5, 6)

    def test_intro_normalization_reported(self):
        tree, r1, r2 = _sextic(5)
        assert r2.nu_intro == 10
        assert r2.s_intro == F(-5, 3)
        assert r2.s0_intro == F(-10, 3)
        assert r1.nu_intro == 3  # degree 1: both normalizations agree

    def test_s_identity(self):
        tree, r1, r2 = _sextic(7)
        for r in (r1, r2):
            assert r.s == F(r.i_v * r.lam + r.p * r.lam - r.nu, 2)

    def test_u_values(self):
        tree, r1, r2 = _sextic(5)
        assert r1.u == 2 and r2.u == 1
        assert not r1.ubereven and not r2.ubereven

    def test_residual_constants(self):
        tree, r1, r2 = _sextic(5)
        # v2: f|_v linear monic -> leading constant 1, gbar = y - 1
        assert r2.gbar_exp == 1
        assert r2.gbar_const == r2.k_v.one
        # v1: f|_v = (X-1)^3 -> leading 1; constant term -1
        assert r1.gbar_exp == 2
        assert r1.gbar_const == r1.k_v.one
        assert r1.gbar0_const == -r1.k_v.one
        assert r1.gbar0_exp == 1
        assert r2.gbar0_exp == 2

    def test_fbar_ftilde(self):
        tree, r1, r2 = _sextic(5)
        # v1: (X-1)^3 / (X-1)^3 = 1; ftilde = x * (X-1)
        assert r1.fbar.degree == 0
        assert r1.ftilde.degree == 2
        assert r1.ftilde[0].is_zero()
        # v2: linear, no children with distinct centre
        assert r2.fbar.degree == 1
        assert r2.ftilde.degree == 1


def _leaf_meet_sum(tree, node):
    """v(lc f) plus, over every leaf orbit of the tree, its degree times
    radius / degree of the deepest cluster holding both the leaf and node."""
    def path(n):  # root first
        out = []
        while n is not None:
            out.append(n)
            n = n.parent
        return out[::-1]

    pv = path(node)
    total = tree.f.lead().gauss_val()
    for n in tree.nodes:  # the deepest proper cluster holding each leaf
        meet = [a for a, b in zip(pv, path(n)) if a is b][-1]
        for leaf in n.leaves:
            total += F(leaf.degree) * F(meet.radius) / meet.degree
    return total


def _nu_inputs():
    """(label, K, f, mode): the selfcheck corpus in both residue modes, and
    seeded products of rational roots at p = 3 and 5, some not monic."""
    out = [(f"{expr} {mode}", p, expr, mode)
           for p, expr in cli._CORPUS for mode in ("exact", "geometric")]
    for p in (3, 5):
        rng = random.Random(70 + p)
        for k in range(4):
            roots = sorted({p * rng.randrange(1, p ** 3) for _ in range(rng.randrange(3, 9))})
            lead = [1, p, F(2, p), F(p ** 2, 7)][k]
            out.append((f"p={p} roots={roots} lead={lead}", p, (roots, lead), "exact"))
    return out


def _depth(node):
    return 0 if node.parent is None else 1 + _depth(node.parent)


def _is_below(node, ancestor):
    while node.parent is not None:
        node = node.parent
        if node is ancestor:
            return True
    return False


def _nu_tree(p, spec, mode):
    K = BaseField(p)
    if isinstance(spec, str):
        f = cli.parse_poly(spec, K)
    else:
        roots, lead = spec
        f = K.poly([lead])
        for a in roots:
            f = f * K.poly([-a, 1])
    return build_cluster_tree(f, K, mode=mode)


class TestNu:
    @pytest.mark.parametrize("label, p, spec, mode", _nu_inputs(),
                             ids=[x[0] for x in _nu_inputs()])
    def test_nu_matches_leaf_meet_oracle(self, label, p, spec, mode):
        tree = _nu_tree(p, spec, mode)
        for node in tree.nodes:
            assert nu(tree, node) == _leaf_meet_sum(tree, node)

    @pytest.mark.parametrize("expr, depth", [("(x-5)*(x-30)*(x-130)*(x-10)", 2),
                                             ("((x^2-5)^3-5^5)*(x^2+5)", 1)])
    def test_perturbed_radius_breaks_the_nu_law(self, expr, depth):
        # the cluster chain is built: a radius changed afterwards reaches the
        # meet sum but not the evaluation
        tree = _nu_tree(5, expr, "exact")
        assert max(_depth(n) for n in tree.nodes) == depth
        for node in tree.nodes:
            node.radius += F(1, 7)
            with pytest.raises(InternalInconsistency, match="nu mismatch"):
                nu(tree, node)
            node.radius -= F(1, 7)
            nu(tree, node)

    @given(st.integers(0, 2 ** 32), st.sampled_from([3, 5, 7]),
           st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 12)))
    @settings(max_examples=40, deadline=None)
    def test_any_radius_shift_breaks_the_nu_law(self, seed, p, shift):
        # the meet sum on integers still sees a shift of any node's radius,
        # at that node and at every node below it
        rng = random.Random(seed)
        roots = {p * rng.randrange(1, p ** 4) for _ in range(rng.randrange(3, 9))}
        tree = _nu_tree(p, "*".join(f"(x-{a})" for a in sorted(roots)), "exact")
        node = rng.choice(tree.nodes)
        node.radius += shift
        below = [n for n in tree.nodes if n is node or _is_below(n, node)]
        for n in below:
            with pytest.raises(InternalInconsistency, match="nu mismatch"):
                nu(tree, n)
        node.radius -= shift
        for n in below:
            nu(tree, n)

    def test_perturbed_leaf_degree_breaks_additivity(self):
        # nu reads sizes, not leaf degrees: the additivity law guards them
        tree = _nu_tree(5, "(x-5)*(x-30)*(x-10)*(x-35)*(x-15)*(x-40)", "exact")
        _verify_tree(tree)
        leaf = next(l for n in tree.nodes for l in n.leaves)
        leaf.degree += 1
        with pytest.raises(InternalInconsistency, match="sizes are not additive"):
            _verify_tree(tree)

    def test_nu_simple(self):
        K = BaseField(5)
        f = K.poly([-5, 0, 1])
        tree = build_cluster_tree(f, K)
        assert nu(tree, tree.root) == 1  # min(2*(1/2), 1)

    def test_nu_nonmonic_leading(self):
        K = BaseField(5)
        f = (K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])) * K.elem(F(5, 3))
        tree = build_cluster_tree(f, K)
        recs = all_records(tree)
        assert recs[tree.root.id].nu == 4  # v_K(c_f) = 1 shifts nu by 1


class TestOtherLawsFire:
    def test_perturbed_size_breaks_the_size_law(self):
        tree = _nu_tree(5, "(x-5)*(x-30)*(x-130)*(x-10)", "exact")
        tree.root.size += 1
        with pytest.raises(InternalInconsistency, match="size does not match"):
            _verify_tree(tree)

    def test_perturbed_genus_breaks_the_cross_check(self, monkeypatch):
        tree = _nu_tree(5, "(x^2-5)^3 - 5^5", "exact")
        real = invariants.genus_double_cover
        monkeypatch.setattr(invariants, "genus_double_cover",
                            lambda ft, n: real(ft, n) + 1)
        with pytest.raises(InternalInconsistency, match="genus cross-check failed"):
            all_records(tree)


class TestFbar:
    """f-bar is f|_v divided once by each distinct-centre child's residual
    factor, by the child multiplicity law of the tree."""

    @pytest.mark.parametrize("label, p, spec, mode", _nu_inputs(),
                             ids=[x[0] for x in _nu_inputs()])
    def test_fbar_times_the_child_factors_is_the_reduction(self, label, p, spec, mode):
        tree = _nu_tree(p, spec, mode)
        records = all_records(tree)
        distinct = 0
        for node in tree.nodes:
            product = node.fbar
            for child in node.children:
                if child.centre != node.centre:
                    for _ in range(child.size // child.degree):
                        product = product * node.child_residuals[id(child)]
                    distinct += 1
            assert product == node.reduction.poly
            assert records[node.id].fbar is node.fbar
        if label.startswith("(x-5)*(x-30)*(x-10)"):
            assert distinct

    @staticmethod
    def _tree():
        # two pairs at radius 2 and a leaf below the radius-1 root; the root
        # takes one pair's centre, so the other pair is a distinct-centre
        # child whose factor divides f|_v twice
        tree = _nu_tree(5, "(x-5)*(x-30)*(x-10)*(x-35)*(x-15)", "exact")
        node = tree.root
        child = next(c for c in node.children if c.centre != node.centre)
        assert child.size == 2 and node.leaves
        _verify_tree(tree)
        return tree, node, child

    def test_perturbed_child_size_breaks_the_multiplicity_law(self):
        tree, node, child = self._tree()
        child.size += child.degree
        node.leaves[0].degree -= child.degree  # the sizes stay additive
        with pytest.raises(InternalInconsistency, match="child multiplicity law violated"):
            _verify_tree(tree)

    def test_factor_dividing_once_more_breaks_the_multiplicity_law(self):
        tree, node, child = self._tree()
        child.size -= child.degree
        node.leaves[0].degree += child.degree
        with pytest.raises(InternalInconsistency, match="child multiplicity law violated"):
            _verify_tree(tree)


class TestGenus:
    def test_squarefree_quintic(self):
        k = prime_field(5)
        ft = FFPoly.from_ints(k, [0, -1, 0, 0, 0, 1])  # X^5 - X, five roots
        assert genus_double_cover(ft, 2) == 2

    def test_line(self):
        k = prime_field(5)
        assert genus_double_cover(FFPoly.from_ints(k, [3, 1]), 2) == 0
        assert genus_double_cover(FFPoly.from_ints(k, [3, 1]), 1) == 0

    def test_square_constant(self):
        k = prime_field(5)
        sq = FFPoly.from_ints(k, [1, 2, 1])  # (X+1)^2
        assert genus_double_cover(sq, 2) == 0

    def test_genus_two_semistable(self):
        # six rational roots in two deep pockets: a genus-2-ish configuration
        K = BaseField(5)
        f = K.poly([1])
        for a in [5, 10, 15, 20, 35, 55]:
            f = f * K.poly([-a, 1])
        tree = build_cluster_tree(f, K)
        recs = all_records(tree)
        # every record passed its internal genus cross-check by construction
        assert all(r.genus >= 0 for r in recs.values())


class TestRegressions:
    def test_branch_count_with_residue_extension(self):
        # quartic whose only cluster has k_v = F_9: the branch-degree count of
        # u must be taken per component of the residue extension
        K = BaseField(3)
        f = K.poly([19, -6, 2, -3, 1])
        tree = build_cluster_tree(f, K)
        recs = all_records(tree)  # genus cross-check runs inside
        deep = recs[tree.nodes[-1].id]
        assert deep.f_v == 2
        assert deep.u == deep.ftilde.degree
        assert deep.genus == 0

    def test_matching_orbit_from_deeper_edge(self):
        # degree-minimal cluster whose matching orbit is certified by a
        # width-one edge rather than a residual factor of its own reduction
        K = BaseField(7)
        f = K.poly([-9947, -8, -311, 1])
        tree = build_cluster_tree(f, K)
        recs = all_records(tree)
        assert any(r.p0 == 1 for r in recs.values())

    def test_deep_collapse_chain(self):
        # two roots agreeing to order p^12: eleven in-place refinements
        K = BaseField(5)
        a = 5
        b = 5 + 5 ** 12
        f = K.poly([-a, 1]) * K.poly([-b, 1])
        tree = build_cluster_tree(f, K)
        assert len(tree.nodes) == 1
        assert tree.root.radius == 12
        assert all_records(tree)[tree.root.id].genus == 0


class TestUbereven:
    def test_constructed_ubereven(self):
        # two even children and no stray roots: u = 0 and the top splits
        K = BaseField(5)
        f = K.poly([1])
        for a in [5, 30, -5, -30]:
            f = f * K.poly([-a, 1])
        tree = build_cluster_tree(f, K)
        recs = all_records(tree)
        root_rec = recs[tree.root.id]
        assert root_rec.u == 0
        assert root_rec.n == 2
        assert root_rec.ubereven
        assert root_rec.genus == 0

    def test_open_p1_cluster(self):
        # x^3 - p: single cluster with e*nu odd -> n = 1
        K = BaseField(5)
        f = K.poly([-5, 0, 0, 1])
        tree = build_cluster_tree(f, K)
        r = all_records(tree)[tree.root.id]
        assert r.n == 1 and r.m == 2 * r.e
        assert r.genus == 0
        assert r.fbar.degree == 1


def _root_products():
    """Seeded products of 3 to 14 rational roots at p = 3, 5 and 7, some
    with a lead that is not a unit."""
    out = []
    for p in (3, 5, 7):
        rng = random.Random(300 + p)
        for k in range(6):
            roots = sorted({p * rng.randrange(1, p ** 4) for _ in range(rng.randrange(3, 15))})
            lead = [1, 2, p, F(1, p), F(3, p ** 2), 1][k]
            out.append((f"p={p} roots={roots} lead={lead}", p, 1, (roots, lead), "exact"))
    return out


def _record_inputs():
    """(label, p, m, spec, mode): the selfcheck corpus in both residue modes,
    the inputs of tests/test_base_change.py over Q_p and over its quadratic
    extension, and products of rational roots."""
    from test_base_change import INPUTS
    out = [(f"{expr} {mode}", p, 1, expr, mode)
           for p, expr in cli._CORPUS for mode in ("exact", "geometric")]
    out += [(f"{expr} m={m}", p, m, expr, "exact")
            for p, expr in INPUTS[len(cli._CORPUS):] for m in (1, 2)]
    return out + _root_products()


_RECORD_INPUTS = _record_inputs()


def _record_tree(p, m, spec, mode):
    K = BaseField(p, m)
    if isinstance(spec, str):
        f = cli.parse_poly(spec, K)
    else:
        roots, lead = spec
        f = K.poly([lead])
        for a in roots:
            f = f * K.poly([-a, 1])
    return build_cluster_tree(f, K, mode=mode)


class TestRecordsAgainstReference:
    """Every field of every record, at ell_offset 0 and 1, against the
    Fraction formulas of tests/oracles/records.py."""

    @pytest.mark.parametrize("label, p, m, spec, mode", _RECORD_INPUTS,
                             ids=[x[0] for x in _RECORD_INPUTS])
    def test_every_field(self, label, p, m, spec, mode):
        tree = _record_tree(p, m, spec, mode)
        for offset in (0, 1):
            records = all_records(tree, ell_offset=offset)
            for node in tree.nodes:
                want = reference_record(tree, node, offset)
                got = records[node.id]
                for name, value in want.items():
                    assert type(getattr(got, name)) is type(value), (node.id, name)
                    assert getattr(got, name) == value, (node.id, offset, name)

    def test_inputs_reach_every_branch(self):
        # marks and c0 with e > 1, so that every term of u is read with its
        # factor e, both parities of each flag, and nonzero u with marks
        seen = set()
        for _, p, m, spec, mode in _RECORD_INPUTS:
            tree = _record_tree(p, m, spec, mode)
            for r in all_records(tree).values():
                seen.add(("marked, e > 1", bool(r.vtilde) and r.e > 1))
                seen.add(("delta c0, e > 1", r.delta * r.c0 == 1 and r.e > 1))
                seen.add(("marked, u > 0", bool(r.vtilde) and r.u > 0))
                seen.update({("n", r.n), ("gamma", r.gamma), ("gamma0", r.gamma0),
                             ("c0", r.c0), ("p0", r.p0), ("f_v > 1", r.f_v > 1)})
        for flag in ("marked, e > 1", "delta c0, e > 1", "marked, u > 0", "f_v > 1"):
            assert (flag, True) in seen, flag
        for name in ("n", "gamma", "gamma0", "c0", "p0"):
            assert {v for k, v in seen if k == name} == ({1, 2} if name != "c0" else {0, 1}), name
