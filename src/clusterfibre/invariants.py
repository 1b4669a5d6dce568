r"""Per-cluster numerical data of the special fibre.

For every proper cluster we compute, along its cluster chain: the group
data (epsilon, b, ell, e), the residue field and its degree, the value
nu = v(f), the component multiplicity pair (n, m), the chain endpoints
(s, s0), the parity markers (p, gamma, delta, p0, gamma0), the marked child
set and correction term entering u, and the genus.

The residual side: the leading and constant coefficients of f|_v are the
two constants of the attached degree-(p/gamma) covers, f-bar is f|_v with
every distinct-centre child factor divided out exactly (the division must
be exact, anything else means the tree is wrong), and f-tilde twists f-bar
by x and the marked child factors so that y^n = f-tilde presents the
component's function field.

Two independent routes are asserted against each other on every run: nu by
evaluation against the meet-sum over leaf orbits, and the genus from u
against the genus of the double cover y^2 = f-tilde computed from its
odd-multiplicity roots.  The intro-flavoured normalization (nu scaled by
the cluster degree) is reported alongside for display only; it never enters
the computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .clusters import ClusterNode, ClusterTree, cluster_chain, p0_flag
from .errors import InputError, InternalInconsistency
from .ff import FFPoly, squarefree_decomposition
from .field import expansion_scope
from .newton import residue_tower


def _is_odd_integer(x) -> bool:
    x = Fraction(x)
    return x.denominator == 1 and x.numerator % 2 == 1


def _not_in_2Z(x) -> bool:
    x = Fraction(x)
    return x.denominator != 1 or x.numerator % 2 != 0


class InvariantRecord:
    __slots__ = ("degree", "size", "lam", "epsilon", "b", "ell", "e",
                 "f_v", "k_v", "nu", "n", "m", "i_v", "i0_v", "p", "s", "gamma",
                 "delta", "p0", "s0", "gamma0", "vtilde", "c0", "u", "genus",
                 "ubereven", "gbar_exp", "gbar_const", "gbar0_exp", "gbar0_const",
                 "fbar", "ftilde", "nu_intro", "s_intro", "s0_intro",
                 "x_exponent_parity")

    def as_dict(self):
        from .rationals import qstr
        return {
            "degree": self.degree, "size": self.size,
            "lambda": qstr(self.lam), "epsilon": self.epsilon, "b": self.b,
            "ell": self.ell, "e": self.e, "f": self.f_v,
            "nu": qstr(self.nu), "n": self.n, "m": self.m, "i": self.i_v,
            "p": self.p, "s": qstr(self.s), "gamma": self.gamma,
            "delta": self.delta, "p0": self.p0, "s0": qstr(self.s0),
            "gamma0": self.gamma0, "u": self.u, "genus": self.genus,
            "ubereven": self.ubereven,
            "nu_intro": qstr(self.nu_intro), "s_intro": qstr(self.s_intro),
            "s0_intro": qstr(self.s0_intro),
        }


def nu(tree: ClusterTree, node: ClusterNode):
    """nu_v = v(f), with the leaf-meet sum of the valuation identity asserted."""
    cc = cluster_chain(node)
    direct = cc.eval(tree.f)
    total = tree.f.lead().val()
    ancestors = _ancestor_sets(tree)
    for leaf in tree.leaves():
        meet = _meet_node(node, leaf.parent, ancestors)
        total += Fraction(leaf.degree) * Fraction(meet.radius) / meet.degree
    if direct != total:
        raise InternalInconsistency(
            f"nu mismatch: eval gives {direct}, leaf meets give {total}")
    return direct


def _ancestor_sets(tree: ClusterTree):
    if getattr(tree, "_ancestors", None) is None:
        anc = {}
        for n in tree.nodes:
            path = []
            cur = n
            while cur is not None:
                path.append(cur)
                cur = cur.parent
            anc[id(n)] = path[::-1]  # root first
        tree._ancestors = anc
    return tree._ancestors


def _meet_node(v: ClusterNode, u: ClusterNode, ancestors) -> ClusterNode:
    """Deepest common ancestor; v itself when the leaf hangs below v."""
    pv, pu = ancestors[id(v)], ancestors[id(u)]
    if len(pu) >= len(pv) and pu[len(pv) - 1] is v:
        return v
    last = None
    for a, b in zip(pv, pu):
        if a is b:
            last = a
        else:
            break
    if last is None:
        raise InternalInconsistency("disconnected cluster tree")
    return last


def compute_record(tree: ClusterTree, node: ClusterNode,
                   ell_offset: int = 0) -> InvariantRecord:
    """Invariant record of one node; ``ell_offset`` shifts the Bezout datum
    ell by that many multiples of b (the congruence defining ell only pins
    it mod b, and the assembled fibre must not depend on the choice)."""
    cc = cluster_chain(node)
    tower = residue_tower(cc)
    K = tree.field
    r = InvariantRecord()
    r.degree = node.degree
    r.size = node.size
    r.lam = Fraction(node.radius)
    r.epsilon = cc.epsilon
    r.b = cc.b_last
    r.ell = cc.ell_last + ell_offset * r.b
    r.e = cc.group_index
    r.k_v = tower.top
    r.f_v = tower.top.degree // K.m
    r.nu = nu(tree, node)
    r.i_v = node.i_v
    r.i0_v = node.i0_v
    e_nu = r.e * r.nu
    if Fraction(e_nu).denominator != 1:
        raise InternalInconsistency(f"e * nu must be an integer, got {e_nu}")
    r.n = 1 if int(e_nu) % 2 == 1 else 2
    r.m = 2 * r.e // r.n
    r.p = 1 if r.i_v % 2 == 1 else 2
    r.s = Fraction(r.i_v * r.lam + r.p * r.lam - r.nu, 2)
    r.gamma = 2 if (r.i_v % 2 == 0 and _is_odd_integer(r.epsilon * (r.nu - r.i_v * r.lam))) else 1
    r.delta = 1 if node.is_degree_minimal else 0
    r.p0 = p0_flag(node)
    r.s0 = -r.nu / 2 + r.lam
    r.gamma0 = 2 if (r.p0 == 2 and _is_odd_integer(r.epsilon * r.nu)) else 1
    # marked children: odd crossing parity with the component
    r.vtilde = set()
    f_w = {}
    for child in node.children:
        ccw = cluster_chain(child)
        f_w[child.id] = residue_tower(ccw).top.degree // K.m
        crit = (Fraction(r.f_v * child.size, f_w[child.id] * r.b * r.degree)
                - r.ell * r.nu * ccw.epsilon)
        if _not_in_2Z(crit):
            r.vtilde.add(child.id)
    c0_crit = Fraction(2 - r.p0, r.b) - r.ell * r.nu * r.epsilon
    r.c0 = 1 if _not_in_2Z(c0_crit) else 0
    child_sum = sum(c.size for c in node.children)
    # the main term counts the leaf-orbit part per component of the residue
    # extension, i.e. the degree of the f-bar polynomial; the e_v-only
    # denominator would over-count by f_v whenever k_v is bigger than k
    u_main = Fraction(node.size - child_sum - (2 - r.p0) * r.degree,
                      r.e * r.f_v)
    u_marks = Fraction(sum(f_w[c] for c in r.vtilde), r.f_v)
    u = u_main + u_marks + r.delta * r.c0
    if Fraction(u).denominator != 1 or u < 0:
        raise InternalInconsistency(f"u must be a nonnegative integer, got {u}")
    r.u = int(u)
    r.genus = 0 if r.n == 1 else max((r.u - 1) // 2, 0)
    r.ubereven = (r.n == 2 and r.u == 0)
    # residual constants from the two selected-edge endpoint coefficients
    red = node.reduction
    r.gbar_exp = r.p // r.gamma
    r.gbar_const = red.poly.lead()
    r.gbar0_exp = r.p0 // r.gamma0 if r.delta else None
    r.gbar0_const = red.poly[0] if r.delta else None
    r.x_exponent_parity = (red.h_exponent - ell_offset * int(e_nu)) % 2
    r.fbar = fbar(tree, node)
    r.ftilde = ftilde_poly(node, r)
    # open-ended count law ties the residual degree to the cluster counts
    open_count = Fraction(node.size - child_sum + r.degree * (r.p0 - 2), r.e)
    if Fraction(open_count).denominator != 1 or r.f_v * r.fbar.degree != int(open_count):
        raise InternalInconsistency("open-ended count law violated")
    # u is exactly the branch degree of the component's double-cover equation
    if r.u != r.ftilde.degree:
        raise InternalInconsistency("u does not match the branch polynomial degree")
    # the genus of y^2 = ftilde must reproduce the combinatorial genus
    if genus_double_cover(r.ftilde, r.n) != r.genus:
        raise InternalInconsistency("genus cross-check failed")
    r.nu_intro = r.degree * r.nu
    r.s_intro = Fraction(r.i_v * r.lam + r.p * r.lam - r.nu_intro, 2)
    r.s0_intro = -r.nu_intro / 2 + r.lam
    return r


def fbar(tree: ClusterTree, node: ClusterNode) -> FFPoly:
    """f|_v divided exactly by every distinct-centre child's residual factor
    to its multiplicity; the quotient is the leading constant times the
    reduction of the leaf-orbit part."""
    poly = node.reduction.poly
    for child in node.children:
        if child.centre == node.centre:
            continue
        factor = node.child_residuals[id(child)]
        mult = child.size // child.degree
        for _ in range(mult):
            q, rem = poly.divmod(factor)
            if not rem.is_zero():
                raise InternalInconsistency("child residual factor does not divide f|_v")
            poly = q
    return poly


def ftilde_poly(node: ClusterNode, rec: InvariantRecord) -> FFPoly:
    """The branch polynomial of the component, built on ``rec.fbar``."""
    x_parity = rec.x_exponent_parity
    # the x exponent parity must match the marked same-centre child / c0 term
    marked_same = any(c.id in rec.vtilde and c.centre == node.centre
                      for c in node.children)
    expected = (rec.delta * rec.c0 + (1 if marked_same else 0)) % 2
    if x_parity != expected:
        raise InternalInconsistency("x-exponent parity disagrees with the marks")
    out = rec.fbar.shift(x_parity)
    for child in node.children:
        if child.id in rec.vtilde and child.centre != node.centre:
            out = out * node.child_residuals[id(child)]
    return out


def genus_double_cover(ft: FFPoly, n: int) -> int:
    """Genus of the smooth projective model of y^2 = ft over the closure
    (0 for a split or rational curve), from odd-multiplicity root counts."""
    if n == 1:
        return 0
    if ft.is_zero():
        raise InputError("zero branch polynomial")
    branch = 0
    for g, mult in squarefree_decomposition(ft):
        if mult % 2 == 1:
            branch += g.degree
    if ft.degree % 2 == 1:
        branch += 1
    if branch == 0:
        return 0
    return max(branch // 2 - 1, 0)


@expansion_scope
def all_records(tree: ClusterTree, ell_offset: int = 0) -> Dict[int, InvariantRecord]:
    return {node.id: compute_record(tree, node, ell_offset) for node in tree.nodes}
