r"""Per-cluster numerical data of the special fibre.

For every proper cluster we compute, along its cluster chain: the group
data (epsilon, b, ell, e), the residue field and its degree, the value
nu = v(f), the component multiplicity pair (n, m), the chain endpoints
(s, s0), the parity markers (p, gamma, delta, p0, gamma0), the marked child
set and correction term entering u, and the genus.

The residual side: the leading and constant coefficients of f|_v are the
two constants of the attached degree-(p/gamma) covers, f-bar is f|_v with
every distinct-centre child factor divided out exactly (``node.fbar``, left
by the child multiplicity law of the tree), and f-tilde twists f-bar by x
and the marked child factors so that y^n = f-tilde presents the
component's function field.

Two independent routes are asserted against each other on every run: nu,
the value alpha of the line of f's reduction along the cluster chain (which
the chain stage computes from the first size/degree + 1 terms of f's
expansion in the centre), against the meet sum over leaf orbits, which one
walk up the parents of the node adds up from the cluster sizes, and the
genus from u against the genus of the double cover y^2 = f-tilde computed
from its odd-multiplicity roots.  The intro-flavoured normalization (nu
scaled by the cluster degree) is reported alongside for display only; it
never enters the computation.

The record is computed on integers in units of 1/(2e), e the group index
of the cluster chain: N = e nu and L = e lambda, integers by a law that
raises InternalInconsistency.  Every parity and integrality condition is
a divisibility test on a numerator over its common denominator.
Fractions appear only in the record's public fields: lambda is the node's
radius, and nu, s, s0 and their intro forms are each built once from an
integer numerator over e or 2e; ``as_dict`` and the chain rows of
``fibre.assemble`` read them back as numerator and denominator.  The meet
sum of ``nu``, the independent check, is added up on integers as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .clusters import ClusterNode, ClusterTree, cluster_chain, p0_flag
from .errors import InputError, InternalInconsistency
from .ff import FFPoly, squarefree_decomposition
from .field import expansion_scope
from .newton import residue_tower
from .rationals import qstr


def _odd_multiple(x: int, e: int) -> bool:
    """x / e is an odd integer."""
    q, r = divmod(x, e)
    return not r and q % 2 == 1


class InvariantRecord:
    __slots__ = ("degree", "size", "lam", "epsilon", "b", "ell", "e",
                 "f_v", "k_v", "nu", "n", "m", "i_v", "p", "s", "gamma",
                 "delta", "p0", "s0", "gamma0", "vtilde", "c0", "u", "genus",
                 "ubereven", "gbar_exp", "gbar_const", "gbar0_exp", "gbar0_const",
                 "fbar", "ftilde", "nu_intro", "s_intro", "s0_intro",
                 "x_exponent_parity")

    def as_dict(self):
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
    """nu_v = v(f), with the leaf-meet sum of the valuation identity asserted.

    v(f) along the cluster chain is the value alpha of the line of f's
    reduction there, which the chain stage has computed.  A leaf below v
    meets v; a leaf below an ancestor a but not below a's child c towards v
    meets a.  The leaf degrees below a node sum to its size (the additivity
    law), so the meet sum is one walk up the parents.  It is added up as
    num / den on integers: the term (a.size - c.size) * radius / degree of
    an ancestor a has the denominator den(radius) * degree."""
    direct = node.reduction.alpha
    num, den = tree.f.lead().gauss_val(), 1
    a, below = node, 0
    while a is not None:
        r = a.radius
        rd = r.denominator * a.degree
        num, den = num * rd + (a.size - below) * r.numerator * den, den * rd
        a, below = a.parent, a.size
    if direct.numerator * den != num * direct.denominator:
        raise InternalInconsistency(
            f"nu mismatch: eval gives {direct}, leaf meets give {Fraction(num, den)}")
    return direct


def compute_record(tree: ClusterTree, node: ClusterNode,
                   ell_offset: int = 0) -> InvariantRecord:
    """Invariant record of one node; ``ell_offset`` shifts the Bezout datum
    ell by that many multiples of b (the congruence defining ell only pins
    it mod b, and the assembled fibre must not depend on the choice)."""
    cc = cluster_chain(node)
    tower = residue_tower(cc)
    K = tree.field
    r = InvariantRecord()
    r.degree = d = node.degree
    r.size = node.size
    r.lam = node.radius
    r.epsilon = eps = cc.epsilon
    r.b = b = cc.b_last
    r.ell = ell = cc.ell_last + ell_offset * b
    r.e = e = cc.group_index
    r.k_v = tower.top
    r.f_v = f_v = tower.top.degree // K.m
    r.nu = nu_v = nu(tree, node)
    r.i_v = i = node.reduction.i1
    # N = e nu and L = e lambda: the record in units of 1 / (2e)
    N, N_rem = divmod(e * nu_v.numerator, nu_v.denominator)
    if N_rem:
        raise InternalInconsistency(f"e * nu must be an integer, got {e * nu_v}")
    L, L_rem = divmod(e * r.lam.numerator, r.lam.denominator)
    if L_rem:
        raise InternalInconsistency(f"e * lambda must be an integer, got {e * r.lam}")
    r.n = 1 if N % 2 == 1 else 2
    r.m = 2 * e // r.n
    r.p = p = 1 if i % 2 == 1 else 2
    r.s = Fraction((i + p) * L - N, 2 * e)
    # gamma: eps (nu - i lambda) an odd integer, for even i
    r.gamma = 2 if (i % 2 == 0 and _odd_multiple(eps * (N - i * L), e)) else 1
    r.delta = 1 if node.is_degree_minimal else 0
    r.p0 = p0 = p0_flag(node)
    r.s0 = Fraction(2 * L - N, 2 * e)
    r.gamma0 = 2 if (p0 == 2 and _odd_multiple(eps * N, e)) else 1
    # marked children: odd crossing parity with the component, the crossing
    # f_v size_w / (f_w b d) - ell nu eps_w taken over its denominator
    # f_w b d e, so it is outside 2Z iff 2 f_w b d e does not divide the top
    r.vtilde = set()
    marked_f = 0
    for child in node.children:
        ccw = cluster_chain(child)
        f_w = residue_tower(ccw).top.degree // K.m
        den = f_w * b * d
        if (f_v * child.size * e - ell * N * ccw.epsilon * den) % (2 * den * e):
            r.vtilde.add(child.id)
            marked_f += f_w
    # c0: (2 - p0) / b - ell nu eps outside 2Z, over the denominator b e
    r.c0 = 1 if ((2 - p0) * e - ell * N * eps * b) % (2 * b * e) else 0
    leaf_part = node.size - sum(c.size for c in node.children)
    # u = (leaf_part - (2 - p0) d) / (e f_v) + sum_marked f_w / f_v + delta c0:
    # the main term counts the leaf-orbit part per component of the residue
    # extension, i.e. the degree of the f-bar polynomial; the e_v-only
    # denominator would over-count by f_v whenever k_v is bigger than k
    u_num = leaf_part - (2 - p0) * d + e * marked_f + r.delta * r.c0 * e * f_v
    u, u_rem = divmod(u_num, e * f_v)
    if u_rem or u < 0:
        raise InternalInconsistency(
            f"u must be a nonnegative integer, got {Fraction(u_num, e * f_v)}")
    r.u = u
    r.genus = 0 if r.n == 1 else max((u - 1) // 2, 0)
    r.ubereven = (r.n == 2 and u == 0)
    # residual constants from the two selected-edge endpoint coefficients
    red = node.reduction
    r.gbar_exp = p // r.gamma
    r.gbar_const = red.poly.lead()
    r.gbar0_exp = p0 // r.gamma0 if r.delta else None
    r.gbar0_const = red.poly[0] if r.delta else None
    r.x_exponent_parity = (red.h_exponent - ell_offset * N) % 2
    r.fbar = node.fbar
    r.ftilde = ftilde_poly(node, r)
    # open-ended count law ties the residual degree to the cluster counts
    open_count, open_rem = divmod(leaf_part + d * (p0 - 2), e)
    if open_rem or f_v * r.fbar.degree != open_count:
        raise InternalInconsistency("open-ended count law violated")
    # u is exactly the branch degree of the component's double-cover equation
    if u != r.ftilde.degree:
        raise InternalInconsistency("u does not match the branch polynomial degree")
    # the genus of y^2 = ftilde must reproduce the combinatorial genus
    if genus_double_cover(r.ftilde, r.n) != r.genus:
        raise InternalInconsistency("genus cross-check failed")
    r.nu_intro = Fraction(d * N, e)
    r.s_intro = Fraction((i + p) * L - d * N, 2 * e)
    r.s0_intro = Fraction(2 * L - d * N, 2 * e)
    return r


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
