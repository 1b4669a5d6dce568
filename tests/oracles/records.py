"""The invariant record of one cluster by its defining formulas on Fractions.

``reference_record`` computes every field of ``invariants.InvariantRecord``
the way the definitions read: nu and lambda stay rationals, each parity is
read off a Fraction (an odd integer, or an element outside 2Z), and u and
the open count are Fractions that must come out integral.  The package
computes the same fields on the integers e nu and e lambda; the two must
agree field for field, type included.

It reads the tree only through what the records take as given: the cluster
chains and their residue towers, the node's reduction, f-bar, the centre
flags and ``invariants.nu``.  The branch polynomial f-tilde is built by
``invariants.ftilde_poly`` from the reference's own marks and parity.
"""

from fractions import Fraction
from types import SimpleNamespace

from clusterfibre.clusters import cluster_chain, p0_flag
from clusterfibre.invariants import InvariantRecord, ftilde_poly, nu
from clusterfibre.newton import residue_tower


def _is_odd_integer(x) -> bool:
    x = Fraction(x)
    return x.denominator == 1 and x.numerator % 2 == 1


def _not_in_2Z(x) -> bool:
    x = Fraction(x)
    return x.denominator != 1 or x.numerator % 2 != 0


def reference_record(tree, node, ell_offset: int = 0) -> dict:
    """Every field of the node's record, by name, as the formulas define it."""
    cc = cluster_chain(node)
    K = tree.field
    r = SimpleNamespace()
    r.degree = node.degree
    r.size = node.size
    r.lam = Fraction(node.radius)
    r.epsilon = cc.epsilon
    r.b = cc.b_last
    r.ell = cc.ell_last + ell_offset * r.b
    r.e = cc.group_index
    r.k_v = residue_tower(cc).top
    r.f_v = r.k_v.degree // K.m
    r.nu = nu(tree, node)
    r.i_v = node.reduction.i1
    e_nu = r.e * r.nu
    assert Fraction(e_nu).denominator == 1, "e nu is an integer"
    r.n = 1 if int(e_nu) % 2 == 1 else 2
    r.m = 2 * r.e // r.n
    r.p = 1 if r.i_v % 2 == 1 else 2
    r.s = Fraction(r.i_v * r.lam + r.p * r.lam - r.nu, 2)
    r.gamma = 2 if (r.i_v % 2 == 0
                    and _is_odd_integer(r.epsilon * (r.nu - r.i_v * r.lam))) else 1
    r.delta = 1 if node.is_degree_minimal else 0
    r.p0 = p0_flag(node)
    r.s0 = -r.nu / 2 + r.lam
    r.gamma0 = 2 if (r.p0 == 2 and _is_odd_integer(r.epsilon * r.nu)) else 1
    r.vtilde = set()
    f_w = {}
    for child in node.children:
        ccw = cluster_chain(child)
        f_w[child.id] = residue_tower(ccw).top.degree // K.m
        crit = (Fraction(r.f_v * child.size, f_w[child.id] * r.b * r.degree)
                - r.ell * r.nu * ccw.epsilon)
        if _not_in_2Z(crit):
            r.vtilde.add(child.id)
    r.c0 = 1 if _not_in_2Z(Fraction(2 - r.p0, r.b) - r.ell * r.nu * r.epsilon) else 0
    child_sum = sum(c.size for c in node.children)
    u = (Fraction(node.size - child_sum - (2 - r.p0) * r.degree, r.e * r.f_v)
         + Fraction(sum(f_w[c] for c in r.vtilde), r.f_v) + r.delta * r.c0)
    assert u.denominator == 1 and u >= 0, "u is a nonnegative integer"
    r.u = int(u)
    r.genus = 0 if r.n == 1 else max((r.u - 1) // 2, 0)
    r.ubereven = (r.n == 2 and r.u == 0)
    red = node.reduction
    r.gbar_exp = r.p // r.gamma
    r.gbar_const = red.poly.lead()
    r.gbar0_exp = r.p0 // r.gamma0 if r.delta else None
    r.gbar0_const = red.poly[0] if r.delta else None
    r.x_exponent_parity = (red.h_exponent - ell_offset * int(e_nu)) % 2
    r.fbar = node.fbar
    r.ftilde = ftilde_poly(node, r)
    open_count = Fraction(node.size - child_sum + r.degree * (r.p0 - 2), r.e)
    assert open_count == r.f_v * r.fbar.degree, "the open-ended count law"
    r.nu_intro = r.degree * r.nu
    r.s_intro = Fraction(r.i_v * r.lam + r.p * r.lam - r.nu_intro, 2)
    r.s0_intro = -r.nu_intro / 2 + r.lam
    fields = vars(r)
    assert set(fields) == set(InvariantRecord.__slots__)
    return fields
