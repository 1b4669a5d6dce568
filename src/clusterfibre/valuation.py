r"""MacLane pseudo-valuations on K[x] as augmentation chains.

A valuation is stored as the chain [(phi_1, lambda_1), ..., (phi_n, lambda_n)]
of augmentation steps over the Gauss valuation: the empty chain is Gauss, and
step i sends phi_i to lambda_i.  Evaluation descends the chain through
phi-adic expansions:

    v(sum a_s phi_n^s) = min_s ( v_{n-1}(a_s) + s * lambda_n ).

Only the last lambda may be infinite; such a chain is the pseudo-valuation
supported on the centre's roots.  As in MacLane's construction, the chain
[v; phi, lambda] keeps v as its ``prefix``: it checks only its own step
against v and extends v's numeric data (group indices e_{v_i}, the relative
e_i, h_i = e_{v_i} lambda_i, and the Bezout pair ell_i h_i + ell'_i e_i = 1
with 0 <= ell_i < e_i) by one level.  So each step is checked once, and
chains augmenting a common prefix share it and what is cached on it, such
as its residue tower (newton.py).

Values at depth i lie in (1/e_{v_i}) Z, so the evaluation kernel
``_scaled`` works on the integers e_{v_i} v_i, in which the recursion reads

    e_{v_i} v_i(g) = min_s ( e_i * e_{v_{i-1}} v_{i-1}(a_s) + h_i * s ),

with only s = 0 kept on an infinite last step.  A centre of degree above
deg g expands g to itself, so v_i(g) = v_{i-1}(g) there, and the kernel
starts at the deepest level whose centre has degree at most deg g.  The
radii lambda_i are kept as given (Fraction or int); ``eval`` converts the
scaled value to a Fraction once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .errors import InputError
from .field import BaseField, KPoly
from .rationals import OO


class AugStep(NamedTuple):
    """One augmentation step: the centre phi is sent to the radius lam."""
    phi: KPoly
    lam: object


class MacLaneVal:
    """An augmentation chain over the Gauss valuation: its prefix chain plus
    one last step, with the numeric data of every level."""

    __slots__ = ("field", "prefix", "steps", "e_levels", "e_rel", "h_rel", "ell",
                 "ellp", "_cache")

    def __init__(self, field: BaseField, steps=()):
        steps = tuple(steps)
        self._link(field, MacLaneVal(field, steps[:-1]) if steps else None,
                   steps[-1] if steps else None)

    # -- construction -----------------------------------------------------

    def _link(self, field, prefix, step):
        """Make self [prefix; step], checking only the step against the
        prefix; no prefix (and no step) makes self the Gauss valuation."""
        self.field = field
        self.prefix = prefix
        self._cache = {}
        if prefix is None:
            self.steps = ()
            self.e_levels, self.e_rel, self.h_rel = [1], [None], [None]
            self.ell, self.ellp = [None], [None]
            return
        if prefix.is_pseudo:
            raise InputError("only the final radius may be infinite")
        phi, lam = step.phi, step.lam
        if not phi.is_monic() or phi.degree < 1:
            raise InputError("centres must be monic of positive degree")
        if phi.gauss_val() < 0:
            raise InputError("centres must have integral coefficients")
        if prefix.steps and phi.degree % prefix.deg:
            raise InputError("centre degrees must divide along the chain")
        vphi = prefix._scaled(prefix.depth, phi)
        e_prev = prefix.e_levels[-1]
        if lam is not OO and lam.numerator * e_prev <= vphi * lam.denominator:
            raise InputError("augmentation radius must exceed the current centre value")
        if prefix.steps:
            diff = phi - prefix.centre
            # MacLane chain condition: phi not v-equivalent to the previous centre
            if diff.is_zero() or prefix._scaled(prefix.depth, diff) > vphi:
                raise InputError("consecutive centres must not be v-equivalent")
        if lam is OO:
            ev = e_prev
            e_i = h_i = l_i = lp_i = None
        else:
            ev = lcm(e_prev, lam.denominator)
            e_i = ev // e_prev
            h_i = ev // lam.denominator * lam.numerator
            l_i = pow(h_i, -1, e_i) % e_i if e_i > 1 else 0
            lp_i = (1 - l_i * h_i) // e_i
        self.steps = prefix.steps + (step,)
        self.e_levels = prefix.e_levels + [ev]
        self.e_rel = prefix.e_rel + [e_i]
        self.h_rel = prefix.h_rel + [h_i]
        self.ell = prefix.ell + [l_i]
        self.ellp = prefix.ellp + [lp_i]

    @staticmethod
    def gauss(field: BaseField) -> "MacLaneVal":
        return MacLaneVal(field, ())

    def augment_unchecked(self, phi: KPoly, lam) -> "MacLaneVal":
        """[self; phi -> lam], without testing that phi is a key polynomial.

        Chain-shape conditions (monic, integral, radius above centre value,
        non-equivalence with the previous centre) are still enforced.
        """
        out = MacLaneVal.__new__(MacLaneVal)
        out._link(self.field, self, AugStep(phi, lam))
        return out

    # -- basic data --------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def is_gauss(self) -> bool:
        return not self.steps

    @property
    def is_pseudo(self) -> bool:
        return bool(self.steps) and self.steps[-1].lam is OO

    @property
    def deg(self) -> int:
        return self.steps[-1].phi.degree if self.steps else 1

    @property
    def radius(self):
        # convention: the Gauss valuation has radius 0 and centre x
        return self.steps[-1].lam if self.steps else Fraction(0)

    @property
    def centre(self) -> KPoly:
        return self.steps[-1].phi if self.steps else self.field.x()

    @property
    def group_index(self) -> int:
        """e_v = [Gamma_v : Z]."""
        return self.e_levels[-1]

    @property
    def epsilon(self) -> int:
        """Group index one level down the chain (1 for Gauss)."""
        return self.e_levels[-2] if self.steps else 1

    @property
    def b_last(self) -> Optional[int]:
        """e_n = e_v/epsilon_v, the denominator contributed by the last step."""
        if not self.steps:
            return 1
        return self.e_rel[-1]

    @property
    def ell_last(self) -> Optional[int]:
        return self.ell[-1] if self.steps else 0

    # -- evaluation ---------------------------------------------------------

    def eval(self, g: KPoly):
        """v(g), an extended rational."""
        scaled = self._scaled(self.depth, g)
        return OO if scaled is OO else Fraction(scaled, self.e_levels[-1])

    def _scaled(self, level: int, g: KPoly):
        """e_level * v_level(g): an int, or OO when g is zero or vanishes on a
        pseudo step.  v_level is the valuation of the depth-``level`` prefix
        and e_level its group index."""
        if not g.rows:
            return OO
        # a centre of degree above deg g leaves its level's value unchanged
        j, steps, deg = level, self.steps, g.degree
        while j and steps[j - 1].phi.degree > deg:
            j -= 1
        if j == 0:
            val = g.gauss_val()
        else:
            expansion = g.phi_expand(steps[j - 1].phi)
            e_j, h_j = self.e_rel[j], self.h_rel[j]
            if h_j is None:
                # an infinite radius keeps only the constant term
                val = self._scaled(j - 1, expansion[0])
            else:
                val = min(e_j * self._scaled(j - 1, a) + h_j * s
                          for s, a in enumerate(expansion) if a.rows)
        if j == level or val is OO:
            return val
        return val * (self.e_levels[level] // self.e_levels[j])

    def equiv(self, g: KPoly, h: KPoly) -> bool:
        """g =_v h, tested as v(g - h) > v(g)."""
        diff = g - h
        if diff.is_zero():
            return True
        return self._scaled(self.depth, diff) > self._scaled(self.depth, g)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MacLaneVal) and other.field is self.field
                and other.steps == self.steps)

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        from .rationals import qstr
        if self.is_gauss:
            return "v0"
        inner = ", ".join(f"v(deg{s.phi.degree})={qstr(s.lam)}" for s in self.steps)
        return f"[v0, {inner}]"

