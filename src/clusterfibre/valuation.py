r"""MacLane valuations on K[x] as augmentation chains.

A valuation is stored as the chain [(phi_1, lambda_1), ..., (phi_n, lambda_n)]
of augmentation steps over the Gauss valuation: the empty chain is Gauss, and
step i sends phi_i to lambda_i.  Evaluation descends the chain through
phi-adic expansions:

    v(sum a_s phi_n^s) = min_s ( v_{n-1}(a_s) + s * lambda_n ).

Every radius lambda_i is finite, an int or a Fraction; the only infinite
value is v(0) = OO.  As in MacLane's construction, the chain
[v; phi, lambda] keeps v as its ``prefix``: it checks only its own step
against v and extends v's numeric data (group indices e_{v_i}, the relative
e_i, h_i = e_{v_i} lambda_i, and the Bezout pair ell_i h_i + ell'_i e_i = 1
with 0 <= ell_i < e_i) by one level.  So each step is checked once, and
chains augmenting a common prefix share it and what is cached on it, such
as its residue tower (newton.py).

Values at depth i lie in (1/e_{v_i}) Z, so the evaluation kernel
``_scaled`` works on the integers e_{v_i} v_i, in which the recursion reads

    e_{v_i} v_i(g) = min_s ( e_i * e_{v_{i-1}} v_{i-1}(a_s) + h_i * s ).

The radii lambda_i are kept as given; ``eval`` converts the scaled value to
a Fraction once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import InputError
from .field import BaseField, KPoly
from .rationals import OO


class AugStep(NamedTuple):
    """One augmentation step: the centre phi is sent to the radius lam, an
    int or a Fraction."""
    phi: KPoly
    lam: object


class MacLaneVal:
    """An augmentation chain over the Gauss valuation: its prefix chain plus
    one last step, with the numeric data of every level."""

    __slots__ = ("field", "prefix", "steps", "e_levels", "e_rel", "h_rel", "ell",
                 "ellp", "_tower")

    def __init__(self, field: BaseField):
        """The Gauss valuation, the chain with no step."""
        self.field = field
        self.prefix = None
        self._tower = None  # the residue tower, built on first use (newton.py)
        self.steps = ()
        self.e_levels, self.e_rel, self.h_rel = [1], [None], [None]
        self.ell, self.ellp = [None], [None]

    # -- construction -----------------------------------------------------

    def _link(self, prefix, step):
        """Make self [prefix; step], checking only the step against the
        prefix."""
        phi, lam = step
        if not isinstance(lam, (int, Fraction)):
            raise InputError("augmentation radius must be an int or a Fraction")
        if not phi.is_monic() or phi.degree < 1:
            raise InputError("centres must be monic of positive degree")
        if phi.den != 1:
            raise InputError("centres must have integral coefficients (integer coordinates)")
        if prefix.steps and phi.degree % prefix.deg:
            raise InputError("centre degrees must divide along the chain")
        vphi = prefix._scaled(prefix.depth, phi)
        e_prev = prefix.e_levels[-1]
        if lam.numerator * e_prev <= vphi * lam.denominator:
            raise InputError("augmentation radius must exceed the current centre value")
        if prefix.steps:
            diff = phi - prefix.centre
            # MacLane chain condition: phi not v-equivalent to the previous centre
            if diff.is_zero() or prefix._scaled(prefix.depth, diff) > vphi:
                raise InputError("consecutive centres must not be v-equivalent")
        ev = lcm(e_prev, lam.denominator)
        e_i = ev // e_prev
        h_i = ev // lam.denominator * lam.numerator
        l_i = pow(h_i, -1, e_i) % e_i if e_i > 1 else 0
        self.field = prefix.field
        self.prefix = prefix
        self._tower = None
        self.steps = prefix.steps + (step,)
        self.e_levels = prefix.e_levels + [ev]
        self.e_rel = prefix.e_rel + [e_i]
        self.h_rel = prefix.h_rel + [h_i]
        self.ell = prefix.ell + [l_i]
        self.ellp = prefix.ellp + [(1 - l_i * h_i) // e_i]

    @staticmethod
    def gauss(field: BaseField) -> "MacLaneVal":
        return MacLaneVal(field)

    def augment_unchecked(self, phi: KPoly, lam) -> "MacLaneVal":
        """[self; phi -> lam], without testing that phi is a key polynomial.

        Chain-shape conditions (monic with integer coordinates, a finite
        radius above the centre value, non-equivalence with the previous
        centre) are still enforced.
        """
        out = MacLaneVal.__new__(MacLaneVal)
        out._link(self, AugStep(phi, lam))
        return out

    # -- basic data --------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def is_gauss(self) -> bool:
        return not self.steps

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
    def b_last(self) -> int:
        """e_n = e_v/epsilon_v, the denominator contributed by the last step."""
        return self.e_rel[-1] if self.steps else 1

    @property
    def ell_last(self) -> int:
        return self.ell[-1] if self.steps else 0

    # -- evaluation ---------------------------------------------------------

    def eval(self, g: KPoly):
        """v(g), an extended rational."""
        scaled = self._scaled(self.depth, g)
        return OO if scaled is OO else Fraction(scaled, self.e_levels[-1])

    def _scaled(self, level: int, g: KPoly):
        """e_level * v_level(g): an int, or OO when g is zero.  v_level is
        the valuation of the depth-``level`` prefix, e_level its group index;
        each radius is an int or a Fraction, h_level = e_level * lambda_level.
        Every centre has degree at least 1, so a constant g is its own
        expansion at every level and v_level(g) is its Gauss value v_0(g)."""
        size = len(g.rows)  # m * (deg g + 1), m coordinates per coefficient
        if not size:
            return OO
        if size == self.field.m:  # a constant
            return self.e_levels[level] * g.gauss_val()
        if level == 0:
            return g.gauss_val()
        e_i, h_i = self.e_rel[level], self.h_rel[level]
        return min(e_i * self._scaled(level - 1, a) + h_i * s
                   for s, a in enumerate(g.phi_expand(self.steps[level - 1].phi)) if a.rows)

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

