r"""MacLane pseudo-valuations on K[x] as augmentation chains.

A valuation is stored as the chain [(phi_1, lambda_1), ..., (phi_n, lambda_n)]
of augmentation steps over the Gauss valuation: the empty chain is Gauss, and
step i sends phi_i to lambda_i.  Evaluation descends the chain through
phi-adic expansions:

    v(sum a_s phi_n^s) = min_s ( v_{n-1}(a_s) + s * lambda_n ).

Only the last lambda may be infinite; such a chain is the pseudo-valuation
supported on the centre's roots.  Chains are validated and their numeric
data (group indices e_{v_i}, the relative e_i, h_i = e_{v_i} lambda_i, and
the Bezout pair ell_i h_i + ell'_i e_i = 1 with 0 <= ell_i < e_i) are
computed eagerly at construction; chains have depth at most log2(deg f), so
there is nothing to defer.

Values at depth i lie in (1/e_{v_i}) Z, so the evaluation kernel
``_scaled`` works on the integers e_{v_i} v_i, in which the recursion reads

    e_{v_i} v_i(g) = min_s ( e_i * e_{v_{i-1}} v_{i-1}(a_s) + h_i * s ),

with only s = 0 kept on an infinite last step.  A centre of degree above
deg g expands g to itself, so v_i(g) = v_{i-1}(g) there, and the kernel
starts at the deepest level whose centre has degree at most deg g.  The
radii lambda_i are kept as given (Fraction or int); ``eval`` converts the
scaled value to a Fraction once, and the order and meet compare those.

Comparison uses the discoid order: v <= w exactly when w sends the centre of
a minimal chain of v to at least v's radius.  The meet walks the minimal
chain of one argument and caps the first step that overshoots, which is
verified against the pointwise-minimum characterization by the property
tests rather than trusted.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InputError
from .field import BaseField, KPoly
from .rationals import OO


class AugStep:
    __slots__ = ("phi", "lam")

    def __init__(self, phi: KPoly, lam):
        self.phi = phi
        self.lam = lam

    def __eq__(self, other):
        return isinstance(other, AugStep) and other.phi == self.phi and other.lam == self.lam

    def __hash__(self):
        return hash((self.phi, self.lam))

    def __repr__(self):
        from .rationals import qstr
        return f"(deg{self.phi.degree} -> {qstr(self.lam)})"


class MacLaneVal:
    """An augmentation chain over the Gauss valuation, with cached invariants."""

    __slots__ = ("field", "steps", "e_levels", "e_rel", "h_rel", "ell", "ellp",
                 "_cache")

    def __init__(self, field: BaseField, steps=()):
        self.field = field
        self.steps = tuple(steps)
        self._cache = {}
        self._validate_and_cache()

    # -- construction -----------------------------------------------------

    def _validate_and_cache(self):
        # the lists are filled step by step, so the kernel evaluates each
        # prefix on the data of the steps below it
        self.e_levels = e_levels = [1]
        self.e_rel = e_rel = [None]
        self.h_rel = h_rel = [None]
        self.ell = ell = [None]
        self.ellp = ellp = [None]
        prev_deg = None
        for idx, step in enumerate(self.steps):
            phi, lam = step.phi, step.lam
            if not phi.is_monic() or phi.degree < 1:
                raise InputError("centres must be monic of positive degree")
            if phi.gauss_val() < 0:
                raise InputError("centres must have integral coefficients")
            if prev_deg is not None and phi.degree % prev_deg:
                raise InputError("centre degrees must divide along the chain")
            prev_deg = phi.degree
            vphi = self._scaled(idx, phi)
            if lam is not OO and lam.numerator * e_levels[-1] <= vphi * lam.denominator:
                raise InputError(
                    "augmentation radius must exceed the current centre value")
            if lam is OO and idx != len(self.steps) - 1:
                raise InputError("only the final radius may be infinite")
            if idx > 0:
                diff = phi - self.steps[idx - 1].phi
                # MacLane chain condition: phi not v-equivalent to the previous centre
                if diff.is_zero() or self._scaled(idx, diff) > vphi:
                    raise InputError("consecutive centres must not be v-equivalent")
            if lam is OO:
                e_levels.append(e_levels[-1])
                e_rel.append(None)
                h_rel.append(None)
                ell.append(None)
                ellp.append(None)
            else:
                ev = lcm(e_levels[-1], lam.denominator)
                e_levels.append(ev)
                e_i = ev // e_levels[-2]
                h_i = ev // lam.denominator * lam.numerator
                l_i = pow(h_i, -1, e_i) % e_i if e_i > 1 else 0
                lp_i = (1 - l_i * h_i) // e_i
                e_rel.append(e_i)
                h_rel.append(h_i)
                ell.append(l_i)
                ellp.append(lp_i)

    @staticmethod
    def gauss(field: BaseField) -> "MacLaneVal":
        return MacLaneVal(field, ())

    def augment_unchecked(self, phi: KPoly, lam) -> "MacLaneVal":
        """Extend the chain without testing that phi is a key polynomial.

        Chain-shape conditions (monic, integral, radius above centre value,
        non-equivalence with the previous centre) are still enforced.
        """
        return MacLaneVal(self.field, self.steps + (AugStep(phi, lam),))

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

    def truncation(self, depth: int) -> "MacLaneVal":
        if depth == self.depth:
            return self
        key = ("trunc", depth)
        if key not in self._cache:
            self._cache[key] = MacLaneVal(self.field, self.steps[:depth])
        return self._cache[key]

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

    # -- order structure ----------------------------------------------------

    def leq(self, other: "MacLaneVal") -> bool:
        """Discoid order: self <= other iff other(centre) >= radius on a minimal chain."""
        if self.is_gauss:
            return True
        mv = self.minimal_chain()
        lam = mv.radius
        val = other.eval(mv.centre)
        return val is OO or (lam is not OO and val >= lam)

    def same_valuation(self, other: "MacLaneVal") -> bool:
        return self.leq(other) and other.leq(self)

    def minimal_chain(self) -> "MacLaneVal":
        """Equivalent chain with strictly increasing centre degrees."""
        if "minimal" in self._cache:
            return self._cache["minimal"]
        keep = []
        for step in self.steps:
            if keep and keep[-1].phi.degree == step.phi.degree:
                keep[-1] = step
            else:
                keep.append(step)
        out = self if len(keep) == len(self.steps) else MacLaneVal(self.field, keep)
        self._cache["minimal"] = out
        return out

    def meet(self, other: "MacLaneVal") -> "MacLaneVal":
        if self.leq(other):
            return self
        if other.leq(self):
            return other
        mv = self.minimal_chain()
        best_depth = 0
        for d in range(1, mv.depth + 1):
            if mv.truncation(d).leq(other):
                best_depth = d
            else:
                break
        prefix = mv.truncation(best_depth)
        step = mv.steps[best_depth]
        lam2 = other.eval(step.phi)
        if lam2 is not OO and lam2 > prefix.eval(step.phi):
            return prefix.augment_unchecked(step.phi, lam2)
        return prefix

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

