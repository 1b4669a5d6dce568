"""Exact rational arithmetic extended by a single point at infinity.

Finite values are ``fractions.Fraction``; the element at infinity is the
singleton ``OO``.  ``OO`` absorbs addition and dominates every finite value
in comparisons, which is exactly the arithmetic needed for pseudo-valuations:
``v(0) = OO``, ``OO + q = OO``, ``q < OO``.

Throughout the package an "extended rational" means either a Fraction or OO.
"""

from __future__ import annotations

from fractions import Fraction


class _Infinity:
    """The element OO with OO + q = OO and q < OO for every finite q."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OO"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("clusterfibre-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        # n * OO for positive multiplicity n; 0 * OO = 0 by the expansion
        # convention used in augmented valuations.
        if other == 0:
            return Fraction(0)
        if other > 0:
            return self
        raise ArithmeticError("negative multiple of OO")

    __rmul__ = __mul__


OO = _Infinity()


def qstr(x) -> str:
    """Compact display form: '5/3', '2', or 'inf'."""
    if x is OO:
        return "inf"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

