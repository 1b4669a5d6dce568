"""Exact rational arithmetic extended by a single point at infinity.

Finite values are ``fractions.Fraction``; the element at infinity is the
singleton ``OO``, the value of 0: ``v(0) = OO``, above every finite value,
no arithmetic.  A valuation compares OO with finite values and never adds
or scales it.

Throughout the package an "extended rational" means either a Fraction or OO.
"""

from __future__ import annotations

from math import gcd


class _Infinity:
    """The element OO = v(0): q < OO for every finite q, no arithmetic."""

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


OO = _Infinity()


def qstr(x) -> str:
    """Compact display form: '5/3', '2', or 'inf'.  x is OO, an int or a
    Fraction, read off its numerator and denominator without a copy."""
    if x is OO:
        return "inf"
    if type(x) is int:
        return int.__repr__(x)
    return ratio_str(x.numerator, x.denominator)


def ratio_str(n: int, d: int) -> str:
    """qstr of n / d for ints n and d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return f"{n}" if d == 1 else f"{n}/{d}"
