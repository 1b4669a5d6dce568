"""The minimal unimodular sequence by recursive insertion: the reference
that ``fibre._unimodular_sequence`` is compared with.

Between two fractions that are not unimodular neighbours, every unimodular
sequence passes through the fraction of least denominator strictly inside
the interval, so inserting it and recursing on both halves gives the
minimal sequence.  One stack frame per inserted fraction: callers raise the
recursion limit for long sequences."""

from fractions import Fraction


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator fraction strictly inside (lo, hi)."""
    n = lo.numerator // lo.denominator  # floor
    if lo < n + 1 < hi:
        return Fraction(n + 1)
    frac = lo - n
    if frac == 0:
        # interval (0, hi - n) with hi - n <= 1: take 1/q with minimal q
        width = hi - n
        q = (width.denominator // width.numerator) + 1
        return n + Fraction(1, q)
    inner = simplest_between(1 / (hi - n), 1 / frac)
    return n + 1 / inner


def det(a: Fraction, b: Fraction) -> int:
    return a.numerator * b.denominator - b.numerator * a.denominator


def unimodular_sequence(A: Fraction, B: Fraction) -> list:
    """A > ... > B, consecutive terms of determinant one, fewest terms."""
    if det(A, B) == 1:
        return [A, B]
    m = simplest_between(B, A)
    return unimodular_sequence(A, m)[:-1] + unimodular_sequence(m, B)
