"""The graded reduction H_{level, alpha}(g) for tests, over newton._graded_H."""

from fractions import Fraction

from clusterfibre import newton
from clusterfibre.errors import InputError
from clusterfibre.ff import FFPoly


def graded_H(v, level, alpha, g):
    """(shift, poly) with H_{level, alpha}(g) = X^shift * poly(X) over
    k_level: zero when the level value of g exceeds alpha, InputError when
    it falls below, or when alpha is not in the value group at that level."""
    scaled = alpha * v.e_levels[level]
    if Fraction(scaled).denominator != 1:
        raise InputError(f"{alpha} is not in the value group at level {level}")
    tower = newton.residue_tower(v)
    kf = tower.fields[level]
    val = v._scaled(level, g)
    if val < scaled:
        raise InputError("graded reduction of an element below the stated degree")
    if val != scaled:
        return 0, FFPoly(kf, [])
    shift, rows = newton._graded_H(v, tower, level, val, g)
    return shift, FFPoly._of(kf, rows)
