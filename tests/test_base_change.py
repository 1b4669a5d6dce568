"""Exact mode over Q_p against exact mode over its unramified extensions, by
the base-change predictor of tests/oracles/base_change.py, and exact mode's
dual graph over k-bar against the geometric build's and its own over the
extensions."""

import functools
import json
import random

import pytest

from clusterfibre.cli import _CORPUS, parse_poly
from clusterfibre.clusters import build_cluster_tree
from clusterfibre.fibre import assemble, export, fibre_graph
from clusterfibre.field import BaseField

from graphs import isomorphic
from oracles.base_change import predict, signature

# leads that are not squares mod p: over an extension of even degree they
# become squares, so ubereven components turn split
NON_SQUARE_LEADS = [
    (3, "2*((x^2+1)^2-3^5)"),
    (7, "3*((x^2-7)^2-7^5)"),
    (5, "2*((x^2-5)^3-5^5)"),
    (3, "2*(x-3)*(x-12)*(x-6)*(x+3)"),
    (5, "2*(x-5)*(x+5)*(x-30)*(x+30)"),
]


def _draw(rng):
    """A product of one or two (g^k - p^e), g monic of degree 1 to 3 with
    coefficients in [-2, 2], k in {2, 3} and k not dividing e, so that no
    factor splits as g^k - c^k; of degree at most 12."""
    p = rng.choice((3, 5, 7))
    factors, degree = [], 0
    for _ in range(rng.choice((1, 2))):
        d, k = rng.choice((1, 2, 3)), rng.choice((2, 3))
        e = rng.choice([e for e in range(1, 8) if e % k])
        terms = [f"x^{d}"] + [f"{c:+d}*x^{i}" for i in range(d - 1, -1, -1)
                              if (c := rng.randrange(-2, 3))]
        factor = f"(({''.join(terms)})^{k}-{p}^{e})"
        if factor not in factors and degree + d * k <= 12:
            factors.append(factor)
            degree += d * k
    return p, "*".join(factors)


def _inputs():
    """The corpus, the non-square leads and 60 distinct draws: 76 inputs, so
    304 (input, k) pairs over the four degrees k."""
    rng, draws = random.Random(15), []
    while len(draws) < 60:
        draw = _draw(rng)
        if draw not in draws:
            draws.append(draw)
    return list(_CORPUS) + NON_SQUARE_LEADS + draws


INPUTS = _inputs()


def _draw_over_m2(rng):
    """A product of one or two (g^k - p^e) over Q_p(theta) of degree 2, g
    monic of degree 2 or 3 with coefficients c or c*th, c in [-2, 2], k in
    {2, 3} and k not dividing e."""
    p = rng.choice((3, 5, 7))
    factors = []
    for _ in range(rng.choice((1, 2))):
        d, k = rng.choice((2, 3)), rng.choice((2, 3))
        e = rng.choice([e for e in range(1, 8) if e % k])
        terms = [f"x^{d}"] + [f"{c:+d}{'*th' if rng.random() < 0.3 else ''}*x^{i}"
                              for i in range(d - 1, -1, -1) if (c := rng.randrange(-2, 3))]
        factor = f"(({''.join(terms)})^{k}-{p}^{e})"
        if factor not in factors:
            factors.append(factor)
    return p, "*".join(factors)


def _over_m2():
    rng = random.Random(36)
    return [_draw_over_m2(rng) for _ in range(20)]


OVER_M2 = _over_m2()


@functools.lru_cache(maxsize=None)
def _fibre(p, m, expr, mode="exact"):
    K = BaseField(p, m)
    return assemble(build_cluster_tree(parse_poly(expr, K), K, mode=mode))


def _fibre_json(p, m, expr):
    return json.loads(export(_fibre(p, m, expr), "json"))


def _split_count(sig):
    return sum(n for (_, _, split, _), n in sig["components"].items() if split)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_extension_of_degree_k_matches_the_prediction(k):
    flips = 0
    for p, expr in INPUTS:
        over_qp = _fibre_json(p, 1, expr)
        predicted = predict(over_qp, k)
        assert signature(_fibre_json(p, k, expr)) == predicted, (p, expr, k)
        flips += _split_count(predicted) != _split_count(signature(over_qp))
    # the split flags turn only over extensions of even degree
    assert flips >= 2 if k % 2 == 0 else flips == 0


def _both_modes():
    """(p, m, expr) of the base-change inputs over Q_p and the draws over
    Q_p(theta), m = 2."""
    return [(p, 1, expr) for p, expr in INPUTS] + [(p, 2, expr) for p, expr in OVER_M2]


def test_exact_dual_graph_is_the_geometric_one():
    # a cluster of residue degree f_v stands for f_v geometric clusters
    copied = 0
    for p, m, expr in _both_modes():
        exact = _fibre(p, m, expr)
        geometric = _fibre(p, m, expr, "geometric")
        assert isomorphic(fibre_graph(exact), fibre_graph(geometric)), (p, m, expr)
        copied += any(r.f_v > 1 for r in exact.records.values())
    assert copied >= 30


@pytest.mark.parametrize("k", [2, 3])
def test_exact_dual_graph_is_unchanged_over_an_extension(k):
    for p, expr in INPUTS:
        assert isomorphic(fibre_graph(_fibre(p, k, expr)),
                          fibre_graph(_fibre(p, 1, expr))), (p, expr, k)


def test_geometric_records_have_residue_degree_one():
    # every residual factor of a geometric build is linear; geometric dot
    # output rests on it, as fibre_graph lays f_v copies of each component
    for p, m, expr in _both_modes():
        fib = _fibre(p, m, expr, "geometric")
        assert all(r.f_v == 1 for r in fib.records.values()), (p, m, expr)
