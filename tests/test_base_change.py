"""Exact mode over Q_p against exact mode over its unramified extensions, by
the base-change predictor of tests/oracles/base_change.py."""

import functools
import json
import random

import pytest

from clusterfibre.cli import _CORPUS, parse_poly
from clusterfibre.clusters import build_cluster_tree
from clusterfibre.fibre import assemble, export
from clusterfibre.field import BaseField

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


@functools.lru_cache(maxsize=None)
def _fibre_json(p, m, expr):
    K = BaseField(p, m)
    tree = build_cluster_tree(parse_poly(expr, K), K)
    return json.loads(export(assemble(tree), "json"))


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
