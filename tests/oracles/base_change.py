"""Unramified base change as a metamorphic oracle for exact mode.

Take f with coefficients in Q_p and its exact-mode fibre over K = Q_p and
over K', the unramified extension of degree k.  Unramified base change keeps
a regular SNC model regular and SNC, and Frobenius acts on the picture as in
the construction over K^nr (Dokchitser-Dokchitser-Maistret-Morgan, arXiv
1808.02936): each cluster orbit of residue degree f_v over K becomes
g = gcd(f_v, k) orbits over K', each of residue degree f_v / g.  So the
fibre over K' is predicted from the JSON of the fibre over K alone:

- per component (genus, multiplicity, split, f_v): g copies with f_v / g.
  ``split`` turns true when n = 2, u = 0 (an ubereven cluster) and k / g is
  even: then k'_v has even degree over k_v, so a lead that is not a square
  in k_v becomes one, and the multiplicities of f~ do not change;
- per chain (row, alpha, mults, side, open or not, copies): g copies with
  ``copies`` f_v / g, f_v that of the chain's cluster;
- per open-P^1 family (multiplicity, count): g copies with count / g;
- per proper cluster (size, f_v): g copies with size / g and f_v / g.

Radii and the chain endpoints a and b are not invariant: a radius is the
value of the centre, and a centre of degree d over K may have linear
conjugates over K' whose mutual distances it included.  The prediction
leaves them out.

The faults this oracle must catch, both invisible to the other tier-1
tests: the exact-mode ``split`` of ``fibre.assemble`` testing the constant
f~ with the Euler exponent (p - 1) / 2 in place of (|k_v| - 1) / 2, and
chain ``geometric_copies`` of f_v + 1.  A fault that breaks K and K' alike,
such as a ``split`` that is always true at u = 0, escapes it by
construction.
"""

from collections import Counter
from fractions import Fraction
from math import gcd


def signature(data: dict) -> dict:
    """The multisets the relation compares, from the JSON of an exact-mode
    fibre: each entry keyed as in the module docstring."""
    proper = {c["id"]: c for c in data["clusters"] if c["proper"]}
    f_v = {cid: c["invariants"]["f"] for cid, c in proper.items()}
    fibre = data["fibre"]
    return {
        "components": Counter((c["genus"], c["multiplicity"], c["split"], f_v[c["cluster"]])
                              for c in fibre["components"]),
        "chains": Counter(_chain_key(ch, ch["copies"]) for ch in fibre["chains"]),
        "open_p1": Counter((fam["multiplicity"], fam["count"]) for fam in fibre["open_p1"]),
        "clusters": Counter((c["size"], f_v[cid]) for cid, c in proper.items()),
    }


def predict(data: dict, k: int) -> dict:
    """The signature of the fibre over the unramified extension of degree k,
    from the JSON ``data`` of the exact-mode fibre of the same f over Q_p."""
    if data["base_field"]["m"] != 1:
        raise ValueError("the prediction starts from a fibre over Q_p")
    proper = {c["id"]: c for c in data["clusters"] if c["proper"]}
    f_v = {cid: c["invariants"]["f"] for cid, c in proper.items()}
    g = {cid: gcd(f, k) for cid, f in f_v.items()}
    fibre = data["fibre"]
    out = {name: Counter() for name in ("components", "chains", "open_p1", "clusters")}
    for c in fibre["components"]:
        cid = c["cluster"]
        split = c["split"] or (proper[cid]["invariants"]["ubereven"] and (k // g[cid]) % 2 == 0)
        key = (c["genus"], c["multiplicity"], split, Fraction(f_v[cid], g[cid]))
        out["components"][key] += g[cid]
    for ch in fibre["chains"]:
        cid = ch["from"]["cluster"]
        out["chains"][_chain_key(ch, Fraction(f_v[cid], g[cid]))] += g[cid]
    for fam in fibre["open_p1"]:
        cid = fam["cluster"]
        out["open_p1"][(fam["multiplicity"], Fraction(fam["count"], g[cid]))] += g[cid]
    for cid, c in proper.items():
        out["clusters"][(Fraction(c["size"], g[cid]), Fraction(f_v[cid], g[cid]))] += g[cid]
    return out


def _chain_key(ch: dict, copies) -> tuple:
    return (ch["row"], ch["alpha"], tuple(ch["mults"]), ch["from"]["side"],
            ch["to"] == "open", copies)
