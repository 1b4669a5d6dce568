"""Command-line front end.

Subcommands: ``picture`` (the cluster tree), ``invariants`` (the per-cluster
table, both normalizations), ``fibre`` (the assembled special fibre), and
``selfcheck`` (the cross-validation suites on a built-in corpus and, when
given, on the user input).  Polynomials are written in x (and th for the
unramified generator when the degree is larger than one), with integer or
rational literals, + - * and ^ with an integer literal exponent (no division).

Exit status: 0 on success, 1 on an InputError (usage errors included), 2 on
any other failure, which indicates a bug rather than bad input.
"""

from __future__ import annotations

import functools
import random
import sys
from fractions import Fraction
from math import gcd

from .errors import InputError, InternalInconsistency
from .field import BaseField, KPoly, expansion_scope
from .rationals import qstr
from .clusters import build_cluster_tree, cluster_chain, normalize_input
from .invariants import all_records
from .fibre import (MODE_NAMES, ChainSpec, assemble, cluster_dicts, export,
                    fibre_graph, json_text, poly_str)


# Largest degree an expression may reach, and largest exponent it may use:
# parse_poly refuses a power or product beyond either before computing it,
# so hostile input such as x^100000000 fails at once instead of building a
# dense polynomial.  Parentheses nest at most MAX_NESTING deep, well inside
# the interpreter's recursion limit (see _parse_power), and a literal has at
# most MAX_DIGITS digits, the most int() converts from text by default.
# A power, product or sum whose coefficients could reach more than
# MAX_COEFF_BITS bits is refused before it is computed too, so (10^1024)^1024
# fails at once, and so does a sum of reciprocals whose denominators multiply.
MAX_DEGREE = 1024
MAX_EXPONENT = 1024
MAX_NESTING = 256
MAX_DIGITS = 4300
MAX_COEFF_BITS = 2 ** 16


# ---------------------------------------------------------------------------
# Polynomial expressions


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0  # open parentheses

    def at(self, message, position=None) -> str:
        """The message of a parse error, naming where parsing stopped."""
        return f"{message} (at position {self.pos if position is None else position})"

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self):
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, c):
        got = self.peek()
        if got != c:
            raise InputError(self.at(f"expected {c!r}"))
        self.pos += 1

    def digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos - start > MAX_DIGITS:
            raise InputError(self.at(f"literal of {self.pos - start} digits exceeds "
                                     f"the limit {MAX_DIGITS}", start))
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        digits = self.digits()
        if not digits:
            raise InputError(self.at("expected a number", start))
        return int(digits)

    def number(self):
        """An integer literal as an int, an a/b literal as a Fraction."""
        value = self.integer()
        # rational literal a/b
        save = self.pos
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            self.skip_ws()
            dstart = self.pos
            digits = self.digits()
            if not digits:
                raise InputError(self.at("expected a denominator", dstart))
            den = int(digits)
            if den == 0:
                raise InputError(self.at("zero denominator", dstart))
            return Fraction(value, den)
        self.pos = save
        return value


def _coefficient_list(text: str):
    """``c0,c1,...``: optionally signed integer or a/b literals, as in
    parse_poly, and at most MAX_DEGREE + 1 of them."""
    toks, out = _Tokens(text), []
    while True:
        sign = -1 if toks.peek() == "-" else 1
        if toks.peek() in ("+", "-"):
            toks.take()
        out.append(sign * toks.number())
        _check_degree(len(out) - 1, toks)
        if toks.peek() is None:
            return out
        toks.expect(",")


def parse_poly(text: str, K: BaseField) -> KPoly:
    """Parse an expression in x (and th when the field has a generator)."""
    toks = _Tokens(text)
    poly = _parse_sum(toks, K)
    toks.skip_ws()
    if toks.pos != len(text):
        raise InputError(toks.at("trailing input"))
    return poly


def _parse_sum(toks, K):
    sign = 1
    if toks.peek() == "-":
        toks.take()
        sign = -1
    elif toks.peek() == "+":
        toks.take()
    acc = _parse_product(toks, K)
    if sign < 0:
        acc = -acc
    while True:
        c = toks.peek()
        if c not in ("+", "-"):
            return acc
        toks.take()
        rhs = _parse_product(toks, K)
        _check_sum_size(toks, acc, rhs)
        acc = acc + rhs if c == "+" else acc - rhs


def _parse_product(toks, K):
    acc = _parse_power(toks, K)
    while toks.peek() == "*":
        toks.take()
        rhs = _parse_power(toks, K)
        _check_degree(acc.degree + rhs.degree, toks)
        _check_size(toks, (acc, 1), (rhs, 1))
        acc = acc * rhs
    return acc


def _check_degree(degree, toks):
    if degree > MAX_DEGREE:
        raise InputError(toks.at(f"degree {degree} exceeds the limit {MAX_DEGREE}"))


def _check_size(toks, *powers):
    """Refuse the product of f^n over the pairs (f, n) when a bound on its
    coefficients' bits passes MAX_COEFF_BITS: n times the bit lengths of f's
    denominator and of its sum of |numerator|s, summed over the pairs.  The
    reduction by theta's minimal polynomial can add more; the degree caps
    bound how much."""
    num = sum(n * sum(map(abs, f.rows)).bit_length() for f, n in powers)
    _check_bits(toks, max(num, sum(n * f.den.bit_length() for f, n in powers)))


def _check_sum_size(toks, f, g):
    """Refuse f + g or f - g when a bound on its coefficients' bits passes
    MAX_COEFF_BITS: over the denominator f.den * g.den, each numerator is at
    most the sum of f's |numerator|s times g.den plus the converse."""
    nf, ng = (sum(map(abs, h.rows)).bit_length() for h in (f, g))
    df, dg = f.den.bit_length(), g.den.bit_length()
    _check_bits(toks, max(max(nf + dg, ng + df) + 1, df + dg))


def _check_bits(toks, bits):
    if bits > MAX_COEFF_BITS:
        raise InputError(toks.at(f"coefficients of up to {bits} bits exceed the limit "
                                 f"{MAX_COEFF_BITS}"))


def _parse_power(toks, K):
    # a parenthesized group is parsed here rather than in _parse_atom, so a
    # nesting level costs three frames: sum, product, power
    if toks.peek() == "(":
        toks.take()
        toks.depth += 1
        if toks.depth > MAX_NESTING:
            raise InputError(toks.at(f"parentheses nest deeper than the limit {MAX_NESTING}"))
        base = _parse_sum(toks, K)
        toks.expect(")")
        toks.depth -= 1
    else:
        base = _parse_atom(toks, K)
    if toks.peek() == "^":
        toks.take()
        toks.skip_ws()
        if toks.peek() == "-":
            raise InputError(toks.at("negative exponents are not allowed"))
        n = toks.integer()
        if toks.peek() == "/":  # the grammar has no division
            raise InputError(toks.at("exponents must be integers"))
        if n > MAX_EXPONENT:
            raise InputError(toks.at(f"exponent {n} exceeds the limit {MAX_EXPONENT}"))
        _check_degree(base.degree * n, toks)
        _check_size(toks, (base, n))
        return base ** n
    return base


def _parse_atom(toks, K):
    c = toks.peek()
    if c is None:
        raise InputError(toks.at("unexpected end of input"))
    if c == "x":
        toks.take()
        return K.x()
    if c == "t":
        # accept 'th' or 'theta'
        start = toks.pos
        word = ""
        while toks.pos < len(toks.text) and toks.text[toks.pos].isalpha():
            word += toks.text[toks.pos]
            toks.pos += 1
        if word not in ("th", "theta"):
            raise InputError(toks.at(f"unknown symbol {word!r}", start))
        if K.m == 1:
            raise InputError(toks.at("theta needs an unramified degree > 1", start))
        return K.theta
    if c.isdecimal():
        return K.poly([toks.number()])
    raise InputError(toks.at(f"unexpected character {c!r}"))


# ---------------------------------------------------------------------------
# Commands


@functools.cache
def _build_parser():
    """The argument parser, built once per process.  argparse is imported
    here, so that importing the package does not pay for it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            # a usage error is bad input: exit 1, like every other
            raise InputError(message)

    ap = _Parser(
        prog="clusterfibre",
        description="Cluster pictures and special fibres of hyperelliptic "
                    "curves y^2 = f(x) over p-adic fields")
    ap.add_argument("command", choices=["picture", "invariants", "fibre", "selfcheck"])
    ap.add_argument("expression", nargs="?", help="polynomial in x (and th)")
    ap.add_argument("--prime", "-p", type=int, help="odd residue characteristic")
    ap.add_argument("--unramified-degree", "-m", type=int, default=1)
    ap.add_argument("--coeffs", help="comma-separated coefficients c0,c1,...")
    ap.add_argument("--residue-mode", choices=["exact", "geometric"], default="exact")
    ap.add_argument("--format", choices=["json", "ascii", "dot", "tikz"], default="ascii")
    ap.add_argument("--seed", type=int, default=0)
    return ap


def _input_poly(args, K):
    if args.coeffs and args.expression:
        raise InputError("give the polynomial once: an expression or --coeffs")
    if args.coeffs:
        return K.poly(_coefficient_list(args.coeffs))
    if not args.expression:
        raise InputError("no polynomial given (at position 0)")
    return parse_poly(args.expression, K)


def _render_picture(tree, fmt):
    if fmt == "json":
        fib_like = {
            "base_field": {"p": tree.field.p, "m": tree.field.m},
            "normalization_shift": tree.shift,
            "mode": MODE_NAMES[tree.mode],
            "clusters": cluster_dicts(tree),
        }
        return json_text(fib_like) + "\n"
    if fmt == "tikz":
        return _render_tikz(tree)
    lines = [f"cluster picture over Q_{tree.field.p}"
             + (f"(theta, degree {tree.field.m})" if tree.field.m > 1 else "")
             + (f", x scaled by p^{tree.shift}" if tree.shift else "")]
    if tree.root is None:
        lines.append("  single orbit, no proper clusters")
        return "\n".join(lines) + "\n"

    def walk(node, depth):
        pad = "  " * (depth + 1)
        lines.append(f"{pad}cluster #{node.id}: degree={node.degree} "
                     f"radius={qstr(node.radius)} size={node.size} "
                     f"centre={poly_str(node.centre)}"
                     + (" degree-minimal" if node.is_degree_minimal else ""))
        for leaf in node.leaves:
            lines.append(f"{pad}  orbit: degree={leaf.degree} ({leaf.certificate})")
        for c in node.children:
            walk(c, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines) + "\n"


def _render_tikz(tree):
    """Best-effort nested sketch of the cluster picture."""
    lines = ["\\begin{tikzpicture}"]
    y = [0.0]

    def walk(node, x):
        y0 = y[0]
        label = f"deg {node.degree}, radius {qstr(node.radius)}"
        for leaf in node.leaves:
            lines.append(f"  \\fill ({x + 0.4:.1f},{y[0]:.1f}) circle (1.5pt) "
                         f"node[right] {{orbit {leaf.degree}}};")
            y[0] -= 0.5
        for c in node.children:
            walk(c, x + 0.8)
        y1 = y[0] + 0.5
        mid = (y0 + y1) / 2
        lines.append(f"  \\draw ({x:.1f},{mid:.1f}) ellipse "
                     f"({0.6 + 0.3 * _height(node):.1f} and {max(0.4, (y0 - y1) / 2 + 0.4):.1f});")
        lines.append(f"  \\node[left] at ({x - 0.7:.1f},{mid:.1f}) {{{label}}};")

    if tree.root is not None:
        walk(tree.root, 0.0)
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _height(node):
    if not node.children:
        return 0
    return 1 + max(_height(c) for c in node.children)


def _render_invariants(tree, records, fmt):
    if fmt == "json":
        payload = {
            "base_field": {"p": tree.field.p, "m": tree.field.m},
            "normalization_shift": tree.shift,
            "clusters": [],
        }
        for node in tree.nodes:
            payload["clusters"].append({
                "id": node.id, "degree": node.degree, "radius": qstr(node.radius),
                "size": node.size, "invariants": records[node.id].as_dict(),
            })
        return json_text(payload) + "\n"
    cols = ["id", "b", "e", "nu", "n", "m", "i", "p", "s", "gamma", "delta",
            "p0", "s0", "gamma0", "genus"]
    rows = [cols]
    for node in tree.nodes:
        r = records[node.id]
        rows.append([str(node.id), str(r.b), str(r.e), qstr(r.nu), str(r.n),
                     str(r.m), str(r.i_v), str(r.p), qstr(r.s), str(r.gamma),
                     str(r.delta), str(r.p0), qstr(r.s0), str(r.gamma0),
                     str(r.genus)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(cols))]
    out = []
    for idx, row in enumerate(rows):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            out.append("-" * len(out[0]))
    out.append("")
    out.append("intro-normalization annotation (nu scaled by the cluster degree):")
    for node in tree.nodes:
        r = records[node.id]
        out.append(f"  #{node.id}: nu'={qstr(r.nu_intro)} s'={qstr(r.s_intro)} "
                   f"s0'={qstr(r.s0_intro)}")
    return "\n".join(out) + "\n"


def run(argv=None) -> int:
    """The command line: 0 on success, 1 on an InputError, 2 on any other
    failure, which is a bug: an InternalInconsistency names its broken law,
    anything else its type.  ``--help`` raises SystemExit(0)."""
    try:
        args = _build_parser().parse_args(argv)
        if args.prime is None and (args.command != "selfcheck" or args.expression
                                   or args.coeffs):
            raise InputError("--prime is required")
        if args.command == "selfcheck":
            return 0 if selfcheck(args) else 2
        return _run_pipeline(args)
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except InternalInconsistency as ex:
        print(f"internal consistency failure: {str(ex) or type(ex).__name__}",
              file=sys.stderr)
        return 2
    except Exception as ex:
        what = f"{type(ex).__name__}: {ex}" if str(ex) else type(ex).__name__
        print(f"internal error: {what}", file=sys.stderr)
        return 2


# The base field of each (p, m), once per process, with the x and the
# unramified extensions it keeps: a later run builds none of them again.
_base_field = functools.lru_cache(maxsize=16)(BaseField)


@expansion_scope
def _run_pipeline(args) -> int:
    """picture, invariants or fibre: build, records, assemble and export
    share one expansion memo."""
    K = _base_field(args.prime, args.unramified_degree)
    f = _input_poly(args, K)
    tree = build_cluster_tree(f, K, mode=args.residue_mode, seed=args.seed)
    if args.command == "picture":
        sys.stdout.write(_render_picture(tree, args.format))
        return 0
    if tree.root is None:
        raise InputError("no proper clusters (degree < 2?)")
    records = all_records(tree)
    if args.command == "invariants":
        sys.stdout.write(_render_invariants(tree, records, args.format))
        return 0
    fib = assemble(tree, records)
    fmt = "ascii" if args.format == "tikz" else args.format
    data = export(fib, fmt)
    # a text stream without a byte buffer (io.StringIO) takes the text
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(data.decode())
    else:
        buffer.write(data)
    return 0


# ---------------------------------------------------------------------------
# Selfcheck


_CORPUS = [
    (5, "(x^2-5)^3 - 5^5"),
    (3, "(x^2-3)^3 - 3^5"),
    (7, "(x^3-2*7)^2 - 7*x^2*(x^3-2*7)"),
    (3, "(x^3-2*3)^2 - 3*x^2*(x^3-2*3)"),
    (5, "(x-5)*(x+5)*(x-30)*(x+30)"),
    (5, "(x-5)*(x-30)*(x-10)*(x-35)*(x-15)*(x-40)"),
    (5, "x^3-5"),
    (5, "x^2-5"),
    (3, "(x-3)*(x-12)*(x-6)*(x+3)"),
    (5, "((x^2-5)^3-5^5)*(x^2+5)"),
    (3, "(x^2+1)^2 - 3^5"),  # forces a residue extension in geometric mode
]


def selfcheck(args) -> bool:
    """Run the property suites; print one line per suite; True iff all pass.
    Bad user input raises (exit 1) before any suite runs."""
    inputs = list(_CORPUS)
    if args.expression or args.coeffs:
        K = BaseField(args.prime, args.unramified_degree)
        f = _input_poly(args, K)
        normalize_input(f)  # a constant or repeated roots is bad input
        inputs.append((args.prime, None, K, f))
    rng = random.Random(args.seed)
    ok = True
    ok &= _report("farey chain properties", _check_farey(rng))
    for entry in inputs:
        if len(entry) == 2:
            p, expr = entry
            K = BaseField(p)
            f = parse_poly(expr, K)
            label = f"p={p} {expr}"
        else:
            p, _, K, f = entry
            label = f"p={p} (user input)"
        ok &= _report(f"corpus [{label}]", _check_instance(K, f, args, rng))
    return ok


def _report(name, passed) -> bool:
    print(("PASS  " if passed else "FAIL  ") + name)
    return passed


def _check_farey(rng) -> bool:
    try:
        for _ in range(500):
            alpha = rng.randrange(1, 7)
            # a = n/d and b = a - gn/gd as reduced pairs
            n, d = rng.randrange(-60, 60), rng.randrange(1, 12)
            gn, gd = rng.randrange(1, 40), rng.randrange(1, 12)
            g, h = gcd(n, d), gcd(n * gd - gn * d, d * gd)
            a, b = (n // g, d // g), ((n * gd - gn * d) // h, d * gd // h)
            ch = ChainSpec(alpha, a, b)
            seq = ch.sequence
            for (xn, xd), (yn, yd) in zip(seq, seq[1:]):
                if xn * yd - yn * xd != 1:
                    return False
            for (xn, xd), (yn, yd) in zip(seq, seq[2:]):
                if xn * yd - yn * xd == 1:
                    return False
            t = rng.randrange(-4, 5)
            if ChainSpec(alpha, (a[0] + t * a[1], a[1]), (b[0] + t * b[1], b[1])).dens != ch.dens:
                return False
    except Exception as ex:  # any failure, including internal asserts, fails the suite
        print(f"      exception: {type(ex).__name__}: {ex}", file=sys.stderr)
        return False
    return True


def _check_instance(K, f, args, rng) -> bool:
    """Tree laws, record cross-checks, reduction properties, and the
    ell-choice invariance of the assembled fibre, on one input."""
    try:
        for mode in ("exact", "geometric"):
            tree = build_cluster_tree(f, K, mode=mode, seed=args.seed)
            if tree.root is None:
                continue
            records = all_records(tree)  # nu identity + genus cross-check inside
            fib = assemble(tree, records)
            shifted = assemble(tree, all_records(tree, ell_offset=1))
            # each component's data is intrinsic, so the two graphs are equal,
            # not only isomorphic
            g, h = fibre_graph(fib), fibre_graph(shifted)
            if (g.labels, g.edges) != (h.labels, h.edges):
                return False
            if not _check_reduction_properties(tree, rng):
                return False
            if not _check_truncated_reads(tree):
                return False
    except Exception as ex:  # any failure, including internal asserts, fails the suite
        print(f"      exception: {type(ex).__name__}: {ex}", file=sys.stderr)
        return False
    return True


def _check_reduction_properties(tree, rng) -> bool:
    from .newton import reduce_poly
    K = tree.field
    for node in tree.nodes:
        cc = cluster_chain(node)
        done = 0
        while done < 200 // max(1, len(tree.nodes)):
            g = K.poly([rng.randrange(-99, 99) for _ in range(rng.randrange(1, 5))])
            h = K.poly([rng.randrange(-99, 99) for _ in range(rng.randrange(1, 5))])
            if g.is_zero() or h.is_zero():
                continue
            rg, rh, rgh = reduce_poly(cc, g), reduce_poly(cc, h), reduce_poly(cc, g * h)
            if rgh.poly != rg.poly * rh.poly:
                return False
            if rg.poly.degree != (rg.i1 - rg.i0) // rg.b or rg.poly[0].is_zero():
                return False
            done += 1
    return True


def _check_truncated_reads(tree) -> bool:
    """Discovery and the chain stage read only the first coefficients of
    each expansion of f.  Against the whole expansion: each node's discovery
    edge, of slope its last radius and right end size / deg phi, is an edge
    of the full Newton polygon over its prefix, and its reduction along the
    cluster chain is that of all of f.  So an edge that runs past what was
    read fails here as well as one that ends short of it."""
    from .newton import newton_polygon, reduce_poly
    for node in tree.nodes:
        v = node.valuation
        phi, lam = v.steps[-1]
        width = node.size // phi.degree
        if not any(e.lam == lam and e.i1 == width
                   for e in newton_polygon(v.prefix, phi, tree.f)):
            return False
        full, red = reduce_poly(cluster_chain(node), tree.f), node.reduction
        if ((full.alpha, full.i0, full.i1, full.b, full.h_exponent, full.poly)
                != (red.alpha, red.i0, red.i1, red.b, red.h_exponent, red.poly)):
            return False
    return True


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
