"""Parser, commands, exit codes, determinism."""

import ast
import builtins
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import clusterfibre
from clusterfibre.field import BaseField
from clusterfibre import cli, field, newton
from clusterfibre.cli import parse_poly, run
from clusterfibre.errors import InputError


class TestParse:
    def test_paper_sextic(self):
        K = BaseField(5)
        f = parse_poly("(x^2-5)^3 - 5^5", K)
        assert f == K.poly([-5, 0, 1]) ** 3 - K.poly([5 ** 5])

    def test_bare_x(self):
        K = BaseField(5)
        assert parse_poly("x", K) == K.x()

    def test_worked_cubic(self):
        K = BaseField(7)
        f = parse_poly("(x^3-2*7)^2 - 7*x^2*(x^3-2*7)", K)
        phi = K.poly([-2 * 7, 0, 0, 1])
        assert f == phi * phi - K.poly([0, 0, 7]) * phi

    def test_rational_literal(self):
        K = BaseField(5)
        assert parse_poly("1/2*x + 3/4", K) == K.poly([F(3, 4), F(1, 2)])

    def test_unary_minus(self):
        K = BaseField(5)
        assert parse_poly("-x^2 + 5", K) == K.poly([5, 0, -1])

    def test_theta(self):
        K = BaseField(3, 2)
        f = parse_poly("x - th", K)
        assert f == K.poly([-K.theta, K.one])
        with pytest.raises(InputError, match="theta needs an unramified degree > 1"):
            parse_poly("th", BaseField(3, 1))

    def test_error_position(self):
        K = BaseField(5)
        with pytest.raises(InputError) as err:
            parse_poly("x^2 + ", K)
        assert str(err.value).endswith("(at position 6)")

    def test_print_parse_fixpoint(self):
        from clusterfibre.fibre import poly_str
        K = BaseField(5)
        for expr in ["(x^2-5)^3 - 5^5", "x^3 - 1/5*x + 7", "-x + 2"]:
            f = parse_poly(expr, K)
            assert parse_poly(poly_str(f), K) == f

    def test_print_parse_fixpoint_random(self):
        import random
        from fractions import Fraction
        from clusterfibre.fibre import poly_str
        rng = random.Random(2024)
        for m in (1, 2):
            K = BaseField(3, m)
            for _ in range(60):
                coeffs = []
                for _ in range(rng.randrange(1, 7)):
                    coords = [Fraction(rng.randrange(-30, 30), rng.randrange(1, 5))
                              for _ in range(m)]
                    coeffs.append(K.elem(*coords))
                f = K.poly(coeffs)
                if f.is_zero():
                    continue
                assert parse_poly(poly_str(f), K) == f


class TestCommands:
    def test_picture_ascii(self, capsys):
        code = run(["picture", "(x^2-5)^3 - 5^5", "--prime", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "degree=1 radius=1/2 size=6" in out
        assert "degree=2 radius=5/3 size=6" in out
        assert "orbit: degree=6" in out

    def test_picture_tikz(self, capsys):
        code = run(["picture", "(x^2-5)^3 - 5^5", "--prime", "5", "--format", "tikz"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("\\begin{tikzpicture}")

    def test_picture_json(self, capsys):
        code = run(["picture", "(x^2-5)^3 - 5^5", "--prime", "5", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        proper = [c for c in data["clusters"] if c["proper"]]
        orbits = [c for c in data["clusters"] if not c["proper"]]
        assert [c["radius"] for c in proper] == ["1/2", "5/3"]
        assert orbits[0]["degree"] == 6

    def test_invariants_table(self, capsys):
        code = run(["invariants", "(x^2-5)^3 - 5^5", "--prime", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nu'" in out  # both normalizations shown
        lines = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
        assert len(lines) == 2

    def test_fibre_json_deterministic(self, capsys):
        argv = ["fibre", "(x^2-5)^3 - 5^5", "--prime", "5",
                "--residue-mode", "geometric", "--format", "json"]
        assert run(argv) == 0
        out1 = capsys.readouterr().out
        assert run(argv) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        data = json.loads(out1)
        assert data["mode"] == "geometric"
        assert len(data["fibre"]["components"]) == 2

    def test_fibre_dot(self, capsys):
        code = run(["fibre", "(x^2-5)^3 - 5^5", "--prime", "5", "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("graph fibre {")

    def test_coeffs_input(self, capsys):
        code = run(["picture", "--coeffs=-5,0,1", "--prime", "5"])
        assert code == 0
        assert "size=2" in capsys.readouterr().out
        K = BaseField(5)
        assert cli._coefficient_list(" +5, -3/4 ,1") == [5, F(-3, 4), 1]
        assert K.poly(cli._coefficient_list("-5,0,1")) == parse_poly("x^2-5", K)

    def test_malformed_input(self, capsys):
        assert run(["picture", "x^2 +", "--prime", "5"]) == 1
        assert run(["picture", "x^2-25", "--prime", "0"]) == 1
        assert run(["fibre", "x", "--prime", "5"]) == 1  # no proper clusters
        assert run(["picture", "(x-5)^2", "--prime", "5"]) == 1  # not separable
        assert run(["fibre", "x^2-5/0", "--prime", "5"]) == 1  # zero denominator

    def test_missing_prime(self, capsys):
        assert run(["picture", "x^2-5"]) == 1

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_unramified_degree_below_one(self, m, capsys):
        assert run(["fibre", "x^2-5", "--prime", "5", "-m", m]) == 1
        assert capsys.readouterr().err == "error: unramified degree must be at least 1\n"

    @pytest.mark.parametrize("m", ["65", "400"])
    def test_unramified_degree_above_the_cap(self, m, capsys):
        # the search for a defining polynomial of degree m is refused
        # before it starts
        start = time.perf_counter()
        assert run(["picture", "x^2-3", "--prime", "3", "-m", m]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: unramified degree must be at most 64\n"

    def test_unramified_degree_at_the_cap(self, capsys):
        assert field.MAX_UNRAMIFIED_DEGREE == 64
        # the cap is a constant: no flag moves it
        assert run(["fibre", "x^2-5", "--prime", "5", "--extension-budget", "64"]) == 1
        assert "unrecognized arguments: --extension-budget" in capsys.readouterr().err
        assert BaseField(3, 64).m == 64

    def test_large_primes_are_fast(self, capsys):
        # primality is settled at once: a prime near 10^18 runs, a composite
        # without small factors and a prime past the exact range exit 1
        start = time.perf_counter()
        assert run(["picture", "x^2-5", "--prime", "1000000000000000003"]) == 0
        assert run(["picture", "x^2-5", "--prime", str(1000000007 * 1000000009)]) == 1
        assert run(["picture", "x^2-5", "--prime", str(2 ** 89 - 1)]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: residue characteristic must be an odd prime"
        assert err[1].startswith("error: residue characteristic must be below")

    @pytest.mark.parametrize("argv, message", [
        (["fibre", "x^2-5", "--prime", "abc"], "argument --prime/-p: invalid int value: 'abc'"),
        (["fibre", "x^2-5", "--prime", "5", "--format", "xml"], "argument --format: invalid choice"),
        (["fibre", "x^2-5", "--prime", "5", "--bogus"], "unrecognized arguments: --bogus"),
        (["draw", "x^2-5", "--prime", "5"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_errors_exit_1(self, argv, message, capsys):
        # a usage error is bad input like any other, not argparse's exit 2
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: clusterfibre")

    def test_assertion_is_an_internal_failure(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise AssertionError("x")

        monkeypatch.setattr(cli, "build_cluster_tree", broken)
        assert run(["fibre", "x^2-5", "--prime", "5"]) == 2
        assert "internal consistency failure: x" in capsys.readouterr().err

    def test_inexact_subresultant_division_is_an_internal_failure(self, monkeypatch, capsys):
        # a Bareiss inverse whose denominator is off by a large prime makes
        # the resultant's exact divisions leave a remainder
        inverse = field._zinverse

        def off(nums, mod):
            y, d = inverse(nums, mod)
            return y, d * (2 ** 61 - 1)

        monkeypatch.setattr(field, "_zinverse", off)
        assert run(["fibre", "x^4+x+1", "--prime", "3"]) == 2
        err = capsys.readouterr().err
        assert "internal consistency failure: subresultant division is not exact" in err

    def test_broken_integrality_is_an_internal_failure(self, monkeypatch, capsys):
        # an index i off by one on a level with e_i = 2 puts the graded
        # values of the expansion terms off the value group; the scaled
        # kernel must stop there, not floor them into a wrong residue
        ui_pair = newton._ui_pair

        def off(e_i, h_i, scaled_alpha):
            u, i = ui_pair(e_i, h_i, scaled_alpha)
            return u, (i + 1) % e_i

        monkeypatch.setattr(newton, "_ui_pair", off)
        assert run(["fibre", "(x^2-5)^3 - 5^5", "--prime", "5"]) == 2
        err = capsys.readouterr().err
        assert "internal consistency failure: graded value in the value group at level 0" in err

    def test_term_below_the_line_is_an_internal_failure(self, monkeypatch, capsys):
        # a child value one above the true one puts the on-line expansion
        # terms of the graded descent below the line: a broken law of the
        # descent, which must exit 2 and not report bad input
        child_value = newton._child_value

        def above(v, level, scaled_alpha, s):
            return child_value(v, level, scaled_alpha, s) + 1

        monkeypatch.setattr(newton, "_child_value", above)
        assert run(["fibre", "(x^2-5)^3 - 5^5", "--prime", "5"]) == 2
        err = capsys.readouterr().err
        assert "internal consistency failure: graded reduction below the stated degree" in err

    def test_geometric_over_unramified_base(self, capsys):
        # extending GF(25) by a cubic with prime-field coefficients: the
        # first generator tried lies in GF(125), not a primitive element
        code = run(["fibre", "(x^3+x+1)^2-5^5", "--prime", "5", "-m", "2",
                    "--residue-mode", "geometric", "--format", "dot"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:-1]
        labels = [tuple(int(x) for x in re.findall(r"\d+", l)[1:]) for l in lines if "label" in l]
        edges = [tuple(int(x) for x in re.findall(r"\d+", l)) for l in lines if "--" in l]
        total = sum(m * (2 * g - 2) for m, g in labels)
        total += sum(labels[a][0] + labels[b][0] for a, b in edges)
        assert total == 2 * ((6 - 1) // 2) - 2


class TestHostileInput:
    @pytest.mark.parametrize("expr", ["x^100000000", "(x+1)^5000"])
    def test_large_exponent_fails_fast(self, expr, capsys):
        start = time.perf_counter()
        assert run(["picture", expr, "--prime", "5"]) == 1
        assert time.perf_counter() - start < 1
        assert f"exceeds the limit {cli.MAX_EXPONENT}" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["(x^40)^40", "x^600*x^600", "x^512*x^512*x"])
    def test_large_degree_fails_fast(self, expr, capsys):
        start = time.perf_counter()
        assert run(["picture", expr, "--prime", "5"]) == 1
        assert time.perf_counter() - start < 1
        assert f"exceeds the limit {cli.MAX_DEGREE}" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["x^2-(10^1024)^1024", "x^2-((10^1024)^1024)^1024",
                                      "x-(1/" + "7" * 4300 + ")^5",
                                      "x-" + "*".join(["9" * 4300] * 5)],
                             ids=["power", "tower", "denominator", "product"])
    def test_large_coefficients_fail_fast(self, expr, capsys):
        # the size bound of a power or product is checked before computing it
        start = time.perf_counter()
        assert run(["picture", expr, "--prime", "5"]) == 1
        assert time.perf_counter() - start < 1
        assert f"bits exceed the limit {cli.MAX_COEFF_BITS}" in capsys.readouterr().err

    def test_large_sum_fails_fast(self, capsys):
        # the denominator of a sum of reciprocals is the product of theirs:
        # twenty 4,299-digit denominators pass the cap at the fifth term
        rng = random.Random(0)
        terms = "+".join(f"1/{rng.randrange(10 ** 4298, 10 ** 4299)}" for _ in range(20))
        start = time.perf_counter()
        assert run(["picture", f"x^2-5-({terms})", "--prime", "5"]) == 1
        assert time.perf_counter() - start < 1
        assert f"bits exceed the limit {cli.MAX_COEFF_BITS}" in capsys.readouterr().err

    def test_sum_cap_bounds_the_numerator_too(self):
        # an integer of about 57,000 bits plus 1/d with d of about 14,000
        # bits: the denominators stay small, the numerator passes the cap
        K = BaseField(5)
        big, d = "*".join(["9" * cli.MAX_DIGITS] * 4), "7" * cli.MAX_DIGITS
        assert parse_poly(f"x+{big}", K).degree == 1
        with pytest.raises(InputError, match="bits exceed the limit"):
            parse_poly(f"x+{big}+1/{d}", K)

    def test_coefficient_cap_admits_the_other_caps(self):
        # a literal of MAX_DIGITS digits and (x+1)^MAX_EXPONENT stay inside it
        K = BaseField(5)
        big = int("9" * cli.MAX_DIGITS)
        assert parse_poly("9" * cli.MAX_DIGITS + "*x^2*" + "9" * cli.MAX_DIGITS, K)[2].nums == (big * big,)
        assert parse_poly(f"(x+1)^{cli.MAX_EXPONENT}", K)[1].nums == (cli.MAX_EXPONENT,)

    @pytest.mark.parametrize("coeffs", ["1e3000000,0,1", "1.5,0,1", "0x10,1", "1_0,1",
                                        "1,,1", "1,0,1,", "--1,1", "1/-2,1"])
    def test_coefficient_list_takes_only_literals(self, coeffs, capsys):
        # the entries of --coeffs are the integer and a/b literals of an
        # expression; exponent notation must not reach Fraction
        start = time.perf_counter()
        assert run(["picture", "--coeffs=" + coeffs, "--prime", "3"]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("error: expected")

    def test_limits_are_inclusive(self):
        K = BaseField(5)
        assert parse_poly(f"x^{cli.MAX_EXPONENT}", K).degree == cli.MAX_EXPONENT
        assert parse_poly(f"x^{cli.MAX_DEGREE - 1}*x", K).degree == cli.MAX_DEGREE
        with pytest.raises(InputError, match=f"exponent {cli.MAX_EXPONENT + 1} exceeds the limit"):
            parse_poly(f"x^{cli.MAX_EXPONENT + 1}", K)
        with pytest.raises(InputError, match=f"degree {cli.MAX_DEGREE + 1} exceeds the limit"):
            parse_poly(f"x^{cli.MAX_DEGREE}*x", K)
        n, d = cli.MAX_NESTING, cli.MAX_DIGITS
        assert parse_poly("(" * n + "x" + ")" * n, K) == K.x()
        assert parse_poly("9" * d + "*x", K) == K.poly([0, int("9" * d)])
        assert len(cli._coefficient_list(",".join(["1"] * (cli.MAX_DEGREE + 1)))) == cli.MAX_DEGREE + 1
        with pytest.raises(InputError, match=f"nest deeper than the limit {n}"):
            parse_poly("(" * (n + 1) + "x" + ")" * (n + 1), K)
        with pytest.raises(InputError, match=f"literal of {d + 1} digits exceeds the limit {d}"):
            parse_poly("9" * (d + 1) + "*x", K)

    @pytest.mark.parametrize("argv", [
        ["picture", "(" * 300 + "x" + ")" * 300 + "^2-5", "--prime", "5"],
        ["picture", "x^2-" + "7" * 5000, "--prime", "5"],
        ["picture", "x^2-1/" + "7" * 5000, "--prime", "5"],
        ["picture", "--coeffs=" + "7" * 5000 + ",0,1", "--prime", "5"],
        ["picture", "x^\u00b2-5", "--prime", "5"],
        ["picture", "--coeffs=" + ",".join(["1"] * (cli.MAX_DEGREE + 2)), "--prime", "5"],
    ], ids=["nesting", "literal", "denominator", "coeffs", "superscript", "coeffs-degree"])
    def test_hostile_expression_fails_fast(self, argv, capsys):
        # deep nesting would exhaust the stack, int() refuses a literal past
        # its own digit limit and a superscript digit, and a long --coeffs
        # list would skip MAX_DEGREE; the parser refuses each as bad input
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestModuleEntry:
    def test_python_dash_m(self):
        # python -m clusterfibre runs the CLI without a RuntimeWarning
        src = str(Path(clusterfibre.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "clusterfibre",
             "picture", "(x^2-5)^3 - 5^5", "--prime", "5"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("cluster picture over Q_5")
        bad = subprocess.run([sys.executable, "-m", "clusterfibre", "picture", "x^2", "--prime", "5"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert bad.returncode == 1


class TestSelfcheck:
    def test_corpus_passes(self, capsys):
        code = run(["selfcheck", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_selfcheck_with_input(self, capsys):
        code = run(["selfcheck", "(x^2-7)^3-7^5", "--prime", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "user input" in out

    def test_user_input_needs_a_prime(self, capsys):
        assert run(["selfcheck", "x^2-5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --prime is required\n"

    @pytest.mark.parametrize("expr, message", [
        ("(x-5)^2", "polynomial has repeated roots"),
        ("7", "need a non-constant polynomial"),
        ("x^2 +", "unexpected end of input"),
    ])
    def test_bad_user_input_before_any_suite(self, expr, message, capsys):
        # bad input exits 1 before a suite runs: no PASS or FAIL line
        assert run(["selfcheck", expr, "--prime", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_farey_failure_is_reported(self, monkeypatch, capsys):
        def broken(alpha, a, b):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cli, "farey_chain", broken)
        assert cli._check_farey(random.Random(0)) is False
        assert "exception: ZeroDivisionError: injected" in capsys.readouterr().err


class TestOptimizedInterpreter:
    def test_no_bare_assert(self):
        # python -O strips assert statements, so every check in the package
        # must raise explicitly
        found = []
        for path in sorted(Path(clusterfibre.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert found == []


class TestExtensionSearch:
    def test_cube_blocks_are_skipped(self, capsys):
        # x^3 - x + 1 stays irreducible over GF(3^10), so geometric mode
        # searches a cubic over it; every X^3 + c_0 is a cube, and the
        # search skips that block instead of testing its 59,049 candidates
        start = time.perf_counter()
        assert run(["fibre", "(x^3-x+1)^2-3^5", "-p", "3", "-m", "10",
                    "--residue-mode", "geometric", "--format", "json"]) == 0
        assert time.perf_counter() - start < 5
        assert json.loads(capsys.readouterr().out)["base_field"]["m"] == 30

    @pytest.mark.parametrize("argv", [
        # no X^3 + c_0 over GF(p) is irreducible, since 3 does not divide p - 1
        ["picture", "x^3-5", "-p", "1000000007", "-m", "3"],
        ["fibre", "x^3+x+5", "-p", "1000000007", "--residue-mode", "geometric"],
        # no X^4 + c_0 is, since p = 3 mod 4
        ["picture", "x^3-5", "-p", "1000000007", "-m", "4"],
        # over GF(3^m), m odd, -1 is not a square, so x -> x^3 + x is a
        # bijection and every X^3 + X + c_0 has a root
        ["fibre", "(x^3-x+1)^2-3^5", "-p", "3", "-m", "11", "--residue-mode", "geometric"],
        ["fibre", "(x^3-x+1)^2-3^5", "-p", "3", "-m", "13", "--residue-mode", "geometric"],
    ], ids=" ".join)
    def test_blocks_without_an_irreducible_are_skipped(self, argv, capsys):
        start = time.perf_counter()
        assert run(argv) == 0
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == ""

    def test_skipped_blocks_keep_the_output(self, capsys):
        # the search returns the polynomial that testing every candidate
        # finds, so the base field, and with it the output, is unchanged
        assert run(["fibre", "(x^3-x+1)^2-3^5", "-p", "3", "-m", "11",
                    "--residue-mode", "geometric", "--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == \
            "82717fb72756b0fe4fd3ce84173f8bcec2a01e98cc17747057807ee2455fe916"


class TestErrorHierarchy:
    # the raise sites may name the two package errors, and the operator
    # errors of the arithmetic dunder methods
    RAISED = {"InputError", "InternalInconsistency", "ZeroDivisionError", "TypeError",
              "ArithmeticError"}

    def test_two_error_classes(self):
        # only errors.py defines exception classes, and every raise names
        # one of RAISED: exit 1 and exit 2 follow from the class alone
        exceptions = {n for n, v in vars(builtins).items()
                      if isinstance(v, type) and issubclass(v, BaseException)}
        classes, raised = [], []
        for path in sorted(Path(clusterfibre.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
                    classes.append((path.name, node.name, bases))
                elif isinstance(node, ast.Raise):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.append((path.name, node.lineno, getattr(exc, "id", None)))
        grew = True
        while grew:  # close the set of exception names over the package's classes
            new = {name for _, name, bases in classes if bases & exceptions}
            grew = not new <= exceptions
            exceptions |= new
        defined = sorted((f, name) for f, name, _ in classes if name in exceptions)
        assert defined == [("errors.py", "InputError"), ("errors.py", "InternalInconsistency")]
        assert [r for r in raised if r[2] not in self.RAISED] == []

    def test_unclassified_error_is_an_internal_failure(self, monkeypatch, capsys):
        # only InputError means bad input; a plain ValueError is a bug
        def broken(*args, **kwargs):
            raise ValueError("x")

        monkeypatch.setattr(cli, "build_cluster_tree", broken)
        assert run(["fibre", "x^2-5", "--prime", "5"]) == 2
        assert capsys.readouterr().err == "internal consistency failure: x\n"
