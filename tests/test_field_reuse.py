"""What geometric mode keeps between runs: one base field per (p, m) in
cli, one x per field, the unramified extensions of a field and theta's
roots modulo the certificate primes; and the kernel paths that read them,
the x-adic read-off of ``phi_expand`` and the one-step linear update of
``_zexpand`` over Q_p(theta)."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterfibre import cli, field
from clusterfibre.field import BaseField, expansion_scope, extend_unramified

SLOW_CASE = ["fibre", "2*x^8+33*x^7-10*x^6+27*x^5+7*x^4-80*x^3-100*x^2-68*x-3",
             "--prime", "5", "--residue-mode", "geometric", "--format", "json"]


def _run(argv):
    """(exit code, stdout bytes) of cli.run."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    out.flush()
    return code, raw.getvalue()


class TestFieldState:
    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
    def test_extension_is_built_once(self, p, m):
        K = BaseField(p, m)
        pairs = {t: extend_unramified(K, t) for t in (2, 3)}
        for t, (K2, embed) in pairs.items():
            assert K2.m == m * t
            again = extend_unramified(K, t)
            assert again[0] is K2 and again[1] is embed
        assert extend_unramified(K, 1)[0] is K

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_x_per_field(self, m):
        K = BaseField(3, m)
        assert K.x() is K.x()
        assert K.x() == K.poly([0, 1])
        assert K.x() is not BaseField(3, m).x()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_x_read_off_is_the_kernel_expansion(self, m):
        K = BaseField(5, m)
        x = K.x()
        coeffs = [K.elem(*[Fraction(7 * i - 3 * j, 1 + i % 3) for j in range(m)])
                  for i in range(6)] + [K.zero, K.elem(Fraction(2, 5))]
        f = K.poly(coeffs)
        pieces = field._zexpand(f, x)
        assert len(pieces) == len(coeffs)
        assert f.phi_expand(x) == tuple(pieces) == f.coeffs
        assert f.phi_expand(x, 1) == tuple(pieces[:1])

        @expansion_scope
        def partial_then_whole():
            return f.phi_expand(x, 3), f.phi_expand(x)

        part, whole = partial_then_whole()
        assert part == tuple(pieces[:3]) and whole == tuple(pieces)
        assert K.poly([7]).phi_expand(x) == (K.poly([7]),)
        assert K.zero.phi_expand(x) == (K.zero,)

    def test_theta_root_is_that_of_root_mod(self):
        K = BaseField(3, 4)
        for q in field._CERTIFICATE_PRIMES + field._ROOT_PRIMES:
            want = field._root_mod(K.gen_minpoly, field.prime_field(q))
            assert field._theta_root(K.gen_minpoly, q) == want
            assert field._theta_root(K.gen_minpoly, q) == want


class TestWarmCaches:
    def test_slow_case_bytes_do_not_depend_on_earlier_runs(self):
        cli._base_field.cache_clear()
        first = _run(SLOW_CASE)
        assert first[0] == 0
        # another input over Q_5 first
        assert _run(["fibre", "(x^2-5)^3 - 5^5", "--prime", "5",
                     "--residue-mode", "geometric", "--format", "json"])[0] == 0
        assert _run(SLOW_CASE) == first
        # an input over Q_5 that extends the base by 3, then needs degree
        # 3 * 23 > 64 and exits 1, with the extension of Q_5 kept
        cli._base_field.cache_clear()
        failing = ["fibre", f"(x^3+x+1)*({_degree_23_mod_5()})", "--prime", "5",
                   "--residue-mode", "geometric", "--format", "json"]
        assert _run(failing) == (1, b"")
        assert 3 in cli._base_field(5, 1)._extensions
        assert _run(SLOW_CASE) == first


def _degree_23_mod_5():
    """An expression for a monic degree-23 polynomial irreducible mod 5."""
    from clusterfibre.ff import find_irreducible_int_poly
    rows = find_irreducible_int_poly(5, 23)
    return "+".join(f"{c}*x^{i}" for i, c in enumerate(rows) if c)


def _element(m):
    return st.lists(st.integers(-60, 60), min_size=m, max_size=m)


@pytest.mark.parametrize("p,m", [(5, 2), (3, 3), (3, 6)])
class TestLinearUpdate:
    """The d = 1, m > 1 branch of _zexpand, one dot product per coordinate,
    against one division at a time and against the expansion multiplied
    back out."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_against_repeated_division(self, p, m, data):
        K = BaseField(p, m)
        n = data.draw(st.integers(1, 7))
        den = data.draw(st.sampled_from([1, 2, p, p ** 3, 7 * p]))
        coeffs = [K.elem(*data.draw(_element(m))) for _ in range(n)]
        f = K.poly(coeffs + [K.elem(*data.draw(_element(m))) + K.one]) * K.elem(Fraction(1, den))
        phi = K.poly([K.elem(*data.draw(_element(m))), K.one])
        for limit in list(range(1, f.degree + 2)) + [None]:
            pieces = field._zexpand(f, phi, limit)
            want, q = [], f
            while q.degree >= 1 and len(want) != limit:
                q, r = q.divmod(phi)
                want.append(r)
            assert pieces == want + [q]
            assert all(c.degree < 1 for c in pieces[:-1])
            acc = pieces[-1]
            for c in reversed(pieces[:-1]):
                acc = acc * phi + c
            assert acc == f
