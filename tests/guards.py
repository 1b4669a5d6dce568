"""A guard for the tests that a kernel runs on coordinates, not on elements."""

from clusterfibre.ff import FFPoly


def refuse_constant_arithmetic(monkeypatch, names=("__mul__",), powers=True):
    """Make the FFPoly operators ``names`` raise AssertionError on two
    constant operands.  With ``powers`` a power of a constant may still form
    its own products; without, the power itself raises."""
    power, in_power = FFPoly.__pow__, [0]

    def refuse(op):
        def guarded(a, b):
            if a.degree < 1 and b.degree < 1 and not in_power[0]:
                raise AssertionError(f"constant {op.__name__} in a kernel")
            return op(a, b)
        return guarded

    def counted_pow(a, n):
        if a.degree < 1 and not powers:
            raise AssertionError("constant __pow__ in a kernel")
        in_power[0] += 1
        try:
            return power(a, n)
        finally:
            in_power[0] -= 1

    for name in names:
        monkeypatch.setattr(FFPoly, name, refuse(getattr(FFPoly, name)))
    monkeypatch.setattr(FFPoly, "__pow__", counted_pow)
