"""The two ways a run can fail.

The construction is exact, so a failure is either bad input or a bug.
``InputError`` says the arguments of a call, or the command line, are
outside what the construction accepts: a malformed expression, a
polynomial that is not separable, a bad base field, a residue degree past
the cap.  ``InternalInconsistency`` says a law of the construction broke,
and its message names the law.  The command line exits 1 on the first and
2 on anything else.  They subclass ``ValueError`` and ``AssertionError``,
so callers that catch the built-ins keep working.
"""


class InputError(ValueError):
    pass


class InternalInconsistency(AssertionError):
    pass
