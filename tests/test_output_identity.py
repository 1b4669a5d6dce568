"""Golden output: every corpus run of ``cli.run`` prints what it printed when
the digests were recorded.

Each run is ``picture``, ``invariants`` or ``fibre`` in each ``--format`` and
both residue modes, on the ``selfcheck`` corpus, plus ``fibre --format json``
on two unramified bases.  A run's digest is its exit code and the SHA-256 of
its stdout and of its stderr, so any change of output, however small, fails.
The ``fibre --format json`` runs must also print the same bytes for the
finite-field seeds 0, 1 and 7.

To record the digests again (only when an output change is intended):

    PYTHONPATH=src python tests/test_output_identity.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from clusterfibre import cli

DIGESTS = Path(__file__).with_name("output_digests.json")
COMMANDS = ("picture", "invariants", "fibre")
FORMATS = ("json", "ascii", "dot", "tikz")
MODES = ("exact", "geometric")
EXTRA = [
    ("(x^3+x+th)^2-3^7", 3, 4),
    ("(x^3+x+1)^2-5^5", 5, 2),
]


def _groups():
    """(group label, [(run label, argv)]) for every run."""
    groups = []
    for p, expr in cli._CORPUS:
        for mode in MODES:
            runs = []
            for command in COMMANDS:
                for fmt in FORMATS:
                    argv = [command, expr, "--prime", str(p),
                            "--residue-mode", mode, "--format", fmt]
                    runs.append((" ".join(argv), argv))
            groups.append((f"p={p} {expr} {mode}", runs))
    for expr, p, m in EXTRA:
        for mode in MODES:
            argv = ["fibre", expr, "--prime", str(p), "-m", str(m),
                    "--residue-mode", mode, "--format", "json"]
            groups.append((f"p={p} m={m} {expr} {mode}", [(" ".join(argv), argv)]))
    return groups


class _Out(io.TextIOWrapper):
    """A text stream whose ``buffer`` collects bytes, as sys.stdout's does."""

    def __init__(self):
        super().__init__(io.BytesIO(), encoding="utf-8", newline="")

    def data(self) -> bytes:
        self.flush()
        return self.buffer.getvalue()


def _digest(argv):
    out, err = _Out(), _Out()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code, hashlib.sha256(out.data()).hexdigest(),
            hashlib.sha256(err.data()).hexdigest()]


GROUPS = _groups()


@pytest.mark.parametrize("runs", [runs for _, runs in GROUPS],
                         ids=[label for label, _ in GROUPS])
def test_output_unchanged(runs):
    recorded = json.loads(DIGESTS.read_text())
    changed = [label for label, argv in runs if _digest(argv) != recorded[label]]
    assert changed == []


SEEDS = ("0", "1", "7")
SEED_GROUPS = [(f"p={p} {expr} {mode}", ["fibre", expr, "--prime", str(p),
                                          "--residue-mode", mode, "--format", "json"])
               for p, expr in cli._CORPUS for mode in MODES]
SEED_GROUPS += [(f"p={p} m={m} {expr} {mode}",
                 ["fibre", expr, "--prime", str(p), "-m", str(m),
                  "--residue-mode", mode, "--format", "json"])
                for expr, p, m in EXTRA for mode in MODES]


@pytest.mark.parametrize("argv", [argv for _, argv in SEED_GROUPS],
                         ids=[label for label, _ in SEED_GROUPS])
def test_fibre_json_does_not_depend_on_the_seed(argv):
    # the seed only drives the random splitting of residual factors, whose
    # result is sorted into one order: the fibre is a function of the input
    outputs = {seed: _digest(argv + ["--seed", seed]) for seed in SEEDS}
    assert outputs["0"][0] == 0
    assert all(out == outputs["0"] for out in outputs.values())


def test_every_run_is_recorded():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(label for _, runs in GROUPS for label, _ in runs)
    assert len(recorded) == 3 * 4 * 2 * len(cli._CORPUS) + 2 * len(EXTRA)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    table = {label: _digest(argv) for _, runs in GROUPS for label, argv in runs}
    lines = [f" {json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(table)} runs in {DIGESTS}")
