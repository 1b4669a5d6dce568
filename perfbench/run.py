"""Benchmark of the clusterfibre pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload linear_roots --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py): ``linear_roots``, ``geometric_extension`` and
``reduction_laws``.  With ``--trace 0`` the run times whole passes over the
seeded inputs until ``--seconds`` have elapsed (at least two passes) and
reports the end-to-end metrics.  On a shared machine the speed of this
process drifts by up to half, for seconds to minutes at a time, so every
latency is scaled to nominal machine speed by a fixed reference kernel timed
every 0.1 s, and each input counts at its fastest scaled repetition; the raw
figures are printed too.  ``setup_s`` is the raw median of nine fresh
interpreters.  With ``--trace 1`` every input runs once plain and once traced
(tracer.py), back to back in alternating order, and the run reports
per-layer metrics from the spans.  Either way the outputs are checked
afterwards, outside the timed region; a failed check, a changed output
digest (digests.json, at the recorded seeds), exit 1, exit 2 or an exception
escaping the entry point counts the input as failed.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Traced runs also write every
span to perfbench/out/.

``python3 perfbench/run.py --record 0-29 --workload W`` recomputes the stored
digests and the list of failing inputs (known_failures.json) for those seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
KNOWN_FAILURES = HERE / "known_failures.json"

SETUP_REPEATS = 9
MIN_PASSES = 2
TRACE_BLOCKS = 50
# Seconds between two timings of the reference kernel, and the kernel's
# best time on a 2.0 GHz Xeon vCPU when nothing else slows it down.
CALIBRATE_EVERY = 0.1
KERNEL_NOMINAL_S = 0.00125

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

WARM_UP = ["fibre", "(x^2-5)^3 - 5^5", "--prime", "5", "--format", "json", "--seed", "0"]

SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import clusterfibre
for p, m in {fields!r}:
    clusterfibre.BaseField(p, m)
print(time.perf_counter() - t0)
"""


def _kernel():
    """Fixed pure-Python work of the same kind as the pipeline's: Fraction
    arithmetic with its gcds, tuple keys, dict updates."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i)
        key = (i % 17, acc.denominator % 101)
        table[key] = table.get(key, 0) + 1
    return acc, len(table)


def machine_slowdown():
    """How much slower than nominal the machine runs right now: the best of
    three timings of the reference kernel over its nominal time."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        t = time.perf_counter() - t0
        best = t if best is None or t < best else best
    return best / KERNEL_NOMINAL_S


def measure_setup(fields):
    """Median over fresh interpreters of: import clusterfibre, build the
    workload's BaseFields.  Raw: scaling it by the kernel made it no steadier."""
    code = SETUP_CODE.format(src=str(SRC), fields=fields)
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values)


class Runs:
    """Every execution of every input: seconds per repetition (raw, and at
    nominal machine speed), the first successful outcome, the first failure."""

    def __init__(self, n):
        self.raw = [[] for _ in range(n)]
        self.scaled = [[] for _ in range(n)]
        self.first = [None] * n
        self.errors = {}
        self.passes = 0
        self.wall = 0.0
        self._pending = []
        self._slowdown = machine_slowdown()
        self._since = time.perf_counter()

    def add(self, i, outcome):
        if outcome.error is not None:
            self.errors.setdefault(i, outcome.error)
        else:
            self.raw[i].append(outcome.seconds)
            self._pending.append((i, outcome.seconds))
            first = self.first[i]
            if first is None:
                self.first[i] = outcome
            elif isinstance(first.output, bytes) and outcome.output != first.output:
                self.errors.setdefault(i, "output differs between repetitions")
        if time.perf_counter() - self._since >= CALIBRATE_EVERY:
            self.calibrate()

    def calibrate(self):
        """Scale the executions since the last kernel timing by the mean
        slowdown measured just before and just after them."""
        now = machine_slowdown()
        factor = (self._slowdown + now) / 2
        for i, seconds in self._pending:
            self.scaled[i].append(seconds / factor)
        self._pending.clear()
        self._slowdown = now
        self._since = time.perf_counter()

    def best(self, i):
        return min(self.scaled[i])

    def best_raw(self, i):
        return min(self.raw[i])


def run_passes(workload, cf, inputs, seconds):
    """Whole passes over the inputs until ``seconds`` have elapsed, and at
    least MIN_PASSES of them."""
    runs = Runs(len(inputs))
    t0 = time.perf_counter()
    while runs.passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
        for i, inp in enumerate(inputs):
            runs.add(i, workload.execute(cf, inp))
        runs.passes += 1
    runs.calibrate()
    runs.wall = time.perf_counter() - t0
    return runs


def run_paired(workload, cf, inputs, tracer):
    """Each block of inputs once plain and once traced, alternating which
    goes first, so that both sides see the same machine speed."""
    plain, traced = Runs(len(inputs)), Runs(len(inputs))
    size = max(1, len(inputs) // TRACE_BLOCKS)
    for b, lo in enumerate(range(0, len(inputs), size)):
        block = range(lo, min(lo + size, len(inputs)))
        for with_trace in ((False, True) if b % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                for i in block:
                    if with_trace:
                        tracer.begin_input(i)
                        traced.add(i, workload.execute(cf, inputs[i]))
                    else:
                        plain.add(i, workload.execute(cf, inputs[i]))
            finally:
                if with_trace:
                    tracer.uninstall()
    plain.calibrate()
    traced.calibrate()
    for i, outcome in enumerate(traced.first):
        mine = plain.first[i]
        if (outcome is not None and mine is not None and isinstance(mine.output, bytes)
                and outcome.output != mine.output):
            plain.errors.setdefault(i, "traced output differs from the plain one")
    for i, err in traced.errors.items():
        plain.errors.setdefault(i, err)
    return plain, traced


def check_outputs(workload, cf, seed, inputs, res):
    """Run the workload's checks and the digest comparison on every input
    that produced output; returns {index: reason} of failed checks."""
    stored = load_json(DIGESTS).get(workload.name, {}).get(str(seed))
    bad = {}
    for i, inp in enumerate(inputs):
        outcome = res.first[i]
        if outcome is None or i in res.errors:
            continue
        try:
            reason = workload.check(cf, inp, outcome)
        except Exception as ex:
            reason = f"check raised {type(ex).__name__}: {ex}"
        if reason is None and stored is not None and stored[i] is not None:
            if hashlib.sha256(outcome.output).hexdigest() != stored[i]:
                reason = "JSON digest differs from the recorded one"
        if reason is not None:
            bad[i] = reason
    return bad


def load_json(path):
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(runs, failed):
    """Latency percentiles over the inputs that succeeded, each at its
    fastest repetition, and inputs per second of such a pass; at nominal
    machine speed, with the raw figures as notes."""
    ok = [i for i in range(len(runs.raw)) if i not in failed]
    if not ok:
        raise RuntimeError("every input failed")
    out = []
    for best in (runs.best, runs.best_raw):
        lat = [best(i) for i in ok]
        tail_s, pct, count = tail(lat)
        out.append({"input_p50_s": statistics.median(lat), "input_tail_s": tail_s,
                    "inputs_per_s": len(lat) / sum(lat)})
    metrics, raw = out
    notes = [f"input_tail_s is the p{pct:.1f} latency of {count} inputs",
             f"{runs.passes} timed passes over {len(runs.raw)} inputs in {runs.wall:.3f} s",
             "raw, before scaling to nominal machine speed: " + ", ".join(
                 f"{k} {v:.6g}" for k, v in raw.items())]
    return metrics, notes


def ratio(num, den):
    """Useful outcomes over attempts; 1 when nothing was attempted."""
    return num / den if den else 1.0


def per_layer(tracer, plain, traced, failed):
    """Per-layer metrics of the traced executions; self time shares are of
    the traced workload time, the overhead is traced over plain time (each
    pair ran back to back, so both saw the same machine speed)."""
    ok = [i for i in range(len(plain.raw)) if i not in failed]
    traced_s = sum(traced.best_raw(i) for i in ok)
    plain_s = sum(plain.best_raw(i) for i in ok)
    stats = tracer.aggregate()
    out = {}
    for metric in PER_LAYER:
        if metric == "trace_overhead_ratio":
            out[metric] = traced_s / plain_s - 1
            continue
        name, stat = metric.rsplit(".", 1)
        s = stats[name]
        if stat == "self_share":
            out[metric] = s["self_s"] / traced_s
        elif stat == "kept_ratio":
            out[metric] = ratio(s["returned"], s["calls"] + s["restarts"])
        elif stat == "distinct_ratio":
            out[metric] = ratio(tracer.expand_distinct, s["calls"])
        elif stat == "hit_ratio":
            out[metric] = ratio(tracer.irreducible_true, s["calls"])
        else:
            out[metric] = s[stat]
    return out, [f"traced {traced_s:.3f} s, plain {plain_s:.3f} s over {len(ok)} inputs"]


def input_rows(workload, inputs, res, restarts, traced):
    """One row per input: degree, p, starting and final m, restarts (known
    only from a traced run), latency."""
    if not workload.fibre_json:
        return []
    rows = ["input\tdegree\tp\tm_start\tm_final\trestarts\tlatency_s\tstatus"]
    for i, inp in enumerate(inputs):
        outcome = res.first[i]
        m_final = json.loads(outcome.output)["base_field"]["m"] if outcome else "-"
        latency = f"{res.best_raw(i):.6f}" if res.raw[i] else "-"
        status = "ok" if i not in res.errors else "failed"
        rows.append(f"{i}\t{inp.degree}\t{inp.p}\t{inp.m}\t{m_final}\t"
                    f"{restarts.get(i, 0) if traced else '-'}\t{latency}\t{status}")
    return rows


def record(workload, cf, seeds):
    """Store the output digests and the failing inputs of the given seeds."""
    digests, failures = {}, {}
    for seed in seeds:
        inputs = workload.inputs(seed, cf)
        res = Runs(len(inputs))
        for i, inp in enumerate(inputs):
            res.add(i, workload.execute(cf, inp))
        for i, reason in check_outputs(workload, cf, None, inputs, res).items():
            res.errors.setdefault(i, reason)
        digests[str(seed)] = [
            None if i in res.errors else hashlib.sha256(res.first[i].output).hexdigest()
            for i in range(len(inputs))]
        failures[str(seed)] = [{"input": inputs[i].label(), "error": err}
                               for i, err in sorted(res.errors.items())]
        print(f"seed {seed}: {len(res.errors)} of {len(inputs)} inputs failed",
              file=sys.stderr)
    for path, new, indent in ((DIGESTS, digests, 0), (KNOWN_FAILURES, failures, 1)):
        stored = load_json(path)
        stored.setdefault(workload.name, {}).update(new)
        path.write_text(json.dumps(stored, indent=indent, sort_keys=True) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="seed range a-b whose digests to store")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "clusterfibre" / "__init__.py").is_file():
        print(f"error: no clusterfibre sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import clusterfibre as cf
    from tracer import Tracer
    from workloads import WORKLOADS, run_cli

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.record:
        if not workload.fibre_json:
            print(f"error: {workload.name} has no JSON output to record", file=sys.stderr)
            return 2
        lo, _, hi = args.record.partition("-")
        record(workload, cf, range(int(lo), int(hi or lo) + 1))
        return 0

    setup_s = None if args.trace else measure_setup(workload.fields)
    inputs = workload.inputs(args.seed, cf)
    run_cli(cf, WARM_UP)

    if not args.trace:
        res = run_passes(workload, cf, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        restarts = {}
    else:
        tracer = Tracer()
        res, traced = run_paired(workload, cf, inputs, tracer)
        restarts = tracer.restarts_by_input()

    failed = dict(res.errors)
    bad = check_outputs(workload, cf, args.seed, inputs, res)
    failed.update(bad)

    lines = input_rows(workload, inputs, res, restarts, args.trace)
    for i, reason in sorted(failed.items()):
        lines.append(f"FAILED input {i}: {inputs[i].label()[:160]}: {reason[:300]}")
    lines.append(f"error_rate {len(failed) / len(inputs):.6g} "
                 f"({len(failed)} of {len(inputs)} inputs failed)")
    if not args.trace:
        metrics, notes = end_to_end(res, failed)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    else:
        metrics, notes = per_layer(tracer, res, traced, failed)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        notes.append(f"{len(tracer.name_id)} spans written to {spans.relative_to(ROOT)}")
    lines += notes
    for name, unit in units.items():
        lines.append(f"{name:<44} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not bad,
        "attempted": len(inputs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
