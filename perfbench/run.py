#!/usr/bin/env python3
"""Benchmark for pgforge: one named workload, one process, one client.

    python3 perfbench/run.py --workload verify-sweep|query-mix|kernel-arith
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from the working
tree's `src/`, so nothing needs installing.  Every operation's output is
checked against a computation made apart from the program (see
`oracle.py`) or against a property the method must have.

--trace 0 measures for S seconds, in whole rounds of the workload's fixed
operation list, and prints the end-to-end metrics.  Their times are
host-normalized: the host's speed drifts by tens of percent over seconds,
so a fixed calibration loop is timed between operations, and each time is
scaled by CALIBRATION_REFERENCE_S over the calibration time measured
around it.  The raw times are printed on the line before the result.

--trace 1 does one round untraced and the same round again under the layer
tracer, and prints the per-layer metrics; its counts depend on the seed
only.  `trace.overhead_s` is the difference of the two rounds' normalized
wall times (set-up included): a single sample, not a median.  The last line of standard output is always one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

clock = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "element_ops_per_s": "1/s",
}


# a fixed reference, near the calibration loop's time on the host the
# benchmark was written on; normalized times read as seconds on a host where
# the loop takes exactly this long
CALIBRATION_REFERENCE_S = 0.0005


def calibrate():
    """Seconds taken by a fixed loop of interpreter work: integer arithmetic
    and dict stores, allocating no containers, with the collector off so
    that the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        acc = 0
        table = {}
        for i in range(4000):
            acc += i * i % 7
            table[i & 1023] = acc
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def host_factors(samples):
    """Per calibration sample, the factor that turns a time measured next to
    it into a normalized time; each sample is smoothed with its neighbours."""
    return [
        CALIBRATION_REFERENCE_S / statistics.median(samples[max(0, j - 1): j + 2])
        for j in range(len(samples))
    ]


def _normalized(seconds, before):
    """A time normalized by the calibration samples taken before it and
    three taken now."""
    around = before + [calibrate() for _ in range(3)]
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(around)


IMPORT_REPEATS = 5
MODULES = ("pgforge", "pgforge.autos", "pgforge.cli", "pgforge.cohomology",
           "pgforge.corpus", "pgforge.harness")


def import_sample():
    """Import pgforge once, in this interpreter; the raw and the normalized
    import time."""
    before = [calibrate() for _ in range(3)]
    t0 = clock()
    for name in MODULES:
        importlib.import_module(name)
    dt = clock() - t0
    return dt, _normalized(dt, before)


def timed_import():
    """Import pgforge in a fresh interpreter several times; the median raw
    and normalized import times.  Each import runs in a child process, so
    that the garbage of repeated imports does not raise this process's
    resident set."""
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import run; print(json.dumps(run.import_sample()))")
    raw, normalized = [], []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                               capture_output=True, text=True, timeout=120, check=True)
        dt, norm = json.loads(child.stdout.strip().splitlines()[-1])
        raw.append(dt)
        normalized.append(norm)
    return statistics.median(raw), statistics.median(normalized)


def _workloads():
    from arith import ArithWorkload
    from queries import QueryWorkload
    from sweep import SweepWorkload

    return {w.name: w for w in (SweepWorkload, QueryWorkload, ArithWorkload)}


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q percent
    of the values at or below it."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1]


class Tally:
    """Attempted and failed operations, and whether every checked output
    was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []

    def record(self, label, outcome, error):
        """outcome: 'ok', 'raised' or 'rejected' (a check said no)."""
        self.attempted += 1
        if outcome == "ok":
            return
        self.failed += 1
        if outcome == "rejected":
            self.correct = False
        if len(self.errors) < 5:
            self.errors.append(f"{label}: {outcome}: {error}")


def _call(thunk):
    try:
        return thunk(), None
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def _judge(tally, label, out, err, check):
    """Record one operation: failed if it raised, rejected if its output
    does not pass the check (a check that trips over the output rejects
    it too)."""
    if err is not None:
        tally.record(label, "raised", err)
        return
    try:
        err = check(out)
    except Exception as exc:
        err = f"check raised {type(exc).__name__}: {exc}"
    tally.record(label, "rejected" if err else "ok", err)


def measure(wl, state, seconds, tally):
    """Whole rounds until `seconds` have passed and enough operations
    were timed for the workload's tail percentile; returns the normalized
    and the raw metrics.

    A workload's round yields (label, element operations, thunk, check)
    per operation.  Only kernel-arith's requests ask for single element
    operations; a (check, group) pair or a command counts as one, so on
    those workloads element_ops_per_s equals queries_per_s."""
    latencies = []
    marks = []          # per operation, its calibration sample
    round_ends = []
    samples = []
    element_ops = 0
    start = clock()
    while True:
        for label, n_elem, thunk, check in wl.round(state):
            if len(latencies) % wl.calibrate_every == 0:
                samples.append(calibrate())
            t0 = clock()
            out, err = _call(thunk)
            latencies.append(clock() - t0)
            marks.append(len(samples) - 1)
            element_ops += n_elem
            _judge(tally, label, out, err, check)
        round_ends.append(len(latencies))
        if clock() - start >= seconds and len(latencies) >= wl.min_ops:
            break
    factors = host_factors(samples)
    normalized = [dt * factors[j] for dt, j in zip(latencies, marks)]

    def summary(times):
        rounds = [sum(times[a:b]) for a, b in zip([0] + round_ends, round_ends)]
        total = sum(times)
        return {
            "sweep_s": sum(rounds) / len(rounds),
            "queries_per_s": len(times) / total,
            "query_p50_ms": statistics.median(times) * 1e3,
            "query_tail_ms": percentile(times, wl.tail_percentile) * 1e3,
            "element_ops_per_s": element_ops / total,
        }

    raw = summary(latencies)
    raw["host_factor"] = statistics.median(factors)
    return summary(normalized), raw


def current_rss_mb():
    """The process's resident set now, or None where /proc is missing."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(wl, seconds):
    """Returns the tally, the end-to-end metrics and the raw figures, which
    include the resident set after each stage: `rss_mb` (now) and
    `peak_rss_mb` (the peak so far) after the import, after the set-ups
    (the workload's inputs) and after `prepare_checks` (the references)."""
    raw_import_s, import_s = timed_import()
    for name in MODULES:
        importlib.import_module(name)
    stages = {"import": (current_rss_mb(), peak_rss_mb())}
    builds, raw_builds = [], []
    for _ in range(wl.setup_repeats):
        # drop the previous set-up's inputs, so that two are never alive
        state = None
        gc.collect()
        before = [calibrate() for _ in range(3)]
        t0 = clock()
        state = wl.setup()
        build_s = clock() - t0
        raw_builds.append(build_s)
        builds.append(_normalized(build_s, before))
    stages["setup"] = (current_rss_mb(), peak_rss_mb())
    metrics = {"setup_s": import_s + statistics.median(builds)}
    wl.prepare_checks(state)
    stages["checks"] = (current_rss_mb(), peak_rss_mb())
    tally = Tally()
    normalized, raw = measure(wl, state, seconds, tally)
    metrics.update(normalized)
    raw["setup_s"] = raw_import_s + statistics.median(raw_builds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw["rss_mb"] = {k: v[0] for k, v in stages.items()}
    raw["peak_rss_mb"] = {k: v[1] for k, v in stages.items()}
    wl.close(state)
    return tally, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, raw


def _one_round(wl, tracer=None):
    """Set up and run one round; returns (normalized wall seconds, state,
    outputs).  The wall time is normalized by calibration samples taken
    just before and just after it."""
    before = [calibrate() for _ in range(3)]
    t0 = clock()
    state = wl.setup()
    outputs = []
    for i, (label, _, thunk, check) in enumerate(wl.round(state), start=1):
        if tracer is not None:
            tracer.begin_request(i)
        out, err = _call(thunk)
        outputs.append((label, out, err, check))
    return _normalized(clock() - t0, before), state, outputs


def run_traced(wl, seed):
    from tracer import Tracer

    plain_s, state, _ = _one_round(wl)
    wl.close(state)
    state = None
    gc.collect()
    tracer = Tracer().install()
    try:
        traced_s, state, outputs = _one_round(wl, tracer)
    finally:
        tracer.uninstall()
    wl.prepare_checks(state)
    tally = Tally()
    for label, out, err, check in outputs:
        _judge(tally, label, out, err, check)
    wl.close(state)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.jsonl")
    metrics = {}
    for key, value in sorted(tracer.metrics().items()):
        unit = "s" if key.endswith("_s") else ("1" if key.endswith("_yield") else "count")
        metrics[key] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pgforge" / "__init__.py").is_file():
        print(f"error: no pgforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2

    wl = workloads[args.workload](args.seed)
    if args.trace:
        tally, metrics = run_traced(wl, args.seed)
    else:
        tally, metrics, raw = run_untraced(wl, args.seconds)
        print("raw times: " + json.dumps(raw))
    for line in tally.errors:
        print(f"failed: {line}", file=sys.stderr)
    from pgforge import KERNEL_BACKEND

    print(f"kernel backend: {KERNEL_BACKEND}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
