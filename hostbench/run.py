"""Host-time benchmark of the FragPicker simulator.

Run from the root of a checkout::

    python3 hostbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures end-to-end host time with nothing
installed: ``setup_s`` is the median of three cold starts (a fresh
interpreter importing ``repro`` and building the inputs), then identical
rounds of the workload repeat for ``--seconds``.  With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer split.
Every round's outputs are checked; informational lines go first, and the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

#: cold starts measured per run; setup_s reports their median
SETUP_SAMPLES = 3
#: rounds measured per run even when one round outlasts ``--seconds``
MIN_ROUNDS = 3


def load_metrics() -> tuple:
    """From BENCHMARK.json: (unit of every metric, per-layer metric names,
    the per-layer counts -- host-independent, they must repeat exactly)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    counts = tuple(name for name in per_layer if units[name] == "count")
    return units, per_layer, counts


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a cold start: build the inputs, report the time."""
    from workloads import WORKLOADS

    WORKLOADS[workload]().setup(seed)
    print(repr(_monotonic()))
    return 0


def cold_start(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its inputs being ready."""
    start = _monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120, text=True,
    )
    return float(done.stdout.split()[-1]) - start


class Tally:
    """Units attempted/failed across rounds, plus determinism checks:
    rounds that ran equal inputs must give equal digests and counts."""

    def __init__(self, workload, counts) -> None:
        self.workload = workload
        self.count_names = counts
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.counts = {}
        self.problems = []

    def check(self, index: int, output, summary=None) -> None:
        attempted, failed, digest = self.workload.check(output)
        self.attempted += attempted
        self.failed += failed
        key = self.workload.input_key(index)
        if self.digests.setdefault(key, digest) != digest:
            self.problems.append(f"input {key}: simulated outputs differ between rounds")
        if summary is not None:
            counts = {name: summary[name] for name in self.count_names}
            if self.counts.setdefault(key, counts) != counts:
                self.problems.append(f"input {key}: counts differ between rounds")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def timed_round(workload, index: int) -> tuple:
    gc.collect()
    start = time.perf_counter()
    output = workload.run_round(index)
    return time.perf_counter() - start, output


def traced_round(workload, tracer, index: int):
    """One round under the span wrappers: (wall, per-layer summary, output)."""
    gc.collect()
    tracer.reset()
    tracer.install()
    try:
        wall, output = timed_round(workload, index)
    finally:
        tracer.remove()
    return wall, tracer.summary(wall), output


def measure(workload, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: untraced rounds, then a counting round that
    repeats the first round's input under the tracer."""
    from tracer import Tracer

    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        wall, output = timed_round(workload, len(walls))
        walls.append(wall)
        tally.check(len(walls) - 1, output)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = Tracer()
    syscalls = {}
    for index in range(len(walls)):
        key = workload.input_key(index)
        if key not in syscalls:
            _, summary, output = traced_round(workload, tracer, index)
            tally.check(index, output, summary)
            syscalls[key] = summary["fs.syscalls"]
    print(f"rounds: {len(walls)}  round walls (s): "
          + " ".join(f"{w:.4f}" for w in walls))
    per_syscall = [wall / syscalls[workload.input_key(i)] * 1e6
                   for i, wall in enumerate(walls)]
    return {
        "wall_s": statistics.median(walls),
        "host_us_per_syscall": statistics.median(per_syscall),
        "peak_rss_mib": peak_rss_mib,
    }


def measure_traced(workload, seconds: float, tally: Tally, per_layer) -> dict:
    """Per-layer metrics: alternate untraced and traced rounds on the
    same input; counts come from the first input."""
    from tracer import Tracer, accounting_error

    tracer = Tracer()
    plain, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        index = len(traced)
        wall, output = timed_round(workload, index)
        plain.append(wall)
        tally.check(index, output)
        wall, summary, output = traced_round(workload, tracer, index)
        traced.append(wall)
        summaries.append(summary)
        tally.check(index, output, summary)
        problem = accounting_error(summary, wall)
        if problem is not None:
            tally.problems.append(f"self-time accounting: {problem}")
    print(f"rounds: {len(traced)} untraced + {len(traced)} traced; traced walls (s): "
          + " ".join(f"{w:.4f}" for w in traced))
    metrics = {"harness.trace_overhead": statistics.median(
        t / p for t, p in zip(traced, plain))}
    for name in per_layer:
        if name in tally.count_names:
            metrics[name] = summaries[0][name]
        elif name not in metrics:
            metrics[name] = statistics.median(s[name] for s in summaries)
    return metrics


def main(argv=None) -> int:
    # measure the checkout's own program, never an installed copy
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"{SRC}/repro not found: run from the root of a checkout")
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    samples = []
    if not args.trace:
        samples = [cold_start(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    units, per_layer, counts = load_metrics()
    tally = Tally(workload, counts)
    if args.trace:
        metrics = measure_traced(workload, args.seconds, tally, per_layer)
    else:
        metrics = measure(workload, args.seconds, tally)
        metrics["setup_s"] = statistics.median(samples)
        metrics["passed_frac"] = 1.0 - tally.failed / tally.attempted
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in samples))
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for key, digest in sorted(tally.digests.items()):
        print(f"simulated-output digest (input {key}): {digest}")
    print(f"units: {tally.attempted} attempted, {tally.failed} failed "
          f"(failed_frac {tally.failed / tally.attempted:.6f})")
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name in sorted(metrics):
        print(f"  {name:<26} {metrics[name]:>16.6f} {units[name]}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
