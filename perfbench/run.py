#!/usr/bin/env python3
"""Benchmark for the ehsmc model checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the checker is imported from
`src/`. One process runs one workload as a closed loop of one caller:
each check starts only after the previous verdict returned.

With `--trace 0` it sets the workload up several times (reporting the
median as `setup_s`), runs checks for S seconds split evenly over the
workload's phases while probing the machine's speed, then compares
every verdict with its reference and prints the end-to-end metrics.
With `--trace 1` it runs the workload's fixed number of checks twice
(S is not used, so counts repeat exactly), untraced and then with every
public layer function wrapped in a span recorder, and prints the
per-layer metrics; the spans go to `.perfbench_work/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.05
PROBE_SPAN_S = 0.25
# the probe's time on an idle core of the machine the benchmark was
# tuned on (2.1 GHz Xeon virtual machine, Python 3.11)
REF_PROBE_S = 150e-6


def _import_suite():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ehsmc", "__init__.py")):
        raise SystemExit(f"perfbench: no checker sources at {src}/ehsmc; "
                         "run from the root of a repository checkout")
    sys.path[:0] = [src, HERE]
    import cases
    import spans
    return cases, spans


class Run:
    """Checks made, in order: their wall times, keys and outcomes. Stored
    in flat arrays, so the benchmark's own bookkeeping stays small next
    to the checker's memory and adds little work for the collector."""

    def __init__(self) -> None:
        self.times = array("d")
        self.ends = array("d")
        self.keys = array("q")
        self.observed = array("b")
        self.conclusive = array("b")
        self.raised: Dict[int, Exception] = {}
        self.errors: List[str] = []
        self.phases: List[Tuple[int, int, float, float]] = []  # first, stop, start, end
        # speed probes: checks made before each, its best time, when it
        # ended and its wall cost
        self.probe_at = array("q")
        self.probe_s = array("d")
        self.probe_end = array("d")
        self.probe_cost = array("d")
        self.wall = 0.0

    def loop(self, phases, budgets, by_time: bool, on_check=None) -> None:
        """Run each phase until its budget (seconds or a check count) is
        used. A timed loop also probes the machine's speed between checks."""
        clock = time.perf_counter
        started = clock()
        deadline = next_probe = started
        for stream, budget in zip(phases, budgets):
            deadline += budget if by_time else 0
            first, phase_start = len(self.keys), clock()
            made = 0
            for key, thunk in stream:
                if on_check is not None:
                    on_check(len(self.keys))
                t0 = clock()
                try:
                    observed, conclusive = thunk()
                except Exception as exc:  # a raising check is a failed check
                    self.raised[len(self.keys)] = exc
                    observed, conclusive = -1, False
                t1 = clock()
                self.times.append(t1 - t0)
                self.ends.append(t1)
                self.keys.append(key)
                self.observed.append(int(observed))
                self.conclusive.append(conclusive)
                made += 1
                if by_time and t1 >= next_probe:
                    self.probe_at.append(len(self.keys))
                    self.probe_s.append(_probe())
                    next_probe = clock()
                    self.probe_end.append(next_probe)
                    self.probe_cost.append(next_probe - t1)
                    next_probe += PROBE_EVERY_S
                if (t1 >= deadline) if by_time else (made >= budget):
                    break
            self.phases.append((first, len(self.keys), phase_start, clock()))
        self.wall = clock() - started

    def normalized(self) -> Tuple[float, List[float]]:
        """Checks per second and each check's time, at the reference
        machine speed.

        The machine may be shared: other tenants slow it down for seconds
        at a time, by up to half. Probe timings followed check throughput
        (correlation 0.91), so each check's time is divided by the speed
        factor of the probes taken within PROBE_SPAN_S of it (at least the
        nearest one): their median over REF_PROBE_S. Probe time is not
        counted. Phases ran equally long, so the rate is the mean of their
        rates."""
        stamps = list(self.probe_end)
        factors = []
        for i, end in enumerate(self.ends):
            lo = bisect.bisect_left(stamps, end - self.times[i] - PROBE_SPAN_S)
            hi = bisect.bisect_right(stamps, end + PROBE_SPAN_S)
            if lo == hi:
                lo, hi = max(hi - 1, 0), hi + 1
            factors.append(statistics.median(self.probe_s[lo:hi]) / REF_PROBE_S)
        times = [t / f for t, f in zip(self.times, factors)]
        cost = [0.0] * (len(self.keys) + 1)
        for at, spent in zip(self.probe_at, self.probe_cost):
            cost[at] += spent
        rates = []
        for first, stop, start, _ in self.phases:
            busy = 0.0
            for i in range(first, stop):
                began = self.ends[i - 1] if i > first else start
                busy += (self.ends[i] - began - cost[i]) / factors[i]
            rates.append((stop - first) / busy)
        return statistics.fmean(rates), times

    def verify(self, workload) -> Tuple[int, float]:
        """Failed checks, and the share of conclusive verdicts among the
        distinct checks made, averaged over phases (a share that does not
        depend on how fast each phase went)."""
        failed = 0
        conclusive: List[Dict[int, bool]] = [{} for _ in self.phases]
        phase = 0
        for i, key in enumerate(self.keys):
            while i >= self.phases[phase][1]:
                phase += 1
            if i in self.raised:
                failed += 1
                exc = self.raised[i]
                problem = f"{type(exc).__name__}: {exc}"
            else:
                conclusive[phase].setdefault(key, bool(self.conclusive[i]))
                want = int(workload.expected(key))
                if self.observed[i] == want:
                    continue
                failed += 1
                problem = f"observed {self.observed[i]}, expected {want}"
            if len(self.errors) < 5:
                self.errors.append(f"check {key}: {problem}")
        share = statistics.fmean(sum(c.values()) / len(c) if c else 0.0 for c in conclusive)
        return failed, share


def _probe() -> float:
    """Best of three timings of a fixed pure-Python loop (about 0.2 ms):
    the machine's speed right now."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(3000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _speed_factor() -> float:
    """How much slower than the reference speed the machine runs now."""
    return statistics.median(_probe() for _ in range(3)) / REF_PROBE_S


def block_tail(times: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def tail(times: List[float], block: int) -> Tuple[float, float, List[int]]:
    """The tail of the whole run, or with `block` > 0 the median of the
    tails of its consecutive blocks of `block` checks (the remainder joins
    the last one): (value, median percentile, block sizes)."""
    n = max(len(times) // block, 1) if block else 1
    edges = [b * block for b in range(n)] + [len(times)]
    cut = [block_tail(times[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    return (statistics.median(v for v, _ in cut), statistics.median(p for _, p in cut),
            [hi - lo for lo, hi in zip(edges, edges[1:])])


def _settle() -> None:
    """Collect set-up garbage, then exempt what survives from later
    collections, so the collector's passes over the benchmark's own
    inputs are not charged to the checks."""
    gc.collect()
    gc.freeze()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float):
    setups: List[float] = []
    spent = 0.0
    while len(setups) < SETUP_REPEATS or (spent < SETUP_MIN_S
                                          and len(setups) < SETUP_MAX_REPEATS):
        gc.collect()
        before = _speed_factor()
        t0 = time.perf_counter()
        workload.setup(seed)
        took = time.perf_counter() - t0
        spent += took
        setups.append(took / ((before + _speed_factor()) / 2))
    phases = workload.phases(seed)
    _settle()
    run = Run()
    run.loop(phases, [seconds / len(phases)] * len(phases), by_time=True)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, conclusive = run.verify(workload)
    attempted = len(run.keys)
    rate, times = run.normalized()
    tail_s, tail_pct, sizes = tail(times, workload.tail_block)
    print(f"{workload.name}: {attempted} checks ({len(set(run.keys))} distinct) in "
          f"{run.wall:.3f} s; check_tail_ms is p{tail_pct:.3f} in {len(sizes)} "
          f"block(s) of {min(sizes)}-{max(sizes)} checks; "
          f"unscaled: {attempted / run.wall:.6g} checks/s, "
          f"median {statistics.median(run.times) * 1e3:.6g} ms, "
          f"probe median {statistics.median(run.probe_s) * 1e6:.4g} us")
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "check_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "check_tail_ms": _metric(tail_s * 1e3, "ms"),
        "checks_per_s": _metric(rate, "1/s"),
        "peak_rss_mib": _metric(peak_mib, "MiB"),
        "correct_ratio": _metric((attempted - failed) / attempted, "ratio"),
        "conclusive_ratio": _metric(conclusive, "ratio"),
    }
    return run, failed, attempted, metrics


def per_layer(workload, seed: int, spans_module):
    budgets = workload.traced_checks()
    workload.setup(seed)
    _settle()
    plain = Run()
    plain.loop(workload.phases(seed), budgets, by_time=False)

    workload.setup(seed)
    tracer = spans_module.Tracer()
    _settle()
    traced = Run()
    tracer.install()
    try:
        traced.loop(workload.phases(seed), budgets, by_time=False,
                    on_check=lambda i: setattr(tracer, "check_id", i))
    finally:
        tracer.uninstall()
    failed, _ = traced.verify(workload)
    attempted = len(traced.keys)

    self_s, roots = tracer.self_times()
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = _metric(tracer.counts[name + ".calls"], "count")
        metrics[f"{name}.self_s"] = _metric(self_s[name], "s")
    for mod, fname, counter in spans_module.TARGETS:
        if counter is not None:
            key = f"{mod}.{fname}.{counter[0]}"
            metrics[key] = _metric(tracer.counts[key], "count")
    calls = tracer.counts["abln.regular_witness_search.calls"]
    found = tracer.counts["abln.regular_witness_search.found"]
    metrics["abln.regular_witness_search.hit_ratio"] = _metric(
        found / calls if calls else 0.0, "ratio")
    metrics["trace.wall_s"] = _metric(traced.wall, "s")
    metrics["trace.unattributed_s"] = _metric(traced.wall - roots, "s")
    metrics["trace.overhead_ratio"] = _metric(traced.wall / plain.wall, "ratio")

    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"spans-{workload.name}-{seed}.tsv.gz")
    tracer.dump(path)
    print(f"{workload.name}: {attempted} traced checks, {len(tracer.name_of)} spans "
          f"written to {os.path.relpath(path, ROOT)}")
    return traced, failed, attempted, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cases, spans_module = _import_suite()
    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(cases.WORKLOADS)}")
    workload = cases.WORKLOADS[args.workload](args.tiny, WORK_DIR)
    if args.trace:
        run, failed, attempted, metrics = per_layer(workload, args.seed, spans_module)
    else:
        run, failed, attempted, metrics = end_to_end(workload, args.seed, args.seconds)
    for line in run.errors:
        print(f"failed check {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Sets of intervals iterate in hash order, and the checker stops at the
    # first counterexample, so string hashing decides how much work a check
    # does. Fix it, so runs repeat and per-layer counts are exact.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    raise SystemExit(main())
