#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with tiny inputs and a one-second window: once
untraced and twice traced. Checks that each run exits 0 and ends with
the result line; that every verdict matched its reference; that every
metric BENCHMARK.json names is emitted with its unit, and no other;
that per-layer self times plus unattributed time add up to the traced
wall time; and that count metrics repeat exactly between the two
traced runs. Exits 1 and names the problem if any check fails.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{workload} trace={trace}: {done.stderr}")
    return result["metrics"]


def same_metrics(workload: str, metrics: dict, wanted: list) -> None:
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{workload}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{workload}: {name} = {m['value']!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        try:
            same_metrics(name, run(name, 0), spec["end_to_end"])
            first, second = run(name, 1), run(name, 1)
            same_metrics(name, first, spec["per_layer"])
            attributed = sum(m["value"] for n, m in first.items() if n.endswith(".self_s"))
            wall = first["trace.wall_s"]["value"]
            if not math.isclose(attributed + first["trace.unattributed_s"]["value"], wall,
                                rel_tol=1e-6, abs_tol=1e-9):
                raise AssertionError(f"{name}: self times do not add up to {wall} s")
            for n, m in first.items():
                if m["unit"] == "count" and m["value"] != second[n]["value"]:
                    raise AssertionError(f"{name}: {n} was {m['value']} then {second[n]['value']}")
        except AssertionError as exc:
            print(f"smoke: FAIL {exc}", file=sys.stderr)
            return 1
        print(f"smoke: {name} ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
