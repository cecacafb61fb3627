#!/usr/bin/env python3
"""Rebuild perfbench/reference/bde_is_ex.txt.

    python3 perfbench/make_reference.py

Decides every (interval, formula) pair of the bde-exhaustive workload
twice, with `check_bde` and with the oracle at the minimal anchoring
(the bound at which it is exact on this fragment), and writes the
verdicts only if the two routes agree on every pair. Takes about a
minute. Only needed when the workload's formulas or intervals change.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from ehsmc.bde import check_bde  # noqa: E402
from ehsmc.oracle import minimal_anchor, oracle_check  # noqa: E402

import cases  # noqa: E402


def main() -> int:
    sys_, fs, ivs = cases.bde_inputs()
    verdicts = []
    for interval in ivs:
        anchored = minimal_anchor(sys_, interval)
        for f in fs:
            exact = check_bde(sys_, interval, f)
            if exact != oracle_check(sys_, anchored, f, anchored.total_length):
                print(f"engines disagree at {interval.configs}: {f}", file=sys.stderr)
                return 1
            verdicts.append(exact)
    cases.write_bde_table(cases.BDE_TABLE, fs, ivs, verdicts)
    print(f"wrote {len(verdicts)} verdicts ({sum(verdicts)} hold) to {cases.BDE_TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
