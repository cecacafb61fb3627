"""No check or public walker leaves cyclic garbage.

A recursive closure that reaches itself makes a reference cycle, which
keeps the call's memo alive until the cyclic collector runs and adds a
collection pause to some later call. Each engine entry point, each
recursive public walker and an in-process `ehsmc check --json` are run
with the collector off; a collection afterwards must find nothing.
"""

import contextlib
import gc
import io

import pytest

from ehsmc import (
    LITERAL_BOUND,
    Interval,
    check_abln,
    check_bde,
    compute_mct,
    format_formula,
    minimal_anchor,
    oracle_check,
    parse_plus,
    regex_to_text,
    user_bound,
)
from ehsmc.abln import mct_to_dot
from ehsmc.cli import main

from conftest import data_path

CHECKS = 20


def _check_calls(sys_, g1):
    at_g1 = Interval((g1,))
    anchored = minimal_anchor(sys_, at_g1)
    nested = parse_plus("<A> (p & K{0} <A> p)")
    tree = compute_mct(sys_, at_g1, parse_plus("<A> K{0} p"), 2)
    return {
        "check_bde": lambda: check_bde(sys_, at_g1, parse_plus("K{0} pi & <D> p | C{0,1} !p")),
        "check_abln-literal": lambda: check_abln(sys_, at_g1, parse_plus("<A> p"), LITERAL_BOUND),
        "check_abln-user": lambda: check_abln(sys_, at_g1, nested, user_bound(2)),
        "oracle_check": lambda: oracle_check(sys_, anchored, nested, 5),
        "compute_mct": lambda: compute_mct(sys_, at_g1, parse_plus("<A> K{0} p"), 2),
        "mct_to_dot": lambda: mct_to_dot(tree),
        "format_formula": lambda: format_formula(nested),
        "regex_to_text": lambda: regex_to_text(sys_.labelling["p"]),
        "cli-check-json": lambda: _quiet_main("check", data_path("is_ex.isrl"),
                                              "<A> p", "--json"),
    }


def _quiet_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("entry", ["check_bde", "check_abln-literal", "check_abln-user",
                                   "oracle_check", "compute_mct", "mct_to_dot",
                                   "format_formula", "regex_to_text", "cli-check-json"])
def test_checks_leave_no_reference_cycle(is_ex, gs, entry):
    call = _check_calls(is_ex, gs["g1"])[entry]
    call()  # compiles the label automata, which the system keeps
    gc.collect()
    gc.disable()
    try:
        for _ in range(CHECKS):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()
