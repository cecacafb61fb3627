"""No check leaves cyclic garbage.

A recursive closure that reaches itself makes a reference cycle, which
keeps the call's memo alive until the cyclic collector runs and adds a
collection pause to some later call. Each engine entry point is run with
the collector off; a collection afterwards must find nothing.
"""

import gc

import pytest

from ehsmc import (
    LITERAL_BOUND,
    Interval,
    check_abln,
    check_bde,
    minimal_anchor,
    oracle_check,
    parse_plus,
    user_bound,
)

CHECKS = 20


def _check_calls(sys_, g1):
    at_g1 = Interval((g1,))
    anchored = minimal_anchor(sys_, at_g1)
    nested = parse_plus("<A> (p & K{0} <A> p)")
    return {
        "check_bde": lambda: check_bde(sys_, at_g1, parse_plus("K{0} pi & <D> p | C{0,1} !p")),
        "check_abln-literal": lambda: check_abln(sys_, at_g1, parse_plus("<A> p"), LITERAL_BOUND),
        "check_abln-user": lambda: check_abln(sys_, at_g1, nested, user_bound(2)),
        "oracle_check": lambda: oracle_check(sys_, anchored, nested, 5),
    }


@pytest.mark.parametrize("entry", ["check_bde", "check_abln-literal", "check_abln-user",
                                   "oracle_check"])
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
