"""Growth-order gates: how the work of a check grows with its input.

Growth is counted, never timed: each check runs on a system whose
`successors` is wrapped to count its calls, which the product search,
the knowledge classes and the enumeration all make. Counter rings of 3,
4 and 5 counters have 27, 81 and 243 configurations, so a check whose
work is linear in the configurations grows about 3x per counter. Only
the file's total is timed, against a budget that keeps it cheap.

Each bound is a ratchet. It starts at the measured order plus a stated
margin; a change that lowers the order lowers the bound with it, and
raising a bound loosens the check.
"""

import time

import pytest

from ehsmc import LITERAL_BOUND, Interval, check_abln, parse_plus, parse_system

from genutil import ring_text

COUNTERS = (3, 4, 5)

# measured per counter: K{1} <A> goal 3.9 then 3.7, C{1,2} <A> goal 4.1
# then 3.5; searching a fresh product per class member measured 8.6-9.0
GROWTH_PER_COUNTER = 4.5
# measured at 5 counters: 622 calls against 243 for the lone diamond,
# 2.6x; a fresh product per class member measured 58x
CLASS_OVER_LONE = 4.0
SECONDS = 2.0


@pytest.fixture(scope="module")
def rings():
    return {n: parse_system(ring_text(n, [2] * n)) for n in COUNTERS}


def successor_calls(sys_, text: str) -> int:
    """`sys_.successors` calls made by a literal-mode check of the
    formula at the ring's initial point, which must hold."""
    calls = 0
    inner = sys_.successors

    def counted(g):
        nonlocal calls
        calls += 1
        return inner(g)

    sys_.successors = counted
    try:
        verdict = check_abln(sys_, Interval((sys_.initial,)), parse_plus(text), LITERAL_BOUND)
    finally:
        del sys_.successors
    assert verdict.holds and verdict.conclusive
    return calls


@pytest.mark.parametrize("text", ["K{1} <A> goal", "C{1,2} <A> goal"])
def test_diamond_under_a_class_grows_with_the_configurations(rings, text):
    counts = [successor_calls(rings[n], text) for n in COUNTERS]
    ratios = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert max(ratios) <= GROWTH_PER_COUNTER, (counts, ratios)


def test_class_members_share_one_product_search(rings):
    ring = rings[COUNTERS[-1]]
    lone = successor_calls(ring, "<A> goal")
    under_k = successor_calls(ring, "K{1} <A> goal")
    assert under_k <= CLASS_OVER_LONE * lone, (under_k, lone)


def test_growth_checks_stay_fast():
    started = time.perf_counter()
    for n in COUNTERS:
        ring = parse_system(ring_text(n, [2] * n))
        for text in ("<A> goal", "K{1} <A> goal", "C{1,2} <A> goal"):
            successor_calls(ring, text)
    assert time.perf_counter() - started < SECONDS
