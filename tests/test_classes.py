"""Knowledge classes against a definition-shaped reference, and the
work it takes to build them.

The engines and the oracle share `epi_class` and `common_class`, so the
differential suites cannot see a fault in them. Here each class is
rebuilt from `genutil.epi_equiv` over every interval of its length:
`epi_class` as a filter, `common_class` as a closure that relates two
intervals whenever one agent of the group cannot tell them apart.
"""

import itertools
import random

import pytest

import ehsmc
from ehsmc import InputError, Interval, check_abln, parse_plus, parse_system, user_bound
from ehsmc import systems
from ehsmc.cli import main
from ehsmc.systems import common_class, epi_class

from conftest import cfgs, data_path
from genutil import epi_equiv, intervals_up_to, ring_text


def _branching_text(rng: random.Random) -> str:
    """An environment that picks a or b, an agent P that picks x or y and
    follows both picks, and an agent Q that follows the environment's:
    2-3 local states each, out-degree <= 4, and every agent's local state
    varies."""
    def agent(name, states, actions, protocol, step):
        lines = [f"agent {name}", "  states " + " ".join(states),
                 f"  init {states[0]}", "  actions " + " ".join(actions)]
        for s in states:
            lines.append(f"  protocol {s}: " + " ".join(protocol()))
            lines += [f"  trans {s} ({joint}) {rng.choice(states)}" for joint in step]
        return lines

    def some(actions):
        return lambda: rng.choice([[actions[0]], [actions[1]], actions, actions])

    return "\n".join(
        agent("Env", [f"e{i}" for i in range(rng.choice((1, 2)))], ["a", "b"],
              some(["a", "b"]), ["a,*,*", "b,*,*"])
        + agent("P", [f"p{i}" for i in range(rng.choice((2, 3)))], ["x", "y"],
                some(["x", "y"]), ["a,x,*", "a,y,*", "b,x,*", "b,y,*"])
        + agent("Q", [f"q{i}" for i in range(rng.choice((2, 3)))], ["go"],
                lambda: ["go"], ["a,*,*", "b,*,*"])) + "\n"


def _closure(universe, start, group):
    """Every interval linked to start by a chain of steps, each between
    two intervals some agent of the group cannot tell apart."""
    found = {start}
    queue = [start]
    for current in queue:
        for other in universe:
            if other not in found and any(epi_equiv(current, other, i) for i in group):
                found.add(other)
                queue.append(other)
    return found


def _check_classes(sys, rng, per_length):
    by_length = {}
    for interval in intervals_up_to(sys, 4):
        by_length.setdefault(len(interval.configs), []).append(interval.configs)
    agents = range(len(sys.agents))
    for universe in by_length.values():
        for configs in rng.sample(universe, min(per_length, len(universe))):
            for agent in agents:
                expected = sorted(J for J in universe if epi_equiv(configs, J, agent))
                assert list(epi_class(sys, configs, agent)) == expected
            group = rng.sample(list(agents), rng.randint(1, min(3, len(agents))))
            members = common_class(sys, configs, group)
            assert members[0] == configs
            assert len(set(members)) == len(members)
            assert set(members) == _closure(universe, configs, group)


@pytest.mark.parametrize("seed", range(12))
def test_classes_of_random_branching_systems(seed):
    rng = random.Random(seed)
    _check_classes(parse_system(_branching_text(rng)), rng, per_length=8)


def test_classes_of_the_three_counter_ring():
    _check_classes(parse_system(ring_text(3, [1, 1, 1])), random.Random(3), per_length=4)


# ---------------------------------------------------------------------------
# Work counts

@pytest.fixture()
def class_calls(monkeypatch):
    """Every (agent, local-state sequence) that `systems.epi_class` is
    asked to expand, in call order."""
    calls = []
    original = systems.epi_class

    def counted(sys, configs, agent):
        calls.append((agent, tuple(g[agent] for g in configs)))
        return original(sys, configs, agent)

    monkeypatch.setattr(systems, "epi_class", counted)
    return calls


def test_common_class_expands_each_view_once(class_calls, is_ex):
    ring = parse_system(ring_text(3, [1, 1, 1]))
    cases = [(is_ex, I.configs, group) for I in intervals_up_to(is_ex, 4)
             for group in ([0], [1], [0, 1])]
    start = ring.aliases["k000"]
    paths = [(start,), (start, ring.successors(start)[0])]
    cases += [(ring, p, group) for p in paths
              for group in itertools.combinations(range(4), 2)]
    for sys, configs, group in cases:
        del class_calls[:]
        common_class(sys, configs, group)
        assert len(class_calls) == len(set(class_calls))


def test_nested_diamonds_over_common_knowledge_under_a_cap(class_calls, is_ex, gs):
    verdict = check_abln(is_ex, Interval(cfgs(gs, "g1")),
                         parse_plus("<L> <A> <L> C{0,1} p"), user_bound(3))
    assert (verdict.holds, verdict.regime) == (False, "BoundedAt(3)")
    # 823 expansions; one per (member, agent) pair of every class took 185,986
    assert len(class_calls) <= 1000


# ---------------------------------------------------------------------------
# Bad agents and groups

@pytest.mark.parametrize("agent", [7, 2, -1])
def test_agent_out_of_range_is_input_error(is_ex, gs, agent):
    with pytest.raises(InputError, match=f"agent index {agent} out of range"):
        ehsmc.epi_class(is_ex, cfgs(gs, "g1"), agent)
    with pytest.raises(InputError, match=f"agent index {agent} out of range"):
        common_class(is_ex, cfgs(gs, "g1"), [0, agent])


def test_empty_group_is_input_error(is_ex, gs):
    with pytest.raises(InputError, match="agent group must be non-empty"):
        common_class(is_ex, cfgs(gs, "g1"), [])


def test_cli_unknown_agent_index_is_exit_2(capsys):
    assert main(["check", data_path("is_ex.isrl"), "K{7} p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
