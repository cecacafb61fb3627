"""Tests for the interpreted-system core: transition relation, intervals,
Allen relations, epistemic classes, text format."""

import dataclasses
import itertools
import random
import time

import pytest

from ehsmc.errors import InputError
from ehsmc.regexes import EPSILON, Sym, denotes, parse_regex, symbol_text
from ehsmc.systems import (
    AnchoredInterval,
    Interval,
    LocalComponent,
    InterpretedSystem,
    Relation,
    SystemParseError,
    _pattern_matches,
    allen_successors,
    common_class,
    epi_class,
    format_system,
    label_holds,
    load_system,
    parse_system,
    system_warnings,
    tg_to_dot,
    validate_interval,
)

from ehsmc.abln import check_abln, user_bound
from ehsmc.bde import check_bde
from ehsmc.formulas import PI, Atom, Var, parse_plus, parse_re

from conftest import COMMA_SYS_TEXT, cfgs, data_path, iv
from genutil import epi_equiv, intervals_up_to, ring_text

with open(data_path("is_ex.isrl")) as fh:
    IS_EX_TEXT = fh.read()


def names(sys_, paths):
    return sorted("".join(sys_.display(c) for c in p) for p in paths)


class TestRunningExample:
    def test_configuration_space(self, is_ex):
        assert len(is_ex.all_configs) == 3
        assert is_ex.display(is_ex.initial) == "g1"

    def test_global_transition_pairs(self, is_ex, gs):
        edges = {
            (is_ex.display(a), is_ex.display(b))
            for a in is_ex.reachable
            for b in is_ex.successors(a)
        }
        assert edges == {("g1", "g2"), ("g2", "g3"), ("g2", "g1"), ("g3", "g1")}
        assert gs["g2"] in is_ex.successors(gs["g1"])
        assert gs["g3"] not in is_ex.successors(gs["g1"])

    def test_reachable(self, is_ex, gs):
        assert set(is_ex.reachable) == {gs["g1"], gs["g2"], gs["g3"]}

    def test_label_membership(self, is_ex, gs):
        assert label_holds(is_ex, "p", cfgs(gs, "g1", "g2", "g3"))
        assert label_holds(is_ex, "p", cfgs(gs, "g1", "g2", "g1", "g2", "g3"))
        assert not label_holds(is_ex, "p", cfgs(gs, "g1"))
        with pytest.raises(InputError):
            label_holds(is_ex, "nope", cfgs(gs, "g1"))

    def test_validation_clean(self, is_ex):
        assert system_warnings(is_ex) == []

    def test_config_by_name_reads_aliases_and_tuples(self, is_ex, gs):
        assert is_ex.config_by_name("g2") == gs["g2"]
        # whitespace around a state is ignored, as a label reads the tuple
        for name in ("(l0,l1)", "(l0, l1)", "( l0 ,\tl1 )"):
            assert is_ex.config_by_name(name) == ("l0", "l1")
        # a wrong arity, an undeclared state, no parentheses
        for name in ("(l0)", "(l0,l1,l1)", "(l0,l9)", "(l0 l1)", "l0,l1", "()", "g4"):
            with pytest.raises(InputError) as exc:
                is_ex.config_by_name(name)
            assert str(exc.value) == f"unknown configuration {name!r}"

    @pytest.mark.parametrize("system", ["is_ex", "ring3"])
    def test_label_holds_agrees_with_denotes(self, is_ex, system):
        # the automaton and the derivative route read the same letters:
        # the configurations themselves
        sys_ = is_ex if system == "is_ex" else parse_system(ring_text(3, (2, 0, 1)))
        intervals = intervals_up_to(sys_, 4)
        for var in sys_.variables:
            expr = sys_.labelling[var]
            for interval in intervals:
                assert (label_holds(sys_, var, interval.configs)
                        == denotes(expr, interval.configs)), (var, interval)
        assert len(intervals) == (19 if system == "is_ex" else 27 * (1 + 3 + 9 + 27))


class TestIntervals:
    def test_point(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1"), PI)
        assert not check_bde(is_ex, iv(gs, "g1", "g2"), PI)

    def test_non_empty(self):
        with pytest.raises(InputError, match="intervals are non-empty"):
            Interval(())

    def test_validate_interval(self, is_ex, gs):
        validate_interval(is_ex, iv(gs, "g1", "g2", "g3"))
        with pytest.raises(ValueError):
            validate_interval(is_ex, iv(gs, "g1", "g3"))

    def test_anchored_total_length(self, gs):
        a = AnchoredInterval((gs["g1"],), iv(gs, "g2", "g3"))
        assert a.total_length == 3


class TestAllenSuccessors:
    @pytest.mark.parametrize("relation, max_len, message", [
        (Relation.A, None, "relation A requires max_len"),
        (Relation.O, 3, "relation O is history-dependent; use the bounded oracle"),
        ("X", 3, "unknown relation 'X'"),
    ])
    def test_misuse_is_an_input_error(self, is_ex, gs, relation, max_len, message):
        with pytest.raises(InputError) as exc:
            list(allen_successors(is_ex, cfgs(gs, "g1"), relation, max_len))
        assert str(exc.value) == message

    def test_begins(self, is_ex, gs):
        got = names(is_ex, allen_successors(is_ex, cfgs(gs, "g1", "g2", "g3"), Relation.B))
        assert got == ["g1", "g1g2"]

    def test_meets(self, is_ex, gs):
        got = names(is_ex, allen_successors(is_ex, cfgs(gs, "g1"), Relation.A, 3))
        assert got == ["g1", "g1g2", "g1g2g1", "g1g2g3"]
        # a relation may be given by its name
        assert names(is_ex, allen_successors(is_ex, cfgs(gs, "g1"), "A", 3)) == got

    def test_next(self, is_ex, gs):
        got = names(is_ex, allen_successors(is_ex, cfgs(gs, "g1", "g2"), Relation.N, 2))
        assert got == ["g1", "g1g2", "g3", "g3g1"]

    def test_during_and_ends(self, is_ex, gs):
        I = cfgs(gs, "g1", "g2", "g3")
        assert names(is_ex, allen_successors(is_ex, I, Relation.D)) == ["g2"]
        assert names(is_ex, allen_successors(is_ex, I, Relation.E)) == ["g2g3", "g3"]

    def test_during_deduplicates(self, is_ex, gs):
        I = cfgs(gs, "g1", "g2", "g1", "g2", "g3")
        got = list(allen_successors(is_ex, I, Relation.D))
        assert len(got) == len(set(got))

    def test_extends(self, is_ex, gs):
        got = names(is_ex, allen_successors(is_ex, cfgs(gs, "g1"), Relation.BBAR, 3))
        assert got == ["g1g2", "g1g2g1", "g1g2g3"]

    def test_missing_max_len(self, is_ex, gs):
        with pytest.raises(ValueError):
            list(allen_successors(is_ex, cfgs(gs, "g1"), Relation.A))

    def test_backward_relations_rejected(self, is_ex, gs):
        with pytest.raises(ValueError):
            list(allen_successors(is_ex, cfgs(gs, "g1"), Relation.ABAR, 3))

    def test_enumeration_matches_definitions(self, is_ex):
        # Every yielded interval satisfies the defining condition, and
        # every interval satisfying it (within the length cap) is
        # yielded. Brute-forced over all intervals of length <= 4.
        universe = [J.configs for J in intervals_up_to(is_ex, 4)]
        for I in intervals_up_to(is_ex, 3):
            c = I.configs
            expected = {
                Relation.B: {J for J in universe if len(J) < len(I) and c[: len(J)] == J},
                Relation.E: {J for J in universe if len(J) < len(I) and c[len(I) - len(J):] == J},
                Relation.D: {
                    J
                    for J in universe
                    if any(
                        c[i : i + len(J)] == J
                        for i in range(1, len(I) - len(J))
                    )
                },
                Relation.A: {J for J in universe if J[0] == I.last},
                Relation.N: {
                    J for J in universe if J[0] in is_ex.successors(I.last)
                },
                Relation.BBAR: {
                    J
                    for J in universe
                    if len(J) > len(I) and J[: len(I)] == c
                },
            }
            for rel, want in expected.items():
                got = set(allen_successors(is_ex, c, rel, 4))
                assert got == want, (rel, names(is_ex, got), names(is_ex, want))

    def test_deterministic_order(self, is_ex, gs):
        I = cfgs(gs, "g2")
        a = list(allen_successors(is_ex, I, Relation.A, 3))
        b = list(allen_successors(is_ex, I, Relation.A, 3))
        assert a == b
        lengths = [len(c) for c in a]
        assert lengths == sorted(lengths)


def later(sys_, start, operand: str) -> bool:
    """<L> operand at the point interval, searched three steps deep."""
    verdict = check_abln(sys_, Interval((start,)), parse_plus(f"<L> ({operand})"), user_bound(3))
    return verdict.holds


class TestLater:
    """The later relation, which the engines reach through meets: an
    interval is later when it starts at least one step after the end."""

    @pytest.fixture(scope="class")
    def marked(self):
        with open(data_path("is_ex.isrl")) as fh:
            text = fh.read()
        return parse_system(text + "label at1 = g1\nlabel at2 = g2\nlabel at3 = g3\n")

    def test_points_from_g1(self, marked):
        start = marked.aliases["g1"]
        for name in ("at1", "at2", "at3"):
            assert later(marked, start, f"pi & {name}")

    def test_g3_reaches_itself(self, marked):
        assert later(marked, marked.aliases["g3"], "pi & at3")

    def test_no_successor_means_empty(self):
        sys_ = parse_system(
            """
agent Solo
  states s t
  init s
  actions go
  protocol s: go
  trans s (go) t
config cs = (s)
config ct = (t)
"""
        )
        t = sys_.aliases["ct"]
        verdict = check_abln(sys_, Interval((t,)), parse_plus("<L> true"), user_bound(3))
        assert not verdict.holds and verdict.conclusive


class TestEpistemic:
    def test_blind_agent_relates_same_length(self, is_ex, gs):
        assert cfgs(gs, "g2", "g3") in epi_class(is_ex, cfgs(gs, "g1", "g2"), 0)
        assert cfgs(gs, "g1", "g2") not in epi_class(is_ex, cfgs(gs, "g1"), 0)

    def test_observant_agent_distinguishes(self, is_ex, gs):
        assert cfgs(gs, "g1", "g2") in epi_class(is_ex, cfgs(gs, "g1", "g2"), 1)
        assert cfgs(gs, "g2", "g3") not in epi_class(is_ex, cfgs(gs, "g1", "g2"), 1)

    def test_classes(self, is_ex, gs):
        assert names(is_ex, epi_class(is_ex, cfgs(gs, "g1"), 0)) == ["g1", "g2", "g3"]
        assert names(is_ex, epi_class(is_ex, cfgs(gs, "g1"), 1)) == ["g1"]
        assert names(is_ex, epi_class(is_ex, cfgs(gs, "g1", "g2"), 1)) == ["g1g2"]

    def test_common_classes(self, is_ex, gs):
        assert names(is_ex, common_class(is_ex, cfgs(gs, "g1"), {0, 1})) == ["g1", "g2", "g3"]
        assert names(is_ex, common_class(is_ex, cfgs(gs, "g1"), {1})) == ["g1"]

    def test_singleton_group_equals_class(self, is_ex):
        for I in intervals_up_to(is_ex, 2):
            c = I.configs
            assert set(common_class(is_ex, c, {0})) == set(epi_class(is_ex, c, 0)) | {c}

    def test_equivalence_relation(self, is_ex):
        universe = [J.configs for J in intervals_up_to(is_ex, 3)]
        for agent in (0, 1):
            for I in universe:
                members = set(epi_class(is_ex, I, agent))
                assert members == {J for J in universe if epi_equiv(I, J, agent)}
                # classes partition the intervals: each member has the same class
                assert I in members
                for J in members:
                    assert set(epi_class(is_ex, J, agent)) == members

    def test_common_class_closed(self, is_ex):
        for I in intervals_up_to(is_ex, 2):
            closure = set(common_class(is_ex, I.configs, {0, 1}))
            for member in closure:
                for agent in (0, 1):
                    assert set(epi_class(is_ex, member, agent)) <= closure

    def test_bad_agent_index(self, is_ex, gs):
        with pytest.raises(InputError):
            epi_class(is_ex, cfgs(gs, "g1"), 7)


def broken(index=None, labelling=None, aliases=None, **changes):
    """Constructor arguments of the running example with one agent's
    fields changed, the labelling replaced or aliases added."""
    def arguments(sys_):
        agents = list(sys_.agents)
        if index is not None:
            agents[index] = dataclasses.replace(agents[index], **changes)
        return agents, labelling or sys_.labelling, {**sys_.aliases, **(aliases or {})}
    return arguments


MALFORMED = [
    pytest.param(lambda s: ([], {}, {}), "at least one agent is required", id="no-agents"),
    pytest.param(broken(1, name="Env", init="zz"), "agent Env: duplicate agent name",
                 id="duplicate-agent"),
    pytest.param(broken(1, states=()), "agent Proc: declares no local states",
                 id="no-states"),
    pytest.param(broken(1, states=("l1", "l2", "l2", "l3")),
                 "agent Proc: duplicate local states", id="duplicate-states"),
    pytest.param(broken(0, init="zz"), "agent Env: init 'zz' not a state", id="init"),
    pytest.param(broken(1, protocol={"l9": ("eps",)}),
                 "agent Proc: protocol for unknown state 'l9'", id="protocol-state"),
    pytest.param(broken(1, protocol={"l1": ("run",)}),
                 "agent Proc: protocol action 'run' not declared", id="protocol-action"),
    pytest.param(broken(1, transitions=(("l1", ("a1", "eps"), "l9"),)),
                 "agent Proc: transition 'l1' -> 'l9' uses unknown states",
                 id="transition-state"),
    pytest.param(broken(1, transitions=(("l1", ("a1",), "l2"),)),
                 "agent Proc: pattern ('a1',) has arity 1, expected 2", id="arity"),
    pytest.param(broken(1, transitions=(("l1", ("a9", "eps"), "l2"),)),
                 "agent Proc: pattern slot 0 names unknown action 'a9'",
                 id="pattern-action"),
    pytest.param(lambda s: ([LocalComponent("A", ("a", "a,b"), "a", ("go",), {}, ()),
                             LocalComponent("B", ("b,c", "c"), "c", ("go",), {}, ())], {}, {}),
                 "agent A: state 'a,b' is not a name (word characters and '.')",
                 id="reserved-character"),
    # "*" is the pattern wildcard
    pytest.param(broken(0, actions=("a1", "a2", "*")),
                 "agent Env: action '*' is not a name (word characters and '.')",
                 id="wildcard-action"),
    pytest.param(broken(0, name="A B"),
                 "agent A B: 'A B' is not a name (word characters and '.')", id="agent-space"),
    # K{01} would read agent 1
    pytest.param(broken(0, name="01"), "agent 01: '01' would read as an agent index",
                 id="agent-digits"),
    # a label naming it would read the empty word
    pytest.param(broken(aliases={"eps": ("l0", "l1")}), "config eps: 'eps' is reserved",
                 id="alias-eps"),
    pytest.param(broken(labelling={"true": Sym("(l0,l2)")}),
                 "label true: 'true' is reserved", id="variable-true"),
    pytest.param(broken(labelling={"T": Sym("(l0,l2)")}),
                 "label T: 'T' is reserved", id="variable-T"),
    # the regex atom {eps} would read the empty word
    pytest.param(broken(labelling={"eps": Sym("(l0,l2)")}),
                 "label eps: 'eps' is reserved", id="variable-eps"),
    pytest.param(broken(labelling={"v-1": Sym("(l0,l2)")}),
                 "label v-1: 'v-1' is not a name (word characters and '.')", id="variable-dash"),
    pytest.param(broken(aliases={"g": ("l0",)}),
                 "config g: ('l0',) is not a configuration", id="alias-arity"),
    pytest.param(broken(aliases={"g": ("l0", "l9")}),
                 "config g: ('l0', 'l9') is not a configuration", id="alias-state"),
    pytest.param(broken(labelling={"p": Sym("(l0,l9)")}),
                 "label p: symbols outside the configuration space: ['(l0,l9)']",
                 id="label-symbol"),
]


class TestValidation:
    @pytest.mark.parametrize("arguments,message", MALFORMED)
    def test_malformed_system_rejected_at_construction(self, is_ex, arguments, message):
        with pytest.raises(InputError) as exc:
            InterpretedSystem(*arguments(is_ex))
        assert str(exc.value) == message

    def test_bad_init_file_rejected_at_load(self, tmp_path):
        with open(data_path("is_ex.isrl")) as fh:
            text = fh.read()
        path = tmp_path / "bad_init.isrl"
        path.write_text(text.replace("init l0", "init zz"))
        with pytest.raises(InputError) as exc:
            load_system(str(path))
        assert str(exc.value) == f"{path}: line 2: agent Env: init 'zz' not a state"

    def test_duplicate_agent_file_names_the_repeating_block(self, tmp_path):
        with open(data_path("is_ex.isrl")) as fh:
            text = fh.read()
        path = tmp_path / "two_envs.isrl"
        path.write_text(text.replace("agent Proc", "agent Env"))
        with pytest.raises(InputError) as exc:
            load_system(str(path))
        assert str(exc.value) == f"{path}: line 8: agent Env: duplicate agent name"

    # (line after which a copy is inserted, the copy, its message); the
    # running example's lines: 3-6 Env's block, 9-14 Proc's declarations,
    # 20-22 the configs and 23 the label
    @pytest.mark.parametrize("after, copy, message", [
        (9, "  states l1 l2 l3", "agent Proc: states already declared at line 9"),
        (10, "  init l2", "agent Proc: init already declared at line 10"),
        (5, "  actions a1", "agent Env: actions already declared at line 5"),
        (14, "  protocol l2: eps", "agent Proc: protocol l2 already declared at line 13"),
        (23, "config g1 = (l0,l2)", "config g1 already declared at line 20"),
        (23, "label p = g2", "label p already declared at line 23"),
    ])
    def test_repeated_declaration_rejected_at_its_line(self, after, copy, message):
        lines = IS_EX_TEXT.splitlines()
        lines.insert(after, copy)
        with pytest.raises(SystemParseError) as exc:
            parse_system("\n".join(lines) + "\n")
        assert str(exc.value) == f"line {after + 1}: {message}"

    def test_transitions_may_repeat_and_blocks_declare_apart(self, is_ex):
        # both agents declare states, init, actions and a protocol
        text = IS_EX_TEXT.replace("  trans l1 (a1,eps) l2\n", "  trans l1 (a1,eps) l2\n" * 2)
        assert parse_system(text).successors(is_ex.initial) == is_ex.successors(is_ex.initial)

    def test_rejections_name_their_line(self, is_ex):
        text = format_system(is_ex) + "config bad = (l0,l9)\n"
        with pytest.raises(SystemParseError) as exc:
            parse_system(text)
        assert exc.value.line == text.count("\n")
        with pytest.raises(SystemParseError) as exc:
            parse_system("# no init\nagent A\n  states s\n")
        assert exc.value.line == 2
        with pytest.raises(SystemParseError, match="line 1: at least one agent"):
            parse_system("# no agent\n")
        with pytest.raises(SystemParseError) as exc:
            parse_system(COMMA_SYS_TEXT)
        assert str(exc.value) == \
            "line 2: agent A: state 'a,b' is not a name (word characters and '.')"
        # a variable the labelling rejects is reported at its label line
        text = format_system(is_ex) + "label true = g2\nlabel q = g3\n"
        with pytest.raises(SystemParseError) as exc:
            parse_system(text)
        line = text.count("\n") - 1
        assert str(exc.value) == f"line {line}: label true: 'true' is reserved"
        # a name holding ": " still finds its line
        with pytest.raises(SystemParseError) as exc:
            parse_system(IS_EX_TEXT.replace("agent Proc", "agent Proc: worker"))
        assert str(exc.value) == "line 8: agent Proc: worker: 'Proc: worker' is not a name " \
            "(word characters and '.')"

    def test_relabelling_shares_the_step_relation(self, is_ex, gs):
        relabelled = is_ex.with_labelling({"q": Sym(gs["g2"])})
        assert relabelled._succ is is_ex._succ
        assert relabelled.alphabet is is_ex.alphabet
        assert relabelled.variables == ("q",) and is_ex.variables == ("p",)
        assert label_holds(relabelled, "q", cfgs(gs, "g2"))
        with pytest.raises(InputError, match="outside the configuration space"):
            is_ex.with_labelling({"q": Sym(("l0", "l9"))})
        assert is_ex.variables == ("p",)
        # nothing the constructor sets is left out
        built = InterpretedSystem(is_ex.agents, {}, is_ex.aliases)
        assert list(vars(built.with_labelling({}))) == list(vars(built))

    def test_epsilon_label_warns(self, is_ex):
        sys_ = InterpretedSystem(is_ex.agents, {"p": EPSILON}, is_ex.aliases)
        assert any("empty word" in w for w in system_warnings(sys_))

    def test_actionless_state_warns(self, is_ex):
        proc = is_ex.agents[1]
        crippled = LocalComponent(
            proc.name, proc.states, proc.init, proc.actions,
            {k: v for k, v in proc.protocol.items() if k != "l1"},
            proc.transitions,
        )
        sys_ = InterpretedSystem((is_ex.agents[0], crippled), is_ex.labelling, is_ex.aliases)
        assert any("l1" in w and "no action" in w for w in system_warnings(sys_))


# Names of every kind the grammars could disagree on; those outside the
# rule contain a character that is neither a word character nor '.'
NAME_POOL = ["q", "v.1", "c_2", "01", "_", ".", "\u00b2", "\u0663", "\u0109", "\u1e57",
             "x-y", "n'", "pi", "true", "false", "empty", "eps", "T"]
NOT_NAMES = {"x-y", "n'"}
LABEL_CONSTANTS = {"empty", "eps"}
RESERVED_VARIABLES = LABEL_CONSTANTS | {"pi", "true", "false", "T"}


class TestNameRule:
    """A name a system declares loads exactly when formulas and labels
    read it back as that name."""

    @pytest.mark.parametrize("name", NAME_POOL)
    def test_variable_names(self, name):
        text = IS_EX_TEXT + f"label {name} = g2\n"
        if name in NOT_NAMES | RESERVED_VARIABLES:
            with pytest.raises(SystemParseError) as exc:
                parse_system(text)
            assert exc.value.line == text.count("\n")
            assert str(exc.value).startswith(f"line {exc.value.line}: label {name}: {name!r} ")
            return
        assert parse_system(text).variables == ("p", name)
        assert parse_plus(name) == Var(name)
        assert parse_re(name) == parse_re("{" + name + "}") == Atom(Sym(name))

    @pytest.mark.parametrize("name", NAME_POOL)
    def test_alias_names(self, name):
        text = IS_EX_TEXT + f"config {name} = (l0,l2)\nlabel r = {name}\n"
        if name in NOT_NAMES | LABEL_CONSTANTS:
            with pytest.raises(SystemParseError) as exc:
                parse_system(text)
            assert exc.value.line == text.count("\n") - 1
            assert str(exc.value).startswith(f"line {exc.value.line}: config {name}: {name!r} ")
            return
        system = parse_system(text)
        assert system.config_by_name(name) == ("l0", "l2")
        assert system.labelling["r"] == Sym(("l0", "l2"))


class TestTextFormat:
    def test_round_trip(self, is_ex):
        again = parse_system(format_system(is_ex))
        assert again.all_configs == is_ex.all_configs
        assert again.labelling == is_ex.labelling
        assert {(a, b) for a in again.reachable for b in again.successors(a)} == {
            (a, b) for a in is_ex.reachable for b in is_ex.successors(a)
        }
        # serialization is idempotent
        assert format_system(again) == format_system(is_ex)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(SystemParseError) as exc:
            parse_system("agent A\n  bogus x\n")
        assert "line 2" in str(exc.value)
        with pytest.raises(SystemParseError):
            parse_system("states l0\n")
        with pytest.raises(SystemParseError):
            parse_system("agent A\n  init s\nlabel p = q9\n")

    def test_symbol_text(self):
        assert symbol_text(("l0", "l1")) == "(l0,l1)"
        assert symbol_text(("l0",)) == "(l0)"
        assert symbol_text("g1") == "g1"

    def test_modified_transition_shrinks_reachable(self, is_ex):
        proc = is_ex.agents[1]
        trimmed = LocalComponent(
            proc.name, proc.states, proc.init, proc.actions, proc.protocol,
            tuple(t for t in proc.transitions if not (t[0] == "l2" and t[2] == "l3")),
        )
        sys_ = InterpretedSystem((is_ex.agents[0], trimmed), is_ex.labelling, is_ex.aliases)
        assert {sys_.display(g) for g in sys_.reachable} == {"g1", "g2"}


def test_tg_dot(is_ex):
    dot = tg_to_dot(is_ex)
    assert dot.count("->") == 4
    assert dot.count("circle") >= 3
    assert dot == tg_to_dot(is_ex)


# --- successor construction ------------------------------------------------


def reference_successors(sys_, g):
    """Successors by brute force: every joint action the protocols
    permit, each agent's rules matched against it afresh."""
    permitted = []
    for agent, local in zip(sys_.agents, g):
        acts = agent.protocol.get(local, ())
        if not acts:
            return ()
        permitted.append(sorted(acts))
    out = set()
    for joint in itertools.product(*permitted):
        targets = []
        for agent, local in zip(sys_.agents, g):
            t = {dst for (src, pat, dst) in agent.transitions
                 if src == local and _pattern_matches(pat, joint)}
            if not t:
                break
            targets.append(t)
        else:
            out.update(itertools.product(*targets))
    return tuple(sorted(c for c in out if c in set(sys_.all_configs)))


def random_branching_system(rng):
    """Up to four agents with partial protocols, wildcard patterns and
    nondeterministic rules. States are declared in random order (and
    `s10` sorts before `s2`), some declared actions are never offered,
    and some agents offer no action in any state."""
    n = rng.randint(1, 4)
    offered = [[f"a{i}{k}" for k in range(rng.randint(1, 3))] for i in range(n)]
    actions = [acts + ([f"u{i}"] if rng.random() < 0.3 else [])
               for i, acts in enumerate(offered)]
    agents = []
    for i in range(n):
        states = tuple(rng.sample(["s2", "s10", "s1", "t", "S0"], rng.randint(1, 3)))
        if rng.random() < 0.05:
            protocol = dict.fromkeys(states, ())
        else:
            protocol = {
                s: tuple(rng.sample(offered[i], rng.randint(0 if rng.random() < 0.1 else 1,
                                                            len(offered[i]))))
                for s in states
            }
        rules = []
        for _ in range(rng.randint(1, 10)):
            pattern = tuple("*" if rng.random() < 0.4 else rng.choice(actions[j])
                            for j in range(n))
            rules.append((rng.choice(states), pattern, rng.choice(states)))
        agents.append(LocalComponent(f"A{i}", states, states[0], tuple(actions[i]),
                                     protocol, tuple(rules)))
    return InterpretedSystem(agents, {})


class TestSuccessorConstruction:
    def test_rings_match_reference(self):
        for n in (2, 3, 4):
            sys_ = parse_system(ring_text(n, (1,) * n))
            assert len(sys_.reachable) == 3 ** n
            for g in sys_.all_configs:
                assert sys_.successors(g) == reference_successors(sys_, g)

    def test_branching_systems_match_reference(self):
        rng = random.Random(7)
        edges = 0
        for _ in range(300):
            sys_ = random_branching_system(rng)
            assert sys_.all_configs == tuple(
                sorted(itertools.product(*(a.states for a in sys_.agents))))
            for g in sys_.all_configs:
                expected = reference_successors(sys_, g)
                assert sys_.successors(g) == expected
                edges += len(expected)
        assert edges > 1000

    def test_seven_counter_ring_with_inline_tuple_label(self):
        # 2,187 configurations, each named in a label as an inline tuple: a
        # scan of the alphabet per symbol makes that label quadratic to parse
        ring = ring_text(7, (1,) * 7)
        names = [symbol_text(g) for g in parse_system(ring).all_configs]
        random.Random(0).shuffle(names)
        text = ring + "label every = (" + " + ".join(names) + ")*\n"
        started = time.perf_counter()
        sys_ = parse_system(text)
        dfa = sys_.dfa_for("every")
        elapsed = time.perf_counter() - started
        assert len(sys_.reachable) == 2187
        assert all(len(sys_.successors(g)) == 7 for g in sys_.reachable)
        assert dfa.states == ("z1",) and dfa.accepting == frozenset({"z1"})
        assert elapsed < 2.0, f"7-counter ring parsed and compiled in {elapsed:.2f} s"
