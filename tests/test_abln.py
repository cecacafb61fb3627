"""Bounded ABLN engine: witness search, verdict regimes, guard, MCTs."""

import random

import pytest

from ehsmc.abln import (
    LITERAL_BOUND,
    TIGHT_BOUND,
    BoundInfeasibleError,
    BoundMode,
    Verdict,
    _Product,
    check_abln,
    compute_mct,
    mct_to_dot,
    regular_witness_search,
    user_bound,
)
from ehsmc.bde import evaluate
from ehsmc.errors import InputError
from ehsmc.formulas import (And, C, Diamond, Fragment, FragmentError, K, Not, fis_bound,
                            parse_plus, parse_re, prepare,
                            relations_of, subformulas, tight_bound)
from ehsmc.oracle import minimal_anchor, oracle_check
from ehsmc.systems import (Interval, Relation, format_system, forward_frame, parse_system,
                           validate_interval)

from conftest import iv
from genutil import abln_kit, all_formulas, intervals_up_to, modal_depth, ring_text
from test_acceptance import (_boolean_holds, _branching_system, _deterministic_system,
                             _general_labelled_system, _random_boolean)

SOLO_TEXT = """\
agent S
  states s
  init s
  actions loop
  protocol s: loop
  trans s (loop) s
config g = (s)
label p = g g
"""

# same single self-looping configuration, no variables at all
SOLO_BARE_TEXT = SOLO_TEXT.rsplit("label", 1)[0]

CHAIN_TEXT = """\
agent S
  states a b c
  init a
  actions go
  protocol a: go
  protocol b: go
  trans a (go) b
  trans b (go) c
config a = (a)
config b = (b)
config c = (c)
label x = a b c
"""


@pytest.fixture(scope="module")
def solo():
    return parse_system(SOLO_TEXT)


@pytest.fixture(scope="module")
def solo_bare():
    return parse_system(SOLO_BARE_TEXT)


@pytest.fixture(scope="module")
def chain():
    return parse_system(CHAIN_TEXT)


class TestBoundModes:
    def test_user_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            user_bound(0)
        with pytest.raises(ValueError):
            BoundMode("user")

    def test_computed_modes_take_no_cap(self):
        with pytest.raises(ValueError):
            BoundMode("literal", 5)
        with pytest.raises(ValueError):
            BoundMode("nonsense")

    def test_regime_strings(self):
        assert Verdict(True).regime == "Conclusive"
        assert Verdict(True).conclusive
        assert Verdict(False, 3).regime == "BoundedAt(3)"
        assert not Verdict(False, 3).conclusive


class TestWitnessSearch:
    def test_shortest_witness_from_g1(self, is_ex, gs):
        w = regular_witness_search(is_ex, iv(gs, "g1"), Relation.A, parse_plus("p"))
        assert w == iv(gs, "g1", "g2", "g3")
        # a relation may be given by its name
        assert regular_witness_search(is_ex, iv(gs, "g1"), "A", parse_plus("p")) == w

    def test_no_witness_from_g2(self, is_ex, gs):
        assert regular_witness_search(is_ex, iv(gs, "g2"), Relation.A, parse_plus("p")) is None

    def test_point_operand_gives_point(self, is_ex, gs):
        w = regular_witness_search(is_ex, iv(gs, "g2"), Relation.A, parse_plus("pi"))
        assert w == iv(gs, "g2")

    def test_extension_witness(self, is_ex, gs):
        w = regular_witness_search(is_ex, iv(gs, "g1"), Relation.BBAR, parse_plus("p"))
        assert w == iv(gs, "g1", "g2", "g3")

    def test_extension_is_strict(self, is_ex, gs):
        # the interval itself satisfies p, but no proper extension does:
        # the letter g3 may only close a word of L(p), never sit inside one
        base = iv(gs, "g1", "g2", "g3")
        assert regular_witness_search(is_ex, base, Relation.BBAR, parse_plus("p")) is None

    def test_boolean_operands(self, is_ex, gs):
        w = regular_witness_search(
            is_ex, iv(gs, "g1"), Relation.A, parse_plus("!p & !pi")
        )
        assert w is not None and len(w.configs) == 2
        assert regular_witness_search(is_ex, iv(gs, "g1"), Relation.A, parse_plus("false")) is None

    def test_modal_operands_rejected(self, is_ex, gs):
        with pytest.raises(ValueError):
            regular_witness_search(is_ex, iv(gs, "g1"), Relation.A, parse_plus("<A> p"))

    def test_unknown_variable(self, is_ex, gs):
        with pytest.raises(InputError):
            regular_witness_search(is_ex, iv(gs, "g1"), Relation.A, parse_plus("zz"))

    def test_agrees_with_plain_enumeration(self, is_ex, gs):
        # diameter bound for one 4-state DFA: 3 * 4 * 2 + 1 = 25; a short
        # prefix of it suffices to cross-check on the running example
        operands = ["p", "!p", "pi", "!pi", "p & !pi", "!p & !pi", "false"]
        for text in operands:
            f = parse_plus(text)
            for start in is_ex.reachable:
                got = regular_witness_search(is_ex, Interval((start,)), Relation.A, f)
                brute = None
                frontier = [(start,)]
                for _ in range(12):
                    nxt = []
                    for path in frontier:
                        from ehsmc.bde import check_bde

                        if brute is None and check_bde(is_ex, Interval(path), f):
                            brute = path
                        nxt.extend(path + (s,) for s in is_ex.successors(path[-1]))
                    if brute is not None:
                        break
                    frontier = nxt
                assert (got is None) == (brute is None)
                if got is not None:
                    assert len(got.configs) == len(brute)


    @pytest.mark.parametrize("name", ["solo_bare", "chain", "is_ex"])
    def test_point_rule(self, request, name):
        # a point is a one-configuration path after an empty prefix: <A> pi
        # and <N> pi hold exactly when a start exists, <Bbar> pi never holds
        sys_ = request.getfixturevalue(name)
        pi = parse_plus("pi")
        for interval in intervals_up_to(sys_, 3):
            successors = sys_.successors(interval.last)
            expected = {
                Relation.A: Interval((interval.last,)),
                Relation.N: Interval(successors[:1]) if successors else None,
                Relation.BBAR: None,
            }
            for relation, witness in expected.items():
                assert regular_witness_search(sys_, interval, relation, pi) == witness
                verdict = check_abln(sys_, interval, Diamond(relation, pi), LITERAL_BOUND)
                assert verdict == Verdict(witness is not None)

    def test_next_agrees_with_enumeration(self):
        # criterion-5-style branching systems and operands, on a stream of
        # their own: a shortest <N> witness starts at some successor and is
        # exactly as long as the shortest enumerated one
        rng = random.Random(5151)
        found_some = 0
        for _ in range(200):
            sys_, _ = _branching_system(rng, {1: 3, 2: 2, 3: 1})
            operand = _random_boolean(rng, rng.randint(1, 5), sys_.variables)
            start = rng.choice(sys_.reachable)
            got = regular_witness_search(sys_, Interval((start,)), Relation.N, operand)
            diameter = len(sys_.all_configs) * len(sys_.dfa_for("p").states) * 2 + 1
            shortest = None
            frontier = [(s,) for s in sys_.successors(start)]
            for _length in range(diameter):
                shortest = next(
                    (p for p in frontier if _boolean_holds(sys_, operand, p)), None)
                if shortest is not None or not frontier:
                    break
                frontier = [p + (s,) for p in frontier for s in sys_.successors(p[-1])]
            assert (got is None) == (shortest is None)
            if got is not None:
                found_some += 1
                assert len(got) == len(shortest)
                assert got.first in sys_.successors(start)
                validate_interval(sys_, got)
                assert _boolean_holds(sys_, operand, got.configs)
        assert 0 < found_some < 200


def _shared_product_systems():
    """A seeded sample of the generators' systems, and rings of two and
    three counters, where a class holds many members."""
    rng = random.Random(2207)
    systems = [_general_labelled_system(rng) for _ in range(8)]
    systems += [_deterministic_system(rng) for _ in range(4)]
    systems += [parse_system(ring_text(2, (1, 2))), parse_system(ring_text(3, (2, 0, 1)))]
    return rng, systems


FORWARD = (Relation.A, Relation.BBAR, Relation.N)


def _sharing_formula(rng, diamonds, depth):
    """A K/C/Boolean formula over a few diamonds, which share operands."""
    kind = rng.choice(("leaf", "K", "K", "C", "not", "and")) if depth else "leaf"
    if kind == "leaf":
        return rng.choice(diamonds)
    if kind == "K":
        return K(rng.randrange(2), _sharing_formula(rng, diamonds, depth - 1))
    if kind == "C":
        return C((0, 1), _sharing_formula(rng, diamonds, depth - 1))
    if kind == "not":
        return Not(_sharing_formula(rng, diamonds, depth - 1))
    return And(_sharing_formula(rng, diamonds, depth - 1),
               _sharing_formula(rng, diamonds, depth - 1))


def _fresh_search_per_member(sys_, configs, f):
    """The verdict with a fresh witness search at every interval a diamond
    is decided at, so that no two searches share a product."""
    def diamond(node, cfgs, holds):
        return regular_witness_search(sys_, Interval(cfgs), node.relation,
                                      node.sub) is not None

    return evaluate(sys_, prepare(sys_, f, Fragment.ABLN), configs, diamond)


class TestSharedProduct:
    """Every search for one operand within a check shares one product,
    whose memo of states that reach a witness, and of states that reach
    none, must not change a verdict or yield a wrong witness."""

    def test_check_matches_a_fresh_search_per_member(self):
        rng, systems = _shared_product_systems()
        checked = 0
        for sys_ in systems:
            variables = sorted(sys_.variables)
            intervals = intervals_up_to(sys_, 2)
            for _ in range(20):
                operands = [_random_boolean(rng, rng.randint(1, 4), variables)
                            for _ in range(2)]
                diamonds = [Diamond(r, o) for r in FORWARD for o in operands]
                f = _sharing_formula(rng, diamonds, 3)
                for interval in rng.sample(intervals, min(4, len(intervals))):
                    expected = _fresh_search_per_member(sys_, interval.configs, f)
                    assert check_abln(sys_, interval, f, LITERAL_BOUND) == Verdict(expected)
                    checked += 1
        assert checked > 800

    def test_warm_product_yields_related_witnesses(self):
        rng, systems = _shared_product_systems()
        warm_witnesses = 0
        for sys_ in systems:
            intervals = intervals_up_to(sys_, 3)
            for _ in range(3):
                operand = _random_boolean(rng, rng.randint(1, 4), sorted(sys_.variables))
                product = _Product(sys_, operand)
                for interval in rng.sample(intervals, min(12, len(intervals))):
                    for relation in FORWARD:
                        warm = bool(product.onward or product.dead)
                        prefix, starts = forward_frame(sys_, interval.configs, relation)
                        start = product.search(prefix, starts)
                        shortest = regular_witness_search(sys_, interval, relation, operand)
                        assert (start is None) == (shortest is None)
                        if start is None:
                            continue
                        path = product.path(start)
                        assert path[0] in starts
                        assert all(b in sys_.successors(a) for a, b in zip(path, path[1:]))
                        witness = prefix + path
                        assert _boolean_holds(sys_, operand, witness)
                        assert len(witness) >= len(shortest)
                        warm_witnesses += warm
        assert warm_witnesses > 100


class TestCheckExamples:
    def test_meets_with_modal_free_operand(self, is_ex, gs):
        v = check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> p"), user_bound(3))
        assert v == Verdict(True)
        assert v.regime == "Conclusive"

    @pytest.mark.parametrize("mode", [LITERAL_BOUND, TIGHT_BOUND, user_bound(4)])
    def test_conjunction_fails_conclusively(self, is_ex, gs, mode):
        f = parse_plus("K{0} pi & !(<A> p)")
        assert check_abln(is_ex, iv(gs, "g1"), f, mode) == Verdict(False)

    def test_single_config_literal_mode(self, solo):
        g = solo.config_by_name("g")
        assert fis_bound(solo, parse_plus("p")) == 32  # 2 * 1 * 2**4
        v = check_abln(solo, Interval((g,)), parse_plus("<A> p"), LITERAL_BOUND)
        assert v == Verdict(True)

    def test_tight_mode_is_honestly_bounded(self, solo):
        # the tight cap is below the exact bound: a found witness is
        # conclusive, an empty search of the looping paths is not
        g = solo.config_by_name("g")
        assert tight_bound(solo, parse_plus("<A> p")) == 4097
        assert fis_bound(solo, parse_plus("<A> p")) > 4097
        v = check_abln(solo, Interval((g,)), parse_plus("<A> <A> p"), TIGHT_BOUND)
        assert v == Verdict(True)
        v = check_abln(solo, Interval((g,)), parse_plus("[A] <A> p"), TIGHT_BOUND)
        assert v == Verdict(True, bounded_at=4097)

    def test_literal_mode_enumerates_small_modal_operands(self, solo_bare):
        g = solo_bare.config_by_name("g")
        f = parse_plus("<A> <A> true")
        assert fis_bound(solo_bare, parse_plus("<A> true")) == 8
        v = check_abln(solo_bare, Interval((g,)), f, LITERAL_BOUND)
        assert v == Verdict(True)

    def test_later_is_eliminated_on_entry(self, is_ex, gs):
        # every configuration can reach a p-interval at distance >= 1,
        # but no point interval ever satisfies p
        v = check_abln(is_ex, iv(gs, "g1"), parse_plus("<L> p"), user_bound(4))
        assert v.holds
        v = check_abln(is_ex, iv(gs, "g2"), parse_plus("<L> (p & pi)"), user_bound(4))
        assert not v.holds


class TestFragmentAndErrors:
    @pytest.mark.parametrize("text", ["<B> p", "<D> pi", "<E> p", "<Abar> p",
                                      "<Nbar> pi", "<Lbar> p", "<O> p"])
    def test_outside_fragment_rejected(self, is_ex, gs, text):
        with pytest.raises(FragmentError):
            check_abln(is_ex, iv(gs, "g1"), parse_plus(text), user_bound(2))

    def test_regex_atoms_rejected(self, is_ex, gs):
        with pytest.raises(FragmentError, match="reduced to variables"):
            check_abln(is_ex, iv(gs, "g1"), parse_re("{p T}"), user_bound(2))

    @pytest.mark.parametrize("build, message", [
        (lambda sys_, at: BoundMode("exact"), "unknown bound mode 'exact'"),
        (lambda sys_, at: regular_witness_search(sys_, at, Relation.A, parse_plus("<A> p")),
         "operand must be modal-free"),
        (lambda sys_, at: regular_witness_search(sys_, at, Relation.A, parse_re("{p}")),
         "reduce regex atoms to variables first"),
        (lambda sys_, at: regular_witness_search(sys_, at, Relation.B, parse_plus("p")),
         "relation B has no forward frame"),
        (lambda sys_, at: regular_witness_search(sys_, at, "X", parse_plus("p")),
         "unknown relation 'X'"),
    ])
    def test_misuse_is_an_input_error(self, is_ex, gs, build, message):
        with pytest.raises(InputError) as exc:
            build(is_ex, iv(gs, "g1"))
        assert str(exc.value) == message

    def test_invalid_interval(self, is_ex, gs):
        bad = Interval((gs["g1"], gs["g3"]))
        with pytest.raises(ValueError):
            check_abln(is_ex, bad, parse_plus("<A> p"), user_bound(2))

    def test_unknown_variable(self, is_ex, gs):
        # p fails on the point, so the evaluator alone would never look at zz
        with pytest.raises(InputError, match="unknown variable 'zz'"):
            check_abln(is_ex, iv(gs, "g1"), parse_plus("p & <A> zz"), LITERAL_BOUND)
        with pytest.raises(InputError, match="unknown variable 'zz'"):
            compute_mct(is_ex, iv(gs, "g1"), parse_plus("<A> zz"), 2)

    def test_depth_two_literal_bound_is_infeasible(self, is_ex, gs):
        with pytest.raises(BoundInfeasibleError) as e:
            check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> <A> p"), LITERAL_BOUND)
        assert e.value.ceiling == 10**7
        assert e.value.estimate > e.value.ceiling

    def test_tight_mode_is_guarded_too(self, is_ex, gs):
        with pytest.raises(BoundInfeasibleError):
            check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> <A> p"), TIGHT_BOUND)

    def test_ceiling_is_tunable(self, solo_bare):
        g = solo_bare.config_by_name("g")
        f = parse_plus("<A> <A> true")
        with pytest.raises(BoundInfeasibleError) as e:
            check_abln(solo_bare, Interval((g,)), f, LITERAL_BOUND, frontier_ceiling=3)
        assert e.value.ceiling == 3
        assert e.value.estimate == 4

    def test_guard_counts_paths_after_the_prefix(self, solo_bare):
        # one self-looping configuration has one path per length: from a
        # 3-configuration interval, <A> and <N> may reach 3 + cap intervals,
        # <Bbar> only the cap extensions after the interval itself
        g = solo_bare.config_by_name("g")
        here = Interval((g, g, g))
        ceiling = fis_bound(solo_bare, parse_plus("<A> true")) + 2
        f = parse_plus("<Bbar> <A> true")
        assert check_abln(solo_bare, here, f, LITERAL_BOUND, frontier_ceiling=ceiling).holds
        for text in ("<A> <A> true", "<N> <A> true"):
            with pytest.raises(BoundInfeasibleError) as e:
                check_abln(solo_bare, here, parse_plus(text), LITERAL_BOUND,
                           frontier_ceiling=ceiling)
            assert e.value.estimate == ceiling + 1

    def test_user_bound_is_guarded(self, solo_bare):
        # a user cap meets the same ceiling as a computed one: cap 8 is
        # the literal bound of <A> true, and both count 9 paths
        g = solo_bare.config_by_name("g")
        f = parse_plus("<A> <A> true")
        estimates = []
        for mode in (LITERAL_BOUND, user_bound(8)):
            with pytest.raises(BoundInfeasibleError) as e:
                check_abln(solo_bare, Interval((g,)), f, mode, frontier_ceiling=3)
            estimates.append(e.value.estimate)
        assert estimates == [4, 4]
        # cap 2 counts 3 paths and passes; the witness it finds makes the
        # verdict conclusive, though the cap is below the bound
        v = check_abln(solo_bare, Interval((g,)), f, user_bound(2), frontier_ceiling=3)
        assert v == Verdict(True)

    @pytest.mark.parametrize("ceiling", [0, -4])
    @pytest.mark.parametrize("mode", [LITERAL_BOUND, TIGHT_BOUND, user_bound(2)])
    def test_ceiling_must_be_positive(self, is_ex, gs, mode, ceiling):
        # rejected before any search, even where none would run
        for text in ("<A> K{0} p", "p"):
            with pytest.raises(InputError, match="frontier ceiling must be a positive"):
                check_abln(is_ex, iv(gs, "g1"), parse_plus(text), mode,
                           frontier_ceiling=ceiling)


class TestConclusiveness:
    def test_witness_route_ignores_tiny_user_bounds(self, is_ex, gs):
        v = check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> p"), user_bound(1))
        assert v == Verdict(True)

    def test_bounded_route_reports_the_cap(self, is_ex, gs):
        v = check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> K{0} p"), user_bound(2))
        assert v == Verdict(False, bounded_at=2)

    def test_user_bound_at_the_exact_bound_is_conclusive(self, solo_bare):
        # the search for a counterexample to <A> true comes up empty and
        # never runs out, so only a cap at the exact bound (8) decides it
        g = solo_bare.config_by_name("g")
        f = parse_plus("[A] <A> true")
        assert fis_bound(solo_bare, parse_plus("!<A> true")) == 8
        assert check_abln(solo_bare, Interval((g,)), f, user_bound(8)) == Verdict(True)
        assert check_abln(solo_bare, Interval((g,)), f, user_bound(7)) == Verdict(
            True, bounded_at=7
        )

    def test_only_an_empty_search_relies_on_its_cap(self, is_ex, gs):
        # cap 3 is below the exact bound of either operand, and the paths
        # from g1 never run out: a witness proves <A> <A> p whatever the
        # cap, while no witness for <A> [A] p may only lie beyond it
        assert fis_bound(is_ex, parse_plus("<A> p")) > 3
        assert fis_bound(is_ex, parse_plus("[A] p")) > 3
        found = check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> <A> p"), user_bound(3))
        assert found == Verdict(True)
        empty = check_abln(is_ex, iv(gs, "g1"), parse_plus("<A> [A] p"), user_bound(3))
        assert empty == Verdict(False, bounded_at=3)

    def test_exhausted_acyclic_search_is_conclusive(self, chain):
        # no cycle is reachable, so a user bound covering the whole
        # configuration space makes the enumeration complete
        a = chain.config_by_name("a")
        f = parse_plus("<A> K{0} x")
        assert check_abln(chain, Interval((a,)), f, user_bound(50)) == Verdict(True)
        assert check_abln(chain, Interval((a,)), f, user_bound(1)) == Verdict(
            False, bounded_at=1
        )

    def test_exhausted_enumeration_is_conclusive(self, chain):
        # from a, the paths a, ab, abc run out within cap 2, so the cap
        # covers every related interval although it is below the bound
        a, c = chain.config_by_name("a"), chain.config_by_name("c")
        f = parse_plus("<A> K{0} x")
        assert fis_bound(chain, parse_plus("K{0} x")) > 2
        assert check_abln(chain, Interval((a,)), f, user_bound(2)) == Verdict(True)
        # c permits no action: <N> relates it to nothing at all
        for mode in (LITERAL_BOUND, TIGHT_BOUND, user_bound(1)):
            v = check_abln(chain, Interval((c,)), parse_plus("<N> K{0} x"), mode)
            assert v == Verdict(False)

    def test_deadlocking_systems_match_oracle(self):
        # branching systems where some states permit no action: wherever a
        # verdict is conclusive in any mode, the oracle agrees well beyond
        # every user cap used here. No K or C sits above a diamond, where
        # the oracle's own bound would cut witnesses of long-history members.
        # The low ceiling refuses literal caps of a million on a cycle that
        # adds one path per length: the default ceiling lets such a search
        # through, to enumerate a million ever longer paths
        rng = random.Random(4242)
        formulas = [f for f in all_formulas(4, *abln_kit()) if modal_depth(f) == 2
                    and not any(isinstance(g, (K, C)) and relations_of(g.sub)
                                for g in subformulas(f))]
        modes = [LITERAL_BOUND, TIGHT_BOUND, user_bound(1), user_bound(2), user_bound(3)]
        checked = bounded = 0
        for _ in range(40):
            sys_ = _deadlocking_system(rng)
            for f in rng.sample(formulas, 60):
                start = Interval((rng.choice(sys_.reachable),))
                aI = minimal_anchor(sys_, start)
                want = oracle_check(sys_, aI, f, aI.total_length + 6)
                for mode in modes:
                    try:
                        v = check_abln(sys_, start, f, mode, frontier_ceiling=500)
                    except BoundInfeasibleError:
                        continue
                    if v.conclusive:
                        assert v.holds == want, (format_system(sys_), f, mode)
                        checked += 1
                    else:
                        bounded += 1
        # most of these enumerations run out within the cap, so few verdicts
        # stay bounded: 828 of 11,448, against 3,309 if no cap below the
        # bound counted as complete
        assert checked > 10 * bounded > 0


def _deadlocking_system(rng: random.Random):
    """One branching agent with two actions, some of whose reachable
    states permit none, and a label over its configurations."""
    while True:
        n = rng.choice((2, 3, 3))
        stuck = set(rng.sample(range(n), rng.randint(1, n - 1)))
        lines = ["agent A", "  states " + " ".join(f"s{i}" for i in range(n)),
                 "  init s0", "  actions a1 a2"]
        for i in sorted(set(range(n)) - stuck):
            lines.append(f"  protocol s{i}: a1 a2")
            lines += [f"  trans s{i} ({a},*) s{rng.randrange(n)}" for a in ("a1", "a2")]
        lines += ["agent B", "  states d", "  init d", "  actions ok",
                  "  protocol d: ok", "  trans d (*,*) d"]
        names = [f"c{i}" for i in range(n)]
        lines += [f"config c{i} = (s{i},d)" for i in range(n)]
        label = rng.choice([rng.choice(names), rng.choice(names) + "*",
                            "({} + {})*".format(*rng.sample(names, 2)),
                            "{} {}*".format(rng.choice(names), rng.choice(names))])
        sys_ = parse_system("\n".join(lines + [f"label p = {label}"]) + "\n")
        if any(not sys_.successors(g) for g in sys_.reachable):
            return sys_


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "text",
        ["<A> p", "<A> pi", "<N> p", "<N> pi", "<Bbar> p", "<Bbar> !p",
         "K{0} pi & !(<A> p)", "<L> p", "K{1} p", "C{0,1} pi"],
    )
    def test_samples_match_oracle(self, is_ex, gs, text):
        f = parse_plus(text)
        for interval in [iv(gs, "g1"), iv(gs, "g2"), iv(gs, "g1", "g2"),
                         iv(gs, "g2", "g3", "g1")]:
            aI = minimal_anchor(is_ex, interval)
            want = oracle_check(is_ex, aI, f, aI.total_length + 8)
            got = check_abln(is_ex, interval, f, user_bound(8))
            assert got.holds == want, (text, interval)


class TestMonotonicity:
    def test_transition_then_stable(self, is_ex, gs):
        # agent 1 observes the configuration exactly, so K{1} p needs a
        # genuine three-step witness: false below the bound, true from it on
        f = parse_plus("<A> K{1} p")
        verdicts = [
            check_abln(is_ex, iv(gs, "g1"), f, user_bound(k)).holds
            for k in range(1, 9)
        ]
        assert verdicts == [False] + [True] * 7

    def test_existential_positive_monotone(self, is_ex, gs):
        for text in ["<A> K{1} p", "<N> K{1} p", "<A> (!pi & K{0} !p)",
                     "<Bbar> K{1} p & <A> pi"]:
            f = parse_plus(text)
            for interval in [iv(gs, "g1"), iv(gs, "g3", "g1")]:
                seq = [
                    check_abln(is_ex, interval, f, user_bound(k)).holds
                    for k in range(1, 9)
                ]
                assert seq == sorted(seq), (text, seq)


class TestMct:
    def test_running_example_tree(self, is_ex, gs):
        f = parse_plus("K{0} pi & !(<A> p)")
        tree = compute_mct(is_ex, iv(gs, "g1"), f, horizon=5)
        assert (tree.first, tree.last, tree.point) == ("g1", "g1", True)
        assert tree.states == (("p", "z2"),)
        children = dict(tree.children)
        assert set(children) == {"K{0} pi", "<A> p"}
        knowledge = children["K{0} pi"]
        assert {(t.first, t.point) for t in knowledge} == {
            ("g1", True), ("g2", True), ("g3", True)
        }
        meets = children["<A> p"]
        labels = {(t.first, t.last, t.point, t.states) for t in meets}
        assert ("g1", "g3", False, (("p", "z3"),)) in labels
        assert ("g1", "g2", False, (("p", "z2"),)) in labels
        assert all(not t.children for t in meets)  # p is modal-free

    def test_modal_free_formula_is_a_leaf(self, is_ex, gs):
        tree = compute_mct(is_ex, iv(gs, "g1", "g2"), parse_plus("p & !pi"), 3)
        assert tree.children == ()
        assert not tree.point

    def test_horizon_truncates_temporal_children(self, is_ex, gs):
        f = parse_plus("<A> p")
        wide = dict(compute_mct(is_ex, iv(gs, "g1"), f, 5).children)["<A> p"]
        narrow = dict(compute_mct(is_ex, iv(gs, "g1"), f, 2).children)["<A> p"]
        assert len(narrow) < len(wide)

    def test_equal_config_sequences_equal_trees(self, is_ex, gs):
        f = parse_plus("K{0} pi & <A> p")
        a = compute_mct(is_ex, iv(gs, "g1", "g2"), f, 4)
        b = compute_mct(is_ex, Interval((gs["g1"], gs["g2"])), f, 4)
        assert a == b and hash(a) == hash(b)

    def test_composition_sample(self, is_ex, gs):
        # two intervals with the same endpoints and automaton states have
        # equal trees, and stay equal under a common extension
        f = parse_plus("<A> p")
        short = iv(gs, "g1", "g2", "g1")
        long = iv(gs, "g1", "g2", "g1", "g2", "g1")
        assert compute_mct(is_ex, short, f, 4) == compute_mct(is_ex, long, f, 4)
        ext = ("g2", "g3")
        short_x = Interval(short.configs + tuple(gs[n] for n in ext))
        long_x = Interval(long.configs + tuple(gs[n] for n in ext))
        assert compute_mct(is_ex, short_x, f, 2) == compute_mct(is_ex, long_x, f, 2)

    def test_fragment_and_horizon_checks(self, is_ex, gs):
        with pytest.raises(FragmentError):
            compute_mct(is_ex, iv(gs, "g1"), parse_plus("<B> p"), 3)
        with pytest.raises(ValueError):
            compute_mct(is_ex, iv(gs, "g1"), parse_plus("<A> p"), 0)

    def test_dot_rendering(self, is_ex, gs):
        tree = compute_mct(is_ex, iv(gs, "g1"), parse_plus("K{0} pi"), 3)
        dot = mct_to_dot(tree)
        assert dot.startswith("digraph mct {")
        assert dot.count(" -> ") == 3
        assert '"K{0} pi"' in dot
        assert mct_to_dot(tree) == dot
