"""Ground-truth evaluator: frozen examples, duality, anchor handling."""

import pytest

from ehsmc.errors import InputError
from ehsmc.formulas import TOP, Diamond, parse_plus, parse_re
from ehsmc.oracle import minimal_anchor, oracle_check
from ehsmc.systems import AnchoredInterval, Interval, Relation, parse_system

from conftest import iv


def anchored(gs, history, configs):
    return AnchoredInterval(
        tuple(gs[name] for name in history),
        iv(gs, *configs),
    )


def all_anchored(sys, bound):
    """Every (history, interval) pair of total length <= bound."""
    paths = []
    frontier = [(sys.initial,)]
    while frontier:
        paths.extend(frontier)
        grown = []
        for path in frontier:
            if len(path) < bound:
                grown.extend(path + (s,) for s in sys.successors(path[-1]))
        frontier = grown
    return [
        AnchoredInterval(path[:i], Interval(path[i:]))
        for path in paths
        for i in range(len(path))
    ]


class TestFrozenExamples:
    def test_meets_finds_the_witness(self, is_ex, gs):
        assert oracle_check(is_ex, anchored(gs, (), ("g1",)), parse_plus("<A> p"), 5)

    def test_met_by_includes_the_point_itself(self, is_ex, gs):
        assert oracle_check(is_ex, anchored(gs, (), ("g1",)), parse_plus("<Abar> true"), 5)

    def test_during_finds_the_middle_point(self, is_ex, gs):
        aI = anchored(gs, (), ("g1", "g2", "g3"))
        assert oracle_check(is_ex, aI, parse_plus("<D> pi"), 5)

    def test_knowledge_of_pointhood(self, is_ex, gs):
        assert oracle_check(is_ex, anchored(gs, (), ("g1",)), parse_plus("K{0} pi"), 4)

    def test_example_conjunction_fails(self, is_ex, gs):
        f = parse_plus("K{0} pi & !<A> p")
        assert not oracle_check(is_ex, anchored(gs, (), ("g1",)), f, 5)

    def test_label_on_interval(self, is_ex, gs):
        assert oracle_check(is_ex, anchored(gs, (), ("g1", "g2", "g3")), parse_plus("p"), 4)
        assert not oracle_check(is_ex, anchored(gs, (), ("g1",)), parse_plus("p"), 4)


class TestBackwardRelations:
    def test_next_inverse_needs_history(self, is_ex, gs):
        f = parse_plus("<Nbar> pi")
        assert oracle_check(is_ex, anchored(gs, ("g1",), ("g2",)), f, 4)
        assert not oracle_check(is_ex, anchored(gs, (), ("g1",)), f, 4)

    def test_ends_inverse_recovers_the_label(self, is_ex, gs):
        f = parse_plus("<Ebar> p")
        assert oracle_check(is_ex, anchored(gs, ("g1", "g2"), ("g3",)), f, 4)
        assert not oracle_check(is_ex, anchored(gs, ("g1", "g2"), ("g1",)), f, 4)

    def test_during_inverse_grows_both_ways(self, is_ex, gs):
        f = parse_plus("<Dbar> p")
        assert oracle_check(is_ex, anchored(gs, ("g1",), ("g2",)), f, 4)
        # no room to extend forward at the bound
        assert not oracle_check(is_ex, anchored(gs, ("g1",), ("g2",)), f, 2)

    def test_overlap_needs_forward_room(self, is_ex, gs):
        f = parse_plus("<O> true")
        aI = anchored(gs, (), ("g1", "g2"))
        assert not oracle_check(is_ex, aI, f, 2)
        assert oracle_check(is_ex, aI, f, 3)

    def test_overlap_inverse_reads_the_history(self, is_ex, gs):
        aI = anchored(gs, ("g1",), ("g2", "g3"))
        assert oracle_check(is_ex, aI, parse_plus("<Obar> true"), 4)
        assert not oracle_check(is_ex, aI, parse_plus("<Obar> pi"), 4)
        # overlapping part must be proper on both sides
        assert not oracle_check(
            is_ex, anchored(gs, (), ("g1", "g2")), parse_plus("<Obar> true"), 4
        )

    def test_later_inverse(self, is_ex, gs):
        f = parse_plus("<Lbar> p")
        # no sub-path of g1 g2 strictly before the interval matches p
        assert not oracle_check(is_ex, anchored(gs, ("g1", "g2"), ("g3",)), f, 6)
        deep = anchored(gs, ("g1", "g2", "g3", "g1", "g2"), ("g3",))
        # g1 g2 g3 sits two steps before the interval: later-inverse sees it
        assert oracle_check(is_ex, deep, f, 7)


class TestInputChecking:
    def test_bound_must_cover_the_anchor(self, is_ex, gs):
        aI = anchored(gs, ("g1", "g2"), ("g3",))
        with pytest.raises(ValueError):
            oracle_check(is_ex, aI, parse_plus("pi"), 2)

    def test_history_must_start_at_the_initial_configuration(self, is_ex, gs):
        aI = anchored(gs, ("g2",), ("g3",))
        with pytest.raises(InputError, match="initial configuration"):
            oracle_check(is_ex, aI, parse_plus("pi"), 4)

    def test_history_must_be_a_path(self, is_ex, gs):
        aI = anchored(gs, ("g1", "g3"), ("g1",))
        with pytest.raises(InputError, match="not a global step"):
            oracle_check(is_ex, aI, parse_plus("pi"), 4)

    def test_bound_must_be_positive(self, is_ex, gs):
        with pytest.raises(InputError):
            oracle_check(is_ex, anchored(gs, (), ("g1",)), parse_plus("pi"), -5)

    def test_rejects_unknown_predicate_variables(self, is_ex, gs):
        with pytest.raises(InputError, match="unknown variable 'zz'"):
            oracle_check(is_ex, anchored(gs, (), ("g1",)), parse_re("{T zz}"), 4)

    @pytest.mark.parametrize("relation", list(Relation))
    def test_every_relation_has_candidates(self, is_ex, gs, relation):
        # so the oracle's "unhandled relation" error is reached only by a
        # formula built by hand over a value that is no Relation member,
        # a programming error; parsed formulas never carry one
        aI = anchored(gs, ("g1",), ("g2", "g3"))
        assert oracle_check(is_ex, aI, Diamond(relation, TOP), 5) in (True, False)

    def test_minimal_anchor(self, is_ex, gs):
        assert minimal_anchor(is_ex, iv(gs, "g1")).history == ()
        assert minimal_anchor(is_ex, iv(gs, "g3")).history == (gs["g1"], gs["g2"])
        aI = minimal_anchor(is_ex, iv(gs, "g2", "g3", "g1"))
        assert aI.history == (gs["g1"],)
        assert aI.total_length == 4

    def test_minimal_anchor_rejects_unreachable_interval(self):
        sys_ = parse_system(
            "agent Solo\n  states s t\n  init s\n  actions go\n"
            "  protocol s: go\n  protocol t: go\n  trans s (go) s\n  trans t (go) t\n"
        )
        with pytest.raises(InputError, match="not reachable"):
            minimal_anchor(sys_, Interval((("t",),)))


class TestDuality:
    """An inverse diamond holds exactly when some interval related the
    forward way to the input satisfies the operand (re-enumerated from
    scratch over the whole bounded unravelling)."""

    BOUND = 5

    def related_forward(self, relation, candidate, target):
        # tree positions: (start, end) indices into the common branch
        ph, pc = candidate.history, candidate.interval.configs
        th, tc = target.history, target.interval.configs
        full_c, full_t = ph + pc, th + tc
        shared = min(len(full_c), len(full_t))
        if full_c[:shared] != full_t[:shared]:
            return False
        start_c, end_c = len(ph), len(ph) + len(pc) - 1
        start_t, end_t = len(th), len(th) + len(tc) - 1
        if relation == "A":
            return end_c == start_t
        if relation == "B":
            return start_c == start_t and end_c > end_t
        if relation == "E":
            return end_c == end_t and start_c < start_t
        raise ValueError(relation)

    @pytest.mark.parametrize(
        "bar_text,forward",
        [("<Abar> ", "A"), ("<Bbar> ", "B"), ("<Ebar> ", "E")],
    )
    @pytest.mark.parametrize("operand", ["p", "pi", "!p", "<B> true"])
    def test_inverse_matches_re_enumeration(self, is_ex, bar_text, forward, operand):
        f = parse_plus(bar_text + "(" + operand + ")")
        sub = parse_plus(operand)
        universe = all_anchored(is_ex, self.BOUND)
        for target in universe:
            direct = oracle_check(is_ex, target, f, self.BOUND)
            recomputed = any(
                oracle_check(is_ex, candidate, sub, self.BOUND)
                for candidate in universe
                if self.related_forward(forward, candidate, target)
            )
            assert direct == recomputed, (target, f)


class TestRewriteAgreement:
    def test_later_identity_on_sampled_intervals(self, is_ex):
        from ehsmc.formulas import eliminate_L

        for text in ("<L> p", "<L> pi", "[L] p", "<L> !p"):
            f = parse_plus(text)
            g = eliminate_L(f)
            for aI in all_anchored(is_ex, 4):
                assert oracle_check(is_ex, aI, f, 6) == oracle_check(is_ex, aI, g, 6)

    def test_next_identity_on_sampled_intervals(self, is_ex):
        from genutil import expand_N

        for text in ("<N> p", "<N> pi", "[N] pi", "<N> !p"):
            f = parse_plus(text)
            g = expand_N(f)
            for aI in all_anchored(is_ex, 4):
                assert oracle_check(is_ex, aI, f, 6) == oracle_check(is_ex, aI, g, 6)


class TestAnchorIndependence:
    """History-free formulas give one verdict per configuration
    sequence, whatever the anchor."""

    def test_forward_fragments_ignore_the_anchor(self, is_ex, gs):
        texts = ("p", "K{0} pi", "<B> !pi", "<A> p", "C{0,1} !p", "<E> p & <D> pi")
        universe = all_anchored(is_ex, 6)
        by_sequence = {}
        for aI in universe:
            key = aI.interval.configs
            for text in texts:
                verdict = oracle_check(is_ex, aI, parse_plus(text), 8)
                prev = by_sequence.setdefault((key, text), verdict)
                assert prev == verdict


class TestRegexAtomVariant:
    def test_atoms_read_valuations(self, is_ex, gs):
        # IS_ex is not point-based, but valuations are still defined:
        # p holds at no single configuration, so !p matches any letter
        f = parse_re("{!p !p}")
        assert oracle_check(is_ex, anchored(gs, (), ("g1", "g2")), f, 4)
        assert not oracle_check(is_ex, anchored(gs, (), ("g1",)), f, 4)

    def test_any_letter_star(self, is_ex, gs):
        f = parse_re("{T T*}")
        assert oracle_check(is_ex, anchored(gs, (), ("g1", "g2", "g3")), f, 4)

    def test_point_based_reading(self, point_sys):
        sys, gs = point_sys
        f = parse_re("{p (q+p)*}")
        aI = AnchoredInterval((), Interval((gs["h"], gs["n"], gs["h"])))
        assert oracle_check(sys, aI, f, 4)
        aI2 = AnchoredInterval((), Interval((gs["h"],)))
        assert oracle_check(sys, aI2, f, 4)
        assert not oracle_check(sys, aI, parse_re("{q T*}"), 4)
