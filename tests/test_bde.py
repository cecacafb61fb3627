"""Begins/during/ends engine: frozen examples, duality, oracle agreement."""

import itertools

import pytest

from ehsmc.bde import check_bde
from ehsmc.errors import InputError
from ehsmc.formulas import And, FragmentError, Not, parse_plus
from ehsmc.oracle import minimal_anchor, oracle_check

from conftest import iv
from genutil import all_formulas, bde_kit, intervals_up_to


def oracle_on(sys, interval, f, extra=0):
    aI = minimal_anchor(sys, interval)
    return oracle_check(sys, aI, f, aI.total_length + extra)


class TestFrozenExamples:
    def test_nonpoint_prefix(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1", "g2", "g3"), parse_plus("<B> !pi"))

    def test_no_prefix_of_a_prefix_of_two(self, is_ex, gs):
        assert not check_bde(is_ex, iv(gs, "g1", "g2"), parse_plus("<B><B> true"))
        assert check_bde(is_ex, iv(gs, "g1", "g2", "g3"), parse_plus("<B><B> true"))

    def test_knowledge_of_pointhood(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1"), parse_plus("K{0} pi"))

    def test_point(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1"), parse_plus("pi"))

    def test_label_via_automata(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1", "g2", "g3"), parse_plus("p"))
        assert not check_bde(is_ex, iv(gs, "g1"), parse_plus("p"))

    def test_during_middle_point(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1", "g2", "g3"), parse_plus("<D> pi"))
        assert not check_bde(is_ex, iv(gs, "g1", "g2"), parse_plus("<D> true"))

    def test_suffix(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1", "g2", "g3"), parse_plus("<E> !p & <E> pi"))

    def test_boxes_and_sugar(self, is_ex, gs):
        assert check_bde(is_ex, iv(gs, "g1", "g2"), parse_plus("[B] pi"))
        assert check_bde(is_ex, iv(gs, "g1", "g2"), parse_plus("p | !p"))
        assert check_bde(is_ex, iv(gs, "g1", "g2", "g3"), parse_plus("p -> <B><B> true"))


class TestPreconditions:
    def test_rejects_other_fragments(self, is_ex, gs):
        with pytest.raises(FragmentError):
            check_bde(is_ex, iv(gs, "g1"), parse_plus("<A> p"))
        with pytest.raises(FragmentError):
            check_bde(is_ex, iv(gs, "g1"), parse_plus("<Dbar> pi"))

    def test_rejects_invalid_intervals(self, is_ex, gs):
        with pytest.raises(ValueError):
            check_bde(is_ex, iv(gs, "g1", "g3"), parse_plus("pi"))

    def test_rejects_unknown_variables(self, is_ex, gs):
        # p fails on the point, so the evaluator alone would never look at zz
        with pytest.raises(InputError, match="unknown variable 'zz'"):
            check_bde(is_ex, iv(gs, "g1"), parse_plus("p & zz"))


class TestAgreement:
    def test_negation_duality_sampled(self, is_ex):
        atoms, heads = bde_kit()
        formulas = list(all_formulas(3, atoms, heads))
        for interval in intervals_up_to(is_ex, 3):
            for f in formulas:
                assert check_bde(is_ex, interval, Not(f)) == (
                    not check_bde(is_ex, interval, f)
                )

    def test_cache_changes_nothing(self, is_ex):
        # a shared operand is decided once per interval, then read back
        atoms, heads = bde_kit()
        for interval in intervals_up_to(is_ex, 3):
            for f in itertools.islice(all_formulas(4, atoms, heads), 200):
                assert check_bde(is_ex, interval, And(f, f)) == check_bde(
                    is_ex, interval, f
                )

    def test_oracle_agreement_quick(self, is_ex):
        """Size-4 slice of the exhaustive differential suite (the full
        size-5 run lives in the acceptance tests)."""
        atoms, heads = bde_kit()
        formulas = list(all_formulas(4, atoms, heads))
        for interval in intervals_up_to(is_ex, 3):
            aI = minimal_anchor(is_ex, interval)
            for f in formulas:
                engine = check_bde(is_ex, interval, f)
                oracle = oracle_check(is_ex, aI, f, aI.total_length)
                assert engine == oracle, (format(f), interval)
