"""Labelling/formula translations: substitution, both directions, round trips."""

import pytest

from ehsmc.errors import InputError
from ehsmc.formulas import Atom, K, Var, parse_plus, parse_re
from ehsmc.oracle import minimal_anchor, oracle_check
from ehsmc.regexes import (
    Concat,
    Empty,
    LanguageShape,
    Star,
    Sym,
    Union,
    compile_regex,
    language_shape,
    parse_regex,
)
from ehsmc.reductions import (
    atom_variable_name,
    lambda_compose,
    to_point_based,
    to_regular_labelling,
)
from ehsmc.systems import Interval, parse_system

from conftest import iv
from genutil import intervals_up_to

TWO_TEXT = """\
agent M
  states s1 s2
  init s1
  actions go
  protocol s1: go
  protocol s2: go
  trans s1 (go) s2
  trans s2 (go) s1
config g1 = (s1)
config g2 = (s2)
label p = g1
label z = empty
"""


@pytest.fixture(scope="module")
def two():
    return parse_system(TWO_TEXT)


def pred(text):
    return parse_regex(text, predicate_mode=True)


class TestLambdaCompose:
    def test_variable_becomes_its_configuration(self, two):
        got = lambda_compose(two, pred("p T*"))
        assert got == Concat(Sym(("s1",)), Star(Union(Sym(("s1",)), Sym(("s2",)))))

    def test_empty_denotation_becomes_empty_regex(self, two):
        assert lambda_compose(two, pred("z")) == Empty()

    def test_negation_is_complement_within_configs(self, two):
        assert lambda_compose(two, pred("(!p)*")) == Star(Sym(("s2",)))

    def test_exact_valuation_tuple(self, two):
        # only g1 is labelled exactly {p}; no configuration is exactly {p,z}
        assert lambda_compose(two, pred("(p)")) == Sym(("s1",))
        assert lambda_compose(two, pred("(p,z)")) == Empty()

    def test_unknown_variable(self, two):
        with pytest.raises(InputError):
            lambda_compose(two, pred("nope"))
        with pytest.raises(InputError):
            lambda_compose(two, pred("!nope"))

    def test_non_point_based_labelling_rejected(self, is_ex):
        with pytest.raises(ValueError, match="not point-based"):
            lambda_compose(is_ex, pred("p"))

    def test_composed_language(self, two, point_sys):
        sys, cfg = point_sys
        expr = lambda_compose(sys, pred("p (q + p)*"))
        dfa = compile_regex(expr, sys.alphabet)
        # p marks h, q marks n: any word starting at h is accepted
        assert dfa.step[(dfa.initial, ("h",))] in {
            s for (s, a), t in dfa.step.items()
        }  # structural smoke; semantic check below
        from ehsmc.regexes import accepts

        assert accepts(dfa, [("h",)])
        assert accepts(dfa, [("h",), ("n",), ("h",)])
        assert not accepts(dfa, [("n",)])


class TestToPointBased:
    def test_running_example_atom(self, is_ex, gs):
        new_sys, new_f = to_point_based(is_ex, parse_plus("p"))
        assert set(new_sys.variables) == {"v_g1", "v_g2", "v_g3"}
        want = Atom(
            Concat(
                Sym("v_g1"),
                Concat(Star(Union(Sym("v_g1"), Sym("v_g2"))), Sym("v_g3")),
            )
        )
        assert new_f == want

    def test_output_labelling_is_point_based(self, is_ex):
        new_sys, _ = to_point_based(is_ex, parse_plus("p"))
        for var in new_sys.variables:
            assert language_shape(new_sys.dfa_for(var)) == LanguageShape.POINT_BASED

    def test_point_formula_unchanged(self, is_ex):
        _, new_f = to_point_based(is_ex, parse_plus("pi"))
        assert new_f == parse_plus("pi")

    def test_epistemic_structure_preserved(self, is_ex):
        _, new_f = to_point_based(is_ex, parse_plus("K{0} p"))
        assert isinstance(new_f, K) and isinstance(new_f.sub, Atom)

    def test_transition_structure_unchanged(self, is_ex):
        new_sys, _ = to_point_based(is_ex, parse_plus("p"))
        assert new_sys.all_configs == is_ex.all_configs
        for g in is_ex.reachable:
            assert new_sys.successors(g) == is_ex.successors(g)

    def test_verdicts_preserved_on_short_intervals(self, is_ex):
        texts = ["p", "!p", "K{0} p", "<B> p", "<A> p", "C{0,1} pi & !p"]
        intervals = intervals_up_to(is_ex, 4)
        for text in texts:
            f = parse_plus(text)
            new_sys, new_f = to_point_based(is_ex, f)
            for interval in intervals:
                aI = minimal_anchor(is_ex, interval)
                bound = aI.total_length + 3
                assert oracle_check(is_ex, aI, f, bound) == oracle_check(
                    new_sys, aI, new_f, bound
                ), (text, cfgs)


class TestToRegularLabelling:
    def test_shared_atoms_share_a_variable(self, point_sys):
        sys, _ = point_sys
        f = parse_re("{p T*} & (pi | {p T*})")
        new_sys, new_f = to_regular_labelling(sys, f)
        fresh = set(new_sys.variables) - set(sys.variables)
        assert len(fresh) == 1
        name = fresh.pop()
        assert name.startswith("q_") and len(name) == 10

    def test_separation_formula_gets_three_variables(self, point_sys):
        sys, _ = point_sys
        f = parse_re("p & [A] ({(p T)*} -> [N] {p T*})")
        new_sys, new_f = to_regular_labelling(sys, f)
        assert len(set(new_sys.variables) - set(sys.variables)) == 3

    def test_no_atoms_no_new_variables(self, point_sys):
        sys, _ = point_sys
        new_sys, new_f = to_regular_labelling(sys, parse_re("pi"))
        assert set(new_sys.variables) == set(sys.variables)
        assert new_f == parse_re("pi")

    def test_requires_point_based_input(self, is_ex):
        with pytest.raises(ValueError, match="not point-based"):
            to_regular_labelling(is_ex, parse_re("{p}"))

    def test_fresh_names_are_content_addressed(self):
        assert atom_variable_name(pred("p T*")) == atom_variable_name(pred("p T*"))
        assert atom_variable_name(pred("p")) != atom_variable_name(pred("p T*"))

    def test_verdicts_preserved_on_short_intervals(self, point_sys):
        sys, cfg = point_sys
        texts = ["{p}", "{p T*}", "!{T p}", "<A> {p (q+p)*}", "K{0} {T T}",
                 "{(p) T} | pi"]
        intervals = intervals_up_to(sys, 3)
        for text in texts:
            f = parse_re(text)
            new_sys, new_f = to_regular_labelling(sys, f)
            for interval in intervals:
                aI = minimal_anchor(sys, interval)
                bound = aI.total_length + 4
                assert oracle_check(sys, aI, f, bound) == oracle_check(
                    new_sys, aI, new_f, bound
                ), (text, cfgs)

    def test_round_trip_through_both_translations(self, is_ex):
        # general labelling -> regex atoms over a point-based system ->
        # plain variables again; verdicts agree at every step
        f = parse_plus("p & <B> !p")
        mid_sys, mid_f = to_point_based(is_ex, f)
        back_sys, back_f = to_regular_labelling(mid_sys, mid_f)
        interval = Interval((is_ex.config_by_name("g1"),
                             is_ex.config_by_name("g2"),
                             is_ex.config_by_name("g3")))
        aI = minimal_anchor(is_ex, interval)
        want = oracle_check(is_ex, aI, f, aI.total_length + 2)
        assert oracle_check(mid_sys, aI, mid_f, aI.total_length + 2) == want
        assert oracle_check(back_sys, aI, back_f, aI.total_length + 2) == want
