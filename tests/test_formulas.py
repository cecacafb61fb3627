"""Formula layer: parsing, printing, rewrites, classification, bounds."""

import random
import re

import pytest

from ehsmc.errors import InputError
from ehsmc.formulas import (
    BOT,
    PI,
    TOP,
    And,
    Atom,
    Box,
    C,
    Diamond,
    FormulaSyntaxError,
    FragmentError,
    Fragment,
    Implies,
    K,
    Not,
    Or,
    Var,
    eliminate_L,
    fis_bound,
    fis_bound_saturating,
    format_formula,
    fragment_of,
    letter_predicate_holds,
    modal_free,
    normalize,
    parse_plus,
    parse_re,
    relations_of,
    resolve_agents,
    subformulas,
    tight_bound,
    tight_bound_saturating,
    top_level_subformulas,
    variables_of,
)
from ehsmc.regexes import Concat, Star, Sym
from ehsmc.systems import LocalComponent, InterpretedSystem, Relation

from genutil import expand_N, modal_depth, random_formula


class TestParsing:
    def test_knowledge_conjunction(self):
        f = parse_plus("K{0} pi & !<A> p")
        assert f == And(K(0, PI), Not(Diamond(Relation.A, Var("p"))))

    def test_regex_atom(self):
        f = parse_re("{p ; T*}")
        assert f == Atom(Concat(Sym("p"), Star(Sym("T"))))

    def test_unknown_modality(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_plus("<Q> p")
        assert "Q" in str(err.value)
        assert err.value.position == 0

    def test_implication_is_right_associative(self):
        f = parse_plus("p -> q -> r")
        assert f == Implies(Var("p"), Implies(Var("q"), Var("r")))

    def test_precedence_ladder(self):
        f = parse_plus("!p & q | r -> pi")
        assert f == Implies(Or(And(Not(Var("p")), Var("q")), Var("r")), PI)

    def test_modalities_bind_like_negation(self):
        f = parse_plus("<B> p & [Ebar] q")
        assert f == And(Diamond(Relation.B, Var("p")), Box(Relation.EBAR, Var("q")))

    def test_nested_unary_chain(self):
        f = parse_plus("!<A> K{1} !p")
        assert f == Not(Diamond(Relation.A, K(1, Not(Var("p")))))

    def test_parenthesized_operand(self):
        f = parse_plus("<A> (p | q)")
        assert f == Diamond(Relation.A, Or(Var("p"), Var("q")))

    def test_constants(self):
        assert parse_plus("true & false") == And(TOP, BOT)

    def test_agent_names_and_groups(self):
        f = parse_plus("K{Env} p & C{0,1} q")
        assert f == And(K("Env", Var("p")), C((0, 1), Var("q")))

    def test_group_order_is_canonical(self):
        assert C((1, 0), PI) == C((0, 1), PI)
        assert parse_plus("C{1,0} pi") == parse_plus("C{0,1} pi")

    def test_k_needs_exactly_one_agent(self):
        with pytest.raises(FormulaSyntaxError):
            parse_plus("K{0,1} pi")

    def test_bare_k_is_a_variable(self):
        assert parse_plus("K & p") == And(Var("K"), Var("p"))

    def test_regex_atoms_rejected_in_plus_variant(self):
        with pytest.raises(FormulaSyntaxError):
            parse_plus("{p}")

    def test_bare_identifier_is_an_atom_in_re_variant(self):
        assert parse_re("p") == Atom(Sym("p"))

    def test_unterminated_atom(self):
        with pytest.raises(FormulaSyntaxError):
            parse_re("{p ; T*")

    def test_bad_regex_inside_atom(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_re("{p + }")
        assert "regex" in str(err.value)

    def test_trailing_junk(self):
        with pytest.raises(FormulaSyntaxError):
            parse_plus("p q")

    def test_negated_literal_and_subset_predicates(self):
        f = parse_re("{!p (p,q)}")
        assert f == Atom(Concat(Sym("!p"), Sym(("p", "q"))))

    @pytest.mark.parametrize("text, expected", [
        ("C{0, 1} p", C((0, 1), Var("p"))),
        ("K{ 0} p", K(0, Var("p"))),
        ("< A > p", Diamond(Relation.A, Var("p"))),
        ("[ Ebar ] p", Box(Relation.EBAR, Var("p"))),
    ])
    def test_whitespace_inside_modalities_and_agent_sets(self, text, expected):
        assert parse_plus(text) == expected

    @pytest.mark.parametrize("text, expected", [
        ("K{01} p", K(1, Var("p"))),
        ("K{²} p", K("²", Var("p"))),
        ("K{٣} p", K("٣", Var("p"))),
        ("C{٣, Env} p", C(("٣", "Env"), Var("p"))),
    ])
    def test_agent_is_an_index_only_in_ascii_digits(self, text, expected):
        assert parse_plus(text) == expected

    def test_whitespace_between_any_tokens(self):
        rng = random.Random(7004)
        pieces = re.compile(r"->|\w+|\S")  # "<A>" and "C{0,1}" come apart too
        for _ in range(500):
            f = random_formula(rng, rng.randint(1, 12), agents=(0, 1, "Env", "²"))
            parts = pieces.findall(format_formula(f))
            text = parts[0]
            for prev, part in zip(parts, parts[1:]):
                gap = rng.choice(["", "", " ", "\t", " \n "])
                if not gap and re.fullmatch(r"\w+", prev + part):
                    gap = " "  # two names would run together
                text += gap + part
            assert parse_plus(text) == f, text


class TestPrinting:
    def test_surface_forms(self):
        assert format_formula(parse_plus("K{0} pi & !<A> p")) == "K{0} pi & !<A> p"
        assert format_formula(parse_plus("[L] p")) == "[L] p"
        assert format_formula(parse_re("{p ; T*}")) == "{p T*}"

    def test_parens_reflect_structure(self):
        left_nested = And(And(Var("p"), Var("q")), Var("r"))
        assert format_formula(left_nested) == "(p & q) & r"
        right_nested = And(Var("p"), And(Var("q"), Var("r")))
        assert format_formula(right_nested) == "p & q & r"
        assert format_formula(Not(And(Var("p"), Var("q")))) == "!(p & q)"

    def test_round_trip_plus_variant(self):
        rng = random.Random(7001)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(1, 12))
            assert parse_plus(format_formula(f)) == f

    def test_round_trip_re_variant(self):
        rng = random.Random(7002)
        atoms = [Atom(Sym("p")), Atom(Concat(Sym("!p"), Star(Sym("T"))))]
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 10), variables=())
            # graft regex atoms onto a variable-free skeleton
            f = And(f, rng.choice(atoms))
            assert parse_re(format_formula(f)) == f


class TestRewrites:
    def test_normalize_removes_sugar(self):
        assert normalize(Or(Var("p"), Var("q"))) == Not(
            And(Not(Var("p")), Not(Var("q")))
        )
        assert normalize(Implies(Var("p"), Var("q"))) == Not(
            And(Var("p"), Not(Var("q")))
        )
        assert normalize(Box(Relation.A, Var("p"))) == Not(
            Diamond(Relation.A, Not(Var("p")))
        )

    def test_later_elimination(self):
        f = eliminate_L(parse_plus("<L> p"))
        assert f == Diamond(Relation.A, And(Not(PI), Diamond(Relation.A, Var("p"))))

    def test_later_elimination_leaves_others_alone(self):
        f = parse_plus("p & <B> q")
        assert eliminate_L(f) == f

    def test_later_box_elimination(self):
        f = eliminate_L(parse_plus("[L] p"))
        assert f == Not(
            Diamond(Relation.A, And(Not(PI), Diamond(Relation.A, Not(Var("p")))))
        )

    def test_later_inverse_uses_met_by(self):
        f = eliminate_L(parse_plus("<Lbar> p"))
        assert f == Diamond(
            Relation.ABAR, And(Not(PI), Diamond(Relation.ABAR, Var("p")))
        )

    def test_no_later_survives_elimination(self):
        rng = random.Random(7003)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 10))
            rels = relations_of(eliminate_L(f))
            assert Relation.L not in rels and Relation.LBAR not in rels

    def test_next_expansion_structure(self):
        f = expand_N(parse_plus("<N> p"))
        # middle conjunct pins the bridging interval to length exactly two
        bridge = And(
            Not(PI),
            And(
                Box(Relation.B, Box(Relation.B, BOT)),
                Diamond(Relation.A, Var("p")),
            ),
        )
        assert f == Diamond(Relation.A, bridge)

    def test_next_expansion_identity_on_next_free_input(self):
        f = parse_plus("p & <A> q")
        assert expand_N(f) == f

    def test_nested_next_expands_twice(self):
        f = expand_N(parse_plus("<N><N> p"))
        assert Relation.N not in relations_of(f)
        assert format_formula(f).count("[B] [B] false") == 2

    def test_next_box_is_dualized(self):
        f = expand_N(parse_plus("[N] p"))
        assert isinstance(f, Not)
        assert Relation.N not in relations_of(f)


class TestStructure:
    def test_empty_common_knowledge_group_is_an_input_error(self):
        # the parser never builds one; a formula built by hand can
        with pytest.raises(InputError, match="^common-knowledge group must be non-empty$"):
            C((), Var("p"))

    def test_fragments(self):
        assert fragment_of(parse_plus("K{0} pi & !<A> p")) is Fragment.ABLN
        assert fragment_of(parse_plus("<B><D> p")) is Fragment.BDE
        assert fragment_of(parse_plus("<A><D> p")) is Fragment.FULL
        assert fragment_of(parse_plus("K{0} p & C{0,1} pi")) is Fragment.BDE
        assert fragment_of(parse_plus("[Bbar] p & <L> q")) is Fragment.ABLN

    def test_top_level_subformulas(self):
        f = normalize(parse_plus("K{0} pi & !<A> p"))
        assert top_level_subformulas(f) == [K(0, PI), Diamond(Relation.A, Var("p"))]
        assert top_level_subformulas(parse_plus("p & pi")) == []
        nested = parse_plus("<A><A> p")
        assert top_level_subformulas(nested) == [nested]

    def test_top_level_collapses_duplicates(self):
        f = normalize(parse_plus("<A> p & (<A> p | K{0} pi)"))
        assert top_level_subformulas(f) == [Diamond(Relation.A, Var("p")), K(0, PI)]

    def test_top_level_sees_through_boxes(self):
        f = normalize(parse_plus("[A] p"))
        assert top_level_subformulas(f) == [Diamond(Relation.A, Not(Var("p")))]

    def test_modal_measures(self):
        f = parse_plus("K{0} pi & !<A> p")
        assert not modal_free(f)
        assert modal_free(parse_plus("p & !pi | true"))
        assert modal_depth(f) == 1
        assert modal_depth(parse_plus("<A> K{0} <B> p")) == 3
        assert sum(1 for _ in subformulas(f)) == 6

    def test_variables(self):
        assert variables_of(parse_plus("p & <A> (q | !r)")) == {"p", "q", "r"}
        assert variables_of(parse_re("{!p (q,r) T}")) == {"p", "q", "r"}
        assert variables_of(parse_plus("pi & true")) == set()

    def test_letter_predicates(self):
        val = frozenset({"p", "q"})
        assert letter_predicate_holds("T", val)
        assert letter_predicate_holds("p", val)
        assert not letter_predicate_holds("r", val)
        assert letter_predicate_holds("!r", val)
        assert not letter_predicate_holds("!p", val)
        assert letter_predicate_holds(("p", "q"), val)
        assert not letter_predicate_holds(("p", "q"), frozenset({"p"}))
        assert letter_predicate_holds((), frozenset())

    def test_resolve_agents(self, is_ex):
        f = parse_plus("K{Proc} p & C{Env,Proc} pi")
        resolved = resolve_agents(is_ex, f)
        assert resolved == And(K(1, Var("p")), C((0, 1), PI))
        with pytest.raises(ValueError):
            resolve_agents(is_ex, parse_plus("K{Ghost} p"))
        with pytest.raises(ValueError):
            resolve_agents(is_ex, parse_plus("K{7} p"))
        with pytest.raises(InputError, match="^unknown agent '²'$"):
            resolve_agents(is_ex, parse_plus("K{²} p"))


def zero_variable_system(configs: int = 2) -> InterpretedSystem:
    states = tuple(f"s{i}" for i in range(configs))
    loop = LocalComponent(
        name="only",
        states=states,
        init="s0",
        actions=("tick",),
        protocol={s: ("tick",) for s in states},
        transitions=tuple(
            (states[i], ("tick",), states[(i + 1) % configs]) for i in range(configs)
        ),
    )
    return InterpretedSystem([loop], {})


class TestBounds:
    def test_base_value_on_the_running_example(self, is_ex):
        assert fis_bound(is_ex, parse_plus("p")) == 288

    @pytest.mark.parametrize("bound", [fis_bound, tight_bound])
    def test_cap_below_one_is_an_input_error(self, is_ex, bound):
        with pytest.raises(InputError, match="^cap must be positive$"):
            bound(is_ex, parse_plus("p"), 0)

    def test_single_step_value(self, is_ex):
        assert fis_bound(is_ex, parse_plus("<A> p")) == 288 * 2**288

    def test_zero_variable_base(self):
        sys = zero_variable_system(2)
        assert fis_bound(sys, parse_plus("pi")) == 2 * 2 * 2

    def test_bound_uses_operand_values(self, is_ex):
        f = parse_plus("K{0} pi & !<A> p")
        assert fis_bound(is_ex, f) == 288 * 2**288 * 2**288

    def test_fragment_violations_rejected(self, is_ex):
        with pytest.raises(FragmentError):
            fis_bound(is_ex, parse_plus("<B> p"))
        with pytest.raises(FragmentError):
            fis_bound(is_ex, parse_plus("<Abar> p"))
        # later is accepted: it is eliminated first (the elimination
        # deepens the formula, so only the saturating form is feasible)
        assert fis_bound_saturating(is_ex, parse_plus("<L> p"), 10**9) == 10**9

    def test_monotone_under_extra_subformulas(self, is_ex):
        base = parse_plus("K{0} pi")
        extended = And(base, parse_plus("<A> p"))
        assert fis_bound(is_ex, extended) >= fis_bound(is_ex, base)

    def test_saturating_matches_exact_when_below_cap(self, is_ex):
        for text in ("p", "pi & !p", "<A> p", "K{0} pi & !<A> p", "<N> pi"):
            f = parse_plus(text)
            exact = fis_bound(is_ex, f)
            assert fis_bound_saturating(is_ex, f, exact + 1) == exact
            assert fis_bound_saturating(is_ex, f, exact) == exact
            assert fis_bound_saturating(is_ex, f, 7) == min(exact, 7)

    def test_saturating_caps_infeasible_depths(self, is_ex):
        f = parse_plus("<A><A> p")
        assert fis_bound_saturating(is_ex, f, 10**9) == 10**9

    def test_tight_values(self, is_ex):
        assert tight_bound(is_ex, parse_plus("p")) == 2 * 9 * 4 + 1
        assert tight_bound(is_ex, parse_plus("<A> p")) == 72 * 2**73 + 1

    def test_tight_saturating(self, is_ex):
        f = parse_plus("<A> p")
        exact = tight_bound(is_ex, f)
        assert tight_bound_saturating(is_ex, f, exact + 1) == exact
        assert tight_bound_saturating(is_ex, f, 100) == 100
        deep = parse_plus("<A><A><A> p")
        assert tight_bound_saturating(is_ex, deep, 10**6) == 10**6
