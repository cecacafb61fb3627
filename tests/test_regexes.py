"""Tests for the regular-expression engine.

The derivative-based `denotes` is the reference semantics; the DFA
pipeline is validated against it, never the other way round.
"""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import ehsmc
from ehsmc.systems import parse_system

from ehsmc.regexes import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    MAX_REGEX_DEPTH,
    LanguageShape,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    UnknownSymbolError,
    accepts,
    compile_regex,
    denotes,
    dfa_to_dot,
    language_shape,
    map_symbols,
    parse_regex,
    regex_depth,
    regex_to_text,
    run,
    symbols_of,
    union_of,
)

from genutil import ring_text

ALPHA = Alphabet(("g1", "g2", "g3"))
FIG4_TEXT = "g1 (g1+g2)* g3"


def fig4_expr():
    return parse_regex(FIG4_TEXT, ALPHA)


def all_words(symbols, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


# --- parsing ---------------------------------------------------------------


class TestParsing:
    def test_running_example_ast(self):
        expected = Concat(
            Sym("g1"), Concat(Star(Union(Sym("g1"), Sym("g2"))), Sym("g3"))
        )
        assert fig4_expr() == expected

    def test_eps_and_empty_literals(self):
        assert parse_regex("eps", ALPHA) == EPSILON
        assert parse_regex("empty", ALPHA) == EMPTY

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError) as exc:
            parse_regex("g1 g4", ALPHA)
        assert "g4" in str(exc.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(RegexSyntaxError):
            parse_regex("g1 +", ALPHA)
        with pytest.raises(RegexSyntaxError):
            parse_regex("(g1", ALPHA)

    def test_semicolon_and_pipe_are_synonyms(self):
        assert parse_regex("g1;g2", ALPHA) == parse_regex("g1 g2", ALPHA)
        assert parse_regex("g1|g2", ALPHA) == parse_regex("g1+g2", ALPHA)

    def test_aliases_resolve_to_symbols(self):
        alpha = Alphabet(("(l0,l1)", "(l0,l2)"))
        got = parse_regex("g1 g2", alpha, aliases={"g1": "(l0,l1)", "g2": "(l0,l2)"})
        assert got == Concat(Sym("(l0,l1)"), Sym("(l0,l2)"))

    def test_inline_tuple_symbols(self):
        alpha = Alphabet((("l0", "l1"), ("l0", "l2")))
        got = parse_regex("(l0,l1) (l0,l2)*", alpha)
        assert got == Concat(Sym(("l0", "l1")), Star(Sym(("l0", "l2"))))

    def test_tuple_symbol_is_a_value_spelled_once(self):
        expr = parse_regex("( a , b )")
        assert expr == Sym(("a", "b"))
        assert regex_to_text(expr) == "(a,b)"
        alpha = Alphabet((("a", "b"), ("a", "c")))
        with pytest.raises(UnknownSymbolError) as exc:
            parse_regex("(a,b) (b, a)", alpha)
        assert str(exc.value) == "unknown symbol '(b,a)' (at position 6)"

    def test_predicate_mode_accepts_negated_literals(self):
        got = parse_regex("p ; !p ; T", predicate_mode=True)
        assert got == Concat(Sym("p"), Concat(Sym("!p"), Sym("T")))

    @pytest.mark.parametrize("text, predicate_mode, expected", [
        # a tuple symbol is the tuple of its names, whatever the whitespace
        ("( a , b )", False, Sym(("a", "b"))),
        ("(a,\tb,\u3000c)*", False, Star(Sym(("a", "b", "c")))),
        # one name, a trailing comma or a part that is not one name: grouping
        ("(a)", False, Sym("a")),
        ("(a,)", False, "unexpected character ',' (at position 2)"),
        ("(a, b c)", False, "unexpected character ',' (at position 2)"),
        # "!" glued to a name is part of the symbol in predicate mode only
        ("!p T", True, Concat(Sym("!p"), Sym("T"))),
        ("!p", False, "unexpected character '!' (at position 0)"),
        ("p ! q", True, "dangling '!' (at position 2)"),
        ("p !", True, "dangling '!' (at position 2)"),
        ("a\u00a0# b", False, "unexpected character '#' (at position 2)"),
        # names are Unicode word characters and '.'
        ("a \u00e9", True, Concat(Sym("a"), Sym("\u00e9"))),
        ("eps empty", False, Concat(EPSILON, EMPTY)),
        ("\u0109.1 (\u00b2,x.y)", False, Concat(Sym("\u0109.1"), Sym(("\u00b2", "x.y")))),
    ])
    def test_token_table(self, text, predicate_mode, expected):
        if isinstance(expected, str):
            with pytest.raises(RegexSyntaxError) as exc:
                parse_regex(text, predicate_mode=predicate_mode)
            assert str(exc.value) == expected
        else:
            assert parse_regex(text, predicate_mode=predicate_mode) == expected


# --- denotes ---------------------------------------------------------------


class TestDenotes:
    def test_running_example_members(self):
        e = fig4_expr()
        assert denotes(e, ["g1", "g2", "g3"])
        assert denotes(e, ["g1", "g2", "g1", "g2", "g3"])

    def test_base_cases(self):
        assert not denotes(EMPTY, [])
        assert not denotes(EMPTY, ["g1"])
        assert denotes(EPSILON, [])
        assert not denotes(EPSILON, ["g1"])

    def test_rejections(self):
        e = fig4_expr()
        assert not denotes(e, ["g1"])
        assert not denotes(e, ["g3"])
        assert not denotes(e, ["g1", "g3", "g3"])

    def test_long_chains(self):
        # derivatives follow chains in a loop, and the union that drops a
        # duplicate compares two 1,200-letter chains without recursing
        stars = parse_regex(" ".join(["g1*"] * 1200), ALPHA)
        assert denotes(stars, ["g1"]) and not denotes(stars, ["g2"])
        word = " ".join(["g2"] * 1200)
        twice = parse_regex(f"g1 {word} + g1 {word}", ALPHA)
        assert denotes(twice, ["g1"] + ["g2"] * 1200)
        assert not denotes(twice, ["g1"] + ["g2"] * 1199)
        # chains differing only in their last letter stay apart
        ends = parse_regex(f"g1 {word} g1 + g1 {word} g3", ALPHA)
        assert denotes(ends, ["g1"] + ["g2"] * 1200 + ["g3"])

    def test_custom_matcher(self):
        # Letter predicates against valuation sets.
        e = parse_regex("p T* !p", predicate_mode=True)

        def match(sym, letter):
            if sym == "T":
                return True
            if sym.startswith("!"):
                return sym[1:] not in letter
            return sym in letter

        word = [frozenset({"p"}), frozenset(), frozenset({"q"})]
        assert denotes(e, word, match=match)
        assert not denotes(e, [frozenset({"p"})], match=match)


# --- compile / run ---------------------------------------------------------


class TestCompile:
    def test_running_example_dfa_size(self):
        d = compile_regex(fig4_expr(), ALPHA)
        assert len(d.states) == 4
        assert len(d.accepting) == 1

    def test_membership_vs_denotes_exhaustive(self):
        # 3^0 + ... + 3^6 = 1093 words.
        e = fig4_expr()
        d = compile_regex(e, ALPHA)
        checked = 0
        for word in all_words(ALPHA.symbols, 6):
            assert accepts(d, word) == denotes(e, word)
            checked += 1
        assert checked == 1093

    def test_empty_language_dfa(self):
        d = compile_regex(EMPTY, ALPHA)
        assert len(d.states) == 1
        assert not d.accepting

    def test_universal_language_dfa(self):
        d = compile_regex(parse_regex("(g1+g2+g3)*", ALPHA), ALPHA)
        assert len(d.states) == 1
        assert d.accepting == frozenset(d.states)

    def test_run_examples(self):
        d = compile_regex(fig4_expr(), ALPHA)
        assert run(d, ["g1", "g2", "g3"]) in d.accepting
        assert run(d, []) == d.initial
        assert run(d, ["g3"]) == d.sink

    def test_run_is_monoid_action(self):
        d = compile_regex(fig4_expr(), ALPHA)
        for word in all_words(ALPHA.symbols, 4):
            for cut in range(len(word) + 1):
                u, v = word[:cut], word[cut:]
                state = run(d, u)
                for symbol in v:
                    state = d.step[(state, symbol)]
                assert run(d, word) == state

    def test_minimality_by_pair_distinguishability(self):
        # No two distinct states may be language-equivalent, and every
        # state must be reachable. Re-derived here from scratch.
        exprs = [
            fig4_expr(),
            parse_regex("g1+g2", ALPHA),
            parse_regex("(g1 g2)* + g3", ALPHA),
            parse_regex("g1 + g1 (g1+g2+g3)* g3", ALPHA),
            EMPTY,
            EPSILON,
        ]
        for e in exprs:
            d = compile_regex(e, ALPHA)
            reached = {d.initial}
            frontier = [d.initial]
            while frontier:
                s = frontier.pop()
                for a in ALPHA.symbols:
                    t = d.step[(s, a)]
                    if t not in reached:
                        reached.add(t)
                        frontier.append(t)
            assert reached == set(d.states)
            # partition refinement recheck
            block = {s: (s in d.accepting) for s in d.states}
            while True:
                sig = {
                    s: (block[s],) + tuple(block[d.step[(s, a)]] for a in ALPHA.symbols)
                    for s in d.states
                }
                fresh = {s: sig[s] for s in d.states}
                if len(set(fresh.values())) == len(set(block.values())):
                    break
                block = fresh
            assert len(set(block.values())) == len(d.states)

    def test_breadth_first_state_names(self):
        # States are named in breadth-first order over the letters in
        # alphabet order; e lies on no edge and d only on one.
        alpha = Alphabet(tuple("abcde"))
        d = compile_regex(parse_regex("c a + b (a + d)", alpha), alpha)
        assert d.states == ("z1", "zbot", "z2", "z3", "z4")
        assert (d.initial, d.accepting, d.sink) == ("z1", frozenset({"z4"}), "zbot")
        rows = {
            "z1": "zbot z2 z3 zbot zbot",
            "zbot": "zbot zbot zbot zbot zbot",
            "z2": "z4 zbot zbot z4 zbot",
            "z3": "z4 zbot zbot zbot zbot",
            "z4": "zbot zbot zbot zbot zbot",
        }
        assert d.step == {
            (q, a): t for q, row in rows.items() for a, t in zip("abcde", row.split())
        }

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compile_regex(Sym("g9"), ALPHA)

    @pytest.mark.parametrize("build, message", [
        (lambda: ehsmc.Alphabet(()), "alphabet must be non-empty"),
        (lambda: ehsmc.Alphabet(("a", "b", "a")), "alphabet symbols must be pairwise distinct"),
        # names and tuples mix among stray symbols, spelled as text
        (lambda: ehsmc.compile_regex(Concat(Sym("x"), Sym(("a", "c"))),
                                     ehsmc.Alphabet((("a", "b"),))),
         "expression symbols outside the alphabet: ['(a,c)', 'x']"),
    ])
    def test_bad_alphabets_and_stray_symbols_are_input_errors(self, build, message):
        with pytest.raises(ehsmc.InputError) as exc:
            build()
        assert str(exc.value) == message


# --- language shape --------------------------------------------------------


class TestLanguageShape:
    def test_point_based(self):
        d = compile_regex(parse_regex("g1+g2", ALPHA), ALPHA)
        assert language_shape(d) == LanguageShape.POINT_BASED

    def test_endpoint_based(self):
        d = compile_regex(parse_regex("g1 + g1 (g1+g2+g3)* g3", ALPHA), ALPHA)
        assert language_shape(d) == LanguageShape.ENDPOINT_BASED

    def test_general(self):
        # Same endpoints, different membership: g1 g3 is accepted while
        # g1 g3 g3 is not.
        e = fig4_expr()
        assert denotes(e, ["g1", "g3"])
        assert not denotes(e, ["g1", "g3", "g3"])
        assert language_shape(compile_regex(e, ALPHA)) == LanguageShape.GENERAL

    def test_empty_language_is_point_based(self):
        assert language_shape(compile_regex(EMPTY, ALPHA)) == LanguageShape.POINT_BASED

    def test_epsilon_language_is_general(self):
        assert language_shape(compile_regex(EPSILON, ALPHA)) == LanguageShape.GENERAL

    def test_symbol_subsets_are_point_based(self):
        symbols = ALPHA.symbols
        for r in range(1, len(symbols) + 1):
            for subset in itertools.combinations(symbols, r):
                e = union_of([Sym(s) for s in subset])
                assert language_shape(compile_regex(e, ALPHA)) == LanguageShape.POINT_BASED

    def test_shape_matches_bruteforce_endpoint_check(self):
        # Brute force over words up to length 5 must never contradict
        # an EndpointBased or PointBased claim.
        exprs = [
            "g1 + g1 (g1+g2+g3)* g3",
            "g1 (g1+g2)* g3",
            "g1+g2",
            "g1 g2",
            "(g1+g2) (g1+g2+g3)* (g2+g3) + g1 + g2",
        ]
        for text in exprs:
            e = parse_regex(text, ALPHA)
            shape = language_shape(compile_regex(e, ALPHA))
            members = {w for w in all_words(ALPHA.symbols, 5) if denotes(e, w)}
            if shape == LanguageShape.POINT_BASED:
                assert all(len(w) == 1 for w in members)
            if shape == LanguageShape.ENDPOINT_BASED:
                seen = {}
                for w in members:
                    assert w, "endpoint-based languages cannot contain the empty word"
                for w in all_words(ALPHA.symbols, 5):
                    if not w:
                        continue
                    key = (w[0], w[-1], len(w) == 1)
                    verdict = w in members
                    assert seen.setdefault(key, verdict) == verdict


# --- randomized cross-validation -------------------------------------------


def regex_strategy(symbols):
    leaves = st.sampled_from(
        [EMPTY, EPSILON] + [Sym(s) for s in symbols]
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Concat(*p)),
            st.tuples(sub, sub).map(lambda p: Union(*p)),
            sub.map(Star),
        ),
        max_leaves=8,
    )


@settings(max_examples=200, deadline=None)
@given(expr=regex_strategy(("a", "b", "c")), data=st.data())
def test_denotes_agrees_with_dfa(expr, data):
    alpha = Alphabet(("a", "b", "c"))
    d = compile_regex(expr, alpha)
    word = data.draw(st.lists(st.sampled_from(alpha.symbols), max_size=8))
    assert denotes(expr, word) == accepts(d, word)


def union_chain_strategy(symbols):
    """Expressions whose unions are chains of two to five operands,
    mixing bare symbols with compound operands."""
    leaves = st.sampled_from([EMPTY, EPSILON] + [Sym(s) for s in symbols])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Concat(*p)),
            st.lists(sub, min_size=2, max_size=5).map(union_of),
            sub.map(Star),
        ),
        max_leaves=10,
    )


@settings(max_examples=150, deadline=None)
@given(
    expr=st.one_of(regex_strategy(("a", "b", "c")), union_chain_strategy(("a", "b", "c"))),
    extra=st.integers(min_value=0, max_value=2),
)
def test_letter_classes_agree_with_denotes(expr, extra):
    # Letters d and e never occur in the expression; they must share
    # the transitions of every other letter that lies on no edge.
    alpha = Alphabet(("a", "b", "c", "d", "e")[: 3 + extra])
    d = compile_regex(expr, alpha)
    assert set(d.step) == {(q, a) for q in d.states for a in alpha.symbols}
    for word in all_words(alpha.symbols, 3):
        assert accepts(d, word) == denotes(expr, word)


@settings(max_examples=150, deadline=None)
@given(
    expr=st.one_of(regex_strategy(("a", "b", "c")), union_chain_strategy(("a", "b", "c"))),
    extra=st.integers(min_value=0, max_value=2),
)
def test_states_named_breadth_first(expr, extra):
    # Re-derived from the finished table: a breadth-first search over the
    # letters in alphabet order meets the states in the order of `states`.
    alpha = Alphabet(("a", "b", "c", "d", "e")[: 3 + extra])
    d = compile_regex(expr, alpha)
    order = [d.initial]
    for q in order:
        for a in alpha.symbols:
            if d.step[(q, a)] not in order:
                order.append(d.step[(q, a)])
    assert tuple(order) == d.states
    numbered = [q for q in d.states if q != "zbot"]
    assert numbered == [f"z{i}" for i in range(1, len(numbered) + 1)]
    dead = [q for q in d.states
            if q not in d.accepting and all(d.step[(q, a)] == q for a in alpha.symbols)]
    assert d.sink == (dead[0] if dead else None)
    # zbot names exactly a dead state that is not initial
    assert ("zbot" in d.states) == (d.sink not in (None, d.initial))
    assert d.sink in (None, "z1", "zbot")


class TestLargeAlphabets:
    def test_ring_labels_golden(self):
        # 4 counters: 81 configurations, so 81 letters.
        sys_ = parse_system(ring_text(4, (2, 0, 1, 1)))
        assert len(sys_.alphabet) == 81
        whole = sys_.dfa_for("all")
        assert whole.states == ("z1",)
        assert whole.accepting == frozenset({"z1"})
        assert whole.sink is None
        assert set(whole.step.values()) == {"z1"}

        goal = sys_.dfa_for("goal")
        target = ("e", "c2", "c0", "c1", "c1")
        assert goal.states == ("z1", "z2")
        assert goal.initial == "z1" and goal.accepting == frozenset({"z2"})
        assert goal.sink is None
        for q in goal.states:
            for a in sys_.alphabet:
                assert goal.step[(q, a)] == ("z2" if a == target else "z1")

    def test_729_letter_labels_compile_within_budget(self):
        # 6 counters: 729 letters. Compiling letter by letter took
        # minutes here; over letter classes both labels take milliseconds.
        sys_ = parse_system(ring_text(6, (1, 1, 1, 1, 1, 1)))
        assert len(sys_.alphabet) == 729
        started = time.perf_counter()
        sizes = [len(compile_regex(sys_.labelling[v], sys_.alphabet).states)
                 for v in ("all", "goal")]
        elapsed = time.perf_counter() - started
        assert sizes == [1, 2]
        assert elapsed < 2.0, f"729-letter labels compiled in {elapsed:.2f} s"


@settings(max_examples=100, deadline=None)
@given(expr=regex_strategy(("a", "b")))
def test_print_parse_round_trip(expr):
    alpha = Alphabet(("a", "b"))
    text = regex_to_text(expr)
    assert parse_regex(text, alpha) == expr
    # the bound that lets parse_regex skip measuring the depth
    assert regex_depth(expr) <= 2 * text.count("(") + text.count("*") + 2


# --- nesting and long chains -------------------------------------------------


class TestNesting:
    def test_depth_counts_stars_and_chains_not_chain_length(self):
        assert regex_depth(Sym("a")) == 0
        assert regex_depth(parse_regex("a b c d + e")) == 2
        assert regex_depth(parse_regex("a***")) == 3
        assert regex_depth(parse_regex("(a b) c")) == 2
        assert regex_depth(parse_regex(" ".join(["a"] * 3000))) == 1

    @pytest.mark.parametrize("text", [
        "(" * MAX_REGEX_DEPTH + "a" + ")" * MAX_REGEX_DEPTH,
        "a" + "*" * MAX_REGEX_DEPTH,
        # each level is a concatenation, a star and a union
        "(a + " * (MAX_REGEX_DEPTH // 3) + "a" + ")* b" * (MAX_REGEX_DEPTH // 3),
    ])
    def test_nesting_at_the_limit_parses(self, text):
        expr = parse_regex(text)
        assert regex_depth(expr) <= MAX_REGEX_DEPTH
        assert parse_regex(regex_to_text(expr)) == expr

    @pytest.mark.parametrize("text", [
        "(" * (MAX_REGEX_DEPTH + 1) + "a" + ")" * (MAX_REGEX_DEPTH + 1),
        "(" * 400 + "a" + ")" * 400,
        "a" + "*" * (MAX_REGEX_DEPTH + 1),
        "a" + "*" * 2000,
        "(a + " * (MAX_REGEX_DEPTH // 3 + 1) + "a" + ")* b" * (MAX_REGEX_DEPTH // 3 + 1),
    ])
    def test_deeper_nesting_is_rejected(self, text):
        with pytest.raises(RegexSyntaxError, match="nested deeper than"):
            parse_regex(text)

    @pytest.mark.parametrize("sep", [" ", " + "])
    def test_long_chains_cost_no_recursion(self, sep):
        # (deep dataclass equality would itself recurse, so compare text)
        text = sep.join(["a*"] * 3000)
        expr = parse_regex(text)
        assert regex_to_text(expr) == text
        upper = map_symbols(expr, lambda s: Sym(s.upper()))
        assert regex_to_text(upper) == text.replace("a", "A")
        assert denotes(expr, [])  # the empty word, through the nullable walk only
        assert not denotes(parse_regex(sep.join(["a"] * 3000)), [])


# --- DOT -------------------------------------------------------------------


def test_dot_export_shape():
    d = compile_regex(fig4_expr(), ALPHA)
    dot = dfa_to_dot(d)
    assert dot.startswith("digraph dfa {")
    assert dot.count("doublecircle") == 1
    assert "style=dashed" in dot
    assert dot == dfa_to_dot(d)  # byte-deterministic


def test_symbols_of():
    assert symbols_of(fig4_expr()) == {"g1", "g2", "g3"}
