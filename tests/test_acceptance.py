"""Acceptance gate: ten end-to-end checks, one test and one printed
pass line per criterion, each with a wall-clock budget.

The differential checks pit independent routes against each other
(exact fragment checkers vs the enumeration reference, regex
derivatives vs compiled automata, witness search vs brute-force path
enumeration) on exhaustive or seeded-random inputs, so a disagreement
anywhere in the stack surfaces as a counterexample here.
"""

import itertools
import random
import re
import time

from ehsmc.abln import (
    LITERAL_BOUND,
    check_abln,
    compute_mct,
    regular_witness_search,
    user_bound,
)
from ehsmc.bde import check_bde
from ehsmc.formulas import (
    BOT,
    PI,
    TOP,
    And,
    Atom,
    Bot,
    Box,
    C,
    Diamond,
    Formula,
    Implies,
    K,
    Not,
    Or,
    Pi,
    Top,
    Var,
    eliminate_L,
    fis_bound,
    format_formula,
    parse_plus,
    parse_re,
)
from ehsmc.oracle import minimal_anchor, oracle_check
from ehsmc.reductions import to_point_based, to_regular_labelling
from ehsmc.regexes import (
    Concat,
    LanguageShape,
    Star,
    Sym,
    Union,
    accepts,
    denotes,
    language_shape,
)
from ehsmc.systems import (
    AnchoredInterval,
    InterpretedSystem,
    Interval,
    Path,
    Relation,
    format_system,
    label_holds,
    parse_system,
)

from conftest import POINT_SYS_TEXT, cfgs, iv
from genutil import (all_formulas, bde_kit, expand_N, intervals_up_to, modal_depth,
                     random_formula)


def _stamp(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS - {detail} ({elapsed:.2f} s)")
    assert elapsed < budget, f"criterion {number} overran {budget} s"


def _walk(rng: random.Random, sys: InterpretedSystem, start, steps: int):
    path = [start]
    for _ in range(steps):
        path.append(rng.choice(sys.successors(path[-1])))
    return tuple(path)


# ---------------------------------------------------------------------------
# Generated systems. All generators emit the textual format and go through
# parse_system, so the parser participates in every differential run.


def _agent_block(name, states, actions, trans_lines):
    lines = [f"agent {name}", "  states " + " ".join(states),
             f"  init {states[0]}", "  actions " + " ".join(actions)]
    lines += [f"  protocol {s}: " + " ".join(actions) for s in states]
    lines += [f"  {t}" for t in trans_lines]
    return lines


_LABEL_SHAPES = [
    lambda cs, rng: rng.choice(cs),
    lambda cs, rng: rng.choice(cs) + "*",
    lambda cs, rng: "(" + " + ".join(rng.sample(cs, min(2, len(cs)))) + ")*",
    lambda cs, rng: "(" + " + ".join(cs) + ")*",
    lambda cs, rng: (lambda a: f"{a} {a}*")(rng.choice(cs)),
    lambda cs, rng: (lambda a, b: f"{a}* {b}")(rng.choice(cs), rng.choice(cs)),
]


def _pick_label(rng, names, state_limit, configs, agents_text):
    """A label regex whose minimal DFA stays within state_limit."""
    while True:
        text = rng.choice(_LABEL_SHAPES)(names, rng)
        body = agents_text + configs + [f"label p = {text}"]
        sys = parse_system("\n".join(body) + "\n")
        if len(sys.dfa_for("p").states) <= state_limit:
            return sys, text


def _deterministic_system(rng: random.Random) -> InterpretedSystem:
    """Two agents, one joint action, functional global step, one
    variable whose DFA has at most 3 states."""
    n = rng.choice((1, 2, 2, 3, 3))
    states = [f"s{i}" for i in range(n)]
    trans = [f"trans s{i} (go,*) s{rng.randrange(n)}" for i in range(n)]
    agents = _agent_block("A", states, ["go"], trans)
    agents += _agent_block("B", ["d"], ["ok"], ["trans d (*,*) d"])
    configs = [f"config c{i} = (s{i},d)" for i in range(n)]
    names = [f"c{i}" for i in range(n)]
    sys, _ = _pick_label(rng, names, 3, configs, agents)
    assert all(len(sys.successors(g)) == 1 for g in sys.all_configs)
    return sys


def _branching_system(rng: random.Random, label_limit=None):
    """One structured agent with two actions (out-degree <= 2)."""
    n = rng.choice((1, 2, 3))
    states = [f"s{i}" for i in range(n)]
    trans = [f"trans s{i} ({a},*) s{rng.randrange(n)}"
             for i in range(n) for a in ("a1", "a2")]
    agents = _agent_block("A", states, ["a1", "a2"], trans)
    agents += _agent_block("B", ["d"], ["ok"], ["trans d (*,*) d"])
    configs = [f"config c{i} = (s{i},d)" for i in range(n)]
    names = [f"c{i}" for i in range(n)]
    if label_limit is None:
        return parse_system("\n".join(agents + configs) + "\n"), names
    limit = label_limit[n]
    sys, _ = _pick_label(rng, names, limit, configs, agents)
    return sys, names


def _general_labelled_system(rng: random.Random) -> InterpretedSystem:
    """Branching system with one or two unrestricted regex labels."""
    base, names = _branching_system(rng)
    shapes = _LABEL_SHAPES + [
        lambda cs, r: "{} ({})* {}".format(
            r.choice(cs), " + ".join(r.sample(cs, min(2, len(cs)))), r.choice(cs)),
        lambda cs, r: "({} {})*".format(r.choice(cs), r.choice(cs)),
    ]
    lines = [f"label p = {rng.choice(shapes)(names, rng)}"]
    if rng.random() < 0.5:
        lines.append(f"label q = {rng.choice(shapes)(names, rng)}")
    text = "\n".join(
        _rebuild_text(base) + lines
    )
    return parse_system(text + "\n")


def _point_labelled_system(rng: random.Random) -> InterpretedSystem:
    """Branching system with point-based labels p and q."""
    base, names = _branching_system(rng)
    labels = []
    for var in ("p", "q"):
        picks = rng.sample(names, rng.randint(1, len(names)))
        labels.append(f"label {var} = " + " + ".join(picks))
    return parse_system("\n".join(_rebuild_text(base) + labels) + "\n")


def _rebuild_text(sys: InterpretedSystem):
    return format_system(sys).rstrip("\n").split("\n")


def _random_boolean(rng: random.Random, size: int, variables) -> Formula:
    if size <= 1:
        return rng.choice([Var(v) for v in variables] + [PI, TOP])
    if size >= 3 and rng.random() < 0.5:
        left = rng.randint(1, size - 2)
        op = rng.choice((And, Or))
        return op(_random_boolean(rng, left, variables),
                  _random_boolean(rng, size - 1 - left, variables))
    return Not(_random_boolean(rng, size - 1, variables))


def _boolean_holds(sys, node: Formula, configs: Path) -> bool:
    if isinstance(node, Pi):
        return len(configs) == 1
    if isinstance(node, Top):
        return True
    if isinstance(node, Bot):
        return False
    if isinstance(node, Var):
        return label_holds(sys, node.name, configs)
    if isinstance(node, Not):
        return not _boolean_holds(sys, node.sub, configs)
    if isinstance(node, And):
        return (_boolean_holds(sys, node.left, configs)
                and _boolean_holds(sys, node.right, configs))
    if isinstance(node, Or):
        return (_boolean_holds(sys, node.left, configs)
                or _boolean_holds(sys, node.right, configs))
    raise TypeError(node)


def _temporal_operands(f: Formula):
    """Operands of every forward temporal diamond in the tree."""
    out = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Diamond):
            out.append(node.sub)
            stack.append(node.sub)
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, (And, Or, Implies)):
            stack.extend((node.left, node.right))
        elif isinstance(node, (K, C, Box)):
            stack.append(node.sub)
    return out


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_running_example_reconstruction(is_ex, gs):
    t0 = time.perf_counter()
    assert len(is_ex.all_configs) == 3
    steps = {(is_ex.display(g), is_ex.display(h))
             for g in is_ex.all_configs for h in is_ex.successors(g)}
    assert steps == {("g1", "g2"), ("g2", "g1"), ("g2", "g3"), ("g3", "g1")}
    assert label_holds(is_ex, "p", cfgs(gs, "g1", "g2", "g3"))
    assert label_holds(is_ex, "p", cfgs(gs, "g1", "g2", "g1", "g2", "g3"))
    assert not label_holds(is_ex, "p", cfgs(gs, "g1"))
    _stamp(1, t0, 1.0, "3 configurations, 4 global steps, labelling checks")


def test_criterion_02_labelling_automaton(is_ex):
    t0 = time.perf_counter()
    dfa = is_ex.dfa_for("p")
    assert len(dfa.states) == 4
    assert len(dfa.accepting) == 1
    expr = is_ex.labelling["p"]
    symbols = is_ex.all_configs
    words = 0
    for length in range(7):
        for word in itertools.product(symbols, repeat=length):
            assert accepts(dfa, word) == denotes(expr, word)
            words += 1
    assert words == 1093
    _stamp(2, t0, 1.0, "4-state automaton, 1 accepting, 1093-word agreement")


def test_criterion_03_bde_differential_exhaustive(is_ex):
    t0 = time.perf_counter()
    atoms, heads = bde_kit(("p",))
    formulas = list(all_formulas(5, atoms, heads))
    assert len(formulas) == 6882
    intervals = intervals_up_to(is_ex, 4)
    assert len(intervals) == 19
    checked = 0
    for interval in intervals:
        anchored = minimal_anchor(is_ex, interval)
        for f in formulas:
            exact = check_bde(is_ex, interval, f)
            reference = oracle_check(is_ex, anchored, f, anchored.total_length)
            assert exact == reference, (
                f"{format_formula(f)} at {interval.configs}")
            checked += 1
    _stamp(3, t0, 300.0, f"{checked} exhaustive BDE comparisons agree")


def test_criterion_04_bounded_equivalence_on_deterministic_systems():
    t0 = time.perf_counter()
    atoms = [Var("p"), PI]
    heads = [
        Not,
        lambda f: K(0, f),
        lambda f: K(1, f),
        lambda f: C((0, 1), f),
        lambda f: Diamond(Relation.A, f),
        lambda f: Diamond(Relation.BBAR, f),
        lambda f: Diamond(Relation.N, f),
    ]
    formulas = [f for f in all_formulas(6, atoms, heads) if modal_depth(f) <= 1]
    assert len(formulas) == 2792
    rng = random.Random(404)
    agreements = 0
    for _ in range(20):
        sys = _deterministic_system(rng)
        assert len(sys.all_configs) <= 3
        assert len(sys.dfa_for("p").states) <= 3
        point = Interval((sys.initial,))
        anchored = AnchoredInterval((), point)
        for f in formulas:
            verdict = check_abln(sys, point, f, LITERAL_BOUND)
            assert verdict.conclusive
            operands = _temporal_operands(f)
            bound = 2 + max(
                (fis_bound(sys, op) for op in operands), default=0)
            assert verdict.holds == oracle_check(sys, anchored, f, bound), (
                format_formula(f))
            agreements += 1
    _stamp(4, t0, 600.0,
           f"{agreements} bounded-vs-reference verdicts on 20 systems")


def test_criterion_05_witness_search_vs_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(505)
    label_limit = {1: 3, 2: 2, 3: 1}
    for _ in range(200):
        sys, _ = _branching_system(rng, label_limit)
        operand = _random_boolean(rng, rng.randint(1, 5), sys.variables)
        product_states = 1
        for var in sys.variables:
            product_states *= len(sys.dfa_for(var).states)
        if rng.random() < 0.5:
            start = rng.choice(sys.reachable)
            base = None
            diameter = len(sys.all_configs) * product_states * 2 + 1
            found = regular_witness_search(
                sys, Interval((start,)), Relation.A, operand)
            frontier = [(start,)]
        else:
            start = rng.choice(sys.reachable)
            base = _walk(rng, sys, start, rng.randint(0, 2))
            diameter = len(sys.all_configs) * product_states * 2 + len(base)
            found = regular_witness_search(
                sys, Interval(base), Relation.BBAR, operand)
            frontier = [base + (s,) for s in sys.successors(base[-1])]
        shortest = None
        for _length in range(diameter):
            for path in frontier:
                if _boolean_holds(sys, operand, path):
                    shortest = path
                    break
            if shortest is not None or not frontier:
                break
            frontier = [p + (s,) for p in frontier
                        for s in sys.successors(p[-1])]
        if shortest is None:
            assert found is None
        else:
            assert found is not None
            assert len(found) == len(shortest)
            assert _boolean_holds(sys, operand, found.configs)
            if base is None:
                assert found.first == start
            else:
                assert found.configs[:len(base)] == base
                assert len(found) > len(base)
    _stamp(5, t0, 120.0, "200 searches agree with brute-force enumeration")


def test_criterion_06_translation_round_trips():
    t0 = time.perf_counter()
    rng = random.Random(606)
    pairs = 0

    for _ in range(100):
        sys = _general_labelled_system(rng)
        f = random_formula(rng, rng.randint(2, 5),
                           variables=sys.variables, agents=(0, 1))
        moved, f_re = to_point_based(sys, f)
        for var in moved.variables:
            assert language_shape(moved.dfa_for(var)) == LanguageShape.POINT_BASED
        back, f_plus = to_regular_labelling(moved, f_re)
        for interval in intervals_up_to(sys, 3):
            anchored = minimal_anchor(sys, interval)
            want = oracle_check(sys, anchored, f, 6)
            assert oracle_check(moved, anchored, f_re, 6) == want
            assert oracle_check(back, anchored, f_plus, 6) == want
        pairs += 1

    letters = ["p", "q", "!p", "!q", "T", ("p", "q")]

    def letter_expr(size):
        if size <= 1:
            return Sym(rng.choice(letters))
        if size == 2 or rng.random() < 0.4:
            return Star(letter_expr(size - 1))
        left = rng.randint(1, size - 2)
        op = rng.choice((Concat, Union))
        return op(letter_expr(left), letter_expr(size - 1 - left))

    def re_formula(size):
        if size <= 1:
            return Atom(letter_expr(rng.randint(1, 4))) \
                if rng.random() < 0.7 else PI
        if size >= 3 and rng.random() < 0.4:
            left = rng.randint(1, size - 2)
            op = rng.choice((And, Or))
            return op(re_formula(left), re_formula(size - 1 - left))
        sub = re_formula(size - 1)
        head = rng.randrange(4)
        if head == 0:
            return Not(sub)
        if head == 1:
            return K(rng.choice((0, 1)), sub)
        if head == 2:
            return C((0, 1), sub)
        return Diamond(rng.choice(list(Relation)), sub)

    for _ in range(100):
        sys = _point_labelled_system(rng)
        for var in sys.variables:
            assert language_shape(sys.dfa_for(var)) == LanguageShape.POINT_BASED
        f = re_formula(rng.randint(2, 4))
        lifted, f_plus = to_regular_labelling(sys, f)
        fresh = set(lifted.variables) - set(sys.variables)
        assert all(re.fullmatch(r"q_[0-9a-f]{8}", v) for v in fresh)
        for interval in intervals_up_to(sys, 3):
            anchored = minimal_anchor(sys, interval)
            assert (oracle_check(lifted, anchored, f_plus, 6)
                    == oracle_check(sys, anchored, f, 6))
        pairs += 1

    assert pairs == 200
    _stamp(6, t0, 300.0, "200 translated pairs preserve every verdict")


def test_criterion_07_rewrite_identities(is_ex, gs):
    t0 = time.perf_counter()
    atoms = [Var("p"), PI]
    heads = [
        Not,
        lambda f: K(0, f),
        lambda f: K(1, f),
        lambda f: C((0, 1), f),
        lambda f: Diamond(Relation.A, f),
        lambda f: Diamond(Relation.B, f),
        lambda f: Diamond(Relation.D, f),
        lambda f: Diamond(Relation.E, f),
    ]
    bodies = list(all_formulas(4, atoms, heads))
    assert len(bodies) == 1270
    intervals = [iv(gs, "g1"), iv(gs, "g1", "g2")]
    anchors = [minimal_anchor(is_ex, i) for i in intervals]
    checked = 0
    for body in bodies:
        later = Diamond(Relation.L, body)
        later_rhs = Diamond(Relation.A, And(Not(PI), Diamond(Relation.A, body)))
        assert eliminate_L(later) == later_rhs
        nxt = Diamond(Relation.N, body)
        nxt_rhs = Diamond(Relation.A, And(Not(PI), And(
            Box(Relation.B, Box(Relation.B, BOT)),
            Diamond(Relation.A, body))))
        assert expand_N(nxt) == nxt_rhs
        for anchored in anchors:
            assert (oracle_check(is_ex, anchored, later, 6)
                    == oracle_check(is_ex, anchored, later_rhs, 6))
            assert (oracle_check(is_ex, anchored, nxt, 6)
                    == oracle_check(is_ex, anchored, nxt_rhs, 6))
            checked += 2
    _stamp(7, t0, 120.0, f"{checked} identity instances agree")


SOLO_TEXT = """\
agent S
  states s
  init s
  actions w
  protocol s: w
  trans s (w) s
config g = (s)
"""


def test_criterion_08_context_tree_properties(is_ex):
    t0 = time.perf_counter()
    rng = random.Random(808)
    solo = parse_system(SOLO_TEXT)
    horizon = 4

    is_ex_pool = [
        parse_plus("<A> p"),
        parse_plus("K{0} pi & <A> p"),
        parse_plus("<Bbar> p"),
        parse_plus("<N> (p & !pi)"),
    ]
    solo_pool = [parse_plus("<A> pi"), parse_plus("K{0} !pi"), parse_plus("pi")]

    def sample_interval(sys):
        start = rng.choice(sys.reachable)
        return Interval(_walk(rng, sys, start, rng.randint(0, 4)))

    # Deterministic pumped pairs guarantee non-vacuous composition runs.
    g1, g2 = is_ex.aliases["g1"], is_ex.aliases["g2"]
    pinned = [(Interval((g1, g2, g1)), Interval((g1, g2, g1, g2, g1)))]
    samples = [(sample_interval(is_ex), sample_interval(is_ex))
               for _ in range(346)] + pinned * 4
    solo_samples = [(sample_interval(solo), sample_interval(solo))
                    for _ in range(150)]
    assert len(samples) + len(solo_samples) == 500

    equal_pairs = 0
    congruent_pairs = 0
    seen = {format_formula(f): set() for f in is_ex_pool}
    for index, (left, right) in enumerate(samples):
        f = is_ex_pool[index % len(is_ex_pool)]
        m_left = compute_mct(is_ex, left, f, horizon)
        m_right = compute_mct(is_ex, right, f, horizon)
        seen[format_formula(f)].update((m_left, m_right))
        if m_left != m_right:
            continue
        equal_pairs += 1
        steps = rng.randint(1, horizon - 1)
        suffix = _walk(rng, is_ex, left.last, steps)[1:]
        assert (compute_mct(is_ex, Interval(left.configs + suffix), f,
                            horizon - steps)
                == compute_mct(is_ex, Interval(right.configs + suffix), f,
                               horizon - steps))

    for index, (left, right) in enumerate(solo_samples):
        f = solo_pool[index % len(solo_pool)]
        m_left = compute_mct(solo, left, f, horizon)
        m_right = compute_mct(solo, right, f, horizon)
        if m_left != m_right:
            continue
        equal_pairs += 1
        if fis_bound(solo, f) <= horizon:
            # Horizon covers the interval-type bound: equal trees must
            # mean equal verdicts.
            assert (check_abln(solo, left, f, LITERAL_BOUND).holds
                    == check_abln(solo, right, f, LITERAL_BOUND).holds)
            congruent_pairs += 1

    # Congruence at a horizon that meets the bound of a modal formula.
    deep = parse_plus("<A> pi")
    assert fis_bound(solo, deep) == 8
    trees = {}
    for length in range(1, 7):
        interval = Interval((solo.initial,) * length)
        tree = compute_mct(solo, interval, deep, 8)
        verdict = check_abln(solo, interval, deep, LITERAL_BOUND).holds
        if tree in trees:
            assert trees[tree] == verdict
            congruent_pairs += 1
        trees[tree] = verdict

    assert equal_pairs >= 25
    assert congruent_pairs >= 25
    for f in is_ex_pool:
        assert len(seen[format_formula(f)]) < fis_bound(is_ex, f)
    _stamp(8, t0, 300.0,
           f"{equal_pairs} equal-tree pairs compose, "
           f"{congruent_pairs} congruence checks, counts under the bound")


def test_criterion_09_separation_formula(point_sys):
    t0 = time.perf_counter()
    f = parse_re("p & [A] ({(p T)*} -> [N] {p T*})")
    satisfying, cfgs = point_sys
    violating = parse_system(POINT_SYS_TEXT.replace(
        "trans n (go) h", "trans n (go) h\n  trans n (go) n"))
    outcomes = []
    for sys in (satisfying, violating):
        start = Interval((sys.initial,))
        lifted, f_plus = to_regular_labelling(sys, f)
        verdict = check_abln(lifted, start, f_plus, user_bound(8))
        reference = oracle_check(sys, AnchoredInterval((), start), f, 8)
        assert verdict.holds == reference
        outcomes.append(verdict.holds)
    assert outcomes == [True, False]
    _stamp(9, t0, 60.0, "periodicity holds on the loop, fails with the stutter")


def test_criterion_10_user_bound_monotonicity(is_ex, gs):
    t0 = time.perf_counter()
    atoms = [Var("p"), PI]
    heads = [
        lambda f: Diamond(Relation.A, f),
        lambda f: Diamond(Relation.BBAR, f),
        lambda f: Diamond(Relation.N, f),
    ]
    formulas = list(all_formulas(3, atoms, heads, binary=(And, Or)))
    formulas += [
        parse_plus("<A> <A> p"),
        parse_plus("<A> <N> p"),
        parse_plus("<Bbar> <A> p"),
        parse_plus("<A> (!pi & <A> p)"),
        parse_plus("<N> (p | <A> p)"),
        parse_plus("<A> (p & !pi)"),
    ]
    point = iv(gs, "g1")
    checked = 0
    for f in formulas:
        verdicts = [check_abln(is_ex, point, f, user_bound(k)).holds
                    for k in range(1, 9)]
        assert verdicts == sorted(verdicts), format_formula(f)
        checked += 1
    _stamp(10, t0, 120.0,
           f"{checked} existential formulas monotone across bounds 1..8")
