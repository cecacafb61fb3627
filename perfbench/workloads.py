"""Seeded input generators for the benchmark.

Everything a workload feeds the checker is built here, from the seed
alone: the running example, exhaustive formula sets, small
deterministic and branching systems, and counter rings written as
`.isrl` text. Nothing is imported from the test suite, so refactoring
the tests cannot silently change what the benchmark measures. Systems
are emitted as text and go through `parse_system`, like a user's would.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ehsmc.formulas import PI, And, C, Diamond, Formula, K, Not, Var
from ehsmc.systems import Interval, Relation

UnaryHead = Callable[[Formula], Formula]

# The three-configuration running example of the source paper.
IS_EX_TEXT = """\
agent Env
  states l0
  init l0
  actions a1 a2
  protocol l0: a1 a2
  trans l0 (*,*) l0
agent Proc
  states l1 l2 l3
  init l1
  actions eps
  protocol l1: eps
  protocol l2: eps
  protocol l3: eps
  trans l1 (a1,eps) l2
  trans l2 (a1,eps) l3
  trans l2 (a2,eps) l1
  trans l3 (a1,eps) l1
  trans l3 (a2,eps) l1
config g1 = (l0,l1)
config g2 = (l0,l2)
config g3 = (l0,l3)
label p = g1 (g1+g2)* g3
"""


# ---------------------------------------------------------------------------
# Formula enumeration


def _epistemic_heads() -> List[UnaryHead]:
    return [lambda f: K(0, f), lambda f: K(1, f), lambda f: C((0, 1), f)]


def _diamond(relation: Relation) -> UnaryHead:
    return lambda f: Diamond(relation, f)


BDE_HEADS: List[UnaryHead] = [Not] + _epistemic_heads() + [
    _diamond(r) for r in (Relation.B, Relation.D, Relation.E)
]
ABLN_HEADS: List[UnaryHead] = [Not] + _epistemic_heads() + [
    _diamond(r) for r in (Relation.A, Relation.BBAR, Relation.N)
]
ATOMS: List[Formula] = [Var("p"), PI]


def all_formulas(max_size: int, heads: Sequence[UnaryHead]) -> List[Formula]:
    """Every formula of AST size <= max_size over the atoms p and pi,
    the given unary heads and conjunction, smallest first."""
    by_size: Dict[int, List[Formula]] = {1: list(ATOMS)}
    for size in range(2, max_size + 1):
        layer: List[Formula] = []
        for head in heads:
            layer.extend(head(f) for f in by_size[size - 1])
        for left_size in range(1, size - 1):
            for left in by_size[left_size]:
                layer.extend(And(left, right) for right in by_size[size - 1 - left_size])
        by_size[size] = layer
    return [f for size in range(1, max_size + 1) for f in by_size[size]]


def _children(f: Formula) -> Tuple[Formula, ...]:
    if isinstance(f, And):
        return (f.left, f.right)
    sub = getattr(f, "sub", None)
    return () if sub is None else (sub,)


def modal_depth(f: Formula) -> int:
    inner = max((modal_depth(c) for c in _children(f)), default=0)
    return inner + (1 if isinstance(f, (K, C, Diamond)) else 0)


def _diamonds(f: Formula) -> Iterator[Diamond]:
    if isinstance(f, Diamond):
        yield f
    for c in _children(f):
        yield from _diamonds(c)


def temporal_operands(f: Formula) -> List[Formula]:
    return [d.sub for d in _diamonds(f)]


def _outer_diamonds_only(f: Formula, under_modal: bool = False) -> bool:
    """No diamond below K, C or another diamond, and no diamond whose
    operand is free of K and C."""
    if isinstance(f, Diamond):
        if under_modal or modal_depth(f.sub) != 1 or next(_diamonds(f.sub), None):
            return False
        return True
    inner = under_modal or isinstance(f, (K, C))
    return all(_outer_diamonds_only(c, inner) for c in _children(f))


def depth2_enumeration_formulas(max_size: int) -> List[Formula]:
    """Depth-2 A/Bbar/N formulas that force the bounded enumeration:
    every diamond sits at the top (under Booleans only), has an operand
    with K or C over a modal-free formula, and all diamonds of one
    formula share one relation. On these, `check_abln` under a user cap
    enumerates exactly the intervals the oracle admits at the matching
    anchored bound (see `enumeration_oracle_bound`), so the oracle is an
    exact reference."""
    out = []
    for f in all_formulas(max_size, ABLN_HEADS):
        if modal_depth(f) != 2 or not _outer_diamonds_only(f):
            continue
        if len({d.relation for d in _diamonds(f)}) == 1:
            out.append(f)
    return out


def enumeration_oracle_bound(f: Formula, cap: int) -> int:
    """Oracle bound matching a user cap for a formula from
    `depth2_enumeration_formulas`, checked at a point interval anchored
    at the initial configuration. A and Bbar candidates reach total
    length 1 + cap in both engines; the oracle measures next-step
    candidates from the successor, one configuration later."""
    relation = next(_diamonds(f)).relation
    return cap + (2 if relation is Relation.N else 1)


# ---------------------------------------------------------------------------
# Intervals


def intervals_up_to(sys, max_len: int) -> List[Interval]:
    """Every interval of length <= max_len over reachable configurations,
    shortest first, in successor order."""
    out: List[Interval] = []
    frontier = [(g,) for g in sys.reachable]
    for _ in range(max_len):
        out.extend(Interval(p) for p in frontier)
        frontier = [p + (s,) for p in frontier for s in sys.successors(p[-1])]
    return out


# ---------------------------------------------------------------------------
# Small generated systems (the shapes of acceptance criterion 4)


def _agent_block(name: str, states: Sequence[str], actions: Sequence[str],
                 trans_lines: Sequence[str]) -> List[str]:
    lines = [f"agent {name}", "  states " + " ".join(states),
             f"  init {states[0]}", "  actions " + " ".join(actions)]
    lines += [f"  protocol {s}: " + " ".join(actions) for s in states]
    lines += [f"  {t}" for t in trans_lines]
    return lines


_LABEL_SHAPES: List[Callable[[List[str], random.Random], str]] = [
    lambda cs, rng: rng.choice(cs),
    lambda cs, rng: rng.choice(cs) + "*",
    lambda cs, rng: "(" + " + ".join(rng.sample(cs, min(2, len(cs)))) + ")*",
    lambda cs, rng: "(" + " + ".join(cs) + ")*",
    lambda cs, rng: (lambda a: f"{a} {a}*")(rng.choice(cs)),
    lambda cs, rng: (lambda a, b: f"{a}* {b}")(rng.choice(cs), rng.choice(cs)),
]


# (configurations, states of the label's minimal automaton); a workload
# draws the same number of systems from each stratum, because checking
# and oracle costs grow with both
STRATA: List[Tuple[int, int]] = [(n, q) for n in (1, 2, 3) for q in (1, 2, 3)]


def small_system_text(rng: random.Random, parse, branching: bool, n: int, q: int) -> str:
    """Two agents: a structured one with n states whose moves follow its
    own actions, and a blind one with a single state; one variable p
    whose minimal automaton has q states. A deterministic system has one
    joint action, so every configuration has one successor; a branching
    one has two, so configurations have up to two."""
    actions = ("a1", "a2") if branching else ("go",)
    states = [f"s{i}" for i in range(n)]
    names = [f"c{i}" for i in range(n)]
    while True:
        trans = [f"trans s{i} ({a},*) s{rng.randrange(n)}" for i in range(n) for a in actions]
        body = _agent_block("A", states, actions, trans)
        body += _agent_block("B", ["d"], ["ok"], ["trans d (*,*) d"])
        body += [f"config c{i} = (s{i},d)" for i in range(n)]
        text = "\n".join(body + [f"label p = {rng.choice(_LABEL_SHAPES)(names, rng)}"]) + "\n"
        if len(parse(text).dfa_for("p").states) == q:
            return text


def stratified_systems(rng: random.Random, parse, branching: bool, per_stratum: int) -> List[str]:
    return [small_system_text(rng, parse, branching, n, q)
            for n, q in STRATA for _ in range(per_stratum)]


# ---------------------------------------------------------------------------
# Counter rings


def ring_config_name(counters: Sequence[int]) -> str:
    return "k" + "".join(str(c) for c in counters)


def ring_text(n: int, point_labels: Dict[str, Sequence[int]],
              general_labels: Dict[str, str]) -> str:
    """An environment that schedules one of n 3-state counters per step;
    the scheduled counter moves c0 -> c1 -> c2 -> c0. Every one of the
    3^n configurations is reachable and the step relation is strongly
    connected. Each configuration gets a `config` alias, so labels can
    name them; `ALL` in a general label expands to the union of every
    configuration."""
    agents = n + 1
    lines = ["agent Sched", "  states e", "  init e",
             "  actions " + " ".join(f"t{i}" for i in range(n)),
             "  protocol e: " + " ".join(f"t{i}" for i in range(n)),
             "  trans e (" + ",".join(["*"] * agents) + ") e"]
    for i in range(n):
        lines += [f"agent Ctr{i}", "  states c0 c1 c2", "  init c0", "  actions idle",
                  "  protocol c0: idle", "  protocol c1: idle", "  protocol c2: idle"]
        for s in range(3):
            for j in range(n):
                pattern = [f"t{j}"] + ["*"] * n
                dst = (s + 1) % 3 if j == i else s
                lines.append(f"  trans c{s} ({','.join(pattern)}) c{dst}")
    every = list(itertools.product(range(3), repeat=n))
    for counters in every:
        cfg = ",".join(["e"] + [f"c{c}" for c in counters])
        lines.append(f"config {ring_config_name(counters)} = ({cfg})")
    whole = "(" + " + ".join(ring_config_name(c) for c in every) + ")"
    for var, counters in point_labels.items():
        lines.append(f"label {var} = {ring_config_name(counters)}")
    for var, text in general_labels.items():
        lines.append(f"label {var} = {text.replace('ALL', whole)}")
    return "\n".join(lines) + "\n"


def ring_walk(rng: random.Random, n: int, start: Sequence[int], steps: int) -> List[Tuple[int, ...]]:
    """A random path through the ring's configurations."""
    path = [tuple(start)]
    for _ in range(steps):
        nxt = list(path[-1])
        i = rng.randrange(n)
        nxt[i] = (nxt[i] + 1) % 3
        path.append(tuple(nxt))
    return path


def formula_text(f: Formula) -> str:
    """Fully bracketed rendering used to fingerprint formula lists."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, And):
        return f"({formula_text(f.left)} & {formula_text(f.right)})"
    if isinstance(f, Not):
        return f"!{formula_text(f.sub)}"
    if isinstance(f, K):
        return f"K{{{f.agent}}} {formula_text(f.sub)}"
    if isinstance(f, C):
        return "C{" + ",".join(map(str, f.group)) + "} " + formula_text(f.sub)
    if isinstance(f, Diamond):
        return f"<{f.relation.value}> {formula_text(f.sub)}"
    return "pi"
