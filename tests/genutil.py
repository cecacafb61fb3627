"""Shared generators for differential and property suites.

Formulas come in two flavours: `all_formulas` enumerates every formula
up to an AST size from a fixed kit (used by the exhaustive differential
suites), and `random_formula` draws one seeded sample (used by
round-trip and sampling suites). `intervals_up_to` lists every short
interval of a system. `ring_text` writes a counter ring whose
configuration space, and so label alphabet, grows as 3^n.
"""

import itertools
import random
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ehsmc.formulas import (
    BOT,
    PI,
    TOP,
    And,
    Box,
    C,
    Diamond,
    Formula,
    Implies,
    K,
    Not,
    Or,
    Var,
    children,
    transform,
)
from ehsmc.systems import InterpretedSystem, Interval, Path, Relation

UnaryHead = Callable[[Formula], Formula]


def bde_kit(variables: Sequence[str] = ("p",)) -> Tuple[List[Formula], List[UnaryHead]]:
    """Atoms and unary heads for the begins/during/ends fragment suite."""
    atoms: List[Formula] = [Var(v) for v in variables] + [PI]
    heads: List[UnaryHead] = [
        Not,
        lambda f: K(0, f),
        lambda f: K(1, f),
        lambda f: C((0, 1), f),
        lambda f: Diamond(Relation.B, f),
        lambda f: Diamond(Relation.D, f),
        lambda f: Diamond(Relation.E, f),
    ]
    return atoms, heads


def abln_kit(
    variables: Sequence[str] = ("p",), epistemic: bool = True
) -> Tuple[List[Formula], List[UnaryHead]]:
    atoms: List[Formula] = [Var(v) for v in variables] + [PI]
    heads: List[UnaryHead] = [Not]
    if epistemic:
        heads += [lambda f: K(0, f), lambda f: C((0, 1), f)]
    heads += [
        lambda f: Diamond(Relation.A, f),
        lambda f: Diamond(Relation.BBAR, f),
        lambda f: Diamond(Relation.N, f),
        lambda f: Diamond(Relation.L, f),
    ]
    return atoms, heads


def all_formulas(
    max_size: int,
    atoms: Sequence[Formula],
    heads: Sequence[UnaryHead],
    binary: Sequence[Callable[[Formula, Formula], Formula]] = (And,),
) -> Iterator[Formula]:
    """Every formula of AST size <= max_size over the kit, smallest
    first. Sizes count one per node, atoms included."""
    by_size: Dict[int, List[Formula]] = {1: list(atoms)}
    for size in range(2, max_size + 1):
        layer: List[Formula] = []
        for head in heads:
            layer.extend(head(f) for f in by_size[size - 1])
        for op in binary:
            for left_size in range(1, size - 1):
                right_size = size - 1 - left_size
                for left in by_size[left_size]:
                    layer.extend(op(left, right) for right in by_size[right_size])
        by_size[size] = layer
    for size in range(1, max_size + 1):
        yield from by_size[size]


_ALL_RELATIONS = list(Relation)


def random_formula(
    rng: random.Random,
    size: int,
    variables: Sequence[str] = ("p", "q"),
    relations: Sequence[Relation] = _ALL_RELATIONS,
    agents: Sequence[int] = (0, 1),
    sugar: bool = True,
) -> Formula:
    """One random formula with exactly `size` AST nodes (size >= 1)."""
    if size <= 1:
        choices: List[Formula] = [Var(v) for v in variables] + [PI, TOP, BOT]
        return rng.choice(choices)
    binary_ops = [And, Or, Implies] if sugar else [And]
    kinds = ["not", "modal", "epi"] + (["binary"] if size >= 3 else [])
    kind = rng.choice(kinds)
    if kind == "binary":
        left_size = rng.randint(1, size - 2)
        left = random_formula(rng, left_size, variables, relations, agents, sugar)
        right = random_formula(
            rng, size - 1 - left_size, variables, relations, agents, sugar
        )
        return rng.choice(binary_ops)(left, right)
    sub = random_formula(rng, size - 1, variables, relations, agents, sugar)
    if kind == "not":
        return Not(sub)
    if kind == "epi":
        if rng.random() < 0.5 or len(agents) < 2:
            return K(rng.choice(list(agents)), sub)
        group = tuple(rng.sample(list(agents), 2))
        return C(group, sub)
    relation = rng.choice(list(relations))
    shape = Box if sugar and rng.random() < 0.3 else Diamond
    return shape(relation, sub)


def modal_depth(f: Formula) -> int:
    """The most modal operators (K, C, diamonds, boxes) on one path from
    the root to a leaf."""
    here = isinstance(f, (K, C, Diamond, Box))
    return here + max((modal_depth(c) for c in children(f)), default=0)


def expand_N(f: Formula) -> Formula:
    """Rewrite the next-modality through meets and begins: <N>g becomes
    <A>(!pi & [B][B]false & <A>g), and [N]g the dual of the rewritten
    <N>!g. The boxed middle conjunct pins the bridging interval to length
    exactly two (no strict prefix of a strict prefix), so the target
    starts one step after the right endpoint. The checkers keep the
    native modality; this identity cross-validates it."""

    def via_meets_and_begins(g: Formula) -> Formula:
        bridge = And(Not(PI), And(Box(Relation.B, Box(Relation.B, BOT)),
                                  Diamond(Relation.A, g)))
        return Diamond(Relation.A, bridge)

    def step(node: Formula) -> Formula:
        if not isinstance(node, (Diamond, Box)) or node.relation is not Relation.N:
            return node
        if isinstance(node, Diamond):
            return via_meets_and_begins(node.sub)
        return Not(via_meets_and_begins(Not(node.sub)))

    return transform(f, step)


def intervals_up_to(sys: InterpretedSystem, max_len: int) -> List[Interval]:
    """Every interval of length <= max_len from a reachable configuration,
    shortest first, then in reachable and successor order."""
    out: List[Interval] = []
    frontier = [(g,) for g in sys.reachable]
    for _ in range(max_len):
        out.extend(Interval(p) for p in frontier)
        frontier = [p + (s,) for p in frontier for s in sys.successors(p[-1])]
    return out


def epi_equiv(left: Path, right: Path, agent: int) -> bool:
    """Reference indistinguishability: same length and pointwise equal
    local states for the agent."""
    return len(left) == len(right) and all(
        a[agent] == b[agent] for a, b in zip(left, right)
    )


def _ring_name(counters: Sequence[int]) -> str:
    return "k" + "".join(str(c) for c in counters)


def ring_text(n: int, target: Sequence[int]) -> str:
    """A scheduler agent and n three-state counters; each step the
    scheduler picks one counter, which moves c0 -> c1 -> c2 -> c0. All
    3^n configurations are reachable and get an alias. Label `all` is
    the whole-space star, `goal` that star followed by `target`; the
    whole-space union lists the configurations in shuffled order."""
    every = list(itertools.product(range(3), repeat=n))
    lines = ["agent Sched", "  states e", "  init e",
             "  actions " + " ".join(f"t{i}" for i in range(n)),
             "  protocol e: " + " ".join(f"t{i}" for i in range(n)),
             "  trans e (" + ",".join(["*"] * (n + 1)) + ") e"]
    for i in range(n):
        lines += [f"agent Ctr{i}", "  states c0 c1 c2", "  init c0", "  actions idle"]
        lines += [f"  protocol c{s}: idle" for s in range(3)]
        for s in range(3):
            for j in range(n):
                pattern = ",".join([f"t{j}"] + ["*"] * n)
                lines.append(f"  trans c{s} ({pattern}) c{(s + 1) % 3 if j == i else s}")
    for counters in every:
        cfg = ",".join(["e"] + [f"c{c}" for c in counters])
        lines.append(f"config {_ring_name(counters)} = ({cfg})")
    names = [_ring_name(c) for c in every]
    random.Random(0).shuffle(names)
    whole = "(" + " + ".join(names) + ")"
    lines.append(f"label all = {whole}*")
    lines.append(f"label goal = {whole}* {_ring_name(target)}")
    return "\n".join(lines) + "\n"
