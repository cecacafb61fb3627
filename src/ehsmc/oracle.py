"""Naive bounded evaluator over anchored intervals, for ground truth.

This is the reference semantics the engines are tested against. It is
deliberately slow and direct: atoms are decided by regex derivatives
(`denotes`), never by the compiled automata; every interval quantifier
is an explicit enumeration. All fourteen interval relations are
supported. Forward candidates grow paths and are capped by the bound;
backward candidates (the `bar` relations and both overlaps) are carved
out of the unique unravelled past, whose shape is fixed by the input
anchor, so they never grow and are admitted at any bound.

Epistemic quantifiers range over every anchoring of every equivalent
configuration sequence whose total length fits the bound; the shortest
anchoring of each class member is always admitted, which keeps the
history-free fragments exact even at the smallest legal bound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

from .errors import InputError
from .formulas import (
    And,
    Atom,
    Bot,
    C,
    Diamond,
    Formula,
    K,
    Not,
    Pi,
    Top,
    Var,
    letter_predicate_holds,
    normalize,
    resolve_agents,
)
from .regexes import denotes, symbol_text
from .systems import (
    AnchoredInterval,
    GlobalConfig,
    InterpretedSystem,
    Interval,
    Path,
    Relation,
    common_class,
    epi_class,
)

Anchored = Tuple[Path, Path]


def _check_anchoring(sys: InterpretedSystem, anchored: AnchoredInterval) -> None:
    path = anchored.history + anchored.interval.configs
    if path[0] != sys.initial:
        raise InputError("anchored interval must start at the initial configuration")
    for a, b in zip(path, path[1:]):
        if b not in sys.successors(a):
            raise InputError(
                f"{symbol_text(a)} -> {symbol_text(b)} is not a global step"
            )


def _paths_from(
    sys: InterpretedSystem, start: GlobalConfig, max_len: int
) -> Iterator[Path]:
    """Non-empty paths beginning at start, shortest first."""
    frontier: List[Path] = [(start,)] if max_len >= 1 else []
    while frontier:
        grown: List[Path] = []
        for path in frontier:
            yield path
            if len(path) < max_len:
                for nxt in sys.successors(path[-1]):
                    grown.append(path + (nxt,))
        frontier = grown


def _anchors_of(
    sys: InterpretedSystem, start: GlobalConfig, max_hist: int
) -> List[Path]:
    """Histories h with h ++ (start, ...) a path from the initial
    configuration and |h| <= max_hist, shortest first; if the cap admits
    none, the shortest one regardless of the cap: `minimal_anchor`'s,
    which also heads the capped list whenever that is not empty."""
    capped = [
        path[:-1]
        for path in _paths_from(sys, sys.initial, max(max_hist, 0) + 1)
        if path[-1] == start
    ]
    return capped or [minimal_anchor(sys, Interval((start,))).history]


def oracle_check(
    sys: InterpretedSystem,
    anchored: AnchoredInterval,
    f: Formula,
    bound: int,
) -> bool:
    """Definition-style recursive evaluation, every quantifier bounded
    by total anchored length <= bound (see module docstring for the
    exact admission rule per relation)."""
    if bound < 1:
        raise InputError("bound must be positive")
    if anchored.total_length > bound:
        raise InputError(
            f"anchored interval has total length {anchored.total_length}, "
            f"over the bound {bound}"
        )
    _check_anchoring(sys, anchored)
    root = normalize(resolve_agents(sys, f))

    memo: Dict[Tuple[int, Anchored], bool] = {}
    valuations: Dict[GlobalConfig, FrozenSet[str]] = {}

    def valuation(g: GlobalConfig) -> FrozenSet[str]:
        if g not in valuations:
            valuations[g] = frozenset(
                var for var, expr in sys.labelling.items() if denotes(expr, (g,))
            )
        return valuations[g]

    def check(node: Formula, h: Path, c: Path) -> bool:
        key = (id(node), (h, c))
        if key not in memo:
            memo[key] = evaluate(node, h, c)
        return memo[key]

    def evaluate(node: Formula, h: Path, c: Path) -> bool:
        if isinstance(node, Pi):
            return len(c) == 1
        if isinstance(node, Top):
            return True
        if isinstance(node, Bot):
            return False
        if isinstance(node, Var):
            return denotes(sys.labelling[node.name], c)
        if isinstance(node, Atom):
            return denotes(node.expr, [valuation(g) for g in c],
                           match=letter_predicate_holds)
        if isinstance(node, Not):
            return not check(node.sub, h, c)
        if isinstance(node, And):
            return check(node.left, h, c) and check(node.right, h, c)
        if isinstance(node, K):
            members = epi_class(sys, c, node.agent)
            return all(holds_at_every_anchoring(node.sub, m) for m in members)
        if isinstance(node, C):
            members = common_class(sys, c, node.group)
            return all(holds_at_every_anchoring(node.sub, m) for m in members)
        if isinstance(node, Diamond):
            return any(
                check(node.sub, h2, c2)
                for h2, c2 in candidates(node.relation, h, c)
            )
        raise TypeError(f"not a normalized formula node: {node!r}")

    def holds_at_every_anchoring(sub: Formula, cfgs: Path) -> bool:
        return all(
            check(sub, h2, cfgs)
            for h2 in _anchors_of(sys, cfgs[0], bound - len(cfgs))
        )

    def candidates(relation: Relation, h: Path, c: Path) -> Iterator[Anchored]:
        full = h + c
        n_h, n_c = len(h), len(c)
        grow = bound - n_h - n_c  # forward budget beyond the input
        if relation is Relation.A:
            past = full[:-1]
            for path in _paths_from(sys, c[-1], bound - len(past)):
                yield past, path
        elif relation is Relation.ABAR:
            for i in range(n_h + 1):
                yield full[:i], full[i:n_h + 1]
        elif relation is Relation.B:
            for j in range(1, n_c):
                yield h, c[:j]
        elif relation is Relation.BBAR:
            for succ in sys.successors(c[-1]):
                for ext in _paths_from(sys, succ, grow):
                    yield h, c + ext
        elif relation is Relation.D:
            for i in range(1, n_c):
                for j in range(i + 1, n_c):
                    yield h + c[:i], c[i:j]
        elif relation is Relation.DBAR:
            for i in range(n_h):
                for succ in sys.successors(c[-1]):
                    for ext in _paths_from(sys, succ, grow):
                        yield full[:i], full[i:n_h] + c + ext
        elif relation is Relation.E:
            for i in range(1, n_c):
                yield h + c[:i], c[i:]
        elif relation is Relation.EBAR:
            for i in range(n_h):
                yield full[:i], full[i:]
        elif relation is Relation.L:
            # bridge of >= 1 steps, then any interval from its end
            for bridge in _paths_from(sys, c[-1], grow + 1):
                if len(bridge) < 2:
                    continue
                past = full[:-1] + bridge[:-1]
                for path in _paths_from(sys, bridge[-1], bound - len(past)):
                    yield past, path
        elif relation is Relation.LBAR:
            for j in range(1, n_h + 1):
                for i in range(j):
                    yield full[:i], full[i:j]
        elif relation is Relation.N:
            for succ in sys.successors(c[-1]):
                for path in _paths_from(sys, succ, grow):
                    yield full, path
        elif relation is Relation.NBAR:
            for i in range(n_h):
                yield full[:i], full[i:n_h]
        elif relation is Relation.O:
            for s in range(1, n_c):
                for succ in sys.successors(c[-1]):
                    for ext in _paths_from(sys, succ, grow):
                        yield h + c[:s], c[s:] + ext
        elif relation is Relation.OBAR:
            for i in range(n_h):
                for t in range(1, n_c):
                    yield full[:i], full[i:n_h + t]
        else:
            raise ValueError(f"unhandled relation {relation}")

    try:
        return check(root, anchored.history, anchored.interval.configs)
    finally:
        del check, evaluate  # each reaches the other through its closure: break the cycle


def minimal_anchor(sys: InterpretedSystem, interval: Interval) -> AnchoredInterval:
    """Anchor an interval at a shortest history from the initial
    configuration (breadth-first, deterministic)."""
    target = interval.first
    if target == sys.initial:
        return AnchoredInterval((), interval)
    parents: Dict[GlobalConfig, GlobalConfig] = {}
    frontier = [sys.initial]
    seen = {sys.initial}
    while frontier:
        nxt: List[GlobalConfig] = []
        for g in frontier:
            for succ in sys.successors(g):
                if succ not in seen:
                    seen.add(succ)
                    parents[succ] = g
                    nxt.append(succ)
                if succ == target:
                    history: List[GlobalConfig] = []
                    back = g
                    while True:
                        history.append(back)
                        if back == sys.initial:
                            break
                        back = parents[back]
                    return AnchoredInterval(tuple(reversed(history)), interval)
        frontier = nxt
    raise InputError(f"{symbol_text(target)} is not reachable")
