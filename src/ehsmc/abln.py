"""Bounded checker for the meets/begun-by/later/next fragment.

Temporal witnesses in this fragment extend intervals forward, so the
existential searches are capped: by the exact interval-type bound
(LITERAL mode), by its tighter variant (TIGHT mode), or by a fixed
user-chosen cap (user mode). A cap bounds only the absence of a
witness: an interval that satisfies the operand proves the diamond at
any cap. So a search relies on its cap only when it finds nothing, and
then only if the cap is below the operand's exact bound and its paths
did not run out within the cap; such a verdict is reported as bounded.
Modal-free operands are never capped: they are decided completely by
reachability in the product of the step relation with the per-variable
automata. Within one check, every search over the same operand shares
one product, which remembers the states known to reach a satisfying
state and those known not to; so the members of a `K` or `C` class
together cost about one product search, not one each. Such a search
decides only whether a witness exists; `regular_witness_search` searches
a fresh product and returns a shortest witness.

In every mode, a search whose enumeration frontier would exceed a
ceiling is refused instead of silently truncated; one layered count of
the paths decides both the refusal and whether they ran out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .bde import Holds, evaluate
from .errors import InputError
from .formulas import (
    And,
    Atom,
    Bot,
    C,
    Diamond,
    Formula,
    Fragment,
    K,
    Not,
    Pi,
    Top,
    Var,
    fis_bound,
    format_formula,
    head_text,
    modal_free,
    normalize,
    prepare,
    tight_bound,
    top_level_subformulas,
    variables_of,
)
from .regexes import run
from .systems import (
    GlobalConfig,
    InterpretedSystem,
    Interval,
    Path,
    Relation,
    allen_successors,
    common_class,
    epi_class,
    forward_frame,
    validate_interval,
)

# caps beyond any feasible enumeration are all equivalent; saturate here
_HUGE = 10**9


@dataclass(frozen=True)
class BoundMode:
    """How far bounded existential searches may extend an interval.

    kind "literal": the exact interval-type bound of the operand.
    kind "tight":   the DFA-state-count variant of that bound.
    kind "user":    a fixed cap, acknowledged in the verdict regime.
    """

    kind: str
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("literal", "tight", "user"):
            raise InputError(f"unknown bound mode {self.kind!r}")
        if self.kind == "user":
            if self.cap is None or self.cap < 1:
                raise InputError("user bound must be a positive integer")
        elif self.cap is not None:
            raise InputError(f"{self.kind} mode takes no cap")


LITERAL_BOUND = BoundMode("literal")
TIGHT_BOUND = BoundMode("tight")


def user_bound(cap: int) -> BoundMode:
    return BoundMode("user", cap)


@dataclass(frozen=True)
class Verdict:
    """holds plus the regime: Conclusive when every existential search
    either found a witness, saw every related interval, or was capped at
    no less than the exact interval-type bound of its operand; otherwise
    BoundedAt(k), with k the largest cap below its operand's bound under
    which a search found nothing."""

    holds: bool
    bounded_at: Optional[int] = None

    @property
    def conclusive(self) -> bool:
        return self.bounded_at is None

    @property
    def regime(self) -> str:
        if self.conclusive:
            return "Conclusive"
        return f"BoundedAt({self.bounded_at})"


class BoundInfeasibleError(RuntimeError):
    def __init__(self, message: str, estimate: int, ceiling: int):
        super().__init__(message)
        self.estimate = estimate
        self.ceiling = ceiling


DEFAULT_FRONTIER_CEILING = 10**7


# ---------------------------------------------------------------------------
# Complete search for modal-free operands

def _boolean_satisfier(
    sys: InterpretedSystem, operand: Formula
) -> Tuple[List[str], "object"]:
    """Compile a modal-free operand into (variable list, function of
    (accepting-flags, point-flag))."""
    if not modal_free(operand):
        raise InputError("operand must be modal-free")
    node = normalize(operand)
    names = sorted(variables_of(node))
    return names, partial(_satisfies, node, {name: i for i, name in enumerate(names)})


def _satisfies(n: Formula, index: Dict[str, int], accepting: Tuple[bool, ...],
               point: bool) -> bool:
    """Truth of a normalized modal-free formula, given whether the
    automaton of the variable at each `index` position accepts, and
    pointhood. A module-level function, so a call leaves no cycle."""
    if isinstance(n, Pi):
        return point
    if isinstance(n, (Top, Bot)):
        return isinstance(n, Top)
    if isinstance(n, Var):
        return accepting[index[n.name]]
    if isinstance(n, Not):
        return not _satisfies(n.sub, index, accepting, point)
    if isinstance(n, And):
        return (_satisfies(n.left, index, accepting, point)
                and _satisfies(n.right, index, accepting, point))
    if isinstance(n, Atom):
        raise InputError("reduce regex atoms to variables first")
    raise TypeError(f"unexpected node {n!r}")


_State = Tuple[GlobalConfig, Tuple[str, ...], bool]


class _Product:
    """Reachability in the product of the step relation with a
    modal-free operand's label automata, over states (configuration,
    automaton states after the interval's word, point flag).

    A product state fixes every continuation, whatever prefix led to it,
    so what one search learns holds for every later search of the same
    operand: `onward` maps each state known to reach a satisfying state
    to the next state on such a path (None at a satisfying state), and
    `dead` holds the states a search explored to closure without finding
    one. Both live as long as the object; `check_abln` keeps one per
    operand for one call."""

    def __init__(self, sys: InterpretedSystem, operand: Formula):
        names, self.sat = _boolean_satisfier(sys, operand)
        self.sys = sys
        self.dfas = [sys.dfa_for(name) for name in names]
        self.onward: Dict[_State, Optional[_State]] = {}
        self.dead: Set[_State] = set()

    def search(self, prefix: Path, starts: Sequence[GlobalConfig]) -> Optional[_State]:
        """Breadth-first search from every start at once, after the
        prefix; the start state that begins a path to a satisfying
        state, or None when no path from a start reaches one. On an
        empty memo the path read from that start is a shortest one."""
        sys, sat, dfas, onward, dead = self.sys, self.sat, self.dfas, self.onward, self.dead
        states = tuple(d.initial for d in dfas)
        for g in prefix:
            states = tuple(dfa.step[(s, g)] for dfa, s in zip(dfas, states))
        parents: Dict[_State, Optional[_State]] = {}
        queue: deque = deque()
        # only a one-configuration path after an empty prefix is a point
        point = not prefix
        for g in starts:
            state = (g, tuple(dfa.step[(s, g)] for dfa, s in zip(dfas, states)), point)
            if state not in parents and state not in dead:
                parents[state] = None
                queue.append(state)
        while queue:
            state = queue.popleft()
            cfg, st, point = state
            if state in onward or sat(tuple(s in dfa.accepting for dfa, s in zip(dfas, st)),
                                      point):
                onward.setdefault(state, None)
                parent = parents[state]
                while parent is not None:
                    onward[parent] = state
                    state, parent = parent, parents[parent]
                return state
            for succ in sys.successors(cfg):
                nxt = (succ, tuple(dfa.step[(s, succ)] for dfa, s in zip(dfas, st)), False)
                if nxt not in parents and nxt not in dead:
                    parents[nxt] = state
                    queue.append(nxt)
        # every state seen reaches only states seen or already dead
        dead.update(parents)
        return None

    def path(self, state: _State) -> Path:
        """The configurations from `state` along `onward` to a satisfying
        state."""
        out: List[GlobalConfig] = []
        cursor: Optional[_State] = state
        while cursor is not None:
            out.append(cursor[0])
            cursor = self.onward[cursor]
        return tuple(out)


def regular_witness_search(
    sys: InterpretedSystem,
    interval: Interval,
    relation: Relation,
    operand: Formula,
) -> Optional[Interval]:
    """Shortest interval that A, Bbar or N relates to the given one and
    that satisfies a modal-free operand; None when no such interval
    exists at any length.

    Complete: a modal-free verdict depends only on the per-variable
    automaton states after the interval's word and on pointhood, so
    breadth-first search over (configuration, automaton states, point
    flag), from every start of the forward frame at once, covers every
    case in finitely many steps. Each call searches a fresh product, so
    the witness is a shortest one; `check_abln` shares one product per
    operand across its searches and asks only whether a witness exists.
    """
    product = _Product(sys, operand)
    prefix, starts = forward_frame(sys, interval.configs, relation)
    start = product.search(prefix, starts)
    return None if start is None else Interval(prefix + product.path(start))


# ---------------------------------------------------------------------------
# Feasibility guard

def _frontier(
    sys: InterpretedSystem,
    starts: Sequence[GlobalConfig],
    max_len: int,
    ceiling: int,
) -> Tuple[int, bool]:
    """(count, exhausted), layer by layer over the paths beginning in
    starts: count is the number of length 1..max_len, exactly if it stays
    within the ceiling, else ceiling + 1; exhausted says that no longer
    path exists, so those are all of them."""
    layer: Dict[GlobalConfig, int] = {}
    for g in starts:
        layer[g] = layer.get(g, 0) + 1
    total = depth = 0
    while layer and depth < max_len:
        depth += 1
        total += sum(layer.values())
        # a path longer than the reachable set repeats a configuration,
        # and that cycle yields a path of every remaining length
        if total > ceiling or (depth > len(sys.reachable)
                               and total + max_len - depth > ceiling):
            return ceiling + 1, False
        grown: Dict[GlobalConfig, int] = {}
        for g, c in layer.items():
            for s in sys.successors(g):
                grown[s] = grown.get(s, 0) + c
        layer = grown
    return total, not layer


# ---------------------------------------------------------------------------
# The checker

def check_abln(
    sys: InterpretedSystem,
    interval: Interval,
    f: Formula,
    mode: BoundMode,
    frontier_ceiling: int = DEFAULT_FRONTIER_CEILING,
) -> Verdict:
    """Bounded verdict for a meets/begun-by/later/next formula (later
    is eliminated on entry; begins/during/ends and every backward
    modality are rejected)."""
    if frontier_ceiling < 1:
        raise InputError("frontier ceiling must be a positive integer")
    root = prepare(sys, f, Fragment.ABLN)
    configs = validate_interval(sys, interval)
    bound = tight_bound if mode.kind == "tight" else fis_bound
    caps: Dict[int, Optional[int]] = {}  # per operand; None when modal-free
    products: Dict[int, _Product] = {}  # per modal-free operand
    weighed: Set[int] = set()  # operands whose search came up empty
    relied: List[int] = []  # the caps below their operand's bound among them

    def temporal(node: Diamond, cfgs: Path, holds: Holds) -> bool:
        operand = node.sub
        key = id(operand)
        if key not in caps:
            if modal_free(operand):
                caps[key] = None
                products[key] = _Product(sys, operand)
            else:
                caps[key] = mode.cap if mode.cap is not None else bound(sys, operand, _HUGE)
        cap = caps[key]
        prefix, starts = forward_frame(sys, cfgs, node.relation)
        if cap is None:
            return products[key].search(prefix, starts) is not None
        max_len = len(cfgs) + cap
        estimate, exhausted = _frontier(sys, starts, max_len - len(prefix),
                                        frontier_ceiling)
        if estimate > frontier_ceiling:
            raise BoundInfeasibleError(
                f"<{node.relation.value}> {format_formula(operand)}: enumeration "
                f"frontier exceeds the ceiling of {frontier_ceiling} intervals; "
                f"raise the ceiling, use a smaller user bound, or shrink the formula",
                estimate,
                frontier_ceiling,
            )
        for candidate in allen_successors(sys, cfgs, node.relation, max_len):
            if holds(operand, candidate):
                return True
        # a witness proves the diamond at any cap; only an empty search
        # that did not see every related interval relies on the cap
        if not exhausted and key not in weighed:
            weighed.add(key)
            if fis_bound(sys, operand, cap + 1) > cap:
                relied.append(cap)
        return False

    holds = evaluate(sys, root, configs, temporal)
    return Verdict(holds, max(relied) if relied else None)


# ---------------------------------------------------------------------------
# Modal context trees

@dataclass(frozen=True, order=True)
class Mct:
    """Horizon-truncated modal context tree node: interval endpoints,
    pointhood, the automaton state per variable after the interval's
    word, and one deduplicated, sorted subtree tuple per top-level modal
    subformula."""

    first: str
    last: str
    point: bool
    states: Tuple[Tuple[str, str], ...]
    children: Tuple[Tuple[str, Tuple["Mct", ...]], ...]


def compute_mct(
    sys: InterpretedSystem,
    interval: Interval,
    f: Formula,
    horizon: int,
) -> Mct:
    """The modal context tree of the interval, with meets/begun-by/next
    edges truncated to successor intervals of length <= horizon
    (epistemic edges preserve length and are never truncated)."""
    if horizon < 1:
        raise InputError("horizon must be positive")
    root = prepare(sys, f, Fragment.ABLN)
    return _mct(sys, horizon, root, validate_interval(sys, interval))


def _mct(sys: InterpretedSystem, horizon: int, node: Formula, cfgs: Path) -> Mct:
    """The tree of `node` at `cfgs`. A module-level function, so a call
    leaves no cycle."""
    states = tuple(
        (var, run(sys.dfa_for(var), cfgs)) for var in sorted(sys.variables)
    )
    children: List[Tuple[str, Tuple[Mct, ...]]] = []
    # (display key, modal node) per top-level subformula
    edges = sorted(((f"{head_text(modal)} {format_formula(modal.sub)}", modal)
                    for modal in top_level_subformulas(node)),
                   key=lambda edge: edge[0])
    for key, modal in edges:
        if isinstance(modal, K):
            related: Sequence[Path] = epi_class(sys, cfgs, modal.agent)
        elif isinstance(modal, C):
            related = common_class(sys, cfgs, modal.group)
        else:
            related = list(allen_successors(sys, cfgs, modal.relation, max_len=horizon))
        subtrees = tuple(sorted({_mct(sys, horizon, modal.sub, member) for member in related}))
        children.append((key, subtrees))
    return Mct(
        first=sys.display(cfgs[0]),
        last=sys.display(cfgs[-1]),
        point=len(cfgs) == 1,
        states=states,
        children=tuple(children),
    )


def mct_to_dot(tree: Mct) -> str:
    """Deterministic DOT rendering; children grouped per subformula."""
    lines = ["digraph mct {", "  node [shape=box];"]
    _emit_mct(tree, lines, count())
    lines.append("}")
    return "\n".join(lines)


def _emit_mct(node: Mct, lines: List[str], numbers: Iterator[int]) -> str:
    """Append the node's DOT lines, then its subtrees'; return its name.
    A module-level function, so a call leaves no cycle."""
    name = f"n{next(numbers)}"
    point = format_formula(Pi() if node.point else Not(Pi()))
    states = ", ".join(f"{var}:{state}" for var, state in node.states)
    label = f"({node.first}, {node.last}, {point}" + (
        f" | {states})" if states else ")"
    )
    lines.append(f'  {name} [label="{label}"];')
    for key, subtrees in node.children:
        for sub in subtrees:
            child = _emit_mct(sub, lines, numbers)
            lines.append(f'  {name} -> {child} [label="{key}"];')
    return name
