"""The evaluator both fast engines share, and the decision procedure for
the begins/during/ends fragment.

`evaluate` decides every connective, knowledge operator and atom the
same way for both engines; an engine only supplies how a diamond is
searched. Atoms go through the compiled automata (`label_holds`), which
keeps the engines on a different code path from the oracle's
derivative-based evaluation.

On begins/during/ends every temporal step shrinks the interval and
epistemic steps preserve its length, so trying every related interval
decides the fragment exactly: no bounds, no histories.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .formulas import (
    And,
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
    prepare,
)
from .systems import (
    InterpretedSystem,
    Interval,
    Path,
    allen_successors,
    common_class,
    epi_class,
    label_holds,
    validate_interval,
)

Holds = Callable[[Formula, Path], bool]
# how an engine searches <X>g at an interval, given the evaluator for g
DiamondSearch = Callable[[Diamond, Path, Holds], bool]


def evaluate(
    sys: InterpretedSystem, root: Formula, configs: Path, diamond: DiamondSearch
) -> bool:
    """Truth of a prepared formula (see `formulas.prepare`) on the
    interval. Atoms, knowledge operators and diamonds are decided once
    per (subformula, interval) pair in a call. A `K` or `C` node is
    decided once per class: its verdict is stored for every member,
    since the members of an equivalence class share it."""
    memo: Dict[Tuple[int, Path], bool] = {}

    def holds(node: Formula, cfgs: Path) -> bool:
        kind = type(node)
        # connectives and constants cost less than a memo lookup
        if kind is Not:
            return not holds(node.sub, cfgs)
        if kind is And:
            return holds(node.left, cfgs) and holds(node.right, cfgs)
        if kind is Pi:
            return len(cfgs) == 1
        if kind is Top or kind is Bot:
            return kind is Top
        key = (id(node), cfgs)
        value = memo.get(key)
        if value is None:
            if kind is Var:
                value = label_holds(sys, node.name, cfgs)
            elif kind is Diamond:
                value = diamond(node, cfgs, holds)
            elif kind is K or kind is C:
                members = (epi_class(sys, cfgs, node.agent) if kind is K
                           else common_class(sys, cfgs, node.group))
                value = True
                for member in members:
                    if not holds(node.sub, member):
                        value = False
                        break
                # every member has this same class, so the same verdict
                for member in members:
                    memo[(id(node), member)] = value
            else:
                raise TypeError(f"not a prepared formula node: {node!r}")
            memo[key] = value
        return value

    try:
        return holds(root, configs)
    finally:
        # holds reaches itself through its closure; a cycle would keep
        # the memo alive until the cyclic collector found it
        del holds


def check_bde(sys: InterpretedSystem, interval: Interval, f: Formula) -> bool:
    """Exact verdict for a begins/during/ends-fragment formula."""
    root = prepare(sys, f, Fragment.BDE)
    configs = validate_interval(sys, interval)

    def related(node: Diamond, cfgs: Path, holds: Holds) -> bool:
        for candidate in allen_successors(sys, cfgs, node.relation):
            if holds(node.sub, candidate):
                return True
        return False

    return evaluate(sys, root, configs, related)
