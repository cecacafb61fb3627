"""Translations between the two surface logics.

A formula over variables with arbitrary regular labellings can be
rewritten to a regex-atom formula over a point-based relabelling of the
same system, and conversely any regex-atom formula over a point-based
system folds back into plain variables by composing the labelling
through the atoms. Both directions preserve verdicts interval by
interval and are deterministic, so translated artifacts are diffable.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from .errors import InputError
from .formulas import (
    Atom,
    Formula,
    Var,
    letter_predicate_holds,
    predicate_variables,
    subformulas,
    transform,
)
from .regexes import (
    EMPTY,
    LanguageShape,
    RegexExpr,
    Sym,
    Symbol,
    language_shape,
    map_symbols,
    regex_to_text,
    subexpressions,
    union_of,
)
from .systems import GlobalConfig, InterpretedSystem


def _expr_size(expr: RegexExpr) -> int:
    return sum(1 for _ in subexpressions(expr))


def _require_point_based(sys: InterpretedSystem) -> None:
    for var in sys.variables:
        if language_shape(sys.dfa_for(var)) != LanguageShape.POINT_BASED:
            raise InputError(
                f"labelling is not point-based: variable {var!r} accepts "
                f"words of length other than 1"
            )


def _point_valuations(
    sys: InterpretedSystem,
) -> Dict[GlobalConfig, frozenset]:
    """Variable set holding at each configuration's point interval."""
    out: Dict[GlobalConfig, frozenset] = {}
    dfas = {var: sys.dfa_for(var) for var in sys.variables}
    for g in sys.all_configs:
        out[g] = frozenset(
            var
            for var, dfa in dfas.items()
            if dfa.step[(dfa.initial, g)] in dfa.accepting
        )
    return out


def lambda_compose(sys: InterpretedSystem, r: RegexExpr) -> RegexExpr:
    """Rewrite a regex over letter predicates into a regex over the
    configuration symbols, reading each predicate against the
    point-based labelling: a bare variable becomes the union of its
    configurations (the empty set becomes the empty regex), `!p` the
    complement within the configuration space, `T` every configuration,
    and an explicit tuple the configurations with exactly that
    valuation."""
    _require_point_based(sys)
    valuations = _point_valuations(sys)

    def matching(symbol: Symbol) -> List[GlobalConfig]:
        for name in predicate_variables(symbol):
            if name not in sys.labelling:
                raise InputError(f"unknown variable {name!r}")
        return [g for g in sys.all_configs if letter_predicate_holds(symbol, valuations[g])]

    return map_symbols(r, lambda symbol: union_of([Sym(s) for s in matching(symbol)]))


def _fresh_config_name(sys: InterpretedSystem, g: GlobalConfig) -> str:
    shown = sys.display(g)
    if shown.startswith("("):
        shown = "_".join(g)
    return f"v_{shown}"


def to_point_based(
    sys: InterpretedSystem, f: Formula
) -> Tuple[InterpretedSystem, Formula]:
    """Move the labelling regexes into the formula: the output system
    labels one fresh variable at each reachable configuration's point
    interval, and every variable of the formula becomes a regex atom
    over those fresh variables. Verdicts are preserved interval by
    interval; symbols of unreachable configurations are rewritten to an
    empty-language subexpression since no model interval contains
    them."""
    fresh = {g: _fresh_config_name(sys, g) for g in sys.reachable}
    new_labelling: Dict[str, RegexExpr] = {name: Sym(g) for g, name in fresh.items()}
    new_sys = sys.with_labelling(new_labelling)

    def inline(node: Formula) -> Formula:
        if isinstance(node, Var):
            if node.name not in sys.labelling:
                raise InputError(f"unknown variable {node.name!r}")
            return Atom(map_symbols(
                sys.labelling[node.name],
                lambda s: Sym(fresh[s]) if s in fresh else EMPTY,
            ))
        if isinstance(node, Atom):
            raise InputError("formula already carries regex atoms")
        return node

    out = transform(f, inline)
    # Linear growth: each variable occurrence inlines one labelling regex
    # (rewriting symbols is one-to-one, so sizes carry over unchanged).
    inlined = sum(_expr_size(n.expr) for n in subformulas(out) if isinstance(n, Atom))
    budget = sum(
        _expr_size(sys.labelling[n.name]) for n in subformulas(f) if isinstance(n, Var)
    )
    if inlined > budget:
        raise RuntimeError(f"inlined labels grew to {inlined} nodes, over {budget}")
    return new_sys, out


def atom_variable_name(expr: RegexExpr) -> str:
    digest = hashlib.sha256(regex_to_text(expr).encode()).hexdigest()
    return f"q_{digest[:8]}"


def to_regular_labelling(
    sys: InterpretedSystem, f: Formula
) -> Tuple[InterpretedSystem, Formula]:
    """Fold regex atoms back into the labelling: each distinct atom of
    the formula gets one fresh variable labelled by the composed regex
    over configurations. Requires every existing label to be
    point-based. Verdicts are preserved interval by interval."""
    _require_point_based(sys)
    names: Dict[str, str] = {}
    new_labelling: Dict[str, RegexExpr] = dict(sys.labelling)
    for atom in subformulas(f):
        if not isinstance(atom, Atom):
            continue
        key = regex_to_text(atom.expr)
        if key in names:
            continue
        name = atom_variable_name(atom.expr)
        if name in new_labelling:
            raise InputError(f"fresh variable name collision on {name!r}")
        names[key] = name
        new_labelling[name] = lambda_compose(sys, atom.expr)
    new_sys = sys.with_labelling(new_labelling)

    def fold(node: Formula) -> Formula:
        if isinstance(node, Atom):
            return Var(names[regex_to_text(node.expr)])
        return node

    return new_sys, transform(f, fold)
