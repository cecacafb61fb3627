"""Formula ASTs for the interval-epistemic logic, in two flavours.

The plus variant has propositional variables as atoms; the regex-atom
variant replaces them with regular expressions over letter predicates
(`p`, `!p`, the any-letter `T`, or an explicit valuation subset written
as a tuple symbol `(p,q)`). Both share the connectives, the knowledge
operators and the fourteen interval modalities. Boxes, disjunction and
implication are sugar: they are kept in the AST for display and removed
by `normalize`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate
from typing import Callable, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import ANY_LETTER, FORMULA_CONSTANTS, INDEX, NAME, InputError
from .regexes import RegexExpr, Sym, Symbol, fold_right, parse_regex, regex_to_text, symbols_of
from .systems import UNBOUNDED_RELATIONS, InterpretedSystem, Relation

AgentRef = Union[int, str]


class Formula:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Pi(Formula):
    """Point-interval atom: true exactly on intervals of length one."""


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Atom(Formula):
    """Regex over letter predicates (regex-atom variant only)."""

    expr: RegexExpr


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class K(Formula):
    agent: AgentRef
    sub: Formula


@dataclass(frozen=True)
class C(Formula):
    group: Tuple[AgentRef, ...]
    sub: Formula

    def __post_init__(self) -> None:
        if not self.group:
            raise InputError("common-knowledge group must be non-empty")
        # canonical group order: indices first, then names
        key = lambda a: (1, 0, a) if isinstance(a, str) else (0, a, "")
        object.__setattr__(self, "group", tuple(sorted(set(self.group), key=key)))


@dataclass(frozen=True)
class Diamond(Formula):
    relation: Relation
    sub: Formula


@dataclass(frozen=True)
class Box(Formula):
    relation: Relation
    sub: Formula


PI = Pi()
TOP = Top()
BOT = Bot()


_UNARY_NODES = frozenset({Not, K, C, Diamond, Box})
_BINARY_NODES = frozenset({And, Or, Implies})


def children(f: Formula) -> Tuple[Formula, ...]:
    """The direct subformulas of a node, left to right."""
    kind = type(f)  # node classes are final: a set lookup beats isinstance
    if kind in _UNARY_NODES:
        return (f.sub,)
    if kind in _BINARY_NODES:
        return (f.left, f.right)
    return ()


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """The node `f` with its direct subformulas replaced by `kids`."""
    if type(f) in _BINARY_NODES:
        return type(f)(*kids)
    if isinstance(f, Not):
        return Not(*kids)
    if isinstance(f, K):
        return K(f.agent, *kids)
    if isinstance(f, C):
        return C(f.group, *kids)
    if isinstance(f, (Diamond, Box)):
        return type(f)(f.relation, *kids)
    return f


class FormulaSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FragmentError(InputError):
    pass


class Fragment(str, Enum):
    BDE = "BDE"
    ABLN = "ABLN"
    FULL = "Full"


_BDE_RELATIONS = {Relation.B, Relation.D, Relation.E}
_ABLN_RELATIONS = {Relation.A, Relation.BBAR, Relation.L, Relation.N}


# ---------------------------------------------------------------------------
# Parsing

_KEYWORDS = dict(zip(FORMULA_CONSTANTS, (PI, TOP, BOT)))
# binary connectives and their text, loosest first: a connective's
# precedence level is its position here
_BINARY = {Implies: "->", Or: "|", And: "&"}
_LEVELS = tuple(_BINARY)

# Deepest nesting of operators or parentheses the parser accepts. The
# engines and the oracle recurse at least once per level; the tightest is
# the oracle on a chain of [A] (seven frames a level), which answers up to
# depth 123 under the default recursion limit when called from a shallow
# stack. 100 leaves the caller about 150 frames.
MAX_FORMULA_DEPTH = 100

# One token: after optional whitespace, a modality, a K or C prefix with
# its agent set, a regex atom, a connective or parenthesis, a name, or any
# other character, which the parser reports at its position. An atom runs
# to the first "}", or to the end of the text when there is none. A K or C
# before braces that hold no agent set is a name before an atom, which is
# rejected as it would be after any other name.
_TOKEN = re.compile(
    r"\s*(?:(?P<diamond><\s*\w+\s*>)|(?P<box>\[\s*\w+\s*\])"
    rf"|(?P<knows>[KC]\s*\{{\s*{NAME}\s*(?:,\s*{NAME}\s*)*\}})|(?P<atom>\{{[^}}]*\}}?)"
    rf"|(?P<op>->|[!&|()])|(?P<name>{NAME})|(?P<bad>\S))"
)


class _FormulaParser:
    """Recursive descent over `-> | & unary primary`, tightest last, on
    the (kind, text, position) tokens of `_TOKEN`.

    `->` associates to the right; `&` and `|` chains are folded to the
    right as well so printing and re-parsing agree node for node.
    """

    def __init__(self, text: str, regex_atoms: bool):
        self.tokens = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
                       for m in _TOKEN.finditer(text)]
        self.tokens.append(("eof", "", len(text)))
        self.index = 0
        self.regex_atoms = regex_atoms
        self.parens = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.index]

    def consume(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_binary()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected {value!r}", pos)
        if formula_depth(f) > MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(f"nested deeper than {MAX_FORMULA_DEPTH} levels", 0)
        return f

    def parse_binary(self, level: int = 0) -> Formula:
        """A chain of the connective at this precedence level, folded to
        the right, over operands of the next tighter level."""
        if level == len(_BINARY):
            return self.parse_unary()
        node = _LEVELS[level]
        parts = [self.parse_binary(level + 1)]
        while self.peek()[:2] == ("op", _BINARY[node]):
            self.index += 1
            parts.append(self.parse_binary(level + 1))
        return fold_right(node, parts)

    def parse_unary(self) -> Formula:
        """Prefix operators are read in a loop, so a long run of them
        costs no recursion."""
        heads: List[Callable[[Formula], Formula]] = []
        while True:
            kind, value, pos = self.peek()
            if (kind, value) == ("op", "!"):
                heads.append(Not)
            elif kind in ("diamond", "box"):
                name = value[1:-1].strip()
                try:
                    relation = Relation(name)
                except ValueError:
                    raise FormulaSyntaxError(f"unknown modality {name!r}", pos) from None
                heads.append(partial(Diamond if kind == "diamond" else Box, relation))
            elif kind == "knows":
                names = value[value.index("{") + 1:-1].split(",")
                agents = [int(a) if re.fullmatch(INDEX, a) else a for a in map(str.strip, names)]
                if value[0] == "C":
                    heads.append(partial(C, tuple(agents)))
                elif len(agents) != 1:
                    raise FormulaSyntaxError("K takes exactly one agent", pos)
                else:
                    heads.append(partial(K, agents[0]))
            else:
                break
            self.index += 1
        f = self.parse_primary()
        for head in reversed(heads):
            f = head(f)
        return f

    def parse_primary(self) -> Formula:
        kind, value, pos = self.consume()
        if (kind, value) == ("op", "("):
            self.parens += 1
            if self.parens > MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(f"nested deeper than {MAX_FORMULA_DEPTH} levels", pos)
            inner = self.parse_binary()
            kind, value, pos = self.consume()
            if (kind, value) != ("op", ")"):
                raise FormulaSyntaxError("expected ')'", pos)
            self.parens -= 1
            return inner
        if kind == "atom":
            if not self.regex_atoms:
                raise FormulaSyntaxError("regex atoms need the regex-atom variant", pos)
            if not value.endswith("}"):
                raise FormulaSyntaxError("unterminated regex atom", pos)
            # The regex parser recurses on top of this one, so the atom's
            # parentheses count toward the formula's nesting budget.
            nesting = max(accumulate((ch == "(") - (ch == ")") for ch in value), default=0)
            if self.parens + nesting > MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(f"nested deeper than {MAX_FORMULA_DEPTH} levels", pos)
            try:
                return Atom(parse_regex(value[1:-1], predicate_mode=True))
            except InputError as exc:
                raise FormulaSyntaxError(f"bad regex atom: {exc}", pos) from exc
        if kind != "name":
            raise FormulaSyntaxError("expected a formula", pos)
        if value in _KEYWORDS:
            return _KEYWORDS[value]
        if self.regex_atoms:
            return Atom(Sym(value))
        return Var(value)


def parse_plus(text: str) -> Formula:
    """Parse a formula of the plus variant (identifier atoms)."""
    return _FormulaParser(text, regex_atoms=False).parse()


def parse_re(text: str) -> Formula:
    """Parse a formula of the regex-atom variant: identifiers become
    single-letter regex atoms and `{ ... }` encloses a full regex over
    letter predicates."""
    return _FormulaParser(text, regex_atoms=True).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC_UNARY = len(_BINARY)
_LEAF_TEXT = {type(node): text for text, node in _KEYWORDS.items()}


def head_text(node: Formula) -> str:
    """The prefix operator of a unary node as printed."""
    if isinstance(node, Not):
        return "!"
    if isinstance(node, K):
        return f"K{{{node.agent}}}"
    if isinstance(node, C):
        return "C{" + ",".join(str(a) for a in node.group) + "}"
    if isinstance(node, Diamond):
        return f"<{node.relation.value}>"
    return f"[{node.relation.value}]"


def format_formula(f: Formula) -> str:
    """Surface syntax; parse_plus/parse_re of the result rebuilds `f`."""
    return _format(f, 0)


def _format(node: Formula, level: int) -> str:
    """`node` in surface syntax, parenthesized when it binds looser than
    `level`. A module-level function, so a call leaves no cycle."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Atom):
        return "{" + regex_to_text(node.expr) + "}"
    kids = children(node)
    if not kids:
        return _LEAF_TEXT[type(node)]
    if len(kids) == 2:
        prec = _LEVELS.index(type(node))
        text = f"{_format(kids[0], prec + 1)} {_BINARY[type(node)]} {_format(kids[1], prec)}"
    else:
        prec = _PREC_UNARY
        space = "" if isinstance(node, Not) else " "
        text = head_text(node) + space + _format(kids[0], prec)
    return f"({text})" if prec < level else text


# ---------------------------------------------------------------------------
# Rewrites

def transform(f: Formula, step: Callable[[Formula], Formula]) -> Formula:
    """Rewrite from the leaves up: `step` gets each node with its
    subformulas already rewritten. Subtrees that come back unchanged
    are shared, not copied."""

    def go(node: Formula) -> Formula:
        kids = children(node)
        if kids:
            new = list(map(go, kids))
            # a node has at most two children
            if new[0] is not kids[0] or new[-1] is not kids[-1]:
                node = rebuild(node, new)
        return step(node)

    try:
        return go(f)
    finally:
        del go  # go reaches itself through its closure: break the cycle


def _normalize_step(f: Formula) -> Formula:
    if isinstance(f, Or):
        return Not(And(Not(f.left), Not(f.right)))
    if isinstance(f, Implies):
        return Not(And(f.left, Not(f.right)))
    if isinstance(f, Box):
        return Not(Diamond(f.relation, Not(f.sub)))
    return f


def normalize(f: Formula) -> Formula:
    """Remove sugar: Or/Implies into !/&, boxes into !<X>!."""
    return transform(f, _normalize_step)


def _eliminate_L_step(f: Formula) -> Formula:
    """<L>g into <A>(!pi & <A>g), <Lbar>g likewise through Abar, and a
    box [X]g into the dual of the rewritten <X>!g."""
    if not isinstance(f, (Diamond, Box)) or f.relation not in (Relation.L, Relation.LBAR):
        return f
    meets = Relation.A if f.relation is Relation.L else Relation.ABAR

    def via_meets(g: Formula) -> Formula:
        return Diamond(meets, And(Not(PI), Diamond(meets, g)))

    if isinstance(f, Diamond):
        return via_meets(f.sub)
    return Not(via_meets(Not(f.sub)))


def eliminate_L(f: Formula) -> Formula:
    """Rewrite every later-modality in terms of the meets-modality:
    <L>g becomes <A>(!pi & <A>g), and dually for boxes and inverses."""
    return transform(f, _eliminate_L_step)


def _resolve_step(sys: InterpretedSystem) -> Callable[[Formula], Formula]:
    """Step replacing agent names in K/C by indices, bounds-checked, and
    rejecting variables (of atoms too) the system does not label."""
    by_name = {agent.name: i for i, agent in enumerate(sys.agents)}
    labelled = sys.labelling

    def resolve(ref: AgentRef) -> int:
        if isinstance(ref, str):
            if ref not in by_name:
                raise InputError(f"unknown agent {ref!r}")
            return by_name[ref]
        if not 0 <= ref < len(sys.agents):
            raise InputError(f"agent index {ref} out of range")
        return ref

    def step(f: Formula) -> Formula:
        kind = type(f)  # node classes are final
        if kind is Var:
            if f.name not in labelled:
                raise InputError(f"unknown variable {f.name!r}")
        elif kind is K:
            agent = resolve(f.agent)
            return f if agent == f.agent else K(agent, f.sub)
        elif kind is C:
            group = tuple(resolve(a) for a in f.group)
            return f if group == f.group else C(group, f.sub)
        elif kind is Atom:
            missing = sorted(variables_of(f) - labelled.keys())
            if missing:
                raise InputError(f"unknown variable {missing[0]!r}")
        return f

    return step


def resolve_agents(sys: InterpretedSystem, f: Formula) -> Formula:
    """Replace agent names in K/C by indices and bounds-check indices.
    Raises InputError for an unknown agent and for a variable, or a
    variable of a regex atom's letter predicate, that the system does
    not label."""
    return transform(f, _resolve_step(sys))


# Relations a fast engine evaluates, before later is eliminated
_ENGINE_RELATIONS = {
    Fragment.BDE: ("begins/during/ends", _BDE_RELATIONS),
    Fragment.ABLN: ("meets/begun-by/later/next", _ABLN_RELATIONS),
}


def prepare(sys: InterpretedSystem, f: Formula, fragment: Fragment) -> Formula:
    """The formula as the engine for `fragment` evaluates it, built in
    one walk: later rewritten through meets, names checked and agents
    resolved to indices (see `resolve_agents`), and sugar removed.
    Raises FragmentError for a relation outside the fragment and for
    regex atoms (reduce those to variables first)."""
    name, allowed = _ENGINE_RELATIONS[fragment]
    resolve = _resolve_step(sys)
    extra: Set[Relation] = set()

    def step(node: Formula) -> Formula:
        if isinstance(node, (Diamond, Box)):
            if node.relation not in allowed:
                extra.add(node.relation)
            node = _eliminate_L_step(node)
        elif isinstance(node, Atom):
            raise FragmentError(
                "regex atoms must be reduced to variables before checking"
            )
        return _normalize_step(resolve(node))

    root = transform(f, step)
    if extra:
        names = ", ".join(sorted(r.value for r in extra))
        raise FragmentError(f"not in the {name} fragment: uses {names}")
    return root


# ---------------------------------------------------------------------------
# Structure queries

def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of the formula in reading order, `f` first."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def relations_of(f: Formula) -> Set[Relation]:
    """Interval relations used anywhere in the formula (boxes count as
    their underlying diamond)."""
    return {n.relation for n in subformulas(f) if isinstance(n, (Diamond, Box))}


def fragment_of(f: Formula) -> Fragment:
    rels = relations_of(f)
    if rels <= _BDE_RELATIONS:
        return Fragment.BDE
    if rels <= _ABLN_RELATIONS:
        return Fragment.ABLN
    return Fragment.FULL


_MODAL = (K, C, Diamond, Box)
_OPERATORS = (Not, And, Or, Implies) + _MODAL


def formula_depth(f: Formula) -> int:
    """The most operators on one path from the root to a leaf."""
    deepest = 0
    stack = [(f, 0)]
    while stack:
        node, depth = stack.pop()
        depth += isinstance(node, _OPERATORS)
        deepest = max(deepest, depth)
        stack.extend((k, depth) for k in children(node))
    return deepest


def modal_free(f: Formula) -> bool:
    return not any(isinstance(n, _MODAL) for n in subformulas(f))


def variables_of(f: Formula) -> Set[str]:
    """Variables named by the formula; for regex atoms, the variables
    appearing in letter predicates (`T` names none)."""
    out: Set[str] = set()
    for node in subformulas(f):
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Atom):
            for symbol in symbols_of(node.expr):
                out.update(predicate_variables(symbol))
    return out


def predicate_variables(symbol: Symbol) -> List[str]:
    """Variables a letter predicate names: none for `T`, `p` for `!p`,
    the listed ones for a tuple ("p", "q"), else the symbol itself."""
    if isinstance(symbol, tuple):
        return list(symbol)
    if symbol == ANY_LETTER:
        return []
    if symbol.startswith("!"):
        return [symbol[1:]]
    return [symbol]


def letter_predicate_holds(symbol: Symbol, valuation: FrozenSet[str]) -> bool:
    """Interpret one letter predicate against the set of variables true
    at a configuration: `T` any letter, `!p` absence, a tuple ("p", "q")
    the exact valuation, a bare name presence."""
    if isinstance(symbol, tuple):
        return valuation == set(symbol)
    if symbol.startswith("!"):
        return symbol[1:] not in valuation
    return symbol == ANY_LETTER or symbol in valuation


# ---------------------------------------------------------------------------
# Top-level modal subformulas and the interval-type bound

def top_level_subformulas(f: Formula) -> List[Formula]:
    """The K, C and diamond nodes of a normalized formula (see
    `normalize`) reachable through Boolean connectives only: its maximal
    modal subformulas, in reading order with duplicates collapsed."""
    out: List[Formula] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Not, And)):
            stack.extend(reversed(children(node)))
        elif isinstance(node, (K, C, Diamond)) and node not in out:
            out.append(node)
    return out


def _interval_type_bound(
    sys: InterpretedSystem, f: Formula, cap: Optional[int], tight: bool
) -> int:
    if cap is not None and cap < 1:
        raise InputError("cap must be positive")
    g = normalize(eliminate_L(f))
    extra = relations_of(g) - UNBOUNDED_RELATIONS
    if extra:
        names = ", ".join(sorted(r.value for r in extra))
        raise FragmentError(
            f"interval-type bound needs the A/Bbar/L/N fragment; saw {names}"
        )
    base = 2 * len(sys.all_configs) ** 2
    for var in sys.variables:
        states = len(sys.dfa_for(var).states)
        base *= states if tight else 2 ** states

    def go(node: Formula, cap: Optional[int]) -> int:
        value = base
        if cap is not None and value >= cap:
            return cap
        # 2^e >= cap whenever e reaches cap.bit_length()
        limit = None if cap is None else cap.bit_length()
        for modal in top_level_subformulas(node):
            exponent = go(modal.sub, limit)
            if limit is not None and exponent >= limit:
                return cap
            value *= 2 ** exponent
            if cap is not None and value >= cap:
                return cap
        if tight:
            value += 1
        return value if cap is None else min(value, cap)

    try:
        return go(g, cap)
    finally:
        del go  # go reaches itself through its closure: break the cycle


def fis_bound(sys: InterpretedSystem, f: Formula, cap: Optional[int] = None) -> int:
    """Exact interval-type bound: with base b = 2|G|^2 * prod over
    variables of 2^(minimal DFA size), the bound of f is b times
    2^(bound of operand) for each distinct top-level modal subformula.
    Grows non-elementarily with modal depth, so depth two is already
    astronomically large on most systems. With a positive `cap`, returns
    min(bound, cap) without building infeasible integers: any
    intermediate reaching the cap short-circuits."""
    return _interval_type_bound(sys, f, cap, tight=False)


def tight_bound(sys: InterpretedSystem, f: Formula, cap: Optional[int] = None) -> int:
    """Alternative bound counting DFA states directly instead of their
    powersets: 2|G|^2 * prod |Q_q| * prod 2^(tight of operand) + 1. The
    +1 keeps the count strictly above the observed interval types.
    `cap` saturates as for fis_bound."""
    return _interval_type_bound(sys, f, cap, tight=True)


fis_bound_saturating = fis_bound
tight_bound_saturating = tight_bound
