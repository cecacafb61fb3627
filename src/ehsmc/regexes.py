"""Regular expressions over finite alphabets of symbols.

A symbol is a name or a tuple of names, such as a system configuration
("l0", "l1"), spelled "(l0,l1)" by `symbol_text` only where text is read
or written (parsing, printing, DOT and error messages).

Two independent evaluation routes are provided on purpose. `denotes`
decides membership directly on the expression tree via derivatives,
while `compile_regex` builds a complete minimal DFA through the
position-automaton / subset-construction / minimization pipeline. The
routes share no code so they can cross-validate each other.

Labels range over whole configuration spaces, whose alphabets grow as
the product of the agents' local states, but mention only a few letter
sets. So the position automaton (Glushkov; Berry and Sethi, TCS 1986)
gives all symbol operands of a union chain one position that reads a
symbol set, and the alphabet is split into letter classes: letters read
by exactly the same positions. Subset construction and minimization
work on classes, not letters (the minterms of symbolic automata:
D'Antoni and Veanes, "Minimization of symbolic automata", POPL 2014);
only the finished transition table is spelled out letter by letter.
`denotes` keeps working letter by letter on the expression, so it still
checks the compiled route independently.

The concrete syntax is read by one compiled token pattern, `_TOKEN`:
after optional whitespace comes a tuple symbol such as "(l0, l1)", an
operator among `* + | ; ( )`, a name (with a glued "!" in predicate
mode), or any other character, which is an error naming its position.
"""

from __future__ import annotations

import re as _stdre
import typing
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import LABEL_CONSTANTS, NAME, InputError

Symbol = typing.Union[str, Tuple[str, ...]]


def symbol_text(symbol: Symbol) -> str:
    """The one spelling of a symbol: a name as itself, a tuple of names
    as "(l0,l1,...)"."""
    return symbol if isinstance(symbol, str) else "(" + ",".join(symbol) + ")"


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbols: all names, or all tuples of names.

    Symbols are kept sorted so that state numbering and DOT output
    downstream are reproducible. Names hold no character that sorts
    before ",", so tuples sort as their spellings do.
    """

    symbols: Tuple[Symbol, ...]

    def __post_init__(self) -> None:
        syms = tuple(self.symbols)
        if not syms:
            raise InputError("alphabet must be non-empty")
        if len(set(syms)) != len(syms):
            raise InputError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "symbols", tuple(sorted(syms)))
        object.__setattr__(self, "_members", frozenset(syms))

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._members

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


class RegexExpr:
    """Base class for regular-expression AST nodes; all nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(RegexExpr):
    """Denotes the empty language."""


@dataclass(frozen=True)
class Epsilon(RegexExpr):
    """Denotes the language containing only the empty word."""


@dataclass(frozen=True)
class Sym(RegexExpr):
    symbol: Symbol


@dataclass(frozen=True)
class Concat(RegexExpr):
    left: RegexExpr
    right: RegexExpr


@dataclass(frozen=True)
class Union(RegexExpr):
    left: RegexExpr
    right: RegexExpr


@dataclass(frozen=True)
class Star(RegexExpr):
    inner: RegexExpr


EMPTY = Empty()
EPSILON = Epsilon()


def subexpressions(expr: RegexExpr) -> Iterator[RegexExpr]:
    """Every node of the expression in reading order, `expr` first."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)  # node classes are final: `is` beats isinstance
        if kind is Concat or kind is Union:
            stack += (node.right, node.left)
        elif kind is Star:
            stack.append(node.inner)


def symbols_of(expr: RegexExpr) -> Set[Symbol]:
    """All symbols occurring in the expression."""
    return {node.symbol for node in subexpressions(expr) if type(node) is Sym}


def map_symbols(expr: RegexExpr, fn: Callable[[Symbol], RegexExpr]) -> RegexExpr:
    """The expression with every symbol s replaced by the expression fn(s).
    Right operands of Concat and Union are followed in a loop, so a long
    chain costs no recursion."""
    spine: List[RegexExpr] = []
    while isinstance(expr, (Concat, Union)):
        spine.append(expr)
        expr = expr.right
    if isinstance(expr, Sym):
        expr = fn(expr.symbol)
    elif isinstance(expr, Star):
        expr = Star(map_symbols(expr.inner, fn))
    for node in reversed(spine):
        expr = type(node)(map_symbols(node.left, fn), expr)
    return expr


def fold_right(node: Callable, parts: Sequence):
    """node(p1, node(p2, ... node(pn-1, pn))) for non-empty parts p1..pn."""
    expr = parts[-1]
    for part in reversed(parts[:-1]):
        expr = node(part, expr)
    return expr


def union_of(parts: Sequence[RegexExpr]) -> RegexExpr:
    """Right-associated union of the given parts; Empty for no parts."""
    return fold_right(Union, parts) if parts else EMPTY


# ---------------------------------------------------------------------------
# Parsing


class RegexSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(InputError):
    def __init__(self, token: Symbol, position: int):
        super().__init__(f"unknown symbol {symbol_text(token)!r} (at position {position})")
        self.token = token
        self.position = position


# Deepest nesting of parentheses, stars and chains the parser accepts
# (see `regex_depth`). Parsing takes four frames per parenthesis and the
# walks over an expression one frame per level, so 100 levels leave the
# caller most of the default recursion limit.
MAX_REGEX_DEPTH = 100


def regex_depth(expr: RegexExpr) -> int:
    """The most stars and chains nested on one path from the root to a
    leaf, a chain being a run of Concat (or of Union) nodes along right
    operands: the recursion depth of the walks over an expression."""
    deepest = 0
    stack = [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Star):
            stack.append((node.inner, depth + 1))
        elif isinstance(node, (Concat, Union)):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + (type(node.right) is not type(node))))
    return deepest


# A "(" opens a tuple symbol only when a comma list of at least two names
# and a ")" follow; otherwise it is grouping. Tuple symbols therefore need
# at least two components, which is why single-agent systems must use
# aliases.
_TOKEN = _stdre.compile(
    rf"\s*(?:(?P<tuple>\(\s*{NAME}\s*(?:,\s*{NAME}\s*)+\))"
    rf"|(?P<op>[*+|;()])|(?P<word>!?{NAME})|(?P<bad>\S))"
)
_CONSTANTS = dict(zip(LABEL_CONSTANTS, (EMPTY, EPSILON)))
_CONSTANT_TEXT = {type(node): text for text, node in _CONSTANTS.items()}


def _tokenize(text: str, predicate_mode: bool) -> List[Tuple[str, Symbol, int]]:
    """The (kind, value, position) tokens of the text, ending with "eof".
    A tuple symbol is the tuple of its names, and a "!" glued to a name
    is part of the symbol in predicate mode only."""
    tokens: List[Tuple[str, Symbol, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "tuple":
            tokens.append(("sym", tuple(part.strip() for part in value[1:-1].split(",")), pos))
        elif kind == "op":
            tokens.append(("op", value, pos))
        elif kind == "word" and (predicate_mode or value[0] != "!"):
            tokens.append(("const" if value in _CONSTANTS else "sym", value, pos))
        elif value == "!" and predicate_mode:
            raise RegexSyntaxError("dangling '!'", pos)
        else:
            raise RegexSyntaxError(f"unexpected character {value[0]!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


class _RegexParser:
    def __init__(
        self,
        text: str,
        alphabet: Optional[Alphabet],
        aliases: Optional[Dict[str, Symbol]] = None,
        predicate_mode: bool = False,
    ):
        self.tokens = _tokenize(text, predicate_mode)
        self.index = 0
        self.alphabet = alphabet
        self.aliases = aliases or {}
        self.parens = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.index]

    def consume(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> RegexExpr:
        expr = self._union()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise RegexSyntaxError(f"unexpected token {value!r}", pos)
        return expr

    def _union(self) -> RegexExpr:
        parts = [self._concat()]
        while self.peek()[0] == "op" and self.peek()[1] in "+|":
            self.consume()
            parts.append(self._concat())
        return union_of(parts)

    def _concat(self) -> RegexExpr:
        parts = [self._postfix()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ";":
                self.consume()
                parts.append(self._postfix())
            elif kind in ("sym", "const") or (kind == "op" and value == "("):
                parts.append(self._postfix())
            else:
                break
        return fold_right(Concat, parts)

    def _postfix(self) -> RegexExpr:
        expr = self._primary()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.consume()
            expr = Star(expr)
        return expr

    def _primary(self) -> RegexExpr:
        kind, value, pos = self.consume()
        if kind == "const":
            return _CONSTANTS[value]
        if kind == "sym":
            return Sym(self._resolve(value, pos))
        if kind == "op" and value == "(":
            self.parens += 1
            if self.parens > MAX_REGEX_DEPTH:
                raise RegexSyntaxError(f"nested deeper than {MAX_REGEX_DEPTH} levels", pos)
            expr = self._union()
            kind, value, pos = self.consume()
            if not (kind == "op" and value == ")"):
                raise RegexSyntaxError("expected ')'", pos)
            self.parens -= 1
            return expr
        raise RegexSyntaxError(f"unexpected token {value!r}", pos)

    def _resolve(self, token: Symbol, pos: int) -> Symbol:
        if token in self.aliases:
            return self.aliases[token]
        if self.alphabet is None or token in self.alphabet:
            return token
        raise UnknownSymbolError(token, pos)


def parse_regex(
    text: str,
    alphabet: Optional[Alphabet] = None,
    aliases: Optional[Dict[str, Symbol]] = None,
    predicate_mode: bool = False,
) -> RegexExpr:
    """Parse the concrete regex syntax into an AST.

    Precedence is star > concatenation > union; juxtaposition and ";"
    both denote concatenation; "empty" and "eps" are the constant
    languages. "(a, b)" is the tuple symbol ("a", "b"). With `alphabet`
    given, symbol tokens must name alphabet members or keys of `aliases`
    (which map display names to symbols).
    With alphabet None any identifier is accepted, which is how the
    letter-predicate atoms of the regex-labelled logic are parsed.
    """
    expr = _RegexParser(text, alphabet, aliases, predicate_mode).parse()
    # A parenthesis level holds at most a union and a concatenation chain,
    # so the depth is at most this bound, and most labels skip the walk.
    if 2 * text.count("(") + text.count("*") + 2 > MAX_REGEX_DEPTH:
        if regex_depth(expr) > MAX_REGEX_DEPTH:
            raise RegexSyntaxError(f"nested deeper than {MAX_REGEX_DEPTH} levels", 0)
    return expr


def regex_to_text(expr: RegexExpr, display: Optional[Callable[[Symbol], str]] = None) -> str:
    """Render an AST back to concrete syntax (parse/print round-trips);
    symbols are spelled by `display`, by default `symbol_text`."""
    return _to_text(expr, 0, display or symbol_text)


def _to_text(e: RegexExpr, outer: int, disp: Callable[[Symbol], str]) -> str:
    """`e` as text, parenthesized when it binds looser than `outer`. A
    module-level function, so a call leaves no cycle."""
    if isinstance(e, (Empty, Epsilon)):
        return _CONSTANT_TEXT[type(e)]
    if isinstance(e, Sym):
        return disp(e.symbol)
    if isinstance(e, Star):
        return f"{_to_text(e.inner, 2, disp)}*"
    if not isinstance(e, (Union, Concat)):
        raise TypeError(f"not a regex node: {e!r}")
    # A chain is printed in a loop along right operands. It re-parses
    # right-associated, so a chain on the left keeps its parentheses.
    kind, level, sep = (Union, 0, " + ") if isinstance(e, Union) else (Concat, 1, " ")
    parts = []
    while isinstance(e, kind):
        parts.append(_to_text(e.left, level + 1, disp))
        e = e.right
    parts.append(_to_text(e, level, disp))
    body = sep.join(parts)
    return f"({body})" if outer > level else body


# ---------------------------------------------------------------------------
# Membership by derivatives (the reference route, independent of the DFA)


def _nullable(e: RegexExpr) -> bool:
    """Whether the empty word is in the language. Right operands are
    followed in a loop, so a long chain costs no recursion."""
    while True:
        if isinstance(e, (Epsilon, Star)):
            return True
        if isinstance(e, (Empty, Sym)):
            return False
        if isinstance(e, Concat):
            if not _nullable(e.left):
                return False
        elif isinstance(e, Union):
            if _nullable(e.left):
                return True
        else:
            raise TypeError(f"not a regex node: {e!r}")
        e = e.right


def _mk_concat(left: RegexExpr, right: RegexExpr) -> RegexExpr:
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Concat(left, right)


def _same(left: RegexExpr, right: RegexExpr) -> bool:
    """Structural equality; `==` on nodes recurses once per chain item."""
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Concat or kind is Union:
            stack += ((a.right, b.right), (a.left, b.left))
        elif kind is Star:
            stack.append((a.inner, b.inner))
        elif kind is Sym and a.symbol != b.symbol:
            return False
    return True


def _mk_union(left: RegexExpr, right: RegexExpr) -> RegexExpr:
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    if _same(left, right):
        return left
    return Union(left, right)


def _derive(e: RegexExpr, letter: object, match: Callable[[Symbol, object], bool]) -> RegexExpr:
    """The derivative by one letter. Right operands of unions, and of
    concatenations whose left operand is nullable, are followed in a
    loop, each adding one union term, so a long chain costs no recursion."""
    terms: List[RegexExpr] = []
    while True:
        kind = type(e)  # node classes are final: `is` beats isinstance
        if kind is Union:
            terms.append(_derive(e.left, letter, match))
        elif kind is Concat:
            terms.append(_mk_concat(_derive(e.left, letter, match), e.right))
            if not _nullable(e.left):
                break
        else:
            if kind is Sym:
                terms.append(EPSILON if match(e.symbol, letter) else EMPTY)
            elif kind is Star:
                terms.append(_mk_concat(_derive(e.inner, letter, match), e))
            elif kind is Empty or kind is Epsilon:
                terms.append(EMPTY)
            else:
                raise TypeError(f"not a regex node: {e!r}")
            break
        e = e.right
    out = terms.pop()
    while terms:
        out = _mk_union(terms.pop(), out)
    return out


def denotes(
    expr: RegexExpr,
    word: Sequence[object],
    match: Optional[Callable[[Symbol, object], bool]] = None,
) -> bool:
    """Word membership decided by successive derivatives.

    With the default matcher, letters are compared to symbols by
    equality. A custom `match` lets the same machinery decide words of
    valuation sets against letter predicates.
    """
    matcher = match or (lambda sym, letter: sym == letter)
    current = expr
    for letter in word:
        current = _derive(current, letter, matcher)
        if isinstance(current, Empty):
            return False
    return _nullable(current)


# ---------------------------------------------------------------------------
# Compilation to a complete minimal DFA


@dataclass(frozen=True, eq=False)
class Dfa:
    """Complete minimal DFA; step is total over the alphabet.

    `sink` names the dead state (non-accepting, all loops) when one
    exists. States are numbered z1, z2, ... in breadth-first order from
    the initial state, the dead state being called zbot unless it is
    initial.
    """

    states: Tuple[str, ...]
    initial: str
    accepting: FrozenSet[str]
    step: Dict[Tuple[str, Symbol], str]
    alphabet: Alphabet
    sink: Optional[str] = None


def run(dfa: Dfa, word: Sequence[Symbol]) -> str:
    """State reached from the initial state after reading the word."""
    state = dfa.initial
    for symbol in word:
        state = dfa.step[(state, symbol)]
    return state


def accepts(dfa: Dfa, word: Sequence[Symbol]) -> bool:
    return run(dfa, word) in dfa.accepting


def _chain_operands(expr: RegexExpr, kind: type) -> List[RegexExpr]:
    """Operands of a maximal chain of `kind` nodes (Union or Concat),
    left to right, however nested."""
    out: List[RegexExpr] = []
    stack: List[RegexExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def _positions(
    expr: RegexExpr, symbols: List[FrozenSet[Symbol]], follow: List[Set[int]]
) -> Tuple[bool, Set[int], Set[int]]:
    """Append the expression's positions to `symbols` (what each reads)
    and `follow` (the positions that may come next), and return whether
    it accepts the empty word, its first positions and its last ones."""
    kind = type(expr)  # node classes are final: `is` beats isinstance
    if kind is Concat:
        # A chain is linked in a loop, so a long word costs no recursion.
        nullable, first, last = True, set(), set()
        for op in _chain_operands(expr, Concat):
            op_nullable, op_first, op_last = _positions(op, symbols, follow)
            for p in last:
                follow[p] |= op_first
            if nullable:
                first |= op_first
            last = last | op_last if op_nullable else op_last
            nullable = nullable and op_nullable
        return nullable, first, last
    if kind is Star:
        _, first, last = _positions(expr.inner, symbols, follow)
        for p in last:
            follow[p] |= first
        return True, first, last
    if kind is Epsilon or kind is Empty:
        return kind is Epsilon, set(), set()
    if kind is not Sym and kind is not Union:
        raise TypeError(f"not a regex node: {expr!r}")
    # All symbol operands of a union chain share one position; compound
    # operands keep their own.
    operands = _chain_operands(expr, Union)
    letters = frozenset(op.symbol for op in operands if type(op) is Sym)
    nullable, first, last = False, set(), set()
    if letters:
        first.add(len(symbols))
        last.add(len(symbols))
        symbols.append(letters)
        follow.append(set())
    for op in operands:
        if type(op) is not Sym:
            op_nullable, op_first, op_last = _positions(op, symbols, follow)
            nullable |= op_nullable
            first |= op_first
            last |= op_last
    return nullable, first, last


def _letter_classes(
    symbols: Sequence[FrozenSet[Symbol]], alphabet: Alphabet
) -> Tuple[List[FrozenSet[int]], Dict[Symbol, int]]:
    """Partition the alphabet into classes of letters read by exactly the
    same positions; letters no position reads form one class. Classes
    are numbered in the order of their least letter. Returns the
    positions reading each class and each letter's class."""
    read_at: Dict[Symbol, List[int]] = {}
    for position, letters in enumerate(symbols):
        for symbol in letters:
            read_at.setdefault(symbol, []).append(position)
    readers: Dict[FrozenSet[int], int] = {}
    class_of = {
        symbol: readers.setdefault(frozenset(read_at.get(symbol, ())), len(readers))
        for symbol in alphabet.symbols
    }
    return list(readers), class_of


def compile_regex(expr: RegexExpr, alphabet: Alphabet) -> Dfa:
    """Compile to the complete minimal DFA for the expression.

    Pipeline: the position automaton (Glushkov), whose union chains read
    symbol sets, a partition of the alphabet into letter classes (letters
    read by exactly the same positions behave alike everywhere
    downstream), subset construction over positions and classes from an
    extra start position, partition refinement over the classes, and
    finally expansion of the transition table to every letter. Every
    move of the position automaton reads a letter, so no subset needs a
    closure. The empty subset acts as the dead state, so the result is
    complete.
    """
    stray = sorted(symbol_text(s) for s in symbols_of(expr) if s not in alphabet)
    if stray:
        raise InputError(f"expression symbols outside the alphabet: {stray}")

    # Position 0 is the start: it reads nothing and is followed by the
    # expression's first positions.
    symbols: List[FrozenSet[Symbol]] = [frozenset()]
    follow: List[Set[int]] = [set()]
    nullable, follow[0], last = _positions(expr, symbols, follow)
    final = last | {0} if nullable else last
    readers, class_of = _letter_classes(symbols, alphabet)
    classes = range(len(readers))

    # Subset construction over letter classes, breadth-first.
    order: List[FrozenSet[int]] = [frozenset((0,))]
    subsets: Dict[FrozenSet[int], int] = {order[0]: 0}
    delta: Dict[Tuple[int, int], int] = {}
    for i, current in enumerate(order):
        after = set().union(*(follow[p] for p in current))
        for c in classes:
            nxt = readers[c] & after
            if nxt not in subsets:
                subsets[nxt] = len(order)
                order.append(nxt)
            delta[(i, c)] = subsets[nxt]
    accepting = {i for i, subset in enumerate(order) if not final.isdisjoint(subset)}

    # Partition refinement down to the minimal automaton.
    n = len(order)
    block = [1 if i in accepting else 0 for i in range(n)]
    while True:
        signatures: Dict[Tuple, int] = {}
        new_block = [0] * n
        for i in range(n):
            sig = (block[i],) + tuple(block[delta[(i, c)]] for c in classes)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[i] = signatures[sig]
        if new_block == block:
            break
        block = new_block

    # Name each block after its first subset. Subsets were found
    # breadth-first over classes in least-letter order, and every member
    # of a block has the same successor blocks, so blocks in the order of
    # their first subset are the quotient's breadth-first order over
    # letters in alphabet order.
    first: Dict[int, int] = {}
    for i in range(n):
        first.setdefault(block[i], i)
    reps = list(first.values())

    def dead(i: int) -> bool:
        return i not in accepting and all(block[delta[(i, c)]] == block[i] for c in classes)

    dead_rep = next((i for i in reps if dead(i)), None)
    numbers = iter(range(1, n + 1))
    names = {block[i]: "zbot" if i == dead_rep and i != 0 else f"z{next(numbers)}" for i in reps}
    return Dfa(
        states=tuple(names[block[i]] for i in reps),
        initial=names[block[0]],
        accepting=frozenset(names[block[i]] for i in reps if i in accepting),
        step={
            (names[block[i]], a): names[block[delta[(i, class_of[a])]]]
            for i in reps
            for a in alphabet.symbols
        },
        alphabet=alphabet,
        sink=None if dead_rep is None else names[block[dead_rep]],
    )


# ---------------------------------------------------------------------------
# Language shape classification


class LanguageShape:
    POINT_BASED = "PointBased"
    ENDPOINT_BASED = "EndpointBased"
    GENERAL = "General"


def language_shape(dfa: Dfa) -> str:
    """Classify the language as PointBased, EndpointBased or General.

    PointBased: every accepted word has length 1 (the empty language
    qualifies vacuously). EndpointBased: membership depends only on the
    first symbol, the last symbol and whether the length is 1; decided
    per state after the first symbol by checking that every reachable
    mid-state gives the same acceptance on each last symbol. A language
    containing the empty word has no endpoints to depend on and is
    classified General.
    """
    acc, letters, step = dfa.accepting, dfa.alphabet.symbols, dfa.step

    def reach(states: Set[str]) -> Set[str]:
        """The given states and every state reachable from them."""
        seen = frontier = set(states)
        while frontier:
            frontier = {step[(s, a)] for s in frontier for a in letters} - seen
            seen |= frontier
        return seen

    if dfa.initial in acc:
        return LanguageShape.GENERAL
    after_one = {step[(dfa.initial, a)] for a in letters}
    if not reach({step[(s, a)] for s in after_one for a in letters}) & acc:
        return LanguageShape.POINT_BASED
    for first in after_one:
        mids = reach({first})
        for b in letters:
            if len({step[(m, b)] in acc for m in mids}) > 1:
                return LanguageShape.GENERAL
    return LanguageShape.ENDPOINT_BASED


# ---------------------------------------------------------------------------
# DOT export


def dfa_to_dot(dfa: Dfa) -> str:
    """Render the automaton in DOT; accepting states doubled, sink dashed."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    for state in dfa.states:
        attrs = ["shape=doublecircle" if state in dfa.accepting else "shape=circle"]
        if state == dfa.sink:
            attrs.append("style=dashed")
        lines.append(f'  "{state}" [{", ".join(attrs)}];')
    lines.append(f'  __init -> "{dfa.initial}";')
    for src in dfa.states:
        grouped: Dict[str, List[Symbol]] = {}
        for symbol in dfa.alphabet.symbols:
            grouped.setdefault(dfa.step[(src, symbol)], []).append(symbol)
        for dst in sorted(grouped):
            label = ",".join(map(symbol_text, grouped[dst]))
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
