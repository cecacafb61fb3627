"""Interpreted systems with regular labellings and their interval structure.

A system is a list of agents (index 0 by convention the environment),
each with local states, an initial state, actions, a protocol and local
transitions guarded by joint-action patterns. The induced global step
relation generates the reachable configurations; intervals are finite
paths through that relation, kept in canonical form as configuration
sequences (a `Path`, wrapped in an `Interval` only at the public entry
points). Anchored intervals additionally carry the history back to the
initial configuration and are needed only by the bounded oracle, where
backward interval relations live.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ANY_LETTER, FORMULA_CONSTANTS, INDEX, LABEL_CONSTANTS, NAME, InputError
from .regexes import (
    Alphabet,
    Dfa,
    RegexExpr,
    compile_regex,
    denotes,
    parse_regex,
    regex_to_text,
    run,
    symbol_text,
    symbols_of,
)

GlobalConfig = Tuple[str, ...]
Path = Tuple[GlobalConfig, ...]


class Relation(str, Enum):
    """Interval relation names; `bar` marks an inverse."""

    A = "A"
    ABAR = "Abar"
    B = "B"
    BBAR = "Bbar"
    D = "D"
    DBAR = "Dbar"
    E = "E"
    EBAR = "Ebar"
    L = "L"
    LBAR = "Lbar"
    N = "N"
    NBAR = "Nbar"
    O = "O"
    OBAR = "Obar"


FORWARD_RELATIONS = {Relation.A, Relation.B, Relation.BBAR, Relation.D, Relation.E, Relation.N}
UNBOUNDED_RELATIONS = {Relation.A, Relation.BBAR, Relation.N}


@dataclass(frozen=True)
class Interval:
    """Non-empty configuration sequence; consecutive entries must be
    global steps and the first configuration reachable (checked by
    `validate_interval`, not at construction)."""

    configs: Path

    def __post_init__(self) -> None:
        if not self.configs:
            raise InputError("intervals are non-empty")

    def __len__(self) -> int:
        return len(self.configs)

    @property
    def first(self) -> GlobalConfig:
        return self.configs[0]

    @property
    def last(self) -> GlobalConfig:
        return self.configs[-1]


@dataclass(frozen=True)
class AnchoredInterval:
    """Interval plus its history: history ++ configs is a path from the
    initial configuration (empty history means the interval starts
    there)."""

    history: Path
    interval: Interval

    @property
    def total_length(self) -> int:
        return len(self.history) + len(self.interval)


@dataclass
class LocalComponent:
    name: str
    states: Tuple[str, ...]
    init: str
    actions: Tuple[str, ...]
    # state -> permitted actions; missing states are treated as empty
    protocol: Dict[str, Tuple[str, ...]]
    # (source state, joint-action pattern with '*' wildcards, target state)
    transitions: Tuple[Tuple[str, Tuple[str, ...], str], ...]


def _pattern_matches(pattern: Tuple[str, ...], joint: Tuple[str, ...]) -> bool:
    return len(pattern) == len(joint) and all(
        p == "*" or p == a for p, a in zip(pattern, joint)
    )


class InterpretedSystem:
    """Immutable system model with derived transition tables.

    The labelling maps each variable to a regular expression whose
    letters are the configurations themselves: the alphabet is
    `all_configs`, every tuple of local states. Aliases give
    configurations friendly display names. A malformed system is
    rejected with an InputError naming its first violation.
    """

    def __init__(
        self,
        agents: Sequence[LocalComponent],
        labelling: Dict[str, RegexExpr],
        aliases: Optional[Dict[str, GlobalConfig]] = None,
    ):
        self.agents: Tuple[LocalComponent, ...] = tuple(agents)
        self.aliases: Dict[str, GlobalConfig] = dict(aliases or {})
        violation = next(_violations(self.agents, self.aliases), None)
        if violation is not None:
            raise InputError(violation)

        self.initial: GlobalConfig = tuple(a.init for a in self.agents)
        self.all_configs: Tuple[GlobalConfig, ...] = tuple(
            itertools.product(*(sorted(a.states) for a in self.agents))
        )
        self.alphabet = Alphabet(self.all_configs)

        self._display: Dict[GlobalConfig, str] = {}
        for alias, cfg in self.aliases.items():
            self._display.setdefault(cfg, alias)

        self._succ = self._compute_successors()
        self.reachable: Tuple[GlobalConfig, ...] = self._compute_reachable()
        self.reachable_set: FrozenSet[GlobalConfig] = frozenset(self.reachable)
        self._label(labelling)

    def with_labelling(self, labelling: Dict[str, RegexExpr]) -> InterpretedSystem:
        """The same system under another labelling; the step relation and
        the configuration space are shared, not rebuilt."""
        relabelled = object.__new__(InterpretedSystem)
        for name in _LABEL_FREE:
            setattr(relabelled, name, getattr(self, name))
        relabelled._label(labelling)
        return relabelled

    def _label(self, labelling: Dict[str, RegexExpr]) -> None:
        for var, why in _bad_names(labelling, (*FORMULA_CONSTANTS, *LABEL_CONSTANTS, ANY_LETTER)):
            raise InputError(f"label {var}: {var!r} {why}")
        for var, expr in labelling.items():
            stray = sorted(symbol_text(s) for s in symbols_of(expr) if s not in self.alphabet)
            if stray:
                raise InputError(f"label {var}: symbols outside the configuration space: {stray}")
        self.labelling: Dict[str, RegexExpr] = dict(labelling)
        self.variables: Tuple[str, ...] = tuple(labelling.keys())
        self._dfas: Dict[str, Dfa] = {}

    # -- derived tables -----------------------------------------------------

    def _compute_successors(self) -> Dict[GlobalConfig, Tuple[GlobalConfig, ...]]:
        """Successor table over every configuration, built one joint action
        at a time: under it each agent moves by its rules whose source state
        permits the agent's action, independently of the others. Each
        distinct pattern is matched once per joint action. Configurations
        are numbered in mixed radix over each agent's sorted states, which
        is their position in `all_configs`."""
        weight = len(self.all_configs)
        number: List[Dict[str, int]] = []  # per agent: state -> digit * weight
        for agent in self.agents:
            weight //= len(agent.states)
            number.append({s: k * weight for k, s in enumerate(sorted(agent.states))})
        permits = [{(s, a) for s, acts in agent.protocol.items() for a in acts}
                   for agent in self.agents]
        offered = [sorted({a for _, a in ok}) for ok in permits]
        patterns = {pat for agent in self.agents for _, pat, _ in agent.transitions}
        succ: List[Set[int]] = [set() for _ in self.all_configs]
        for joint in itertools.product(*offered):
            hit = {pat for pat in patterns if _pattern_matches(pat, joint)}
            moves: List[Set[Tuple[int, int]]] = []
            for agent, num, ok, act in zip(self.agents, number, permits, joint):
                pairs = {(num[src], num[dst]) for src, pat, dst in agent.transitions
                         if (src, act) in ok and pat in hit}
                if not pairs:
                    break
                moves.append(pairs)
            else:
                layer = [(0, 0)]
                for pairs in moves:
                    layer = [(s + ps, d + pd) for s, d in layer for ps, pd in pairs]
                for s, d in layer:
                    succ[s].add(d)
        configs = self.all_configs
        return {g: tuple(configs[d] for d in sorted(ds)) for g, ds in zip(configs, succ)}

    def _compute_reachable(self) -> Tuple[GlobalConfig, ...]:
        seen = {self.initial}
        queue = [self.initial]
        for g in queue:  # also visits what is appended on the way
            for h in self._succ[g]:
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
        return tuple(sorted(seen))

    # -- accessors ------------------------------------------------------------

    def successors(self, g: GlobalConfig) -> Tuple[GlobalConfig, ...]:
        return self._succ.get(g, ())

    def display(self, g: GlobalConfig) -> str:
        return self._display.get(g, symbol_text(g))

    def config_by_name(self, name: str) -> GlobalConfig:
        """The configuration an alias names, or the one spelled
        "(l0,l1,...)" with one local state per agent; whitespace around a
        state is ignored, as a label reads it."""
        if name in self.aliases:
            return self.aliases[name]
        if name[:1] == "(" and name[-1:] == ")":
            cfg = tuple(part.strip() for part in name[1:-1].split(","))
            if _is_config(cfg, self.agents):
                return cfg
        raise InputError(f"unknown configuration {name!r}")

    def dfa_for(self, var: str) -> Dfa:
        if var not in self.labelling:
            raise InputError(f"unknown variable {var!r}")
        if var not in self._dfas:
            self._dfas[var] = compile_regex(self.labelling[var], self.alphabet)
        return self._dfas[var]


# What a system's labelling does not affect, in the order the constructor
# sets it. `with_labelling` copies these one by one: a copy made through
# __dict__ (copy.copy) reads every attribute about 1.5x slower on CPython 3.11.
_LABEL_FREE = ("agents", "aliases", "initial", "all_configs", "alphabet", "_display",
               "_succ", "reachable", "reachable_set")


_is_name = re.compile(NAME).fullmatch


def _bad_names(names: Iterable[str], reserved: Iterable[str] = ()) -> Iterator[Tuple[str, str]]:
    """Each name outside the name rule or among `reserved`, with why."""
    for name in names:
        if not _is_name(name):
            yield name, "is not a name (word characters and '.')"
        elif name in reserved:
            yield name, "is reserved"


def _violations(
    agents: Tuple[LocalComponent, ...], aliases: Dict[str, GlobalConfig]
) -> Iterator[str]:
    """Every way the agents and aliases break the rules of a system: names
    by the name rule, and agent names that are not indices; distinct agent
    names; declared, distinct states; protocols and transitions over
    declared states and actions; patterns of one action slot per agent;
    aliases that name configurations."""
    n = len(agents)
    if not agents:
        yield "at least one agent is required"
    named: Set[str] = set()
    for idx, agent in enumerate(agents):
        tag = f"agent {agent.name or idx}"
        for noun, names in (("", [agent.name]), ("state ", agent.states),
                            ("action ", agent.actions)):
            yield from (f"{tag}: {noun}{name!r} {why}" for name, why in _bad_names(names))
        if re.fullmatch(INDEX, agent.name):
            yield f"{tag}: {agent.name!r} would read as an agent index"
        if agent.name in named:
            yield f"{tag}: duplicate agent name"
        named.add(agent.name)
        if not agent.states:
            yield f"{tag}: declares no local states"
        if len(set(agent.states)) != len(agent.states):
            yield f"{tag}: duplicate local states"
        if agent.init not in agent.states:
            yield f"{tag}: init {agent.init!r} not a state"
        for state, acts in agent.protocol.items():
            if state not in agent.states:
                yield f"{tag}: protocol for unknown state {state!r}"
            for a in acts:
                if a not in agent.actions:
                    yield f"{tag}: protocol action {a!r} not declared"
        for src, pattern, dst in agent.transitions:
            if src not in agent.states or dst not in agent.states:
                yield f"{tag}: transition {src!r} -> {dst!r} uses unknown states"
            if len(pattern) != n:
                yield f"{tag}: pattern {pattern} has arity {len(pattern)}, expected {n}"
            else:
                for j, slot in enumerate(pattern):
                    if slot != "*" and slot not in agents[j].actions:
                        yield f"{tag}: pattern slot {j} names unknown action {slot!r}"
    for alias, why in _bad_names(aliases, LABEL_CONSTANTS):
        yield f"config {alias}: {alias!r} {why}"
    for alias, cfg in aliases.items():
        if not _is_config(cfg, agents):
            yield f"config {alias}: {cfg} is not a configuration"


def _is_config(cfg: GlobalConfig, agents: Sequence[LocalComponent]) -> bool:
    """Whether the tuple holds one declared local state per agent."""
    return len(cfg) == len(agents) and all(l in a.states for l, a in zip(cfg, agents))


# ---------------------------------------------------------------------------
# Core relations


def label_holds(sys: InterpretedSystem, var: str, configs: Path) -> bool:
    """Compiled-DFA route: the minimal automaton of the variable accepts
    the interval's configurations, read as its letters."""
    dfa = sys.dfa_for(var)
    return run(dfa, configs) in dfa.accepting


def validate_interval(sys: InterpretedSystem, interval: Interval) -> Path:
    """The interval's configurations, once they are checked to be a path
    of global steps from a reachable configuration."""
    configs = interval.configs
    if configs[0] not in sys.reachable_set:
        raise InputError(
            f"interval start {sys.display(configs[0])} is not reachable"
        )
    for a, b in zip(configs, configs[1:]):
        if b not in sys.successors(a):
            raise InputError(
                f"{sys.display(a)} -> {sys.display(b)} is not a global step"
            )
    return configs


# ---------------------------------------------------------------------------
# Path enumeration (ascending length, then lexicographic)


def _paths_from(
    sys: InterpretedSystem, starts: Sequence[GlobalConfig], max_len: int
) -> Iterator[Path]:
    # starts and successor tuples are sorted, so every layer is too
    layer: List[Path] = [(g,) for g in starts]
    while layer and max_len > 0:
        yield from layer
        max_len -= 1
        layer = [path + (nxt,) for path in layer for nxt in sys.successors(path[-1])]


def forward_frame(
    sys: InterpretedSystem, configs: Path, relation: Relation
) -> Tuple[Path, Tuple[GlobalConfig, ...]]:
    """(prefix, starts): A, Bbar and N relate `configs` to exactly the
    intervals `prefix + path`, for every path beginning in `starts` (sorted
    and distinct): the last configuration (A) or its successors (N), after
    an empty prefix, or its successors after the interval itself (Bbar)."""
    last = configs[-1]
    if relation == Relation.A:
        return (), (last,)
    if relation == Relation.N:
        return (), sys.successors(last)
    if relation == Relation.BBAR:
        return configs, sys.successors(last)
    raise InputError(f"relation {_relation(relation).value} has no forward frame")


def _relation(value: object) -> Relation:
    """The relation a member or its name denotes."""
    try:
        return Relation(value)
    except ValueError:
        raise InputError(f"unknown relation {value!r}") from None


def allen_successors(
    sys: InterpretedSystem,
    configs: Path,
    relation: Relation,
    max_len: Optional[int] = None,
) -> Iterator[Path]:
    """Enumerate the intervals related to the given one.

    Supported here: A, B, Bbar, D, E, N. The relations with unboundedly
    many successors (A, Bbar, N) require max_len; B, D, E ignore it.
    Backward relations need history tracking and are evaluated only by
    the bounded oracle.
    """
    relation = _relation(relation)
    if relation in UNBOUNDED_RELATIONS and max_len is None:
        raise InputError(f"relation {relation.value} requires max_len")
    if relation not in FORWARD_RELATIONS:
        raise InputError(
            f"relation {relation.value} is history-dependent; use the bounded oracle"
        )
    n = len(configs)

    if relation == Relation.B:
        for k in range(1, n):
            yield configs[:k]
    elif relation == Relation.E:
        for j in range(n - 1, 0, -1):
            yield configs[j:]
    elif relation == Relation.D:
        seen: Set[Path] = set()
        for ln in range(1, max(n - 1, 0)):
            for c in sorted(configs[i : i + ln] for i in range(1, n - ln)):
                if c not in seen:
                    seen.add(c)
                    yield c
    else:
        prefix, starts = forward_frame(sys, configs, relation)
        for path in _paths_from(sys, starts, max_len - len(prefix)):
            yield prefix + path


# ---------------------------------------------------------------------------
# Epistemic structure


def epi_class(sys: InterpretedSystem, configs: Path, agent: int) -> Tuple[Path, ...]:
    """All valid intervals the agent cannot distinguish from this one, in
    lexicographic order: the layers extend sorted paths by sorted
    successors."""
    if not (0 <= agent < len(sys.agents)):
        raise InputError(f"agent index {agent} out of range")
    target = [g[agent] for g in configs]
    partial: List[Path] = [(g,) for g in sys.reachable if g[agent] == target[0]]
    for want in target[1:]:
        partial = [
            path + (nxt,)
            for path in partial
            for nxt in sys.successors(path[-1])
            if nxt[agent] == want
        ]
    return tuple(partial)


def common_class(sys: InterpretedSystem, configs: Path, group: Iterable[int]) -> Tuple[Path, ...]:
    """Closure of the interval under the epistemic classes of every
    agent in the group (the common-knowledge reachability set), in
    breadth-first order from the interval.

    Members an agent cannot tell apart share one class, so each class of
    each agent (one per local-state sequence) is built once, from the
    first of its members the walk reaches: built again from another
    member, it would add nothing."""
    agents = sorted(set(group))
    if not agents:
        raise InputError("agent group must be non-empty")
    seen = {configs}
    queue = [configs]
    built: Dict[int, Set[Path]] = {i: set() for i in agents}
    for current in queue:  # also visits what is appended on the way
        for i in agents:
            if current in built[i]:
                continue
            members = epi_class(sys, current, i)
            built[i].update(members)
            for other in members:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
    return tuple(queue)


# ---------------------------------------------------------------------------
# Warnings


def system_warnings(sys: InterpretedSystem) -> List[str]:
    """What is legal but probably unintended: a state that permits no
    action, and a label that accepts the empty word."""
    warnings: List[str] = []
    for idx, agent in enumerate(sys.agents):
        for state in agent.states:
            if not agent.protocol.get(state):
                warnings.append(
                    f"agent {agent.name or idx}: state {state!r} permits no action "
                    "(joint steps from it deadlock)"
                )
    for var, expr in sys.labelling.items():
        if denotes(expr, []):
            warnings.append(
                f"label {var}: accepts the empty word, which no interval can match"
            )
    return warnings


# ---------------------------------------------------------------------------
# Text format


class SystemParseError(InputError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_system(text: str) -> InterpretedSystem:
    """Parse the system description format.

    `agent NAME` opens an agent block (declaration order fixes agent
    indices, the first being the environment); inside it `states`,
    `init`, `actions`, `protocol STATE: a b`, and
    `trans SRC (a0,...,am) DST` lines. Top level: `config ALIAS = (...)`
    and `label VAR = REGEX`. '#' starts a comment. Each line but `trans`
    declares something once: a second `config` or `label` of one name,
    or a second `states`, `init`, `actions` or `protocol STATE` line in
    one agent block, is an error at the repeated line.
    """
    agents: List[dict] = []
    aliases: Dict[str, GlobalConfig] = {}
    label_lines: List[Tuple[str, str]] = []
    # "agent NAME" / "config ALIAS" / "label VAR" -> its line, so that a
    # construction violation, which names its subject, gets a line
    origin: Dict[str, int] = {}
    block: Dict[str, int] = {}  # the same for the lines of the open agent block

    def once(declared: Dict[str, int], subject: str, lineno: int) -> None:
        if subject in declared:
            raise SystemParseError(f"{subject} already declared at line {declared[subject]}",
                                   lineno)
        declared[subject] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "agent":
            if not rest:
                raise SystemParseError("agent needs a name", lineno)
            agents.append(
                {"name": rest, "states": (), "init": None, "actions": (),
                 "protocol": {}, "transitions": []}
            )
            origin[f"agent {rest}"] = lineno
            block = {}
        elif head in ("states", "init", "actions", "protocol", "trans"):
            if not agents:
                raise SystemParseError(f"{head!r} before any agent block", lineno)
            current = agents[-1]
            if head in ("states", "init", "actions"):
                once(block, f"agent {current['name']}: {head}", lineno)
            if head == "states":
                current["states"] = tuple(rest.split())
            elif head == "init":
                current["init"] = rest
            elif head == "actions":
                current["actions"] = tuple(rest.split())
            elif head == "protocol":
                state, colon, acts = rest.partition(":")
                if not colon:
                    raise SystemParseError("protocol needs 'STATE: actions'", lineno)
                once(block, f"agent {current['name']}: protocol {state.strip()}", lineno)
                current["protocol"][state.strip()] = tuple(acts.split())
            else:
                parts = rest.split()
                if len(parts) != 3 or not (
                    parts[1].startswith("(") and parts[1].endswith(")")
                ):
                    raise SystemParseError(
                        "trans needs 'SRC (a0,...,am) DST'", lineno
                    )
                pattern = tuple(s.strip() for s in parts[1][1:-1].split(","))
                current["transitions"].append((parts[0], pattern, parts[2]))
        elif head == "config":
            name, eq, value = rest.partition("=")
            value = value.strip()
            if not eq or not (value.startswith("(") and value.endswith(")")):
                raise SystemParseError("config needs 'ALIAS = (l0,...,lm)'", lineno)
            name = name.strip()
            once(origin, f"config {name}", lineno)
            aliases[name] = tuple(s.strip() for s in value[1:-1].split(","))
        elif head == "label":
            name, eq, value = rest.partition("=")
            if not eq:
                raise SystemParseError("label needs 'VAR = REGEX'", lineno)
            once(origin, f"label {name.strip()}", lineno)
            label_lines.append((name.strip(), value.strip()))
        else:
            raise SystemParseError(f"unknown directive {head!r}", lineno)

    for a in agents:
        if a["init"] is None:
            tag = f"agent {a['name']}"
            raise SystemParseError(f"{tag} has no init", origin[tag])
        a["transitions"] = tuple(a["transitions"])

    try:
        system = InterpretedSystem([LocalComponent(**a) for a in agents], {}, aliases)
        labelling: Dict[str, RegexExpr] = {}
        for var, expr_text in label_lines:
            try:
                labelling[var] = parse_regex(expr_text, system.alphabet, aliases)
            except InputError as exc:
                raise InputError(f"label {var}: {exc}") from exc
        return system.with_labelling(labelling)
    except InputError as exc:
        # the longest subject that starts the message: a bad name may hold ": "
        subject = max((s for s in origin if str(exc).startswith(s + ": ")), key=len, default="")
        raise SystemParseError(str(exc), origin.get(subject, 1)) from exc


def read_input(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read is an
    InputError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as e:
        raise InputError(f"{path}: {getattr(e, 'strerror', None) or e}") from None


def load_system(path: str) -> InterpretedSystem:
    """Parse a system file; a rejection names the path."""
    text = read_input(path)
    try:
        return parse_system(text)
    except InputError as e:
        e.args = (f"{path}: {e}",)
        raise


def format_system(sys: InterpretedSystem) -> str:
    """Serialize back to the text format (round-trips through parse_system)."""
    lines: List[str] = []
    for agent in sys.agents:
        lines.append(f"agent {agent.name}")
        lines.append(f"  states {' '.join(agent.states)}")
        lines.append(f"  init {agent.init}")
        lines.append(f"  actions {' '.join(agent.actions)}")
        for state in agent.states:
            acts = agent.protocol.get(state, ())
            if acts:
                lines.append(f"  protocol {state}: {' '.join(acts)}")
        for src, pattern, dst in agent.transitions:
            lines.append(f"  trans {src} ({','.join(pattern)}) {dst}")

    # Every configuration mentioned in a label needs a printable name;
    # single-agent systems cannot use inline tuples, so make aliases up.
    lines += [f"config {alias} = {symbol_text(cfg)}" for alias, cfg in sys.aliases.items()]
    by_symbol = {cfg: alias for alias, cfg in sys.aliases.items()}
    if len(sys.agents) == 1:
        fresh = 1
        for cfg in sorted(set().union(*map(symbols_of, sys.labelling.values())) - by_symbol.keys()):
            while f"cfg{fresh}" in sys.aliases:
                fresh += 1
            by_symbol[cfg] = f"cfg{fresh}"
            lines.append(f"config cfg{fresh} = {symbol_text(cfg)}")
            fresh += 1

    for var in sys.variables:
        text = regex_to_text(sys.labelling[var],
                             display=lambda s: by_symbol.get(s) or symbol_text(s))
        lines.append(f"label {var} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def tg_to_dot(sys: InterpretedSystem) -> str:
    """Reachable part of the global transition relation."""
    lines = ["digraph tg {", "  rankdir=LR;"]
    for g in sys.reachable:
        shape = "doublecircle" if g == sys.initial else "circle"
        lines.append(f'  "{sys.display(g)}" [shape={shape}];')
    for g in sys.reachable:
        for h in sys.successors(g):
            lines.append(f'  "{sys.display(g)}" -> "{sys.display(h)}";')
    lines.append("}")
    return "\n".join(lines)
