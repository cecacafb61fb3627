"""Generated command lines through `main`: whatever the input, the run
ends with a status of 0, 1, 2 or 3 and nothing escapes; status 2 writes
exactly one `error:` line and every other status none. Where the oracle
is exact (B/D/E formulas), a verdict must also be the oracle's."""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from ehsmc.cli import _build_parser, main
from ehsmc.errors import InputError
from ehsmc.formulas import (
    Fragment, format_formula, fragment_of, parse_plus, parse_re, variables_of,
)
from ehsmc.oracle import minimal_anchor, oracle_check
from ehsmc.systems import Interval, format_system, load_system, parse_system

from conftest import COMMA_SYS_TEXT, POINT_SYS_TEXT, data_path

IS_EX = data_path("is_ex.isrl")
with open(IS_EX) as fh:
    IS_EX_TEXT = fh.read()

# Names the running example has, mixed with a few it lacks; "²" and "٣"
# are digits to str.isdigit but name agents rather than index them
AGENTS = ["0", "1", "Env", "Proc", "0", "1", "Ghost", "²", "٣"]
VARIABLES = ["p", "p", "p", "zz"]
INTERVALS = ["g1", "g2", "g3", "g1,g2", "g2 g3 g1", "(l0,l1),g2", "", "gX", "g1,g3"]
RELATIONS = ["A", "B", "Bbar", "D", "E", "L", "N", "Abar", "O", "Q"]
ATOMS = ["{p T*}", "{!p ; (p)}", "{T zz*}", "{p"]

MALFORMED = {
    "no_init.isrl": "agent A\n  states s\n  actions go\n",
    "bad_arity.isrl": "agent A\n  states s\n  init s\n  actions go\n"
                      "  protocol s: go\n  trans s (go,go) s\n",
    "bad_label.isrl": "agent A\n  states s t\n  init s\n  actions go\n"
                      "  protocol s: go\n  trans s (go) t\nlabel p = s (\n",
    "deep_label.isrl": IS_EX_TEXT + "label q = " + "(" * 300 + "g1" + ")" * 300 + "\n",
    "binary.isrl": "\udcff\udcfe",
    "comma_states.isrl": COMMA_SYS_TEXT,
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding a point-based system and malformed systems."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "point.isrl").write_text(POINT_SYS_TEXT)
    for name, text in MALFORMED.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return root


def extend(inner, relations=RELATIONS, agents=AGENTS):
    return st.one_of(
        st.builds("!{}".format, inner),
        st.builds("({} {} {})".format, inner, st.sampled_from(["&", "|", "->"]), inner),
        st.builds("{}{}{} {}".format, st.sampled_from("<["), st.sampled_from(relations),
                  st.sampled_from(">]"), inner),
        st.builds("K{{{}}} {}".format, st.sampled_from(agents), inner),
        st.builds("C{{{}}} {}".format,
                  st.builds(str.join, st.sampled_from([",", ", "]),
                            st.lists(st.sampled_from(agents), min_size=1, max_size=2)),
                  inner),
    )


def formulas(atoms: bool, agents=AGENTS, variables=VARIABLES):
    """Formula text from a small grammar (regex atoms only when `atoms`),
    or one time in five junk. A leaf names a variable about as often as
    it is a constant or an atom."""
    leaves = st.one_of(st.sampled_from(variables),
                       st.sampled_from(["pi", "true", "false", *(ATOMS if atoms else [])]))
    grammar = st.recursive(leaves, lambda inner: extend(inner, agents=agents), max_leaves=3)
    junk = st.text(alphabet="pqz!&|-<>[]{}(),*+ KCAT015@²", min_size=1, max_size=12)
    return st.one_of(grammar, grammar, grammar, grammar, junk).map(
        lambda text: " " + text if text.startswith("-") else text  # not an option
    )


@st.composite
def command_lines(draw, systems, agents=AGENTS, variables=VARIABLES, intervals=INTERVALS):
    command = draw(st.sampled_from(
        ["check", "check", "oracle", "reduce", "classify", "stats", "export-dot"]))
    argv = [command, draw(st.sampled_from(systems))]
    logic = draw(st.sampled_from(["plus", "re"]))
    formula = draw(formulas(logic == "re", agents, variables))
    if command == "export-dot":
        argv.append(draw(st.sampled_from([
            "tg", "mystery", "mct:", f"automaton:{draw(st.sampled_from(variables))}",
            f"mct:{formula}:{draw(st.integers(-1, 3))}",
            f"mct:{formula}:{draw(st.integers(-1, 3))}",
        ])))
    elif command == "reduce":
        argv += [formula, "--direction", "to-re" if logic == "plus" else "to-plus"]
    elif command != "classify":
        argv.append(formula)
    if command not in ("reduce", "classify"):
        argv += ["--logic", logic]
    if command in ("check", "oracle", "export-dot") and draw(st.booleans()):
        argv += ["--interval", draw(st.sampled_from(intervals))]
    if command in ("check", "oracle") and draw(st.booleans()):
        argv += ["--bound", str(draw(st.integers(-3, 8)))]
    if command == "check" and draw(st.booleans()):
        argv += ["--frontier-ceiling", str(draw(st.integers(-2, 6)))]
    if command == "check":
        argv += draw(st.sampled_from(
            [[], ["--engine", "bde"], ["--engine", "abln"], ["--engine", "oracle"]]))
        argv += draw(st.sampled_from([[], ["--mode", "tight"], ["--all-initial"]]))
    if command != "reduce" and draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def bde_check_lines(draw, point):
    """`check` and `oracle` lines with a B/D/E modality over a formula on
    the system's own names, at intervals of one to four configurations."""
    system, agents, variables, intervals, logics = draw(st.sampled_from([
        (IS_EX, ["0", "1", "Env", "Proc"], ["p"],
         ["g1", "g2,g3", "g1,g2,g3", "g2 g3 g1", "g1,g2,g1,g2"], ["plus"]),
        (point, ["0", "P"], ["p", "q"], ["h", "n,h", "h,n,h", "n,h,n,h"], ["plus", "re"]),
    ]))
    formula = draw(st.sampled_from(["<B>", "<D>", "<E>", "[B]", "[D]", "[E]"])) + " " + draw(
        st.recursive(st.sampled_from(["pi", "true", "false", *variables]),
                     lambda inner: extend(inner, ["B", "D", "E"], agents), max_leaves=4))
    argv = [draw(st.sampled_from(["check", "oracle"])), system, formula,
            "--interval", draw(st.sampled_from(intervals)),
            "--logic", draw(st.sampled_from(logics))]
    if argv[0] == "check":
        argv += draw(st.sampled_from([[], ["--engine", "bde"], ["--engine", "oracle"]]))
    return argv


# Names for each part of a system, many of them outside ASCII. Those in
# REJECTED break the name rule where their pool puts them: they hold a
# character that is neither a word character nor '.', name an agent with
# ASCII digits (an index in K{...}), or spell a constant of the grammar
# that reads them. A state with ',', '(' or ')' would also let two
# configurations share one name.
AGENT_NAMES = ["²", "٣", "01", "é", "Ωμ", "x.y", "x-y", "_", "n'", "0"]
STATES = ["t", "ß", "s.1", "²", "é-2"]
BAD_STATES = ["s,s", "(s)"]
ACTIONS = ["go", "ĝo", "a.1", "²", "x-y"]
ALIASES = ["c0", "c.1", "c_2", "ĉ", "٣", "eps"]
VARIABLE_NAMES = ["p", "ṗ", "²", "v.1", "q-", "T", "true", "eps"]
REJECTED = {"01", "x-y", "n'", "0", "é-2", "eps", "q-", "T", "true"}


def names_from(pool):
    """A name of the pool, those in REJECTED a tenth as often as the others
    so that most drawn systems load."""
    return st.sampled_from([name for name in pool for _ in range(1 if name in REJECTED else 10)])


@st.composite
def named_systems(draw):
    """The text of a system of one or two agents whose names come from the
    pools above, with the names a command line may use on it."""
    agents = draw(st.lists(names_from(AGENT_NAMES), min_size=1, max_size=2, unique=True))
    # every agent has a state s: with "s,s" in two agents, two
    # configurations would both be named "(s,s,s)"
    states = [["s", *draw(st.lists(names_from(STATES), max_size=2, unique=True))]
              for _ in agents]
    # at most one bad state per agent, which nothing else names, drawn as
    # seldom as a rejected name
    bad = [draw(st.sampled_from([[]] * 10 + [[state] for state in BAD_STATES]))
           for _ in agents]
    actions = [draw(st.lists(names_from(ACTIONS), min_size=1, max_size=2, unique=True))
               for _ in agents]
    lines = []
    for name, own, extra, acts in zip(agents, states, bad, actions):
        lines += [f"agent {name}", "  states " + " ".join(own + extra),
                  f"  init {draw(st.sampled_from(own))}", "  actions " + " ".join(acts)]
        lines += [f"  protocol {state}: "
                  + " ".join(draw(st.lists(st.sampled_from(acts), max_size=2, unique=True)))
                  for state in own]
        for _ in range(draw(st.integers(0, 3))):
            pattern = ",".join(draw(st.sampled_from(["*", *slot])) for slot in actions)
            lines.append(f"  trans {draw(st.sampled_from(own))} ({pattern}) "
                         f"{draw(st.sampled_from(own))}")
    aliases = draw(st.lists(names_from(ALIASES), min_size=1, max_size=3, unique=True))
    for alias in aliases:
        config = ",".join(draw(st.sampled_from(own)) for own in states)
        lines.append(f"config {alias} = ({config})")
    variables = draw(st.lists(names_from(VARIABLE_NAMES), min_size=1, max_size=2, unique=True))
    for var in variables:
        first, second = draw(st.sampled_from(aliases)), draw(st.sampled_from(aliases))
        lines.append(f"label {var} = {first} ({second} + {first})*")
    names = {
        "agents": ["0", "1", *agents],
        "variables": [*variables, "p"],
        "intervals": [*aliases, ",".join(aliases), " ".join(reversed(aliases))],
    }
    return "\n".join(lines) + "\n", names


def check_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert code in (0, 1, 2, 3), argv
    assert len(errors) == (1 if code == 2 else 0), (argv, lines)
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    return code


def exact_status(argv):
    """The status the oracle gives a `check` or `oracle` line whose formula
    is in the B/D/E fragment, at the minimal anchoring with the bound equal
    to the anchored length. That bound is exact: no B/D/E subinterval
    reaches outside the interval (acceptance criterion 3). None for any
    other line."""
    args = _build_parser().parse_args(argv)
    if args.command not in ("check", "oracle") or args.all_initial:
        return None
    system = load_system(args.system)
    f = (parse_re if args.logic == "re" else parse_plus)(args.formula)
    if fragment_of(f) != Fragment.BDE:
        return None
    # commas and whitespace separate names, except inside a "(l0,l1)" tuple
    names = [name for name in re.split(r"[,\s]+(?![^()]*\))", args.interval or "") if name]
    interval = Interval(tuple(map(system.config_by_name, names)) or (system.initial,))
    anchored = minimal_anchor(system, interval)
    return 0 if oracle_check(system, anchored, f, anchored.total_length) else 1


def test_generated_formulas_and_options(root):
    compared = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=command_lines([IS_EX, str(root / "point.isrl")]))
    def run(argv):
        code = check_main(argv)
        if code in (0, 1) and (want := exact_status(argv)) is not None:
            assert code == want, argv
            compared.append(argv)

    run()
    assert len(compared) >= 10, compared


def test_generated_bde_lines_match_the_oracle(root):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argv=bde_check_lines(str(root / "point.isrl")))
    def run(argv):
        code = check_main(argv)
        if code != 2:  # a malformed modality such as "<B]"
            assert code == exact_status(argv), argv

    run()


def test_generated_unreadable_or_malformed_systems(root):
    bad = [str(root)] + [str(root / name) for name in [*MALFORMED, "missing.isrl"]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(argv=command_lines(bad))
    def run(argv):
        assert check_main(argv) == 2

    run()


def checked_formula(argv):
    """The parsed formula of a `check` or `oracle` line, else None."""
    args = _build_parser().parse_args(argv)
    if args.command not in ("check", "oracle"):
        return None
    return (parse_re if args.logic == "re" else parse_plus)(args.formula)


def test_generated_systems_with_unusual_names(root):
    """A system that loads prints and re-reads as itself, and so does a
    formula over its names; one that does not load is exit 2 whatever
    the command."""
    path = root / "named.isrl"
    compared, rejected, unusual, named = [], [], [], []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def run(data):
        text, names = data.draw(named_systems())
        path.write_text(text, encoding="utf-8")
        argv = data.draw(command_lines([str(path)], **names))
        code = check_main(argv)
        try:
            system = parse_system(text)
        except InputError:
            assert code == 2, (text, argv)
            rejected.append(text)
            return
        again = parse_system(format_system(system))
        assert again.all_configs == system.all_configs, text
        assert again.labelling == system.labelling, text
        assert all(again.successors(g) == system.successors(g) for g in system.all_configs)
        formula = data.draw(formulas(True, names["agents"], names["variables"]))
        for parse in (parse_plus, parse_re):
            try:
                f = parse(formula)
            except InputError:
                continue
            assert parse(format_formula(f)) == f, formula
        # and a B/D/E check over the variables the system declares
        own = ["check", str(path), data.draw(st.recursive(
            st.sampled_from(system.variables),
            lambda inner: extend(inner, ["B", "D", "E"], names["agents"]), max_leaves=3))]
        for line, status in ((argv, code), (own, check_main(own))):
            if status in (0, 1) and (want := exact_status(line)) is not None:
                assert status == want, (text, line)
                compared.append(line)
            checked = checked_formula(line) if status in (0, 1) else None
            if checked is not None and any("." in var or not var.isascii() for var in variables_of(checked)):
                unusual.append(line)
            if checked is not None and variables_of(checked) and line is argv:
                named.append(line)

    run()
    assert len(compared) >= 10, compared
    assert rejected and unusual and named, (rejected, unusual, named)
