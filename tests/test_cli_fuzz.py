"""Generated command lines through `main`: whatever the input, the run
ends with a status of 0, 1, 2 or 3 and nothing escapes; status 2 writes
exactly one `error:` line and every other status none."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from ehsmc.cli import main

from conftest import POINT_SYS_TEXT, data_path

IS_EX = data_path("is_ex.isrl")
with open(IS_EX) as fh:
    IS_EX_TEXT = fh.read()

# Names the running example has, mixed with a few it lacks
AGENTS = ["0", "1", "Env", "Proc", "0", "1", "Ghost"]
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
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding a point-based system and malformed systems."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "point.isrl").write_text(POINT_SYS_TEXT)
    for name, text in MALFORMED.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return root


def extend(inner):
    return st.one_of(
        st.builds("!{}".format, inner),
        st.builds("({} {} {})".format, inner, st.sampled_from(["&", "|", "->"]), inner),
        st.builds("{}{}{} {}".format, st.sampled_from("<["), st.sampled_from(RELATIONS),
                  st.sampled_from(">]"), inner),
        st.builds("K{{{}}} {}".format, st.sampled_from(AGENTS), inner),
        st.builds("C{{{}}} {}".format,
                  st.lists(st.sampled_from(AGENTS), min_size=1, max_size=2).map(",".join),
                  inner),
    )


def formulas(atoms: bool):
    """Formula text from a small grammar (regex atoms only when `atoms`),
    or one time in five junk."""
    leaves = st.sampled_from(["pi", "true", "false", *VARIABLES, *(ATOMS if atoms else [])])
    grammar = st.recursive(leaves, extend, max_leaves=3)
    junk = st.text(alphabet="pqz!&|-<>[]{}(),*+ KCAT015@", min_size=1, max_size=12)
    return st.one_of(grammar, grammar, grammar, grammar, junk).map(
        lambda text: " " + text if text.startswith("-") else text  # not an option
    )


@st.composite
def command_lines(draw, systems):
    command = draw(st.sampled_from(
        ["check", "check", "oracle", "reduce", "classify", "stats", "export-dot"]))
    argv = [command, draw(st.sampled_from(systems))]
    logic = draw(st.sampled_from(["plus", "re"]))
    formula = draw(formulas(atoms=logic == "re"))
    if command == "export-dot":
        argv.append(draw(st.sampled_from([
            "tg", "mystery", "mct:", f"automaton:{draw(st.sampled_from(VARIABLES))}",
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
        argv += ["--interval", draw(st.sampled_from(INTERVALS))]
    if command in ("check", "oracle") and draw(st.booleans()):
        argv += ["--bound", str(draw(st.integers(-3, 8)))]
    if command == "check":
        argv += draw(st.sampled_from(
            [[], ["--engine", "bde"], ["--engine", "abln"], ["--engine", "oracle"]]))
        argv += draw(st.sampled_from([[], ["--mode", "tight"], ["--all-initial"]]))
    if command != "reduce" and draw(st.booleans()):
        argv.append("--json")
    return argv


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


def test_generated_formulas_and_options(root):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=command_lines([IS_EX, str(root / "point.isrl")]))
    def run(argv):
        check_main(argv)

    run()


def test_generated_unreadable_or_malformed_systems(root):
    bad = [str(root)] + [str(root / name) for name in [*MALFORMED, "missing.isrl"]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(argv=command_lines(bad))
    def run(argv):
        assert check_main(argv) == 2

    run()
