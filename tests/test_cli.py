"""Command-line interface: golden exit statuses and deterministic reports."""

import json
import os
import subprocess
import sys

import pytest

import ehsmc
from ehsmc.cli import main
from ehsmc.formulas import MAX_FORMULA_DEPTH

from conftest import COMMA_SYS_TEXT, POINT_SYS_TEXT, data_path
from genutil import ring_text

IS_EX = data_path("is_ex.isrl")
DATA_DIR = os.path.dirname(IS_EX)
with open(IS_EX) as fh:
    IS_EX_TEXT = fh.read()


@pytest.fixture()
def point_file(tmp_path):
    path = tmp_path / "point.isrl"
    path.write_text(POINT_SYS_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **env):
    """`python -m ehsmc.cli ARGV` in a fresh interpreter, with extra
    environment variables."""
    src = os.path.dirname(os.path.dirname(ehsmc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ehsmc.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


# B cannot tell c0 from c1: <L> p fails outright at the deadlocked c1 and
# needs an infeasible bounded search at c0, so the status of K{1} <L> p
# and C{0,1} <L> p follows whichever member of the class is visited first
HASH_SEED_SYS_TEXT = """\
agent A
  states s0 s1 s2
  init s0
  actions a1 a2
  protocol s0: a1 a2
  trans s0 (a1,go) s1
  trans s0 (a2,go) s0
agent B
  states d
  init d
  actions go
  protocol d: go
  trans d (*,go) d
config c0 = (s0,d)
config c1 = (s1,d)
config c2 = (s2,d)
label p = (c1 + c2)*
"""


class TestCheckExits:
    def test_failing_conjunction_is_exit_1_conclusive(self, capsys):
        code, out, _ = run(capsys, "check", IS_EX, "K{0} pi & !(<A> p)")
        assert code == 1
        assert "verdict: fails" in out and "regime: Conclusive" in out

    def test_holding_formula_is_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", IS_EX, "<A> p")
        assert code == 0
        assert "verdict: holds" in out

    def test_malformed_regex_is_exit_2_with_position(self, capsys):
        code, _, err = run(capsys, "check", IS_EX, "{p", "--logic", "re")
        assert code == 2
        assert "position" in err

    def test_mixed_fragment_suggests_oracle(self, capsys):
        code, _, err = run(capsys, "check", IS_EX, "<A> p & <B> p")
        assert code == 2
        assert "oracle" in err

    def test_auto_routes_by_fragment(self, capsys):
        _, out, _ = run(capsys, "check", IS_EX, "<B> p", "--json")
        assert json.loads(out)["engine"] == "bde"
        _, out, _ = run(capsys, "check", IS_EX, "<A> p", "--json")
        assert json.loads(out)["engine"] == "abln"

    def test_bounded_verdict_is_exit_3(self, capsys):
        # no interval met by g1 satisfies [A] p within the cap, and the
        # cap is below the exact bound: false, but only bounded
        code, out, _ = run(
            capsys, "check", IS_EX, "<A> [A] p", "--engine", "abln",
            "--bound", "3", "--json",
        )
        assert code == 3
        report = json.loads(out)
        assert report["holds"] is False
        assert report["regime"] == "BoundedAt(3)"

    def test_infeasible_literal_bound_is_exit_3(self, capsys):
        code, out, _ = run(capsys, "check", IS_EX, "<A> <A> p", "--engine", "abln")
        assert code == 3
        assert "infeasible" in out

    def test_interval_flag_and_validation(self, capsys):
        code, _, _ = run(capsys, "check", IS_EX, "p", "--interval", "g1,g2,g3")
        assert code == 0
        code, _, err = run(capsys, "check", IS_EX, "p", "--interval", "g1,g3")
        assert code == 2
        code, _, err = run(capsys, "check", IS_EX, "p", "--interval", "gX")
        assert code == 2 and "gX" in err

    def test_interval_tuple_may_hold_spaces(self, capsys):
        # a label reads "(l0, l1)" as the tuple g1 names; so does --interval
        for formula in ("p", "pi"):
            expected = run(capsys, "check", IS_EX, formula, "--interval", "g1", "--json")
            got = run(capsys, "check", IS_EX, formula, "--interval", "(l0, l1)", "--json")
            assert got == expected

    def test_interval_reads_configuration_tuples(self, capsys, tmp_path):
        # a 2-counter ring without config aliases: only tuples name its
        # configurations, and a comma inside one does not separate names
        agents = ring_text(2, (0, 0)).split("config ", 1)[0]
        path = tmp_path / "ring.isrl"
        path.write_text(agents + "label inl = (e,c0,c0) (e,c1,c0)\n")
        for text, status in [("(e,c0,c0),(e,c1,c0)", 0), ("(e,c0,c0) , (e,c1,c0)", 0),
                             ("(e,c0,c0)", 1)]:
            code, _, _ = run(capsys, "check", str(path), "inl", "--interval", text)
            assert code == status, text
        code, out, err = run(capsys, "check", str(path), "inl", "--interval", "(e,c0")
        assert (code, out) == (2, "")
        assert err.count("error:") == 1 and err.startswith("error: ")

    def test_all_initial_wraps_in_box(self, capsys):
        code, _, _ = run(capsys, "check", IS_EX, "p | !p", "--all-initial")
        assert code == 0
        # [A] pi fails conclusively: some meets-successor is not a point
        code, _, _ = run(capsys, "check", IS_EX, "pi", "--all-initial")
        assert code == 1

    def test_oracle_subcommand_is_check_with_oracle_engine(self, capsys):
        code, out, _ = run(capsys, "oracle", IS_EX, "<B> p",
                           "--interval", "g1,g2,g3", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["engine"] == "oracle"
        assert report["regime"] == "Conclusive"

    def test_oracle_outside_fragments_is_bounded(self, capsys):
        code, out, _ = run(capsys, "oracle", IS_EX, "<A> p & <B> p", "--json")
        assert code == 3
        assert json.loads(out)["regime"].startswith("BoundedAt")

    def test_missing_system_file(self, capsys):
        code, _, err = run(capsys, "check", "nowhere.isrl", "p")
        assert code == 2 and "nowhere.isrl" in err

    # "²" passes str.isdigit but is no index: it names an agent
    @pytest.mark.parametrize("formula", ["K{5} p", "C{0,7} p", "K{Nobody} p", "K{²} p"])
    def test_unknown_agent_is_exit_2(self, capsys, formula):
        code, out, err = run(capsys, "check", IS_EX, formula)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "agent" in err

    def test_spaces_in_an_agent_set(self, capsys):
        # the --json report carries no elapsed time, so two runs compare whole
        spaced = run(capsys, "check", IS_EX, "C{0, 1} p", "--json")
        assert spaced == run(capsys, "check", IS_EX, "C{0,1} p", "--json")
        assert spaced[0] == 1 and json.loads(spaced[1])["formula"] == "C{0,1} p"

    @pytest.mark.parametrize("formula", ["C{0,1} <L> p", "K{1} <L> p"])
    def test_class_order_does_not_depend_on_string_hashing(self, tmp_path, formula):
        path = tmp_path / "hash.isrl"
        path.write_text(HASH_SEED_SYS_TEXT)
        codes = {
            run_process("check", str(path), formula, "--interval", "c0",
                        PYTHONHASHSEED=str(seed)).returncode
            for seed in range(1, 7)
        }
        assert len(codes) == 1 and codes <= {0, 1, 3}

    @pytest.mark.parametrize("formula", ["zz", "<B> zz"])
    def test_unknown_variable_is_exit_2(self, capsys, formula):
        # <B> zz at the point interval would vacuously fail without the
        # check, since a point has no begins-subinterval.
        code, out, err = run(capsys, "check", IS_EX, formula, "--interval", "g1,g2,g3")
        assert code == 2 and out == ""
        assert err == "error: formula: unknown variable 'zz'\n"
        code, _, err = run(capsys, "check", IS_EX, formula)
        assert code == 2 and "'zz'" in err

    def test_unknown_predicate_variable_is_exit_2(self, capsys, point_file):
        code, _, err = run(capsys, "check", point_file, "{r ; T}", "--logic", "re")
        assert code == 2 and err == "error: formula: unknown variable 'r'\n"

    def test_json_output_is_deterministic(self, capsys):
        first = run(capsys, "check", IS_EX, "<A> p", "--json")
        second = run(capsys, "check", IS_EX, "<A> p", "--json")
        assert first == second
        assert "elapsed" not in first[1]


class TestInputErrors:
    """Bad input of every command exits 2 with one line and no output."""

    @pytest.mark.parametrize("argv", [
        ["check", DATA_DIR, "p"],
        ["classify", DATA_DIR],
        ["export-dot", DATA_DIR, "tg"],
        ["oracle", IS_EX, "<A> p", "--bound", "-5"],
        ["check", IS_EX, "<A> p", "--engine", "abln", "--bound", "0"],
        ["check", IS_EX, "<A> K{0} p", "--frontier-ceiling", "0"],
        ["check", IS_EX, "<A> p", "--bound", "2", "--frontier-ceiling", "-4"],
        ["reduce", IS_EX, "K{9} p", "--direction", "to-re"],
        ["reduce", IS_EX, "{T zz}", "--direction", "to-plus"],
        ["export-dot", IS_EX, "mct:K{Ghost} p:2"],
        ["export-dot", IS_EX, "mct:<A> p:0"],
        ["export-dot", IS_EX, "automaton:zz"],
    ])
    def test_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["reduce", IS_EX, "zz", "--direction", "to-re"],
        ["export-dot", IS_EX, "mct:<A> zz:2"],
    ])
    def test_unknown_variable_outside_check(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: formula: unknown variable 'zz'\n"

    def test_entry_point_reports_without_traceback(self, tmp_path):
        proc = run_process("check", str(tmp_path), "p")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {tmp_path}: ")
        assert proc.stderr.count("\n") == 1


class TestReduce:
    def test_to_re_emits_point_based_system(self, capsys):
        code, out, _ = run(capsys, "reduce", IS_EX, "p", "--direction", "to-re")
        assert code == 0
        assert "label v_g1 = g1" in out
        assert "formula: {v_g1 (v_g1 + v_g2)* v_g3}" in out

    def test_to_plus_requires_point_based(self, capsys):
        code, _, err = run(capsys, "reduce", IS_EX, "{p T*}",
                           "--direction", "to-plus")
        assert code == 2 and "not point-based" in err

    def test_to_plus_on_point_based_system(self, capsys, point_file):
        code, out, _ = run(capsys, "reduce", point_file, "{p T*}",
                           "--direction", "to-plus")
        assert code == 0
        assert "label q_" in out

    def test_point_formula_unchanged(self, capsys):
        code, out, _ = run(capsys, "reduce", IS_EX, "pi", "--direction", "to-re")
        assert code == 0 and "formula: pi" in out

    def test_out_prefix_writes_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "translated")
        code, _, _ = run(capsys, "reduce", IS_EX, "p", "--direction", "to-re",
                         "--out", prefix)
        assert code == 0
        sys_text = open(prefix + ".isrl").read()
        formula_text = open(prefix + ".formula").read()
        assert "label v_g3 = g3" in sys_text
        assert formula_text.strip().startswith("{v_g1")


class TestStatsAndClassify:
    def test_stats_running_example(self, capsys):
        code, out, _ = run(capsys, "stats", IS_EX, "p")
        assert code == 0
        assert "configurations: 3" in out
        assert "variable p: 4 dfa states" in out
        assert "interval-type bound: 288" in out
        assert "interval-type bound (tight): 73" in out
        assert "fragment: BDE" in out

    @pytest.mark.parametrize("formula", ["K{5} p", "zz"])
    def test_stats_rejects_unknown_names(self, capsys, formula):
        code, out, err = run(capsys, "stats", IS_EX, formula)
        assert code == 2 and out == "" and err.startswith("error: formula: ")

    def test_stats_scientific_form_for_huge_bounds(self, capsys):
        code, out, _ = run(capsys, "stats", IS_EX, "<A> p", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["interval_type_bound"] == "1.432291e+89"
        assert report["interval_type_bound_tight"] == "6.800208e+23"
        assert report["fragment"] == "ABLN"

    def test_stats_undefined_bound_outside_abln(self, capsys):
        code, out, _ = run(capsys, "stats", IS_EX, "<B> p")
        assert code == 0 and "undefined" in out

    def test_classify(self, capsys, point_file):
        code, out, _ = run(capsys, "classify", IS_EX)
        assert code == 0 and "p: General" in out
        code, out, _ = run(capsys, "classify", point_file)
        assert code == 0
        assert "p: PointBased" in out and "q: PointBased" in out


class TestExportDot:
    def test_transition_graph(self, capsys):
        code, out, _ = run(capsys, "export-dot", IS_EX, "tg")
        assert code == 0
        assert out.count("->") == 4
        for name in ("g1", "g2", "g3"):
            assert name in out

    def test_labelling_automaton(self, capsys):
        code, out, _ = run(capsys, "export-dot", IS_EX, "automaton:p")
        assert code == 0
        for state in ("z1", "z2", "z3", "zbot"):
            assert state in out

    def test_unknown_variable(self, capsys):
        code, _, err = run(capsys, "export-dot", IS_EX, "automaton:zz")
        assert code == 2

    def test_mct_export(self, capsys):
        code, out, _ = run(
            capsys, "export-dot", IS_EX, "mct:K{0} pi & !(<A> p):5"
        )
        assert code == 0
        assert out.count('label="K{0} pi"') == 3
        assert out.count('label="<A> p"') == 6
        assert "(g1, g3, !pi | p:z3)" in out

    def test_mct_export_does_not_depend_on_string_hashing(self):
        # subtrees that tie on their own label differ below it
        outputs = {
            run_process("export-dot", IS_EX, "mct:<N> K{0} p:3",
                        PYTHONHASHSEED=str(seed)).stdout
            for seed in range(4, 10)
        }
        assert len(outputs) == 1 and outputs.pop().startswith("digraph mct {")

    def test_unknown_target(self, capsys):
        code, _, _ = run(capsys, "export-dot", IS_EX, "mystery")
        assert code == 2


class TestFormulaFiles:
    def test_argument_naming_a_file_is_formula_text(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p").write_text("<A> p\n")
        code, out, _ = run(capsys, "check", IS_EX, "p", "--json")
        assert code == 1 and json.loads(out)["formula"] == "p"
        code, out, _ = run(capsys, "check", IS_EX, "@p", "--json")
        assert code == 0 and json.loads(out)["formula"] == "<A> p"

    def test_missing_formula_file_is_exit_2(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.formula")
        code, out, err = run(capsys, "check", IS_EX, "@" + missing)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and missing in err

    def test_stats_requires_a_formula(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", IS_EX])
        assert exc.value.code == 2


class TestSystemValidation:
    ONE_AGENT = """\
agent Solo
  states s t
  init s
  actions go
  protocol s: go
  protocol t: go
  trans s (go,go) t
config cs = (s)
config ct = (t)
label p = ct
"""

    def test_violation_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "arity.isrl"
        path.write_text(self.ONE_AGENT)
        code, out, err = run(capsys, "check", str(path), "<N> p")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "arity 2, expected 1" in err

    @pytest.mark.parametrize("text", [
        # the duplicate makes two equal configurations
        IS_EX_TEXT.replace("states l1 l2 l3", "states l1 l2 l2 l3"),
        # no state of Env is the initial one
        IS_EX_TEXT.replace("init l0", "init zz"),
        "\xff\xfe agent",
        # 'a,b' and 'b,c' would give two configurations the name (a,b,c)
        COMMA_SYS_TEXT,
    ])
    def test_malformed_file_is_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "malformed.isrl"
        path.write_bytes(text.encode("latin-1"))
        code, out, err = run(capsys, "check", str(path), "p")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    # Each declares a name the formula or label would misread; loaded
    # unchecked, each line below answered 0 or 1 on the misreading
    @pytest.mark.parametrize("text, argv, line, message", [
        # K{01} reads agent 1, not the agent named 01
        (IS_EX_TEXT.replace("agent Env", "agent 01"), ["K{01} p"], 2,
         "agent 01: '01' would read as an agent index"),
        # the label q = eps reads the empty word, not the alias
        (IS_EX_TEXT + "config eps = (l0,l1)\nlabel q = eps\n", ["q", "--interval", "g1"],
         IS_EX_TEXT.count("\n") + 1, "config eps: 'eps' is reserved"),
        # the formula true reads the constant, not the variable
        (IS_EX_TEXT + "label true = g2\n", ["true", "--interval", "g1"],
         IS_EX_TEXT.count("\n") + 1, "label true: 'true' is reserved"),
        # the atom T reads any letter, not the variable
        (POINT_SYS_TEXT + "label T = h\n", ["T", "--logic", "re", "--interval", "n"],
         POINT_SYS_TEXT.count("\n") + 1, "label T: 'T' is reserved"),
        # the atom {eps} reads the empty word, not the variable
        (POINT_SYS_TEXT + "label eps = n\n", ["{eps}", "--logic", "re", "--interval", "n"],
         POINT_SYS_TEXT.count("\n") + 1, "label eps: 'eps' is reserved"),
    ])
    def test_name_the_grammars_misread_is_exit_2(self, capsys, tmp_path, text, argv, line,
                                                 message):
        path = tmp_path / "misread.isrl"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line {line}: {message}\n"

    def test_repeated_declaration_is_exit_2(self, capsys, tmp_path):
        # loaded with the later copies winning, q read g2 and held at g2,
        # and p read (l0,l2) ((l0,l2) + (l0,l2))* (l0,l3)
        path = tmp_path / "repeated.isrl"
        path.write_text(IS_EX_TEXT + "label q = g1\nlabel q = g2\nconfig g1 = (l0,l2)\n")
        code, out, err = run(capsys, "check", str(path), "q", "--interval", "g2")
        assert (code, out) == (2, "")
        line = IS_EX_TEXT.count("\n") + 2
        assert err == f"error: {path}: line {line}: label q already declared at line {line - 1}\n"

    def test_warnings_go_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "deadlock.isrl"
        path.write_text(self.ONE_AGENT.replace("(go,go)", "(go)").replace(
            "  protocol t: go\n", ""))
        code, out, err = run(capsys, "check", str(path), "<N> p")
        assert code == 0 and "verdict: holds" in out
        assert err == "warning: agent Solo: state 't' permits no action " \
            "(joint steps from it deadlock)\n"


def nested(connective: str, depth: int) -> str:
    """`depth` nested uses of one connective over the variable p."""
    if connective in ("&", "|", "->"):
        return f" {connective} ".join(["p"] * (depth + 1))
    return f"{connective} " * depth + "p"


BOOLEAN = ["!", "&", "|", "->", "K{0}", "C{0,1}"]
SHRINKING = ["<B>", "[B]", "<D>", "[D]", "<E>", "[E]"]
GROWING = ["<A>", "[A]", "<Bbar>", "[Bbar]", "<N>", "[N]", "<L>", "[L]"]
ENGINES = {
    "bde": ["--engine", "bde"],
    "abln": ["--engine", "abln"],
    "abln-user": ["--engine", "abln", "--bound", "2"],
    "oracle": ["--engine", "oracle"],
}


class TestLargeInputs:
    @pytest.fixture()
    def long_word(self, tmp_path):
        # a label that is one word of 1,200 letters
        path = tmp_path / "long.isrl"
        with open(IS_EX) as fh:
            path.write_text(fh.read() + "label q = " + " ".join(["g1"] * 1200) + "\n")
        return str(path)

    def test_long_concatenation_label(self, capsys, long_word):
        code, out, _ = run(capsys, "check", long_word, "q")
        assert code == 1 and "verdict: fails" in out
        code, out, _ = run(capsys, "classify", long_word)
        assert code == 0 and "q: General" in out

    @pytest.mark.parametrize("engine,connective", [
        (engine, c) for c in BOOLEAN for engine in ENGINES
    ] + [
        (engine, c) for c in SHRINKING for engine in ("bde", "oracle")
    ] + [
        (engine, c) for c in GROWING for engine in ("abln", "abln-user", "oracle")
    ])
    def test_every_engine_answers_at_the_nesting_limit(self, capsys, engine, connective):
        formula = nested(connective, MAX_FORMULA_DEPTH)
        code, out, err = run(capsys, "check", IS_EX, formula, *ENGINES[engine])
        assert code in (0, 1, 3) and err == ""

    def test_parentheses_at_the_nesting_limit(self, capsys):
        formula = "(" * MAX_FORMULA_DEPTH + "p" + ")" * MAX_FORMULA_DEPTH
        code, out, err = run(capsys, "check", IS_EX, formula)
        assert code == 1 and "verdict: fails" in out and err == ""

    @pytest.mark.parametrize("formula", [
        nested(c, MAX_FORMULA_DEPTH + 1) for c in BOOLEAN + SHRINKING + GROWING
    ] + ["(" * (MAX_FORMULA_DEPTH + 1) + "p" + ")" * (MAX_FORMULA_DEPTH + 1),
         "!" * 2000 + "p", " & ".join(["p"] * 1500), "<B>" * 600 + "p"])
    def test_one_level_deeper_is_exit_2(self, capsys, formula):
        code, out, err = run(capsys, "check", IS_EX, formula)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "nested deeper than" in err


def with_label(tmp_path, regex: str) -> str:
    """The running example plus `label q = REGEX`."""
    path = tmp_path / "labelled.isrl"
    path.write_text(IS_EX_TEXT + f"label q = {regex}\n")
    return str(path)


class TestDeepRegexes:
    @pytest.mark.parametrize("regex", ["(" * 400 + "g1" + ")" * 400, "g1" + "*" * 2000])
    @pytest.mark.parametrize("argv", [
        ["check", "SYSTEM", "q"],
        ["classify", "SYSTEM"],
        ["reduce", "SYSTEM", "q", "--direction", "to-re"],
    ])
    def test_deep_label_is_exit_2(self, capsys, tmp_path, regex, argv):
        path = with_label(tmp_path, regex)
        code, out, err = run(capsys, *[path if arg == "SYSTEM" else arg for arg in argv])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "label q: nested deeper than" in err

    def test_long_star_chain_label(self, capsys, tmp_path):
        # 1,200 starred items: the empty-word check on load walks the chain
        path = with_label(tmp_path, " ".join(["g1*"] * 1200))
        code, out, err = run(capsys, "check", path, "q")
        assert code == 0 and "verdict: holds" in out
        assert err == "warning: label q: accepts the empty word, which no interval can match\n"

    def test_oracle_on_long_star_chain_label(self, capsys, tmp_path):
        # the oracle's derivatives follow the 1,200-item chain in a loop
        path = with_label(tmp_path, " ".join(["g1*"] * 1200))
        code, out, err = run(capsys, "oracle", path, "q")
        assert code == 0 and "verdict: holds" in out
        assert err == "warning: label q: accepts the empty word, which no interval can match\n"

    def test_oracle_on_large_ring_union(self, capsys, tmp_path):
        # label `all` is the star of a 2,187-name union
        path = tmp_path / "ring7.isrl"
        path.write_text(ring_text(7, [1] * 7))
        code, out, err = run(capsys, "oracle", str(path), "all")
        assert code == 0 and "verdict: holds" in out
        assert err == "warning: label all: accepts the empty word, which no interval can match\n"

    def test_reduce_long_word_label(self, capsys, tmp_path):
        path = with_label(tmp_path, " ".join(["g1"] * 1200))
        code, out, err = run(capsys, "reduce", path, "q", "--direction", "to-re")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "formula: {" + " ".join(["v_g1"] * 1200) + "}"

    def test_deep_regex_atom_is_exit_2(self, capsys):
        formula = "{" + "(" * 400 + "p" + ")" * 400 + "}"
        code, out, err = run(capsys, "check", IS_EX, formula, "--logic", "re")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "nested deeper than" in err

    @pytest.mark.parametrize("outer, inner", [(100, 100), (50, 51), (1, MAX_FORMULA_DEPTH)])
    def test_atom_parentheses_count_toward_formula_depth(self, capsys, outer, inner):
        formula = "(" * outer + "{" + "(" * inner + "p" + ")" * inner + "}" + ")" * outer
        code, out, err = run(capsys, "check", IS_EX, formula, "--logic", "re")
        assert code == 2 and out == ""
        assert err == f"error: formula: nested deeper than {MAX_FORMULA_DEPTH} levels " \
                      f"(at position {outer})\n"

    def test_atom_parentheses_within_formula_depth(self, capsys, point_file):
        formula = "(" * 50 + "{" + "(" * 50 + "p" + ")" * 50 + "}" + ")" * 50
        code, out, err = run(capsys, "check", point_file, formula, "--logic", "re")
        assert code == 0 and "verdict: holds" in out and err == ""
