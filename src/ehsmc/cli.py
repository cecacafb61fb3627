"""Command-line front end.

Subcommands: `check` (dispatch a formula to an engine and report the
verdict), `oracle` (check with the enumerating reference engine),
`reduce` (translate between the variable and regex-atom surface
logics), `classify` (per-variable labelling shapes), `stats` (sizes,
fragments and interval-type bounds), `export-dot` (transition graph,
labelling automata, modal context trees).

Exit statuses: 0 the formula holds conclusively, 1 it fails
conclusively, 2 invalid input (any `InputError`, or a file that cannot
be read or written; `main` is the one place that maps them), 3 bounded
or infeasible results (a BoundedAt verdict is reported but not trusted
as final).
"""

from __future__ import annotations

import argparse
import json
import re
import sys as _sys
import time
from typing import List, Optional, Sequence, Tuple

from .abln import (
    DEFAULT_FRONTIER_CEILING,
    LITERAL_BOUND,
    TIGHT_BOUND,
    BoundInfeasibleError,
    Verdict,
    check_abln,
    compute_mct,
    mct_to_dot,
    user_bound,
)
from .bde import check_bde
from .errors import InputError
from .formulas import (
    Box,
    Formula,
    Fragment,
    FragmentError,
    fis_bound,
    format_formula,
    fragment_of,
    parse_plus,
    parse_re,
    resolve_agents,
    tight_bound,
)
from .oracle import minimal_anchor, oracle_check
from .reductions import to_point_based, to_regular_labelling
from .regexes import dfa_to_dot, language_shape
from .systems import (
    Interval,
    Relation,
    format_system,
    load_system,
    parse_system,
    read_input,
    system_warnings,
    tg_to_dot,
    validate_interval,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_BOUNDED = 3

_DISPLAY_CAP = 10**300

# commas and whitespace separate --interval names, except inside "(l0,l1)"
_INTERVAL_SEPARATOR = re.compile(r"[\s,]+(?![^()]*\))")


def _load(path: str):
    """Load a system; its warnings go to stderr."""
    system = load_system(path)
    for warning in system_warnings(system):
        print(f"warning: {warning}", file=_sys.stderr)
    return system


def _formula(system, arg: str, logic: str) -> Formula:
    """Formula text, or the contents of the file named after an `@`,
    parsed and checked against the system's agents and variables before
    any engine sees it."""
    try:
        text = read_input(arg[1:]).strip() if arg.startswith("@") else arg
        f = (parse_re if logic == "re" else parse_plus)(text)
        resolve_agents(system, f)
    except InputError as e:
        raise InputError(f"formula: {e}") from None
    return f


def _interval(system, text: Optional[str]) -> Interval:
    if text is None:
        return Interval((system.initial,))
    names = [n for n in _INTERVAL_SEPARATOR.split(text) if n]
    if not names:
        raise InputError("--interval needs at least one configuration")
    interval = Interval(tuple(system.config_by_name(name) for name in names))
    validate_interval(system, interval)
    return interval


def _bound_display(n: int) -> str:
    if n >= _DISPLAY_CAP:
        return ">= 1e300"
    if n < 10**6:
        return str(n)
    return f"{float(n):.6e}"


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# check / oracle

def _pick_engine(f: Formula, engine: str) -> str:
    if engine != "auto":
        return engine
    fragment = fragment_of(f)
    if fragment == Fragment.BDE:
        return "bde"
    if fragment == Fragment.ABLN:
        return "abln"
    raise InputError(
        "formula is outside both decidable fragments; use --engine oracle"
    )


def _abln_mode(args):
    if args.bound is not None and args.mode is not None:
        raise InputError("--bound and --mode are mutually exclusive")
    if args.bound is not None:
        return user_bound(args.bound), f"user {args.bound}"
    if args.mode == "tight":
        return TIGHT_BOUND, "tight"
    return LITERAL_BOUND, "literal"


def cmd_check(args) -> int:
    system = _load(args.system)
    f = _formula(system, args.formula, args.logic)
    interval = _interval(system, args.interval)
    if args.all_initial:
        interval = Interval((system.initial,))
        f = Box(Relation.A, f)

    engine = args.engine
    if engine != "oracle" and args.logic == "re":
        try:
            system, f = to_regular_labelling(system, f)
        except InputError as e:
            raise InputError(
                f"{e}; regex atoms over a general labelling need --engine oracle"
            ) from None
    engine = _pick_engine(f, engine)

    started = time.perf_counter()
    bound_text = "exact"
    try:
        if engine == "bde":
            holds = check_bde(system, interval, f)
            verdict = Verdict(holds)
        elif engine == "abln":
            mode, bound_text = _abln_mode(args)
            verdict = check_abln(
                system, interval, f, mode, frontier_ceiling=args.frontier_ceiling
            )
        else:
            aI = minimal_anchor(system, interval)
            slack = args.bound if args.bound is not None else 6
            total = aI.total_length + slack
            holds = oracle_check(system, aI, f, total)
            bound_text = f"anchored enumeration to {total}"
            if fragment_of(f) == Fragment.BDE:
                verdict = Verdict(holds)
            else:
                verdict = Verdict(holds, bounded_at=total)
    except BoundInfeasibleError as e:
        _emit(
            args,
            {"error": "bound-infeasible", "estimate_over": e.ceiling},
            [f"bound infeasible: {e}"],
        )
        return EXIT_BOUNDED
    elapsed = time.perf_counter() - started

    status = EXIT_HOLDS if verdict.holds else EXIT_FAILS
    if not verdict.conclusive:
        status = EXIT_BOUNDED
    payload = {
        "holds": verdict.holds,
        "regime": verdict.regime,
        "engine": engine,
        "bound": bound_text,
        "formula": format_formula(f),
    }
    lines = [
        f"verdict: {'holds' if verdict.holds else 'fails'}",
        f"regime: {verdict.regime}",
        f"engine: {engine}",
        f"bound: {bound_text}",
        f"elapsed: {elapsed:.3f}s",
    ]
    _emit(args, payload, lines)
    return status


# ---------------------------------------------------------------------------
# reduce

def cmd_reduce(args) -> int:
    system = _load(args.system)
    if args.direction == "to-re":
        new_sys, new_f = to_point_based(system, _formula(system, args.formula, "plus"))
    else:
        new_sys, new_f = to_regular_labelling(system, _formula(system, args.formula, "re"))

    sys_text = format_system(new_sys)
    f_text = format_formula(new_f)
    reparse = parse_re if args.direction == "to-re" else parse_plus
    if format_system(parse_system(sys_text)) != sys_text:
        raise RuntimeError("translated system does not re-parse to itself")
    if format_formula(reparse(f_text)) != f_text:
        raise RuntimeError("translated formula does not re-parse to itself")

    if args.out:
        with open(args.out + ".isrl", "w") as fh:
            fh.write(sys_text)
        with open(args.out + ".formula", "w") as fh:
            fh.write(f_text + "\n")
        print(f"wrote {args.out}.isrl and {args.out}.formula")
    else:
        print(sys_text, end="" if sys_text.endswith("\n") else "\n")
        print(f"formula: {f_text}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# classify / stats

def cmd_classify(args) -> int:
    system = _load(args.system)
    shapes = {
        var: language_shape(system.dfa_for(var)) for var in sorted(system.variables)
    }
    _emit(args, shapes, [f"{var}: {shape}" for var, shape in sorted(shapes.items())])
    return EXIT_HOLDS


def cmd_stats(args) -> int:
    system = _load(args.system)
    f = _formula(system, args.formula, args.logic)
    fragment = fragment_of(f)
    dfa_sizes = {
        var: len(system.dfa_for(var).states) for var in sorted(system.variables)
    }
    shapes = {
        var: language_shape(system.dfa_for(var)) for var in sorted(system.variables)
    }
    try:
        literal = fis_bound(system, f, _DISPLAY_CAP)
        tight = tight_bound(system, f, _DISPLAY_CAP)
        literal_text, tight_text = _bound_display(literal), _bound_display(tight)
    except FragmentError as e:
        literal_text = tight_text = f"undefined ({e})"

    payload = {
        "configurations": len(system.all_configs),
        "reachable": len(system.reachable),
        "dfa_states": dfa_sizes,
        "shapes": shapes,
        "fragment": fragment.value,
        "interval_type_bound": literal_text,
        "interval_type_bound_tight": tight_text,
    }
    lines = [
        f"configurations: {len(system.all_configs)}",
        f"reachable: {len(system.reachable)}",
    ]
    for var in sorted(system.variables):
        lines.append(f"variable {var}: {dfa_sizes[var]} dfa states, {shapes[var]}")
    lines += [
        f"fragment: {fragment.value}",
        f"interval-type bound: {literal_text}",
        f"interval-type bound (tight): {tight_text}",
    ]
    _emit(args, payload, lines)
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# export-dot

def cmd_export_dot(args) -> int:
    system = _load(args.system)
    what = args.what
    if what == "tg":
        print(tg_to_dot(system))
        return EXIT_HOLDS
    if what.startswith("automaton:"):
        print(dfa_to_dot(system.dfa_for(what.split(":", 1)[1])))
        return EXIT_HOLDS
    if what.startswith("mct:"):
        formula_text, sep, horizon_text = what.split(":", 1)[1].rpartition(":")
        if not sep:
            raise InputError("mct target needs mct:FORMULA:HORIZON")
        try:
            horizon = int(horizon_text)
        except ValueError:  # int() of the command line, not a library error
            raise InputError(f"bad horizon {horizon_text!r}") from None
        f = _formula(system, formula_text, args.logic)
        interval = _interval(system, args.interval)
        print(mct_to_dot(compute_mct(system, interval, f, horizon)))
        return EXIT_HOLDS
    raise InputError(f"unknown export target {what!r}")


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ehsmc",
        description="Model checker for epistemic interval temporal logic "
        "over interpreted systems with regular labellings.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formula=True):
        p.add_argument("system", help="system description file")
        if formula:
            p.add_argument("formula", help="formula text, or @FILE to read it from FILE")
        p.add_argument(
            "--logic", choices=["plus", "re"], default="plus",
            help="formula syntax: plain variables or regex atoms",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    check = sub.add_parser("check", help="evaluate a formula on an interval")
    common(check)
    check.add_argument(
        "--interval", help="configuration aliases or tuples, e.g. 'g1,g2,g3' "
        "or '(l0,l1),(l0,l2)' (default: the initial point interval)",
    )
    check.add_argument(
        "--engine", choices=["auto", "bde", "abln", "oracle"], default="auto",
    )
    check.add_argument(
        "--mode", choices=["literal", "tight"],
        help="bound mode for the bounded engine (default literal)",
    )
    check.add_argument(
        "--bound", type=int,
        help="fixed search cap (bounded engine) or extra growth beyond the "
        "minimal anchoring (oracle engine, default 6)",
    )
    check.add_argument(
        "--all-initial", action="store_true",
        help="check [A] FORMULA at the initial point interval",
    )
    check.add_argument(
        "--frontier-ceiling", type=int, default=DEFAULT_FRONTIER_CEILING,
        help="feasibility guard ceiling: the most intervals one bounded "
        "search may enumerate, in every bound mode",
    )
    check.set_defaults(fn=cmd_check)

    oracle = sub.add_parser("oracle", help="check with the enumerating oracle")
    common(oracle)
    oracle.add_argument("--interval")
    oracle.add_argument("--bound", type=int)
    oracle.add_argument("--all-initial", action="store_true")
    oracle.set_defaults(fn=cmd_check, engine="oracle", mode=None)

    reduce_p = sub.add_parser("reduce", help="translate between surface logics")
    reduce_p.add_argument("system")
    reduce_p.add_argument("formula", help="formula text, or @FILE to read it from FILE")
    reduce_p.add_argument(
        "--direction", choices=["to-re", "to-plus"], required=True,
        help="to-re: move labelling regexes into atoms; to-plus: fold atoms "
        "into fresh labelled variables",
    )
    reduce_p.add_argument("--out", help="output path prefix")
    reduce_p.set_defaults(fn=cmd_reduce)

    classify = sub.add_parser("classify", help="labelling shapes per variable")
    classify.add_argument("system")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(fn=cmd_classify)

    stats = sub.add_parser("stats", help="system and formula statistics")
    common(stats)
    stats.set_defaults(fn=cmd_stats)

    export = sub.add_parser("export-dot", help="DOT renderings")
    common(export, formula=False)
    export.add_argument(
        "what", help="tg | automaton:VAR | mct:FORMULA:HORIZON",
    )
    export.add_argument("--interval")
    export.set_defaults(fn=cmd_export_dot)

    return top


# one parser per process: parse_args makes a fresh namespace and no default is mutable
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
