"""Model checking for epistemic Halpern-Shoham logic over interpreted
systems with regular labellings (EHS+), and its regex-atom variant (EHSRE).

The usual entry points:

- systems: parse_system / load_system, Interval, allen_successors
- formulas: parse_plus / parse_re, fragment_of, fis_bound
- bde.check_bde: exact checking for the B/D/E fragment
- abln.check_abln: bounded checking for the A/Bbar/L/N fragment
- oracle.oracle_check: reference enumeration semantics
- reductions: translations between the two logics
- InputError: raised for every invalid input (the CLI's exit status 2)
"""

from .errors import InputError
from .regexes import (
    Alphabet,
    Dfa,
    RegexSyntaxError,
    UnknownSymbolError,
    accepts,
    compile_regex,
    denotes,
    language_shape,
    parse_regex,
    regex_to_text,
)
from .systems import (
    AnchoredInterval,
    InterpretedSystem,
    Interval,
    Relation,
    SystemParseError,
    allen_successors,
    epi_class,
    format_system,
    load_system,
    parse_system,
    system_warnings,
    validate_interval,
)
from .formulas import (
    Formula,
    FormulaSyntaxError,
    Fragment,
    FragmentError,
    eliminate_L,
    fis_bound,
    format_formula,
    fragment_of,
    parse_plus,
    parse_re,
    tight_bound,
)
from .bde import check_bde
from .abln import (
    BoundInfeasibleError,
    BoundMode,
    LITERAL_BOUND,
    TIGHT_BOUND,
    Verdict,
    check_abln,
    compute_mct,
    regular_witness_search,
    user_bound,
)
from .oracle import minimal_anchor, oracle_check
from .reductions import lambda_compose, to_point_based, to_regular_labelling

__all__ = [
    "Alphabet",
    "AnchoredInterval",
    "BoundInfeasibleError",
    "BoundMode",
    "Dfa",
    "Formula",
    "FormulaSyntaxError",
    "Fragment",
    "FragmentError",
    "InputError",
    "InterpretedSystem",
    "Interval",
    "LITERAL_BOUND",
    "Relation",
    "RegexSyntaxError",
    "SystemParseError",
    "TIGHT_BOUND",
    "UnknownSymbolError",
    "Verdict",
    "accepts",
    "allen_successors",
    "check_abln",
    "check_bde",
    "compile_regex",
    "compute_mct",
    "denotes",
    "eliminate_L",
    "epi_class",
    "fis_bound",
    "format_formula",
    "format_system",
    "fragment_of",
    "lambda_compose",
    "language_shape",
    "load_system",
    "minimal_anchor",
    "oracle_check",
    "parse_plus",
    "parse_re",
    "parse_regex",
    "parse_system",
    "regex_to_text",
    "regular_witness_search",
    "system_warnings",
    "tight_bound",
    "to_point_based",
    "to_regular_labelling",
    "user_bound",
    "validate_interval",
]
