"""The exception type for bad input, and the one rule for names."""


class InputError(ValueError):
    """A system, formula, name, interval or bound supplied from outside
    is invalid. The CLI reports it as a usage error (exit status 2). It
    is a ValueError, so handlers written for ValueError still catch it;
    programming errors are never raised as InputError."""


# A name of an agent, state, action, alias or variable, wherever it is
# written: no whitespace, no operator and none of the ',()' of "(l0,l1)".
NAME = r"[\w.]+"
INDEX = r"[0-9]+"  # an agent that K{...} and C{...} read by its index
# Spellings no variable takes: a grammar reads them as constants (so no
# alias takes the label ones) or as the any-letter predicate of atoms.
FORMULA_CONSTANTS = ("pi", "true", "false")
LABEL_CONSTANTS = ("empty", "eps")
ANY_LETTER = "T"
