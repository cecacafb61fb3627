"""A golden table of compiled automata.

`data/dfa_golden.txt` holds one line per regular expression: a digest of
the complete minimal DFA that `compile_regex` builds for it, a space,
and the expression. A line `alphabet SYMBOL...` sets the alphabet of the
lines below it. The test recompiles every expression and names the
first whose automaton differs in its states, their names and order, the
initial and accepting states, the transition table or the sink. So a
change to the pipeline that keeps every language but renumbers a state
fails here, as a change of language does.

The expressions are seeded random ones over three to five letters (with
`empty`, `eps`, nested stars and union chains with compound operands),
the counter-ring labels over 81 and 243 letters, and a 300-letter word.
`python tests/test_dfa_golden.py` rewrites the table; do so only when a
change of the automata is intended.
"""

import hashlib
import itertools
import os
import random

from ehsmc.regexes import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    Star,
    Sym,
    Union,
    compile_regex,
    fold_right,
    parse_regex,
    regex_to_text,
)

TABLE = os.path.join(os.path.dirname(__file__), "data", "dfa_golden.txt")


def dfa_digest(dfa) -> str:
    """A short digest of everything `compile_regex` returns but the
    alphabet: states in order, initial, accepting, table and sink."""
    letters = dfa.alphabet.symbols
    parts = [
        " ".join(dfa.states),
        dfa.initial,
        " ".join(sorted(dfa.accepting)),
        str(len(dfa.step)),
        " ".join(dfa.step[(q, a)] for q in dfa.states for a in letters),
        str(dfa.sink),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _random_regex(rng: random.Random, letters, depth: int):
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.08:
            return EMPTY
        if roll < 0.16:
            return EPSILON
        return Sym(rng.choice(letters))
    roll = rng.random()
    if roll < 0.25:
        return Star(_random_regex(rng, letters, depth - 1))
    parts = [_random_regex(rng, letters, depth - 1) for _ in range(rng.randint(2, 3))]
    return fold_right(Concat if roll < 0.6 else Union, parts)


def golden_inputs():
    """(alphabet, expression text) pairs, grouped by alphabet."""
    rng = random.Random(2015)
    for size in (3, 4, 5):
        alphabet = "abcde"[:size]
        for _ in range(800):
            # some letters of the alphabet may occur in no expression
            letters = alphabet[: rng.randint(2, size)]
            expr = _random_regex(rng, letters, rng.randint(1, 7))
            yield tuple(alphabet), regex_to_text(expr)
    for n in (4, 5):
        every = ["k" + "".join(map(str, c)) for c in itertools.product(range(3), repeat=n)]
        shuffled = list(every)
        rng.shuffle(shuffled)
        whole = "(" + " + ".join(shuffled) + ")"
        yield tuple(every), f"{whole}*"
        yield tuple(every), f"{whole}* {rng.choice(every)}"
    yield tuple("abc"), " ".join(rng.choice("abc") for _ in range(300))


def write_table() -> None:
    lines, current = [], None
    for letters, text in golden_inputs():
        if letters != current:
            lines.append("alphabet " + " ".join(letters))
            current = letters
        alphabet = Alphabet(letters)
        lines.append(f"{dfa_digest(compile_regex(parse_regex(text, alphabet), alphabet))} {text}")
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_compiled_automata_match_the_golden_table():
    alphabet, rows = None, 0
    with open(TABLE, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            head, _, rest = line.rstrip("\n").partition(" ")
            if head == "alphabet":
                alphabet = Alphabet(tuple(rest.split()))
                continue
            dfa = compile_regex(parse_regex(rest, alphabet), alphabet)
            assert dfa_digest(dfa) == head, f"line {number}: automaton of {rest!r} differs"
            rows += 1
    assert rows >= 2400 + 5


if __name__ == "__main__":
    write_table()
