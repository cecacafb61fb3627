"""The four workloads: their inputs, the check each one times, and the
reference each verdict is compared with after the timed phase.

A workload builds its inputs in `setup(seed)` and then hands out
checks through `phases()`: one endless, seeded stream of checks per
phase, each check a key and a thunk. The thunk makes exactly one call
into the engine's public entry (or one in-process `ehsmc.cli.main`) and
returns the verdict it observed and whether that verdict is
conclusive. `expected(key)` gives the reference verdict; it never comes
from the checker that the workload times.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import zlib
from typing import Callable, Dict, Iterator, List, Tuple

from ehsmc import abln, bde, cli, formulas, oracle, systems
from ehsmc.systems import AnchoredInterval, Interval

import workloads as gen

HERE = os.path.dirname(os.path.abspath(__file__))
BDE_TABLE = os.path.join(HERE, "reference", "bde_is_ex.txt")
RING_EXPECTED = os.path.join(HERE, "reference", "ring_expected.json")

Outcome = Tuple[object, bool]
Check = Tuple[int, Callable[[], Outcome]]

BDE_MAX_SIZE = 5
BDE_MAX_LEN = 4
ABLN_DEPTH1_MAX_SIZE = 6
ABLN_DEPTH2_MAX_SIZE = 5
ABLN_USER_CAP = 3


# ---------------------------------------------------------------------------
# The B/D/E reference table: verdicts on which check_bde and the oracle at
# the minimal anchoring agreed when the table was made (make_reference.py).


def bde_inputs():
    sys = systems.parse_system(gen.IS_EX_TEXT)
    return (sys, gen.all_formulas(BDE_MAX_SIZE, gen.BDE_HEADS),
            gen.intervals_up_to(sys, BDE_MAX_LEN))


def bde_fingerprint(fs, ivs) -> str:
    h = hashlib.sha256()
    for f in fs:
        h.update(gen.formula_text(f).encode() + b"\n")
    for iv in ivs:
        h.update(repr(iv.configs).encode() + b"\n")
    return h.hexdigest()


def write_bde_table(path: str, fs, ivs, verdicts: List[bool]) -> None:
    bits = bytearray((len(verdicts) + 7) // 8)
    for k, v in enumerate(verdicts):
        if v:
            bits[k // 8] |= 1 << (k % 8)
    body = base64.b64encode(zlib.compress(bytes(bits), 9)).decode()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"bde-is-ex {len(ivs)} {len(fs)} {bde_fingerprint(fs, ivs)}\n")
        for i in range(0, len(body), 76):
            fh.write(body[i:i + 76] + "\n")


class BdeTable:
    """Reference verdict of pair k = interval index * formulas + formula index."""

    def __init__(self, fs, ivs) -> None:
        with open(BDE_TABLE, encoding="ascii") as fh:
            header = fh.readline().split()
            body = "".join(line.strip() for line in fh)
        if header[1:] != [str(len(ivs)), str(len(fs)), bde_fingerprint(fs, ivs)]:
            raise RuntimeError(f"{BDE_TABLE} does not match the generated formulas and intervals")
        self.bits = zlib.decompress(base64.b64decode(body))

    def __getitem__(self, k: int) -> bool:
        return bool(self.bits[k // 8] >> (k % 8) & 1)


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    # checks per block of the tail (run.py); 0: the whole run is one block
    tail_block = 0

    def __init__(self, tiny: bool, work_dir: str) -> None:
        self.tiny = tiny
        self.work_dir = work_dir
        self._expected: Dict[int, object] = {}

    def traced_checks(self) -> Tuple[int, ...]:
        """Checks per phase in the fixed-work traced run."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def phases(self, seed: int) -> List[Iterator[Check]]:
        raise NotImplementedError

    def reference(self, key: int) -> object:
        raise NotImplementedError

    def expected(self, key: int) -> object:
        if key not in self._expected:
            self._expected[key] = self.reference(key)
        return self._expected[key]


def _shuffled_forever(n: int, rng: random.Random) -> Iterator[int]:
    order = list(range(n))
    rng.shuffle(order)
    return itertools.cycle(order)


def _point_checks(system_texts: List[str]):
    out = []
    for text in system_texts:
        sys = systems.parse_system(text)
        out.append((sys, Interval((sys.initial,))))
    return out


def _depth1_formulas():
    return [f for f in gen.all_formulas(ABLN_DEPTH1_MAX_SIZE, gen.ABLN_HEADS)
            if gen.modal_depth(f) <= 1]


class BdeExhaustive(Workload):
    """Every B/D/E formula up to size 5 at every interval of length <= 4
    of the running example, with check_bde at its defaults: many checks
    on one tiny system that is built once."""

    name = "bde-exhaustive"

    def traced_checks(self):
        return (200,) if self.tiny else (20000,)

    def setup(self, seed: int) -> None:
        self.sys, self.formulas, self.intervals = bde_inputs()
        n_f = len(self.formulas)
        if self.tiny:
            self.keys = [i * n_f + f for i in range(6) for f in range(30)]
        else:
            self.keys = list(range(len(self.intervals) * n_f))
        self.table = None

    def phases(self, seed: int) -> List[Iterator[Check]]:
        sys, fs, ivs = self.sys, self.formulas, self.intervals
        n_f = len(fs)

        def stream():
            for j in _shuffled_forever(len(self.keys), random.Random(seed)):
                k = self.keys[j]
                yield k, lambda iv=ivs[k // n_f], f=fs[k % n_f]: (bde.check_bde(sys, iv, f), True)

        return [stream()]

    def reference(self, key):
        if self.table is None:
            self.table = BdeTable(self.formulas, self.intervals)
        return self.table[key]


class AblnMixed(Workload):
    """check_abln at the initial point of small systems, in two halves:
    depth <= 1 formulas under the literal bound on deterministic systems
    (the complete witness search), then depth-2 formulas under a user cap
    on deterministic and branching systems (the bounded enumeration)."""

    name = "abln-mixed"

    def traced_checks(self):
        return (100, 40) if self.tiny else (20000, 3000)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        parse = systems.parse_system
        self.s1 = _point_checks(gen.stratified_systems(rng, parse, False, 1 if self.tiny else 2))
        self.s2 = _point_checks(gen.stratified_systems(rng, parse, False, 1 if self.tiny else 8)
                                + gen.stratified_systems(rng, parse, True, 1 if self.tiny else 8))
        self.f1 = _depth1_formulas()
        self.f2 = gen.depth2_enumeration_formulas(ABLN_DEPTH2_MAX_SIZE)
        if self.tiny:
            self.f1, self.f2 = rng.sample(self.f1, 40), rng.sample(self.f2, 10)
        # each half-1 system gets its own half of the formulas: twice the
        # systems for the same number of (oracle-verified) checks
        half = len(self.f1) // 2
        self.pairs1 = [(s, f) for s in range(len(self.s1))
                       for f in sorted(rng.sample(range(len(self.f1)), half))]
        self.n1 = len(self.pairs1)

    def _decode(self, key: int):
        if key < self.n1:
            s, f = self.pairs1[key]
            return 1, *self.s1[s], self.f1[f]
        key -= self.n1
        sys, point = self.s2[key // len(self.f2)]
        return 2, sys, point, self.f2[key % len(self.f2)]

    def phases(self, seed: int) -> List[Iterator[Check]]:
        rng = random.Random(seed)
        modes = {1: abln.LITERAL_BOUND, 2: abln.user_bound(ABLN_USER_CAP)}

        def check(key):
            half, sys, point, formula = self._decode(key)
            verdict = abln.check_abln(sys, point, formula, modes[half])
            return verdict.holds, verdict.conclusive

        def stream(first, count):
            for j in _shuffled_forever(count, rng):
                yield first + j, lambda k=first + j: check(k)

        n2 = len(self.s2) * len(self.f2)
        return [stream(0, self.n1), stream(self.n1, n2)]

    def reference(self, key):
        half, sys, point, formula = self._decode(key)
        if half == 1:
            # the bound under which criterion 4 of the acceptance gate
            # finds the oracle exact on depth <= 1 formulas
            bound = 2 + max((formulas.fis_bound(sys, op)
                             for op in gen.temporal_operands(formula)), default=0)
        else:
            bound = gen.enumeration_oracle_bound(formula, ABLN_USER_CAP)
        return oracle.oracle_check(sys, AnchoredInterval((), point), formula, bound)


class RingCli(Workload):
    """In-process `ehsmc check FILE FORMULA --json` on counter rings with
    3^n configurations, each call naming another ring file: system
    construction and automaton compilation over a large alphabet
    dominate, and no cross-call cache can help."""

    name = "ring-cli"

    def traced_checks(self):
        return (8,)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        n, variants = (2, 4) if self.tiny else (4, 32)
        with open(RING_EXPECTED, encoding="utf-8") as fh:
            self.templates = json.load(fh)
        os.makedirs(self.work_dir, exist_ok=True)
        every = list(itertools.product(range(3), repeat=n))
        zero = every[0]
        self.rings = []
        for r in range(variants):
            target = rng.choice(every[1:])
            names = [gen.ring_config_name(c) for c in every]
            rng.shuffle(names)
            whole = "(" + " + ".join(names) + ")"
            general = gen.ring_text(n, {"home": zero}, {
                "all": f"{whole}*",
                "goal": f"{whole}* {gen.ring_config_name(target)}",
            })
            points = gen.ring_text(n, {"home": zero, "tgt": target}, {})
            paths = []
            for suffix, text in (("", general), ("-points", points)):
                path = os.path.join(self.work_dir, f"ring-{seed}-{r}{suffix}.isrl")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                sys = systems.load_system(path)
                if len(sys.reachable) != 3 ** n or len(sys.aliases) != 3 ** n:
                    raise RuntimeError(f"{path}: not a {n}-counter ring")
                paths.append(path)
            i, j = rng.sample(range(1, n + 1), 2)
            walk = gen.ring_walk(rng, n, rng.choice(every), 3)
            self.rings.append({
                "$SYS": paths[0], "$POINTS": paths[1], "$I": str(i), "$J": str(j),
                "$WALK": ",".join(gen.ring_config_name(c) for c in walk),
            })

    def phases(self, seed: int) -> List[Iterator[Check]]:
        offset = random.Random(seed).randrange(len(self.templates))
        n_t = len(self.templates)

        def argv_for(r: int, t: int) -> List[str]:
            out = []
            for arg in self.templates[t]["argv"]:
                for placeholder, value in self.rings[r].items():
                    arg = arg.replace(placeholder, value)
                out.append(arg)
            return out

        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            if status in (0, 1):
                return status, json.loads(out.getvalue())["regime"] == "Conclusive"
            return status, False

        def stream():
            # every call names another ring file until all were used
            for c in itertools.count():
                r, t = c % len(self.rings), (c + offset) % n_t
                yield r * n_t + t, lambda argv=argv_for(r, t): check(argv)

        return [stream()]

    def reference(self, key):
        return self.templates[key % len(self.templates)]["expected_status"]


class OracleDifferential(Workload):
    """Alternating bde-exhaustive pairs and depth <= 1 pairs on
    deterministic systems, decided by minimal_anchor + oracle_check at the
    smallest bound proved exact: the only workload that times the oracle."""

    name = "oracle-differential"
    # Its pairs are drawn with replacement from ~330,000, more than a run
    # makes, and its slowest checks (~3 ms) are no slower than a check the
    # machine interrupted, so the ten slowest of a run are a seeded handful
    # of nested-C pairs or interruptions. The ten slowest of each 10,000
    # checks are many pairs, and the median over blocks drops the blocks
    # an interruption spoiled.
    tail_block = 10000

    def traced_checks(self):
        return (100,) if self.tiny else (20000,)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.bde_sys, self.bde_formulas, self.intervals = bde_inputs()
        self.det = _point_checks(gen.stratified_systems(
            rng, systems.parse_system, False, 1 if self.tiny else 8))
        self.depth1 = _depth1_formulas()
        # The smallest bound a pigeonhole argument proves exact for depth <= 1
        # formulas at the initial point of a deterministic system: along the
        # unique path, the pair (configuration, state of p's minimal
        # automaton) determines the next pair, so every pair a witness could
        # end in occurs within |G| * |Q| steps; one more covers the step to a
        # successor, one more the point interval. Formulas without diamonds
        # need no growth at all.
        self.bound = [2 + len(sys.all_configs) * len(sys.dfa_for("p").states)
                      for sys, _ in self.det]
        self.temporal = [bool(gen.temporal_operands(f)) for f in self.depth1]
        self.n_bde = len(self.intervals) * len(self.bde_formulas)
        self.table = None

    def phases(self, seed: int) -> List[Iterator[Check]]:
        rng = random.Random(seed)
        n_f, n_1 = len(self.bde_formulas), len(self.depth1)
        bde_i, bde_f, abln_f = (6, 30, 40) if self.tiny else (len(self.intervals), n_f, n_1)

        def bde_check(sys, interval, formula):
            anchored = oracle.minimal_anchor(sys, interval)
            return oracle.oracle_check(sys, anchored, formula, anchored.total_length), True

        def abln_check(sys, point, formula, bound):
            anchored = oracle.minimal_anchor(sys, point)
            return oracle.oracle_check(sys, anchored, formula, bound), True

        def stream():
            while True:
                i, f = rng.randrange(bde_i), rng.randrange(bde_f)
                yield i * n_f + f, lambda i=i, f=f: bde_check(
                    self.bde_sys, self.intervals[i], self.bde_formulas[f])
                s, f = rng.randrange(len(self.det)), rng.randrange(abln_f)
                bound = self.bound[s] if self.temporal[f] else 2
                yield self.n_bde + s * n_1 + f, lambda s=s, f=f, bound=bound: abln_check(
                    *self.det[s], self.depth1[f], bound)

        return [stream()]

    def reference(self, key):
        if key < self.n_bde:
            if self.table is None:
                self.table = BdeTable(self.bde_formulas, self.intervals)
            return self.table[key]
        key -= self.n_bde
        sys, point = self.det[key // len(self.depth1)]
        formula = self.depth1[key % len(self.depth1)]
        return abln.check_abln(sys, point, formula, abln.LITERAL_BOUND).holds


WORKLOADS = {w.name: w for w in (BdeExhaustive, AblnMixed, RingCli, OracleDifferential)}
