"""Span recorder for the traced run.

Each public function named in `TARGETS` is wrapped from outside the
program: the wrapper replaces the function object wherever a module of
the `ehsmc` package binds it (modules bind these names at import time,
so `ehsmc.bde.epi_class`, `ehsmc.abln.epi_class`, `ehsmc.oracle.epi_class`
and `ehsmc.systems.epi_class` are four separate patches of one target).

A span holds its name, start, end, the span that was open when it
began, and the id of the check it belongs to. Spans are kept in memory
in flat arrays and written out once, after the run. A direct recursive
call of a target (for example `normalize` calling itself) runs inside
the outer span instead of opening a new one, so `calls` counts entries
from other code. `allen_successors` is a generator: each `next()` is a
span, so time spent by the consumer between items is not charged to it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, extra counter or None); counters receive the result
TARGETS: List[Tuple[str, str, Optional[Tuple[str, Callable[[object], int]]]]] = [
    ("systems", "parse_system", None),
    ("systems", "epi_class", ("members", len)),
    ("systems", "common_class", ("members", len)),
    ("systems", "label_holds", None),
    ("systems", "allen_successors", ("yielded", None)),
    ("systems", "validate_interval", None),
    ("regexes", "parse_regex", None),
    ("regexes", "compile_regex", ("dfa_states", lambda dfa: len(dfa.states))),
    ("regexes", "denotes", None),
    ("formulas", "eliminate_L", None),
    ("formulas", "relations_of", None),
    ("formulas", "resolve_agents", None),
    ("formulas", "normalize", None),
    ("formulas", "fragment_of", None),
    ("formulas", "modal_free", None),
    ("formulas", "fis_bound_saturating", None),
    ("formulas", "tight_bound_saturating", None),
    ("bde", "check_bde", None),
    ("abln", "check_abln", ("bounded", lambda v: int(not v.conclusive))),
    ("abln", "regular_witness_search", ("found", lambda r: int(r is not None))),
    ("oracle", "oracle_check", None),
    ("oracle", "minimal_anchor", None),
    ("reductions", "to_regular_labelling", None),
    ("cli", "main", None),
]

NO_SPAN = -1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [f"{m}.{f}" for m, f, _ in TARGETS]
        self.name_of = array("i")
        self.parent = array("i")
        self.check_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open_spans: List[int] = []
        self.check_id = -1
        self.counts: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.open_spans[-1] if self.open_spans else NO_SPAN)
        self.check_of.append(self.check_id)
        self.end.append(0.0)
        self.open_spans.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.open_spans.pop()

    def _reentered(self, nid: int) -> bool:
        return bool(self.open_spans) and self.name_of[self.open_spans[-1]] == nid

    def _wrap(self, nid: int, fn, counter) -> Callable:
        name = self.names[nid]
        counts = self.counts

        def traced(*args, **kwargs):
            if self._reentered(nid):
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counts[name + "." + counter[0]] += counter[1](result)
            return result

        return traced

    def _wrap_generator(self, nid: int, fn, counter) -> Callable:
        name = self.names[nid]
        counts = self.counts
        tracer = self

        class Traced:
            def __init__(self, inner) -> None:
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open(nid)
                try:
                    item = next(self.inner)
                finally:
                    tracer._close(idx)
                counts[name + "." + counter[0]] += 1
                return item

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            return Traced(fn(*args, **kwargs))

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target inside the ehsmc package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ehsmc" or n.startswith("ehsmc.")]
        for nid, (mod, fname, counter) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"ehsmc.{mod}"), fname)
            wrap = self._wrap_generator if fname == "allen_successors" else self._wrap
            wrapper = wrap(nid, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Self time per target (duration minus the time covered by its
        child spans) and the summed duration of root spans."""
        n = len(self.name_of)
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p == NO_SPAN:
                roots += duration
            else:
                child[p] += duration
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.name_of[i]]] += self.end[i] - self.start[i] - child[i]
        return out, roots

    def dump(self, path: str) -> None:
        """One line per span: id, parent id, check id, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span\tparent\tcheck\tname\tstart_s\tend_s\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.check_of[i]}\t"
                         f"{self.names[self.name_of[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n")
