"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps the
functions `perfbench/spans.py` names in `TARGETS`, looking each one up
by name; every name must still resolve to a callable. The systems the
benchmark's generators (`perfbench/workloads.py`) write must still
construct, so that a stricter system format fails here and not only in
the benchmark. The committed B/D/E reference table must still match the
formulas and intervals the benchmark generates."""

import importlib
import importlib.util
import itertools
import os
import random

import pytest

from ehsmc.systems import parse_system

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(module, name) for module, name, _ in _perfbench_module("spans").TARGETS]


@pytest.mark.parametrize("module,name", _targets())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ehsmc.{module}"), name, None))


def test_generated_systems_construct():
    gen = _perfbench_module("workloads")
    rng = random.Random(1)
    # stratified_systems parses every text it draws
    texts = [gen.IS_EX_TEXT]
    texts += gen.stratified_systems(rng, parse_system, False, 1)
    texts += gen.stratified_systems(rng, parse_system, True, 1)
    for n in (2, 3, 4):
        every = list(itertools.product(range(3), repeat=n))
        target = gen.ring_config_name(every[-1])
        texts.append(gen.ring_text(n, {"home": every[0]},
                                   {"all": "ALL*", "goal": f"ALL* {target}"}))
        texts.append(gen.ring_text(n, {"home": every[0], "tgt": every[-1]}, {}))
    for text in texts:
        assert parse_system(text).reachable


def test_bde_reference_table_matches(monkeypatch):
    # imported as perfbench/run.py imports it; the table's fingerprint covers
    # the order of `reachable` and `successors`, and BdeTable raises on a change
    monkeypatch.syspath_prepend(PERFBENCH)
    cases = importlib.import_module("cases")
    _, fs, ivs = cases.bde_inputs()
    cases.BdeTable(fs, ivs)
