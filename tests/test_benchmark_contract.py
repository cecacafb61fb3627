"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps the
functions `perfbench/spans.py` names in `TARGETS`, looking each one up
by name; every name must still resolve to a callable."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _ in spans.TARGETS]


@pytest.mark.parametrize("module,name", _targets())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ehsmc.{module}"), name, None))
