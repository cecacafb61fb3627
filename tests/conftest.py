import os

import pytest

from ehsmc.systems import InterpretedSystem, Interval, Path, load_system, parse_system

DATA = os.path.join(os.path.dirname(__file__), "data")

POINT_SYS_TEXT = """\
agent P
  states h n
  init h
  actions go
  protocol h: go
  protocol n: go
  trans h (go) n
  trans n (go) h
config h = (h)
config n = (n)
label p = h
label q = n
"""


# agents whose states contain ',' and so would both make the name (a,b,c);
# the comment line puts agent A on line 2
COMMA_SYS_TEXT = """\
# states a,b and b,c
agent A
  states a a,b
  init a
  actions go
  protocol a: go
  trans a (go,go) a
agent B
  states b,c c
  init c
  actions go
  protocol c: go
  trans c (go,go) c
"""


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


@pytest.fixture(scope="session")
def is_ex() -> InterpretedSystem:
    """The three-configuration running example."""
    return load_system(data_path("is_ex.isrl"))


@pytest.fixture(scope="session")
def gs(is_ex):
    """Named configurations of the running example."""
    return {name: is_ex.aliases[name] for name in ("g1", "g2", "g3")}


@pytest.fixture(scope="session")
def point_sys():
    """Two alternating configurations with point-based labels: p marks
    h, q marks n."""
    sys = parse_system(POINT_SYS_TEXT)
    return sys, {"h": ("h",), "n": ("n",)}


def cfgs(gs, *names) -> Path:
    return tuple(gs[n] for n in names)


def iv(gs, *names) -> Interval:
    return Interval(cfgs(gs, *names))
