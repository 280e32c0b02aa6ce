"""The benchmark's per-layer tracer against the package it wraps.

``perfbench/tracer.py`` replaces c2surf functions and methods by name, so a
change under ``src/`` that drops or renames one of them breaks every traced
benchmark run while the rest of the suite passes.  This test installs the
tracer, runs one traced layer of each kind and checks that uninstalling
puts every binding back.  It only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import c2surf.cli  # noqa: F401  (Tracer.install needs every traced module loaded)
from c2surf import checks, f2linalg
from c2surf.bigraded import Decomposition, Summand
from c2surf.surfaces import FREE_SPHERE, InvariantProfile

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of every loaded c2surf module and of each class
    defined there, keyed by owner and name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "c2surf" and not name.startswith("c2surf."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, member in vars(value).items():
                    out[name, attr, cls_attr] = member
    return out


def test_tracer_binds_and_restores_the_package():
    tracer = _load_tracer()
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        sphere = InvariantProfile(FREE_SPHERE, 0)
        wrong = Decomposition([Summand.antipodal(0, 2), Summand.antipodal(7, 0)])
        assert checks.verify_decomposition(wrong, sphere)
        d1 = f2linalg.F2Matrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
        d2 = f2linalg.F2Matrix.from_rows([[1], [1], [1]])
        f2linalg.betti_f2(f2linalg.ChainComplex(d1, d2))
    finally:
        t.uninstall()
    assert t.counts["checks.forgetful_les.bidegrees"] > 0
    assert t.calls["f2linalg.betti_f2"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
