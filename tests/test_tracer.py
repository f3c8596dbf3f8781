"""The benchmark's tracer (``perfbench/spans.py``) rebinds names inside
potl's modules; a name it wraps that is renamed or deleted here breaks
every ``--trace 1`` run. Install it against this tree."""

import pathlib
import sys

import potl.cli
import potl.engine
import potl.model
import potl.oracle
import potl.syntax
from potl.syntax import parse

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from spans import Tracer  # noqa: E402

MODULES = (potl.cli, potl.engine, potl.model, potl.oracle, potl.syntax)


def bindings():
    return {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}


def test_install_wraps_and_uninstall_restores(chain):
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {key for key, value in bindings().items() if value is not before[key]}
        assert wrapped
        potl.engine.check(chain, parse("<<1 < 0.5>> F goal"))
        potl.engine.check(chain, parse("<<1 < 0.5>> X goal"))
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = {tracer.names[i] for i in tracer.name}
    assert {"engine.check", "engine.until.min", "engine.next.min"} <= spans
    assert "obstruction.best_removal" in spans
