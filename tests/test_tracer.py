"""The benchmark tracer (malbench/tracer.py) wraps package functions and
methods that it looks up by name, some of them in a class's own __dict__;
installing and uninstalling it here catches a wrapped name that moved or was
renamed, well before a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import malab.cli
import malab.solver


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "malbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("malbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    """Every name bound in a malab module, and every attribute of a class the
    tracer patches."""
    owners = [m for k, m in sys.modules.items() if k == "malab" or k.startswith("malab.")]
    owners += list(tracer.LEAF_ORACLES)
    owners += [cls for cls, _ in tracer.METHOD_SPANS.values()]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    before = _bindings(tracer)
    newton_solve = malab.solver.newton_solve
    t = tracer.Tracer()
    try:
        t.install()
        assert malab.cli.newton_solve is not newton_solve  # wrapped where it is imported
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
