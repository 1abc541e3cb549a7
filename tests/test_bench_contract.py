"""The benchmark's tracer patches package functions by name; keep them there.

perfbench/tracer.py is loaded by path and not imported as a package, so this
test reads its TIMED and COUNTED tables without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("modname,path", tracer.TIMED + tracer.COUNTED,
                         ids=lambda x: str(x))
def test_traced_name_resolves(modname, path):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{tracer.PACKAGE}.{modname}.{path} is gone"
        owner = getattr(owner, attr)
    assert callable(owner)


def test_hooks_name_traced_functions():
    traced = {f"{m}.{p}" for m, p in tracer.TIMED}
    assert set(tracer.HOOKS) <= traced
