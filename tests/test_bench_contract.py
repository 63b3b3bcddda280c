"""The benchmark's traced mode wraps library functions by their module-level
names (``LAYERS`` in ``bench/child.py``); a rename or deletion in ``src/``
must fail here, not silently in a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_callable():
    child = load_child()
    for mod_name, names in child.LAYERS.items():
        module = child if mod_name == child.__name__ else importlib.import_module(mod_name)
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_entry_points_bind():
    child = load_child()
    inspect.signature(child.make_preconditioner).bind(object(), "block_jacobi")
    cli = importlib.import_module("linedg.cli")
    inspect.signature(cli.run_study).bind(None, None, vtk=False)
    inspect.signature(cli.run_parabolic).bind(None, None, vtk=True)
