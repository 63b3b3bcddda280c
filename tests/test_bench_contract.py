"""The benchmark's traced mode wraps library functions by their module-level
names (``LAYERS`` in ``bench/child.py``), and its children load the configs
``bench/run.py`` writes; a rename, a deletion or a schema change in ``src/``
must fail here, not silently in a benchmark run."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from linedg.config import config_to_dict, load_config, parse_config

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_child():
    return load_module(CHILD, "bench_child")


def test_every_traced_layer_is_callable():
    child = load_child()
    for mod_name, names in child.LAYERS.items():
        module = child if mod_name == child.__name__ else importlib.import_module(mod_name)
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_entry_points_bind():
    child = load_child()
    inspect.signature(child.make_preconditioner).bind(object(), "block_jacobi")
    inspect.signature(child.build_box_mesh).bind(object(), (4, 4, 1))  # (cfg.domain, n)
    cli = importlib.import_module("linedg.cli")
    inspect.signature(cli.run_study).bind(None, None, vtk=False)
    inspect.signature(cli.run_parabolic).bind(None, None, vtk=True)


def test_multigrid_preconditioner_builds_on_its_own():
    """``operator_counts`` times ``make_preconditioner`` on the finest operator
    alone, outside any study, so the V-cycle must build its own hierarchy."""
    from linedg import basis
    from linedg.assembly import DGSpec, assemble_stiffness
    from linedg.mesh import BoxDomain, build_box_mesh

    child = load_child()
    mesh = build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25]), (8, 8, 2))
    system = assemble_stiffness(mesh, DGSpec(1), basis.make_basis(1))
    precond = child.make_preconditioner(system, "multigrid")
    r = np.random.default_rng(0).standard_normal(system.ndof)
    y = precond(r)
    assert y.shape == r.shape and r @ y > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_config_loads_and_round_trips(tmp_path, workload):
    """Each workload's config loads, offers what ``bench/child.py`` reads, and
    its recorded form reparses to the same record."""
    run = load_module(ROOT / "bench" / "run.py", "bench_run")
    cfg = load_config(run.make_inputs(workload, 0, tmp_path, tiny=True))
    f, time_dependent = cfg.source.build()
    assert f(0.0, np.zeros(3)).shape == (3,) and isinstance(time_dependent, bool)
    assert cfg.build_curve().length > 0
    assert cfg.degree >= 1 and len(cfg.levels) >= 1 and cfg.domain.volume > 0
    assert isinstance(cfg.solver.preconditioner, str)
    reparsed = parse_config(yaml.safe_dump(config_to_dict(cfg)), base_dir=tmp_path)
    assert config_to_dict(reparsed) == config_to_dict(cfg)
