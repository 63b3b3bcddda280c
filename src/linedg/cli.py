"""Command-line front end: ``linedg CONFIG`` runs what the configuration
names.  A parabolic configuration is a backward-Euler march
(``run_parabolic``); an elliptic one is a single solve when it gives ``n``
(``run_elliptic``) and a refinement study when it gives ``levels``
(``run_study``).

Outputs per run: CSV error tables with a fixed float format (byte-identical
across reruns of the same config), legacy VTK fields, and a YAML metadata
sidecar whose ``config`` block reparses to the original configuration.
"""

import argparse
import csv
import resource
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import basis as _basis
from .assembly import assemble_dirichlet_rhs, assemble_stiffness
from .config import config_to_dict, load_config
from .curve import assemble_line_rhs, build_restrictions
from .errors import ConfigError
from .fields import FieldFunction
from .mesh import build_box_mesh
from .multigrid import VCycle
from .norms import convergence_rates, dg_energy_error, l2_error
# unused here, ``run_backward_euler`` stays importable: bench/child.py wraps it by name in this module
from .parabolic import BackwardEuler, run_backward_euler, step_diagnostics  # noqa: F401
from .solver import solve
from .vtk_io import field_cell_values, write_vtk

FLOAT_FMT = "%.12e"


def _multigrid_info(vcycle):
    """The ``metadata.yaml`` entries that describe a run's V-cycle;
    ``coarsest_degree`` is the degree its bottom level inverts densely: k on
    the coarsest grid, or 0 where that grid drops to its piecewise constants."""
    bottom = vcycle
    while bottom.coarse is not None:
        bottom = bottom.coarse
    return {"multigrid_levels": len(vcycle.grids), "multigrid_dtype": vcycle.dtype.name,
            "coarsest_grid": list(vcycle.grids[-1]),
            "coarsest_degree": vcycle.A.discretization[0].degree if bottom.A.block_size > 1 else 0}


def _peak_rss_mib():
    """The process's peak resident set size so far, in MiB (``ru_maxrss`` is
    in KiB on Linux)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2)


def _error(cfg, column, field):
    """The error of ``field`` in ``column``, one of ``cfg.columns``."""
    if column.norm == "dg":
        return dg_energy_error(field, cfg.exact, sigma=cfg.scheme.sigma, region=column.region)
    return l2_error(field, cfg.exact, region=column.region)


def _solve_levels(cfg, levels, out, vtk):
    """Assemble, solve and measure each of ``levels`` in turn, writing its
    solution to VTK if ``vtk``; yields (mesh, field, info, errors) per level,
    the errors in the order of ``cfg.columns``, and ``info`` with the
    process's peak RSS once the level is done.  With multigrid, a level whose
    grid is the last level's doubled builds its V-cycle on the last one and
    starts CG from the prolonged last field; any other level builds a fresh
    V-cycle and starts from zero."""
    basis = _basis.make_basis(cfg.degree)
    f_fn, _ = cfg.source.build()
    vcycle = field = None
    for n in levels:
        mesh = build_box_mesh(cfg.domain, n)
        t0 = time.perf_counter()
        system = assemble_stiffness(mesh, cfg.scheme, basis)
        restrictions = build_restrictions(cfg.curve, mesh)
        rhs = assemble_line_rhs(cfg.curve, lambda s: f_fn(0.0, s), mesh, basis,
                                restrictions=restrictions)
        if cfg.exact is not None:
            rhs = rhs + assemble_dirichlet_rhs(mesh, cfg.scheme, basis, cfg.exact)
        t_assembly = time.perf_counter() - t0
        t0 = time.perf_counter()
        nested = False
        if cfg.solver.preconditioner == "multigrid":
            nested = field is not None and tuple(2 * v for v in field.mesh.n) == mesh.n
            vcycle = VCycle(system, vcycle if nested else None)
        # the start is passed inline, so that solve holds its only reference
        res = solve(system, rhs, cfg.solver, precond=vcycle,
                    x0=vcycle.transfer.prolong(field.coeffs.ravel()) if nested else None)
        t_solve = time.perf_counter() - t0
        field = FieldFunction.from_vector(mesh, basis, res.x)
        info = {
            "n_dof": system.ndof,
            "iterations": res.iterations,
            "residual": res.residual,
            "assembly_seconds": round(t_assembly, 3),
            "solve_seconds": round(t_solve, 3),
            "preconditioner": cfg.solver.preconditioner,
        }
        if vcycle is not None:
            info.update(_multigrid_info(vcycle))
        errors = [_error(cfg, column, field) for column in cfg.columns]
        if vtk:
            _write_field(out / f"solution_k{cfg.degree}_n{n[0]}x{n[1]}x{n[2]}.vtk", field)
        info["peak_rss_mib"] = _peak_rss_mib()
        yield mesh, field, info, errors


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [FLOAT_FMT % v if isinstance(v, float) else v for v in row]
            )


def _write_metadata(path, cfg, extra):
    payload = {"linedg_version": __version__, "config": config_to_dict(cfg)}
    payload.update(extra)
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=True)


def _write_field(path, field):
    write_vtk(path, field.mesh, cell_data={"u": field_cell_values(field)})


def run_elliptic(cfg, out_dir, vtk=True):
    """Single elliptic solve on the first configured level."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    [(mesh, field, info, errors)] = _solve_levels(cfg, cfg.levels[:1], out, vtk)
    names = [column.name for column in cfg.columns]
    _write_csv(out / "errors.csv", ["k", "h", "n_dof"] + names,
               [[cfg.degree, mesh.h, info["n_dof"]] + errors])
    _write_metadata(out / "metadata.yaml", cfg, {"run": info, "mode": "elliptic"})
    return {"mesh": mesh, "field": field, "info": info, "errors": dict(zip(names, errors))}


def run_study(cfg, out_dir, vtk=False):
    """Refinement study over all configured levels with pairwise rates."""
    if len(cfg.levels) < 2:
        raise ConfigError("a study needs at least two refinement levels")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solved = [(m.h, info, errs) for m, _, info, errs in _solve_levels(cfg, cfg.levels, out, vtk)]
    hs, infos, errors = map(list, zip(*solved))
    table = np.array(errors).reshape(len(hs), len(cfg.columns))  # levels x columns
    names = [column.name for column in cfg.columns]
    rates = {
        name: convergence_rates(errs, hs) if (errs > 0).all() else [float("nan")] * (len(hs) - 1)
        for name, errs in zip(names, table.T)
    }
    header = ["k", "h", "n_dof"] + names + [column.rate for column in cfg.columns]
    rows = [[cfg.degree, h, info["n_dof"], *level]
            + ["" if i == 0 else rates[name][i - 1] for name in names]
            for i, (h, info, level) in enumerate(zip(hs, infos, table))]
    _write_csv(out / "study.csv", header, rows)

    text = _pretty_table(header, rows)
    (out / "study.txt").write_text(text + "\n")
    print(text)

    violations = _check_rate_assertions(cfg, rates)
    _write_metadata(
        out / "metadata.yaml", cfg,
        {"mode": "study", "runs": infos, "rate_violations": violations},
    )
    for v in violations:
        print(f"RATE ASSERTION FAILED: {v}", file=sys.stderr)
    return {"hs": hs, "names": names, "rates": rates, "violations": violations,
            "columns": [list(zip(names, level)) for level in errors]}


def _check_rate_assertions(cfg, rates):
    finest = [(a, rates[a.column][-1]) for a in cfg.assert_rates]
    return [f"{a.column}: finest-pair rate {rate:.3f} outside [{a.min}, {a.max}]"
            for a, rate in finest if not a.min <= rate <= a.max]


def _pretty_table(header, rows):
    cells = [header] + [[f"{v:.3e}" if isinstance(v, float) else str(v) for v in r] for r in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


def run_parabolic(cfg, out_dir, vtk=True):
    """Backward Euler run, streamed: as each step is solved, its row of
    ``history.csv`` is computed and, when due, its snapshot written.  The run
    holds u^{n-1}, u^n and the stepper's projection basis, never the series.

    ``history.csv`` and ``metadata.yaml`` are written after the last step.
    A failed step raises ``NonconvergenceError`` with its step label; the
    snapshots due before it stay on disk.  Returns the final state
    (``final``, a ``FieldFunction``), the Krylov iterations of each step
    (``step_iterations``) and the history rows.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = build_box_mesh(cfg.domain, cfg.levels[0])
    basis = _basis.make_basis(cfg.degree)
    f_fn, f_dep = cfg.source.build()
    stepper = BackwardEuler(mesh, cfg.scheme, cfg.curve, f_fn, cfg.initial.build(), cfg.time,
                            cfg.solver, basis, f_time_dependent=f_dep)
    every = cfg.snapshot_every if vtk else 0
    step_iterations, final = [], None

    def streamed():
        nonlocal final
        for step in stepper:
            if every and step.n % every == 0:
                _write_field(out / f"snapshot_{step.n:05d}.vtk", step.field)
            if step.n:
                step_iterations.append(step.iterations)
            final = step.field
            yield step

    t0 = time.perf_counter()
    rows = step_diagnostics(streamed(), sigma=cfg.scheme.sigma)
    wall = time.perf_counter() - t0
    _write_csv(
        out / "history.csv",
        ["n", "t", "l2_norm", "dg_norm", "increment_sq_sum"],
        [[r["n"], r["t"], r["l2"], r["dg"], r["increment_sq_sum"]] for r in rows],
    )
    info = {"n_dof": mesh.n_elements * basis.dim, "wall_seconds": round(wall, 3),
            "peak_rss_mib": _peak_rss_mib(),
            "preconditioner": cfg.solver.preconditioner,
            "cg_iterations": step_iterations, "cg_iterations_total": sum(step_iterations)}
    if isinstance(stepper.preconditioner, VCycle):
        info.update(_multigrid_info(stepper.preconditioner))
    _write_metadata(out / "metadata.yaml", cfg, {"mode": "parabolic", "run": info})
    return {"final": final, "step_iterations": step_iterations, "history": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linedg",
        description="Interior penalty DG solver for problems with a line source",
    )
    parser.add_argument("config", help="YAML configuration file")
    parser.add_argument("--out-dir", default="out", help="output directory")
    vtk = parser.add_mutually_exclusive_group()
    vtk.add_argument("--vtk", dest="vtk", action="store_true", default=None)
    vtk.add_argument("--no-vtk", dest="vtk", action="store_false")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        run = (run_parabolic if cfg.mode == "parabolic"
               else run_study if len(cfg.levels) > 1 else run_elliptic)
        # without a flag each runner keeps its own VTK default
        result = run(cfg, args.out_dir, **({} if args.vtk is None else {"vtk": args.vtk}))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 2 if result.get("violations") else 0


if __name__ == "__main__":
    sys.exit(main())
