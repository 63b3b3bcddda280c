"""Command-line front end: single solves, convergence studies, time stepping.

Outputs per run: CSV error tables with a fixed float format (byte-identical
across reruns of the same config), legacy VTK fields, and a YAML metadata
sidecar whose ``config`` block reparses to the original configuration.
"""

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import yaml

from . import __version__
from . import basis as _basis
from .assembly import assemble_dirichlet_rhs, assemble_stiffness
from .config import config_to_dict, load_config
from .curve import assemble_line_rhs, build_restrictions
from .errors import ConfigError
from .fields import FieldFunction
from .mesh import build_box_mesh
from .norms import convergence_rates, dg_energy_error, l2_error
from .parabolic import TimeGrid, run_backward_euler, step_diagnostics
from .problems import LogLineSolution
from .solver import solve
from .vtk_io import field_cell_values, write_vtk

FLOAT_FMT = "%.12e"


def _limit_threads(n):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        pass


def _exact_pair(cfg, curve):
    if cfg.exact == "none":
        return None, None
    sol = LogLineSolution.from_curve(curve)
    return sol, sol.gradient


def _solve_level(cfg, n, curve, exact):
    """Assemble and solve one elliptic level; returns (mesh, basis, field, info)."""
    mesh = build_box_mesh(cfg.domain, n)
    basis = _basis.make_basis(cfg.degree)
    t0 = time.perf_counter()
    system = assemble_stiffness(mesh, cfg.scheme, basis)
    f_fn, _ = cfg.source.build()
    restrictions = build_restrictions(curve, mesh)
    rhs = assemble_line_rhs(curve, lambda s: f_fn(0.0, s), mesh, basis, restrictions=restrictions)
    if exact is not None:
        rhs = rhs + assemble_dirichlet_rhs(mesh, cfg.scheme, basis, exact)
    t_assembly = time.perf_counter() - t0
    t0 = time.perf_counter()
    res = solve(system, rhs, cfg.solver)
    t_solve = time.perf_counter() - t0
    field = FieldFunction.from_vector(mesh, basis, res.x)
    info = {
        "n_dof": system.ndof,
        "iterations": res.iterations,
        "residual": res.residual,
        "assembly_seconds": round(t_assembly, 3),
        "solve_seconds": round(t_solve, 3),
    }
    return mesh, basis, field, info


def _error_columns(cfg, mesh, field, curve, exact, exact_grad):
    """Ordered (name, value) error measurements for one level."""
    cols = []
    if exact is None:
        return cols
    cols.append(("err_L2_global", l2_error(field, exact, singular_curve=curve)))
    for name, box in cfg.regions.items():
        cols.append((f"err_L2_{name}", l2_error(field, exact, region=box)))
    for name, box in cfg.regions.items():
        cols.append(
            (f"err_DG_{name}",
             dg_energy_error(field, exact, exact_grad, sigma=cfg.scheme.sigma, region=box))
        )
    return cols


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


def _vtk_name(prefix, k, n):
    return f"{prefix}_k{k}_n{n[0]}x{n[1]}x{n[2]}.vtk"


def run_elliptic(cfg, out_dir, vtk=True):
    """Single elliptic solve on the first configured level."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve = cfg.build_curve()
    exact, exact_grad = _exact_pair(cfg, curve)
    n = cfg.levels[0]
    mesh, basis, field, info = _solve_level(cfg, n, curve, exact)
    cols = _error_columns(cfg, mesh, field, curve, exact, exact_grad)
    header = ["k", "h", "n_dof"] + [name for name, _ in cols]
    row = [cfg.degree, mesh.h, info["n_dof"]] + [v for _, v in cols]
    _write_csv(out / "errors.csv", header, [row])
    if vtk:
        write_vtk(
            out / _vtk_name("solution", cfg.degree, n),
            mesh,
            cell_data={"u": field_cell_values(field)},
        )
    _write_metadata(out / "metadata.yaml", cfg, {"run": info, "mode": "elliptic"})
    return {"mesh": mesh, "field": field, "info": info, "errors": dict(cols)}


def run_study(cfg, out_dir, vtk=False):
    """Refinement study over all configured levels with pairwise rates."""
    if len(cfg.levels) < 2:
        raise ConfigError("a study needs at least two refinement levels")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve = cfg.build_curve()
    exact, exact_grad = _exact_pair(cfg, curve)

    hs, level_cols, infos = [], [], []
    for n in cfg.levels:
        mesh, basis, field, info = _solve_level(cfg, n, curve, exact)
        hs.append(mesh.h)
        level_cols.append(_error_columns(cfg, mesh, field, curve, exact, exact_grad))
        infos.append(info)
        if vtk:
            write_vtk(
                out / _vtk_name("solution", cfg.degree, n),
                mesh,
                cell_data={"u": field_cell_values(field)},
            )
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("refinement levels must strictly decrease the mesh size")

    names = [name for name, _ in level_cols[0]]
    rates = {}
    for j, name in enumerate(names):
        errs = [cols[j][1] for cols in level_cols]
        rates[name] = (
            convergence_rates(errs, hs) if all(e > 0 for e in errs) else [float("nan")] * (len(hs) - 1)
        )

    header = ["k", "h", "n_dof"] + names + [f"rate_{n[4:]}" for n in names]
    rows = []
    for i, n in enumerate(cfg.levels):
        row = [cfg.degree, hs[i], infos[i]["n_dof"]]
        row += [level_cols[i][j][1] for j in range(len(names))]
        row += ["" if i == 0 else rates[name][i - 1] for name in names]
        rows.append(row)
    _write_csv(out / "study.csv", header, rows)

    lines = [_pretty_table(header, rows)]
    text = "\n".join(lines)
    (out / "study.txt").write_text(text + "\n")
    print(text)

    violations = _check_rate_assertions(cfg, names, rates)
    _write_metadata(
        out / "metadata.yaml", cfg,
        {"mode": "study", "runs": infos, "rate_violations": violations},
    )
    for v in violations:
        print(f"RATE ASSERTION FAILED: {v}", file=sys.stderr)
    return {"hs": hs, "names": names, "columns": level_cols, "rates": rates,
            "violations": violations}


def _check_rate_assertions(cfg, names, rates):
    violations = []
    for a in cfg.assert_rates:
        col = f"err_{'L2' if a.norm == 'l2' else 'DG'}_{a.region}"
        if col not in names:
            violations.append(f"{col}: column not measured (exact solution off?)")
            continue
        finest = rates[col][-1]
        if not (a.min <= finest <= a.max):
            violations.append(
                f"{col}: finest-pair rate {finest:.3f} outside [{a.min}, {a.max}]"
            )
    return violations


def _pretty_table(header, rows):
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.3e}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(header)]
    out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def run_parabolic(cfg, out_dir, vtk=True):
    """Backward Euler run with per-step diagnostics CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve = cfg.build_curve()
    n = cfg.levels[0]
    mesh = build_box_mesh(cfg.domain, n)
    basis = _basis.make_basis(cfg.degree)
    grid = TimeGrid(final_time=cfg.final_time, steps=cfg.steps)
    f_fn, f_dep = cfg.source.build()
    u0 = cfg.initial.build()
    t0 = time.perf_counter()
    series = run_backward_euler(
        mesh, cfg.scheme, curve, f_fn, u0, grid, cfg.solver, basis=basis,
        f_time_dependent=f_dep,
    )
    wall = time.perf_counter() - t0
    rows = step_diagnostics(series, sigma=cfg.scheme.sigma)
    _write_csv(
        out / "history.csv",
        ["n", "t", "l2_norm", "dg_norm", "increment_sq_sum"],
        [[r["n"], r["t"], r["l2"], r["dg"], r["increment_sq_sum"]] for r in rows],
    )
    if vtk and cfg.snapshot_every:
        for m in range(0, grid.steps + 1, cfg.snapshot_every):
            write_vtk(
                out / f"snapshot_{m:05d}.vtk",
                mesh,
                cell_data={"u": field_cell_values(series.field(m))},
            )
    _write_metadata(
        out / "metadata.yaml", cfg,
        {"mode": "parabolic", "run": {"n_dof": mesh.n_elements * basis.dim,
                                      "wall_seconds": round(wall, 3)}},
    )
    return {"series": series, "history": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linedg",
        description="Interior penalty DG solver for problems with a line source",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve-elliptic", "single steady solve"),
        ("solve-parabolic", "backward Euler time stepping"),
        ("study", "refinement study with rate table"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="YAML configuration file")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=None, help="cap BLAS threads")
        vtk = p.add_mutually_exclusive_group()
        vtk.add_argument("--vtk", dest="vtk", action="store_true", default=None)
        vtk.add_argument("--no-vtk", dest="vtk", action="store_false")
    args = parser.parse_args(argv)
    _limit_threads(args.threads)
    try:
        cfg = load_config(args.config)
        if args.command == "solve-elliptic":
            if cfg.mode != "elliptic":
                raise ConfigError("solve-elliptic needs mode: elliptic")
            run_elliptic(cfg, args.out_dir, vtk=args.vtk if args.vtk is not None else True)
        elif args.command == "solve-parabolic":
            if cfg.mode != "parabolic":
                raise ConfigError("solve-parabolic needs mode: parabolic")
            run_parabolic(cfg, args.out_dir, vtk=args.vtk if args.vtk is not None else True)
        else:
            result = run_study(cfg, args.out_dir, vtk=bool(args.vtk))
            if result["violations"]:
                return 2
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
