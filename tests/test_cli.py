import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from linedg.cli import main, run_elliptic, run_parabolic, run_study
from linedg.config import load_config, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL_STUDY = """
domain: {lo: [0, 0, 0], hi: [1, 1, 0.25]}
curve:
  kind: line
  start: [0.6666666666666666, 0.3333333333333333, 0.0]
  end: [0.6666666666666666, 0.3333333333333333, 0.25]
degree: 1
levels:
  - [4, 4, 1]
  - [8, 8, 2]
regions:
  boxA: {lo: [0.25, 0.5, 0.0], hi: [0.5, 0.75, 0.25]}
exact: log_line
solver: {rel_tol: 1.0e-10}
mode: elliptic
"""

PARABOLIC = """
domain: {lo: [0, 0, 0], hi: [1, 1, 0.25]}
curve:
  kind: line
  start: [0.6666666666666666, 0.3333333333333333, 0.0]
  end: [0.6666666666666666, 0.3333333333333333, 0.25]
degree: 1
n: [4, 4, 1]
solver: {rel_tol: 1.0e-10}
mode: parabolic
time: {final: 0.1, steps: 4}
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_single_solve_outputs(tmp_path):
    cfg = parse_config(SMALL_STUDY)
    out = run_elliptic(cfg, tmp_path, vtk=True)
    rows = read_csv(tmp_path / "errors.csv")
    assert rows[0][:3] == ["k", "h", "n_dof"]
    assert "err_L2_global" in rows[0]
    assert "err_L2_boxA" in rows[0]
    assert (tmp_path / "solution_k1_n4x4x1.vtk").exists()
    assert (tmp_path / "metadata.yaml").exists()
    assert out["errors"]["err_L2_global"] > 0


def test_error_columns_absent_without_exact(tmp_path):
    cfg = parse_config(SMALL_STUDY.replace("exact: log_line", "exact: none"))
    run_elliptic(cfg, tmp_path, vtk=False)
    rows = read_csv(tmp_path / "errors.csv")
    assert rows[0] == ["k", "h", "n_dof"]


def test_zero_source_zero_data_gives_zero_solution(tmp_path):
    text = SMALL_STUDY.replace("exact: log_line", "exact: none") + (
        "source: {kind: constant, value: 0.0}\n"
    )
    cfg = parse_config(text)
    out = run_elliptic(cfg, tmp_path, vtk=False)
    assert np.abs(out["field"].coeffs).max() < 1e-12


def test_study_rates_and_csv(tmp_path):
    cfg = parse_config(SMALL_STUDY)
    result = run_study(cfg, tmp_path)
    assert (tmp_path / "study.csv").exists()
    assert (tmp_path / "study.txt").exists()
    assert 1.5 < result["rates"]["err_L2_boxA"][-1] < 2.4
    assert not result["violations"]


def test_study_needs_two_levels(tmp_path):
    """A library caller can still pass ``run_study`` a single-grid config."""
    cfg = parse_config(SMALL_STUDY.replace("levels:\n  - [4, 4, 1]\n  - [8, 8, 2]", "n: [4, 4, 1]"))
    with pytest.raises(Exception, match="two refinement levels"):
        run_study(cfg, tmp_path)


def test_study_rejects_non_decreasing_levels(tmp_path, capsys, monkeypatch):
    """A level no finer than the last fails at its line when the config
    loads, before any level is assembled."""
    import linedg.cli as cli

    def no_assembly(*args, **kwargs):
        raise AssertionError("a level was assembled before the level order was checked")

    monkeypatch.setattr(cli, "assemble_stiffness", no_assembly)
    path = tmp_path / "cfg.yaml"
    path.write_text(SMALL_STUDY.replace("[8, 8, 2]", "[4, 4, 1]"))
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    line = SMALL_STUDY.splitlines().index("  - [8, 8, 2]") + 1
    assert capsys.readouterr().err == (
        f"error: {path}:{line}: levels must strictly decrease the mesh size\n")
    assert not (tmp_path / "out").exists()


def test_study_rate_assertion_exit_code(tmp_path, capsys):
    bad = SMALL_STUDY + "assert_rates:\n  - {norm: l2, region: boxA, min: 3.5, max: 4.0}\n"
    path = tmp_path / "cfg.yaml"
    path.write_text(bad)
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "RATE ASSERTION FAILED" in err


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("nonsense: true\n")
    code = main([str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unsupported_degree_exits_at_load(tmp_path, capsys):
    """An unsupported degree is a configuration error at its line, exit 1,
    before any mesh is built."""
    path = tmp_path / "cfg.yaml"
    path.write_text(SMALL_STUDY.replace("degree: 1", "degree: 5"))
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    line = SMALL_STUDY.splitlines().index("degree: 1") + 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: degree 5 not supported")


@pytest.mark.parametrize("scheme", ["epsilon: 2", "sigma: 0.5"])
def test_study_invalid_scheme_is_config_error(tmp_path, capsys, scheme):
    path = tmp_path / "cfg.yaml"
    path.write_text(SMALL_STUDY + f"scheme:\n  {scheme}\n")
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    line = SMALL_STUDY.count("\n") + 2  # the scheme mapping starts below "scheme:"
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_incomplete_variant_solves_with_bicgstab(tmp_path):
    """epsilon = 0 gives a nonsymmetric operator; the solve picks BiCGStab itself."""
    path = tmp_path / "cfg.yaml"
    text = SMALL_STUDY.replace("levels:\n  - [4, 4, 1]\n  - [8, 8, 2]", "n: [4, 4, 1]")
    path.write_text(text + "scheme: {epsilon: 0, sigma: 10, beta: 2}\n")
    code = main([str(path), "--out-dir", str(tmp_path / "out"), "--no-vtk"])
    assert code == 0
    run = yaml.safe_load((tmp_path / "out" / "metadata.yaml").read_text())["run"]
    assert run["iterations"] > 0
    assert float(read_csv(tmp_path / "out" / "errors.csv")[1][3]) > 0


def test_log_line_rejects_oblique_line_at_load(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(SMALL_STUDY.replace("end: [0.6666666666666666", "end: [0.5"))
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: ") and "vertical straight line" in err
    assert not (tmp_path / "out").exists()


def test_log_line_rejects_line_through_part_of_slab_at_load(tmp_path, capsys):
    """A vertical file curve from z = 0 to 0.1 in a 0.25 slab is not the source of u."""
    (tmp_path / "line.txt").write_text("0.6666666666666666 0.3333333333333333 0.0\n"
                                      "0.6666666666666666 0.3333333333333333 0.1\n")
    path = tmp_path / "cfg.yaml"
    path.write_text(SMALL_STUDY.replace(
        SMALL_STUDY[SMALL_STUDY.index("  kind: line"):SMALL_STUDY.index("degree:")],
        "  kind: file\n  path: line.txt\n",
    ))
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: ") and "from z = 0 to z = 0.25" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old,new", [
    ("degree: 1", "degree: true"),
    ("mode: elliptic", "mode: elliptic\nscheme: {epsilon: true}"),
    ("mode: elliptic", "mode: elliptic\nn: [true, 8, 2]"),
])
def test_yaml_boolean_for_number_is_config_error(tmp_path, capsys, old, new):
    path = tmp_path / "cfg.yaml"
    text = SMALL_STUDY.replace(old, new)
    path.write_text(text)
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    line = text[: text.index(new.splitlines()[-1])].count("\n") + 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ") and "has wrong type" in err


NO_EXACT = SMALL_STUDY.replace("exact: log_line", "exact: none")
LINE = SMALL_STUDY[SMALL_STUDY.index("  kind: line"):SMALL_STUDY.index("degree:")]
SINE = "  kind: sine\n  amplitude: 0.05\n  periods: 1\n"


@pytest.mark.parametrize("text,at", [
    (NO_EXACT.replace("levels:\n  - [4, 4, 1]\n  - [8, 8, 2]", "n: [4.7, 4, 1]"), "n:"),
    (NO_EXACT.replace("levels:\n  - [4, 4, 1]\n  - [8, 8, 2]", "n: [0, 4, 1]"), "n:"),
    (NO_EXACT.replace("  kind: line\n", SINE + "  axis: w\n"), "  axis:"),
    (NO_EXACT.replace("  kind: line\n", SINE + "  axis: 5\n"), "  axis:"),
    (NO_EXACT.replace("  kind: line\n", SINE + "  axis: 1\n"), "  axis:"),
    (NO_EXACT.replace("  kind: line\n", SINE + "  samples: 1\n"), "  samples:"),
    (NO_EXACT.replace(LINE, "  kind: file\n  path: missing.txt\n"), "  kind:"),
    (NO_EXACT.replace("0.3333333333333333, 0.25]", "0.3333333333333333, 0.3]"), "  kind:"),
    (SMALL_STUDY.replace("lo: [0.25, 0.5", "lo: [0.3, 0.5"), "  boxA:"),
    (NO_EXACT.replace("lo: [0.25, 0.5", "lo: [0.3, 0.5"), "  boxA:"),
    (SMALL_STUDY + "assert_rates:\n  - {norm: l2, min: 0.5, max: 2.0}\n"
                   "  - {norm: dg, min: 0.5, max: 2.0}\n", "  - {norm: dg"),
    (NO_EXACT + "assert_rates:\n  - {norm: l2, region: boxA, min: 1.5, max: 2.5}\n",
     "  - {norm: l2"),
], ids=["n_not_integer", "n_zero", "sine_axis_w", "sine_axis_5", "sine_axis_1", "sine_one_sample",
        "curve_file_missing", "curve_outside_domain", "region_unaligned_log_line",
        "region_unaligned_no_exact", "rate_on_global_dg", "rate_without_exact"])
def test_bad_value_fails_at_load(tmp_path, capsys, text, at):
    """Values no run can use stop the run when the configuration loads."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    line = next(i for i, l in enumerate(text.splitlines(), 1) if l.startswith(at))
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")
    assert not (tmp_path / "out").exists()


def test_region_l2_column_guards_points_on_the_curve(tmp_path):
    """A line through a quadrature point of a region's element leaves that
    region's L2 column finite, as the whole domain's is: every L2 column
    guards the points on the curve."""
    x0, y0 = 0.31258386794457677, 0.5443353619262894  # on a 2k+2 point of a boxA element
    text = SMALL_STUDY.replace("0.6666666666666666, 0.3333333333333333", f"{x0!r}, {y0!r}")
    cfg = parse_config(text.replace("levels:\n  - [4, 4, 1]\n  - [8, 8, 2]", "n: [4, 4, 1]"))
    assert cfg.columns[1].region.contains(np.array([[x0, y0, 0.1]])).all()
    with np.errstate(invalid="ignore"):  # the DG columns do not guard the curve
        errors = run_elliptic(cfg, tmp_path, vtk=False)["errors"]
    assert np.isfinite([errors["err_L2_global"], errors["err_L2_boxA"]]).all()
    assert 0 < errors["err_L2_boxA"] < errors["err_L2_global"]


def test_region_named_global_fails_at_its_line(tmp_path, capsys):
    """err_L2_global is the whole domain's column; a region named global would
    write a second column of that name."""
    region = "  global: {lo: [0.5, 0.0, 0.0], hi: [0.75, 0.25, 0.25]}"
    text = SMALL_STUDY.replace("regions:\n", f"regions:\n{region}\n")
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    code = main([str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    line = text.splitlines().index(region) + 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ") and "err_L2_global" in err
    assert not (tmp_path / "out").exists()


def test_deterministic_study_csv(tmp_path):
    cfg = parse_config(SMALL_STUDY)
    run_study(cfg, tmp_path / "a")
    run_study(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "study.csv").read_bytes() == (tmp_path / "b" / "study.csv").read_bytes()


def test_metadata_round_trip(tmp_path):
    import yaml

    from linedg.config import config_to_dict, parse_config as reparse

    cfg = parse_config(SMALL_STUDY)
    run_elliptic(cfg, tmp_path, vtk=False)
    meta = yaml.safe_load((tmp_path / "metadata.yaml").read_text())
    emitted = yaml.safe_dump(meta["config"])
    cfg2 = reparse(emitted)
    assert config_to_dict(cfg2) == config_to_dict(cfg)


@pytest.mark.parametrize("preconditioner", ["block_jacobi", "multigrid"])
def test_metadata_records_the_preconditioner(tmp_path, preconditioner):
    import yaml

    text = SMALL_STUDY.replace("solver: {rel_tol: 1.0e-10}",
                               f"solver: {{rel_tol: 1.0e-10, preconditioner: {preconditioner}}}")
    run_study(parse_config(text), tmp_path)
    runs = yaml.safe_load((tmp_path / "metadata.yaml").read_text())["runs"]
    assert [r["preconditioner"] for r in runs] == [preconditioner] * 2
    if preconditioner == "multigrid":
        assert [r["multigrid_levels"] for r in runs] == [1, 2]
        assert [r["coarsest_grid"] for r in runs] == [[4, 4, 1], [4, 4, 1]]
        # one level is its float64 dense inverse alone; two smooth in float32
        assert [r["multigrid_dtype"] for r in runs] == ["float64", "float32"]
        assert [r["coarsest_degree"] for r in runs] == [1, 1]
        # at k = 2 the 960 DoF of 4x4x1 exceed the cap: even one level smooths
        # in float32, over the inverse of its piecewise constants
        run_study(parse_config(text.replace("degree: 1", "degree: 2")), tmp_path / "k2")
        runs = yaml.safe_load((tmp_path / "k2" / "metadata.yaml").read_text())["runs"]
        assert [r["multigrid_levels"] for r in runs] == [1, 2]
        assert [r["multigrid_dtype"] for r in runs] == ["float32", "float32"]
        assert [r["coarsest_degree"] for r in runs] == [0, 0]
    else:
        assert all("multigrid_levels" not in r and "multigrid_dtype" not in r for r in runs)


def test_metadata_records_the_peak_rss_after_every_level_and_march(tmp_path):
    """Each study level and each march records the process's peak RSS after
    it, in MiB: positive, and never lower than an earlier record."""
    run_study(parse_config(SMALL_STUDY), tmp_path / "study")
    runs = yaml.safe_load((tmp_path / "study" / "metadata.yaml").read_text())["runs"]
    peaks = [r["peak_rss_mib"] for r in runs]
    assert len(peaks) == 2 and 0 < peaks[0] <= peaks[1]
    run_parabolic(parse_config(PARABOLIC), tmp_path / "march", vtk=False)
    run = yaml.safe_load((tmp_path / "march" / "metadata.yaml").read_text())["run"]
    assert run["peak_rss_mib"] >= peaks[1]


def test_nested_study_shares_one_hierarchy(tmp_path, monkeypatch):
    """A multigrid study builds each level's V-cycle on the previous level's:
    no stiffness is rebuilt by the V-cycle and the coarse matrix is
    built and inverted once.  Starting from the prolonged coarser solution
    takes no more CG iterations than a solve from zero with a fresh hierarchy."""
    from linedg import assembly, cli
    from linedg.assembly import SparseSystem
    from linedg.solver import solve

    calls = {"assemble": 0, "dense": 0}
    assemble, dense = assembly.assemble_stiffness, SparseSystem.dense

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # the stiffness's own rebuilding rule calls the name in ``assembly``; ``cli`` its import
    monkeypatch.setattr(assembly, "assemble_stiffness", counting("assemble", assemble))
    monkeypatch.setattr(SparseSystem, "dense", counting("dense", dense))
    solved = []

    def recording(system, b, config, **kwargs):
        solved.append((system, b))
        return solve(system, b, config, **kwargs)

    monkeypatch.setattr(cli, "solve", recording)
    text = SMALL_STUDY.replace("  - [8, 8, 2]\n", "  - [8, 8, 2]\n  - [16, 16, 4]\n").replace(
        "solver: {rel_tol: 1.0e-10}", "solver: {rel_tol: 1.0e-10, preconditioner: multigrid}")
    cfg = parse_config(text)
    run_study(cfg, tmp_path)
    assert calls == {"assemble": 0, "dense": 1}
    runs = yaml.safe_load((tmp_path / "metadata.yaml").read_text())["runs"]
    assert [r["multigrid_levels"] for r in runs] == [1, 2, 3]
    assert [r["multigrid_dtype"] for r in runs] == ["float64", "float32", "float32"]
    from_zero = [solve(system, b, cfg.solver).iterations for system, b in solved]
    assert len(from_zero) == 3
    assert all(r["iterations"] <= i for r, i in zip(runs, from_zero))


def test_study_whose_levels_do_not_halve_builds_each_v_cycle_afresh(tmp_path, monkeypatch):
    """A multigrid level whose grid is not the last one's doubled (8x8x1 after
    4x4x1: z stays 1) builds its own V-cycle, with its own coarsest matrix,
    and CG starts from zero."""
    from linedg import cli
    from linedg.assembly import SparseSystem
    from linedg.solver import solve

    dense, densified, starts = SparseSystem.dense, [], []

    def counting(system):
        densified.append(system.ndof)
        return dense(system)

    def recording(system, b, config, x0=None, **kwargs):
        starts.append(x0)
        return solve(system, b, config, x0=x0, **kwargs)

    monkeypatch.setattr(SparseSystem, "dense", counting)
    monkeypatch.setattr(cli, "solve", recording)
    text = SMALL_STUDY.replace("  - [8, 8, 2]\n", "  - [8, 8, 1]\n").replace(
        "solver: {rel_tol: 1.0e-10}", "solver: {rel_tol: 1.0e-10, preconditioner: multigrid}")
    run_study(parse_config(text), tmp_path)
    runs = yaml.safe_load((tmp_path / "metadata.yaml").read_text())["runs"]
    assert [r["multigrid_levels"] for r in runs] == [1, 1]
    assert len(densified) == 2
    assert starts == [None, None]


def test_multigrid_parabolic_config_runs(tmp_path):
    """A parabolic config with multigrid exits 0 and records the V-cycle it used."""
    text = PARABOLIC.replace("solver: {rel_tol: 1.0e-10}",
                             "solver:\n  rel_tol: 1.0e-10\n  preconditioner: multigrid")
    text = text.replace("n: [4, 4, 1]", "n: [4, 4, 2]")
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert main([str(path), "--out-dir", str(tmp_path / "out"), "--no-vtk"]) == 0
    run = yaml.safe_load((tmp_path / "out" / "metadata.yaml").read_text())["run"]
    assert run["preconditioner"] == "multigrid"
    assert run["multigrid_levels"] == 2 and run["coarsest_grid"] == [2, 2, 1]
    assert run["multigrid_dtype"] == "float32" and run["coarsest_degree"] == 1
    assert 0 < run["cg_iterations_total"]


def test_zero_initial_state_is_not_projected(tmp_path, monkeypatch):
    """``initial: zero`` builds no function, so the demo starts from the zero
    vector without projecting zeros through a volume integral."""
    import linedg.parabolic

    path = CONFIG_DIR / "parabolic_demo.yaml"
    assert load_config(path).initial.build() is None

    def refuse(*args, **kwargs):
        raise AssertionError("assemble_volume_rhs called")

    monkeypatch.setattr(linedg.parabolic, "assemble_volume_rhs", refuse)
    assert main([str(path), "--out-dir", str(tmp_path), "--no-vtk"]) == 0


def test_parabolic_run_memory_does_not_grow_with_the_series(tmp_path):
    """A streamed run holds u^{n-1}, u^n and the projection basis (one row per
    step), not the series: from 20 to 80 steps its tracemalloc peak grows by at
    most the basis's 60 more rows plus two ndof vectors.  Collecting the
    series would add another 60 rows."""
    import tracemalloc

    def config(steps):
        return parse_config(PARABOLIC.replace("n: [4, 4, 1]", "n: [8, 8, 2]")
                            .replace("steps: 4", f"steps: {steps}") + "snapshot_every: 10\n")

    run_parabolic(config(20), tmp_path / "warm", vtk=True)  # the caches of rules and bases
    peaks = {}
    for steps in (20, 80):
        tracemalloc.start()
        try:
            run_parabolic(config(steps), tmp_path / str(steps), vtk=True)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    vector = 8 * 6 * (8 * 8 * 2) * 4  # bytes of one float64 vector: 6 tets per cell, 4 dofs each
    assert len(list((tmp_path / "80").glob("snapshot_*.vtk"))) == 9
    assert peaks[80] - peaks[20] <= (60 + 2) * vector, (peaks, vector)


def test_failed_step_leaves_the_snapshots_due_before_it(tmp_path):
    """A streamed run that fails at step 1 raises with the step label, has
    written the snapshot of step 0 and writes no history or metadata."""
    from linedg.errors import NonconvergenceError

    cfg = parse_config(PARABOLIC.replace("solver: {rel_tol: 1.0e-10}",
                                         "solver: {rel_tol: 1.0e-14, max_iter: 1}")
                       + "snapshot_every: 1\n")
    with pytest.raises(NonconvergenceError, match="time step 1"):
        run_parabolic(cfg, tmp_path, vtk=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot_00000.vtk"]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_write_their_tables(tmp_path, path):
    """Every shipped config runs as its mode and grid key name it: a march
    writes history.csv, an n config errors.csv and a levels config study.csv."""
    cfg = load_config(path)
    if cfg.mode == "parabolic":
        table, header = "history.csv", ["n", "t", "l2_norm", "dg_norm", "increment_sq_sum"]
        n_rows = cfg.time.steps + 1
    else:
        table = "study.csv" if len(cfg.levels) > 1 else "errors.csv"
        header = ["k", "h", "n_dof"]
        if cfg.exact is not None:
            regions = [c.name.removeprefix("err_DG_") for c in cfg.columns if c.norm == "dg"]
            header += ["err_L2_global"] + [f"err_{norm}_{name}" for norm in ("L2", "DG")
                                           for name in regions]
        if table == "study.csv":
            header += [column.rate for column in cfg.columns]
        n_rows = len(cfg.levels)
    assert main([str(path), "--out-dir", str(tmp_path), "--no-vtk"]) == 0
    rows = read_csv(tmp_path / table)
    assert rows[0] == header and len(rows) == n_rows + 1
    assert all(len(row) == len(header) for row in rows)
    assert {"history.csv", "errors.csv", "study.csv"} & {p.name for p in tmp_path.iterdir()} == {table}
    assert not list(tmp_path.glob("*.vtk"))


@pytest.mark.parametrize("text,vtks", [
    (SMALL_STUDY.replace("levels:\n  - [4, 4, 1]\n  - [8, 8, 2]", "n: [4, 4, 1]"),
     ["solution_k1_n4x4x1.vtk"]),
    (PARABOLIC + "snapshot_every: 2\n", ["snapshot_00000.vtk", "snapshot_00002.vtk",
                                         "snapshot_00004.vtk"]),
    (SMALL_STUDY, []),
], ids=["single", "parabolic", "study"])
def test_vtk_default_follows_the_run(tmp_path, text, vtks):
    """Without --vtk or --no-vtk a single solve and a march write VTK, a study does not."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert main([str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("*.vtk")) == vtks


def test_shipped_sine_demo_runs(tmp_path):
    code = main([str(CONFIG_DIR / "sine_demo.yaml"), "--out-dir", str(tmp_path), "--vtk"])
    assert code == 0
    vtks = list(tmp_path.glob("*.vtk"))
    assert vtks
    rows = read_csv(tmp_path / "errors.csv")
    assert rows[0] == ["k", "h", "n_dof"]  # no exact solution, no error columns


def test_parabolic_zero_run_all_zero(tmp_path):
    cfg = parse_config(PARABOLIC + "source: {kind: constant, value: 0.0}\n")
    result = run_parabolic(cfg, tmp_path, vtk=False)
    assert np.all(result["final"].coeffs == 0)
    rows = read_csv(tmp_path / "history.csv")
    assert rows[0] == ["n", "t", "l2_norm", "dg_norm", "increment_sq_sum"]
    assert all(float(r[2]) == 0.0 for r in rows[1:])


def test_parabolic_steady_state_vs_elliptic(tmp_path):
    from linedg import basis as fb
    from linedg.assembly import DGSpec, assemble_stiffness
    from linedg.curve import assemble_line_rhs
    from linedg.fields import FieldFunction
    from linedg.mesh import build_box_mesh
    from linedg.norms import l2_error
    from linedg.solver import SolverConfig, solve

    cfg = parse_config(PARABOLIC.replace("time: {final: 0.1, steps: 4}",
                                         "time: {final: 5.0, steps: 50}"))
    result = run_parabolic(cfg, tmp_path, vtk=False)

    mesh = build_box_mesh(cfg.domain, cfg.levels[0])
    basis = fb.make_basis(1)
    spec = DGSpec(k=1, epsilon=-1, sigma=5.0, beta=1.0)
    system = assemble_stiffness(mesh, spec, basis)
    b = assemble_line_rhs(cfg.curve, 1.0, mesh, basis)
    x = solve(system, b, SolverConfig(rel_tol=1e-12)).x
    gap = FieldFunction.from_vector(mesh, basis, result["final"].coeffs.ravel() - x)
    assert l2_error(gap, 0.0) < 1e-9


def test_snapshot_cadence(tmp_path):
    cfg = parse_config(PARABOLIC + "snapshot_every: 2\n")
    run_parabolic(cfg, tmp_path, vtk=True)
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.vtk"))
    assert snaps == ["snapshot_00000.vtk", "snapshot_00002.vtk", "snapshot_00004.vtk"]


def test_parabolic_metadata_records_iterations(tmp_path):
    cfg = parse_config(PARABOLIC)
    result = run_parabolic(cfg, tmp_path, vtk=False)
    run = yaml.safe_load((tmp_path / "metadata.yaml").read_text())["run"]
    assert len(run["cg_iterations"]) == cfg.time.steps
    assert run["cg_iterations"] == list(result["step_iterations"])
    assert all(isinstance(i, int) and i >= 0 for i in run["cg_iterations"])
    assert run["cg_iterations_total"] == sum(run["cg_iterations"]) > 0
    assert run["preconditioner"] == "block_jacobi" and "multigrid_levels" not in run
