from pathlib import Path
import warnings

import numpy as np
import pytest
import yaml

from linedg.assembly import DGSpec
from linedg.cli import main
from linedg.config import config_to_dict, load_config, parse_config
from linedg.errors import ConfigError
from linedg.mesh import BoxDomain
from linedg.problems import sine_curve

MINIMAL = """
domain: {lo: [0, 0, 0], hi: [1, 1, 0.25]}
curve:
  kind: line
  start: [0.5, 0.5, 0.0]
  end: [0.5, 0.5, 0.25]
degree: 1
n: [4, 4, 1]
"""


STUDY = MINIMAL.replace("n: [4, 4, 1]", "levels: [[4, 4, 1], [8, 8, 2]]")


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.degree == 1
    assert cfg.levels == ((4, 4, 1),)
    assert cfg.scheme.epsilon == -1 and cfg.scheme.sigma == 5.0 and cfg.scheme.beta == 1.0
    assert cfg.mode == "elliptic"
    assert cfg.exact is None
    curve = cfg.build_curve()
    assert abs(curve.length - 0.25) < 1e-15


@pytest.mark.parametrize(
    "degree,scheme", [(3, ""), (1, "scheme: {epsilon: 0}"), (2, "scheme: {epsilon: 1, sigma: 30}")]
)
def test_omitted_scheme_values_follow_dgspec_default(degree, scheme):
    cfg = parse_config(MINIMAL.replace("degree: 1", f"degree: {degree}") + scheme)
    default = DGSpec(degree, cfg.scheme.epsilon)
    assert cfg.scheme.sigma == (30.0 if "sigma" in scheme else default.sigma)
    assert cfg.scheme.beta == default.beta


def test_unknown_keys_rejected_with_line():
    text = MINIMAL + "\nbogus_key: 1\n"
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(text)
    with pytest.raises(ConfigError, match=":3:"):
        parse_config(
            "domain: {lo: [0,0,0], hi: [1,1,1]}\n"
            "curve:\n"
            "  sort: line\n"
            "  start: [0.5, 0.5, 0]\n"
            "  end: [0.5, 0.5, 1]\n"
            "degree: 1\n"
            "n: [2,2,2]\n"
        )


def test_solver_method_key_rejected_with_line():
    """The Krylov method follows from the operator's symmetry; it is no option."""
    text = MINIMAL + "solver:\n  method: cg\n"
    line = text.splitlines().index("  method: cg") + 1
    with pytest.raises(ConfigError, match=rf":{line}: unknown key\(s\) in solver: \['method'\]"):
        parse_config(text)


def test_jacobi_preconditioner_rejected_with_line():
    text = MINIMAL + "solver:\n  rel_tol: 1.0e-10\n  preconditioner: jacobi\n"
    with pytest.raises(ConfigError, match=r"<config>:10: unknown preconditioner 'jacobi'"):
        parse_config(text)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="degree"):
        parse_config("domain: {lo: [0,0,0], hi: [1,1,1]}\ncurve: {kind: line, start: [0.5,0.5,0.2], end: [0.5,0.5,0.8]}\nn: [2,2,2]")
    with pytest.raises(ConfigError, match="'n' or 'levels'"):
        parse_config(MINIMAL.replace("n: [4, 4, 1]", ""))


def test_bad_domain_reported():
    with pytest.raises(ConfigError, match="hi > lo"):
        parse_config(MINIMAL.replace("hi: [1, 1, 0.25]", "hi: [1, -1, 0.25]"))


def test_time_section_validation():
    """time takes final and steps, both required; tau is no key of it."""
    base = MINIMAL + "mode: parabolic\n"
    with pytest.raises(ConfigError, match="time"):
        parse_config(base)
    with pytest.raises(ConfigError, match=r"<config>:10: time.steps is required"):
        parse_config(base + "time: {final: 1.0}\n")
    for time in ("{final: 1.0, tau: 0.25}", "{final: 1.0, tau: 0.1, steps: 5}"):
        with pytest.raises(ConfigError, match=r"<config>:10: unknown key\(s\) in time: \['tau'\]"):
            parse_config(base + f"time: {time}\n")
    with pytest.raises(ConfigError, match=r"<config>:10: final_time must be positive"):
        parse_config(base + "time: {final: 0.0, steps: 4}\n")
    with pytest.raises(ConfigError, match=r"<config>:10: need at least one time step"):
        parse_config(base + "time: {final: 1.0, steps: 0}\n")
    assert parse_config(base + "time: {final: 1.0, steps: 4}\n").time.tau == 0.25
    unknown = r"<config>:9: unknown key\(s\) in configuration: \['time'\]"
    with pytest.raises(ConfigError, match=unknown):
        parse_config(MINIMAL + "time: {final: 1.0, steps: 2}\n")


def test_tau_that_does_not_divide_final_rejected_with_line(tmp_path, capsys):
    """The step count is given, never derived from a step size: a tau, whether
    or not it divides final, is rejected at its line and the run exits 1."""
    base = MINIMAL + "mode: parabolic\n"
    for tau in ("0.03", "0.05"):
        text = base + f"time:\n  final: 0.2\n  tau: {tau}\n"
        code, err = _exit_code_and_error(tmp_path, capsys, text)
        assert code == 1
        assert err == "error: cfg.yaml:12: unknown key(s) in time: ['tau']\n"


def test_parsed_regions_compare_equal():
    path = Path(__file__).parent.parent / "configs" / "study_k1.yaml"
    first, second = load_config(path), load_config(path)
    assert first.columns == second.columns
    boxes = {column.name: column.region for column in first.columns}
    assert boxes["err_L2_boxA"] != boxes["err_L2_boxB"]


def test_expression_source():
    cfg = parse_config(
        MINIMAL + "source: {kind: expression, expr: '1 + 0.5*sin(2*pi*s) + t'}\n"
    )
    fn, dep = cfg.source.build()
    assert dep
    s = np.array([0.0, 0.25])
    assert np.allclose(fn(2.0, s), 3.0 + 0.5 * np.sin(2 * np.pi * s))
    cfg2 = parse_config(MINIMAL + "source: {kind: expression, expr: 'exp(-s)'}\n")
    fn2, dep2 = cfg2.source.build()
    assert not dep2
    assert np.allclose(fn2(0.0, s), np.exp(-s))


def test_sine_curve_config():
    text = MINIMAL.replace(
        "kind: line",
        "kind: sine\n  amplitude: 0.1\n  periods: 2\n  axis: y\n  samples: 16",
    )
    cfg = parse_config(text)
    curve = cfg.build_curve()
    assert len(curve.points) == 16


def test_sine_axis_accepted_by_library_and_config_alike():
    """sine_curve and the config take exactly the letters x, y and z; both
    refuse the rest, integers included, with a ValueError (the config's
    carries its line)."""
    args = ([0.1, 0.5, 0.1], [0.9, 0.5, 0.1], 0.05, 1.0)
    straight = sine_curve(*args[:2], 0.0, 1.0, "x", 9).points
    text = MINIMAL.replace("kind: line", "kind: sine\n  amplitude: 0.05\n  periods: 1\n  axis: AXIS")
    line = text.splitlines().index("  axis: AXIS") + 1
    for good, axis in (("x", 0), ("y", 1), ("z", 2)):
        moved = sine_curve(*args, good, 9).points != straight
        assert moved[:, axis].any() and not np.delete(moved, axis, axis=1).any()
        parse_config(text.replace("AXIS", good))
    for bad in (np.int64(1), np.bool_(True)):
        with pytest.raises(ValueError, match="axis must be one of x, y, z"):
            sine_curve(*args, bad, 9)
    for bad, yaml_text in (("w", "w"), (5, "5"), ("Y", "Y"), (True, "true"), (1.0, "1.0"),
                           (-1, "-1"), (0, "0"), (1, "1"), (2, "2")):
        with pytest.raises(ValueError, match="axis must be one of x, y, z"):
            sine_curve(*args, bad, 9)
        with pytest.raises(ConfigError, match=rf"^<config>:{line}: curve.axis must be one of x, y, "):
            parse_config(text.replace("AXIS", yaml_text))


def test_curve_file_loading(tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text("0.5 0.5 0.05\n0.5 0.5 0.20\n")
    cfg = parse_config(
        MINIMAL.replace(
            "kind: line\n  start: [0.5, 0.5, 0.0]\n  end: [0.5, 0.5, 0.25]",
            f"kind: file\n  path: {path.name}",
        ),
        base_dir=tmp_path,
    )
    curve = cfg.build_curve()
    assert abs(curve.length - 0.15) < 1e-12


def test_exact_requires_vertical_line():
    text = MINIMAL.replace(
        "kind: line",
        "kind: sine\n  amplitude: 0.1\n  periods: 2\n  axis: y\n  samples: 16",
    )
    with pytest.raises(ConfigError, match="reference solution"):
        parse_config(text + "exact: log_line\n")


def test_round_trip_through_dict():
    text = (
        STUDY
        + "regions:\n  boxA: {lo: [0.25, 0.5, 0.0], hi: [0.5, 0.75, 0.25]}\n"
        + "exact: log_line\n"
        + "assert_rates:\n  - {norm: l2, region: boxA, min: 1.5, max: 2.5}\n"
    )
    cfg = parse_config(text)
    emitted = yaml.safe_dump(config_to_dict(cfg))
    cfg2 = parse_config(emitted)
    assert config_to_dict(cfg) == config_to_dict(cfg2)


BOX_A = BoxDomain([0.25, 0.5, 0.0], [0.5, 0.75, 0.25])
WITH_REGION = (STUDY + "regions:\n  boxA: {lo: [0.25, 0.5, 0.0], hi: [0.5, 0.75, 0.25]}\n"
               + "exact: log_line\n")


@pytest.mark.parametrize("norm,region,column", [
    ("dg", "boxB", "err_DG_boxB"), ("dg", "global", "err_DG_global"),
    ("l2", "boxC", "err_L2_boxC"),
])
def test_rate_on_a_column_not_written_names_it_and_the_written_ones(norm, region, column):
    text = WITH_REGION + f"assert_rates:\n  - {{norm: {norm}, region: {region}, min: 1, max: 2}}\n"
    line = len(text.splitlines())
    written = "err_L2_global, err_L2_boxA, err_DG_boxA"
    with pytest.raises(ConfigError, match=rf"<config>:{line}: .*\b{column}\b.* writes {written}$"):
        parse_config(text)


def test_study_columns_follow_the_regions():
    cfg = parse_config(WITH_REGION + "assert_rates:\n  - {norm: dg, region: boxA, min: 1, max: 2}\n")
    assert [(c.name, c.norm, c.region) for c in cfg.columns] == [
        ("err_L2_global", "l2", None), ("err_L2_boxA", "l2", BOX_A),
        ("err_DG_boxA", "dg", BOX_A)]
    assert [c.rate for c in cfg.columns] == ["rate_L2_global", "rate_L2_boxA", "rate_DG_boxA"]
    assert [a.column for a in cfg.assert_rates] == ["err_DG_boxA"]
    assert parse_config(WITH_REGION.replace("exact: log_line", "exact: none")).columns == ()


@pytest.mark.parametrize("text,key", [
    (MINIMAL + "degree: 2\n", "degree"),
    (MINIMAL + "regions:\n  boxA: {lo: [0.25, 0.5, 0.0], hi: [0.5, 0.75, 0.25]}\n"
               "  boxA: {lo: [0.5, 0.5, 0.0], hi: [0.75, 0.75, 0.25]}\n", "boxA"),
    (MINIMAL + "solver:\n  rel_tol: 1.0e-8\n  max_iter: 50\n  rel_tol: 1.0e-6\n", "rel_tol"),
], ids=["top_level", "region", "nested"])
def test_repeated_key_fails_at_the_repeat(text, key):
    """A repeated key is rejected, not silently overwritten by its last value."""
    with pytest.raises(ConfigError, match=rf"^<config>:{len(text.splitlines())}: repeated key '{key}'$"):
        parse_config(text)


def test_load_config_reports_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL + "degree: [what]\n")
    with pytest.raises(ConfigError, match="bad.yaml"):
        load_config(path)


@pytest.mark.parametrize("expr", ["().__class__", "__import__('os')", "sin.__name__"])
def test_expression_outside_whitelist_rejected_with_line(expr):
    text = MINIMAL + f'source: {{kind: expression, expr: "{expr}"}}\n'
    with pytest.raises(ConfigError, match=r"<config>:9: .*not allowed"):
        parse_config(text)


def test_expression_syntax_error_reported_at_load(tmp_path):
    path = tmp_path / "heat.yaml"
    path.write_text(
        MINIMAL + "mode: parabolic\ntime: {final: 1.0, steps: 2}\n"
        "initial:\n  kind: expression\n  expr: 'sin(x +'\n"
    )
    with pytest.raises(ConfigError, match=r"heat.yaml:13: initial.expr: invalid expression"):
        load_config(path)


def test_multigrid_grid_too_large_rejected_at_load():
    text = MINIMAL.rstrip() + "\nsolver: {preconditioner: multigrid}\n"
    parse_config(text)
    bad = text.replace("[4, 4, 1]", "[13, 13, 3]")
    assert bad != text
    with pytest.raises(ConfigError, match=r":\d+: multigrid: grid \(13, 13, 3\)"):
        parse_config(bad)


def test_parabolic_multigrid_grid_checked_at_load():
    """Parabolic mode takes multigrid; its one grid is checked as a study level is."""
    text = PARABOLIC + "solver: {preconditioner: multigrid}\n"
    assert parse_config(text).solver.preconditioner == "multigrid"
    line = text.splitlines().index("solver: {preconditioner: multigrid}") + 1
    with pytest.raises(ConfigError, match=rf"<config>:{line}: multigrid: grid \(13, 13, 3\)"):
        parse_config(text.replace("[4, 4, 1]", "[13, 13, 3]"))


def test_keys_of_the_other_mode_are_none():
    elliptic, parabolic = parse_config(MINIMAL), parse_config(PARABOLIC)
    assert elliptic.time is None and elliptic.initial is None and elliptic.snapshot_every is None
    assert parabolic.exact is None and parabolic.columns == () and parabolic.assert_rates == ()
    assert parabolic.initial.kind == "zero" and parabolic.snapshot_every == 0


def test_shipped_configs_load():
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")):
        cfg = load_config(path)
        if cfg.source.kind == "expression":
            cfg.source.build()
        if cfg.mode == "parabolic" and cfg.initial.kind == "expression":
            cfg.initial.build()


def test_quoted_number_is_a_string_expression():
    cfg = parse_config(MINIMAL + 'source: {kind: expression, expr: "2"}\n')
    fn, dependent = cfg.source.build()
    assert np.array_equal(fn(0.0, np.array([0.0, 0.1])), [2.0, 2.0]) and not dependent


def test_quoted_degree_rejected_with_line():
    with pytest.raises(ConfigError, match=r"<config>:7: degree has wrong type \(got str\)"):
        parse_config(MINIMAL.replace("degree: 1", 'degree: "1"'))


@pytest.mark.parametrize("degree,message", [
    (5, "degree 5 not supported"), (0, "degree k must be >= 1")])
def test_degree_without_a_basis_rejected_with_line(degree, message):
    """A degree the basis does not provide fails at load, at its line; a
    degree below 1 keeps the message of the scheme check."""
    with pytest.raises(ConfigError, match=rf"^<config>:7: {message}"):
        parse_config(MINIMAL.replace("degree: 1", f"degree: {degree}"))


@pytest.mark.parametrize("old,new,key", [
    ("kind: line", "kind: line\n  amplitude: 0.1", "amplitude"),
    ("kind: line\n  start: [0.5, 0.5, 0.0]", "kind: file\n  path: c.txt\n  start: [0.5, 0.5, 0.0]",
     "start"),
    ("n: [4, 4, 1]", "n: [4, 4, 1]\nsource: {kind: constant, expr: s}", "expr"),
    ("n: [4, 4, 1]", "n: [4, 4, 1]\nsource: {kind: expression, expr: s, value: 2}", "value"),
], ids=["line_amplitude", "file_start_end", "constant_expr", "expression_value"])
def test_keys_of_another_kind_rejected(old, new, key):
    text = MINIMAL.replace(old, new)
    assert text != MINIMAL
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) in (curve|source): \[.*'{key}'"):
        parse_config(text)



PARABOLIC = MINIMAL + "mode: parabolic\ntime: {final: 0.1, steps: 2}\n"


def _exit_code_and_error(tmp_path, capsys, text):
    """``main``'s exit code and standard error for ``text``, which must fail
    before the run makes its output directory."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    code = main([str(path), "--out-dir", str(tmp_path / "out"), "--no-vtk"])
    assert not (tmp_path / "out").exists()
    return code, capsys.readouterr().err.replace(str(path), "cfg.yaml")


@pytest.mark.parametrize("text,key", [
    (PARABOLIC + "exact: log_line\n", "exact"),
    (PARABOLIC + "regions:\n  boxA: {lo: [0.25, 0.5, 0.0], hi: [0.5, 0.75, 0.25]}\n", "regions"),
    (PARABOLIC + "assert_rates:\n  - {norm: l2, min: 5, max: 6}\n", "assert_rates"),
    (PARABOLIC.replace("n: [4, 4, 1]\n", "levels:\n  - [4, 4, 1]\n  - [8, 8, 2]\n"), "levels"),
    (MINIMAL + "initial:\n  kind: zero\n", "initial"),
    (MINIMAL + "snapshot_every: 10\n", "snapshot_every"),
], ids=["parabolic_exact", "parabolic_regions", "parabolic_assert_rates", "parabolic_two_levels",
        "elliptic_initial", "elliptic_snapshot_every"])
def test_keys_of_another_mode_rejected_at_their_line(tmp_path, capsys, text, key):
    """A mode takes only its own keys, and parabolic mode takes its one grid
    as n; a key the run would not read fails at load, not silently recorded."""
    line = [row.split(":")[0] for row in text.splitlines()].index(key) + 1
    code, err = _exit_code_and_error(tmp_path, capsys, text)
    assert code == 1
    assert err == f"error: cfg.yaml:{line}: unknown key(s) in configuration: ['{key}']\n"


def test_record_holds_the_keys_of_its_mode():
    """Each mode records its own keys only, and its record reparses to itself."""
    own = {"elliptic": {"regions", "exact", "assert_rates"},
           "parabolic": {"time", "initial", "snapshot_every"}}
    for text in (WITH_REGION + "assert_rates:\n  - {norm: dg, region: boxA, min: 1, max: 2}\n",
                 PARABOLIC + "initial: {kind: expression, expr: 'x * y'}\nsnapshot_every: 1\n"):
        record = config_to_dict(parse_config(text))
        other = own["parabolic" if record["mode"] == "elliptic" else "elliptic"]
        assert own[record["mode"]] <= set(record) and not other & set(record)
        assert config_to_dict(parse_config(yaml.safe_dump(record))) == record
    assert "exact" not in config_to_dict(parse_config(PARABOLIC))


@pytest.mark.parametrize("text,line", [
    ("? [a, b]\n: 1\n" + MINIMAL, 1),
    (MINIMAL + "solver:\n  ? {rel_tol: 1.0e-8}\n  : 1\n", 10),
], ids=["sequence_top_level", "mapping_nested"])
def test_non_scalar_key_fails_at_its_line(tmp_path, capsys, text, line):
    code, err = _exit_code_and_error(tmp_path, capsys, text)
    assert code == 1
    kind = "sequence" if line == 1 else "mapping"
    assert err == f"error: cfg.yaml:{line}: a key must be a plain name, not a {kind}\n"


def test_sine_curve_records_its_sample_count():
    text = MINIMAL.replace("kind: line", "kind: sine\n  amplitude: 0.1\n  periods: 2")
    record = config_to_dict(parse_config(text))["curve"]
    assert record == {"kind": "sine", "start": [0.5, 0.5, 0.0], "end": [0.5, 0.5, 0.25],
                      "amplitude": 0.1, "periods": 2.0, "axis": "y", "samples": 48}


@pytest.mark.parametrize("grids", [
    "n: [4, 4, 1]\nlevels:\n  - [8, 8, 2]\n", "levels:\n  - [8, 8, 2]\nn: [4, 4, 1]\n",
], ids=["n_first", "levels_first"])
def test_elliptic_grid_is_n_or_levels_never_both(tmp_path, capsys, grids):
    """An elliptic configuration takes exactly one grid key; the second one
    given fails at its line, and no run starts on a joined list."""
    text = MINIMAL.replace("n: [4, 4, 1]\n", grids)
    second = "levels:" if grids.startswith("n") else "n: [4, 4, 1]"
    line = text.splitlines().index(second) + 1
    code, err = _exit_code_and_error(tmp_path, capsys, text)
    assert code == 1
    assert err == f"error: cfg.yaml:{line}: give exactly one of 'n' or 'levels'\n"


def test_grid_key_rejected_without_a_grid():
    """An empty levels list names no grid; parabolic mode requires its n."""
    text = MINIMAL.replace("n: [4, 4, 1]", "levels: []")
    with pytest.raises(ConfigError,
                       match=r"^<config>:8: levels must list at least two grids; one grid is n$"):
        parse_config(text)
    text = PARABOLIC.replace("n: [4, 4, 1]\n", "")
    with pytest.raises(ConfigError, match=r"^<config>:2: n is required$"):
        parse_config(text)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_shipped_config_records_its_own_spellings(path):
    """The record keeps the grid key the file gives, n or levels, with its
    value, and reparses to itself."""
    given = yaml.safe_load(path.read_text())
    record = config_to_dict(load_config(path))
    grid = "n" if "n" in given else "levels"
    assert record[grid] == given[grid] and ({"n", "levels"} - {grid}).isdisjoint(record)
    assert record["time"] == given["time"] if "time" in given else "time" not in record
    reparsed = parse_config(yaml.safe_dump(record), base_dir=path.parent)
    assert config_to_dict(reparsed) == record


@pytest.mark.parametrize("text,key,value", [
    (PARABOLIC.replace("final: 0.1", "final: .inf"), "time.final", "inf"),
    (PARABOLIC.replace("final: 0.1", "final: .nan"), "time.final", "nan"),
    (MINIMAL + "scheme: {sigma: .inf}\n", "scheme.sigma", "inf"),
    (MINIMAL + "source: {kind: constant, value: .nan}\n", "source.value", "nan"),
], ids=["final_inf", "final_nan", "sigma_inf", "value_nan"])
def test_non_finite_number_rejected_at_its_line(tmp_path, capsys, text, key, value):
    """YAML's .inf and .nan are numbers to the loader, but no key takes one:
    each fails at its line at load, and the run exits 1, not in its first solve."""
    line = len(text.splitlines())
    message = f"{line}: {key} must be a finite number (got {value})"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"<config>:{message}"
    code, err = _exit_code_and_error(tmp_path, capsys, text)
    assert code == 1
    assert err == f"error: cfg.yaml:{message}\n"


UNIT_SOURCE = ("exact: log_line solves the problem of the unit line density only; "
               "source must be constant 1")


@pytest.mark.parametrize("text,at,message", [
    (MINIMAL.replace("n: [4, 4, 1]", "levels:\n  - [4, 4, 1]"), "  - [4, 4, 1]",
     "levels must list at least two grids; one grid is n"),
    (MINIMAL.replace("n: [4, 4, 1]", "levels:\n  - [8, 8, 2]\n  - [4, 4, 1]"), "  - [4, 4, 1]",
     "levels must strictly decrease the mesh size"),
    (MINIMAL + "exact: log_line\nassert_rates: [{norm: l2, min: 50, max: 60}]\n", "assert_rates:",
     "assert_rates needs levels; n is one grid"),
    (STUDY + "exact: log_line\nassert_rates:\n  - {norm: l2, min: 1.5, max: 2.5}\n"
     "  - {norm: l2, region: global, min: 2.0, max: 1.0}\n", "  - {norm: l2, region",
     "assert_rates: min 2.0 exceeds max 1.0 for err_L2_global"),
    (MINIMAL + "exact: log_line\nsource: {kind: constant, value: 2.0}\n", "source:", UNIT_SOURCE),
    (MINIMAL + "source:\n  kind: expression\n  expr: \"1 + 0 * s\"\nexact: log_line\n",
     "source:", UNIT_SOURCE),
], ids=["one_grid_levels", "level_not_finer", "rates_without_levels", "rate_min_above_max",
        "log_line_source_two", "log_line_source_expression"])
def test_study_rule_fails_at_its_line_before_any_mesh(tmp_path, capsys, monkeypatch, text, at,
                                                     message):
    """A study's rules are checked where they are written: a levels list of
    one grid, a level no finer than the last, a rate window on a single grid
    or with min above max, and ``exact: log_line`` with a source other than
    the unit density it is the potential of (even an expression equal to 1)
    exit 1 at their line, before any mesh is built."""
    import linedg.cli

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the study rules were checked")

    monkeypatch.setattr(linedg.cli, "build_box_mesh", no_mesh)
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(at))
    code, err = _exit_code_and_error(tmp_path, capsys, text)
    assert code == 1
    assert err == f"error: cfg.yaml:{line}: {message}\n"


@pytest.mark.parametrize("text,expr,table", [
    (MINIMAL + 'source: {kind: expression, expr: "log(s - s)"}\n', "log(s - s)", "errors.csv"),
    (MINIMAL + 'source: {kind: expression, expr: "s + 1 / 0"}\n', "s + 1 / 0", "errors.csv"),
    (PARABOLIC + 'initial: {kind: expression, expr: "1 / (x - x)"}\n', "1 / (x - x)",
     "history.csv"),
], ids=["source_log_zero", "source_number_over_zero", "initial_over_zero"])
def test_non_finite_expression_value_stops_the_run(tmp_path, capsys, text, expr, table):
    """An expression that takes a value that is not finite stops the run with
    an error that names it, exit 1, and no table is written; the load it would
    have made is not handed to the solver.  Run with warnings as errors: the
    error is linedg's alone, with no numpy RuntimeWarning before it."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(path), "--out-dir", str(tmp_path / "out"), "--no-vtk"])
    assert code == 1
    assert capsys.readouterr().err == f"error: expression {expr!r} takes a value that is not finite\n"
    assert not (tmp_path / "out" / table).exists()

