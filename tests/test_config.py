from pathlib import Path

import numpy as np
import pytest
import yaml

from linedg.assembly import DGSpec
from linedg.config import config_to_dict, load_config, parse_config
from linedg.errors import ConfigError

MINIMAL = """
domain: {lo: [0, 0, 0], hi: [1, 1, 0.25]}
curve:
  kind: line
  start: [0.5, 0.5, 0.0]
  end: [0.5, 0.5, 0.25]
degree: 1
n: [4, 4, 1]
"""


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.degree == 1
    assert cfg.levels == ((4, 4, 1),)
    assert cfg.scheme.epsilon == -1 and cfg.scheme.sigma == 5.0 and cfg.scheme.beta == 1.0
    assert cfg.mode == "elliptic"
    assert cfg.exact == "none"
    curve = cfg.build_curve()
    assert abs(curve.length - 0.25) < 1e-15


@pytest.mark.parametrize(
    "degree,scheme", [(3, ""), (1, "scheme: {epsilon: 0}"), (2, "scheme: {epsilon: 1, sigma: 30}")]
)
def test_omitted_scheme_values_follow_dgspec_default(degree, scheme):
    cfg = parse_config(MINIMAL.replace("degree: 1", f"degree: {degree}") + scheme)
    default = DGSpec.default(degree, cfg.scheme.epsilon)
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


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="degree"):
        parse_config("domain: {lo: [0,0,0], hi: [1,1,1]}\ncurve: {kind: line, start: [0.5,0.5,0.2], end: [0.5,0.5,0.8]}\nn: [2,2,2]")
    with pytest.raises(ConfigError, match="'n' or 'levels'"):
        parse_config(MINIMAL.replace("n: [4, 4, 1]", ""))


def test_bad_domain_reported():
    with pytest.raises(ConfigError, match="hi > lo"):
        parse_config(MINIMAL.replace("hi: [1, 1, 0.25]", "hi: [1, -1, 0.25]"))


def test_time_section_validation():
    base = MINIMAL + "mode: parabolic\n"
    with pytest.raises(ConfigError, match="time"):
        parse_config(base)
    with pytest.raises(ConfigError, match="tau"):
        parse_config(base + "time: {final: 1.0, tau: 2.0}\n")  # tau > final
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base + "time: {final: 1.0, tau: 0.1, steps: 5}\n")
    cfg = parse_config(base + "time: {final: 1.0, tau: 0.25}\n")
    assert cfg.steps == 4
    with pytest.raises(ConfigError, match="only valid in parabolic"):
        parse_config(MINIMAL + "time: {final: 1.0, steps: 2}\n")


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
    assert curve.n_segments == 15


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
        MINIMAL
        + "regions:\n  boxA: {lo: [0.25, 0.5, 0.0], hi: [0.5, 0.75, 0.25]}\n"
        + "exact: log_line\n"
        + "assert_rates:\n  - {norm: l2, region: boxA, min: 1.5, max: 2.5}\n"
    )
    cfg = parse_config(text)
    emitted = yaml.safe_dump(config_to_dict(cfg))
    cfg2 = parse_config(emitted)
    assert config_to_dict(cfg) == config_to_dict(cfg2)


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


def test_shipped_configs_load():
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")):
        cfg = load_config(path)
        if cfg.source.kind == "expression":
            cfg.source.build()
        if cfg.initial.kind == "expression":
            cfg.initial.build()
