"""Run configuration: YAML schema, validation with line numbers, round-trip.

The schema is strict: unknown keys are rejected, and every semantic error
reports the file line it came from.
"""

import ast
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .assembly import DGSpec
from .curve import Curve
from .errors import ConfigError
from .fields import Box
from .mesh import BoxDomain
from .multigrid import level_grids
from .problems import LogLineSolution, sine_curve
from .solver import SolverConfig

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "pi": math.pi, "e": math.e,
}


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _compile_expr(text, variables):
    """Evaluator env -> value of an arithmetic expression, and the names it uses.

    Only numbers, + - * / **, the given variables, the constants of
    ``_EXPR_NAMES`` and calls to its functions are accepted, so an
    expression reaches no other Python object; anything else raises
    ConfigError.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"invalid expression {text!r}: {err.msg}") from None
    names = set(variables) | {k for k, v in _EXPR_NAMES.items() if not callable(v)}

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda env: node.value
        if isinstance(node, ast.Name) and node.id in names:
            return lambda env: env[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, left, right = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNOPS:
            op, arg = _UNOPS[type(node.op)], build(node.operand)
            return lambda env: op(arg(env))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords):
            fn, args = _EXPR_NAMES[node.func.id], [build(a) for a in node.args]
            return lambda env: fn(*(a(env) for a in args))
        raise ConfigError(f"{ast.unparse(node)!r} is not allowed in expression {text!r}")

    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return build(tree.body), used


class _Node:
    """A parsed YAML value plus the line it starts on."""

    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def _build(node):
    line = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        out = {}
        for k, v in node.value:
            out[k.value] = _build(v)
        return _Node(out, line)
    if isinstance(node, yaml.SequenceNode):
        return _Node([_build(v) for v in node.value], line)
    return _Node(yaml.safe_load(node.value) if node.value != "" else None, line)


def _load_tree(text, source="<config>"):
    try:
        root = yaml.compose(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"{source}: YAML syntax error: {err}") from err
    if root is None:
        raise ConfigError(f"{source}: empty configuration")
    return _build(root)


def _err(node, source, msg):
    raise ConfigError(f"{source}:{node.line}: {msg}")


def _expect_map(node, source, allowed, context):
    if not isinstance(node.value, dict):
        _err(node, source, f"{context} must be a mapping")
    unknown = set(node.value) - set(allowed)
    if unknown:
        _err(node, source, f"unknown key(s) in {context}: {sorted(unknown)}")
    return node.value


def _scalar(node, source, types, context):
    # YAML booleans are ints to Python, but no key of the schema takes one
    if isinstance(node.value, bool) or not isinstance(node.value, types):
        _err(node, source, f"{context} has wrong type (got {type(node.value).__name__})")
    return node.value


def _expression(node, source, variables, context):
    text = _scalar(node, source, str, context)
    try:
        _compile_expr(text, variables)
    except ConfigError as err:
        _err(node, source, f"{context}: {err}")
    return text


def _triple(node, source, context):
    if not isinstance(node.value, list) or len(node.value) != 3:
        _err(node, source, f"{context} must be a list of three numbers")
    vals = []
    for item in node.value:
        vals.append(float(_scalar(item, source, (int, float), context)))
    return vals


@dataclass(frozen=True)
class CurveSpec:
    kind: str  # line | sine | file
    params: dict

    def build(self, base_dir=None):
        if self.kind == "line":
            return Curve([self.params["start"], self.params["end"]])
        if self.kind == "sine":
            return sine_curve(
                self.params["start"], self.params["end"], self.params["amplitude"],
                self.params["periods"], self.params["axis"], self.params.get("samples", 48),
            )
        path = Path(self.params["path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        pts = np.loadtxt(path, dtype=float, ndmin=2)
        if pts.shape[1] != 3:
            raise ConfigError(f"curve file {path} must have 'x y z' rows")
        return Curve(pts)


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # constant | expression
    value: float = 1.0
    expr: str = ""

    def build(self):
        """Line density as f(t, s) plus a time-dependence flag."""
        if self.kind == "constant":
            v = float(self.value)
            return (lambda t, s: np.full_like(np.asarray(s, dtype=float), v)), False
        expr, used = _compile_expr(self.expr, ("s", "t"))

        def fn(t, s):
            s = np.asarray(s, dtype=float)
            out = expr(dict(_EXPR_NAMES, s=s, t=t))
            return np.broadcast_to(np.asarray(out, dtype=float), s.shape).copy()

        return fn, "t" in used


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "zero"  # zero | expression
    expr: str = ""

    def build(self):
        if self.kind == "zero":
            return lambda p: np.zeros(p.shape[0])
        expr, _ = _compile_expr(self.expr, ("x", "y", "z"))

        def fn(p):
            p = np.asarray(p, dtype=float)
            out = expr(dict(_EXPR_NAMES, x=p[:, 0], y=p[:, 1], z=p[:, 2]))
            return np.broadcast_to(np.asarray(out, dtype=float), (p.shape[0],)).copy()

        return fn


@dataclass(frozen=True)
class RateAssertion:
    norm: str      # l2 | dg
    region: str    # global | region name
    min: float
    max: float


@dataclass(frozen=True)
class StudyConfig:
    domain: BoxDomain
    curve: CurveSpec
    source: SourceSpec
    scheme: DGSpec
    levels: tuple
    regions: dict              # name -> Box
    exact: str                 # log_line | none
    solver: SolverConfig
    mode: str                  # elliptic | parabolic
    final_time: float | None = None
    steps: int | None = None
    initial: InitialSpec = InitialSpec()
    snapshot_every: int = 0
    assert_rates: tuple = ()
    base_dir: Path | None = None

    @property
    def degree(self):
        return self.scheme.k

    def build_curve(self):
        return self.curve.build(self.base_dir)


_TOP_KEYS = (
    "domain", "curve", "source", "degree", "scheme", "levels", "n", "regions",
    "exact", "solver", "mode", "time", "initial", "snapshot_every", "assert_rates",
)


def parse_config(text, source="<config>", base_dir=None):
    """Parse and validate a YAML study configuration."""
    tree = _load_tree(text, source)
    top = _expect_map(tree, source, _TOP_KEYS, "configuration")

    def require(key):
        if key not in top:
            raise ConfigError(f"{source}: missing required key {key!r}")
        return top[key]

    dom_map = _expect_map(require("domain"), source, ("lo", "hi"), "domain")
    try:
        domain = BoxDomain(
            lo=_triple(dom_map["lo"], source, "domain.lo"),
            hi=_triple(dom_map["hi"], source, "domain.hi"),
        )
    except KeyError as err:
        _err(require("domain"), source, f"domain needs lo and hi ({err})")
    except ValueError as err:
        _err(require("domain"), source, str(err))

    curve_node = require("curve")
    curve_map = _expect_map(
        curve_node, source,
        ("kind", "start", "end", "amplitude", "periods", "axis", "samples", "path"),
        "curve",
    )
    kind = _scalar(curve_map.get("kind", _Node("line", curve_node.line)), source, str, "curve.kind")
    if kind not in ("line", "sine", "file"):
        _err(curve_node, source, f"curve.kind must be line, sine, or file (got {kind!r})")
    params = {}
    if kind in ("line", "sine"):
        for key in ("start", "end"):
            if key not in curve_map:
                _err(curve_node, source, f"curve.{key} required for kind {kind!r}")
            params[key] = _triple(curve_map[key], source, f"curve.{key}")
    if kind == "sine":
        for key in ("amplitude", "periods"):
            if key not in curve_map:
                _err(curve_node, source, f"curve.{key} required for sine curves")
            params[key] = float(_scalar(curve_map[key], source, (int, float), f"curve.{key}"))
        axis = curve_map.get("axis")
        params["axis"] = _scalar(axis, source, (str, int), "curve.axis") if axis else "y"
        if "samples" in curve_map:
            params["samples"] = int(_scalar(curve_map["samples"], source, int, "curve.samples"))
    if kind == "file":
        if "path" not in curve_map:
            _err(curve_node, source, "curve.path required for kind 'file'")
        params["path"] = _scalar(curve_map["path"], source, str, "curve.path")
    curve = CurveSpec(kind=kind, params=params)

    src_node = top.get("source")
    if src_node is None:
        source_spec = SourceSpec(kind="constant", value=1.0)
    else:
        src_map = _expect_map(src_node, source, ("kind", "value", "expr"), "source")
        skind = _scalar(src_map.get("kind", _Node("constant", src_node.line)), source, str, "source.kind")
        if skind == "constant":
            val = src_map.get("value")
            value = float(_scalar(val, source, (int, float), "source.value")) if val else 1.0
            source_spec = SourceSpec(kind="constant", value=value)
        elif skind == "expression":
            if "expr" not in src_map:
                _err(src_node, source, "source.expr required for expressions")
            source_spec = SourceSpec(
                kind="expression",
                expr=_expression(src_map["expr"], source, ("s", "t"), "source.expr"),
            )
        else:
            _err(src_node, source, f"source.kind must be constant or expression (got {skind!r})")

    degree_node = require("degree")
    degree = int(_scalar(degree_node, source, int, "degree"))

    scheme_node = top.get("scheme")
    scheme = {}
    if scheme_node is not None:
        scheme = _expect_map(scheme_node, source, ("epsilon", "sigma", "beta"), "scheme")
    given = {key: _scalar(node, source, int if key == "epsilon" else (int, float), f"scheme.{key}")
             for key, node in scheme.items()}
    try:
        spec = DGSpec.default(degree, given.pop("epsilon", -1))
        spec = replace(spec, **{key: float(value) for key, value in given.items()})
    except ValueError as err:
        _err(scheme_node or degree_node, source, str(err))

    levels = []
    if "levels" in top:
        lv_node = top["levels"]
        if not isinstance(lv_node.value, list) or not lv_node.value:
            _err(lv_node, source, "levels must be a non-empty list of cell-count triples")
        for item in lv_node.value:
            triple = _triple(item, source, "levels entry")
            levels.append(tuple(int(v) for v in triple))
    if "n" in top:
        levels.insert(0, tuple(int(v) for v in _triple(top["n"], source, "n")))
    if not levels:
        raise ConfigError(f"{source}: one of 'n' or 'levels' is required")

    regions = {}
    if "regions" in top:
        reg_node = top["regions"]
        if not isinstance(reg_node.value, dict):
            _err(reg_node, source, "regions must be a mapping of name -> box")
        for name, box_node in reg_node.value.items():
            box_map = _expect_map(box_node, source, ("lo", "hi"), f"region {name!r}")
            try:
                regions[name] = Box(
                    lo=_triple(box_map["lo"], source, f"regions.{name}.lo"),
                    hi=_triple(box_map["hi"], source, f"regions.{name}.hi"),
                )
            except (KeyError, ValueError) as err:
                _err(box_node, source, f"region {name!r}: {err}")

    exact = "none"
    if "exact" in top:
        exact = _scalar(top["exact"], source, str, "exact")
        if exact not in ("log_line", "none"):
            _err(top["exact"], source, f"exact must be log_line or none (got {exact!r})")

    solver = SolverConfig()
    if "solver" in top:
        s_node = top["solver"]
        s_map = _expect_map(s_node, source, ("rel_tol", "max_iter", "preconditioner"), "solver")
        kwargs = {}
        if "rel_tol" in s_map:
            kwargs["rel_tol"] = float(_scalar(s_map["rel_tol"], source, (int, float), "solver.rel_tol"))
        if "max_iter" in s_map and s_map["max_iter"].value is not None:
            kwargs["max_iter"] = int(_scalar(s_map["max_iter"], source, int, "solver.max_iter"))
        if "preconditioner" in s_map:
            kwargs["preconditioner"] = _scalar(s_map["preconditioner"], source, str, "solver.preconditioner")
        try:
            solver = SolverConfig(**kwargs)
        except ValueError as err:
            _err(s_node, source, str(err))

    mode = "elliptic"
    if "mode" in top:
        mode = _scalar(top["mode"], source, str, "mode")
        if mode not in ("elliptic", "parabolic"):
            _err(top["mode"], source, f"mode must be elliptic or parabolic (got {mode!r})")

    if solver.preconditioner == "multigrid":
        pc_node = top["solver"].value["preconditioner"]
        if mode == "parabolic":
            _err(pc_node, source, "preconditioner multigrid needs the elliptic stiffness "
                                  "operator; M + tau A of parabolic mode has no coarse hierarchy")
        for n in levels:
            try:
                level_grids(n)
            except ValueError as err:
                _err(pc_node, source, str(err))

    final_time = steps = None
    if mode == "parabolic":
        if "time" not in top:
            raise ConfigError(f"{source}: parabolic mode requires a 'time' section")
        t_node = top["time"]
        t_map = _expect_map(t_node, source, ("final", "steps", "tau"), "time")
        if "final" not in t_map:
            _err(t_node, source, "time.final is required")
        final_time = float(_scalar(t_map["final"], source, (int, float), "time.final"))
        if final_time <= 0:
            _err(t_node, source, "time.final must be positive")
        if ("steps" in t_map) == ("tau" in t_map):
            _err(t_node, source, "give exactly one of time.steps or time.tau")
        if "steps" in t_map:
            steps = int(_scalar(t_map["steps"], source, int, "time.steps"))
            if steps < 1:
                _err(t_node, source, "time.steps must be >= 1")
        else:
            tau = float(_scalar(t_map["tau"], source, (int, float), "time.tau"))
            if tau <= 0 or tau > final_time:
                _err(t_node, source, f"time.tau must lie in (0, final]; got {tau}")
            steps = max(1, int(round(final_time / tau)))
    elif "time" in top:
        _err(top["time"], source, "'time' is only valid in parabolic mode")

    initial = InitialSpec()
    if "initial" in top:
        i_node = top["initial"]
        i_map = _expect_map(i_node, source, ("kind", "expr"), "initial")
        ikind = _scalar(i_map.get("kind", _Node("zero", i_node.line)), source, str, "initial.kind")
        if ikind == "zero":
            initial = InitialSpec(kind="zero")
        elif ikind == "expression":
            if "expr" not in i_map:
                _err(i_node, source, "initial.expr required for expressions")
            initial = InitialSpec(
                kind="expression",
                expr=_expression(i_map["expr"], source, ("x", "y", "z"), "initial.expr"),
            )
        else:
            _err(i_node, source, f"initial.kind must be zero or expression (got {ikind!r})")

    snapshot_every = 0
    if "snapshot_every" in top:
        snapshot_every = int(_scalar(top["snapshot_every"], source, int, "snapshot_every"))
        if snapshot_every < 0:
            _err(top["snapshot_every"], source, "snapshot_every must be >= 0")

    assertions = []
    if "assert_rates" in top:
        ar_node = top["assert_rates"]
        if not isinstance(ar_node.value, list):
            _err(ar_node, source, "assert_rates must be a list")
        for item in ar_node.value:
            a_map = _expect_map(item, source, ("norm", "region", "min", "max"), "assert_rates entry")
            norm = _scalar(a_map["norm"], source, str, "assert_rates.norm") if "norm" in a_map else "l2"
            if norm not in ("l2", "dg"):
                _err(item, source, f"assert_rates norm must be l2 or dg (got {norm!r})")
            region = _scalar(a_map["region"], source, str, "assert_rates.region") if "region" in a_map else "global"
            if region != "global" and region not in regions:
                _err(item, source, f"assert_rates region {region!r} is not defined")
            if "min" not in a_map or "max" not in a_map:
                _err(item, source, "assert_rates entries need min and max")
            assertions.append(
                RateAssertion(
                    norm=norm, region=region,
                    min=float(_scalar(a_map["min"], source, (int, float), "min")),
                    max=float(_scalar(a_map["max"], source, (int, float), "max")),
                )
            )

    if exact == "log_line":
        try:
            LogLineSolution.from_curve(curve.build(base_dir), domain)
        except (OSError, ValueError) as err:
            _err(curve_node, source, f"exact: log_line: {err}")

    return StudyConfig(
        domain=domain, curve=curve, source=source_spec, scheme=spec, levels=tuple(levels),
        regions=regions, exact=exact, solver=solver, mode=mode,
        final_time=final_time, steps=steps, initial=initial,
        snapshot_every=snapshot_every, assert_rates=tuple(assertions),
        base_dir=Path(base_dir) if base_dir else None,
    )


def load_config(path):
    path = Path(path)
    return parse_config(path.read_text(), source=str(path), base_dir=path.parent)


def config_to_dict(cfg):
    """Plain-dict form of a StudyConfig, reparseable by parse_config."""
    out = {
        "domain": {"lo": [float(v) for v in cfg.domain.lo], "hi": [float(v) for v in cfg.domain.hi]},
        "curve": {"kind": cfg.curve.kind, **_jsonify(cfg.curve.params)},
        "degree": cfg.degree,
        "scheme": {"epsilon": cfg.scheme.epsilon, "sigma": cfg.scheme.sigma, "beta": cfg.scheme.beta},
        "levels": [list(l) for l in cfg.levels],
        "exact": cfg.exact,
        "solver": {
            "rel_tol": cfg.solver.rel_tol,
            "max_iter": cfg.solver.max_iter,
            "preconditioner": cfg.solver.preconditioner,
        },
        "mode": cfg.mode,
    }
    if cfg.source.kind == "constant":
        out["source"] = {"kind": "constant", "value": cfg.source.value}
    else:
        out["source"] = {"kind": "expression", "expr": cfg.source.expr}
    if cfg.regions:
        out["regions"] = {
            name: {"lo": [float(v) for v in b.lo], "hi": [float(v) for v in b.hi]}
            for name, b in cfg.regions.items()
        }
    if cfg.mode == "parabolic":
        out["time"] = {"final": cfg.final_time, "steps": cfg.steps}
        if cfg.initial.kind == "zero":
            out["initial"] = {"kind": "zero"}
        else:
            out["initial"] = {"kind": "expression", "expr": cfg.initial.expr}
        if cfg.snapshot_every:
            out["snapshot_every"] = cfg.snapshot_every
    if cfg.assert_rates:
        out["assert_rates"] = [
            {"norm": a.norm, "region": a.region, "min": a.min, "max": a.max}
            for a in cfg.assert_rates
        ]
    return out


def _jsonify(params):
    out = {}
    for k, v in params.items():
        if isinstance(v, (list, tuple)):
            out[k] = [float(x) for x in v]
        else:
            out[k] = v
    return out
