"""Run configuration: YAML schema, validation with line numbers, round-trip.

Each section's keys are stated once, in a table key -> (kind, default), one
per ``kind`` of a curve or source and per ``mode`` of the configuration, whose
table names its grid key: ``n`` or ``levels``.  Each value has one spelling,
and unknown and repeated keys are rejected, each error at its file line.  The
typed objects a run uses are built from the values the tables give; those
values as given, ``scheme`` and ``solver`` filled in, are kept as
``StudyConfig.record``, the configuration's plain-dict form.  A study's error
columns are named here only, in ``StudyConfig.columns``.
"""

import ast
import copy
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .assembly import DGSpec
from .basis import make_basis
from .curve import Curve
from .errors import ConfigError
from .fields import check_region_aligned
from .mesh import BoxDomain
from .multigrid import level_grids
from .parabolic import TimeGrid
from .problems import SINE_AXES, LogLineSolution, sine_curve
from .solver import SolverConfig

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "pi": math.pi, "e": math.e,
}


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _compile_expr(text, variables):
    """Evaluator (shape, **variables) -> the value of an arithmetic
    expression broadcast to ``shape``, and the names the expression uses.

    Only numbers, + - * / **, the given variables, the constants of
    ``_EXPR_NAMES`` and calls to its functions are accepted, so an
    expression reaches no other Python object; anything else raises
    ConfigError.  So does an evaluation whose value is not finite at every
    point, or that divides by zero or overflows.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"invalid expression {text!r}: {err.msg}") from None
    names = set(variables) | {k for k, v in _EXPR_NAMES.items() if not callable(v)}

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda env: np.float64(node.value)  # so 1 / 0 is inf, not an exception
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

    body = build(tree.body)

    def evaluate(shape, **env):
        with np.errstate(all="ignore"):  # a value that is not finite is reported below
            out = np.broadcast_to(np.asarray(body(dict(_EXPR_NAMES, **env)), dtype=float), shape)
        if not np.isfinite(out).all():
            raise ConfigError(f"expression {text!r} takes a value that is not finite")
        return out.copy()

    return evaluate, {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


class _Node:
    """A parsed YAML value plus the line it starts on; a mapping's ``keys``
    hold its keys as _Nodes, each at its own line."""

    __slots__ = ("value", "line", "keys")

    def __init__(self, value, line, keys=None):
        self.value = value
        self.line = line
        self.keys = keys


def _fail(node, message):
    """Reject the node's value; ``parse_config`` adds the file name."""
    raise ConfigError(f"{node.line}: {message}")


def _load_tree(text, source):
    """The document as nested _Nodes; a key that is not a scalar, or is
    repeated in its mapping, is rejected at its line."""
    loader = yaml.SafeLoader(text)

    def build(node):
        line = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            out, keys = {}, {}
            for k, v in node.value:
                at = f"{source}:{k.start_mark.line + 1}"
                if not isinstance(k, yaml.ScalarNode):
                    raise ConfigError(f"{at}: a key must be a plain name, not a {k.id}")
                if k.value in out:
                    raise ConfigError(f"{at}: repeated key {k.value!r}")
                out[k.value], keys[k.value] = build(v), _Node(k.value, k.start_mark.line + 1)
            return _Node(out, line, keys)
        if isinstance(node, yaml.SequenceNode):
            return _Node([build(v) for v in node.value], line)
        # the tag resolved from the source decides the type: a quoted "2" is a string
        return _Node(loader.construct_object(node), line)

    try:
        root = loader.get_single_node()
        if root is None:
            raise ConfigError(f"{source}: empty configuration")
        return build(root)
    except yaml.YAMLError as err:
        raise ConfigError(f"{source}: YAML syntax error: {err}") from err
    finally:
        loader.dispose()


# -- kinds: (node, dotted key) -> the normalised plain value, or _fail -------


def _typed(types):
    def read(node, key):
        # YAML booleans are ints to Python, but no key of the schema takes one
        if isinstance(node.value, bool) or not isinstance(node.value, types):
            _fail(node, f"{key} has wrong type (got {type(node.value).__name__})")
        return node.value
    return read


_int, _str, _number = _typed(int), _typed(str), _typed((int, float))


def _float(node, key):
    value = float(_number(node, key))
    if not math.isfinite(value):
        _fail(node, f"{key} must be a finite number (got {value})")
    return value


def _triple(item, what):
    def read(node, key):
        if not isinstance(node.value, list) or len(node.value) != 3:
            _fail(node, f"{key} must be a list of three {what}")
        return [item(v, key) for v in node.value]
    return read


_point = _triple(_float, "numbers")


def _at_least(low):
    def read(node, key):
        if _int(node, key) < low:
            _fail(node, f"{key} must be an integer >= {low}")
        return node.value
    return read


_cells = _triple(_at_least(1), "integers")


def _choice(*options):
    def read(node, key):
        if node.value not in options:
            _fail(node, f"{key} must be one of {', '.join(options)} (got {node.value!r})")
        return node.value
    return read


def _expression(*variables):
    def read(node, key):
        text = _str(node, key)
        try:
            _compile_expr(text, variables)
        except ConfigError as err:
            _fail(node, f"{key}: {err}")
        return text
    return read


def _mapping(node, key):
    if not isinstance(node.value, dict):
        _fail(node, f"{key} must be a mapping")
    return node.value


def _list_of(item):
    def read(node, key):
        if not isinstance(node.value, list):
            _fail(node, f"{key} must be a list")
        return [item(v, key) for v in node.value]
    return read


def _grids(node, key):
    if isinstance(node.value, list) and len(node.value) < 2:
        _fail(node, f"{key} must list at least two grids; one grid is n")
    return _list_of(_cells)(node, key)


def _mapping_of(item):
    def read(node, key):
        return {name: item(v, f"{key}.{name}") for name, v in _mapping(node, key).items()}
    return read


def _section(table):
    """Kind of a mapping whose keys ``table`` gives as key -> (kind, default).

    Unknown keys, reported at the first one's line, and missing required
    ones (default ``...``) are rejected.  A default that is a tuple of keys
    names a group the mapping takes exactly one of: none is rejected at the
    mapping, a second at its line.  An absent key reads its default through
    its kind; one whose default is None or a group is left out, for the typed
    object built from the values to fill in.
    """
    def read(node, key):
        given = _mapping(node, key or "configuration")
        unknown = [name for name in given if name not in table]
        if unknown:
            _fail(node.keys[unknown[0]], f"unknown key(s) in {key or 'configuration'}: {unknown}")
        out = {}
        for name, (kind, default) in table.items():
            dotted = f"{key}.{name}" if key else name
            if name in given:
                out[name] = kind(given[name], dotted)
            elif default is ...:
                _fail(node, f"{dotted} is required")
            elif default is not None and type(default) is not tuple:
                out[name] = kind(_Node(default, node.line), dotted)
            if type(default) is tuple:
                present = [other for other in given if other in default]
                if len(present) != 1:
                    _fail(node.keys[present[1]] if present else node,
                          f"give exactly one of {' or '.join(map(repr, default))}")
        return out
    return read


def _kinded(tables, by="kind"):
    """Kind of a section whose keys depend on the value of its key ``by``:
    value -> key table, the first value the default.  A key of another
    value's table is an unknown key."""
    choose = _choice(*tables)

    def read(node, key):
        given = _mapping(node, key or "configuration")
        dotted = f"{key}.{by}" if key else by
        kind = choose(given[by], dotted) if by in given else next(iter(tables))
        return _section({by: (choose, kind), **tables[kind]})(node, key)
    return read


_BOX = {"lo": (_point, ...), "hi": (_point, ...)}
_CURVES = {
    "line": {"start": (_point, ...), "end": (_point, ...)},
    "sine": {"start": (_point, ...), "end": (_point, ...),
             "amplitude": (_float, ...), "periods": (_float, ...),
             "axis": (_choice(*SINE_AXES), "y"), "samples": (_at_least(2), 48)},
    "file": {"path": (_str, ...)},
}
_SOURCES = {"constant": {"value": (_float, 1.0)},
            "expression": {"expr": (_expression("s", "t"), ...)}}
_INITIALS = {"zero": {}, "expression": {"expr": (_expression("x", "y", "z"), ...)}}
# absent keys take the defaults of DGSpec and SolverConfig
_SCHEME = {"epsilon": (_int, None), "sigma": (_float, None), "beta": (_float, None)}
_SOLVER = {"rel_tol": (_float, None), "max_iter": (_typed((int, type(None))), None),
           "preconditioner": (_str, None)}
_TIME = {"final": (_float, ...), "steps": (_int, ...)}
_RATE = {"norm": (_choice("l2", "dg"), "l2"), "region": (_str, "global"),
         "min": (_float, ...), "max": (_float, ...)}
_COMMON = {
    "domain": (_section(_BOX), ...),
    "curve": (_kinded(_CURVES), ...),
    "source": (_kinded(_SOURCES), {}),
    "degree": (_int, ...),
    "scheme": (_section(_SCHEME), {}),
    "solver": (_section(_SOLVER), {}),
}
_CONFIG = _kinded({
    "elliptic": {**_COMMON, "n": (_cells, ("n", "levels")),
                 "levels": (_grids, ("n", "levels")),
                 "regions": (_mapping_of(_section(_BOX)), {}),
                 "exact": (_choice("log_line", "none"), "none"),
                 "assert_rates": (_list_of(_section(_RATE)), [])},
    "parabolic": {**_COMMON, "n": (_cells, ...), "time": (_section(_TIME), ...),
                  "initial": (_kinded(_INITIALS), {}), "snapshot_every": (_at_least(0), 0)},
}, "mode")


# -- typed objects -----------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # constant | expression
    value: float | None = None
    expr: str | None = None

    def build(self):
        """Line density as f(t, s) plus a time-dependence flag."""
        if self.kind == "constant":
            return (lambda t, s: np.full_like(np.asarray(s, dtype=float), self.value)), False
        expr, used = _compile_expr(self.expr, ("s", "t"))
        return (lambda t, s: expr(np.shape(s), s=np.asarray(s, dtype=float), t=t)), "t" in used


@dataclass(frozen=True)
class InitialSpec:
    kind: str  # zero | expression
    expr: str | None = None

    def build(self):
        """The ``u0`` of ``BackwardEuler``: None (the zero start, nothing to
        project) or a point function."""
        if self.kind == "zero":
            return None
        expr, _ = _compile_expr(self.expr, ("x", "y", "z"))
        return lambda p: expr((len(p),), **dict(zip("xyz", np.asarray(p, dtype=float).T)))


@dataclass(frozen=True)
class ErrorColumn:
    """The ``norm`` of u - u_h over ``region`` (None: the whole domain), written
    as ``name``; its observed rates in ``study.csv`` are named ``rate``."""

    name: str                 # err_<L2|DG>_<global | region name>
    norm: str                 # l2 | dg
    region: BoxDomain | None

    @property
    def rate(self):
        return "rate" + self.name.removeprefix("err")


def _column_name(norm, region):
    return f"err_{norm.upper()}_{region}"


@dataclass(frozen=True)
class RateAssertion:
    column: str    # an ErrorColumn name, e.g. err_L2_boxA
    min: float
    max: float


@dataclass(frozen=True)
class StudyConfig:
    """A validated configuration: what a run uses, and in ``record`` the
    normalised plain values it was built from."""

    domain: BoxDomain
    curve: Curve
    source: SourceSpec
    scheme: DGSpec
    levels: tuple              # (nx, ny, nz) per level; one in parabolic mode
    exact: LogLineSolution | None  # elliptic mode only
    columns: tuple             # of ErrorColumn, in the order the CSV files write them
    solver: SolverConfig
    mode: str                  # elliptic | parabolic
    time: TimeGrid | None      # parabolic mode only
    initial: InitialSpec | None  # parabolic mode only
    snapshot_every: int | None   # parabolic mode only
    assert_rates: tuple        # of RateAssertion; elliptic mode only
    record: dict

    @property
    def degree(self):
        return self.scheme.k

    def build_curve(self):
        """``curve``, the source curve, built and checked to lie in the domain at
        load; kept only because ``bench/child.py`` reads it."""
        return self.curve


def _make(node, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with its ValueError (or OSError, from
    reading a curve file) reported at ``node``."""
    try:
        return build(*args, **kwargs)
    except (OSError, ValueError) as err:
        _fail(node, err)


def _curve(base_dir, domain, kind, path=None, **params):
    if kind == "line":
        curve = Curve([params["start"], params["end"]])
    elif kind == "sine":
        curve = sine_curve(**params)
    else:  # one "x y z" row per point
        curve = Curve(np.loadtxt(base_dir / path, dtype=float, ndmin=2))
    curve.check_inside(domain)
    return curve


def _parse(tree, base_dir):
    values = _CONFIG(tree, None)
    nodes = tree.value
    domain = _make(nodes["domain"], BoxDomain, **values["domain"])
    curve = _make(nodes["curve"], _curve, base_dir, domain, **values["curve"])
    exact = (_make(nodes["curve"], LogLineSolution, curve, domain)
             if values.get("exact") == "log_line" else None)
    if exact is not None and values["source"] != {"kind": "constant", "value": 1.0}:
        _fail(tree.keys["source"], "exact: log_line solves the problem of the unit line "
              "density only; source must be constant 1")
    scheme = _make(nodes.get("scheme", nodes["degree"]), DGSpec, values["degree"],
                   **values["scheme"])
    _make(nodes["degree"], make_basis, values["degree"])  # a degree the basis supports

    levels = [values["n"]] if "n" in values else values["levels"]
    diagonals = [np.linalg.norm(domain.extent / np.asarray(n, dtype=float)) for n in levels]
    for i, (coarse, fine) in enumerate(zip(diagonals, diagonals[1:]), 1):
        if fine >= coarse:
            _fail(nodes["levels"].value[i], "levels must strictly decrease the mesh size")
    regions = {}
    for name, box in values.get("regions", {}).items():
        node = nodes["regions"].value[name]
        regions[name] = _make(node, BoxDomain, **box)
        for n in levels:
            _make(node, check_region_aligned, domain, n, regions[name])
    columns = {}  # name -> ErrorColumn; a region may not reuse a name, even with no exact
    for norm, region, box in [("l2", "global", None)] + [
            (norm, *item) for norm in ("l2", "dg") for item in regions.items()]:
        name = _column_name(norm, region)
        if name in columns:
            _fail(nodes["regions"].value[region], f"region {region!r} writes a second {name}")
        columns[name] = ErrorColumn(name, norm, box)
    columns = columns if exact is not None else {}

    solver = _make(nodes.get("solver", tree), SolverConfig, **values["solver"])
    if solver.preconditioner == "multigrid":
        for n in levels:
            _make(nodes["solver"].value["preconditioner"], level_grids, n)

    time = (_make(nodes["time"], TimeGrid, values["time"]["final"], values["time"]["steps"])
            if "time" in values else None)
    # a rate is asserted only on a column the study writes, over its levels
    if "assert_rates" in nodes and "levels" not in values:
        _fail(tree.keys["assert_rates"], "assert_rates needs levels; n is one grid")
    assert_rates = []
    for i, rate in enumerate(values.get("assert_rates", [])):
        name = _column_name(rate["norm"], rate["region"])
        if name not in columns:
            _fail(nodes["assert_rates"].value[i],
                  f"assert_rates: the study writes no {name} column; it writes "
                  f"{', '.join(columns) or 'none, as exact is none'}")
        if rate["min"] > rate["max"]:
            _fail(nodes["assert_rates"].value[i],
                  f"assert_rates: min {rate['min']} exceeds max {rate['max']} for {name}")
        assert_rates.append(RateAssertion(name, rate["min"], rate["max"]))

    # the values as given, empty sections dropped and the defaults of scheme and solver filled in
    record = {key: v for key, v in values.items() if v not in ({}, [], 0)}
    record.update(scheme={key: getattr(scheme, key) for key in _SCHEME},
                  solver={key: getattr(solver, key) for key in _SOLVER})
    return StudyConfig(
        domain=domain, curve=curve, source=SourceSpec(**values["source"]), scheme=scheme,
        levels=tuple(map(tuple, levels)), exact=exact, columns=tuple(columns.values()),
        solver=solver, mode=values["mode"], time=time, assert_rates=tuple(assert_rates),
        initial=InitialSpec(**values["initial"]) if "initial" in values else None,
        snapshot_every=values.get("snapshot_every"), record=record,
    )


def parse_config(text, source="<config>", base_dir=None):
    """Parse and validate a YAML study configuration; a ``file`` curve's path
    is relative to ``base_dir`` (default: the working directory)."""
    tree = _load_tree(text, source)
    try:
        return _parse(tree, Path(base_dir or "."))
    except ConfigError as err:
        raise ConfigError(f"{source}:{err}") from None


def load_config(path):
    path = Path(path)
    return parse_config(path.read_text(), source=str(path), base_dir=path.parent)


def config_to_dict(cfg):
    """Plain-dict form of a StudyConfig, reparseable by parse_config."""
    return copy.deepcopy(cfg.record)
