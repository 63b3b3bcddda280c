"""Backward Euler time stepping for the line-source heat problem.

Each step solves (M + tau A) u^n = M u^{n-1} + tau b(t^n) with the
homogeneous weak Dirichlet condition built into A; the system matrix is
assembled once per run and the line load is rebuilt per step only when the
source depends on time.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .assembly import (
    SparseSystem, assemble_dg_norm_gram, assemble_mass, assemble_stiffness, assemble_volume_rhs,
    reference_mass,
)
from .curve import assemble_line_rhs, build_restrictions
from .fields import FieldFunction
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of (0, T] into ``steps`` intervals."""

    final_time: float
    steps: int

    def __post_init__(self):
        if self.final_time <= 0:
            raise ValueError("final_time must be positive")
        if self.steps < 1:
            raise ValueError("need at least one time step")

    @property
    def tau(self):
        return self.final_time / self.steps

    @property
    def times(self):
        return np.linspace(0.0, self.final_time, self.steps + 1)


class TimeSeries:
    """Snapshots u^0..u^N plus the piecewise-constant-in-time reconstruction.

    ``mass`` is the stepper's mass matrix (a ``SparseSystem``) on ``mesh``.
    """

    def __init__(self, mesh, basis, grid, snapshots, mass):
        self.mesh = mesh
        self.basis = basis
        self.grid = grid
        self.mass = mass
        self.snapshots = np.asarray(snapshots, dtype=float)  # (N+1, ndof)
        if self.snapshots.shape[0] != grid.steps + 1:
            raise ValueError("snapshot count must be steps + 1")

    def field(self, n):
        return FieldFunction.from_vector(self.mesh, self.basis, self.snapshots[n])

    def step_of(self, t):
        """Index n with t in (t^{n-1}, t^n]; 0 at t = 0."""
        if t <= 0.0:
            return 0
        return min(int(np.ceil(t / self.grid.tau - 1e-12)), self.grid.steps)

    def at_time(self, t):
        return self.field(self.step_of(t))


def _canonical_source(f, time_dependent=None):
    """Normalize the line density to (fn(t, s), depends_on_time)."""
    if f is None:
        return None, False
    if not callable(f):
        val = float(f)
        return (lambda t, s: np.full_like(np.asarray(s, dtype=float), val)), False
    params = None
    try:
        params = len(inspect.signature(f).parameters)
    except (TypeError, ValueError):
        pass
    if params == 1:
        fn = lambda t, s: f(s)
        dep = False
    else:
        fn = f
        dep = True
    if time_dependent is not None:
        dep = bool(time_dependent)
    return fn, dep


def project_initial(u0, mesh, basis, exactness=None):
    """Elementwise L2 projection of a point function into the broken space."""
    if exactness is None:
        exactness = 2 * basis.degree + 2
    rule = _basis.tet_quadrature(exactness)
    vals = basis.eval(rule.points)  # (q, nb)
    phys = _basis.map_to_physical(mesh.tet_coords(), rule.points)
    u0v = np.asarray(u0(phys.reshape(-1, 3)), dtype=float).reshape(mesh.n_elements, rule.n)
    rhs = np.einsum("q,eq,qi->ei", rule.weights, u0v, vals)
    # the affine scaling cancels: det_J * M_ref c = det_J * rhs_ref
    coeffs = np.linalg.solve(reference_mass(basis), rhs.T).T
    return FieldFunction(mesh, basis, coeffs)


def _initial_vector(u0, mesh, basis):
    if u0 is None:
        return np.zeros(mesh.n_elements * basis.dim)
    if isinstance(u0, FieldFunction):
        return u0.as_vector()
    if isinstance(u0, np.ndarray):
        return np.asarray(u0, dtype=float).ravel().copy()
    return project_initial(u0, mesh, basis).as_vector()


def run_backward_euler(
    mesh,
    spec,
    curve,
    f,
    u0,
    grid,
    solver_config=None,
    basis=None,
    volume_source=None,
    f_time_dependent=None,
):
    """March the implicit Euler scheme and return the snapshot series.

    ``f`` is the line density: constant, f(s), or f(t, s) over arclength;
    ``u0`` is a point function, FieldFunction, coefficient vector, or None
    (zero).  ``volume_source(t, points)`` adds a distributed load, used by
    manufactured smooth tests.  Solver failures abort with the step index.
    """
    if basis is None:
        basis = _basis.make_basis(spec.k)
    solver_config = solver_config or SolverConfig()
    tau = grid.tau

    A = assemble_stiffness(mesh, spec, basis)
    M = assemble_mass(mesh, basis)
    S = SparseSystem(M.matrix + tau * A.matrix, A.block_size, A.symmetric)

    fn, f_dep = _canonical_source(f, f_time_dependent)
    restrictions = None
    b_line = None
    if fn is not None and curve is not None:
        restrictions = build_restrictions(curve, mesh)
        if not f_dep:
            b_line = assemble_line_rhs(
                curve, lambda s: fn(0.0, s), mesh, basis, restrictions=restrictions
            )

    u = _initial_vector(u0, mesh, basis)
    snapshots = np.empty((grid.steps + 1, u.size))
    snapshots[0] = u
    for n in range(1, grid.steps + 1):
        t_n = n * tau
        rhs = M.matrix @ u
        if fn is not None and curve is not None:
            if f_dep:
                b_line = assemble_line_rhs(
                    curve, lambda s: fn(t_n, s), mesh, basis, restrictions=restrictions
                )
            rhs = rhs + tau * b_line
        if volume_source is not None:
            rhs = rhs + tau * assemble_volume_rhs(
                mesh, basis, lambda p: volume_source(t_n, p)
            )
        try:
            u = solve(S, rhs, solver_config, x0=u).x
        except Exception as err:
            raise type(err)(f"time step {n} (t = {t_n:.6g}): {err}") from err
        snapshots[n] = u
    return TimeSeries(mesh, basis, grid, snapshots, M)


def step_diagnostics(series, sigma):
    """Per-step L2 and energy norms plus the increment accumulator.

    Returns a list of dict rows (n, t, l2, dg, increment_sq_sum) where the
    accumulator is sum_{m<=n} ||u^m - u^{m-1}||_{L2}^2.
    """
    M = series.mass.matrix
    G = assemble_dg_norm_gram(series.mesh, series.basis, sigma).matrix
    rows = []
    acc = 0.0
    prev = None
    for n, t in enumerate(series.grid.times):
        v = series.snapshots[n]
        if prev is not None:
            d = v - prev
            acc += float(d @ (M @ d))
        rows.append(
            {
                "n": n,
                "t": float(t),
                "l2": float(np.sqrt(max(v @ (M @ v), 0.0))),
                "dg": float(np.sqrt(max(v @ (G @ v), 0.0))),
                "increment_sq_sum": acc,
            }
        )
        prev = v
    return rows


def spacetime_l2_error(series, exact, grid=None, exactness=None):
    """L2(0,T; L2) distance between the reconstruction and ``exact(t, points)``.

    Two-point Gauss rule per time interval; the reconstruction is the
    right-endpoint snapshot on each interval.
    """
    grid = grid or series.grid
    rule_t = _basis.segment_quadrature(3)
    mesh, basis = series.mesh, series.basis
    rule_x = _basis.tet_quadrature(
        exactness if exactness is not None else 2 * basis.degree + 2
    )
    vals = basis.eval(rule_x.points)  # (q, nb)
    phys = _basis.map_to_physical(mesh.tet_coords(), rule_x.points)
    flat = phys.reshape(-1, 3)
    total = 0.0
    tau = grid.tau
    for n in range(1, grid.steps + 1):
        coeff = series.snapshots[n].reshape(mesh.n_elements, basis.dim)
        uh = coeff @ vals.T  # (nt, q)
        for tq, wq in zip(rule_t.points[:, 0], rule_t.weights):
            t = (n - 1 + tq) * tau
            ue = np.asarray(exact(t, flat), dtype=float).reshape(uh.shape)
            sq = np.einsum("nq,q,n->", (uh - ue) ** 2, rule_x.weights, mesh.det_jacobians)
            total += wq * tau * sq
    return float(np.sqrt(total))
