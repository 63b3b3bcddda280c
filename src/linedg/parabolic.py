"""Backward Euler time stepping for the line-source heat problem.

Each step solves S u^n = M u^{n-1} + tau b(t^n), S = M + tau A, with the
homogeneous weak Dirichlet condition built into A; S is formed once per run
as one stencil, its preconditioner built once, and the line load rebuilt
per step only when the source depends on time.  S carries its own rule,
mesh -> M + tau A there, so the multigrid V-cycle rebuilds it on the halved
grids as it does a stiffness operator.

When S is symmetric (CG) each solve starts from the projected start of
Fischer (CMAME 163, 1998): the run keeps an S-orthonormal basis Q of the
earlier solutions and starts from x0 = u^{n-1} + Q Q^T (rhs - S u^{n-1}),
the S-norm-best correction of the warm start over span(Q), so never worse
than u^{n-1} in the energy norm.  Each solution is orthogonalised against Q
by two Gram-Schmidt passes and kept only when more than 1e-10 of its S-norm
is new, in rows of one array preallocated for at most one vector per step.
On the demo config with block-Jacobi this takes the 40 steps from 759 CG
iterations to 357 at 8x8x2, and from 1389 to 719 at 16x16x4; with the
demo's multigrid they take 65 and 88.  A nonsymmetric S (epsilon = 0, +1,
solved by BiCGStab) starts each step from u^{n-1}.
"""

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .assembly import (
    assemble_dg_norm_gram, assemble_mass, assemble_stiffness, assemble_volume_rhs, local_projection,
)
from .curve import assemble_line_rhs, build_restrictions
from .errors import NonconvergenceError
from .fields import FieldFunction
from .norms import l2_error
from .solver import SolverConfig, make_preconditioner, solve


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

    ``mass`` is the stepper's mass operator (a ``SparseSystem``) on ``mesh``;
    ``step_iterations`` holds the Krylov iteration count of each step's solve,
    and ``preconditioner`` the one preconditioner those solves shared (a
    ``multigrid.VCycle`` with ``preconditioner: multigrid``).
    """

    def __init__(self, mesh, basis, grid, snapshots, mass, step_iterations=(),
                 preconditioner=None):
        self.mesh = mesh
        self.basis = basis
        self.grid = grid
        self.mass = mass
        self.preconditioner = preconditioner
        # not ``iterations``: bench/child.py reads that name on any result as one count
        self.step_iterations = tuple(step_iterations)
        self.snapshots = np.asarray(snapshots, dtype=float)  # (N+1, ndof)
        if self.snapshots.shape[0] != grid.steps + 1:
            raise ValueError("snapshot count must be steps + 1")

    def field(self, n):
        return FieldFunction.from_vector(self.mesh, self.basis, self.snapshots[n])


def project_initial(u0, mesh, basis):
    """Elementwise L2 projection of a point function into the broken space,
    with the moments of ``assemble_volume_rhs`` (the 2k+2 rule)."""
    moments = assemble_volume_rhs(mesh, basis, u0).reshape(mesh.n_elements, basis.dim)
    return FieldFunction(mesh, basis, local_projection(mesh, basis, moments))


def _initial_vector(u0, mesh, basis):
    if u0 is None:
        return np.zeros(mesh.n_elements * basis.dim)
    if callable(u0):
        return project_initial(u0, mesh, basis).coeffs.ravel()
    return np.array(u0, dtype=float).ravel()


def _extend_basis(S, Q, m, u, Su):
    """Orthogonalise ``u`` against the S-orthonormal rows ``Q[:m]`` (two
    Gram-Schmidt passes in the S inner product, ``Su = S @ u``) and store
    the normalised remainder as row ``m`` when its S-norm exceeds 1e-10 of
    ``u``'s.  Returns the new number of rows."""
    norm_u = np.sqrt(max(float(u @ Su), 0.0))
    v, Sv = u, Su
    for _ in range(2):
        v = v - (Q[:m] @ Sv) @ Q[:m]
        Sv = S @ v
    norm_v = np.sqrt(max(float(v @ Sv), 0.0))
    if norm_v <= 1e-10 * norm_u:
        return m
    Q[m] = v / norm_v
    return m + 1


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
    f_time_dependent=True,
):
    """March the implicit Euler scheme and return the snapshot series.

    ``f`` is the line density: None, a number, or f(t, s) of time and
    arclength.  A callable ``f`` is evaluated at every step's time when
    ``f_time_dependent`` is set, else once at t = 0.  ``u0`` is None (zero),
    a coefficient vector, or a point function, projected by
    ``project_initial``.  ``volume_source(t, points)`` adds a distributed
    load, used by manufactured smooth tests.  A solver failure raises
    ``NonconvergenceError`` with the step index in its message and the failed
    solve's ``best_x``, ``residual`` and ``iterations``.
    """
    if basis is None:
        basis = _basis.make_basis(spec.k)
    solver_config = solver_config or SolverConfig()
    tau = grid.tau

    A = assemble_stiffness(mesh, spec, basis)
    M = assemble_mass(mesh, basis)
    S = M + tau * A
    precond = make_preconditioner(S, solver_config.preconditioner)

    if isinstance(f, np.ufunc) and f.nin == 1:  # f(t, s) would pass s as ``out``
        raise TypeError(f"line density {f.__name__} takes one argument; f must be f(t, s)")
    line = f is not None and curve is not None
    if line:
        restrictions = build_restrictions(curve, mesh)

        def line_load(t):
            density = (lambda s: f(t, s)) if callable(f) else f
            return assemble_line_rhs(curve, density, mesh, basis, restrictions=restrictions)

        rebuild = f_time_dependent and callable(f)
        if not rebuild:
            b_line = line_load(0.0)

    u = _initial_vector(u0, mesh, basis)
    snapshots = np.empty((grid.steps + 1, u.size))
    snapshots[0] = u
    step_iterations = []
    # S-orthonormal rows spanning u^1..u^{N-1}; the last solution starts no solve
    Q = np.empty((grid.steps - 1, u.size)) if S.symmetric else None
    m = 0
    for n in range(1, grid.steps + 1):
        t_n = n * tau
        rhs = M @ u
        if line:
            if rebuild:
                b_line = line_load(t_n)
            rhs = rhs + tau * b_line
        if volume_source is not None:
            rhs = rhs + tau * assemble_volume_rhs(
                mesh, basis, lambda p: volume_source(t_n, p)
            )
        x0 = u + (Q[:m] @ (rhs - Su)) @ Q[:m] if m else u
        try:
            result = solve(S, rhs, solver_config, x0=x0, precond=precond)
        except NonconvergenceError as err:
            raise NonconvergenceError(f"time step {n} (t = {t_n:.6g}): {err}", err.best_x,
                                      err.residual, err.iterations) from err
        u = result.x
        step_iterations.append(result.iterations)
        snapshots[n] = u
        if Q is not None and n < grid.steps:
            Su = S @ u
            m = _extend_basis(S, Q, m, u, Su)
    return TimeSeries(mesh, basis, grid, snapshots, M, step_iterations, precond)


def step_diagnostics(series, sigma):
    """Per-step L2 and energy norms plus the increment accumulator.

    Returns a list of dict rows (n, t, l2, dg, increment_sq_sum) where the
    accumulator is sum_{m<=n} ||u^m - u^{m-1}||_{L2}^2.
    """
    M = series.mass
    G = assemble_dg_norm_gram(series.mesh, series.basis, sigma)
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


def spacetime_l2_error(series, exact):
    """L2(0,T; L2) distance between the reconstruction and ``exact(t, points)``.

    Two-point Gauss rule per time interval and ``norms.l2_error`` in space;
    the reconstruction is the right-endpoint snapshot on each interval.
    """
    rule_t = _basis.segment_quadrature(3)
    tau = series.grid.tau
    total = 0.0
    for n in range(1, series.grid.steps + 1):
        uh = series.field(n)
        for tq, wq in zip(rule_t.points[:, 0], rule_t.weights):
            t = (n - 1 + tq) * tau
            total += wq * tau * l2_error(uh, lambda p: exact(t, p)) ** 2
    return float(np.sqrt(total))
