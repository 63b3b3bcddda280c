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

A march has one form: the ``Step``s that iterating ``BackwardEuler`` yields,
each as it is solved, while the stepper holds u^{n-1}, u^n and Q.
``run_backward_euler`` collects them in a list; ``step_diagnostics`` and
``spacetime_l2_error`` read either, one step at a time.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


class Step(NamedTuple):
    """One time level of a march: index n, time t = n tau, the state u^n as a
    ``FieldFunction``, and the Krylov iterations of its solve (0 at n = 0).
    A march is its steps: a live ``BackwardEuler`` yields them as each is
    solved, and ``run_backward_euler`` returns them in a list."""

    n: int
    t: float
    field: FieldFunction
    iterations: int


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


class BackwardEuler:
    """The implicit Euler scheme on one mesh and time grid.

    Construction assembles S = M + tau A, M, S's preconditioner and, for a
    line density fixed in time, the line load.  Iterating marches from u^0
    and yields each ``Step`` as it is solved.  A march holds u^{n-1}, u^n
    and the projection basis Q, never the series; each iteration marches
    anew.

    ``f`` is the line density: None, a number, or f(t, s) of time and
    arclength.  A callable ``f`` is evaluated at every step's time when
    ``f_time_dependent`` is set, else once at t = 0.  ``u0`` is None (zero),
    a coefficient vector, or a point function, projected by
    ``project_initial``.  ``volume_source(t, points)`` adds a distributed
    load, used by manufactured smooth tests.  A solver failure raises
    ``NonconvergenceError`` with the step index in its message and the failed
    solve's ``best_x``, ``residual`` and ``iterations``.
    """

    def __init__(self, mesh, spec, curve, f, u0, grid, solver_config=None, basis=None,
                 volume_source=None, f_time_dependent=True):
        if isinstance(f, np.ufunc) and f.nin == 1:  # f(t, s) would pass s as ``out``
            raise TypeError(f"line density {f.__name__} takes one argument; f must be f(t, s)")
        self.mesh, self.grid, self.u0, self.volume_source = mesh, grid, u0, volume_source
        self.basis = _basis.make_basis(spec.k) if basis is None else basis
        self.solver_config = solver_config or SolverConfig()
        A = assemble_stiffness(mesh, spec, self.basis)
        self.mass = assemble_mass(mesh, self.basis)
        self.system = self.mass + grid.tau * A
        self.preconditioner = make_preconditioner(self.system, self.solver_config.preconditioner)
        self.line_load = None  # t -> the line load at time t
        if f is not None and curve is not None:
            restrictions = build_restrictions(curve, mesh)

            def line_load(t):
                density = (lambda s: f(t, s)) if callable(f) else f
                return assemble_line_rhs(curve, density, mesh, self.basis,
                                         restrictions=restrictions)

            if f_time_dependent and callable(f):
                self.line_load = line_load
            else:
                b_line = line_load(0.0)
                self.line_load = lambda t: b_line

    def __iter__(self):
        mesh, basis, S, M, tau = self.mesh, self.basis, self.system, self.mass, self.grid.tau
        u = _initial_vector(self.u0, mesh, basis)
        yield Step(0, 0.0, FieldFunction.from_vector(mesh, basis, u), 0)
        # S-orthonormal rows spanning u^1..u^{N-1}; the last solution starts no solve
        Q = np.empty((self.grid.steps - 1, u.size)) if S.symmetric else None
        m = 0
        for n in range(1, self.grid.steps + 1):
            t_n = n * tau
            rhs = M @ u
            if self.line_load is not None:
                rhs = rhs + tau * self.line_load(t_n)
            if self.volume_source is not None:
                rhs = rhs + tau * assemble_volume_rhs(
                    mesh, basis, lambda p: self.volume_source(t_n, p)
                )
            x0 = u + (Q[:m] @ (rhs - Su)) @ Q[:m] if m else u
            try:
                result = solve(S, rhs, self.solver_config, x0=x0, precond=self.preconditioner)
            except NonconvergenceError as err:
                raise NonconvergenceError(f"time step {n} (t = {t_n:.6g}): {err}", err.best_x,
                                          err.residual, err.iterations) from err
            u = result.x
            yield Step(n, t_n, FieldFunction.from_vector(mesh, basis, u), result.iterations)
            if Q is not None and n < self.grid.steps:
                Su = S @ u
                m = _extend_basis(S, Q, m, u, Su)


def run_backward_euler(*args, **kwargs):
    """The steps u^0..u^N of ``BackwardEuler(*args, **kwargs)``, collected in a list."""
    return list(BackwardEuler(*args, **kwargs))


def step_diagnostics(steps, sigma):
    """Per-step L2 and energy norms plus the increment accumulator.

    ``steps`` is any iterable of ``Step``s on one mesh, a list or a live
    ``BackwardEuler`` march.  It is read one step at a time, holding
    only the previous state.  Returns a list of dict rows (n, t, l2, dg,
    increment_sq_sum) where the accumulator is
    sum_{m<=n} ||u^m - u^{m-1}||_{L2}^2.
    """
    rows = []
    acc = 0.0
    prev = None
    for step in steps:
        v = step.field.coeffs.ravel()
        if prev is None:
            M = assemble_mass(step.field.mesh, step.field.basis)
            G = assemble_dg_norm_gram(step.field.mesh, step.field.basis, sigma)
        else:
            d = v - prev
            acc += float(d @ (M @ d))
        rows.append(
            {
                "n": step.n,
                "t": float(step.t),
                "l2": float(np.sqrt(max(v @ (M @ v), 0.0))),
                "dg": float(np.sqrt(max(v @ (G @ v), 0.0))),
                "increment_sq_sum": acc,
            }
        )
        prev = v
    return rows


def spacetime_l2_error(steps, exact):
    """L2(0,T; L2) distance between the reconstruction and ``exact(t, points)``.

    ``steps`` is any iterable of ``Step``s, a list or a live ``BackwardEuler``
    march, read one step at a time.  On the interval (t^{n-1}, t^n] of two
    consecutive steps the reconstruction is u^n; a two-point Gauss rule there
    and ``norms.l2_error`` in space.
    """
    rule_t = _basis.segment_quadrature(3)
    total, t_prev = 0.0, None
    for step in steps:
        if t_prev is not None:
            tau = step.t - t_prev
            for tq, wq in zip(rule_t.points[:, 0], rule_t.weights):
                t = t_prev + tq * tau
                total += wq * tau * l2_error(step.field, lambda p: exact(t, p)) ** 2
        t_prev = step.t
    return float(np.sqrt(total))
