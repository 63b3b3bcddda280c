"""Preconditioned Krylov solvers for the element-blocked systems.

Hand-rolled CG / BiCGStab so the result contract (best iterate on failure,
iteration count, achieved residual) is under our control; matrix-vector
products are ``system @ x`` with the Kuhn-stencil ``assembly.SparseSystem``,
block-Jacobi is its ``block_jacobi()`` and multigrid a ``multigrid.VCycle``:
numpy only, no solve imports scipy.  The two methods share one start
(``solve``) and one convergence and best-iterate rule (``_settle``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import multigrid
from .errors import NonconvergenceError


@dataclass(frozen=True)
class SolverConfig:
    rel_tol: float = 1e-10
    max_iter: int | None = None
    preconditioner: str = "block_jacobi"

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must be in (0, 1)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.preconditioner not in ("none", "block_jacobi", "multigrid"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


class SolveResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float


def make_preconditioner(system, kind):
    """Return y = M^{-1} x as a callable for the requested preconditioner.

    ``block_jacobi`` is ``system.block_jacobi()``; ``multigrid`` is a
    ``multigrid.VCycle`` in its default precision, which needs an operator
    that can rebuild itself on a coarser mesh (the stiffness, the mass, and
    their sums and multiples such as M + tau A); any other raises ValueError.
    """
    if kind == "none":
        return lambda x: x
    if kind == "multigrid":
        return multigrid.VCycle(system)
    if kind != "block_jacobi":
        raise ValueError(f"unknown preconditioner {kind!r}")
    return system.block_jacobi()


def solve(system, b, config=None, x0=None, precond=None):
    """Solve system @ x = b: by CG when ``system.symmetric`` is set,
    by BiCGStab otherwise.

    A right-hand side with an entry that is not finite raises ValueError
    before the operator is applied.
    Returns SolveResult(x, iterations, residual) with the true
    residual ||Ax - b||_2 <= rel_tol * ||b||_2, or raises NonconvergenceError
    carrying the iterate with the smallest residual norm seen (judged by the
    recurrence residual; the error's ``residual`` is its true residual).
    Both methods start from x0 (default 0) and its residual, and after each
    iteration apply ``_settle``: a recurrence residual within tolerance is
    confirmed by the true one, or, if that has drifted, replaced by it.
    ``precond`` is a prebuilt ``make_preconditioner`` callable for this
    operator, so that repeated solves with one operator build it once; by
    default it is built from ``config.preconditioner``.
    Both methods update their vectors in place and drop each once read: CG
    holds x, r, the best iterate and p across a product (BiCGStab also r_hat,
    v and the preconditioned direction), plus the product's own transients.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    if b.shape[0] != system.ndof:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has entries that are not finite")
    max_iter = config.max_iter or max(10 * system.ndof, 50)
    if precond is None:
        precond = make_preconditioner(system, config.preconditioner)

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    tol = config.rel_tol * bnorm

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - system @ x
    best = [x.copy(), float(np.linalg.norm(r))]  # the best iterate and its residual norm
    if best[1] <= tol:
        return SolveResult(x, 0, best[1])
    if system.symmetric:
        return _pcg(system, b, precond, tol, max_iter, x, r, best)
    return _bicgstab(system, b, precond, tol, max_iter, x, r, best)


def _fail(best, A, b, it, message):
    res = float(np.linalg.norm(b - A @ best[0]))
    raise NonconvergenceError(message, best_x=best[0], residual=res, iterations=it)


def _settle(A, b, x, r, tol, best):
    """The convergence and best-iterate rule of both methods, after each
    iteration: once the recurrence residual ``r`` reaches ``tol``, the true
    residual b - A x decides; if it has drifted above ``tol``, it replaces
    ``r`` in place and the iteration continues from it.  Records ``x`` in
    ``best`` when its residual norm is the smallest yet.  Returns the true
    residual norm once converged, else None."""
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol:
        true_r = b - A @ x
        rnorm = float(np.linalg.norm(true_r))
        if rnorm <= tol:
            return rnorm
        r[:] = true_r  # recurrence drifted; continue from the true residual
    if rnorm < best[1]:
        best[0][:] = x
        best[1] = rnorm
    return None


def _pcg(A, b, precond, tol, max_iter, x, r, best):
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    del z
    for it in range(1, max_iter + 1):
        q = A @ p
        pq = float(p @ q)
        if not np.isfinite(pq) or pq <= 0.0:
            _fail(best, A, b, it, "cg breakdown: non-positive curvature "
                                  "(matrix indefinite or penalty too small)")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        del q
        res = _settle(A, b, x, r, tol, best)
        if res is not None:
            return SolveResult(x, it, res)
        z = precond(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            _fail(best, A, b, it, "cg breakdown: NaN in inner product")
        p *= rz_new / rz  # then p += z: bitwise z + beta * p, in place
        p += z
        del z
        rz = rz_new
    _fail(best, A, b, max_iter, f"cg did not converge in {max_iter} iterations")


def _bicgstab(A, b, precond, tol, max_iter, x, r, best):
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        rho_new = float(r_hat @ r)
        if abs(rho_new) < 1e-300 or not np.isfinite(rho_new):
            _fail(best, A, b, it, "bicgstab breakdown (rho ~ 0)")
        beta = (rho_new / rho) * (alpha / omega)
        p -= omega * v  # in place, in the order of r + beta * (p - omega * v)
        p *= beta
        p += r
        del v
        ph = precond(p)
        v = A @ ph
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            _fail(best, A, b, it, "bicgstab breakdown (r_hat . v ~ 0)")
        alpha = rho_new / denom
        r -= alpha * v  # r is now s
        x += alpha * ph
        del ph
        if np.linalg.norm(r) > tol:
            sh = precond(r)
            t = A @ sh
            tt = float(t @ t)
            if tt == 0.0 or not np.isfinite(tt):
                _fail(best, A, b, it, "bicgstab breakdown (t = 0)")
            omega = float(t @ r) / tt
            x += omega * sh
            r -= omega * t
            del sh, t
        rho = rho_new
        res = _settle(A, b, x, r, tol, best)
        if res is not None:
            return SolveResult(x, it, res)
    _fail(best, A, b, max_iter, f"bicgstab did not converge in {max_iter} iterations")
