"""Preconditioned Krylov solvers for the element-blocked systems.

Hand-rolled CG / BiCGStab so the result contract (best iterate on failure,
iteration count, achieved residual) and the debug energy monitor are under
our control; matrix-vector products go through scipy BSR.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonconvergenceError


@dataclass(frozen=True)
class SolverConfig:
    method: str = "cg"
    rel_tol: float = 1e-10
    max_iter: int | None = None
    preconditioner: str = "block_jacobi"

    def __post_init__(self):
        if self.method not in ("cg", "bicgstab"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must be in (0, 1)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.preconditioner not in ("none", "jacobi", "block_jacobi"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


class SolveResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float
    monitor: tuple = ()  # CG energy values per iteration, filled with ``debug``


def make_preconditioner(system, kind):
    """Return y = M^{-1} x as a callable for the requested preconditioner."""
    A = system.matrix
    if kind == "none":
        return lambda x: x
    if kind == "jacobi":
        d = A.diagonal()
        if np.any(d == 0):
            raise ValueError("zero diagonal entry; Jacobi preconditioner unusable")
        dinv = 1.0 / d
        return lambda x: dinv * x
    nb = system.block_size
    nblocks = system.n_blocks
    bsr = A.tobsr(blocksize=(nb, nb))  # no copy for the assembled operators
    rows = np.repeat(np.arange(nblocks), np.diff(bsr.indptr))
    on_diag = bsr.indices == rows
    blocks = np.zeros((nblocks, nb, nb))
    blocks[rows[on_diag]] = bsr.data[on_diag]
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular diagonal block; cannot form block-Jacobi") from err

    def apply(x):
        return np.einsum("bij,bj->bi", inv, x.reshape(nblocks, nb)).ravel()

    return apply


def _check_symmetric(A, rng):
    v = rng.standard_normal(A.shape[0])
    av = A @ v
    atv = A.T @ v
    scale = np.linalg.norm(av) + 1e-300
    return np.linalg.norm(av - atv) <= 1e-8 * scale


def solve(system, b, config=None, x0=None, debug=False):
    """Solve system.matrix x = b.

    Returns SolveResult(x, iterations, residual, monitor) with the true
    residual ||Ax - b||_2 <= rel_tol * ||b||_2, or raises NonconvergenceError
    carrying the iterate with the smallest residual norm seen (judged by the
    recurrence residual; the error's ``residual`` is its true residual).
    With ``debug`` (CG only) ``monitor`` holds the quadratic-form values
    0.5 x^T A x - b^T x per iteration; they decrease monotonically exactly
    when the energy-norm error does.
    """
    config = config or SolverConfig()
    A = system.matrix
    b = np.asarray(b, dtype=float)
    if b.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    max_iter = config.max_iter or max(10 * A.shape[0], 50)
    precond = make_preconditioner(system, config.preconditioner)

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    tol = config.rel_tol * bnorm

    if config.method == "cg":
        if not system.symmetric and not _check_symmetric(A, np.random.default_rng(0)):
            raise ValueError("cg requires a symmetric matrix; use bicgstab")
        return _pcg(A, b, precond, tol, max_iter, x0, debug)
    return _bicgstab(A, b, precond, tol, max_iter, x0)


def _fail(best_x, A, b, it, message):
    res = float(np.linalg.norm(b - A @ best_x))
    raise NonconvergenceError(message, best_x=best_x, residual=res, iterations=it)


def _pcg(A, b, precond, tol, max_iter, x0, debug):
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    monitor = []
    best_x, best_res = x.copy(), float(np.linalg.norm(r))
    if best_res <= tol:
        return SolveResult(x, 0, best_res)
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = A @ p
        pq = float(p @ q)
        if not np.isfinite(pq) or pq <= 0.0:
            _fail(best_x, A, b, it, "cg breakdown: non-positive curvature "
                                    "(matrix indefinite or penalty too small)")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if debug:
            monitor.append(0.5 * float(x @ (A @ x)) - float(b @ x))
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol:
            true_res = float(np.linalg.norm(b - A @ x))
            if true_res <= tol:
                return SolveResult(x, it, true_res, tuple(monitor))
            r = b - A @ x  # recurrence drifted; refresh and continue
            rnorm = true_res
        if rnorm < best_res:
            best_x[:] = x
            best_res = rnorm
        z = precond(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            _fail(best_x, A, b, it, "cg breakdown: NaN in inner product")
        p = z + (rz_new / rz) * p
        rz = rz_new
    _fail(best_x, A, b, max_iter, f"cg did not converge in {max_iter} iterations")


def _bicgstab(A, b, precond, tol, max_iter, x0):
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    best_x, best_res = x.copy(), float(np.linalg.norm(r))
    if best_res <= tol:
        return SolveResult(x, 0, best_res)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        rho_new = float(r_hat @ r)
        if abs(rho_new) < 1e-300 or not np.isfinite(rho_new):
            _fail(best_x, A, b, it, "bicgstab breakdown (rho ~ 0)")
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        ph = precond(p)
        v = A @ ph
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            _fail(best_x, A, b, it, "bicgstab breakdown (r_hat . v ~ 0)")
        alpha = rho_new / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol:
            x = x + alpha * ph
            r = s
        else:
            sh = precond(s)
            t = A @ sh
            tt = float(t @ t)
            if tt == 0.0 or not np.isfinite(tt):
                _fail(best_x, A, b, it, "bicgstab breakdown (t = 0)")
            omega = float(t @ s) / tt
            x = x + alpha * ph + omega * sh
            r = s - omega * t
        rho = rho_new
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol:
            true_res = float(np.linalg.norm(b - A @ x))
            if true_res <= tol:
                return SolveResult(x, it, true_res)
            r = b - A @ x
            rnorm = true_res
        if rnorm < best_res:
            best_x[:] = x
            best_res = rnorm
    _fail(best_x, A, b, max_iter, f"bicgstab did not converge in {max_iter} iterations")
