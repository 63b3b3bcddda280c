import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from linedg import basis as fb
from linedg.assembly import DGSpec, assemble_stiffness
from linedg.curve import Curve, assemble_line_rhs
from linedg.errors import NonconvergenceError
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.solver import SolverConfig, make_preconditioner, solve

from csr_system import CsrSystem

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def as_system(dense, block_size=1, symmetric=True):
    return CsrSystem(np.asarray(dense, dtype=float), block_size, symmetric)


def test_identity_single_iteration():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(40)
    res = solve(as_system(np.eye(40)), b, SolverConfig(preconditioner="none"))
    assert res.iterations <= 1
    assert np.allclose(res.x, b, atol=1e-12)


def test_two_by_two_hand_solution():
    res = solve(as_system([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]),
                SolverConfig(preconditioner="none", rel_tol=1e-14))
    assert np.allclose(res.x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(preconditioner="ilu")


def test_jacobi_is_no_preconditioner():
    """Point Jacobi is block-Jacobi with block size 1; the name is unknown."""
    with pytest.raises(ValueError, match="unknown preconditioner 'jacobi'"):
        SolverConfig(preconditioner="jacobi")
    with pytest.raises(ValueError, match="unknown preconditioner 'jacobi'"):
        make_preconditioner(as_system(np.eye(3)), "jacobi")


def test_zero_rhs():
    res = solve(as_system(np.eye(5)), np.zeros(5))
    assert res.iterations == 0 and np.all(res.x == 0)


def test_nonsymmetric_operator_is_solved_by_bicgstab():
    """An operator not flagged symmetric goes to BiCGStab."""
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    res = solve(as_system(A, symmetric=False), np.ones(2), SolverConfig(rel_tol=1e-12))
    assert np.allclose(A @ res.x, 1.0, atol=1e-12)


def test_bicgstab_on_nonsymmetric():
    rng = np.random.default_rng(3)
    A = np.eye(30) + 0.1 * rng.standard_normal((30, 30))
    x_true = rng.standard_normal(30)
    b = A @ x_true
    res = solve(as_system(A, symmetric=False), b,
                SolverConfig(preconditioner="block_jacobi", rel_tol=1e-12))
    assert np.allclose(res.x, x_true, atol=1e-8)
    assert res.residual <= 1e-12 * np.linalg.norm(b)


def test_nonconvergence_carries_best_iterate():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((50, 50))
    A = A @ A.T + 0.01 * np.eye(50)
    b = rng.standard_normal(50)
    with pytest.raises(NonconvergenceError) as info:
        solve(as_system(A), b, SolverConfig(rel_tol=1e-14, max_iter=3, preconditioner="none"))
    err = info.value
    assert err.best_x is not None and err.best_x.shape == (50,)
    assert err.residual is not None and err.residual > 0


def jacobi_cg_residuals(A, b, steps):
    """||b - A x_k|| for k = 0..steps: textbook Jacobi-preconditioned CG from x_0 = 0."""
    d = np.diag(A)
    x, r = np.zeros_like(b), b.copy()
    p = r / d
    rz = r @ p
    out = [np.linalg.norm(b)]
    for _ in range(steps):
        q = A @ p
        alpha = rz / (p @ q)
        x, r = x + alpha * p, r - alpha * q
        out.append(np.linalg.norm(b - A @ x))
        z = r / d
        p, rz = z + (r @ z) / rz * p, r @ z
    return np.array(out)


@pytest.mark.parametrize("n,decades,seed,skew,caps", [(6, 2, 17, 0.0, 5), (30, 3, 8, 1e-6, 24)],
                         ids=["cg", "bicgstab"])
def test_nonconvergence_returns_best_iterate(n, decades, seed, skew, caps):
    """With a non-monotone residual, each failure carries the best iterate so far.

    The symmetric 6 x 6 matrix runs CG, whose residual falls below ||b||,
    rises and falls again: each failure must report the running minimum of
    the residuals of a textbook CG.  The skew-perturbed 30 x 30 matrix runs
    BiCGStab, whose best iterate moves at the 24th cap.
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    D = np.diag(np.logspace(0, decades, n))
    A = D @ (M @ M.T + 0.1 * np.eye(n)) @ D
    b = rng.standard_normal(n)
    K = rng.standard_normal((n, n))
    A = A + skew * np.abs(A).max() * (K - K.T)
    residuals = []
    for cap in range(1, caps + 1):
        with pytest.raises(NonconvergenceError) as info:
            solve(as_system(A, symmetric=skew == 0), b,
                  SolverConfig(rel_tol=1e-14, max_iter=cap, preconditioner="block_jacobi"))
        err = info.value
        assert np.isclose(err.residual, np.linalg.norm(b - A @ err.best_x), rtol=1e-12)
        residuals.append(err.residual)
    assert np.all(np.array(residuals) <= np.minimum.accumulate(residuals))
    assert residuals[-1] < np.linalg.norm(b)
    if skew == 0:
        raw = jacobi_cg_residuals(A, b, caps)
        best = np.minimum.accumulate(raw)[1:]
        assert np.any(raw[1:] > best) and best[0] < raw[0]  # it dips, then rises
        assert np.allclose(residuals, best, rtol=1e-9, atol=0)


class OffsetProducts(CsrSystem):
    """Every product carries a fixed offset, so the recurrence residual drifts
    from the true one; counts the products."""

    products = 0

    def __matmul__(self, x):
        self.products += 1
        return super().__matmul__(x) + 3e-11


def test_drift_continuation_applies_the_operator_once():
    """The recurrence residual of CG reaches the tolerance before the true one:
    the iteration continues from the true residual it has just checked, so the
    solve takes one product per iteration plus three (the start, the check that
    finds the drift, the final check)."""
    A = OffsetProducts(np.diag(np.linspace(1.0, 10.0, 50)))
    res = solve(A, np.ones(50), SolverConfig(rel_tol=1e-10, preconditioner="none"))
    assert res.iterations == 41
    assert A.products == res.iterations + 3


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_right_hand_side_raises_before_any_product(value):
    """A load that is not finite is the caller's error, not the matrix's: it is
    rejected before the operator is applied."""
    A = OffsetProducts(np.diag(np.linspace(1.0, 10.0, 50)))
    b = np.ones(50)
    b[7] = value
    with pytest.raises(ValueError, match="right-hand side has entries that are not finite"):
        solve(A, b, SolverConfig(preconditioner="none"))
    assert A.products == 0


def test_indefinite_matrix_reports_breakdown():
    A = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NonconvergenceError):
        solve(as_system(A), np.array([1.0, 1.0, 1.0]),
              SolverConfig(preconditioner="none"))


def test_elliptic_system_converges_with_block_jacobi():
    """Residual contract holds on a real discretized system."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec(1), basis)
    curve = Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    res = solve(system, b, SolverConfig(rel_tol=1e-10))
    assert res.residual <= 1e-10 * np.linalg.norm(b)
    assert res.iterations < system.ndof


@pytest.mark.parametrize("epsilon,vectors", [(-1, 8), (0, 11)])
def test_solve_allocates_a_few_vectors(epsilon, vectors):
    """A block-Jacobi solve at 16x16x4, k=2, allocates at most 8 ndof vectors
    by CG (x, r, the best iterate and p, plus one ``A @ p``) and 11 by BiCGStab
    (also r_hat, v and the preconditioned direction): no iteration keeps a
    stale vector alive across the next product."""
    system = assemble_stiffness(build_box_mesh(SLAB, (16, 16, 4)), DGSpec(2, epsilon),
                                fb.make_basis(2))
    b = np.random.default_rng(0).standard_normal(system.ndof)
    tracemalloc.start()
    try:
        solve(system, b, SolverConfig(rel_tol=1e-2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vectors * b.nbytes


def test_cg_energy_monotone():
    """CG decreases the energy functional (A-norm of the error) monotonically.

    The functional phi(x) = 0.5 x^T A x - b^T x is read from the residual
    r = b - A x that each iteration hands its preconditioner, as
    phi = 0.5 r^T A^{-1} r - 0.5 b^T A^{-1} b; block-Jacobi is applied inside
    the wrapper, so the iterates are those of the default solve.
    """
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec(1), basis)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(system.ndof)
    block_jacobi, residuals = system.block_jacobi(), []

    def precond(r):
        residuals.append(r.copy())
        return block_jacobi(r)

    solve(system, b, SolverConfig(rel_tol=1e-11), precond=precond)
    dense = system.dense()
    phi = np.array([0.5 * r @ np.linalg.solve(dense, r) for r in residuals])
    phi -= 0.5 * b @ np.linalg.solve(dense, b)
    assert phi.size > 2
    assert np.all(np.diff(phi) <= 1e-9 * np.abs(phi[:-1]).max())


def test_permutation_equivariance():
    """Symmetric permutation of the DoFs permutes the solution."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec(1), basis)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(system.ndof)
    cfg = SolverConfig(rel_tol=1e-12, preconditioner="block_jacobi")  # 1 x 1 blocks: point Jacobi
    x = solve(CsrSystem(system.matrix, 1, True), b, cfg).x

    perm = rng.permutation(system.ndof)
    P = sp.coo_matrix(
        (np.ones(system.ndof), (np.arange(system.ndof), perm)),
        shape=(system.ndof,) * 2,
    ).tocsr()
    Ap = (P @ system.matrix @ P.T).tocsr()
    xp = solve(CsrSystem(Ap, 1, True), P @ b, cfg).x
    assert np.allclose(xp, P @ x, atol=1e-9 * max(1.0, np.abs(x).max()))


def test_block_jacobi_block_permutation_equivariance():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec(1), basis)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(system.ndof)
    cfg = SolverConfig(rel_tol=1e-12, preconditioner="block_jacobi")
    x = solve(system, b, cfg).x

    nb = system.block_size
    blocks = rng.permutation(system.n_blocks)
    perm = (blocks[:, None] * nb + np.arange(nb)[None, :]).ravel()
    P = sp.coo_matrix(
        (np.ones(system.ndof), (np.arange(system.ndof), perm)),
        shape=(system.ndof,) * 2,
    ).tocsr()
    Ap = (P @ system.matrix @ P.T).tocsr()
    xp = solve(CsrSystem(Ap, nb, True), P @ b, cfg).x
    assert np.allclose(xp, P @ x, atol=1e-9 * max(1.0, np.abs(x).max()))


def test_preconditioners_agree():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    system = assemble_stiffness(mesh, DGSpec(2), basis)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(system.ndof)
    sols = [
        solve(system, b, SolverConfig(rel_tol=1e-12, preconditioner=p)).x
        for p in ("none", "block_jacobi", "multigrid")
    ]
    assert np.allclose(sols[0], sols[1], atol=1e-8)
    assert np.allclose(sols[0], sols[2], atol=1e-8)


def test_block_jacobi_speeds_up():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(2)
    system = assemble_stiffness(mesh, DGSpec(2), basis)
    rng = np.random.default_rng(9)
    b = rng.standard_normal(system.ndof)
    plain = solve(system, b, SolverConfig(rel_tol=1e-10, preconditioner="none"))
    prec = solve(system, b, SolverConfig(rel_tol=1e-10, preconditioner="block_jacobi"))
    assert prec.iterations < plain.iterations


@pytest.mark.parametrize("k", [1, 2])
def test_block_jacobi_same_on_bsr_and_csr(k):
    """Block-Jacobi of the stencil operator and of its CSR copy solve the dense diagonal blocks."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    system = assemble_stiffness(mesh, DGSpec(k), fb.make_basis(k))
    nb = system.block_size
    csr = CsrSystem(system.matrix, nb, system.symmetric)
    on_stencil = make_preconditioner(system, "block_jacobi")
    on_csr = make_preconditioner(csr, "block_jacobi")
    dense = system.matrix.toarray()
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(system.ndof)
        ref = np.concatenate([
            np.linalg.solve(dense[s : s + nb, s : s + nb], x[s : s + nb])
            for s in range(0, system.ndof, nb)
        ])
        assert np.allclose(on_stencil(x), ref, rtol=1e-12, atol=0)
        assert np.allclose(on_csr(x), ref, rtol=1e-12, atol=0)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(as_system(np.eye(3)), np.ones(4))
