import numpy as np
import pytest
import scipy.sparse as sp

from linedg import basis as fb
from linedg.assembly import DGSpec, SparseSystem, assemble_stiffness
from linedg.curve import Curve, assemble_line_rhs
from linedg.errors import NonconvergenceError
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.solver import SolverConfig, make_preconditioner, solve

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def as_system(dense, block_size=1, symmetric=True):
    return SparseSystem(sp.csr_matrix(np.asarray(dense, dtype=float)), block_size, symmetric)


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
        SolverConfig(method="gmres")
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(preconditioner="ilu")


def test_zero_rhs():
    res = solve(as_system(np.eye(5)), np.zeros(5))
    assert res.iterations == 0 and np.all(res.x == 0)


def test_cg_rejects_nonsymmetric():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        solve(as_system(A, symmetric=False), np.ones(2), SolverConfig(method="cg"))


def test_bicgstab_on_nonsymmetric():
    rng = np.random.default_rng(3)
    A = np.eye(30) + 0.1 * rng.standard_normal((30, 30))
    x_true = rng.standard_normal(30)
    b = A @ x_true
    res = solve(as_system(A, symmetric=False), b,
                SolverConfig(method="bicgstab", preconditioner="jacobi", rel_tol=1e-12))
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


@pytest.mark.parametrize("method", ["cg", "bicgstab"])
def test_nonconvergence_returns_best_iterate(method):
    """With a non-monotone residual, the failure carries the best iterate so far."""
    rng = np.random.default_rng(8)
    M = rng.standard_normal((30, 30))
    D = np.diag(np.logspace(0, 3, 30))
    A = D @ (M @ M.T + 0.1 * np.eye(30)) @ D
    b = rng.standard_normal(30)
    residuals = []
    for n in range(1, 25):
        with pytest.raises(NonconvergenceError) as info:
            solve(as_system(A), b, SolverConfig(method=method, rel_tol=1e-14, max_iter=n,
                                                preconditioner="jacobi"))
        err = info.value
        assert np.isclose(err.residual, np.linalg.norm(b - A @ err.best_x), rtol=1e-12)
        residuals.append(err.residual)
    assert np.all(np.array(residuals) <= np.minimum.accumulate(residuals))


def test_indefinite_matrix_reports_breakdown():
    A = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NonconvergenceError):
        solve(as_system(A), np.array([1.0, 1.0, 1.0]),
              SolverConfig(preconditioner="none"))


def test_elliptic_system_converges_with_block_jacobi():
    """Residual contract holds on a real discretized system."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec.default(1), basis)
    curve = Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    res = solve(system, b, SolverConfig(rel_tol=1e-10))
    assert res.residual <= 1e-10 * np.linalg.norm(b)
    assert res.iterations < system.ndof


def test_debug_monitor_energy_monotone():
    """CG decreases the energy functional (A-norm of the error) monotonically."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec.default(1), basis)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(system.ndof)
    res = solve(system, b, SolverConfig(rel_tol=1e-11), debug=True)
    phi = np.array(res.monitor)
    assert phi.size > 2
    assert np.all(np.diff(phi) <= 1e-9 * np.abs(phi[:-1]).max())


def test_permutation_equivariance():
    """Symmetric permutation of the DoFs permutes the solution."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec.default(1), basis)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(system.ndof)
    cfg = SolverConfig(rel_tol=1e-12, preconditioner="jacobi")
    x = solve(system, b, cfg).x

    perm = rng.permutation(system.ndof)
    P = sp.coo_matrix(
        (np.ones(system.ndof), (np.arange(system.ndof), perm)),
        shape=(system.ndof,) * 2,
    ).tocsr()
    Ap = (P @ system.matrix @ P.T).tocsr()
    xp = solve(SparseSystem(Ap, 1, True), P @ b, cfg).x
    assert np.allclose(xp, P @ x, atol=1e-9 * max(1.0, np.abs(x).max()))


def test_block_jacobi_block_permutation_equivariance():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    system = assemble_stiffness(mesh, DGSpec.default(1), basis)
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
    xp = solve(SparseSystem(Ap, nb, True), P @ b, cfg).x
    assert np.allclose(xp, P @ x, atol=1e-9 * max(1.0, np.abs(x).max()))


def test_preconditioners_agree():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    system = assemble_stiffness(mesh, DGSpec.default(2), basis)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(system.ndof)
    sols = [
        solve(system, b, SolverConfig(rel_tol=1e-12, preconditioner=p)).x
        for p in ("none", "jacobi", "block_jacobi")
    ]
    assert np.allclose(sols[0], sols[1], atol=1e-8)
    assert np.allclose(sols[0], sols[2], atol=1e-8)


def test_block_jacobi_speeds_up():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(2)
    system = assemble_stiffness(mesh, DGSpec.default(2), basis)
    rng = np.random.default_rng(9)
    b = rng.standard_normal(system.ndof)
    plain = solve(system, b, SolverConfig(rel_tol=1e-10, preconditioner="none"))
    prec = solve(system, b, SolverConfig(rel_tol=1e-10, preconditioner="block_jacobi"))
    assert prec.iterations < plain.iterations


@pytest.mark.parametrize("k", [1, 2])
def test_block_jacobi_same_on_bsr_and_csr(k):
    """Block-Jacobi on the assembled BSR, on its CSR copy and from dense blocks agree."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    system = assemble_stiffness(mesh, DGSpec.default(k), fb.make_basis(k))
    nb = system.block_size
    csr = SparseSystem(system.matrix.tocsr(), nb, system.symmetric)
    on_bsr = make_preconditioner(system, "block_jacobi")
    on_csr = make_preconditioner(csr, "block_jacobi")
    dense = system.matrix.toarray()
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(system.ndof)
        ref = np.concatenate([
            np.linalg.solve(dense[s : s + nb, s : s + nb], x[s : s + nb])
            for s in range(0, system.ndof, nb)
        ])
        assert np.array_equal(on_bsr(x), on_csr(x))
        assert np.allclose(on_bsr(x), ref, rtol=1e-12, atol=0)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(as_system(np.eye(3)), np.ones(4))
