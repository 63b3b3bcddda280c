import numpy as np
import pytest

from linedg import basis as fb
from linedg.assembly import (
    DGSpec,
    _face_traces,
    assemble_dg_norm_gram,
    assemble_dirichlet_rhs,
    assemble_jump_penalty,
    assemble_mass,
    assemble_stiffness,
    assemble_volume_rhs,
)
from linedg.fields import FieldFunction
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.norms import dg_norm
from linedg.solver import SolverConfig, solve

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def test_spec_validation():
    with pytest.raises(ValueError):
        DGSpec(k=1, epsilon=2)
    with pytest.raises(ValueError):
        DGSpec(k=1, epsilon=-1, sigma=0.5)
    with pytest.raises(ValueError):
        DGSpec(k=1, epsilon=-1, beta=2.0)
    DGSpec(k=1, epsilon=1, sigma=4.0, beta=2.0)
    assert DGSpec.default(2).sigma == 12.0


def test_symmetry_at_minus_one():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    A = assemble_stiffness(mesh, DGSpec.default(1), basis).matrix
    diff = abs(A - A.T).max()
    assert diff < 1e-12 * abs(A).max()


def test_nonsymmetric_variants_assemble():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    for eps in (0, 1):
        A = assemble_stiffness(mesh, DGSpec.default(1, epsilon=eps), basis).matrix
        assert abs(A - A.T).max() > 1e-8  # genuinely nonsymmetric


def test_positive_diagonal():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    for k in (1, 2):
        sys_ = assemble_stiffness(mesh, DGSpec.default(k), fb.make_basis(k))
        assert np.all(sys_.matrix.diagonal() > 0)


def test_constant_vector_rows():
    """A applied to the global constant acts only near the boundary."""
    mesh = build_box_mesh(SLAB, (4, 4, 2))
    basis = fb.make_basis(1)
    A = assemble_stiffness(mesh, DGSpec.default(1), basis).matrix
    ones = np.ones(A.shape[0])
    r = (A @ ones).reshape(mesh.n_elements, basis.dim)
    touches = np.zeros(mesh.n_elements, dtype=bool)
    touches[mesh.bface_elem] = True
    interior = ~touches
    assert np.abs(r[interior]).max() < 1e-12 * abs(A).max()
    assert np.abs(r[touches]).max() > 0


def test_coercivity_probe():
    """a(w, w) >= 0.5 ||w||_DG^2 for the default symmetric parameters."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(k=1, epsilon=-1, sigma=5.0, beta=1.0)
    A = assemble_stiffness(mesh, spec, basis).matrix
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = rng.standard_normal(A.shape[0])
        field = FieldFunction.from_vector(mesh, basis, w)
        energy = dg_norm(field, sigma=spec.sigma) ** 2
        assert w @ (A @ w) >= 0.5 * energy - 1e-10 * energy


def test_penalty_scaling_isolated():
    """Doubling sigma changes exactly the jump-penalty part."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    A1 = assemble_stiffness(mesh, DGSpec(k=1, sigma=5.0), basis).matrix
    A2 = assemble_stiffness(mesh, DGSpec(k=1, sigma=10.0), basis).matrix
    P = assemble_jump_penalty(mesh, basis, 5.0 / mesh.grid_spacing).matrix
    assert abs((A2 - A1) - P).max() < 1e-12 * abs(A1).max()


def test_mass_matrix_closed_form():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    M = assemble_mass(mesh, basis)
    ones = np.ones(M.ndof)
    assert abs(ones @ (M.matrix @ ones) - SLAB.volume) < 1e-12
    # first element block against the classical P1 tet mass matrix
    vol = mesh.volumes[0]
    block = M.matrix[:4, :4].toarray()
    expected = (vol / 20.0) * (np.ones((4, 4)) + np.eye(4))
    assert np.allclose(block, expected, atol=1e-14)


def test_mass_blocks_spd():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    M = assemble_mass(mesh, basis)
    for e in range(0, mesh.n_elements, 7):
        block = M.matrix[e * 10 : (e + 1) * 10, e * 10 : (e + 1) * 10].toarray()
        np.linalg.cholesky(block)  # raises if not SPD


def test_dirichlet_zero_data():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    r = assemble_dirichlet_rhs(mesh, DGSpec.default(1), basis, 0.0)
    assert np.all(r == 0)


def test_constant_solution_exact():
    """g = 1, f = 0 reproduces the constant one."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    spec = DGSpec.default(1)
    system = assemble_stiffness(mesh, spec, basis)
    rhs = assemble_dirichlet_rhs(mesh, spec, basis, 1.0)
    res = solve(system, rhs, SolverConfig(rel_tol=1e-12))
    assert np.allclose(res.x, 1.0, atol=1e-9)


@pytest.mark.parametrize("k,epsilon", [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)])
def test_patch_test(k, epsilon):
    """Polynomial solutions of degree <= k are reproduced to 1e-8 in energy."""
    mesh = build_box_mesh(SLAB, (2, 2, 2))
    basis = fb.make_basis(k)
    beta = 1.0 if epsilon == -1 else 2.0
    sigma = {1: 10.0, 2: 24.0}[k]
    spec = DGSpec(k=k, epsilon=epsilon, sigma=sigma, beta=beta)

    if k == 1:
        exact = lambda p: 1.0 + 2 * p[:, 0] - 3 * p[:, 1] + 0.5 * p[:, 2]
        grad = lambda p: np.tile([2.0, -3.0, 0.5], (p.shape[0], 1))
        laplacian = lambda p: np.zeros(p.shape[0])
    else:
        exact = lambda p: p[:, 0] ** 2 - p[:, 1] * p[:, 2] + p[:, 0] * p[:, 1] + p[:, 2]
        grad = lambda p: np.column_stack(
            [2 * p[:, 0] + p[:, 1], -p[:, 2] + p[:, 0], -p[:, 1] + 1.0]
        )
        laplacian = lambda p: np.full(p.shape[0], 2.0)

    system = assemble_stiffness(mesh, spec, basis)
    rhs = assemble_volume_rhs(mesh, basis, lambda p: -laplacian(p))
    rhs += assemble_dirichlet_rhs(mesh, spec, basis, exact)
    method = "cg" if epsilon == -1 else "bicgstab"
    res = solve(system, rhs, SolverConfig(method=method, rel_tol=1e-13))
    uh = FieldFunction.from_vector(mesh, basis, res.x)

    from linedg.norms import dg_energy_error

    err = dg_energy_error(uh, exact, grad, sigma=spec.sigma)
    assert err < 1e-8


def test_dg_norm_gram_matches_quadrature_norm():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    G = assemble_dg_norm_gram(mesh, basis, sigma=12.0)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(G.ndof)
    field = FieldFunction.from_vector(mesh, basis, v)
    assert abs(np.sqrt(v @ (G.matrix @ v)) - dg_norm(field, sigma=12.0)) < 1e-10


def test_matrix_market_export(tmp_path):
    mesh = build_box_mesh(SLAB, (1, 1, 1))
    sys_ = assemble_mass(mesh, fb.make_basis(1))
    path = tmp_path / "mass.mtx"
    sys_.export_matrix_market(path)
    import scipy.io

    back = scipy.io.mmread(str(path))
    assert abs(back - sys_.matrix).max() < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_traces_match_pointwise_evaluation(k):
    """Reference-table traces equal the basis mapped back from each face point."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(k)
    for boundary, normals in ((False, mesh.iface_normals), (True, mesh.bface_normals)):
        x, w, sides = _face_traces(mesh, basis, 2 * k + 2, boundary)
        assert len(sides) == (1 if boundary else 2)
        for elems, V, Gn in sides:
            for f, e in enumerate(elems):
                ref = fb.to_reference(mesh.tet_coords(e), x[f])
                grads = fb.push_gradients(basis.grad(ref), mesh.jac_invs[e])
                assert np.allclose(V[f], basis.eval(ref), rtol=0, atol=1e-12)
                assert np.allclose(Gn[f], grads @ normals[f], rtol=0, atol=1e-12)
