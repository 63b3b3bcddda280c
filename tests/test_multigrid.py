import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from linedg import basis as fb
from linedg import multigrid
from linedg.assembly import (
    DGSpec, SparseSystem, assemble_dg_norm_gram, assemble_mass, assemble_stiffness,
)
from linedg.cli import _solve_levels
from linedg.config import load_config
from linedg.fields import FieldFunction
from linedg.mesh import _KUHN_CORNERS, BoxDomain, build_box_mesh
from linedg.multigrid import Transfer, VCycle, level_grids
from linedg.solver import SolverConfig, make_preconditioner, solve

from csr_system import CsrSystem
from two_threads import apply_in_two_threads

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def stiffness(n, k):
    return assemble_stiffness(build_box_mesh(SLAB, n), DGSpec(k), fb.make_basis(k))


def test_coarsen_inverts_refine():
    mesh = build_box_mesh(SLAB, (4, 6, 2))
    coarse = mesh.coarsen()
    assert coarse.n == (2, 3, 1)
    again = build_box_mesh(SLAB, tuple(2 * v for v in coarse.n))
    assert again.n == mesh.n
    assert np.array_equal(again.tets(), mesh.tets())
    assert np.allclose(again.vertices, mesh.vertices, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="even"):
        coarse.coarsen()


def test_level_grids_halve_down_to_an_odd_count():
    assert level_grids((32, 32, 8)) == [(32, 32, 8), (16, 16, 4), (8, 8, 2), (4, 4, 1)]
    assert level_grids((3, 3, 1)) == [(3, 3, 1)]
    with pytest.raises(ValueError, match=r"\(33, 33, 9\)"):
        level_grids((33, 33, 9))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prolongation_reproduces_coarse_field(k):
    basis = fb.make_basis(k)
    for n in [(4, 4, 2), (6, 4, 2)]:  # nx != ny catches an axis-order slip
        fine = build_box_mesh(SLAB, n)
        coarse = fine.coarsen()
        transfer = Transfer(fine, coarse, basis)
        coarse_field = FieldFunction(
            coarse, basis, np.random.default_rng(k).standard_normal((coarse.n_elements, basis.dim))
        )
        fine_field = FieldFunction.from_vector(fine, basis, transfer.prolong(coarse_field.coeffs.ravel()))
        rule = fb.tet_quadrature(2 * k)
        points = fine.map_points(rule.points)  # (nf, q, 3)
        on_fine = fine_field.eval_in_elements(np.arange(fine.n_elements), rule.points)
        on_coarse = coarse_field.evaluate(points.reshape(-1, 3)).reshape(on_fine.shape)
        assert np.max(np.abs(on_fine - on_coarse)) <= 1e-12 * np.max(np.abs(on_coarse)), n


@pytest.mark.parametrize("k", [1, 2])
def test_restriction_is_transpose_of_prolongation(k):
    basis = fb.make_basis(k)
    rng = np.random.default_rng(5)
    for n in [(8, 8, 2), (6, 4, 2)]:
        fine = build_box_mesh(SLAB, n)
        transfer = Transfer(fine, fine.coarsen(), basis)
        xf = rng.standard_normal(fine.n_elements * basis.dim)
        yc = rng.standard_normal(fine.n_elements // 8 * basis.dim)
        lhs, rhs = xf @ transfer.prolong(yc), transfer.restrict(xf) @ yc
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), n


@pytest.mark.parametrize("k", [1, 2])
def test_restriction_gathers_the_exact_transpose(k):
    """``restrict`` gathers by the inverse of ``order``: bitwise the scatter
    ``grouped[order] = x`` it replaces, and exactly the transpose of ``prolong``."""
    basis = fb.make_basis(k)
    fine = build_box_mesh(SLAB, (4, 4, 2))
    transfer = Transfer(fine, fine.coarsen(), basis)
    nb, blocks = basis.dim, transfer.blocks
    for dtype in (np.float64, np.float32):
        x = np.random.default_rng(k).standard_normal(fine.n_elements * nb).astype(dtype)
        grouped = np.empty((len(transfer.order), nb), dtype)
        grouped[transfer.order] = x.reshape(-1, nb)
        scattered = np.matmul(grouped.reshape(6, -1, 8 * nb), blocks.astype(dtype).transpose(0, 2, 1))
        assert np.array_equal(transfer.restrict(x), scattered.transpose(1, 0, 2).ravel())
    P = np.column_stack([transfer.prolong(e) for e in np.eye(fine.n_elements // 8 * nb)])
    R = np.column_stack([transfer.restrict(e) for e in np.eye(fine.n_elements * nb)])
    assert np.array_equal(R, P.T)


def test_transfer_rejects_a_pair_that_is_not_nested():
    basis = fb.make_basis(1)
    fine = build_box_mesh(SLAB, (4, 4, 2))
    other_box = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.5])
    for coarse in (build_box_mesh(SLAB, (2, 2, 2)), build_box_mesh(SLAB, (4, 4, 2)),
                   build_box_mesh(other_box, (2, 2, 1))):
        with pytest.raises(ValueError, match="not nested"):
            Transfer(fine, coarse, basis)


def kuhn_colours(mesh):
    """Per element, the parity of its cell's index sum plus that of the axis
    order of its Kuhn type, the walk from corner 0 to 7 in ``_KUHN_CORNERS``."""
    walk = np.sort(_KUHN_CORNERS, axis=1)
    axes = np.log2(np.diff(walk, axis=1)).astype(int)
    assert np.all(walk[:, 0] == 0)
    assert np.array_equal(np.sort(axes, axis=1), np.tile(np.arange(3), (6, 1)))
    parity = (axes[:, [0, 0, 1]] > axes[:, [1, 2, 2]]).sum(axis=1) % 2
    flat, kind = np.divmod(np.arange(mesh.n_elements), 6)  # element 6c + t
    nx, ny, _ = mesh.n
    return (flat % nx + flat // nx % ny + flat // (nx * ny) + parity[kind]) % 2


FORMS = [(k, epsilon) for k in (1, 2) for epsilon in (-1, 0, 1)] + ["heat"]


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f if f == "heat" else "k%d-eps%+d" % f)
@pytest.mark.parametrize("n", [(3, 2, 1), (4, 4, 2)], ids=["3x2x1", "4x4x2"])
def test_face_graph_two_coloured(n, form):
    """Every interior face joins opposite colours, so with S = +-1 by colour
    S A S = 2D - A, D the block diagonal: the eigenvalues of D^{-1} A pair as
    lambda, 2 - lambda, and 2 bounds them for a positive definite A."""
    mesh = build_box_mesh(SLAB, n)
    if form == "heat":  # the backward Euler operator M + tau A
        basis = fb.make_basis(1)
        system = assemble_mass(mesh, basis) + 0.01 * assemble_stiffness(mesh, DGSpec(1), basis)
    else:
        k, epsilon = form
        system = assemble_stiffness(mesh, DGSpec(k, epsilon), fb.make_basis(k))
    colour = kuhn_colours(mesh)
    faces = system.mesh.neighbours[:, 1:]
    rows, slots = np.nonzero(faces < mesh.n_elements)
    assert len(rows) == 2 * mesh.faces(True)[0].size
    assert np.all(colour[rows] != colour[faces[rows, slots]])

    A = system.matrix.toarray()
    element = np.arange(system.ndof) // system.block_size
    D = np.where(element[:, None] == element[None, :], A, 0.0)
    s = np.where(colour[element] == 0, 1.0, -1.0)
    assert np.array_equal(s[:, None] * A * s[None, :], 2 * D - A)
    if system.symmetric:
        top = eigh(A, D, eigvals_only=True, subset_by_index=[system.ndof - 1] * 2)
        assert top[0] < 2.0


@pytest.mark.parametrize("k", [1, 2])
def test_vcycle_symmetric_positive(k):
    A = stiffness((8, 8, 2), k)
    B = VCycle(A, dtype=np.float64)
    assert B.grids == [(8, 8, 2), (4, 4, 1)]
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2, A.ndof))
        xby, ybx = x @ B(y), y @ B(x)
        assert abs(xby - ybx) <= 1e-12 * abs(xby)
        assert x @ B(x) > 0.0


FLOAT32_TOL = 10 * np.finfo(np.float32).eps


def levels(B):
    """The levels of V-cycle ``B``, finest first, down to the one that inverts."""
    chain = [B]
    while chain[-1].coarse is not None:
        chain.append(chain[-1].coarse)
    return chain


@pytest.mark.parametrize("k", [1, 2])
def test_float32_vcycle_symmetric_positive(k):
    """The cycle a solve builds computes in float32 on every level, the
    coarsest included, and returns float64; it is symmetric up to float32
    rounding of B y, |x.By - y.Bx| <= tol |x| |By|."""
    A = stiffness((8, 8, 2), k)
    B = make_preconditioner(A, "multigrid")
    assert B.dtype == np.float32 and B.A.weights.dtype == np.float32
    bottom = levels(B)[-1]
    assert bottom.dtype == bottom.coarse_inverse.dtype == np.float32  # the coarsest, cast
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2, A.ndof))
        by = B(y)
        assert by.dtype == np.float64
        assert abs(x @ by - y @ B(x)) <= FLOAT32_TOL * np.linalg.norm(x) * np.linalg.norm(by)
        assert x @ B(x) > 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_float32_vcycle_matches_the_float64_cycle(k):
    A = stiffness((16, 16, 4), k)
    B32, B64 = make_preconditioner(A, "multigrid"), VCycle(A, dtype=np.float64)
    assert [B32.dtype, B32.coarse.dtype, B32.coarse.coarse.dtype] == [np.float32] * 3
    assert B64.dtype == B64.coarse.dtype == np.float64
    r = np.random.default_rng(7).standard_normal(A.ndof)
    expected = B64(r)
    assert np.linalg.norm(B32(r) - expected) <= 1e-5 * np.linalg.norm(expected)


def test_float32_cycle_computes_in_float32_on_every_level():
    """In a float32 cycle every level computes in float32, the coarsest
    included: it applies its float64 inverse cast to float32 and receives and
    returns float32.  At k = 2 the 960 DoF of 4x4x1 exceed the cap, so its
    piecewise constants are the bottom level.  A single-level cycle is the
    whole preconditioner and stays float64, and solves the 4x4x1, k = 1
    system (384 DoF) in one CG iteration; a level built on it adopts it cast,
    and its float64 inverse is freed with it."""
    B = make_preconditioner(stiffness((16, 16, 4), 2), "multigrid")
    chain = levels(B)
    assert len(chain) == 4 and chain[-1].A.block_size == 1 and chain[-1].A.mesh.n == (4, 4, 1)
    assert all(level.dtype == level.A.weights.dtype == np.float32 for level in chain)
    assert chain[-1].coarse_inverse.dtype == np.float32
    received = []
    for level in chain[:-1]:
        def recording(r, coarse=level.coarse):
            received.append(r.dtype)
            y = coarse(r)
            received.append(y.dtype)
            return y
        level.coarse = recording
    assert B(np.ones(B.A.ndof)).dtype == np.float64
    assert received == [np.float32] * 6

    A1 = stiffness((4, 4, 1), 1)
    B1 = make_preconditioner(A1, "multigrid")
    assert B1.coarse is None and B1.dtype == B1.coarse_inverse.dtype == np.float64
    b = np.random.default_rng(5).standard_normal(A1.ndof)
    assert solve(A1, b, SolverConfig(rel_tol=1e-11), precond=B1).iterations == 1
    inverse, dead = B1.coarse_inverse, weakref.ref(B1.coarse_inverse)
    B2 = VCycle(stiffness((8, 8, 2), 1), B1)
    assert B2.coarse.dtype == np.float32 and B1.dtype == np.float64
    assert np.array_equal(B2.coarse.coarse_inverse, inverse.astype(np.float32))
    del B1, inverse
    assert dead() is None


def test_one_vcycle_application_allocates_a_fixed_set_of_vectors():
    """One application of the float32 cycle at 16x16x4, k = 2, to a float64
    r peaks at 6.39 float32 vectors of the finest size under tracemalloc:
    during the smoothing, 5 vectors (D^{-1} r, the iterate, two work vectors
    and a scaled product's output), plus the product's gather of 256 cells
    (1.25 vectors here) and the restricted r (1/8).  It was 8.26 while the
    cycle kept its cast of r through the pre-smoothing and every stencil
    product gathered from a ghost-padded copy of its operand, and 9.26
    before the smoother's temporary reused the product's output."""
    A = stiffness((16, 16, 4), 2)
    B = make_preconditioner(A, "multigrid")
    r = np.random.default_rng(6).standard_normal(A.ndof)
    B(r)
    tracemalloc.start()
    try:
        B(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * A.ndof * np.dtype(np.float32).itemsize


def test_one_vcycle_runs_in_two_threads():
    """Work vectors are allocated per call: two threads applying one cycle to
    different vectors get bitwise what serial calls return."""
    A = stiffness((8, 8, 2), 2)
    B = make_preconditioner(A, "multigrid")
    rs = np.random.default_rng(4).standard_normal((2, A.ndof))
    serial = [B(r) for r in rs]
    results = apply_in_two_threads(B, rs, 10)
    for i in range(2):
        assert len(results[i]) == 10
        assert all(np.array_equal(y, serial[i]) for y in results[i])


@pytest.mark.parametrize("epsilon", [-1, 0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [(3, 2, 1), (4, 4, 2)], ids=["3x2x1", "4x4x2"])
def test_scaled_block_jacobi_is_dinv_of_the_product(n, k, epsilon):
    """``scaled(x)`` = D^{-1} (A x) on every element.  4x4x2 holds all 18
    (type, boundary faces) classes; on 3x2x1 some local faces are interior
    nowhere, so the type blocks themselves carry boundary terms."""
    A = assemble_stiffness(build_box_mesh(SLAB, n), DGSpec(k, epsilon), fb.make_basis(k))
    dinv = A.block_jacobi()
    x = np.random.default_rng(k).standard_normal(A.ndof)
    expected = dinv(A @ x)
    assert np.max(np.abs(dinv.scaled(x) - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dense_coarse_matrix_is_the_operator(k):
    for n, epsilon in (((4, 4, 1), -1), ((3, 2, 1), 1)):
        A = assemble_stiffness(build_box_mesh(SLAB, n), DGSpec(k, epsilon), fb.make_basis(k))
        assert np.array_equal(A.dense(), A.matrix.toarray())


def reference_vcycle(level, r):
    """The V-cycle with the smoother written on the residual r_j: the
    fourth-kind Chebyshev recurrence with upper bound rho = 2 (Lottes, NLAA
    2023), D^{-1} by ``dinv`` and each product by ``A @``, the coarsest level
    by a dense solve."""
    if level.coarse is None:
        return np.linalg.solve(level.A.matrix.toarray(), r)
    rho = 2.0

    def smooth(b, x=None):
        r = b if x is None else b - level.A @ x
        d = 4.0 / (3.0 * rho) * level.dinv(r)
        x = d if x is None else x + d
        for j in range(1, multigrid.CHEBYSHEV_DEGREE):
            r = r - level.A @ d
            d = (2 * j - 1) / (2 * j + 3) * d + (8 * j + 4) / ((2 * j + 3) * rho) * level.dinv(r)
            x = x + d
        return x

    x = smooth(r)
    y = reference_vcycle(level.coarse, level.transfer.restrict(r - level.A @ x))
    return smooth(r, x + level.transfer.prolong(y))


@pytest.mark.parametrize("k", [1, 2])
def test_vcycle_matches_the_residual_smoother(k):
    A = stiffness((16, 16, 4), k)
    B = VCycle(A, dtype=np.float64)
    assert len(B.grids) == 3
    r = np.random.default_rng(7).standard_normal(A.ndof)
    expected = reference_vcycle(B, r)
    assert np.linalg.norm(B(r) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [(8, 8, 2), (16, 16, 4)])
def test_multigrid_cg_iterations_bounded(n, k):
    A = stiffness(n, k)
    b = np.random.default_rng(2).standard_normal(A.ndof)
    rel_tol = 1e-11
    config = SolverConfig(rel_tol=rel_tol, preconditioner="multigrid")
    mg = solve(A, b, config)
    bj = solve(A, b, SolverConfig(rel_tol=rel_tol, preconditioner="block_jacobi"))
    assert mg.iterations <= 25
    # the float32 cycle of a solve takes as many iterations as the float64 one
    assert mg.iterations == solve(A, b, config, precond=VCycle(A, dtype=np.float64)).iterations
    assert mg.iterations < bj.iterations
    # both residuals are below rel_tol * |b|; so the solutions differ by at
    # most 2 rel_tol |b| / lambda_min(A) in norm
    diff = A.matrix @ (mg.x - bj.x)
    assert np.linalg.norm(diff) <= 2 * rel_tol * np.linalg.norm(b)


def test_nested_k1_study_iterations_stop_growing():
    """``study_k1`` with a fifth level, 64x64x16 (1.6M DoF), solved as a study
    solves it, each level's CG started from the prolonged last solution: the
    fourth-kind smoother takes 1/7/8/9/9 iterations, equal on the last two
    levels.  The first-kind smoother on [2/8, 2] took 1/13/15/17/19."""
    cfg = load_config(CONFIG_DIR / "study_k1.yaml")
    levels = cfg.levels + ((64, 64, 16),)
    cfg = dataclasses.replace(cfg, levels=levels, columns=())
    iterations = [info["iterations"] for _, _, info, _ in _solve_levels(cfg, levels, None, False)]
    assert len(iterations) == 5 and iterations[-1] == iterations[-2] <= 9, iterations


# BiCGStab iterations of the README table (beta = 1, sigma doubled, random b,
# rel_tol 1e-10) on 8x8x2 and 16x16x4, degree 2 on 8x8x2
NONSYMMETRIC_ITERATIONS = {(1, 0): [5, 6], (1, 1): [5, 6], (2, 0): [7], (2, 1): [7]}


@pytest.mark.parametrize("k, epsilon", list(NONSYMMETRIC_ITERATIONS))
def test_float32_cycle_keeps_the_nonsymmetric_iterations(k, epsilon):
    for n, bound in zip([(8, 8, 2), (16, 16, 4)], NONSYMMETRIC_ITERATIONS[k, epsilon]):
        spec = DGSpec(k=k, epsilon=epsilon, sigma=2 * DGSpec(k).sigma, beta=1.0)
        A = assemble_stiffness(build_box_mesh(SLAB, n), spec, fb.make_basis(k))
        assert not A.symmetric
        b = np.random.default_rng(0).standard_normal(A.ndof)
        res = solve(A, b, SolverConfig(rel_tol=1e-10, preconditioner="multigrid"))
        assert res.iterations <= bound, n
        assert res.residual <= 1e-10 * np.linalg.norm(b)


def test_multigrid_needs_a_stiffness_hierarchy():
    """Operators with no rule to rebuild themselves on a coarser mesh, a Gram
    operator and a plain sparse matrix, are refused."""
    A = stiffness((4, 4, 2), 1)
    gram = assemble_dg_norm_gram(A.mesh, A.discretization[0], 5.0)
    copy = CsrSystem(A.matrix, A.block_size, A.symmetric)
    for system in (gram, copy):
        with pytest.raises(ValueError, match="rebuild itself on a coarser mesh"):
            make_preconditioner(system, "multigrid")


def test_parabolic_operator_rebuilds_itself_on_a_coarser_mesh():
    """M + tau A carries the rule mesh -> M + tau A assembled on that mesh,
    bitwise, and keeps it through a float32 cast."""
    mesh, basis, spec, tau = build_box_mesh(SLAB, (4, 4, 2)), fb.make_basis(2), DGSpec(2), 0.005
    S = assemble_mass(mesh, basis) + tau * assemble_stiffness(mesh, spec, basis)
    coarse = mesh.coarsen()
    expected = assemble_mass(coarse, basis) + tau * assemble_stiffness(coarse, spec, basis)
    for system in (S, S.astype(np.float32)):
        rule_basis, form = system.discretization
        assert rule_basis is basis
        rebuilt = form(coarse)
        assert rebuilt.mesh is coarse and rebuilt.symmetric
        assert np.array_equal(rebuilt.weights, expected.weights)
        assert np.array_equal(rebuilt.corrections, expected.corrections)
        assert rebuilt.discretization is not None


def test_no_solve_reads_the_bsr_matrix(monkeypatch):
    """Smoothing, residuals and the dense coarse solve all use the stencil;
    no level reads ``SparseSystem.matrix``."""
    built = []
    build = SparseSystem.matrix.func

    def recording(system):
        built.append(system.n_blocks)
        return build(system)

    monkeypatch.setattr(SparseSystem, "matrix", property(recording))
    A = stiffness((8, 8, 2), 1)
    b = np.random.default_rng(3).standard_normal(A.ndof)
    for preconditioner in ("multigrid", "block_jacobi"):
        res = solve(A, b, SolverConfig(rel_tol=1e-10, preconditioner=preconditioner))
        assert res.residual <= 1e-10 * np.linalg.norm(b)
    assert built == []


def test_multigrid_refuses_large_coarsest_grid(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("the dense coarse matrix must not be built")

    monkeypatch.setattr(SparseSystem, "dense", no_dense)
    A = stiffness((13, 13, 3), 1)
    with pytest.raises(ValueError, match=r"\(13, 13, 3\)"):
        make_preconditioner(A, "multigrid")


def test_coarse_dof_cap_admits_the_shipped_hierarchies():
    """Every degree coarsens the shipped 32x32x8 grid to 4x4x1, whose matrix
    is inverted at degree 1 (384 DoF); at degrees 2 and 3 (960 and 1,920 DoF,
    above the cap) its piecewise constants are (96).  A coarsest grid one cell
    wider passes at degree 3 by its constants too; 13x13x3 does not (3,042)."""
    assert level_grids((32, 32, 8))[-1] == (4, 4, 1)
    for k, dof in ((1, 384), (2, 96), (3, 96)):
        assert levels(VCycle(stiffness((4, 4, 1), k)))[-1].coarse_inverse.shape == (dof, dof)
    assert level_grids((5, 4, 1)) == [(5, 4, 1)]
    B = make_preconditioner(stiffness((5, 4, 1), 3), "multigrid")
    assert B.A.ndof == 2400 and B.coarse.coarse_inverse.shape == (120, 120)
    with pytest.raises(ValueError, match=r"\(13, 13, 3\) \(3042 DoF at degree 0\)"):
        level_grids((13, 13, 3))


@pytest.mark.parametrize("operator", ["stiffness", "heat"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [(4, 4, 1), (5, 4, 2)], ids=["4x4x1", "5x4x2"])
def test_constants_level_is_the_galerkin_product(n, k, operator):
    """The k = 0 level is P^T A P, P the constants of the nodal basis, for the
    stiffness and for M + tau A; 5x4x2 does not coarsen, so its V-cycle takes it."""
    mesh, basis = build_box_mesh(SLAB, n), fb.make_basis(k)
    A = assemble_stiffness(mesh, DGSpec(k), basis)
    if operator == "heat":
        A = assemble_mass(mesh, basis) + 0.01 * A
    constants = multigrid.Constants(basis.dim).galerkin(A)
    assert constants.block_size == 1 and constants.mesh is mesh
    assert constants.symmetric and constants.discretization is None
    P = np.kron(np.eye(A.n_blocks), np.ones((basis.dim, 1)))  # a column of ones per element
    expected = P.T @ A.dense() @ P
    assert np.max(np.abs(constants.dense() - expected)) <= 1e-12 * np.max(np.abs(expected))
    if n == (5, 4, 2):
        bottom = levels(VCycle(A, dtype=np.float64))[-1]
        assert np.max(np.abs(bottom.A.dense() - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_constants_restriction_is_the_transpose_of_prolongation():
    transfer, ne = multigrid.Constants(10), 24
    P = np.column_stack([transfer.prolong(e) for e in np.eye(ne)])
    R = np.column_stack([transfer.restrict(e) for e in np.eye(10 * ne)])
    assert np.array_equal(P, np.kron(np.eye(ne), np.ones((10, 1))))
    assert np.array_equal(R, P.T)
    x = np.arange(10 * ne, dtype=np.float32)
    assert transfer.restrict(x).dtype == transfer.prolong(x[:ne]).dtype == np.float32


def test_parabolic_operator_above_the_cap_converges_over_its_constants():
    """M + tau A at k = 2 on 8x8x2 coarsens to 4x4x1, whose 960 DoF exceed
    the cap: the V-cycle's bottom is its constants, and CG converges in 12
    iterations (block-Jacobi: 87)."""
    mesh, basis = build_box_mesh(SLAB, (8, 8, 2)), fb.make_basis(2)
    S = assemble_mass(mesh, basis) + 0.005 * assemble_stiffness(mesh, DGSpec(2), basis)
    B = make_preconditioner(S, "multigrid")
    assert [level.A.block_size for level in levels(B)] == [10, 10, 1]
    b = np.random.default_rng(8).standard_normal(S.ndof)
    res = solve(S, b, SolverConfig(rel_tol=1e-10), precond=B)
    assert res.residual <= 1e-10 * np.linalg.norm(b) and res.iterations <= 14


def test_hierarchy_freed_when_solve_returns(monkeypatch):
    refs = []

    class Recording(VCycle):
        def __init__(self, system, coarse=None, dtype=None):
            super().__init__(system, coarse, dtype)
            if self.coarse is not None:  # the finest level; the coarsest has no dinv
                refs.append(weakref.ref(self.dinv))

    monkeypatch.setattr(multigrid, "VCycle", Recording)
    A = stiffness((8, 8, 2), 1)
    b = np.ones(A.ndof)
    gc.disable()
    try:
        solve(A, b, SolverConfig(preconditioner="multigrid"))
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()
