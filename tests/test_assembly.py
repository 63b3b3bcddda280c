import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from linedg import assembly
from linedg import basis as fb
from linedg.assembly import (
    DGSpec,
    _blocked_system,
    _face_term_blocks,
    _face_traces,
    _volume_grad_gram,
    assemble_dg_norm_gram,
    assemble_dirichlet_rhs,
    assemble_mass,
    assemble_stiffness,
    assemble_volume_rhs,
    reference_mass,
)
from linedg.fields import FieldFunction
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.norms import dg_energy_error
from linedg.solver import SolverConfig, solve

from csr_system import CsrSystem
from two_threads import apply_in_two_threads

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def test_spec_validation():
    with pytest.raises(ValueError):
        DGSpec(k=1, epsilon=2)
    with pytest.raises(ValueError):
        DGSpec(k=1, epsilon=-1, sigma=0.5)
    with pytest.raises(ValueError):
        DGSpec(k=1, epsilon=-1, beta=2.0)
    DGSpec(k=1, epsilon=1, sigma=4.0, beta=2.0)
    assert DGSpec(2).sigma == 12.0


def test_omitted_sigma_and_beta_are_the_defaults():
    """An omitted sigma is 5 at k = 1 and 12 + 6 (k - 2) above, and an omitted
    beta is 1 for the symmetric variant and 2 for the others: the field
    defaults once gave sigma 5 at every degree, an indefinite symmetric
    stiffness for k >= 2, and beta 1 for the nonsymmetric variants."""
    for k, sigma in ((1, 5.0), (2, 12.0), (3, 18.0), (4, 24.0)):
        for epsilon, beta in ((-1, 1.0), (0, 2.0), (1, 2.0)):
            spec = DGSpec(k=k, epsilon=epsilon)
            assert (spec.sigma, spec.beta) == (sigma, beta)


def test_symmetry_at_minus_one():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    A = assemble_stiffness(mesh, DGSpec(1), basis).matrix
    diff = abs(A - A.T).max()
    assert diff < 1e-12 * abs(A).max()


def test_nonsymmetric_variants_assemble():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    for eps in (0, 1):
        A = assemble_stiffness(mesh, DGSpec(1, epsilon=eps), basis).matrix
        assert abs(A - A.T).max() > 1e-8  # genuinely nonsymmetric


def test_positive_diagonal():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    for k in (1, 2):
        sys_ = assemble_stiffness(mesh, DGSpec(k), fb.make_basis(k))
        assert np.all(sys_.matrix.diagonal() > 0)


def test_constant_vector_rows():
    """A applied to the global constant acts only near the boundary."""
    mesh = build_box_mesh(SLAB, (4, 4, 2))
    basis = fb.make_basis(1)
    A = assemble_stiffness(mesh, DGSpec(1), basis).matrix
    ones = np.ones(A.shape[0])
    r = (A @ ones).reshape(mesh.n_elements, basis.dim)
    touches = np.zeros(mesh.n_elements, dtype=bool)
    touches[mesh.faces(False)[0]] = True
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
        energy = dg_energy_error(field, 0, sigma=spec.sigma) ** 2
        assert w @ (A @ w) >= 0.5 * energy - 1e-10 * energy


def coercivity_threshold(mesh, k):
    """sigma*, the smallest sigma at which the symmetric stiffness is positive
    definite, to within the bracket left by 20 bisections on a Cholesky
    of A(sigma) = A0 + sigma P, split from the assemblies at sigma 2 and the
    default.  P holds the jump penalty, so definiteness grows with sigma."""
    basis, default = fb.make_basis(k), DGSpec(k)
    A2 = assemble_stiffness(mesh, DGSpec(k=k, sigma=2.0), basis).dense()
    P = (assemble_stiffness(mesh, default, basis).dense() - A2) / (default.sigma - 2.0)
    A0 = A2 - 2.0 * P

    def definite(sigma):
        try:
            np.linalg.cholesky(A0 + sigma * P)
        except np.linalg.LinAlgError:
            return False
        return True

    lo, hi = 0.0, default.sigma
    assert definite(hi) and not definite(lo)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if definite(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("k", [1, 2, 3])
def test_default_penalty_clears_the_coercivity_threshold(k):
    """DGSpec(k) keeps sigma at least 1.2 sigma* on the slab grids one
    cell thick, where the margin is smallest."""
    for n in ((2, 2, 1), (4, 4, 1)):
        assert DGSpec(k).sigma >= 1.2 * coercivity_threshold(build_box_mesh(SLAB, n), k)


def test_penalty_scaling_isolated():
    """Doubling sigma changes exactly the jump-penalty part."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    A1 = assemble_stiffness(mesh, DGSpec(k=1, sigma=5.0), basis).matrix
    A2 = assemble_stiffness(mesh, DGSpec(k=1, sigma=10.0), basis).matrix
    P = _blocked_system(mesh, basis, face_form=(0.0, 0.0, 5.0 / mesh.grid_spacing)).matrix
    assert abs((A2 - A1) - P).max() < 1e-12 * abs(A1).max()


@pytest.mark.parametrize("k", [1, 2])
def test_operators_are_element_blocked_bsr(k):
    """Each block row holds its diagonal block and one block per interior face."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(k)
    systems = [assemble_stiffness(mesh, DGSpec(k, eps), basis) for eps in (-1, 0, 1)]
    systems += [
        _blocked_system(mesh, basis, face_form=(0.0, 0.0, 1.0)),
        assemble_dg_norm_gram(mesh, basis, 12.0),
        assemble_mass(mesh, basis),
    ]
    columns = [[e] for e in range(mesh.n_elements)]
    e, f = mesh.faces(True)
    for e0, e1 in zip(e, mesh.neighbours[e, 1 + f]):
        columns[e0].append(e1)
        columns[e1].append(e0)
    for system in systems:
        A = system.matrix
        assert isinstance(A, sp.bsr_matrix)
        assert A.blocksize == (basis.dim, basis.dim)
        assert A.has_canonical_format
        for e, cols in enumerate(columns):
            assert A.indices[A.indptr[e] : A.indptr[e + 1]].tolist() == sorted(cols)


def test_mass_matrix_closed_form():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    M = assemble_mass(mesh, basis)
    ones = np.ones(M.ndof)
    assert abs(ones @ (M.matrix @ ones) - SLAB.volume) < 1e-12
    # first element block against the classical P1 tet mass matrix
    vol = mesh.type_det_jacobians[0] / 6.0
    block = M.matrix.tocsr()[:4, :4].toarray()
    expected = (vol / 20.0) * (np.ones((4, 4)) + np.eye(4))
    assert np.allclose(block, expected, atol=1e-14)


def test_mass_blocks_spd():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    M = assemble_mass(mesh, basis)
    for e in range(0, mesh.n_elements, 7):
        block = M.matrix.tocsr()[e * 10 : (e + 1) * 10, e * 10 : (e + 1) * 10].toarray()
        np.linalg.cholesky(block)  # raises if not SPD


def test_dirichlet_zero_data():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    r = assemble_dirichlet_rhs(mesh, DGSpec(1), basis, 0.0)
    assert np.all(r == 0)


def test_dirichlet_lift_in_blocks_of_faces(monkeypatch):
    """The Nitsche lift is evaluated a block of boundary faces at a time: in
    blocks of 2 faces it is bitwise the lift in one block, and its temporaries
    do not grow with the number of boundary faces."""
    basis, spec = fb.make_basis(2), DGSpec(2)
    g = lambda p: np.log(1.0 + p[:, 0] + 2.0 * p[:, 1] * p[:, 2])
    mesh = build_box_mesh(SLAB, (4, 4, 2))
    monkeypatch.setattr(assembly, "_BLOCK", 2 * fb.tri_quadrature(6).n * basis.dim)
    small = assemble_dirichlet_rhs(mesh, spec, basis, g)
    monkeypatch.setattr(assembly, "_BLOCK", 10 ** 9)
    assert np.array_equal(small, assemble_dirichlet_rhs(mesh, spec, basis, g))
    monkeypatch.undo()

    extra = []
    for n in [(16, 16, 4), (32, 32, 8)]:  # 1,536 and 6,144 boundary faces
        mesh = build_box_mesh(SLAB, n)
        assemble_dirichlet_rhs(mesh, spec, basis, g)  # the mesh's cached tables
        tracemalloc.start()
        try:
            b = assemble_dirichlet_rhs(mesh, spec, basis, g)
            extra.append(tracemalloc.get_traced_memory()[1] - b.nbytes)
        finally:
            tracemalloc.stop()
    assert extra[1] <= 1.25 * extra[0], extra


def test_constant_solution_exact():
    """g = 1, f = 0 reproduces the constant one."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
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
    res = solve(system, rhs, SolverConfig(rel_tol=1e-13))
    uh = FieldFunction.from_vector(mesh, basis, res.x)

    exact.gradient = grad
    err = dg_energy_error(uh, exact, sigma=spec.sigma)
    assert err < 1e-8


def test_dg_norm_gram_matches_quadrature_norm():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    G = assemble_dg_norm_gram(mesh, basis, sigma=12.0)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(G.ndof)
    field = FieldFunction.from_vector(mesh, basis, v)
    assert abs(np.sqrt(v @ (G.matrix @ v)) - dg_energy_error(field, 0, sigma=12.0)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_traces_match_pointwise_evaluation(k):
    """Reference-table traces equal the basis mapped back from each face point."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(k)
    for boundary in (False, True):
        elements, local = mesh.faces(not boundary)
        normals = mesh.face_normals[4 * (elements % 6) + local]
        start = 0
        for x, w, sides in _face_traces(mesh, basis, fb.tri_quadrature(2 * k + 2), elements, local):
            assert len(sides) == (1 if boundary else 2)
            for elems, V, Gn in sides:
                for f, e in enumerate(elems):
                    ref = (x[f] - mesh.vertices[mesh.tets(e)[0]]) @ mesh.type_jac_invs[e % 6].T
                    grads = basis.grad(ref) @ mesh.type_jac_invs[e % 6]
                    assert np.allclose(V[f], basis.eval(ref), rtol=0, atol=1e-12)
                    assert np.allclose(Gn[f], grads @ normals[start + f], rtol=0, atol=1e-12)
            start += len(x)
        assert start == len(elements)


def _full_mesh_reference(mesh, basis, volume, face_form):
    """(indptr, indices, data) of a form scattered directly on every face of the
    mesh, evaluated a block of ``_BLOCK // (q nb)`` faces (one ``_face_traces``
    block of the q-point rule of ``_face_term_blocks``) at a time."""
    (e0, f0), (be, bf) = mesh.faces(True), mesh.faces(False)
    ne, nf, nb = mesh.n_elements, e0.size, basis.dim
    step = assembly._BLOCK // (fb.tri_quadrature(2 * basis.degree + 1).n * nb)
    e, e1 = np.arange(ne), mesh.neighbours[e0, 1 + f0]
    rows, cols = np.concatenate([e, e0, e1]), np.concatenate([e, e1, e0])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    data = np.zeros((order.size, nb, nb))
    if volume is not None:
        data[slot[:ne]] = volume
    if face_form is not None:
        for boundary, sides, local in ((False, (e0, e1), f0), (True, [be], bf)):
            for at in (slice(s, s + step) for s in range(0, local.size, step)):
                blocks = _face_term_blocks(mesh, basis, face_form, sides[0][at], local[at])
                for b, eb in enumerate(sides):
                    np.add.at(data, slot[eb[at]], blocks[b][b])
                    if not boundary:
                        data[slot[ne + b * nf : ne + (b + 1) * nf][at]] = blocks[b][1 - b]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ne))])
    return indptr, cols[order], data


BOX_GRIDS = [
    (SLAB, (1, 1, 1)),
    (SLAB, (2, 3, 1)),
    (BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1]), (3, 3, 3)),
    (SLAB, (4, 4, 1)),
    (BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.3]), (8, 6, 3)),
    (BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.5]), (5, 7, 2)),
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain,n", BOX_GRIDS)
def test_replica_gather_matches_full_mesh_scatter(domain, n, k):
    """Every operator, assembled from one face per (Kuhn type, local face),
    equals the form scattered directly on every face of the mesh."""
    mesh = build_box_mesh(domain, n)
    basis = fb.make_basis(k)
    h, types = mesh.grid_spacing, np.arange(mesh.n_elements) % 6
    grad = _volume_grad_gram(mesh, basis)[types]
    cases = []
    for eps in (-1, 0, 1):
        spec = DGSpec(k, eps)
        penalty = spec.sigma / h ** spec.beta
        cases.append((assemble_stiffness(mesh, spec, basis), grad, (1.0, eps, penalty)))
    mass = reference_mass(basis)[None] * mesh.type_det_jacobians[types, None, None]
    cases.append((assemble_mass(mesh, basis), mass, None))
    cases.append((_blocked_system(mesh, basis, face_form=(0.0, 0.0, 3.0)), None, (0.0, 0.0, 3.0)))
    cases.append((assemble_dg_norm_gram(mesh, basis, 7.0), grad, (0.0, 0.0, 7.0 / h)))
    for system, volume, face_form in cases:
        A = system.matrix
        indptr, indices, data = _full_mesh_reference(mesh, basis, volume, face_form)
        assert np.array_equal(A.indptr, indptr)
        assert np.array_equal(A.indices, indices)
        assert np.abs(A.data - data).max() <= 1e-12 * np.abs(data).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain,n", BOX_GRIDS)
def test_stencil_apply_matches_full_mesh_scatter(domain, n, k):
    """``system @ x`` and the block-Jacobi apply equal the product with, and the
    diagonal block solves of, the directly scattered matrix; M + tau A and
    the jump penalty alone too."""
    mesh = build_box_mesh(domain, n)
    basis = fb.make_basis(k)
    ne, nb, h = mesh.n_elements, basis.dim, mesh.grid_spacing
    types = np.arange(ne) % 6
    grad = _volume_grad_gram(mesh, basis)[types]
    mass = reference_mass(basis)[None] * mesh.type_det_jacobians[types, None, None]
    indptr, indices, data_m = _full_mesh_reference(mesh, basis, mass, None)
    cases = [(assemble_mass(mesh, basis), data_m)]
    gram = _full_mesh_reference(mesh, basis, grad, (0.0, 0.0, 7.0 / h))[2]
    cases.append((assemble_dg_norm_gram(mesh, basis, 7.0), gram))
    for eps in (-1, 0, 1):
        spec = DGSpec(k, eps)
        face_form = (1.0, eps, spec.sigma / h ** spec.beta)
        data = _full_mesh_reference(mesh, basis, grad, face_form)[2]
        cases.append((assemble_stiffness(mesh, spec, basis), data))
    tau = 0.01
    cases.append((assemble_stiffness(mesh, DGSpec(k), basis, tau), data_m + tau * cases[2][1]))
    jumps = _full_mesh_reference(mesh, basis, None, (0.0, 0.0, 3.0))[2]
    cases.append((_blocked_system(mesh, basis, face_form=(0.0, 0.0, 3.0)), jumps))
    on_diagonal = indices == np.repeat(np.arange(ne), np.diff(indptr))
    rng = np.random.default_rng(k)
    for system, data in cases:
        x = rng.standard_normal(system.ndof)
        y = sp.bsr_matrix((data, indices, indptr), shape=(ne * nb,) * 2) @ x
        assert np.abs(system @ x - y).max() <= 1e-12 * np.abs(y).max()
        z = np.linalg.solve(data[on_diagonal], x.reshape(ne, nb, 1)).ravel()
        assert np.abs(system.block_jacobi()(x) - z).max() <= 1e-10 * np.abs(z).max()


CHUNKED_GRID = (BoxDomain(lo=[0, 0, 0], hi=[1, 0.8, 0.6]), (9, 7, 5))


def _assert_products_match_scatter(mesh, k, seed):
    """``@``, block-Jacobi and ``scaled`` of the stiffness equal the product
    with, the diagonal block solves of, and D^{-1} times the product with the
    directly scattered matrix, in float64 to 1e-12 and in float32 to float32
    rounding."""
    ne = mesh.n_elements
    basis = fb.make_basis(k)
    nb, h, spec = basis.dim, mesh.grid_spacing, DGSpec(k)
    grad = _volume_grad_gram(mesh, basis)[np.arange(ne) % 6]
    face_form = (1.0, spec.epsilon, spec.sigma / h ** spec.beta)
    indptr, indices, data = _full_mesh_reference(mesh, basis, grad, face_form)
    matrix = sp.bsr_matrix((data, indices, indptr), shape=(ne * nb,) * 2)
    diagonal = data[indices == np.repeat(np.arange(ne), np.diff(indptr))]
    A = assemble_stiffness(mesh, spec, basis)
    x = np.random.default_rng(seed).standard_normal(A.ndof)
    y = matrix @ x
    expected = (y, np.linalg.solve(diagonal, x.reshape(ne, nb, 1)).ravel(),
                np.linalg.solve(diagonal, y.reshape(ne, nb, 1)).ravel())
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 10 * np.finfo(np.float32).eps)):
        system, xd = A.astype(dtype), x.astype(dtype)
        dinv = system.block_jacobi()
        for got, ref in zip((system @ xd, dinv(xd), dinv.scaled(xd)), expected):
            assert got.dtype == dtype
            assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunked_stencil_matches_full_mesh_scatter(k):
    """On 9x7x5 (315 cells: one full chunk of ``STENCIL_CHUNK`` cells and a
    partial one) ``@``, block-Jacobi and ``scaled`` equal the directly
    scattered matrix (``_assert_products_match_scatter``)."""
    mesh = build_box_mesh(*CHUNKED_GRID)
    assert 6 * assembly.STENCIL_CHUNK < mesh.n_elements < 12 * assembly.STENCIL_CHUNK
    _assert_products_match_scatter(mesh, k, k)


@pytest.mark.parametrize("n", [(1, 1, 1), (16, 16, 4)], ids=["1x1x1", "16x16x4"])
def test_paged_corrections_match_full_mesh_scatter(n):
    """The boundary corrections of ``@``, block-Jacobi and ``scaled``, batched
    over the mesh's boundary pages, equal the directly scattered matrix
    (``_assert_products_match_scatter``) on 1x1x1, where every element is on
    the boundary and every page is padded, and on 16x16x4, where the largest
    ghost class (240 elements) fills several pages and the pages hold more
    rows than one stencil chunk, so they are applied in two groups."""
    mesh = build_box_mesh(SLAB, n)
    pages = mesh.boundary_pages
    if n == (16, 16, 4):
        assert np.bincount(mesh.page_classes).max() == 240 // pages.shape[1] + 1
        assert 6 * assembly.STENCIL_CHUNK < pages.size < 12 * assembly.STENCIL_CHUNK
    else:
        assert np.all(pages[:, -1] == mesh.n_elements)
    _assert_products_match_scatter(mesh, 1, 7)


def test_block_diagonal_product_gathers_no_neighbourhood():
    """An operator whose neighbour blocks and corrections are all zero, read off
    its blocks, applies as one per-type block product: at 16x16x4, k=2, the
    mass (and M + 0 A) allocates its result and no neighbourhood gather, and
    equals the stencil product; M + tau A and the Gram operator stay
    stencil products."""
    mesh, basis = build_box_mesh(SLAB, (16, 16, 4)), fb.make_basis(2)
    M = assemble_mass(mesh, basis)
    x = np.random.default_rng(0).standard_normal(M.ndof)
    stencil = M._stencil(M.weights, x.reshape(mesh.n_elements, -1))[:mesh.n_elements].ravel()
    for system in (M, assemble_stiffness(mesh, DGSpec(2), basis, tau=0.0)):
        assert system._block_diagonal
        assert np.abs(system @ x - stencil).max() <= 1e-14 * np.abs(stencil).max()
        system @ x
        tracemalloc.start()
        try:
            system @ x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.nbytes
    assert not assemble_stiffness(mesh, DGSpec(2), basis, tau=0.01)._block_diagonal
    assert not assemble_dg_norm_gram(mesh, basis, 7.0)._block_diagonal


def test_stencil_apply_runs_in_two_threads():
    """Buffers are allocated per call: two threads applying one operator across
    chunk boundaries to different vectors get bitwise what serial calls return."""
    mesh = build_box_mesh(*CHUNKED_GRID)
    A = assemble_stiffness(mesh, DGSpec(2), fb.make_basis(2))
    xs = np.random.default_rng(5).standard_normal((2, A.ndof))
    serial = [A @ x for x in xs]
    results = apply_in_two_threads(A.__matmul__, xs, 20)
    for i in range(2):
        assert len(results[i]) == 20
        assert all(np.array_equal(y, serial[i]) for y in results[i])


@pytest.mark.parametrize("epsilon", [-1, 0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [(3, 2, 1), (2, 3, 2), (2, 2, 3)], ids=["3x2x1", "2x3x2", "2x2x3"])
def test_clipped_gather_matches_the_matrix_with_a_large_last_row(n, k, epsilon):
    """``@``, block-Jacobi and ``scaled`` gather their operand unpadded, the
    ghost index clipped to row ne - 1, and subtract that row's share from every
    element with a boundary face.  With row ne - 1 of x at 1e6, any share left
    over would dwarf the other rows: all three match the BSR matrix (through
    ``CsrSystem``) to 1e-12 relative in float64, and to float32 rounding for
    the operator cast to float32, on grids 1, 2 and 3 cells thick."""
    A = assemble_stiffness(build_box_mesh(SLAB, n), DGSpec(k, epsilon), fb.make_basis(k))
    ne, nb = A.n_blocks, A.block_size
    csr = CsrSystem(A.matrix, nb, A.symmetric)
    x = np.random.default_rng(k).standard_normal((ne, nb))
    x[ne - 1] = 1e6
    x = x.ravel()
    expected = (csr @ x, csr.block_jacobi()(x), csr.block_jacobi()(csr @ x))
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 10 * np.finfo(np.float32).eps)):
        system, xd = A.astype(dtype), x.astype(dtype)
        dinv = system.block_jacobi()
        for got, ref in zip((system @ xd, dinv(xd), dinv.scaled(xd)), expected):
            assert got.dtype == dtype
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def test_stencil_apply_allocates_a_chunk_not_the_mesh():
    """At 16x16x4, k=2, ``A @ x`` allocates at most 3 ndof vectors: the
    product and one chunk's neighbourhood gather (1.25 vectors here, a fixed
    size on any finer mesh), 2.25 measured, where the whole-mesh gather alone
    took 5 and the gather from a ghost-padded copy of x 3.25."""
    A = assemble_stiffness(build_box_mesh(SLAB, (16, 16, 4)), DGSpec(2), fb.make_basis(2))
    x = np.random.default_rng(0).standard_normal(A.ndof)
    A @ x
    tracemalloc.start()
    try:
        A @ x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.nbytes


def test_operators_store_blocks_per_type_and_per_class_only():
    """Stiffness, mass and Gram operators on 4x4x2 and 8x8x4 hold arrays of the
    same shapes, apart from the mesh's neighbour table and boundary elements,
    which every operator shares with the mesh: one correction per ghost class."""
    basis = fb.make_basis(2)
    shapes = []
    for n in ((4, 4, 2), (8, 8, 4)):
        mesh = build_box_mesh(SLAB, n)
        A = assemble_stiffness(mesh, DGSpec(2), basis)
        M, G = assemble_mass(mesh, basis), assemble_dg_norm_gram(mesh, basis, 7.0)
        assert A.mesh is M.mesh is G.mesh is mesh
        assert A.corrections.shape == (18, basis.dim, basis.dim)
        shapes.append([{name: np.shape(value) for name, value in vars(S).items()
                        if isinstance(value, np.ndarray)} for S in (A, M, G)])
    assert shapes[0] == shapes[1]
    assert set(shapes[0][0]) == {"weights", "corrections"}


@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [(4, 4, 2), (8, 8, 2)], ids=["4x4x2", "8x8x2"])
def test_backward_euler_operator_is_assembled(n, k, epsilon):
    """Given tau, ``assemble_stiffness`` returns M + tau A: the mass weights
    plus tau times the stiffness weights, and tau times its corrections,
    symmetric exactly when A is (epsilon = -1); its rule rebuilds the same
    arrays on the coarsened mesh."""
    mesh, basis, spec, tau = build_box_mesh(SLAB, n), fb.make_basis(k), DGSpec(k, epsilon), 0.01
    coarse = mesh.coarsen()
    systems = []
    for m in (mesh, coarse):
        A = assemble_stiffness(m, spec, basis)
        S = assemble_stiffness(m, spec, basis, tau)
        assert S.mesh is m and S.symmetric == A.symmetric == (epsilon == -1)
        assert np.array_equal(S.weights, assemble_mass(m, basis).weights + tau * A.weights)
        assert np.array_equal(S.corrections, tau * A.corrections)
        systems.append(S)
    rule_basis, form = systems[0].discretization
    rebuilt = form(coarse)
    assert rule_basis is basis and rebuilt.mesh is coarse
    assert rebuilt.symmetric == systems[1].symmetric
    assert np.array_equal(rebuilt.weights, systems[1].weights)
    assert np.array_equal(rebuilt.corrections, systems[1].corrections)


@pytest.mark.parametrize("k", [1, 2])
def test_astype_keeps_the_operator_and_computes_in_its_dtype(k):
    """A float32 copy keeps mesh, symmetry and discretization; its product and
    block-Jacobi (inverted in float64, stored in float32) return float32 and
    agree with the float64 ones to float32 rounding."""
    A = assemble_stiffness(build_box_mesh(SLAB, (4, 4, 2)), DGSpec(k), fb.make_basis(k))
    A32 = A.astype(np.float32)
    assert A32.mesh is A.mesh and A32.symmetric and A32.discretization is A.discretization
    assert A32.weights.dtype == A32.corrections.dtype == np.float32
    dinv, dinv32 = A.block_jacobi(), A32.block_jacobi()
    x = np.random.default_rng(k).standard_normal(A.ndof)
    tol = 10 * np.finfo(np.float32).eps
    for got, expected in ((A32 @ x.astype(np.float32), A @ x),
                          (dinv32(x.astype(np.float32)), dinv(x)),
                          (dinv32.scaled(x.astype(np.float32)), dinv.scaled(x))):
        assert got.dtype == np.float32
        assert np.linalg.norm(got - expected) <= tol * np.linalg.norm(expected)


def test_stiffness_evaluates_few_faces(monkeypatch):
    """On 8x6x3 the stiffness evaluates its face form on a few faces per
    (Kuhn type, local face) pair, of which there are 24: at most 48 of the
    mesh's 1,548 interior faces and 24 of its 360 boundary faces."""
    counts = {False: 0, True: 0}
    traces = assembly._face_traces

    def counting(mesh, basis, rule, elements, local):
        for out in traces(mesh, basis, rule, elements, local):
            counts[len(out[2]) == 1] += len(out[1])
            yield out

    monkeypatch.setattr(assembly, "_face_traces", counting)
    mesh = build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.3]), (8, 6, 3))
    assemble_stiffness(mesh, DGSpec(2), fb.make_basis(2))
    assert 0 < counts[False] <= 48
    assert 0 < counts[True] <= 24


def test_stiffness_allocation_peak_near_matrix_size():
    """Assembly allocates at most 1.25x the bytes of the matrix it returns."""
    mesh = build_box_mesh(SLAB, (16, 16, 4))
    basis = fb.make_basis(2)
    spec = DGSpec(2)
    tracemalloc.start()
    try:
        A = assemble_stiffness(mesh, spec, basis).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_stiffness_allocates_a_small_fraction_of_its_matrix():
    """The stencil assembly allocates under a tenth of the BSR matrix it stands for."""
    mesh = build_box_mesh(SLAB, (16, 16, 4))
    basis = fb.make_basis(2)
    bsr_bytes = (mesh.n_elements + 2 * mesh.faces(True)[0].size) * basis.dim ** 2 * 8
    tracemalloc.start()
    try:
        assemble_stiffness(mesh, DGSpec(2), basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * bsr_bytes
