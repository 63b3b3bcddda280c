import tracemalloc

import numpy as np
import pytest

import linedg.assembly
import linedg.curve
import linedg.norms
import unpruned_norms as ref
from linedg import basis as fb
from linedg.assembly import DGSpec, assemble_dirichlet_rhs, assemble_stiffness
from linedg.curve import Curve, assemble_line_rhs, compute_fh_field, distance_to_curve
from linedg.fields import FieldFunction, interpolate
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.norms import (
    _guard_points,
    _volume_sq,
    convergence_rates,
    dg_energy_error,
    l2_error,
    weighted_dg_norm,
    weighted_l2_norm,
)
from linedg.problems import LogLineSolution
from linedg.solver import SolverConfig, solve

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])
C1 = BoxDomain(lo=[0.25, 0.5, 0.0], hi=[0.5, 0.75, 0.25])
C2 = BoxDomain(lo=[0.0, 0.75, 0.0], hi=[0.25, 1.0, 0.25])


def vertical_line():
    return Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])


def solve_reference_problem(n, k, sigma=None, rel_tol=1e-11):
    mesh = build_box_mesh(SLAB, n)
    basis = fb.make_basis(k)
    spec = DGSpec(k) if sigma is None else DGSpec(k=k, sigma=sigma)
    curve = vertical_line()
    exact = LogLineSolution(curve, SLAB)
    system = assemble_stiffness(mesh, spec, basis)
    rhs = assemble_line_rhs(curve, 1.0, mesh, basis)
    rhs += assemble_dirichlet_rhs(mesh, spec, basis, exact)
    res = solve(system, rhs, SolverConfig(rel_tol=rel_tol))
    return mesh, basis, spec, curve, exact, FieldFunction.from_vector(mesh, basis, res.x)


def test_interpolant_error_is_zero():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    for k in (1, 2):
        basis = fb.make_basis(k)
        poly = lambda p: (1 + p[:, 0] + 2 * p[:, 1] - p[:, 2]) ** 1
        field = interpolate(poly, mesh, basis)
        assert l2_error(field, poly) < 1e-12


def test_continuous_field_has_no_jump_energy():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(2)
    poly = lambda p: p[:, 0] ** 2 - p[:, 1] + p[:, 2] * p[:, 0]
    grad = lambda p: np.column_stack([2 * p[:, 0] + p[:, 2], -np.ones(len(p)), p[:, 0]])
    poly.gradient = grad
    field = interpolate(poly, mesh, basis)
    # against its own exact data the energy error vanishes
    assert dg_energy_error(field, poly, sigma=12.0) < 1e-11
    # zero field, zero exact
    zero = FieldFunction(mesh, basis, np.zeros((mesh.n_elements, basis.dim)))
    assert dg_energy_error(zero, 0, sigma=12.0) == 0.0


def test_region_monotonicity():
    mesh, basis, spec, curve, exact, uh = solve_reference_problem((8, 8, 2), 1)
    inner = l2_error(uh, exact, region=C1)
    total = l2_error(uh, exact)
    assert inner <= total


def test_triangle_inequality_for_norms():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    rng = np.random.default_rng(12)
    a = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * 4))
    b = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * 4))
    curve = vertical_line()
    for norm in (
        lambda f: l2_error(f, 0.0),
        lambda f: dg_energy_error(f, 0, sigma=5.0),
        lambda f: weighted_l2_norm(f, curve, 0.5),
        lambda f: weighted_dg_norm(f, curve, 0.7, sigma=5.0),
    ):
        a_plus_b = FieldFunction(mesh, basis, a.coeffs + b.coeffs)
        assert norm(a_plus_b) <= norm(a) + norm(b) + 1e-10


def test_weighted_norm_alpha_zero_matches_plain():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    rng = np.random.default_rng(3)
    f = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * 4))
    assert abs(weighted_l2_norm(f, vertical_line(), 0.0) - l2_error(f, 0.0)) < 1e-12


def test_weighted_dg_norm_small_alpha_matches_plain():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    rng = np.random.default_rng(4)
    f = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * basis.dim))
    plain = dg_energy_error(f, 0, sigma=12.0)
    assert abs(weighted_dg_norm(f, vertical_line(), 1e-6, sigma=12.0) - plain) <= 1e-5 * plain


def test_norms_vanish_on_box_without_element_centroids():
    """A box on a mesh plane, thinner than the alignment tolerance, holds no element."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    rng = np.random.default_rng(8)
    f = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * 4))
    thin = BoxDomain(lo=[0.25, 0.0, 0.0], hi=[0.25 + 1e-12, 1.0, 0.25])
    exact = lambda p: 1.0 + p[:, 0]
    exact.gradient = lambda p: np.tile([1.0, 0.0, 0.0], (len(p), 1))
    assert l2_error(f, exact, region=thin) == 0.0
    assert dg_energy_error(f, exact, sigma=5.0, region=thin) == 0.0
    assert l2_error(f, exact, region=C1) > 0.0


def test_weighted_norm_monte_carlo_oracle():
    """||1||^2 in the weighted norm is the integral of d^(2 alpha)."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    one = interpolate(lambda p: np.ones(len(p)), mesh, basis)
    curve = vertical_line()
    alpha = 0.6
    val = weighted_l2_norm(one, curve, alpha) ** 2
    rng = np.random.default_rng(2024)
    pts = rng.uniform([0, 0, 0], [1, 1, 0.25], size=(1_000_000, 3))
    mc = SLAB.volume * np.mean(distance_to_curve(pts, curve) ** (2 * alpha))
    assert abs(val - mc) < 1e-2 * mc


def test_weighted_norm_alpha_continuity():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    rng = np.random.default_rng(5)
    f = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * 4))
    curve = vertical_line()
    plain = l2_error(f, 0.0)
    gaps = [abs(weighted_l2_norm(f, curve, a) - plain) for a in (0.5, 0.25, 0.1, 0.01)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * plain


def test_weighted_norm_invariant_under_curve_reversal():
    """The singular-point guard pushes off the nearest segment, not segment 0."""
    mesh = build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1]), (2, 2, 2))
    basis = fb.make_basis(1)
    one = interpolate(lambda p: np.ones(len(p)), mesh, basis)
    q = mesh.map_points(fb.tet_quadrature(4).points, 0)[0]
    pts = [[0.9, 0.9, 0.9], [0.6, 0.8, 0.3], [q[0], 0.02, q[2]], [q[0], 0.98, q[2]]]
    forward = weighted_l2_norm(one, Curve(pts), -0.5)
    backward = weighted_l2_norm(one, Curve(pts[::-1]), -0.5)
    assert abs(forward - backward) <= 1e-10 * forward


@pytest.mark.parametrize("reverse", [False, True])
def test_guard_on_shared_vertex_pushes_off_lower_index_segment(reverse):
    """A point on the vertex of two segments is equally near both; it moves
    orthogonally to the lower-index one (up to the rounding of q, about
    1e-16 against a step of 1e-10 h)."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    q = mesh.map_points(fb.tet_quadrature(4).points, np.array([0]))[0, 0]
    u = np.array([1.0, 0.2, 0.1])
    w = np.array([0.1, 1.0, 0.3])
    pts = [q - 0.1 * u, q, q + 0.1 * w]
    curve = Curve(pts[::-1] if reverse else pts)
    first = np.diff(curve.points[:2], axis=0)[0]
    second = np.diff(curve.points[1:], axis=0)[0]
    moved, d = _guard_points(q[None, None, :], curve, mesh.h)
    step = moved[0, 0] - q
    assert abs(np.linalg.norm(step) - 1e-10 * mesh.h) <= 1e-6 * 1e-10 * mesh.h
    assert abs(step @ first) <= 1e-4 * np.linalg.norm(step) * np.linalg.norm(first)
    assert abs(step @ second) > 0.1 * np.linalg.norm(step) * np.linalg.norm(second)
    assert d[0, 0] > 0.0


def test_alpha_range_validation():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    f = FieldFunction(mesh, fb.make_basis(1), np.zeros((mesh.n_elements, 4)))
    with pytest.raises(ValueError):
        weighted_l2_norm(f, vertical_line(), 1.5)
    with pytest.raises(ValueError):
        weighted_dg_norm(f, vertical_line(), -0.2, sigma=5.0)


def test_convergence_rates_basics():
    assert convergence_rates([4.0, 1.0], [2.0, 1.0]) == [2.0]
    with pytest.raises(ValueError):
        convergence_rates([1.0], [1.0])
    with pytest.raises(ValueError):
        convergence_rates([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        convergence_rates([1.0, 0.0], [2.0, 1.0])


from hypothesis import given
import hypothesis.strategies as st


@given(
    st.lists(st.floats(1e-8, 1e2), min_size=3, max_size=6),
    st.floats(1e-3, 1e3),
)
def test_convergence_rates_scale_invariant(errors, scale):
    hs = [2.0 ** -i for i in range(len(errors))]
    base = convergence_rates(errors, hs)
    scaled = convergence_rates([scale * e for e in errors], hs)
    assert np.allclose(base, scaled, rtol=1e-9, atol=1e-9)


def test_convergence_rates_reference_table_arithmetic():
    r = convergence_rates([1.28e-4, 3.00e-5], [0.25, 0.125])
    assert abs(r[0] - 2.09) < 0.01
    r = convergence_rates([7.48e-7, 1.11e-7], [0.125, 0.0625])
    assert abs(r[0] - 2.75) < 0.01


def test_reference_absolute_errors_at_diameter_one_eighth():
    """Reference-solution errors at max-diameter ~ 1/8 sit inside fixed
    x1.5 windows around known-good values.

    (16,16,4) is the region-aligned cube-cell mesh whose max element
    diameter (0.108) is closest to 1/8; absolute error constants are
    mesh-family dependent, hence the wide windows.
    """
    mesh, basis, spec, curve, exact, uh = solve_reference_problem((16, 16, 4), 1)
    assert abs(mesh.h - 0.125) < 0.02
    eg = l2_error(uh, exact)
    e1 = l2_error(uh, exact, region=C1)
    assert 2.28e-3 / 1.5 < eg < 2.28e-3 * 1.5
    assert 3.00e-5 / 1.5 < e1 < 3.00e-5 * 1.5


def test_weighted_gradient_error_decreases_under_refinement():
    vals = []
    for n in [(4, 4, 1), (8, 8, 2), (16, 16, 4)]:
        mesh, basis, spec, curve, exact, uh = solve_reference_problem(n, 1)
        vals.append(
            weighted_dg_norm(uh, curve, 0.9, sigma=spec.sigma, exact=exact)
        )
    assert vals[0] > vals[1] > vals[2]


def oblique_polyline():
    """A seeded polyline of 5 oblique segments inside the slab."""
    rng = np.random.default_rng(20)
    return Curve(rng.uniform([0.05, 0.05, 0.02], [0.95, 0.95, 0.23], size=(6, 3)))


def lattice_edge_polyline():
    """Mesh edges of the 8x8x2 slab grid: along x, a face diagonal, a cell
    diagonal, then down along z; no quadrature point lies on them."""
    return Curve(np.array([[2, 2, 1], [4, 2, 1], [5, 3, 1], [6, 4, 2], [6, 4, 1]]) / 8.0)


def polyline_through_quadrature_point(mesh, rule):
    """A segment through the quadrature point farthest from its element's
    centroid, normal to the offset, so that the point lies on the curve while
    the centroid stays about 0.44 h away: the element needs a prune radius
    close to h."""
    e = 6 * mesh.cell_flat_index(np.array([[3, 4, 1]]))[0] + 2
    pts = mesh.map_points(rule.points, np.array([e]))[0]
    offset = pts - mesh.centroids(e)
    q = pts[np.argmax(np.linalg.norm(offset, axis=1))]
    u = np.cross(q - mesh.centroids(e), [0.3, 0.2, 1.0])
    u /= np.linalg.norm(u)
    return Curve([q - 0.1 * u, q, q + 0.1 * u])


def log_distance(curve):
    """log dist(x, curve), singular on ``curve``, which it names."""
    exact = lambda p: np.log(distance_to_curve(p, curve))
    exact.curve = curve
    return exact


def smooth(p):
    return 1.0 + p[:, 0] - 2.0 * p[:, 1] * p[:, 2]


def smooth_grad(p):
    return np.column_stack([np.ones(len(p)), -2.0 * p[:, 2], -2.0 * p[:, 1]])


smooth.gradient = smooth_grad


@pytest.mark.parametrize("shape", ["oblique", "lattice_edges", "through_points"])
def test_pruned_norms_match_the_unpruned_reference(shape):
    """Skipping vanishing elements and faces, and guarding only the elements
    near the curve, changes each norm by summation order only."""
    mesh = build_box_mesh(SLAB, (8, 8, 2))
    basis = fb.make_basis(2)
    rule = fb.tet_quadrature(2 * basis.degree + 2)
    curve = {"oblique": oblique_polyline, "lattice_edges": lattice_edge_polyline,
             "through_points": lambda: polyline_through_quadrature_point(mesh, rule)}[shape]()
    fh = compute_fh_field(curve, 1.0, mesh, basis)
    support = np.flatnonzero(fh.coeffs.any(axis=1))
    assert 0 < support.size < mesh.n_elements // 4
    sigma = 12.0
    guarded = _guard_points(mesh.map_points(rule.points), curve, mesh.h)[1] < 1e-9
    assert guarded.any() == (shape == "through_points")

    def close(value, reference):
        assert abs(value - reference) <= 1e-13 * reference

    close(l2_error(fh, 0.0), ref.l2(fh))
    close(l2_error(fh, None), ref.l2(fh, curve=curve))
    for alpha in (-0.5, 0.5):
        close(weighted_l2_norm(fh, curve, alpha), ref.l2(fh, curve=curve, alpha=alpha))
    close(dg_energy_error(fh, 0, sigma), ref.dg(fh, sigma))
    close(weighted_dg_norm(fh, curve, 0.5, sigma), ref.dg(fh, sigma, curve=curve, alpha=0.5))
    # an error field: the exact solution is nonzero off the support, so nothing is skipped
    exact = log_distance(curve)
    close(l2_error(fh, exact), ref.l2(fh, exact, curve=curve))
    close(weighted_l2_norm(fh, curve, 0.5, exact=exact),
          ref.l2(fh, exact, curve=curve, alpha=0.5))
    close(dg_energy_error(fh, smooth, sigma),
          ref.dg(fh, sigma, smooth, smooth_grad))
    zero = FieldFunction(mesh, basis, np.zeros_like(fh.coeffs))
    close(l2_error(zero, smooth), ref.l2(zero, smooth))
    assert l2_error(zero, smooth) > 0.0


def test_norms_of_the_zero_field_are_zero():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    curve = oblique_polyline()
    zero = FieldFunction(mesh, fb.make_basis(1), np.zeros((mesh.n_elements, 4)))
    assert l2_error(zero, 0.0) == 0.0
    assert l2_error(zero, None) == 0.0
    assert weighted_l2_norm(zero, curve, -0.5) == 0.0
    assert dg_energy_error(zero, 0, 5.0) == 0.0
    assert weighted_dg_norm(zero, curve, 0.5, 5.0) == 0.0


def test_distances_are_measured_only_near_the_curve(monkeypatch):
    """The weighted norm of f_h measures the points of its support only, and
    the guarded L2 error one centroid per element plus the points of the
    elements within h of the curve: the count falls against ne * q."""
    measured = []

    def spy(points, curve):
        measured.append(len(np.atleast_2d(points)))
        return nearest(points, curve)

    nearest = linedg.curve.nearest_segments
    monkeypatch.setattr(linedg.curve, "nearest_segments", spy)
    monkeypatch.setattr(linedg.norms, "nearest_segments", spy)
    basis = fb.make_basis(1)
    curve = vertical_line()
    exact = LogLineSolution(curve, SLAB)
    shares = []
    for n in [(8, 8, 2), (16, 16, 4)]:
        mesh = build_box_mesh(SLAB, n)
        ne, q = mesh.n_elements, fb.tet_quadrature(2 * basis.degree + 2).n
        fh = compute_fh_field(curve, 1.0, mesh, basis)
        support = np.count_nonzero(fh.coeffs.any(axis=1))
        measured.clear()
        weighted_l2_norm(fh, curve, 0.5)
        assert sum(measured) == q * support
        weighted = sum(measured) / (ne * q)

        near = np.count_nonzero(
            np.linalg.norm(mesh.centroids()[:, :2] - [2 / 3, 1 / 3], axis=1) <= mesh.h + 1e-12)
        uh = interpolate(exact, mesh, basis)
        measured.clear()
        l2_error(uh, exact)
        assert sum(measured) <= ne + q * near
        shares.append((weighted, (sum(measured) - ne) / (ne * q)))
    assert shares[1][0] <= shares[0][0] / 3 and shares[1][1] <= shares[0][1] / 3


def whole_domain_dg_norms(field, curve):
    """The whole-domain DG error and weighted DG error against ``log_line``, as
    callables."""
    exact = LogLineSolution(curve, SLAB)
    return [lambda: dg_energy_error(field, exact, sigma=12.0),
            lambda: weighted_dg_norm(field, curve, 0.5, 12.0, exact=exact)]


def test_dg_norms_in_blocks_of_two_faces_match_one_block(monkeypatch):
    """Walked in blocks of 2 faces, the whole-domain DG norms match their values
    from one block of faces to 1e-13 relative."""
    mesh, basis = build_box_mesh(SLAB, (4, 4, 2)), fb.make_basis(2)
    field = FieldFunction(mesh, basis, np.random.default_rng(6).standard_normal(
        (mesh.n_elements, basis.dim)))
    monkeypatch.setattr(linedg.assembly, "_BLOCK", 10 ** 9)
    whole = [norm() for norm in whole_domain_dg_norms(field, vertical_line())]
    sizes, traces = [], linedg.assembly._face_traces

    def spy(*args):
        for block in traces(*args):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(linedg.norms, "_face_traces", spy)
    monkeypatch.setattr(linedg.assembly, "_BLOCK", 2 * fb.tri_quadrature(6).n * basis.dim)
    blocked = [norm() for norm in whole_domain_dg_norms(field, vertical_line())]
    faces = mesh.faces(True)[0].size + mesh.faces(False)[0].size
    assert max(sizes) == 2 and sum(sizes) == 2 * faces
    for value, reference in zip(blocked, whole):
        assert abs(value - reference) <= 1e-13 * reference


def test_whole_domain_dg_norms_allocate_a_block_not_the_mesh(monkeypatch):
    """With blocks of 384 elements and 38 faces at k=2, the allocation peak of
    the whole-domain DG norms grows by at most 1.25x from 8x8x2 to 16x16x4,
    8x the elements and faces: their faces are walked in blocks as their
    elements are."""
    basis, curve = fb.make_basis(2), vertical_line()
    monkeypatch.setattr(linedg.assembly, "_BLOCK", 38 * fb.tri_quadrature(6).n * basis.dim)
    monkeypatch.setattr(linedg.norms, "_BLOCK", 384 * fb.tet_quadrature(6).n)
    peaks = []
    for n in [(8, 8, 2), (16, 16, 4)]:
        mesh = build_box_mesh(SLAB, n)
        field = FieldFunction(mesh, basis, np.random.default_rng(7).standard_normal(
            (mesh.n_elements, basis.dim)))
        for norm in whole_domain_dg_norms(field, curve):
            norm()  # once first, to fill the caches of the quadrature rules
            tracemalloc.start()
            try:
                norm()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[2] <= 1.25 * peaks[0] and peaks[3] <= 1.25 * peaks[1], peaks


def test_a_boundary_face_pierced_at_a_quadrature_point_is_guarded():
    """A vertical line through a quadrature point of a bottom face: the weighted
    DG error of the zero field reads the exact solution at points guarded
    off the line, so it is finite."""
    mesh, basis = build_box_mesh(SLAB, (4, 4, 1)), fb.make_basis(1)
    curve = Curve([[0.45217359641941746, 0.22432058629759344, 0.0],
                   [0.45217359641941746, 0.22432058629759344, 0.25]])
    rule = fb.tri_quadrature(2 * basis.degree + 2)
    points = np.concatenate([x.reshape(-1, 3) for x, _, _ in linedg.assembly._face_traces(
        mesh, basis, rule, *mesh.faces(False))])
    assert distance_to_curve(points, curve).min() < 1e-12
    exact = LogLineSolution(curve, SLAB)
    zero = FieldFunction(mesh, basis, np.zeros((mesh.n_elements, basis.dim)))
    value = weighted_dg_norm(zero, curve, 0.5, 5.0, exact=exact)
    assert np.isfinite(value) and abs(value - 0.6386) < 1e-4, value


def test_the_zero_coefficient_filter_copies_no_coefficients():
    """The volume norms drop zero elements by a mask of the field's nonzero
    rows, not a copy of the listed rows: with 12 nonzero elements of 6,144
    at k = 2, the whole-domain plain norm allocates less than a tenth of the
    coefficients' bytes."""
    mesh, basis = build_box_mesh(SLAB, (16, 16, 4)), fb.make_basis(2)
    coeffs = np.zeros((mesh.n_elements, basis.dim))
    coeffs[::512] = 1.0
    field, elements = FieldFunction(mesh, basis, coeffs), np.arange(mesh.n_elements)
    value = _volume_sq(field, elements)  # once first, to fill the caches of the quadrature rules
    tracemalloc.start()
    try:
        assert _volume_sq(field, elements) == value > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < coeffs.nbytes / 10, peak


def test_log_potential_matches_the_hypot_form():
    """-log(dx^2 + dy^2) / (4 pi) equals -log(hypot(dx, dy)) / (2 pi) to
    1e-14 relative, in the box and at points 1e-10 h off the line."""
    curve, h = vertical_line(), np.sqrt(3) / 32  # the diameter of the 32x32x8 grid's tets
    rng = np.random.default_rng(11)
    angle = rng.uniform(0.0, 2.0 * np.pi, 500)
    near = np.column_stack([2 / 3 + 1e-10 * h * np.cos(angle), 1 / 3 + 1e-10 * h * np.sin(angle),
                            rng.uniform(0.0, 0.25, 500)])
    points = np.vstack([rng.uniform(SLAB.lo, SLAB.hi, size=(5000, 3)), near])
    hypot = -np.log(np.hypot(points[:, 0] - 2 / 3, points[:, 1] - 1 / 3)) / (2.0 * np.pi)
    values = LogLineSolution(curve, SLAB)(points)
    assert np.all(np.abs(values - hypot) <= 1e-14 * np.abs(hypot))
