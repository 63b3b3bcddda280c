import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from linedg import basis as fb
from linedg import curve as curve_module
from linedg.curve import (
    _DISTANCE_BLOCK,
    Curve,
    assemble_line_rhs,
    build_restrictions,
    clip_segment_tets,
    compute_fh_field,
    distance_to_curve,
    nearest_segments,
)
from linedg.mesh import BoxDomain, build_box_mesh

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def vertical_line():
    return Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])


def sine_curve(samples=40):
    t = np.linspace(0.0, 1.0, samples)
    pts = np.column_stack(
        [0.15 + 0.7 * t, 0.5 + 0.2 * np.sin(2 * np.pi * 1.5 * t), 0.05 + 0.15 * t]
    )
    return Curve(pts)


def test_curve_validation():
    for bad in ([[0, 0, 0]], [[0, 0, 0], [0, 0, 0]],
                [[np.nan, 0, 0], [1, 0, 0]], [[np.inf, 0, 0], [1, 0, 0]]):
        with pytest.raises(ValueError):
            Curve(bad)
    c = Curve([[0.2, 0.2, 0.1], [0.8, 0.8, 0.2]])
    c.check_inside(SLAB)
    with pytest.raises(ValueError):
        Curve([[0.2, 0.2, 0.1], [0.8, 0.8, 0.3]]).check_inside(SLAB)


def clip_reference(p0, p1):
    """(t0, t1) of segment p0->p1 inside the reference tet, or None."""
    tet = fb.REF_TET_VERTICES
    _, _, jinv = fb.tet_jacobian(tet)
    t0, t1, hit = clip_segment_tets(((np.stack([p0, p1]) - tet[0]) @ jinv.T)[None])
    return (t0[0], t1[0]) if hit[0] else None


def test_clip_interior_segment():
    tet = fb.REF_TET_VERTICES
    centroid = tet.mean(axis=0)
    p0 = centroid - 0.05
    p1 = centroid + 0.05
    res = clip_reference(p0, p1)
    assert res is not None
    assert abs(res[0]) < 1e-12 and abs(res[1] - 1.0) < 1e-12


def test_clip_outside_segment():
    assert clip_reference([2, 2, 2], [3, 3, 3]) is None


def test_clip_against_monte_carlo():
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(12):
        p0 = rng.uniform(-0.4, 1.0, 3)
        p1 = rng.uniform(-0.4, 1.0, 3)
        res = clip_reference(p0, p1)
        clipped = 0.0 if res is None else res[1] - res[0]
        n = 1_000_000
        t = (np.arange(n) + 0.5) / n
        pts = p0 + t[:, None] * (p1 - p0)
        inside = np.all(pts >= 0, axis=1) & (pts.sum(axis=1) <= 1.0)
        mc = inside.mean()
        assert abs(clipped - mc) < max(1e-3, 1e-3 * mc)
        hits += clipped > 0
    assert hits >= 3  # the sampling box actually intersects sometimes


def test_restrictions_vertical_line():
    curve = vertical_line()
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    rs = build_restrictions(curve, mesh)
    assert rs
    total = sum(r.total_length for r in rs)
    assert abs(total - 0.25) < 1e-9 * 0.25
    # every restricted element must contain the line's (x, y) within its own shadow
    for r in rs:
        tc = mesh.tet_coords(r.element)
        assert tc[:, 0].min() - 1e-9 <= 2 / 3 <= tc[:, 0].max() + 1e-9
        assert tc[:, 1].min() - 1e-9 <= 1 / 3 <= tc[:, 1].max() + 1e-9


def test_restriction_segments_short():
    curve = Curve([[0.1, 0.1, 0.125], [0.9, 0.9, 0.125]])
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    for r in build_restrictions(curve, mesh):
        assert np.all(r.lengths <= mesh.h + 1e-12)  # every Kuhn tet has diameter h
        # each sub-segment lies inside the closed element
        for pt in np.concatenate([r.starts, r.ends]):
            ref = mesh.type_jac_invs[r.element % 6] @ (pt - mesh.vertices[mesh.tets[r.element, 0]])
            assert np.all(ref >= -1e-10) and ref.sum() <= 1 + 1e-10


@pytest.mark.parametrize("levels", [(2, 2, 1), (4, 4, 1), (8, 8, 2)])
def test_partition_of_curve_both_curves(levels):
    mesh = build_box_mesh(SLAB, levels)
    for curve in (vertical_line(), sine_curve()):
        rs = build_restrictions(curve, mesh)
        total = sum(r.total_length for r in rs)
        assert abs(total - curve.length) < 1e-9 * curve.length


def test_exiting_curve_rejected():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    with pytest.raises(ValueError):
        build_restrictions(Curve([[0.5, 0.5, 0.1], [1.5, 0.5, 0.1]]), mesh)


def test_distance_basics():
    curve = Curve([[0, 0, 0], [0, 0, 1]])
    assert distance_to_curve([0.0, 0.0, 0.4], curve) == 0.0
    assert abs(distance_to_curve([1.0, 0.0, 0.5], curve) - 1.0) < 1e-15
    # beyond the endpoint the nearest point is the endpoint
    assert abs(distance_to_curve([0.0, 0.0, 1.5], curve) - 0.5) < 1e-15


def test_distance_against_dense_sampling():
    rng = np.random.default_rng(77)
    curve = sine_curve()
    s = np.linspace(0, curve.length, 100_000)
    dense = np.column_stack([np.interp(s, curve.cum_lengths, curve.points[:, d]) for d in range(3)])
    pts = rng.uniform([0, 0, 0], [1, 1, 0.25], size=(50, 3))
    d = distance_to_curve(pts, curve)
    for p, di in zip(pts, d):
        ref = np.linalg.norm(dense - p, axis=1).min()
        assert abs(di - ref) < 1e-4


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 2.0), min_size=6, max_size=6))
def test_clip_interval_inside_unit_range(vals):
    p0 = np.array(vals[:3])
    p1 = np.array(vals[3:])
    if np.linalg.norm(p1 - p0) < 1e-9:
        return
    res = clip_reference(p0, p1)
    if res is not None:
        t0, t1 = res
        assert 0.0 <= t0 < t1 <= 1.0


LATTICE_MESH = build_box_mesh(SLAB, (4, 4, 1))


def _per_element_lengths(curve, mesh):
    out = np.zeros(mesh.n_elements)
    for r in build_restrictions(curve, mesh):
        out[r.element] = r.total_length
    return out


# folded lattice polylines can put more than 2h of curve in one element
@pytest.mark.filterwarnings("ignore:an element carries")
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2)),
                min_size=2, max_size=5))
def test_lattice_polyline_partition_and_reversal(vertices):
    """Vertices on the 1/8 lattice: segments lie in faces, run along edges,
    pass through vertices and touch the boundary of the 4x4x1 mesh."""
    assume(all(a != b for a, b in zip(vertices, vertices[1:])))
    pts = np.array(vertices, dtype=float) / 8.0
    mesh = LATTICE_MESH
    curve, reverse = Curve(pts), Curve(pts[::-1])
    lengths = _per_element_lengths(curve, mesh)
    assert abs(lengths.sum() - curve.length) <= 1e-12 * curve.length
    tol = 1e-12 * curve.length
    assert np.abs(_per_element_lengths(reverse, mesh) - lengths).max() <= tol
    basis = fb.make_basis(2)
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    assert np.abs(assemble_line_rhs(reverse, 1.0, mesh, basis) - b).max() <= tol


# an oblique segment in each of the six boundary faces of the slab
FACE_SEGMENTS = [
    [[0.0, 0.1, 0.02], [0.0, 0.8, 0.23]], [[1.0, 0.1, 0.02], [1.0, 0.8, 0.23]],
    [[0.1, 0.0, 0.02], [0.9, 0.0, 0.23]], [[0.1, 1.0, 0.02], [0.9, 1.0, 0.23]],
    [[0.1, 0.1, 0.0], [0.9, 0.8, 0.0]], [[0.1, 0.1, 0.25], [0.9, 0.8, 0.25]],
]


@pytest.mark.parametrize("n", [(3, 3, 3), (8, 8, 2), (5, 7, 2)], ids=["3x3x3", "8x8x2", "5x7x2"])
def test_segments_in_boundary_faces_clip_to_their_length(n):
    """No element lies across a boundary face to take up a piece that the
    roundoff of the barycentric coordinates cuts off there."""
    mesh = build_box_mesh(SLAB, n)
    for points in FACE_SEGMENTS:
        curve = Curve(points)
        covered = sum(r.total_length for r in build_restrictions(curve, mesh))
        assert abs(covered - curve.length) <= 1e-12 * curve.length


def _every_cell(mesh, p0, p1):
    """Every (segment, cell) pair, in the order ``_walked_cells`` returns them."""
    cells = np.prod(mesh.n)
    return np.repeat(np.arange(len(p0)), cells), np.tile(np.arange(cells), len(p0))


@st.composite
def polylines(draw):
    """Random points in the slab, points on the 1/8 lattice, or random points
    in one boundary face."""
    kind = draw(st.sampled_from(["random", "lattice", "face"]))
    m = draw(st.integers(2, 4))
    if kind == "lattice":
        ijk = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2))
        pts = np.array(draw(st.lists(ijk, min_size=m, max_size=m)), dtype=float) / 8.0
    else:
        unit = st.tuples(*[st.floats(0.0, 1.0)] * 3)
        pts = SLAB.lo + np.array(draw(st.lists(unit, min_size=m, max_size=m))) * SLAB.extent
        if kind == "face":
            axis, side = draw(st.integers(0, 2)), draw(st.sampled_from([SLAB.lo, SLAB.hi]))
            pts[:, axis] = side[axis]
    assume(np.all(np.linalg.norm(np.diff(pts, axis=0), axis=1) > 0))
    return pts


def _restriction_bytes(curve, mesh):
    return [(r.element, r.starts.tobytes(), r.ends.tobytes(), r.lengths.tobytes(),
             r.arclengths.tobytes()) for r in build_restrictions(curve, mesh)]


@pytest.mark.filterwarnings("ignore:an element carries")
@settings(max_examples=150, deadline=None)
@given(polylines(), st.sampled_from([(4, 4, 1), (8, 8, 2), (5, 7, 2), (3, 3, 3)]))
def test_walked_cells_clip_like_every_element(points, n):
    """The cells a curve walks through hold every element it crosses: the
    restrictions equal, bitwise, those clipped against every element."""
    curve, mesh = Curve(points), build_box_mesh(SLAB, n)
    walked = _restriction_bytes(curve, mesh)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curve_module, "_walked_cells", _every_cell)
        assert _restriction_bytes(curve, mesh) == walked


def test_clipping_grows_with_the_curve_not_its_bounding_box(monkeypatch):
    """The slab's diagonal passes through grid vertices, where the walk takes
    all 8 cells around; at 32x32x8 its bounding box holds every one of the
    49,152 elements."""
    rows = []

    def counted(ref):
        rows.append(ref.shape[0])
        return clip_segment_tets(ref)

    monkeypatch.setattr(curve_module, "clip_segment_tets", counted)
    mesh = build_box_mesh(SLAB, (32, 32, 8))
    curve = Curve([[0.0, 0.0, 0.0], [1.0, 1.0, 0.25]])
    covered = sum(r.total_length for r in build_restrictions(curve, mesh))
    assert abs(covered - curve.length) <= 1e-12 * curve.length
    assert sum(rows) <= 6 * 8 * (sum(mesh.n) + 1)


def nearest_reference(points, curve):
    """All pairs at once: project each point on each segment, then argmin."""
    a = curve.points[:-1]
    d = curve.points[1:] - a
    diff = points[:, None, :] - a[None, :, :]
    t = np.clip((diff * d[None]).sum(-1) / (d * d).sum(axis=1)[None, :], 0.0, 1.0)
    dist2 = ((diff - t[:, :, None] * d[None]) ** 2).sum(-1)
    near = dist2.argmin(axis=1)
    return np.sqrt(dist2[np.arange(points.shape[0]), near]), near


def _assert_matches_reference(points, curve):
    d, seg = nearest_segments(points, curve)
    ref_d, ref_seg = nearest_reference(points, curve)
    assert d.shape == seg.shape == (points.shape[0],)
    np.testing.assert_array_equal(seg, ref_seg)
    assert np.abs(d - ref_d).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("segments", [1, 2, 5, 17, 64])
def test_nearest_segments_match_all_pairs_reference(segments):
    """Random polylines; points at random, in clusters of three sizes, on
    segments, on shared vertices and outside the box."""
    rng = np.random.default_rng(segments)
    curve = Curve(np.cumsum(rng.uniform(-0.3, 0.3, size=(segments + 1, 3)), axis=0))
    a, b = curve.points[:-1], curve.points[1:]
    t = rng.uniform(0.0, 1.0, size=(segments, 1))
    clouds = [rng.uniform(-1.0, 1.0, size=(300, 3))] + [
        rng.uniform(-1.0, 1.0, size=3) + rng.uniform(-size, size, size=(300, 3))
        for size in (1e-3, 0.03, 0.3) for _ in range(4)
    ] + [
        a + t * (b - a),
        curve.points,
        rng.uniform(-1.0, 1.0, size=(50, 3)) + rng.choice([-4.0, 4.0], size=(50, 3)),
    ]
    for points in clouds:
        _assert_matches_reference(points, curve)


@pytest.mark.parametrize("n", [0, 1, _DISTANCE_BLOCK - 1, _DISTANCE_BLOCK, _DISTANCE_BLOCK + 1])
def test_nearest_segments_point_counts_around_a_block(n):
    points = np.random.default_rng(n).uniform([0, 0, 0], [1, 1, 0.25], size=(n, 3))
    _assert_matches_reference(points, sine_curve(samples=9))


def test_nearest_segments_many_segments_few_points():
    points = np.random.default_rng(5).uniform([0, 0, 0], [1, 1, 0.25], size=(199, 3))
    _assert_matches_reference(points, sine_curve(samples=4097))


def test_nearest_segments_chunks_match_pointwise():
    curve = sine_curve(samples=65)
    pts = np.random.default_rng(5).uniform([0, 0, 0], [1, 1, 0.25], size=(2 * _DISTANCE_BLOCK + 7, 3))
    d, seg = nearest_segments(pts, curve)
    edges = np.arange(-2, 2)
    probe = np.concatenate([_DISTANCE_BLOCK + edges, 2 * _DISTANCE_BLOCK + edges, [0, pts.shape[0] - 1],
                            np.random.default_rng(6).integers(0, pts.shape[0], 100)])
    for i in probe:
        di, si = nearest_segments(pts[i][None], curve)
        assert di[0] == d[i] and si[0] == seg[i]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_segments_reject_non_finite_points(bad):
    points = np.random.default_rng(0).uniform(0.0, 1.0, size=(2 * _DISTANCE_BLOCK, 3))
    points[_DISTANCE_BLOCK + 3, 1] = bad
    with pytest.raises(ValueError):
        nearest_segments(points, sine_curve())
    with pytest.raises(ValueError):
        distance_to_curve([0.5, bad, 0.1], sine_curve())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-0.5, 1.5), min_size=6, max_size=6),
)
def test_distance_is_lipschitz(vals):
    curve = Curve([[0.2, 0.2, 0.05], [0.8, 0.6, 0.2]])
    p = np.array(vals[:3])
    q = np.array(vals[3:])
    dp = distance_to_curve(p, curve)
    dq = distance_to_curve(q, curve)
    assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-12


def test_line_rhs_pairs_to_curve_length():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    for k in (1, 2):
        b = assemble_line_rhs(vertical_line(), 1.0, mesh, fb.make_basis(k))
        # global constant = all-ones nodal vector; pairing measures |curve|
        assert abs(b.sum() - 0.25) < 1e-12


def test_line_rhs_zero_and_affine_oracle():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    assert np.all(assemble_line_rhs(vertical_line(), 0.0, mesh, basis) == 0.0)

    # single known sub-segment: compare against the closed-form line integral
    # of an affine function, int_0^L phi(p0 + t u) dt = L * phi(midpoint)
    curve = vertical_line()
    rs = build_restrictions(curve, mesh)
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    for r in rs:
        e = r.element
        block = b[4 * e : 4 * (e + 1)]
        expected = np.zeros(4)
        for start, end, length in zip(r.starts, r.ends, r.lengths):
            mid = 0.5 * (start + end)
            ref = (mesh.type_jac_invs[e % 6] @ (mid - mesh.vertices[mesh.tets[e, 0]]))[None]
            expected += length * basis.eval(ref)[0]
        assert np.allclose(block, expected, atol=1e-12)


def test_fh_zero_for_zero_f():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    fh = compute_fh_field(vertical_line(), 0.0, mesh, fb.make_basis(1))
    assert np.all(fh.coeffs == 0)


def test_fh_raises_assembly_error_on_a_singular_mass(monkeypatch):
    from linedg import assembly
    from linedg.errors import AssemblyError

    monkeypatch.setattr(assembly, "reference_mass", lambda basis: np.zeros((basis.dim,) * 2))
    with pytest.raises(AssemblyError):
        compute_fh_field(vertical_line(), 1.0, build_box_mesh(SLAB, (4, 4, 1)), fb.make_basis(1))


@pytest.mark.parametrize("k", [1, 2])
def test_fh_defining_identity(k):
    """Master identity: (f_h, v)_E = line integral of f * v over E."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(k)
    curve = vertical_line()
    rs = build_restrictions(curve, mesh)
    fh = compute_fh_field(curve, 1.0, mesh, basis)
    rhs = assemble_line_rhs(curve, 1.0, mesh, basis, restrictions=rs)
    rule = fb.tet_quadrature(2 * k)
    vals = basis.eval(rule.points)
    mref = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    rng = np.random.default_rng(11)
    for r in rs:
        e = r.element
        mloc = mref * mesh.type_det_jacobians[e % 6]
        for _ in range(10):
            v = rng.standard_normal(basis.dim)
            lhs = fh.coeffs[e] @ mloc @ v
            line = rhs[basis.dim * e : basis.dim * (e + 1)] @ v
            assert abs(lhs - line) < 1e-10 * max(1.0, abs(line))


def test_fh_inverse_h_scaling():
    """h * ||f_h||_L2 stays bounded under refinement."""
    from linedg.norms import l2_error

    vals = []
    for n in [(4, 4, 1), (8, 8, 2), (16, 16, 4)]:
        mesh = build_box_mesh(SLAB, n)
        fh = compute_fh_field(vertical_line(), 1.0, mesh, fb.make_basis(1))
        vals.append(mesh.h * l2_error(fh, 0.0))
    for a, b in zip(vals, vals[1:]):
        assert b / a <= 2.2
