import itertools
import tracemalloc

import numpy as np
import pytest

from linedg import basis as fb
from linedg.mesh import (
    BOUNDARY_PAGE, FACE_ACROSS, FACE_MATCH, FACE_SHIFTS, FACE_VERTICES, BoxDomain, Mesh,
    build_box_mesh, face_area_and_normal,
)
from linedg.cli import _solve_levels
from linedg.config import parse_config
from linedg.errors import GeometryError


def unit_cube():
    return BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1])


def slab_domain():
    return BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def face_rows(elements, local):
    """Rows 4 t + f of the per-(type, local face) tables."""
    return 4 * (elements % 6) + local


def interior_sides(m):
    """Both sides of each interior face, ((e0, f0), (e1, f1)): the first side
    from ``Mesh.faces``, the second across it in ``neighbours`` and, by the
    face table, opposite the local vertex ``FACE_ACROSS % 4``."""
    e0, f0 = m.faces(True)
    return (e0, f0), (m.neighbours[e0, 1 + f0], FACE_ACROSS[face_rows(e0, f0)] % 4)


def diameters(m):
    """Longest edge of every element, from its vertex coordinates."""
    a, b = np.triu_indices(4, 1)
    tc = m.tet_coords()
    return np.linalg.norm(tc[:, a] - tc[:, b], axis=-1).max(axis=1)


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain(lo=[0, 0, 0], hi=[1, 0, 1])


def test_single_cell_counts():
    m = build_box_mesh(unit_cube(), (1, 1, 1))
    assert m.n_elements == 6
    assert abs(m.type_det_jacobians.sum() / 6.0 - 1.0) < 1e-12
    assert m.faces(False)[0].shape[0] == 12
    assert m.faces(True)[0].shape[0] == 6


# the Kuhn types as cube corners: bit d set on the far side along axis d
KUHN = [[0, 1, 3, 7], [0, 1, 7, 5], [0, 2, 7, 3], [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 7, 6]]


def test_unit_cell_is_the_kuhn_table():
    """Vertex ids of a 1x1x1 grid are cube corners."""
    m = build_box_mesh(unit_cube(), (1, 1, 1))
    assert np.array_equal(m.tets(), KUHN)


def test_zero_cells_rejected():
    with pytest.raises(ValueError):
        build_box_mesh(unit_cube(), (0, 1, 1))


def test_slab_mesh_size():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    assert m.n_elements == 96
    assert abs(m.h - np.sqrt(3 * 0.25 ** 2)) < 1e-12


def test_equal_volumes_quasi_uniform():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    expected = slab_domain().volume / m.n_elements
    assert np.allclose(m.type_det_jacobians / 6.0, expected, rtol=1e-12)


def test_refinement_halves_h():
    m = build_box_mesh(slab_domain(), (2, 2, 1))
    r = build_box_mesh(m.domain, (4, 4, 2))
    assert r.n == (4, 4, 2)
    assert abs(r.h - 0.5 * m.h) < 1e-13


def test_conformity_face_counts():
    m = build_box_mesh(slab_domain(), (3, 2, 1))
    local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    tripled = np.sort(m.tets()[:, local].reshape(-1, 3), axis=1)
    _, counts = np.unique(tripled, axis=0, return_counts=True)
    assert set(counts.tolist()) <= {1, 2}
    assert (counts == 1).sum() == m.faces(False)[0].shape[0]
    assert (counts == 2).sum() == m.faces(True)[0].shape[0]


@pytest.mark.parametrize("n", [(3, 2, 1), (4, 4, 2)], ids=["3x2x1", "4x4x2"])
def test_neighbour_table_matches_the_faces(n):
    """Across each interior face the table names the other element, each
    boundary face maps to the ghost index ne, and each (element, local face)
    pair is one face exactly once."""
    m = Mesh(slab_domain(), n)
    ne, table = m.n_elements, m.neighbours
    assert table.shape == (ne, 5) and np.array_equal(table[:, 0], np.arange(ne))
    (e0, f0), (e1, f1) = interior_sides(m)
    be, bf = m.faces(False)
    assert np.all(e1 < ne) and np.array_equal(table[e1, 1 + f1], e0)
    assert np.all(table[be, 1 + bf] == ne)
    pairs = np.concatenate([4 * e0 + f0, 4 * e1 + f1, 4 * be + bf])
    assert np.array_equal(np.sort(pairs), np.arange(4 * ne))


def test_ghost_classes_group_the_boundary_elements():
    """``boundary_pages`` holds each element with a boundary face once, in
    pages of one class each, classes in order: every element of a page of
    class i has code ``ghost_classes[i]``, and only a class's last page is
    padded, at its end, with the ghost index.  On 4x4x2 and 16x16x4, where
    the largest class (240 elements) fills 8 pages."""
    for n, most in (((4, 4, 2), 1), ((16, 16, 4), 8)):
        m = build_box_mesh(slab_domain(), n)
        ne, pages, classes = m.n_elements, m.boundary_pages, m.page_classes
        ghost = m.neighbours[:, 1:] == ne
        real = pages < ne
        assert pages.shape == (len(classes), BOUNDARY_PAGE)
        assert np.array_equal(np.sort(pages[real]), np.flatnonzero(ghost.any(axis=1)))
        codes = pages[real] % 6 * 16 + ghost[pages[real]] @ (1 << np.arange(4))
        per_page = np.broadcast_to(m.ghost_classes[classes][:, None], pages.shape)
        assert np.array_equal(codes, per_page[real])
        assert np.all(np.diff(m.ghost_classes) > 0) and len(m.ghost_classes) == 18
        assert np.array_equal(np.unique(classes), np.arange(18)) and np.all(np.diff(classes) >= 0)
        last = np.append(np.diff(classes) > 0, True)  # each class's last page
        assert np.all(real[~last]) and np.all(real[:, 0])
        assert np.all((np.diff(pages, axis=1) > 0) | ~real[:, 1:])  # ascending, then padding
        assert np.bincount(classes).max() == most


def test_face_area_and_normal():
    area, normal = face_area_and_normal(
        np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
    )
    assert abs(area[0] - 0.5) < 1e-15
    assert abs(abs(normal[0, 2]) - 1.0) < 1e-15

    area2, _ = face_area_and_normal(
        2.0 * np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
    )
    assert abs(area2[0] - 2.0) < 1e-14

    with pytest.raises(GeometryError):
        face_area_and_normal(np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], dtype=float))


def test_interior_normal_orientation():
    m = build_box_mesh(unit_cube(), (1, 1, 1))
    (e0, f0), (e1, _) = interior_sides(m)
    offset = m.centroids(e1) - m.centroids(e0)
    normals = m.face_normals[face_rows(e0, f0)]
    assert np.all(np.einsum("ij,ij->i", normals, offset) > 0)
    assert np.allclose(np.linalg.norm(m.face_normals, axis=1), 1.0, atol=1e-14)


def test_boundary_normals_outward():
    m = build_box_mesh(slab_domain(), (2, 2, 1))
    e, f = m.faces(False)
    fc = m.vertices[m.tets()[e[:, None], FACE_VERTICES[f]]].mean(axis=1)
    out = fc - m.centroids(e)
    normals = m.face_normals[face_rows(e, f)]
    assert np.all(np.einsum("ij,ij->i", normals, out) > 0)


def test_find_elements():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    rng = np.random.default_rng(5)
    pts = rng.uniform([0, 0, 0], [1, 1, 0.25], size=(200, 3))
    elems = m.find_elements(pts)
    assert np.all(elems >= 0)
    # each point must lie inside the closed reported element
    ref = np.einsum("nmd,nd->nm", m.type_jac_invs[elems % 6], pts - m.vertices[m.tets(elems)[:, 0]])
    assert np.all(ref >= -1e-9)
    assert np.all(ref.sum(axis=1) <= 1 + 1e-9)


def test_face_areas_total():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    # boundary area of the box: 2*(1*1) + 4*(1*0.25)
    areas = m.face_areas[face_rows(*m.faces(False))]
    assert abs(areas.sum() - (2 * 1.0 + 4 * 0.25)) < 1e-12


def shape_ratios(m):
    # diameter over inradius; inradius = 3 V / surface area
    local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    tc = m.tet_coords()
    areas = np.zeros(m.n_elements)
    for f in range(4):
        fc = tc[:, local[f], :]
        cross = np.cross(fc[:, 1] - fc[:, 0], fc[:, 2] - fc[:, 0])
        areas += 0.5 * np.linalg.norm(cross, axis=1)
    rho = 3.0 * (m.type_det_jacobians[np.arange(m.n_elements) % 6] / 6.0) / areas
    return diameters(m) / rho


def test_shape_regularity_constant_across_refinement():
    coarse = build_box_mesh(slab_domain(), (4, 4, 1))
    fine = build_box_mesh(coarse.domain, (8, 8, 2))
    rc = shape_ratios(coarse)
    rf = shape_ratios(fine)
    assert abs(rc.max() - rf.max()) < 1e-10
    # quasi-uniformity: every diameter equals the global h on these grids
    assert np.allclose(diameters(fine), fine.h, rtol=1e-12)


def test_map_points_matches_pointwise_affine_map():
    """The barycentric map of every element equals x0 + J r from basis."""
    m = build_box_mesh(BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.5]), (5, 7, 2))
    ref = np.vstack([fb.tet_quadrature(6).points, fb.make_basis(2).nodes])
    J, _, _ = fb.tet_jacobian(m.tet_coords())
    expected = m.vertices[m.tets()[:, 0]][:, None] + np.einsum("nde,qe->nqd", J, ref)
    assert np.abs(m.map_points(ref) - expected).max() <= 1e-14
    some = np.array([0, 17, m.n_elements - 1])
    assert np.array_equal(m.map_points(ref, some), m.map_points(ref)[some])


def test_to_reference_inverts_map_points():
    """Reference points mapped into every element, or into an (m, k) array of
    elements, map back to themselves."""
    m = build_box_mesh(BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.5]), (5, 7, 2))
    ref = np.vstack([fb.tet_quadrature(6).points, fb.make_basis(2).nodes])
    every = np.arange(m.n_elements)
    assert np.abs(m.to_reference(m.map_points(ref), every) - ref).max() <= 1e-13
    some = np.array([[0, 17, 5], [m.n_elements - 1, 40, 3]])
    back = m.to_reference(m.map_points(ref, some), some)
    assert back.shape == (2, 3, len(ref), 3)
    assert np.abs(back - ref).max() <= 1e-13


def lexsort_faces(m):
    """Reference face matching: the 4 ne faces, row 4 e + f the face of element
    e opposite its local vertex f, paired by a lexsort of their sorted vertex
    keys.  Returns the interior pairs of rows (ni, 2), the smaller first, and
    the boundary rows."""
    key = np.sort(m.tets()[:, FACE_VERTICES].reshape(-1, 3), axis=1)
    order = np.lexsort(key.T[::-1])
    group = np.concatenate([[0], np.cumsum(np.any(np.diff(key[order], axis=0) != 0, axis=1))])
    counts = np.bincount(group)
    first = np.searchsorted(group, np.arange(counts.size))
    pairs = first[counts == 2]
    return np.sort(order[np.column_stack([pairs, pairs + 1])], axis=1), order[first[counts == 1]]


def reference_layout(m):
    """Neighbour table and ghost classes scattered from the lexsorted faces,
    and the boundary pages filled one class and one page at a time."""
    pairs, _ = lexsort_faces(m)
    ne = m.n_elements
    table = np.full((ne, 5), ne)
    table[:, 0] = np.arange(ne)
    for s in (0, 1):
        e, f = np.divmod(pairs[:, s], 4)
        table[e, 1 + f] = pairs[:, 1 - s] // 4
    codes = np.arange(ne) % 6 * 16 + (table[:, 1:] == ne) @ (1 << np.arange(4))
    classes = np.unique(codes[codes % 16 > 0])
    pages, page_classes = [], []
    for i, code in enumerate(classes):
        members = np.flatnonzero(codes == code)
        for start in range(0, members.size, BOUNDARY_PAGE):
            page = np.full(BOUNDARY_PAGE, ne)
            page[:members[start:start + BOUNDARY_PAGE].size] = members[start:start + BOUNDARY_PAGE]
            pages.append(page)
            page_classes.append(i)
    return table, np.array(pages), classes, np.array(page_classes)


ONE_LEVEL = """
domain: {lo: [0, 0, 0], hi: [1, 1, 0.25]}
curve: {kind: line, start: [0.3, 0.6, 0.0], end: [0.3, 0.6, 0.25]}
degree: 1
n: [4, 4, 1]
regions:
  boxA: {lo: [0.5, 0.5, 0.0], hi: [1.0, 1.0, 0.25]}
exact: log_line
mode: elliptic
"""

ANISOTROPIC = BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.4])


@pytest.mark.parametrize("n", [(1, 1, 1), (3, 2, 1), (2, 3, 5), (4, 4, 2)],
                         ids=["1x1x1", "3x2x1", "2x3x5", "4x4x2"])
def test_closed_form_build_matches_the_lexsorted_faces(n):
    """Connectivity from the 24-row face table equals face matching by lexsort,
    and the per-type geometry equals the per-element and per-face geometry
    computed from each element's own vertices."""
    m = Mesh(ANISOTROPIC, n)
    table, pages, classes, page_classes = reference_layout(m)
    assert np.array_equal(m.neighbours, table)
    assert np.array_equal(m.boundary_pages, pages)
    assert np.array_equal(m.ghost_classes, classes)
    assert np.array_equal(m.page_classes, page_classes)

    pairs, bfaces = lexsort_faces(m)
    (e0, f0), (e1, f1) = interior_sides(m)
    mine = np.column_stack([4 * e0 + f0, 4 * e1 + f1])
    assert np.all(e0 < e1)
    assert np.array_equal(mine[np.argsort(mine[:, 0])], pairs[np.argsort(pairs[:, 0])])
    e, f = m.faces(False)
    assert np.array_equal(np.sort(4 * e + f), np.sort(bfaces))

    tc = m.tet_coords()
    _, det, jinv = fb.tet_jacobian(tc)
    types = np.arange(m.n_elements) % 6
    assert np.abs(m.type_det_jacobians[types] - det).max() <= 1e-13
    assert np.abs(m.type_jac_invs[types] - jinv).max() <= 1e-13
    assert np.abs(m.centroids() - tc.mean(axis=1)).max() <= 1e-13
    assert abs(m.h - diameters(m).max()) <= 1e-13
    centroids = tc.mean(axis=1)
    for rows, toward in ((pairs[:, 0], centroids[pairs[:, 1] // 4]), (bfaces, None)):
        e, f = np.divmod(rows, 4)
        coords = tc[e[:, None], FACE_VERTICES[f]]
        areas, normals = face_area_and_normal(coords)
        toward = coords.mean(axis=1) if toward is None else toward
        normals *= np.sign(np.einsum("ij,ij->i", normals, toward - centroids[e]))[:, None]
        assert np.abs(m.face_normals[face_rows(e, f)] - normals).max() <= 1e-13
        assert np.abs(m.face_areas[face_rows(e, f)] - areas).max() <= 1e-13


def test_face_table_matches_a_search_of_the_neighbouring_cells():
    """Each face of cell 0 matches exactly one other face among the 24 faces of
    the 27 cells around it, and the table names that cell, face and vertex order."""
    corners = build_box_mesh(unit_cube(), (1, 1, 1)).tet_coords()  # (6, 4, 3), in cell units
    faces = corners[:, FACE_VERTICES].reshape(24, 3, 3)
    for row in range(24):
        key = set(map(tuple, faces[row]))
        hits = [(shift, other) for shift in itertools.product((-1, 0, 1), repeat=3)
                for other in range(24)
                if (shift, other) != ((0, 0, 0), row) and set(map(tuple, faces[other] + shift)) == key]
        assert len(hits) == 1
        (shift, other), = hits
        assert FACE_SHIFTS[row].tolist() == list(shift) and FACE_ACROSS[row] == other
        placed = (corners[other // 4] + shift).tolist()
        assert FACE_MATCH[row].tolist() == [placed.index(p) for p in faces[row].tolist()]


def stored_tables(m):
    """Every element's vertices and centroid as whole-mesh tables: each
    cell's corner vertex plus the vertex steps and the centroid offset of
    each Kuhn type, the types laid out from cell 0's corner."""
    (nx, ny, _), offsets = m.n, (np.array(KUHN)[..., None] >> np.arange(3)) & 1
    i, j, k = (np.arange(v) for v in m.n)
    corner = (i + (nx + 1) * (j[:, None] + (ny + 1) * k[:, None, None])).ravel()
    strides = np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    tets = (corner[:, None, None] + offsets @ strides).reshape(-1, 4)
    tc = m.vertices[tets[:6]]
    centroids = (m.vertices[tets[::6, 0], None] + (tc.mean(axis=1) - tc[0, 0])).reshape(-1, 3)
    return tets, centroids


@pytest.mark.parametrize("n", [(3, 2, 1), (2, 3, 2), (4, 2, 3)], ids=["3x2x1", "2x3x2", "4x2x3"])
def test_computed_tets_and_centroids_equal_the_whole_mesh_tables(n):
    """``tets(e)`` and ``centroids(e)`` equal the whole-mesh tables bitwise,
    for every element, a slice, an (m, k) array of elements and one element,
    on grids 1, 2 and 3 cells thick."""
    m = Mesh(ANISOTROPIC, n)
    tets, centroids = stored_tables(m)
    some = np.array([[0, m.n_elements - 1, 17], [5, 6, 11]])
    for elements in (slice(None), slice(3, None, 7), some, m.n_elements - 2):
        assert m.tets(elements).dtype == tets.dtype
        assert np.array_equal(m.tets(elements), tets[elements])
        assert np.array_equal(m.centroids(elements), centroids[elements])


@pytest.mark.parametrize("n", [(2, 3, 5), (16, 16, 4)], ids=["2x3x5", "16x16x4"])
def test_the_neighbour_table_is_the_only_per_element_array_kept(n):
    """Element vertices and centroids are computed per call, not stored."""
    m = Mesh(slab_domain(), n)
    rows = {name: v.shape[0] for name, v in vars(m).items() if isinstance(v, np.ndarray)}
    assert [name for name, r in rows.items() if r == m.n_elements] == ["neighbours"]


def test_mesh_build_allocates_at_most_twice_what_it_keeps():
    """The closed-form build holds no per-face temporaries beyond the arrays it keeps."""
    tracemalloc.start()
    try:
        m = Mesh(slab_domain(), (16, 16, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(m).values() if isinstance(v, np.ndarray))
    assert peak <= 2 * kept


@pytest.mark.parametrize("extent", [1.0, 100.0])
def test_find_elements_rejects_points_just_outside(extent):
    """The containment tolerance is 1e-10 in reference coordinates on a box of
    any size: points on the boundary are found, points 1.2e-9 h outside are not."""
    m = Mesh(BoxDomain(lo=[0, 0, 0], hi=[extent] * 3), (2, 2, 2))
    rng = np.random.default_rng(3)
    on = rng.uniform(0.0, extent, size=(60, 3))
    axis, side, rows = np.arange(60) % 3, np.arange(60) // 3 % 2, np.arange(60)
    on[rows, axis] = side * extent
    out = on.copy()
    out[rows, axis] += (2 * side - 1) * 1.2e-9 * m.h
    assert np.all(m.find_elements(on) >= 0)
    assert np.all(m.find_elements(out) == -1)


def test_faces_are_first_sides_computed_at_each_call():
    """A study level's Nitsche lift and norms (global and in a region) leave
    its mesh as built: no face table is stored on it.  The first sides name
    every face once, an interior one from its smaller element, and equal a
    lexsort matching of the faces in elements, local faces and order."""
    cfg = parse_config(ONE_LEVEL)
    built = set(vars(Mesh(cfg.domain, cfg.levels[0])))
    [(m, *_)] = _solve_levels(cfg, cfg.levels, None, vtk=False)
    assert {"dg", "l2"} == {column.norm for column in cfg.columns}
    assert any(column.region is not None for column in cfg.columns)
    assert set(vars(m)) == built

    for n in [(1, 1, 1), (3, 2, 1), (4, 4, 2)]:
        m = Mesh(ANISOTROPIC, n)
        (e, f), (be, bf) = m.faces(True), m.faces(False)
        assert 2 * e.size + be.size == 4 * m.n_elements
        assert np.all(e < m.neighbours[e, 1 + f])
        assert np.all(m.neighbours[be, 1 + bf] == m.n_elements)
        pairs, bfaces = lexsort_faces(m)
        first = np.divmod(np.sort(pairs[:, 0]), 4)  # the smaller row is the smaller element's
        assert np.array_equal(e, first[0]) and np.array_equal(f, first[1])
        last = np.divmod(np.sort(bfaces), 4)
        assert np.array_equal(be, last[0]) and np.array_equal(bf, last[1])
