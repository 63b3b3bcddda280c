import itertools
import tracemalloc

import numpy as np
import pytest

from linedg import basis as fb
from linedg.mesh import (
    FACE_ACROSS, FACE_MATCH, FACE_SHIFTS, FACE_VERTICES, BoxDomain, Mesh, build_box_mesh,
    face_area_and_normal,
)
from linedg.errors import GeometryError


def unit_cube():
    return BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1])


def slab_domain():
    return BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def face_rows(elements, local):
    """Rows 4 t + f of the per-(type, local face) tables."""
    return 4 * (elements % 6) + local


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
    assert m.bface_elem.shape[0] == 12
    assert m.iface_elems.shape[0] == 6


def test_unit_cell_is_the_kuhn_table():
    """Vertex ids of a 1x1x1 grid are cube corners: bit d set on the far side along axis d."""
    m = build_box_mesh(unit_cube(), (1, 1, 1))
    expected = [[0, 1, 3, 7], [0, 1, 7, 5], [0, 2, 7, 3], [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 7, 6]]
    assert np.array_equal(m.tets, expected)


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
    tripled = np.sort(m.tets[:, local].reshape(-1, 3), axis=1)
    _, counts = np.unique(tripled, axis=0, return_counts=True)
    assert set(counts.tolist()) <= {1, 2}
    assert (counts == 1).sum() == m.bface_elem.shape[0]
    assert (counts == 2).sum() == m.iface_elems.shape[0]


@pytest.mark.parametrize("n", [(3, 2, 1), (4, 4, 2)], ids=["3x2x1", "4x4x2"])
def test_neighbour_table_matches_the_faces(n):
    """Across each interior face the table names the other element, each
    boundary face maps to the ghost index ne, and each (element, local face)
    pair is one face exactly once."""
    m = Mesh(slab_domain(), n)
    ne, table = m.n_elements, m.neighbours
    assert table.shape == (ne, 5) and np.array_equal(table[:, 0], np.arange(ne))
    (e0, e1), (f0, f1) = m.iface_elems.T, m.iface_local.T
    assert np.array_equal(table[e0, 1 + f0], e1) and np.array_equal(table[e1, 1 + f1], e0)
    assert np.all(table[m.bface_elem, 1 + m.bface_local] == ne)
    pairs = np.concatenate([4 * e0 + f0, 4 * e1 + f1, 4 * m.bface_elem + m.bface_local])
    assert np.array_equal(np.sort(pairs), np.arange(4 * ne))


def test_ghost_classes_group_the_boundary_elements():
    """``boundary_elements`` holds each element with a boundary face once, in
    class order, and every element of class i has code ``ghost_classes[i]``."""
    m = build_box_mesh(slab_domain(), (4, 4, 2))
    ghost = m.neighbours[:, 1:] == m.n_elements
    assert np.array_equal(np.sort(m.boundary_elements), np.flatnonzero(ghost.any(axis=1)))
    codes = m.boundary_elements % 6 * 16 + ghost[m.boundary_elements] @ (1 << np.arange(4))
    per_row = np.repeat(m.ghost_classes, np.diff(m.class_bounds))
    assert np.array_equal(codes, per_row) and np.all(np.diff(m.ghost_classes) > 0)
    assert len(m.ghost_classes) == 18


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
    offset = m.centroids[m.iface_elems[:, 1]] - m.centroids[m.iface_elems[:, 0]]
    normals = m.face_normals[face_rows(m.iface_elems[:, 0], m.iface_local[:, 0])]
    assert np.all(np.einsum("ij,ij->i", normals, offset) > 0)
    assert np.allclose(np.linalg.norm(m.face_normals, axis=1), 1.0, atol=1e-14)


def test_boundary_normals_outward():
    m = build_box_mesh(slab_domain(), (2, 2, 1))
    fc = m.vertices[m.tets[m.bface_elem[:, None], FACE_VERTICES[m.bface_local]]].mean(axis=1)
    out = fc - m.centroids[m.bface_elem]
    normals = m.face_normals[face_rows(m.bface_elem, m.bface_local)]
    assert np.all(np.einsum("ij,ij->i", normals, out) > 0)


def test_find_elements():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    rng = np.random.default_rng(5)
    pts = rng.uniform([0, 0, 0], [1, 1, 0.25], size=(200, 3))
    elems = m.find_elements(pts)
    assert np.all(elems >= 0)
    # each point must lie inside the closed reported element
    ref = np.einsum("nmd,nd->nm", m.type_jac_invs[elems % 6], pts - m.vertices[m.tets[elems, 0]])
    assert np.all(ref >= -1e-9)
    assert np.all(ref.sum(axis=1) <= 1 + 1e-9)


def test_face_areas_total():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    # boundary area of the box: 2*(1*1) + 4*(1*0.25)
    areas = m.face_areas[face_rows(m.bface_elem, m.bface_local)]
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
    expected = m.vertices[m.tets[:, 0]][:, None] + np.einsum("nde,qe->nqd", J, ref)
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
    key = np.sort(m.tets[:, FACE_VERTICES].reshape(-1, 3), axis=1)
    order = np.lexsort(key.T[::-1])
    group = np.concatenate([[0], np.cumsum(np.any(np.diff(key[order], axis=0) != 0, axis=1))])
    counts = np.bincount(group)
    first = np.searchsorted(group, np.arange(counts.size))
    pairs = first[counts == 2]
    return np.sort(order[np.column_stack([pairs, pairs + 1])], axis=1), order[first[counts == 1]]


def reference_layout(m):
    """Neighbour table and ghost classes scattered from the lexsorted faces."""
    pairs, _ = lexsort_faces(m)
    ne = m.n_elements
    table = np.full((ne, 5), ne)
    table[:, 0] = np.arange(ne)
    for s in (0, 1):
        e, f = np.divmod(pairs[:, s], 4)
        table[e, 1 + f] = pairs[:, 1 - s] // 4
    codes = np.arange(ne) % 6 * 16 + (table[:, 1:] == ne) @ (1 << np.arange(4))
    order = np.argsort(codes, kind="stable")
    boundary = order[codes[order] % 16 > 0]
    classes, counts = np.unique(codes[boundary], return_counts=True)
    return table, boundary, classes, np.cumsum([0, *counts])


ANISOTROPIC = BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.4])


@pytest.mark.parametrize("n", [(1, 1, 1), (3, 2, 1), (2, 3, 5), (4, 4, 2)],
                         ids=["1x1x1", "3x2x1", "2x3x5", "4x4x2"])
def test_closed_form_build_matches_the_lexsorted_faces(n):
    """Connectivity from the 24-row face table equals face matching by lexsort,
    and the per-type geometry equals the per-element and per-face geometry
    computed from each element's own vertices."""
    m = Mesh(ANISOTROPIC, n)
    table, boundary, classes, bounds = reference_layout(m)
    assert np.array_equal(m.neighbours, table)
    assert np.array_equal(m.boundary_elements, boundary)
    assert np.array_equal(m.ghost_classes, classes) and np.array_equal(m.class_bounds, bounds)

    pairs, bfaces = lexsort_faces(m)
    mine = 4 * m.iface_elems + m.iface_local
    assert np.all(m.iface_elems[:, 0] < m.iface_elems[:, 1])
    assert np.array_equal(mine[np.argsort(mine[:, 0])], pairs[np.argsort(pairs[:, 0])])
    assert np.array_equal(np.sort(4 * m.bface_elem + m.bface_local), np.sort(bfaces))

    tc = m.tet_coords()
    _, det, jinv = fb.tet_jacobian(tc)
    types = np.arange(m.n_elements) % 6
    assert np.abs(m.type_det_jacobians[types] - det).max() <= 1e-13
    assert np.abs(m.type_jac_invs[types] - jinv).max() <= 1e-13
    assert np.abs(m.centroids - tc.mean(axis=1)).max() <= 1e-13
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
