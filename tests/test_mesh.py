import numpy as np
import pytest

from linedg import basis as fb
from linedg.mesh import BoxDomain, Mesh, build_box_mesh, face_area_and_normal
from linedg.errors import GeometryError


def unit_cube():
    return BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1])


def slab_domain():
    return BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain(lo=[0, 0, 0], hi=[1, 0, 1])


def test_single_cell_counts():
    m = build_box_mesh(unit_cube(), (1, 1, 1))
    assert m.n_elements == 6
    assert abs(m.volumes.sum() - 1.0) < 1e-12
    assert m.bface_verts.shape[0] == 12
    assert m.iface_verts.shape[0] == 6


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
    assert np.allclose(m.volumes, expected, rtol=1e-12)


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
    assert (counts == 1).sum() == m.bface_verts.shape[0]
    assert (counts == 2).sum() == m.iface_verts.shape[0]


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
    dots = np.einsum("ij,ij->i", m.iface_normals, offset)
    assert np.all(dots > 0)
    assert np.allclose(np.linalg.norm(m.iface_normals, axis=1), 1.0, atol=1e-14)


def test_boundary_normals_outward():
    m = build_box_mesh(slab_domain(), (2, 2, 1))
    fc = m.vertices[m.bface_verts].mean(axis=1)
    out = fc - m.centroids[m.bface_elem]
    assert np.all(np.einsum("ij,ij->i", m.bface_normals, out) > 0)
    assert np.allclose(np.linalg.norm(m.bface_normals, axis=1), 1.0, atol=1e-14)


def test_find_elements():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    rng = np.random.default_rng(5)
    pts = rng.uniform([0, 0, 0], [1, 1, 0.25], size=(200, 3))
    elems = m.find_elements(pts)
    assert np.all(elems >= 0)
    # each point must lie inside the closed reported element
    ref = np.einsum("nmd,nd->nm", m.jac_invs[elems], pts - m.vertices[m.tets[elems, 0]])
    assert np.all(ref >= -1e-9)
    assert np.all(ref.sum(axis=1) <= 1 + 1e-9)


def test_face_areas_total():
    m = build_box_mesh(slab_domain(), (4, 4, 1))
    # boundary area of the box: 2*(1*1) + 4*(1*0.25)
    assert abs(m.bface_areas.sum() - (2 * 1.0 + 4 * 0.25)) < 1e-12


def shape_ratios(m):
    # diameter over inradius; inradius = 3 V / surface area
    local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    tc = m.tet_coords()
    areas = np.zeros(m.n_elements)
    for f in range(4):
        fc = tc[:, local[f], :]
        cross = np.cross(fc[:, 1] - fc[:, 0], fc[:, 2] - fc[:, 0])
        areas += 0.5 * np.linalg.norm(cross, axis=1)
    rho = 3.0 * m.volumes / areas
    return m.diameters / rho


def test_shape_regularity_constant_across_refinement():
    coarse = build_box_mesh(slab_domain(), (4, 4, 1))
    fine = build_box_mesh(coarse.domain, (8, 8, 2))
    rc = shape_ratios(coarse)
    rf = shape_ratios(fine)
    assert abs(rc.max() - rf.max()) < 1e-10
    # quasi-uniformity: every diameter equals the global h on these grids
    assert np.allclose(fine.diameters, fine.h, rtol=1e-12)


def test_map_points_matches_pointwise_affine_map():
    """The barycentric map of every element equals x0 + J r from basis."""
    m = build_box_mesh(BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.5]), (5, 7, 2))
    ref = np.vstack([fb.tet_quadrature(6).points, fb.make_basis(2).nodes])
    J, _, _ = fb.tet_jacobian(m.tet_coords())
    expected = m.vertices[m.tets[:, 0]][:, None] + np.einsum("nde,qe->nqd", J, ref)
    assert np.abs(m.map_points(ref) - expected).max() <= 1e-14
    some = np.array([0, 17, m.n_elements - 1])
    assert np.array_equal(m.map_points(ref, some), m.map_points(ref)[some])
