import numpy as np
import pytest

from linedg import basis as fb
from linedg.fields import interpolate
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.vtk_io import field_cell_values, write_vtk


def test_vtk_file_structure(tmp_path):
    mesh = build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1]), (2, 2, 2))
    field = interpolate(lambda p: p[:, 0], mesh, fb.make_basis(1))
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, cell_data={"u": field_cell_values(field)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "ASCII" in text[2]
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert text[4] == f"POINTS {mesh.vertices.shape[0]} double"
    cells_at = text.index(f"CELLS {mesh.n_elements} {5 * mesh.n_elements}")
    types_at = text.index(f"CELL_TYPES {mesh.n_elements}")
    assert types_at > cells_at
    assert text[types_at + 1] == "10"
    assert f"CELL_DATA {mesh.n_elements}" in text
    assert "SCALARS u double 1" in text

    # cell connectivity references valid vertices
    row = text[cells_at + 1].split()
    assert row[0] == "4"
    assert all(0 <= int(v) < mesh.vertices.shape[0] for v in row[1:])


def test_vtk_shape_validation(tmp_path):
    mesh = build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1]), (1, 1, 1))
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", mesh, cell_data={"u": np.zeros(3)})


def test_cell_values_are_barycenter_values():
    mesh = build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 1]), (2, 2, 2))
    field = interpolate(lambda p: 2 * p[:, 0] + p[:, 2], mesh, fb.make_basis(1))
    vals = field_cell_values(field)
    expected = 2 * mesh.centroids[:, 0] + mesh.centroids[:, 2]
    assert np.allclose(vals, expected, atol=1e-12)
