import numpy as np
import pytest

from linedg import basis as fb
from linedg.fields import interpolate
from linedg.mesh import BoxDomain, build_box_mesh
from linedg import vtk_io
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
    c = mesh.centroids()
    expected = 2 * c[:, 0] + c[:, 2]
    assert np.allclose(vals, expected, atol=1e-12)


def _write_vtk_rowwise(path, mesh, cell_data):
    """The file format spelled out one numpy row at a time, as a reference."""
    nt, nv = mesh.n_elements, mesh.vertices.shape[0]
    lines = ["# vtk DataFile Version 3.0", "linedg output", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    for p in mesh.vertices:
        lines.append(f"{p[0]:.12g} {p[1]:.12g} {p[2]:.12g}")
    lines.append(f"CELLS {nt} {5 * nt}")
    for t in mesh.tets():
        lines.append(f"4 {t[0]} {t[1]} {t[2]} {t[3]}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["10"] * nt)
    lines.append(f"CELL_DATA {nt}")
    for name, values in cell_data.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines.extend(f"{v:.12e}" for v in values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _assert_bytes_match_rowwise_format(tmp_path, n):
    mesh = build_box_mesh(BoxDomain(lo=[-0.3, 0, 1e-3], hi=[1, 1.0 / 3.0, 7]), n)
    rng = np.random.default_rng(5)
    cell_data = {"u": rng.standard_normal(mesh.n_elements) * 1e5,
                 "rank": np.arange(mesh.n_elements, dtype=float)}
    write_vtk(tmp_path / "fast.vtk", mesh, cell_data=cell_data)
    _write_vtk_rowwise(tmp_path / "rows.vtk", mesh, cell_data)
    assert (tmp_path / "fast.vtk").read_bytes() == (tmp_path / "rows.vtk").read_bytes()


def test_vtk_bytes_match_rowwise_format(tmp_path):
    _assert_bytes_match_rowwise_format(tmp_path, (2, 2, 1))


def test_vtk_bytes_match_rowwise_format_over_several_blocks(tmp_path):
    """5,184 cells: the writer formats them in more than one block of rows."""
    _assert_bytes_match_rowwise_format(tmp_path, (12, 12, 6))


def test_mesh_text_is_formatted_once_per_mesh(tmp_path):
    """Snapshots of one mesh format its POINTS, CELLS and CELL_TYPES once and
    write only their cell data anew; each file stays byte-identical to the
    row-wise format, and a second mesh is formatted for itself."""
    meshes = [build_box_mesh(BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25]), n)
              for n in ((16, 16, 4), (2, 2, 1))]
    rng = np.random.default_rng(3)
    vtk_io._mesh_text.cache_clear()
    for i, mesh in enumerate([meshes[0]] * 3 + [meshes[1]]):
        cell_data = {"u": rng.standard_normal(mesh.n_elements)}
        write_vtk(tmp_path / f"snap{i}.vtk", mesh, cell_data=cell_data)
        _write_vtk_rowwise(tmp_path / f"rows{i}.vtk", mesh, cell_data)
        assert (tmp_path / f"snap{i}.vtk").read_bytes() == (tmp_path / f"rows{i}.vtk").read_bytes()
    info = vtk_io._mesh_text.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert len(vtk_io._mesh_text(meshes[1])) < len((tmp_path / "snap3.vtk").read_text())
