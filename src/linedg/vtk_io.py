"""Legacy ASCII VTK writer (unstructured grid, tetrahedra)."""

import numpy as np


def _write_rows(fh, fmt, rows):
    """Write ``fmt.format(*row)`` for each row of ``rows`` (n, c), formatted
    4096 rows at a time, so the text held does not grow with the mesh."""
    for start in range(0, len(rows), 4096):
        fh.write("".join(map(fmt.format, *rows[start : start + 4096].T.tolist())))


def write_vtk(path, mesh, cell_data=None):
    """Write the mesh and optional scalar fields as a legacy VTK file.

    ``cell_data``: dict name -> array of per-element scalars.
    """
    nt = mesh.n_elements
    nv = mesh.vertices.shape[0]
    cell_data = {name: np.asarray(values, dtype=float) for name, values in (cell_data or {}).items()}
    for name, values in cell_data.items():
        if values.shape != (nt,):
            raise ValueError(f"cell data {name!r} must have shape ({nt},)")
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\nlinedg output\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {nv} double\n")
        _write_rows(fh, "{:.12g} {:.12g} {:.12g}\n", mesh.vertices)
        fh.write(f"CELLS {nt} {5 * nt}\n")
        _write_rows(fh, "4 {} {} {} {}\n", mesh.tets)
        fh.write(f"CELL_TYPES {nt}\n" + "10\n" * nt)
        if cell_data:
            fh.write(f"CELL_DATA {nt}\n")
        for name, values in cell_data.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, "{:.12e}\n", values[:, None])


def field_cell_values(field):
    """Element-barycenter values of a discrete field, for VTK cell data."""
    bary = np.full((1, 3), 0.25)
    return field.eval_in_elements(np.arange(field.mesh.n_elements), bary)[:, 0]
