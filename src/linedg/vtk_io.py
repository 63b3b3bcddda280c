"""Legacy ASCII VTK writer (unstructured grid, tetrahedra)."""

from functools import lru_cache

import numpy as np


def _format_rows(fmt, n, rows):
    """``fmt.format(*row)`` for each of the n rows (n, c) that ``rows(s)``
    gives by slices s, read and joined 4096 rows at a time, so neither the
    rows nor the Python values made for formatting grow with the mesh."""
    for start in range(0, n, 4096):
        yield "".join(map(fmt.format, *rows(slice(start, start + 4096)).T.tolist()))


@lru_cache(maxsize=1)
def _mesh_text(mesh):
    """The file up to its cell data: header, POINTS, CELLS and CELL_TYPES.

    Formatted once per mesh, as every snapshot of a march shares its mesh,
    and held for the last mesh written only: 158,858 bytes at 16x16x4.  The
    element vertices are computed one chunk of rows at a time."""
    nt, nv = mesh.n_elements, mesh.vertices.shape[0]
    return "".join([
        "# vtk DataFile Version 3.0\nlinedg output\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        f"POINTS {nv} double\n",
        *_format_rows("{:.12g} {:.12g} {:.12g}\n", nv, mesh.vertices.__getitem__),
        f"CELLS {nt} {5 * nt}\n",
        *_format_rows("4 {} {} {} {}\n", nt, mesh.tets),
        f"CELL_TYPES {nt}\n" + "10\n" * nt,
    ])


def write_vtk(path, mesh, cell_data=None):
    """Write the mesh and optional scalar fields as a legacy VTK file.

    ``cell_data``: dict name -> array of per-element scalars.
    """
    nt = mesh.n_elements
    cell_data = {name: np.asarray(values, dtype=float) for name, values in (cell_data or {}).items()}
    for name, values in cell_data.items():
        if values.shape != (nt,):
            raise ValueError(f"cell data {name!r} must have shape ({nt},)")
    with open(path, "w") as fh:
        fh.write(_mesh_text(mesh))
        if cell_data:
            fh.write(f"CELL_DATA {nt}\n")
        for name, values in cell_data.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.writelines(_format_rows("{:.12e}\n", nt, lambda s: values[s, None]))


def field_cell_values(field):
    """Element-barycenter values of a discrete field, for VTK cell data."""
    bary = np.full((1, 3), 0.25)
    return field.eval_in_elements(np.arange(field.mesh.n_elements), bary)[:, 0]
