"""Legacy ASCII VTK writer (unstructured grid, tetrahedra)."""

import numpy as np


def write_vtk(path, mesh, cell_data=None):
    """Write the mesh and optional scalar fields as a legacy VTK file.

    ``cell_data``: dict name -> array of per-element scalars.
    """
    cell_data = cell_data or {}
    nt = mesh.n_elements
    nv = mesh.vertices.shape[0]
    lines = [
        "# vtk DataFile Version 3.0",
        "linedg output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    lines.extend(map("{:.12g} {:.12g} {:.12g}".format, *mesh.vertices.T.tolist()))
    lines.append(f"CELLS {nt} {5 * nt}")
    lines.extend(map("4 {} {} {} {}".format, *mesh.tets.T.tolist()))
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["10"] * nt)
    if cell_data:
        lines.append(f"CELL_DATA {nt}")
        for name, values in cell_data.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (nt,):
                raise ValueError(f"cell data {name!r} must have shape ({nt},)")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(map("{:.12e}".format, values.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def field_cell_values(field):
    """Element-barycenter values of a discrete field, for VTK cell data."""
    bary = np.full((1, 3), 0.25)
    return field.eval_in_elements(np.arange(field.mesh.n_elements), bary)[:, 0]
