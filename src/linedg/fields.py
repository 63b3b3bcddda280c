"""Discrete broken-polynomial fields and measurement regions."""

import numpy as np


class FieldFunction:
    """Piecewise polynomial on a mesh: one coefficient block per element.

    Coefficients are nodal values of the element basis, stored as
    ``coeffs[element, local_dof]``.
    """

    def __init__(self, mesh, basis, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.n_elements, basis.dim):
            raise ValueError(
                f"coefficient array must be (n_elements, {basis.dim}), got {coeffs.shape}"
            )
        self.mesh = mesh
        self.basis = basis
        self.coeffs = coeffs

    @property
    def degree(self):
        return self.basis.degree

    @classmethod
    def from_vector(cls, mesh, basis, vec):
        return cls(mesh, basis, np.asarray(vec, dtype=float).reshape(mesh.n_elements, basis.dim))

    def eval_in_elements(self, elements, ref_points):
        """Values at shared reference points inside the given elements.

        ``ref_points``: (q, 3), returns (len(elements), q).
        """
        vals = self.basis.eval(ref_points)  # (q, nb)
        return self.coeffs[elements] @ vals.T

    def grad_in_elements(self, elements, ref_points):
        """Physical gradients, shape (len(elements), q, 3).

        The coefficients meet the reference gradients first, so only the
        field's gradient, not every basis gradient, is pushed by J^{-T}.
        """
        g = self.basis.grad(ref_points)  # (q, nb, 3)
        q, nb, _ = g.shape
        ref = (self.coeffs[elements] @ g.transpose(1, 0, 2).reshape(nb, 3 * q)).reshape(-1, q, 3)
        return ref @ self.mesh.type_jac_invs[elements % 6]

    def evaluate(self, points):
        """Point evaluation; each point uses its containing element's block."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        elems = self.mesh.find_elements(pts)
        if np.any(elems < 0):
            raise ValueError("point outside the mesh")
        ref = self.mesh.to_reference(pts[:, None], elems)[:, 0]
        return np.einsum("ni,ni->n", self.coeffs[elems], self.basis.eval(ref))


def interpolate(fn, mesh, basis):
    """Nodal interpolant of a point function into the broken space."""
    phys = mesh.map_points(basis.nodes)  # (nt, nb, 3)
    vals = np.asarray(fn(phys.reshape(-1, 3)), dtype=float).reshape(mesh.n_elements, basis.dim)
    return FieldFunction(mesh, basis, vals)


def check_region_aligned(domain, n, region):
    """Validate that a ``BoxDomain`` region lies in ``domain`` with its faces on the
    planes of the (nx, ny, nz) grid ``n`` (to 1e-9 of a cell)."""
    tol = 1e-9
    cell = domain.extent / np.asarray(n, dtype=float)
    for name, vals in (("lo", region.lo), ("hi", region.hi)):
        steps = (vals - domain.lo) / cell
        if np.any(np.abs(steps - np.round(steps)) > tol):
            raise ValueError(
                f"region {name}={vals} is not aligned with the mesh planes "
                f"(cell size {cell})"
            )
    if np.any(region.lo < domain.lo - tol * cell) or np.any(region.hi > domain.hi + tol * cell):
        raise ValueError("region box must lie inside the domain")


def region_element_mask(mesh, region):
    """Boolean element mask of a ``BoxDomain`` region, or of the whole domain for
    None; an element belongs when its barycenter lies strictly inside.  As the
    region is a union of grid cells and every barycenter lies strictly inside
    its cell, that is when its cell lies in the region."""
    if region is None:
        return np.ones(mesh.n_elements, dtype=bool)
    check_region_aligned(mesh.domain, mesh.n, region)
    lo, hi = (np.rint((v - mesh.domain.lo) / mesh.cell_size).astype(int)
              for v in (region.lo, region.hi))
    cells = np.zeros(mesh.n[::-1], dtype=bool)  # (nz, ny, nx): flat cell i + nx (j + ny k)
    cells[lo[2]:hi[2], lo[1]:hi[1], lo[0]:hi[0]] = True
    return np.repeat(cells.ravel(), 6)
