"""Discrete broken-polynomial fields and measurement regions."""

from dataclasses import dataclass

import numpy as np

from . import basis as _basis


class FieldFunction:
    """Piecewise polynomial on a mesh: one coefficient block per element.

    Coefficients are nodal values of the element basis, stored as
    ``coeffs[element, local_dof]``.  Fields support +, -, scalar * for
    error-field arithmetic on a shared mesh/basis.
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

    @property
    def n_dof(self):
        return self.coeffs.size

    def as_vector(self):
        return self.coeffs.ravel().copy()

    @classmethod
    def from_vector(cls, mesh, basis, vec):
        return cls(mesh, basis, np.asarray(vec, dtype=float).reshape(mesh.n_elements, basis.dim))

    @classmethod
    def zero(cls, mesh, basis):
        return cls(mesh, basis, np.zeros((mesh.n_elements, basis.dim)))

    def eval_in_elements(self, elements, ref_points):
        """Values at shared reference points inside the given elements.

        ``ref_points``: (q, 3), returns (len(elements), q).
        """
        vals = self.basis.eval(ref_points)  # (q, nb)
        return self.coeffs[elements] @ vals.T

    def grad_in_elements(self, elements, ref_points):
        """Physical gradients, shape (len(elements), q, 3)."""
        g = self.basis.grad(ref_points)  # (q, nb, 3)
        phys = _basis.push_gradients(g[None], self.mesh.jac_invs[elements][:, None])
        return np.einsum("ni,nqid->nqd", self.coeffs[elements], phys)

    def evaluate(self, points):
        """Point evaluation; each point uses its containing element's block."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        elems = self.mesh.find_elements(pts)
        if np.any(elems < 0):
            raise ValueError("point outside the mesh")
        out = np.empty(pts.shape[0])
        tc = self.mesh.tet_coords(elems)
        ref = _basis.to_reference(tc, pts[:, None, :])[:, 0, :]
        vals = self.basis.eval(ref)  # (n, nb)
        out[:] = np.einsum("ni,ni->n", self.coeffs[elems], vals)
        return out

    def _check_compatible(self, other):
        if other.mesh is not self.mesh or other.basis is not self.basis:
            raise ValueError("fields must share mesh and basis")

    def __add__(self, other):
        self._check_compatible(other)
        return FieldFunction(self.mesh, self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return FieldFunction(self.mesh, self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FieldFunction(self.mesh, self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__


def interpolate(fn, mesh, basis):
    """Nodal interpolant of a point function into the broken space."""
    ref_nodes = basis.nodes
    phys = _basis.map_to_physical(mesh.tet_coords(), ref_nodes)  # (nt, nb, 3)
    vals = np.asarray(fn(phys.reshape(-1, 3)), dtype=float).reshape(mesh.n_elements, basis.dim)
    return FieldFunction(mesh, basis, vals)


class WholeDomain:
    """Marker region covering all of the domain (boundary faces included)."""

    def __repr__(self):
        return "WholeDomain()"


@dataclass(frozen=True)
class Box:
    """Open axis-aligned sub-box used for local error measurement."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if not np.all(hi > lo):
            raise ValueError("region box requires hi > lo componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def check_region_aligned(mesh, region, tol=1e-9):
    """Validate that a Box region's faces coincide with mesh planes."""
    if region is None or isinstance(region, WholeDomain):
        return
    cell = mesh.cell_size
    for name, vals in (("lo", region.lo), ("hi", region.hi)):
        steps = (vals - mesh.domain.lo) / cell
        if np.any(np.abs(steps - np.round(steps)) > tol):
            raise ValueError(
                f"region {name}={vals} is not aligned with the mesh planes "
                f"(cell size {cell})"
            )
    if np.any(region.lo < mesh.domain.lo - tol * cell) or np.any(
        region.hi > mesh.domain.hi + tol * cell
    ):
        raise ValueError("region box must lie inside the domain")


def region_element_mask(mesh, region):
    """Boolean element mask; membership decided by the barycenter."""
    if region is None or isinstance(region, WholeDomain):
        return np.ones(mesh.n_elements, dtype=bool)
    check_region_aligned(mesh, region)
    c = mesh.centroids
    return np.all((c > region.lo) & (c < region.hi), axis=1)
