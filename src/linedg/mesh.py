"""Structured tetrahedral meshes of axis-aligned boxes.

Each grid cell is split into 6 positively oriented tetrahedra sharing the
cell's main diagonal (Kuhn split), which is conforming across cells and
yields identical element volumes, so shape regularity and quasi-uniformity
hold with constants independent of the refinement level.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from . import basis as _basis


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (lo, hi) with positive volume."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if not np.all(hi > lo):
            raise ValueError(f"box requires hi > lo componentwise, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self):
        return self.hi - self.lo

    @property
    def volume(self):
        return float(np.prod(self.extent))

    def contains(self, points, margin=0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo + margin) & (pts <= self.hi - margin), axis=1)


# The 6 tets of the Kuhn split of the unit cube, as corner offsets.  Each tet
# walks from (0,0,0) to (1,1,1) adding one unit step per axis permutation.
_AXIS_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _kuhn_corner_offsets():
    tets = []
    for perm in _AXIS_PERMS:
        corners = [np.zeros(3, dtype=np.int64)]
        for axis in perm:
            step = corners[-1].copy()
            step[axis] += 1
            corners.append(step)
        tets.append(np.stack(corners))
    return np.stack(tets)  # (6, 4, 3)


_KUHN_OFFSETS = _kuhn_corner_offsets()


class Mesh:
    """Conforming tetrahedral mesh with full face connectivity.

    Immutable after construction.  Attributes:

    - ``vertices`` (nv, 3), ``tets`` (nt, 4) positively oriented
    - ``interior_faces``: ``iface_verts`` (ni, 3), ``iface_elems`` (ni, 2)
      with the smaller element index first, ``iface_normals`` unit vectors
      pointing from the first to the second element, ``iface_areas``
    - ``boundary_faces``: ``bface_verts``, ``bface_elem``, ``bface_normals``
      (outward), ``bface_areas``
    - ``det_jacobians``, ``jac_invs``: determinant and inverse of each
      element's affine map x = vertices[tets[e, 0]] + J r
    - ``h``: max element diameter
    """

    def __init__(self, domain, n, vertices, tets):
        self.domain = domain
        self.n = tuple(int(v) for v in n)
        self.vertices = vertices
        self.tets = tets
        self._orient_positively()
        self._build_geometry()
        self._build_faces()
        self._validate()

    # -- construction helpers -------------------------------------------------

    def _orient_positively(self):
        tc = self.vertices[self.tets]
        a = tc[:, 0]
        vol6 = np.einsum(
            "ij,ij->i",
            tc[:, 1] - a,
            np.cross(tc[:, 2] - a, tc[:, 3] - a),
        )
        flip = vol6 < 0
        if np.any(flip):
            self.tets[flip, 2], self.tets[flip, 3] = (
                self.tets[flip, 3].copy(),
                self.tets[flip, 2].copy(),
            )

    def _build_geometry(self):
        tc = self.tet_coords()
        _, self.det_jacobians, self.jac_invs = _basis.tet_jacobian(tc)
        self.volumes = self.det_jacobians / 6.0
        self.centroids = tc.mean(axis=1)
        # diameter = max pairwise vertex distance
        diff = tc[:, :, None, :] - tc[:, None, :, :]
        self.diameters = np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))
        self.h = float(self.diameters.max())

    def _build_faces(self):
        nt = self.tets.shape[0]
        # local faces opposite each vertex
        local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        all_faces = self.tets[:, local].reshape(-1, 3)
        owners = np.repeat(np.arange(nt, dtype=np.int64), 4)
        key = np.sort(all_faces, axis=1)
        order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
        key_sorted = key[order]
        owners_sorted = owners[order]
        faces_sorted = all_faces[order]
        new_group = np.any(np.diff(key_sorted, axis=0) != 0, axis=1)
        group_id = np.concatenate([[0], np.cumsum(new_group)])
        counts = np.bincount(group_id)
        if counts.max(initial=0) > 2:
            raise GeometryError("non-conforming mesh: a face is shared by > 2 elements")
        first = np.searchsorted(group_id, np.arange(counts.size))

        bnd = first[counts == 1]
        self.bface_verts = faces_sorted[bnd]
        self.bface_elem = owners_sorted[bnd]

        ints = first[counts == 2]
        e1 = owners_sorted[ints]
        e2 = owners_sorted[ints + 1]
        swap = e1 > e2
        e1[swap], e2[swap] = e2[swap], e1[swap].copy()
        self.iface_verts = faces_sorted[ints]
        self.iface_elems = np.column_stack([e1, e2])

        self.iface_areas, self.iface_normals = self._face_geometry(
            self.iface_verts, toward=self.centroids[e2] - self.centroids[e1]
        )
        fc = self.vertices[self.bface_verts].mean(axis=1)
        self.bface_areas, self.bface_normals = self._face_geometry(
            self.bface_verts, toward=fc - self.centroids[self.bface_elem]
        )

    def _face_geometry(self, face_verts, toward):
        coords = self.vertices[face_verts]
        areas, normals = face_area_and_normal(coords)
        sign = np.sign(np.einsum("ij,ij->i", normals, toward))
        if np.any(sign == 0):
            raise GeometryError("face normal orthogonal to element offset")
        return areas, normals * sign[:, None]

    def _validate(self):
        if np.any(self.volumes <= 0):
            raise GeometryError("non-positive tetrahedron volume")
        total = self.volumes.sum()
        if abs(total - self.domain.volume) > 1e-12 * self.domain.volume:
            raise GeometryError(
                f"tet volumes sum to {total}, expected {self.domain.volume}"
            )

    # -- queries ---------------------------------------------------------------

    @property
    def n_elements(self):
        return self.tets.shape[0]

    def tet_coords(self, elements=None):
        if elements is None:
            return self.vertices[self.tets]
        return self.vertices[self.tets[elements]]

    @property
    def cell_size(self):
        return self.domain.extent / np.asarray(self.n, dtype=float)

    @property
    def grid_spacing(self):
        """Smallest grid pitch; the penalty length scale.

        For cube cells this equals the cell edge.  The max tet diameter
        (``h``) exceeds it by the cell-diagonal factor, and using it in the
        penalty makes the standard parameter choices lose coercivity, so the
        penalty is anchored to the pitch instead.
        """
        return float(self.cell_size.min())

    def cell_index(self, points):
        """Grid cell (ix, iy, iz) per point, clipped into range."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (pts - self.domain.lo) / self.cell_size
        idx = np.floor(rel).astype(np.int64)
        return np.clip(idx, 0, np.asarray(self.n) - 1)

    def cell_flat_index(self, cells):
        nx, ny, _ = self.n
        return cells[:, 0] + nx * (cells[:, 1] + ny * cells[:, 2])

    def cell_tets(self, flat_cells):
        """Element indices (m, 6) of the tets inside the given flat cells."""
        base = np.asarray(flat_cells, dtype=np.int64)[:, None] * 6
        return base + np.arange(6, dtype=np.int64)[None, :]

    def find_elements(self, points, tol=1e-10):
        """Containing element per point (first match, deterministic).

        Points outside the domain (beyond ``tol`` relative to h) get -1.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.cell_index(pts)
        cand = self.cell_tets(self.cell_flat_index(cells))  # (m, 6)
        out = np.full(pts.shape[0], -1, dtype=np.int64)
        eps = tol * max(self.h, 1.0)
        for local in range(6):
            todo = out < 0
            if not np.any(todo):
                break
            elems = cand[todo, local]
            tc = self.tet_coords(elems)
            ref = _basis.to_reference(tc, pts[todo][:, None, :])[:, 0, :]
            ok = np.all(ref >= -eps, axis=1) & (ref.sum(axis=1) <= 1.0 + eps)
            idx = np.flatnonzero(todo)[ok]
            out[idx] = elems[ok]
        return out

    def refine(self):
        """Uniformly refined mesh: every grid count doubled (h exactly halved)."""
        return build_box_mesh(self.domain, tuple(2 * v for v in self.n))


def face_area_and_normal(face_coords):
    """Area and unit normal of triangles given as (..., 3, 3) coordinates.

    The normal sign is the right-hand orientation of the stored vertex order;
    callers fix the direction convention.  Degenerate triangles raise.
    """
    fc = np.asarray(face_coords, dtype=float)
    single = fc.ndim == 2
    if single:
        fc = fc[None]
    cross = np.cross(fc[:, 1] - fc[:, 0], fc[:, 2] - fc[:, 0])
    norms = np.linalg.norm(cross, axis=1)
    scale = np.maximum(
        np.linalg.norm(fc[:, 1] - fc[:, 0], axis=1) * np.linalg.norm(fc[:, 2] - fc[:, 0], axis=1),
        1e-300,
    )
    if np.any(norms <= 1e-12 * scale):
        raise GeometryError("degenerate face (collinear vertices)")
    areas = 0.5 * norms
    normals = cross / norms[:, None]
    if single:
        return float(areas[0]), normals[0]
    return areas, normals


def build_box_mesh(domain, n):
    """Mesh the box with an (nx, ny, nz) grid, 6 tets per cell.

    All cells use the same corner-anchored diagonal, so the triangulation is
    conforming and h equals the cell diagonal length.
    """
    n = tuple(int(v) for v in n)
    if len(n) != 3 or any(v < 1 for v in n):
        raise ValueError(f"cell counts must be three integers >= 1, got {n}")
    nx, ny, nz = n
    xs = np.linspace(domain.lo[0], domain.hi[0], nx + 1)
    ys = np.linspace(domain.lo[1], domain.hi[1], ny + 1)
    zs = np.linspace(domain.lo[2], domain.hi[2], nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.column_stack([X.ravel(order="F"), Y.ravel(order="F"), Z.ravel(order="F")])
    # vertex id (i, j, k) -> i + (nx+1) * (j + (ny+1) * k)

    def vid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    ci = I.ravel(order="F")
    cj = J.ravel(order="F")
    ck = K.ravel(order="F")
    ncell = ci.size
    tets = np.empty((ncell, 6, 4), dtype=np.int64)
    for t in range(6):
        for v in range(4):
            off = _KUHN_OFFSETS[t, v]
            tets[:, t, v] = vid(ci + off[0], cj + off[1], ck + off[2])
    tets = tets.reshape(ncell * 6, 4)
    return Mesh(domain, n, vertices, tets)
