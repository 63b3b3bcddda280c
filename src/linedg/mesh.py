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

    def contains(self, points):
        """Mask of the points inside the closed box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)


# The 6 tets of the Kuhn split of the unit cube, positively oriented, as cube
# corners: bit d of a corner is set on the far side along axis d.  Each tet
# walks from corner 0 to corner 7 with one unit step per axis.
_KUHN_CORNERS = np.array(
    [[0, 1, 3, 7], [0, 1, 7, 5], [0, 2, 7, 3], [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 7, 6]]
)
_KUHN_OFFSETS = (_KUHN_CORNERS[..., None] >> np.arange(3)) & 1  # (6, 4, 3)


class Mesh:
    """Kuhn grid of a box with n = (nx, ny, nz) cells and full face connectivity.

    Vertex (i, j, k) is i + (nx+1) * (j + (ny+1) * k), and element 6c + t is
    Kuhn type t of the cell (i, j, k) with flat index c = i + nx * (j + ny * k).
    Immutable after construction, so operators may share its arrays.
    Attributes:

    - ``vertices`` (nv, 3), ``tets`` (nt, 4) positively oriented
    - ``interior_faces``: ``iface_verts`` (ni, 3), ``iface_elems`` (ni, 2)
      with the smaller element index first, ``iface_local`` (ni, 2) int8 the
      local vertex of each element that the face is opposite,
      ``iface_normals`` unit vectors pointing from the first to the second
      element, ``iface_areas``
    - ``boundary_faces``: ``bface_verts``, ``bface_elem``, ``bface_local``,
      ``bface_normals`` (outward), ``bface_areas``
    - ``neighbours`` (nt, 5): each element, then the element across its face
      opposite local vertex 0..3, or the ghost index nt for a boundary face
    - ``ghost_classes`` (nc,): the sorted codes 16 t + m of the elements with
      a boundary face, t the Kuhn type and m the mask with bit f set where
      the face opposite local vertex f is on the boundary;
      ``boundary_elements`` those elements in class order, class i taking
      rows ``class_bounds[i]:class_bounds[i + 1]``
    - ``det_jacobians``, ``jac_invs``: determinant and inverse of each
      element's affine map x = vertices[tets[e, 0]] + J r
    - ``h``: max element diameter
    """

    def __init__(self, domain, n):
        n = tuple(int(v) for v in n)
        if len(n) != 3 or any(v < 1 for v in n):
            raise ValueError(f"cell counts must be three integers >= 1, got {n}")
        self.domain, self.n = domain, n
        self._build_lattice()
        self._build_geometry()
        self._build_faces()
        self._build_neighbours()

    # -- construction helpers -------------------------------------------------

    def _build_lattice(self):
        def lattice(*axes):  # every point of the tensor grid, the first axis fastest
            return np.column_stack([g.ravel(order="F") for g in np.meshgrid(*axes, indexing="ij")])

        (nx, ny, _), domain = self.n, self.domain
        self.vertices = lattice(*(np.linspace(domain.lo[d], domain.hi[d], self.n[d] + 1)
                                  for d in range(3)))
        corners = lattice(*map(np.arange, self.n))[:, None, None, :] + _KUHN_OFFSETS  # (c, 6, 4, 3)
        self.tets = (corners @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])).reshape(-1, 4)

    def _build_geometry(self):
        tc = self.tet_coords()
        _, self.det_jacobians, self.jac_invs = _basis.tet_jacobian(tc)
        self.volumes = self.det_jacobians / 6.0
        self.centroids = tc.mean(axis=1)
        # diameter = longest of the 6 edges
        a, b = np.triu_indices(4, 1)
        diff = tc[:, a] - tc[:, b]
        self.diameters = np.sqrt((diff ** 2).sum(-1)).max(axis=1)
        self.h = float(self.diameters.max())

    def _build_faces(self):
        # row 4e + f is the face of element e opposite its local vertex f
        local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        all_faces = self.tets[:, local].reshape(-1, 3)
        key = np.sort(all_faces, axis=1)
        order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
        key_sorted = key[order]
        owners_sorted, local_sorted = np.divmod(order, 4)
        local_sorted = local_sorted.astype(np.int8)
        faces_sorted = all_faces[order]
        new_group = np.any(np.diff(key_sorted, axis=0) != 0, axis=1)
        group_id = np.concatenate([[0], np.cumsum(new_group)])
        counts = np.bincount(group_id)  # 1 or 2: the Kuhn grid is conforming
        first = np.searchsorted(group_id, np.arange(counts.size))

        bnd = first[counts == 1]
        self.bface_verts = faces_sorted[bnd]
        self.bface_elem = owners_sorted[bnd]
        self.bface_local = local_sorted[bnd]

        ints = first[counts == 2]
        pair = np.column_stack([ints, ints + 1])
        swap = owners_sorted[ints] > owners_sorted[ints + 1]
        pair[swap] = pair[swap, ::-1]
        self.iface_verts = faces_sorted[ints]
        self.iface_elems = owners_sorted[pair]
        self.iface_local = local_sorted[pair]
        e1, e2 = self.iface_elems.T

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
        return areas, normals * np.sign(np.einsum("ij,ij->i", normals, toward))[:, None]

    def _build_neighbours(self):
        ne = self.n_elements
        table = np.full((ne, 5), ne)
        table[:, 0] = np.arange(ne)
        for s in (0, 1):
            table[self.iface_elems[:, s], 1 + self.iface_local[:, s]] = self.iface_elems[:, 1 - s]
        codes = np.arange(ne) % 6 * 16 + (table[:, 1:] == ne) @ (1 << np.arange(4))
        order = np.argsort(codes, kind="stable")
        self.neighbours, self.boundary_elements = table, order[codes[order] % 16 > 0]
        self.ghost_classes, counts = np.unique(codes[self.boundary_elements], return_counts=True)
        self.class_bounds = np.cumsum([0, *counts])

    # -- queries ---------------------------------------------------------------

    @property
    def n_elements(self):
        return self.tets.shape[0]

    def tet_coords(self, elements=None):
        if elements is None:
            return self.vertices[self.tets]
        return self.vertices[self.tets[elements]]

    def map_points(self, ref_points, elements=slice(None)):
        """Physical images (n, q, 3) of reference points (q, 3) in the given
        elements, as barycentric combinations of their vertices."""
        rp = np.asarray(ref_points, dtype=float)
        bary = np.column_stack([1.0 - rp.sum(axis=1), rp])  # (q, 4)
        return bary @ self.vertices[self.tets[elements]]

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

    def find_elements(self, points):
        """Containing element per point (first match, deterministic).

        Points outside the domain (beyond 1e-10 relative to h) get -1.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.cell_index(pts)
        cand = self.cell_tets(self.cell_flat_index(cells))  # (m, 6)
        out = np.full(pts.shape[0], -1, dtype=np.int64)
        eps = 1e-10 * max(self.h, 1.0)
        for local in range(6):
            todo = out < 0
            if not np.any(todo):
                break
            elems = cand[todo, local]
            origin = self.vertices[self.tets[elems, 0]]
            ref = np.einsum("nde,ne->nd", self.jac_invs[elems], pts[todo] - origin)
            ok = np.all(ref >= -eps, axis=1) & (ref.sum(axis=1) <= 1.0 + eps)
            idx = np.flatnonzero(todo)[ok]
            out[idx] = elems[ok]
        return out

    def coarsen(self):
        """Coarser mesh of the same box: every grid count halved (h exactly doubled).

        Every fine element then lies inside one element of the result.
        Raises ValueError unless every count is even.
        """
        if any(v % 2 for v in self.n):
            raise ValueError(f"cannot coarsen grid {self.n}: every cell count must be even")
        return Mesh(self.domain, tuple(v // 2 for v in self.n))


def face_area_and_normal(face_coords):
    """Areas and unit normals of triangles given as (n, 3, 3) coordinates.

    The normal sign is the right-hand orientation of the stored vertex order;
    callers fix the direction convention.  Degenerate triangles raise.
    """
    fc = np.asarray(face_coords, dtype=float)
    cross = np.cross(fc[:, 1] - fc[:, 0], fc[:, 2] - fc[:, 0])
    norms = np.linalg.norm(cross, axis=1)
    scale = np.maximum(
        np.linalg.norm(fc[:, 1] - fc[:, 0], axis=1) * np.linalg.norm(fc[:, 2] - fc[:, 0], axis=1),
        1e-300,
    )
    if np.any(norms <= 1e-12 * scale):
        raise GeometryError("degenerate face (collinear vertices)")
    return 0.5 * norms, cross / norms[:, None]


def build_box_mesh(domain, n):
    """``Mesh(domain, n)``: the box meshed by an (nx, ny, nz) grid, 6 tets per cell.

    All cells use the same corner-anchored diagonal, so the triangulation is
    conforming and h equals the cell diagonal length.
    """
    return Mesh(domain, n)
