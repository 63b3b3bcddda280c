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

    def __eq__(self, other):
        return (isinstance(other, BoxDomain) and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

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
FACE_VERTICES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])  # of the face opposite f

# boundary elements per page of ``Mesh.boundary_pages``: at 8x8x2 and 16x16x4
# (k = 1) 16 and 64 took the time of 32 to within noise, at 32x32x8 (k = 2) 16
# was slower and 64 no faster
BOUNDARY_PAGE = 32


def _kuhn_face_table():
    """The neighbour across each of the 24 faces of the Kuhn cell, row 4 t + f
    being the face of type t opposite its local vertex f: the cell offset
    (24, 3), the neighbour's row 4 t' + f' (24,), and its local vertices (24, 3)
    in the order of the face's own ``FACE_VERTICES[f]``.

    A face lies on a cube face exactly when its three corner codes share a
    bit d: its neighbour is in the cell at +e_d (bit set) or -e_d (bit clear)
    and holds the same corners with bit d flipped.  Otherwise the face holds
    corners 0 and 7, and so does the other tet of the cell across it.
    """
    corners = _KUHN_CORNERS.tolist()
    triples = _KUHN_CORNERS[:, FACE_VERTICES].reshape(24, 3).tolist()
    rows = {}
    for row, triple in enumerate(triples):
        rows.setdefault(frozenset(triple), set()).add(row)
    shifts, across, match = np.zeros((24, 3), dtype=np.int64), [], []
    for row, triple in enumerate(triples):
        for d in range(3):  # three distinct corners share at most one bit
            bits = {c >> d & 1 for c in triple}
            if len(bits) == 1:
                shifts[row, d] = 2 * bits.pop() - 1
                triple = [c ^ (1 << d) for c in triple]
        (other,) = rows[frozenset(triple)] - {row}
        across.append(other)
        match.append([corners[other // 4].index(c) for c in triple])
    return shifts, np.array(across), np.array(match)


FACE_SHIFTS, FACE_ACROSS, FACE_MATCH = _kuhn_face_table()


class Mesh:
    """Kuhn grid of a box with n = (nx, ny, nz) cells and full face connectivity.

    Vertex (i, j, k) is i + (nx+1) * (j + (ny+1) * k), and element 6c + t is
    Kuhn type t of the cell (i, j, k) with flat index c = i + nx * (j + ny * k).
    Each element of type t is a translate of the type-t element of cell 0, so
    geometry is stored per type (element e reads row ``e % 6``) and per face
    4 t + f of type t opposite local vertex f (read at ``4 (e % 6) + f``).
    The only per-element table stored is ``neighbours``: an element's
    vertices and centroid are computed, for the elements a caller names, by
    ``tets(elements)`` and ``centroids(elements)``.
    Immutable after construction, so operators may hold it.
    Attributes:

    - ``vertices`` (nv, 3)
    - ``type_det_jacobians`` (6,), ``type_jac_invs`` (6, 3, 3) of the affine
      map x = vertices[tets(e)[0]] + J r; ``face_normals`` (24, 3) outward
      unit normals, ``face_areas`` (24,); ``h`` the largest type diameter
    - ``neighbours`` (nt, 5): each element, then the element across its face
      opposite local vertex 0..3, or the ghost index nt for a boundary face
    - ``ghost_classes`` (nc,): the sorted codes 16 t + m of the elements with
      a boundary face, t the Kuhn type and m the mask with bit f set where
      the face opposite local vertex f is on the boundary
    - ``boundary_pages`` (np, ``BOUNDARY_PAGE``): those elements, each once,
      in pages of one ghost class each, ``page_classes`` (np,) its index in
      ``ghost_classes``; classes in order, elements ascending, and each
      class's last page padded with the ghost index nt.  An operator applies
      its per-class diagonal blocks as one batched product over the pages.
    """

    def __init__(self, domain, n):
        n = tuple(int(v) for v in n)
        if len(n) != 3 or any(v < 1 for v in n):
            raise ValueError(f"cell counts must be three integers >= 1, got {n}")
        self.domain, self.n = domain, n
        self._build_lattice()
        self._build_geometry()
        self._build_neighbours()

    # -- construction helpers -------------------------------------------------

    def _build_lattice(self):
        (nx, ny, _), domain = self.n, self.domain
        axes = np.meshgrid(*(np.linspace(domain.lo[d], domain.hi[d], self.n[d] + 1)
                             for d in range(3)), indexing="ij")
        self.vertices = np.column_stack([g.ravel(order="F") for g in axes])  # first axis fastest
        self._type_steps = _KUHN_OFFSETS @ [1, nx + 1, (nx + 1) * (ny + 1)]  # (6, 4), from corner

    def _build_geometry(self):
        tc = self.tet_coords(np.arange(6))  # the types in cell 0
        _, self.type_det_jacobians, self.type_jac_invs = _basis.tet_jacobian(tc)
        a, b = np.triu_indices(4, 1)
        self.h = float(np.linalg.norm(tc[:, a] - tc[:, b], axis=-1).max())
        faces = tc[:, FACE_VERTICES].reshape(24, 3, 3)
        self.face_areas, normals = face_area_and_normal(faces)
        outward = faces.mean(axis=1) - np.repeat(tc.mean(axis=1), 4, axis=0)
        self.face_normals = normals * np.sign(np.einsum("ij,ij->i", normals, outward))[:, None]
        self._type_centroids = tc.mean(axis=1) - tc[0, 0]  # every type starts at the cell corner

    def _build_neighbours(self):
        ne, (nx, ny, nz) = self.n_elements, self.n
        table = np.empty((nz, ny, nx, 6, 5), dtype=np.int64)
        table[..., 0] = np.arange(ne).reshape(nz, ny, nx, 6)
        # the element across the face minus the first element of its own cell
        steps = 6 * FACE_SHIFTS @ [1, nx, nx * ny] + FACE_ACROSS // 4
        for row, shift in enumerate(FACE_SHIFTS):
            t, f = divmod(row, 4)
            across = table[..., t, 1 + f]
            across[...] = table[..., t, 0] + (steps[row] - t)
            for d in np.flatnonzero(shift):  # no cell beyond the last layer along d
                edge = [slice(None)] * 3
                edge[2 - d] = -1 if shift[d] > 0 else 0
                across[tuple(edge)] = ne
        # the ghost mask m of every element, one byte each, then the codes
        # 16 t + m of the elements with a boundary face only
        ghost = (table[..., 1:] == ne) @ np.array([1, 2, 4, 8], dtype=np.uint8)
        boundary = np.flatnonzero(ghost)
        codes = boundary % 6 * 16 + ghost.ravel()[boundary]
        order = np.argsort(codes, kind="stable")
        boundary, codes = boundary[order], codes[order]
        self.neighbours = table.reshape(ne, 5)
        self.ghost_classes, counts = np.unique(codes, return_counts=True)
        # a class of c elements fills ceil(c / page) pages from its first
        # page on: element j of the boundary (in class order) lands at j plus
        # the padding of the pages of the classes before it
        pages = -(-counts // BOUNDARY_PAGE)
        first = np.cumsum([0, *pages[:-1]]) * BOUNDARY_PAGE - np.cumsum([0, *counts[:-1]])
        self.boundary_pages = np.full((pages.sum(), BOUNDARY_PAGE), ne)
        self.boundary_pages.flat[np.arange(boundary.size) + np.repeat(first, counts)] = boundary
        self.page_classes = np.repeat(np.arange(counts.size), pages)

    # -- queries ---------------------------------------------------------------

    @property
    def n_elements(self):
        nx, ny, nz = self.n
        return 6 * nx * ny * nz

    def faces(self, interior):
        """First sides (elements, local faces) of the interior faces, or of the
        boundary ones, computed from ``neighbours``: element by element, its
        faces by local vertex.  An interior face counts once, from its smaller
        element, whose outward normal points into the other; a boundary face
        is one across which ``neighbours`` names the ghost index."""
        ne, across = self.n_elements, self.neighbours[:, 1:]
        first = (across > np.arange(ne)[:, None]) & (across < ne) if interior else across == ne
        return np.nonzero(first)

    def _corners(self, elements):
        """The corner vertices (...) of the cells of the given elements (an
        integer array of any shape, or a slice), c + c // nx + (nx + 1)
        (c // (nx ny)) for cell c, and the elements' Kuhn types (...)."""
        if isinstance(elements, slice):
            elements = np.arange(*elements.indices(self.n_elements))
        nx, ny, _ = self.n
        cells, types = np.divmod(elements, 6)
        return cells + cells // nx + (nx + 1) * (cells // (nx * ny)), types

    def tets(self, elements=slice(None)):
        """Vertex indices (..., 4), positively oriented, of the given elements
        (integer indices of any shape, or a slice): the corner vertex of the
        element's cell plus the vertex steps of its Kuhn type."""
        corners, types = self._corners(elements)
        return corners[..., None] + self._type_steps[types]

    def centroids(self, elements=slice(None)):
        """Barycenters (..., 3) of the given elements: the coordinates of the
        corner vertex of the element's cell plus its Kuhn type's offset."""
        corners, types = self._corners(elements)
        return self.vertices[corners] + self._type_centroids[types]

    def tet_coords(self, elements=slice(None)):
        return self.vertices[self.tets(elements)]

    def map_points(self, ref_points, elements=slice(None)):
        """Physical images (n, q, 3) of reference points (q, 3) in the given
        elements, as barycentric combinations of their vertices."""
        rp = np.asarray(ref_points, dtype=float)
        bary = np.column_stack([1.0 - rp.sum(axis=1), rp])  # (q, 4)
        return bary @ self.tet_coords(elements)

    def to_reference(self, points, elements):
        """Reference coordinates (..., q, 3) of points (..., q, 3) in the given
        elements (...), the inverse of ``map_points``: (x - x_0) J_t^{-T}, x_0
        the element's first vertex, its cell's corner, and t its Kuhn type."""
        corners, types = self._corners(elements)
        origin = self.vertices[corners][..., None, :]
        return (points - origin) @ np.swapaxes(self.type_jac_invs[types], -1, -2)

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

    def cell_flat_index(self, cells):
        nx, ny, _ = self.n
        return cells[:, 0] + nx * (cells[:, 1] + ny * cells[:, 2])

    def cell_tets(self, flat_cells):
        """Element indices (m, 6) of the tets inside the given flat cells."""
        base = np.asarray(flat_cells, dtype=np.int64)[:, None] * 6
        return base + np.arange(6, dtype=np.int64)[None, :]

    def find_elements(self, points):
        """Containing element per point (first match, deterministic), or -1.

        The 6 tets of each point's grid cell are tested at once, in reference
        coordinates to 1e-10: about 1e-10 h outside the domain, on any box.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = np.floor((pts - self.domain.lo) / self.cell_size).astype(np.int64)
        first = 6 * self.cell_flat_index(np.clip(cells, 0, np.asarray(self.n) - 1))
        ref = self.to_reference(pts[:, None, None], first[:, None] + np.arange(6))[:, :, 0]
        inside = np.all(ref >= -1e-10, axis=2) & (ref.sum(axis=2) <= 1.0 + 1e-10)
        return np.where(inside.any(axis=1), first + inside.argmax(axis=1), -1)

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
