"""The embedded source curve: clipping, distance field, and line functionals.

The curve is an ordered polyline.  Smooth curves are handled by sampling
them finely enough; the geometric error is then controlled by the caller.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .assembly import local_projection
from .errors import AssemblyError
from .fields import FieldFunction

# points per block of the distance field: a few (3, block) rows stay in cache
_DISTANCE_BLOCK = 1 << 14


class Curve:
    """Ordered polyline with arclength bookkeeping."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("curve needs an (m, 3) array with m >= 2")
        if not np.isfinite(pts).all():
            raise ValueError("curve points must be finite")
        seg = np.diff(pts, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        if np.any(lengths <= 0):
            raise ValueError("curve contains a zero-length segment")
        self.points = pts
        self.seg_lengths = lengths
        self.cum_lengths = np.concatenate([[0.0], np.cumsum(lengths)])
        self.length = float(self.cum_lengths[-1])

    def check_inside(self, domain):
        """Require every curve point in the closed domain box."""
        ok = domain.contains(self.points)
        if not np.all(ok):
            raise ValueError(f"curve point {self.points[~ok][0]} is outside the domain")


@dataclass
class LineRestriction:
    """Sub-segments of the curve inside one element.

    ``starts``, ``ends`` (m, 3): end points of the m sub-segments;
    ``lengths`` (m,); ``arclengths`` (m, 2) rows give the (s0, s1) arclength
    window on the original curve.
    """

    element: int
    starts: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray
    arclengths: np.ndarray

    @property
    def total_length(self):
        return float(self.lengths.sum())


def clip_segment_tets(ref):
    """Parameter intervals of a segment inside many closed tetrahedra, given
    its end points in the reference coordinates of each (``ref`` (n, 2, 3),
    as ``Mesh.to_reference`` maps them).  Returns (t0, t1, hit): ``hit``
    marks the tets whose intersection with the segment has positive
    parameter length, and for those 0 <= t0 < t1 <= 1.  Constraints are the
    four barycentric inequalities, so the clip is exact up to roundoff.  A
    constraint that changes by at most 1e-12 along the segment (the tolerance
    of "outside") is parallel: it keeps the whole segment or none of it, so a
    segment lying in a face is not cut to nothing by the roundoff of its
    barycentric coordinates there.
    """
    r0, r1 = ref[:, 0], ref[:, 1]
    # barycentric coordinates affine in t: lam_i(t) = alpha_i + beta_i t >= 0
    alpha = np.column_stack([r0, 1.0 - r0.sum(axis=1)])
    beta = np.column_stack([r1 - r0, -(r1 - r0).sum(axis=1)])
    enter = beta > 1e-12
    leave = beta < -1e-12
    parallel_outside = ~(enter | leave) & (alpha < -1e-12)
    t_cross = -alpha / np.where(enter | leave, beta, 1.0)
    t0 = np.where(enter, t_cross, 0.0).max(axis=1)
    t1 = np.where(leave, t_cross, 1.0).min(axis=1)
    return t0, t1, (t0 < t1) & ~parallel_outside.any(axis=1)


def _walked_cells(mesh, p0, p1):
    """The grid cells that the segments p0 -> p1 (ns, 3) walk through, as
    sorted unique (segment, flat cell) pairs.  The grid planes a segment
    crosses cut it into intervals, each inside one closed cell: the cell of
    each interval's midpoint is taken, and along any axis where that midpoint
    lies within 1e-9 max(h, 1) of a grid plane, the cell across it too."""
    size, n, pad = mesh.cell_size, np.asarray(mesh.n), 1e-9 * max(mesh.h, 1.0)
    r0, r1 = (p0 - mesh.domain.lo) / size, (p1 - mesh.domain.lo) / size  # in cells
    # one row 3 s + axis per grid plane that segment s crosses along that axis
    lo, hi = np.minimum(r0, r1), np.maximum(r0, r1)
    first = np.ceil(lo)
    count = np.where(lo < hi, np.floor(hi) - first + 1, 0).astype(np.int64).ravel()
    rows = np.repeat(np.arange(count.size), count)
    plane = first.ravel()[rows] + np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    t = (plane - r0.ravel()[rows]) / (r1 - r0).ravel()[rows]
    seg = np.concatenate([rows // 3, np.repeat(np.arange(len(p0)), 2)])
    t = np.concatenate([t, np.tile([0.0, 1.0], len(p0))])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    inner = seg[1:] == seg[:-1]
    seg, mid = seg[1:][inner], 0.5 * (t[1:] + t[:-1])[inner]
    rel = r0[seg] + mid[:, None] * (r1 - r0)[seg]
    near, below = np.rint(rel), np.floor(rel)
    on_plane = np.abs(rel - near) * size <= pad
    sides = np.stack([np.where(on_plane, near - 1, below), np.where(on_plane, near, below)], 1)
    corner = (np.arange(8)[:, None] >> np.arange(3)) & 1  # (8, 3): which side per axis
    cells = np.clip(sides[:, corner, np.arange(3)], 0, n - 1).astype(np.int64).reshape(-1, 3)
    key = np.repeat(seg, 8) * n.prod() + mesh.cell_flat_index(cells)
    key.sort()  # not np.unique, which imports numpy.ma on its first call
    return np.divmod(key[np.append(True, key[1:] != key[:-1])], n.prod())


def build_restrictions(curve, mesh):
    """Clip the curve against every element it crosses.

    All segments are clipped at once against the tets of the grid cells they
    walk through (``_walked_cells``), so a segment of length L costs O(L/h)
    cells.  Intervals are normalized per segment so overlaps at shared faces
    are assigned once (lower element index wins), which makes the per-element
    lengths an exact partition of the curve length; pieces shorter than
    1e-12 h are dropped.  Warns if an element carries more than 2h of
    curve, which breaks the short-intersection assumption behind the load
    scaling.
    """
    curve.check_inside(mesh.domain)
    drop = 1e-12 * mesh.h
    p0, p1, seg_len = curve.points[:-1], curve.points[1:], curve.seg_lengths
    seg, cells = _walked_cells(mesh, p0, p1)
    seg, elems = np.repeat(seg, 6), mesh.cell_tets(cells).ravel()
    t0s, t1s, hit = clip_segment_tets(mesh.to_reference(np.stack([p0[seg], p1[seg]], 1), elems))
    keep = np.flatnonzero(hit & ((t1s - t0s) * seg_len[seg] >= drop))
    # deterministic overlap resolution: sweep each segment by (t0, t1, element)
    keep = keep[np.lexsort((elems[keep], t1s[keep], t0s[keep], seg[keep]))]
    rows, row_t0, current, lens = [], [], -1, seg_len.tolist()
    for i, s, t0, t1 in zip(keep.tolist(), seg[keep].tolist(), t0s[keep].tolist(),
                            t1s[keep].tolist()):
        if s != current:
            current, cursor = s, 0.0
        t0 = max(t0, cursor)
        if (t1 - t0) * lens[s] >= drop:
            cursor = t1
            rows.append(i)
            row_t0.append(t0)
    if not rows:
        raise AssemblyError(f"curve of length {curve.length:.3g} is below the clipping "
                            f"resolution: no piece in an element reaches 1e-12 h = {drop:.3g}")
    by_element = np.argsort(elems[rows], kind="stable")
    rows, t0 = np.array(rows, dtype=np.int64)[by_element], np.array(row_t0)[by_element]
    seg, t1, elems = seg[rows], t1s[rows], elems[rows]
    lengths = (t1 - t0) * seg_len[seg]
    firsts = np.flatnonzero(np.diff(elems, prepend=-1))  # each element's first row
    per_element = np.add.reduceat(lengths, firsts).tolist()
    covered = sum(per_element)
    if abs(covered - curve.length) > 1e-9 * curve.length:
        raise AssemblyError(
            f"curve clipping lost length: covered {covered}, curve {curve.length}"
        )
    starts = p0[seg] + t0[:, None] * (p1 - p0)[seg]
    ends = p0[seg] + t1[:, None] * (p1 - p0)[seg]
    arcs = curve.cum_lengths[seg, None] + np.column_stack([t0, t1]) * seg_len[seg, None]
    bounds = np.append(firsts, elems.size).tolist()
    out = [LineRestriction(e, starts[i:j], ends[i:j], lengths[i:j], arcs[i:j])
           for e, i, j in zip(elems[firsts].tolist(), bounds, bounds[1:])]
    longest = max(per_element)
    if longest > 2.0 * mesh.h:
        warnings.warn(
            f"an element carries {longest:.3g} of curve (> 2h = {2 * mesh.h:.3g}); "
            "the line-load scaling assumes short per-element intersections",
            stacklevel=2,
        )
    return out


def nearest_segments(points, curve):
    """Distance from points (n, 3) to the polyline and the nearest segment index.

    Points are taken in blocks of ``_DISTANCE_BLOCK``, each held as three
    contiguous coordinate rows, and measured against one segment at a time
    in ascending index order; a point moves to a later segment only when it
    is strictly closer, so a tie goes to the lowest index.  Non-finite points
    raise ``ValueError``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = curve.points[:-1]
    d = curve.points[1:] - a
    dd = (d * d).sum(axis=1)
    best = np.empty(pts.shape[0])
    seg = np.empty(pts.shape[0], dtype=np.int64)
    for start in range(0, pts.shape[0], _DISTANCE_BLOCK):
        xyz = np.array(pts[start : start + _DISTANCE_BLOCK].T, order="C")
        if not np.isfinite(xyz).all():
            raise ValueError("distance to the curve needs finite points")
        x, y, z = xyz
        block_d2 = best[start : start + _DISTANCE_BLOCK]
        block_seg = seg[start : start + _DISTANCE_BLOCK]
        block_d2.fill(np.inf)
        for s in range(a.shape[0]):
            (a0, a1, a2), (d0, d1, d2) = a[s], d[s]
            dx, dy, dz = x - a0, y - a1, z - a2
            t = np.clip((dx * d0 + dy * d1 + dz * d2) / dd[s], 0.0, 1.0)
            dx -= t * d0
            dy -= t * d1
            dz -= t * d2
            dist2 = dx * dx + dy * dy + dz * dz
            closer = dist2 < block_d2
            np.copyto(block_d2, dist2, where=closer)
            np.copyto(block_seg, s, where=closer)
        np.sqrt(block_d2, out=block_d2)
    return best, seg


def distance_to_curve(points, curve):
    """Exact distance from points to the polyline.

    Accepts one point (3,) or many (n, 3); returns a float or an (n,) array.
    """
    best, _ = nearest_segments(points, curve)
    return best if np.ndim(points) > 1 else float(best[0])


def assemble_line_rhs(curve, f, mesh, basis, restrictions=None):
    """Global vector b_i = integral over the curve of f(s) * phi_i ds.

    Only elements crossed by the curve receive entries.  ``f`` is a constant
    or a callable of arclength; each sub-segment uses the 2k+2 Gauss rule.
    """
    if restrictions is None:
        restrictions = build_restrictions(curve, mesh)
    rule = _basis.segment_quadrature(2 * basis.degree + 2)
    tq = rule.points[:, 0]
    # every sub-segment of every restriction, with its element
    elems = np.concatenate([np.full(r.lengths.size, r.element) for r in restrictions])
    starts = np.concatenate([r.starts for r in restrictions])
    ends = np.concatenate([r.ends for r in restrictions])
    lengths = np.concatenate([r.lengths for r in restrictions])
    arcs = np.concatenate([r.arclengths for r in restrictions])
    x = starts[:, None, :] + tq[None, :, None] * (ends - starts)[:, None, :]
    s = arcs[:, :1] + tq[None, :] * (arcs[:, 1] - arcs[:, 0])[:, None]
    vals = basis.eval(mesh.to_reference(x, elems).reshape(-1, 3)).reshape(*s.shape, basis.dim)
    fw = np.asarray(f(s) if callable(f) else f, dtype=float) * rule.weights[None, :] * lengths[:, None]
    # one quadrature term at a time: each element sums its terms in (sub-segment, point) order
    b = np.zeros((mesh.n_elements, basis.dim))
    np.add.at(b, np.repeat(elems, tq.size), (fw[:, :, None] * vals).reshape(-1, basis.dim))
    return b.ravel()


def compute_fh_field(curve, f, mesh, basis, restrictions=None):
    """Elementwise L2 representative of the line functional.

    On each crossed element the local L2 projection of the line moments
    (``assembly.local_projection``); all other elements are zero.
    AssemblyError when the reference mass is singular.
    """
    if restrictions is None:
        restrictions = build_restrictions(curve, mesh)
    b = assemble_line_rhs(curve, f, mesh, basis, restrictions=restrictions)
    elems = np.array([r.element for r in restrictions], dtype=np.int64)
    moments = b.reshape(mesh.n_elements, basis.dim)[elems]
    coeffs = np.zeros((mesh.n_elements, basis.dim))
    coeffs[elems] = local_projection(mesh, basis, moments, elems)
    return FieldFunction(mesh, basis, coeffs)
