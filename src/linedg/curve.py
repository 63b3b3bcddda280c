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

    @property
    def n_segments(self):
        return self.points.shape[0] - 1

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


def clip_segment_tets(p0, p1, origins, jac_invs):
    """Parameter intervals of segment p0->p1 inside many closed tetrahedra.

    Each tetrahedron is given by its first vertex (``origins``, (n, 3)) and
    the inverse of its affine map (``jac_invs``, (n, 3, 3), as stored per
    Kuhn type in ``Mesh.type_jac_invs``).  Returns (t0, t1, hit): ``hit``
    marks the tets whose intersection with the segment has positive
    parameter length, and for those 0 <= t0 < t1 <= 1.  Constraints are the
    four barycentric inequalities, so the clip is exact up to roundoff.
    """
    ends = np.stack([np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)])
    ref = (ends[None] - origins[:, None, :]) @ np.swapaxes(jac_invs, 1, 2)
    r0, r1 = ref[:, 0], ref[:, 1]
    # barycentric coordinates affine in t: lam_i(t) = alpha_i + beta_i t >= 0
    alpha = np.column_stack([r0, 1.0 - r0.sum(axis=1)])
    beta = np.column_stack([r1 - r0, -(r1 - r0).sum(axis=1)])
    enter = beta >= 1e-300
    leave = beta <= -1e-300
    # |beta| < 1e-300: the segment is parallel to that face
    parallel_outside = ~(enter | leave) & (alpha < -1e-12)
    t_cross = -alpha / np.where(enter | leave, beta, 1.0)
    t0 = np.where(enter, t_cross, 0.0).max(axis=1)
    t1 = np.where(leave, t_cross, 1.0).min(axis=1)
    return t0, t1, (t0 < t1) & ~parallel_outside.any(axis=1)


def _candidate_elements(mesh, p0, p1):
    """Tets whose grid cells overlap the segment bounding box."""
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    pad = 1e-9 * max(mesh.h, 1.0)
    c_lo = mesh.cell_index((lo - pad)[None, :])[0]
    c_hi = mesh.cell_index((hi + pad)[None, :])[0]
    ix = np.arange(c_lo[0], c_hi[0] + 1)
    iy = np.arange(c_lo[1], c_hi[1] + 1)
    iz = np.arange(c_lo[2], c_hi[2] + 1)
    IX, IY, IZ = np.meshgrid(ix, iy, iz, indexing="ij")
    cells = np.column_stack([IX.ravel(), IY.ravel(), IZ.ravel()])
    return mesh.cell_tets(mesh.cell_flat_index(cells)).ravel()


def build_restrictions(curve, mesh):
    """Clip the curve against every element it crosses.

    Intervals are normalized per segment so overlaps at shared faces are
    assigned once (lower element index wins), which makes the per-element
    lengths an exact partition of the curve length; pieces shorter than
    1e-12 h are dropped.  Warns if an element carries more than 2h of
    curve, which breaks the short-intersection assumption behind the load
    scaling.
    """
    curve.check_inside(mesh.domain)
    drop = 1e-12 * mesh.h
    per_element = {}
    for si in range(curve.n_segments):
        p0 = curve.points[si]
        p1 = curve.points[si + 1]
        seg_len = curve.seg_lengths[si]
        s_off = curve.cum_lengths[si]
        cand = np.unique(_candidate_elements(mesh, p0, p1))
        t0s, t1s, hit = clip_segment_tets(
            p0, p1, mesh.vertices[mesh.tets[cand, 0]], mesh.type_jac_invs[cand % 6]
        )
        keep = hit & ((t1s - t0s) * seg_len >= drop)
        t0s, t1s, cand = t0s[keep], t1s[keep], cand[keep]
        # deterministic overlap resolution: sweep by (t0, t1, element)
        order = np.lexsort((cand, t1s, t0s))
        cursor = 0.0
        for t0, t1, e in zip(t0s[order].tolist(), t1s[order].tolist(), cand[order].tolist()):
            t0 = max(t0, cursor)
            if (t1 - t0) * seg_len < drop:
                continue
            cursor = t1
            a = p0 + t0 * (p1 - p0)
            b = p0 + t1 * (p1 - p0)
            per_element.setdefault(e, []).append(
                (a, b, (t1 - t0) * seg_len, s_off + t0 * seg_len, s_off + t1 * seg_len)
            )

    out = []
    for e in sorted(per_element):
        rows = per_element[e]
        starts = np.array([r[0] for r in rows])
        ends = np.array([r[1] for r in rows])
        lengths = np.array([r[2] for r in rows])
        arcs = np.array([[r[3], r[4]] for r in rows])
        out.append(LineRestriction(e, starts, ends, lengths, arcs))

    covered = sum(r.total_length for r in out)
    if abs(covered - curve.length) > 1e-9 * curve.length:
        raise AssemblyError(
            f"curve clipping lost length: covered {covered}, curve {curve.length}"
        )
    longest = max((r.total_length for r in out), default=0.0)
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


def _as_arclength_fn(f):
    if callable(f):
        return f
    value = float(f)
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


def assemble_line_rhs(curve, f, mesh, basis, restrictions=None):
    """Global vector b_i = integral over the curve of f(s) * phi_i ds.

    Only elements crossed by the curve receive entries.  ``f`` is a constant
    or a callable of arclength; each sub-segment uses the 2k+2 Gauss rule.
    """
    if restrictions is None:
        restrictions = build_restrictions(curve, mesh)
    f = _as_arclength_fn(f)
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
    rel = x - mesh.vertices[mesh.tets[elems, 0]][:, None, :]
    ref = rel @ np.swapaxes(mesh.type_jac_invs[elems % 6], 1, 2)
    vals = basis.eval(ref.reshape(-1, 3)).reshape(*s.shape, basis.dim)
    fw = np.asarray(f(s), dtype=float) * rule.weights[None, :] * lengths[:, None]
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
