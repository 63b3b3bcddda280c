"""The embedded source curve: clipping, distance field, and line functionals.

The curve is an ordered polyline.  Smooth curves are handled by sampling
them finely enough; the geometric error is then controlled by the caller.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .assembly import reference_mass
from .errors import AssemblyError
from .fields import FieldFunction

# point-segment pairs per chunk of the distance field: bounds its (n, s, 3) temporaries
_DISTANCE_PAIRS = 1 << 18


class Curve:
    """Ordered polyline with arclength bookkeeping."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("curve needs an (m, 3) array with m >= 2")
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

    def check_inside(self, domain, margin=0.0):
        """Require every curve point at distance >= margin from the boundary.

        margin 0 admits points on the closed boundary; positive margins
        enforce strict interior placement.
        """
        ok = domain.contains(self.points, margin=margin)
        if not np.all(ok):
            bad = self.points[~ok][0]
            raise ValueError(
                f"curve point {bad} is outside the domain (margin {margin})"
            )

    def point_at(self, s):
        """Point(s) at arclength s (scalar or array)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        s = np.clip(s, 0.0, self.length)
        idx = np.clip(np.searchsorted(self.cum_lengths, s, side="right") - 1, 0, self.n_segments - 1)
        t = (s - self.cum_lengths[idx]) / self.seg_lengths[idx]
        return self.points[idx] + t[:, None] * (self.points[idx + 1] - self.points[idx])


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
    the inverse of its affine map (``jac_invs``, (n, 3, 3), as stored in
    ``Mesh.jac_invs``).  Returns (t0, t1, hit): ``hit`` marks the tets whose
    intersection with the segment has positive parameter length, and for
    those 0 <= t0 < t1 <= 1.  Constraints are the four barycentric
    inequalities, so the clip is exact up to roundoff.
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


def build_restrictions(curve, mesh, length_tol_rel=1e-12):
    """Clip the curve against every element it crosses.

    Intervals are normalized per segment so overlaps at shared faces are
    assigned once (lower element index wins), which makes the per-element
    lengths an exact partition of the curve length.  Warns if an element
    carries more than 2h of curve, which breaks the short-intersection
    assumption behind the load scaling.
    """
    curve.check_inside(mesh.domain, margin=0.0)
    drop = length_tol_rel * mesh.h
    per_element = {}
    for si in range(curve.n_segments):
        p0 = curve.points[si]
        p1 = curve.points[si + 1]
        seg_len = curve.seg_lengths[si]
        s_off = curve.cum_lengths[si]
        cand = np.unique(_candidate_elements(mesh, p0, p1))
        t0s, t1s, hit = clip_segment_tets(
            p0, p1, mesh.vertices[mesh.tets[cand, 0]], mesh.jac_invs[cand]
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
    """Distance from points (n, 3) to the polyline and the nearest segment index."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = curve.points[:-1]
    d = curve.points[1:] - a
    dd = (d * d).sum(axis=1)
    best = np.empty(pts.shape[0])
    seg = np.empty(pts.shape[0], dtype=np.int64)
    chunk = max(1, _DISTANCE_PAIRS // curve.n_segments)
    for start in range(0, pts.shape[0], chunk):
        p = pts[start : start + chunk]
        diff = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("nsd,sd->ns", diff, d) / dd[None, :], 0.0, 1.0)
        proj = diff - t[:, :, None] * d[None, :, :]
        dist2 = (proj ** 2).sum(-1)
        near = dist2.argmin(axis=1)
        seg[start : start + chunk] = near
        best[start : start + chunk] = np.sqrt(np.take_along_axis(dist2, near[:, None], axis=1)[:, 0])
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


def assemble_line_rhs(curve, f, mesh, basis, restrictions=None, exactness=None):
    """Global vector b_i = integral over the curve of f(s) * phi_i ds.

    Only elements crossed by the curve receive entries.  ``f`` is a constant
    or a callable of arclength.
    """
    if restrictions is None:
        restrictions = build_restrictions(curve, mesh)
    f = _as_arclength_fn(f)
    if exactness is None:
        exactness = 2 * basis.degree + 2
    rule = _basis.segment_quadrature(exactness)
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
    ref = rel @ np.swapaxes(mesh.jac_invs[elems], 1, 2)
    vals = basis.eval(ref.reshape(-1, 3)).reshape(*s.shape, basis.dim)
    fw = np.asarray(f(s), dtype=float) * rule.weights[None, :] * lengths[:, None]
    # one quadrature term at a time: each element sums its terms in (sub-segment, point) order
    b = np.zeros((mesh.n_elements, basis.dim))
    np.add.at(b, np.repeat(elems, tq.size), (fw[:, :, None] * vals).reshape(-1, basis.dim))
    return b.ravel()


def compute_fh_field(curve, f, mesh, basis, restrictions=None, exactness=None):
    """Elementwise L2 representative of the line functional.

    On each crossed element the block mass matrix (the reference mass
    scaled by det J) is solved against the local line moments; all other
    elements are zero.
    """
    if restrictions is None:
        restrictions = build_restrictions(curve, mesh)
    b = assemble_line_rhs(curve, f, mesh, basis, restrictions=restrictions, exactness=exactness)
    elems = np.array([r.element for r in restrictions], dtype=np.int64)
    moments = b.reshape(mesh.n_elements, basis.dim)[elems]
    try:
        local = np.linalg.solve(reference_mass(basis), moments.T).T
    except np.linalg.LinAlgError as err:
        raise AssemblyError("singular reference mass matrix") from err
    coeffs = np.zeros((mesh.n_elements, basis.dim))
    coeffs[elems] = local / mesh.det_jacobians[elems, None]
    return FieldFunction(mesh, basis, coeffs)
