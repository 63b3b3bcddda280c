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

    ``segments`` rows: start (3), end (3); ``lengths``; ``arclengths`` rows
    give the (s0, s1) arclength window on the original curve.
    """

    element: int
    starts: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray
    arclengths: np.ndarray

    @property
    def total_length(self):
        return float(self.lengths.sum())


def clip_segment_tet(p0, p1, tet_coords):
    """Parameter interval of segment p0->p1 inside a closed tetrahedron.

    Returns (t0, t1) in [0, 1] or None when the intersection is empty or has
    zero length.  Constraints are the four barycentric inequalities, so the
    clip is exact up to roundoff.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    r0, r1 = _basis.to_reference(tet_coords, np.stack([p0, p1]))
    # barycentric coordinates affine in t: lam_i(t) = alpha_i + beta_i t >= 0
    alpha = np.concatenate([r0, [1.0 - r0.sum()]])
    beta = np.concatenate([r1 - r0, [-(r1 - r0).sum()]])
    lo, hi = 0.0, 1.0
    for al, be in zip(alpha, beta):
        if abs(be) < 1e-300:
            if al < -1e-12:
                return None
            continue
        t_cross = -al / be
        if be > 0:
            lo = max(lo, t_cross)
        else:
            hi = min(hi, t_cross)
        if lo >= hi:
            return None
    if hi <= lo:
        return None
    return lo, hi


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
        found = []
        for e in np.unique(_candidate_elements(mesh, p0, p1)):
            res = clip_segment_tet(p0, p1, mesh.tet_coords(int(e)))
            if res is None:
                continue
            t0, t1 = res
            if (t1 - t0) * seg_len < drop:
                continue
            found.append((t0, t1, int(e)))
        # deterministic overlap resolution: sweep by (t0, element)
        found.sort()
        cursor = 0.0
        for t0, t1, e in found:
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
    chunk = max(1, int(2e7) // max(curve.n_segments, 1))
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
    b = np.zeros(mesh.n_elements * basis.dim)
    for r in restrictions:
        # quadrature points on every sub-segment at once
        x = r.starts[:, None, :] + tq[None, :, None] * (r.ends - r.starts)[:, None, :]
        s = r.arclengths[:, 0][:, None] + tq[None, :] * (
            r.arclengths[:, 1] - r.arclengths[:, 0]
        )[:, None]
        ref = _basis.to_reference(mesh.tet_coords(r.element), x.reshape(-1, 3))
        vals = basis.eval(ref).reshape(x.shape[0], tq.size, basis.dim)
        fw = np.asarray(f(s), dtype=float) * rule.weights[None, :] * r.lengths[:, None]
        b[r.element * basis.dim : (r.element + 1) * basis.dim] += np.einsum(
            "sq,sqi->i", fw, vals
        )
    return b


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
