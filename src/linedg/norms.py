"""Error norms of discrete fields: global/local L2, broken energy, weighted.

Regions are open mesh-aligned boxes; element membership is decided by the
barycenter, and a face contributes to a region norm only when both adjacent
elements are inside (for the whole domain, boundary faces contribute with
one-sided jumps).  Two exact rules prune the integrals: with no exact solution
to subtract, elements and faces whose coefficients all vanish are skipped, and
distances to the curve are measured only where read (``_volume_sq``).
"""

import numpy as np

from . import basis as _basis
from .assembly import _BLOCK, _face_traces
from .curve import distance_to_curve, nearest_segments
from .fields import region_element_mask

_SINGULAR_SNAP = 1e-12
_SINGULAR_PUSH = 1e-10


def _guard_points(points, curve, h):
    """Nudge quadrature points off the curve so singular integrands stay finite.

    Measures only the points given (``_volume_sq`` gives those that may need
    it).  Points within 1e-12 of the curve move by 1e-10 * h orthogonally to
    their nearest segment (the lowest index on a tie, such as a shared
    vertex), far below reported precision.  The direction does not depend on
    the curve's orientation: the coordinate axis least aligned with the
    segment, projected onto the segment's normal plane.  Returns the guarded
    points and their distances to the curve.
    """
    flat = points.reshape(-1, 3)
    d, seg = nearest_segments(flat, curve)
    close = np.flatnonzero(d < _SINGULAR_SNAP)
    if close.size == 0:
        return points, d.reshape(points.shape[:-1])
    s = np.diff(curve.points, axis=0)[seg[close]]
    s /= np.linalg.norm(s, axis=1)[:, None]
    rows = np.arange(close.size)
    axis = np.abs(s).argmin(axis=1)
    radial = -s[rows, axis][:, None] * s
    radial[rows, axis] += 1.0
    radial /= np.linalg.norm(radial, axis=1)[:, None]
    flat = flat.copy()
    flat[close] += _SINGULAR_PUSH * h * radial
    d[close] = distance_to_curve(flat[close], curve)
    return flat.reshape(points.shape), d.reshape(points.shape[:-1])


def _minus(values, exact, points):
    """values - exact at the points; ``exact`` is a callable over points, a number or None."""
    if callable(exact):
        return values - np.asarray(exact(points.reshape(-1, 3)), dtype=float).reshape(values.shape)
    return values - float(exact) if exact else values


def _volume_sq(field, elements, exact=None, grad=False, curve=None, alpha=None):
    """Integral over ``elements`` of |v - exact|^2, with v the field, or its
    broken gradient when ``grad``, at the fixed 2k+2 rule, in blocks of
    ``_BLOCK`` elements (the temporaries do not grow with the mesh).
    Given ``alpha``, weighted by dist(x, curve)^(2 alpha) at points guarded off
    ``curve`` (``_guard_points``); given only ``curve``, the points of elements
    with centroid within h + 1e-12 of it are guarded: no other point can need
    it, as every point is within h of its centroid.  With ``exact`` None or 0,
    elements of zero coefficients (integrand 0) are dropped.  Both are exact.
    """
    mesh = field.mesh
    if not (callable(exact) or exact):
        elements = elements[field.coeffs[elements].any(axis=1)]
    if curve is not None and alpha is None:
        near = distance_to_curve(mesh.centroids[elements], curve) <= mesh.h + _SINGULAR_SNAP
    rule = _basis.tet_quadrature(2 * field.degree + 2)
    values = field.grad_in_elements if grad else field.eval_in_elements
    at_points = curve is not None or callable(exact)
    total = 0.0
    for start in range(0, elements.size, _BLOCK):
        block = elements[start : start + _BLOCK]
        v = values(block, rule.points)
        pts = mesh.map_points(rule.points, block) if at_points else None
        if alpha is not None:
            pts, d = _guard_points(pts, curve, mesh.h)
        elif curve is not None:
            at = near[start : start + _BLOCK]
            pts[at] = _guard_points(pts[at], curve, mesh.h)[0]
        v2 = _minus(v, exact, pts) ** 2  # (n, q) or (n, q, 3)
        v2 = v2.sum(-1) if grad else v2
        if alpha is not None:
            v2 *= d ** (2.0 * alpha)
        total += float(mesh.type_det_jacobians[block % 6] @ (v2 @ rule.weights))
    return total


def _face_sq(field, elements, local, exact=None, curve=None, alpha=None):
    """Integral over the faces opposite local vertex ``local`` of ``elements``
    (``_face_traces``) of the squared jump of the field, or on boundary faces
    of its trace minus ``exact``, at the fixed 2k+2 rule; weighted by
    dist(x, curve)^(2 alpha) given ``curve`` and ``alpha``.  With ``exact``
    None or 0, faces of zero coefficients on every side (jump 0) are dropped.
    """
    mesh = field.mesh
    if not (callable(exact) or exact):
        nonzero = np.append(field.coeffs.any(axis=1), False)  # False at the ghost index
        keep = nonzero[elements] | nonzero[mesh.neighbours[elements, 1 + local]]
        elements, local = elements[keep], local[keep]
    rule = _basis.tri_quadrature(2 * field.degree + 2)
    x, w, sides = _face_traces(mesh, field.basis, rule, elements, local)
    traces = [np.einsum("fi,fqi->fq", field.coeffs[e], V) for e, V, _ in sides]
    jump2 = _minus(traces[0] - traces[1] if len(traces) == 2 else traces[0], exact, x) ** 2
    if alpha is None:
        return float(np.einsum("fq,fq->", jump2, w))
    d = distance_to_curve(x.reshape(-1, 3), curve).reshape(w.shape)
    return float(np.einsum("fq,fq,fq->", jump2, d ** (2.0 * alpha), w))


def _dg_sq(field, exact, exact_grad, sigma, region, curve=None, alpha=None):
    """Squared broken energy norm of field - exact; see ``dg_energy_error``."""
    mesh = field.mesh
    mask = region_element_mask(mesh, region)
    total = _volume_sq(field, np.flatnonzero(mask), exact_grad, grad=True, curve=curve, alpha=alpha)
    w_jump = sigma / mesh.grid_spacing
    faces = mask[mesh.iface_elems[:, 0]] & mask[mesh.iface_elems[:, 1]]
    total += w_jump * _face_sq(field, mesh.iface_elems[faces, 0], mesh.iface_local[faces, 0],
                               curve=curve, alpha=alpha)
    if region is None:
        total += w_jump * _face_sq(field, mesh.bface_elem, mesh.bface_local, exact, curve, alpha)
    return total


def l2_error(field, exact, region=None, singular_curve=None):
    """sqrt(sum over region elements of (u_h - u)^2) by quadrature.

    ``exact`` is a callable over points (n, 3) or a number (pass ``0`` for
    the plain norm of the field); ``region`` None is the whole domain.
    Given ``singular_curve``, quadrature points on it are guarded off it.
    """
    elements = np.flatnonzero(region_element_mask(field.mesh, region))
    return float(np.sqrt(_volume_sq(field, elements, exact, curve=singular_curve)))


def dg_energy_error(field, exact, exact_grad, sigma, region=None):
    """Broken energy norm of (u_h - u) over a region (None: the whole domain).

    ``exact`` / ``exact_grad`` are callables over points (pass 0 / 0 for the
    plain energy norm); the jump weight is sigma / ``mesh.grid_spacing``.
    Since the exact solution is continuous inside the region, interior-face
    jumps use the discrete field only; for the whole domain, boundary faces
    add the one-sided trace (u_h - u).
    """
    return float(np.sqrt(_dg_sq(field, exact, exact_grad, sigma, region)))


def dg_norm(field, sigma, region=None):
    """Broken energy norm of a discrete field."""
    return dg_energy_error(field, 0, 0, sigma, region=region)


def weighted_l2_norm(field, curve, alpha, exact=None, region=None):
    """L2 norm weighted by dist(x, curve)^(2 alpha); alpha in (-1, 1).

    Measures ``field - exact`` when ``exact`` is given.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must be in (-1, 1)")
    elements = np.flatnonzero(region_element_mask(field.mesh, region))
    return float(np.sqrt(_volume_sq(field, elements, exact, curve=curve, alpha=alpha)))


def weighted_dg_norm(field, curve, alpha, sigma, exact=None, exact_grad=None):
    """Distance-weighted energy norm over the whole domain; alpha in (0, 1).

    Volume part weights the broken gradient by d^(2 alpha); the jump part is
    (sigma / ``mesh.grid_spacing``) * ||d^alpha [v]||^2 over all faces.  For
    an error field, pass ``exact``/``exact_grad``: interior jumps of a
    continuous exact solution vanish, but its boundary trace must be
    subtracted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(np.sqrt(_dg_sq(field, exact, exact_grad, sigma, None, curve, alpha)))


def convergence_rates(errors, hs):
    """Pairwise observed orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 2:
        raise ValueError("need equally many errors and mesh sizes, at least two")
    if np.any(np.diff(hs) >= 0):
        raise ValueError("mesh sizes must be strictly decreasing")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to compute rates")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:]))
