"""Error norms of discrete fields: global/local L2, broken energy, weighted.

Regions are open mesh-aligned boxes; element membership is decided by the
barycenter, and a face contributes to a region norm only when both adjacent
elements are inside (for the whole domain, boundary faces contribute with
one-sided jumps).  The exact solution is one object: a number, or a
callable over points that carries its ``gradient`` for the energy norms
and, when it is singular on a line, that line as its ``curve``
(``problems.LogLineSolution`` does both); the norms read both from it.
Every integral walks the mesh in blocks of about ``_BLOCK`` quadrature
values, elements in blocks of ``_BLOCK // q`` for a rule of q points and
faces in the blocks of ``assembly._face_traces``, so its temporaries grow
neither with the mesh nor with the degree, and applies one integrand rule per block
(``_sq``): subtract the exact solution, guard points off the curve, weight
by distance, square.  Two exact rules prune the integrals: with no exact
solution to subtract, elements and faces whose coefficients all vanish are
skipped, and distances to the curve are measured only where read
(``_volume_sq``).
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

    Measures only the points given (``_sq`` gives those it weights,
    ``_volume_sq`` those that may need it).  Points within 1e-12 of the
    curve move by 1e-10 * h orthogonally to their nearest segment (the
    lowest index on a tie, such as a shared vertex), far below reported
    precision.  The direction does not depend on
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


def _sq(values, exact, points, curve, alpha, h):
    """The integrand of every norm at ``points`` (n, q, 3) of a block:
    |values - exact|^2, summed over the last axis of gradient values
    (n, q, 3).  ``exact`` is a callable over points, a number or None.  Given
    ``alpha``, the points are guarded off ``curve`` (``_guard_points``) before
    ``exact`` is read, and the square is weighted by dist(x, curve)^(2 alpha).
    """
    if alpha is not None:
        points, d = _guard_points(points, curve, h)
    if callable(exact):
        values = values - np.asarray(exact(points.reshape(-1, 3)), dtype=float).reshape(values.shape)
    elif exact:
        values = values - float(exact)
    v2 = values ** 2
    v2 = v2.sum(-1) if v2.ndim == 3 else v2
    return v2 * d ** (2.0 * alpha) if alpha is not None else v2


def _volume_sq(field, elements, exact=None, grad=False, curve=None, alpha=None):
    """Integral over ``elements`` of the integrand ``_sq`` of the field, or of
    its broken gradient when ``grad``, at the fixed 2k+2 rule of q points, in
    blocks of ``_BLOCK // q`` elements (the temporaries do not grow with the
    mesh).  Given
    only ``curve``, the points of elements with centroid within h + 1e-12 of
    it are guarded off it: no other point can need it, as every point is
    within h of its centroid.  With ``exact`` None or 0, elements of zero
    coefficients (integrand 0) are dropped.  Both are exact.
    """
    mesh = field.mesh
    if not (callable(exact) or exact):
        elements = elements[field.coeffs.any(axis=1)[elements]]
    rule = _basis.tet_quadrature(2 * field.degree + 2)
    values = field.grad_in_elements if grad else field.eval_in_elements
    at_points = curve is not None or callable(exact)
    total, step = 0.0, _BLOCK // rule.n
    for start in range(0, elements.size, step):
        block = elements[start : start + step]
        pts = mesh.map_points(rule.points, block) if at_points else None
        if curve is not None and alpha is None:
            at = distance_to_curve(mesh.centroids(block), curve) <= mesh.h + _SINGULAR_SNAP
            pts[at] = _guard_points(pts[at], curve, mesh.h)[0]
        v2 = _sq(values(block, rule.points), exact, pts, curve, alpha, mesh.h)
        total += float(mesh.type_det_jacobians[block % 6] @ (v2 @ rule.weights))
    return total


def _face_sq(field, elements, local, exact=None, curve=None, alpha=None):
    """Integral over the faces opposite local vertex ``local`` of ``elements``,
    in the blocks of ``_face_traces``, of the integrand ``_sq`` of the jump of
    the field, or on boundary faces of its trace, at the fixed 2k+2 rule.
    With ``exact`` None or 0, faces of zero coefficients on every side (jump
    0) are dropped.
    """
    mesh = field.mesh
    if not (callable(exact) or exact):
        nonzero = np.append(field.coeffs.any(axis=1), False)  # False at the ghost index
        keep = nonzero[elements] | nonzero[mesh.neighbours[elements, 1 + local]]
        elements, local = elements[keep], local[keep]
    rule = _basis.tri_quadrature(2 * field.degree + 2)
    total = 0.0
    for x, w, sides in _face_traces(mesh, field.basis, rule, elements, local):
        traces = [np.einsum("fi,fqi->fq", field.coeffs[e], V) for e, V, _ in sides]
        jump = traces[0] - traces[1] if len(traces) == 2 else traces[0]
        total += float(np.einsum("fq,fq->", _sq(jump, exact, x, curve, alpha, mesh.h), w))
    return total


def _dg_sq(field, exact, sigma, region, curve=None, alpha=None):
    """Squared broken energy norm of field - exact; see ``dg_energy_error``."""
    mesh = field.mesh
    mask = region_element_mask(mesh, region)
    gradient = exact.gradient if callable(exact) else None  # a number's gradient is 0
    total = _volume_sq(field, np.flatnonzero(mask), gradient, grad=True, curve=curve, alpha=alpha)
    w_jump = sigma / mesh.grid_spacing
    e, f = mesh.faces(True)
    inside = mask[e] & mask[mesh.neighbours[e, 1 + f]]
    total += w_jump * _face_sq(field, e[inside], f[inside], curve=curve, alpha=alpha)
    if region is None:
        total += w_jump * _face_sq(field, *mesh.faces(False), exact, curve, alpha)
    return total


def l2_error(field, exact, region=None):
    """sqrt(sum over region elements of (u_h - u)^2) by quadrature.

    ``exact`` is a callable over points (n, 3) or a number (pass ``0`` for
    the plain norm of the field); ``region`` None is the whole domain.
    When ``exact`` is singular on a line it names (its ``curve``, as
    ``problems.LogLineSolution`` does), quadrature points on the line are
    guarded off it.
    """
    elements = np.flatnonzero(region_element_mask(field.mesh, region))
    return float(np.sqrt(_volume_sq(field, elements, exact, curve=getattr(exact, "curve", None))))


def dg_energy_error(field, exact, sigma, region=None):
    """Broken energy norm of (u_h - u) over a region (None: the whole domain).

    ``exact`` is a number (pass ``0`` for the plain energy norm) or a
    callable over points that carries its ``gradient``, as
    ``problems.LogLineSolution`` does; the jump weight is
    sigma / ``mesh.grid_spacing``.  Since the exact solution is continuous
    inside the region, interior-face jumps use the discrete field only; for
    the whole domain, boundary faces add the one-sided trace (u_h - u).
    No point is guarded off a line: the gradient of a solution singular on
    it is not square-integrable there, so the norm is meaningful only on
    regions away from the line.
    """
    return float(np.sqrt(_dg_sq(field, exact, sigma, region)))


def weighted_l2_norm(field, curve, alpha, exact=None):
    """L2 norm over the whole domain weighted by dist(x, curve)^(2 alpha);
    alpha in (-1, 1).

    Measures ``field - exact`` when ``exact`` is given.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must be in (-1, 1)")
    elements = np.arange(field.mesh.n_elements)
    return float(np.sqrt(_volume_sq(field, elements, exact, curve=curve, alpha=alpha)))


def weighted_dg_norm(field, curve, alpha, sigma, exact=None):
    """Distance-weighted energy norm over the whole domain; alpha in (0, 1).

    Volume part weights the broken gradient by d^(2 alpha); the jump part is
    (sigma / ``mesh.grid_spacing``) * ||d^alpha [v]||^2 over all faces.  For
    an error field, pass ``exact``, which carries its ``gradient`` as in
    ``dg_energy_error``: interior jumps of a continuous exact solution
    vanish, but its boundary trace must be subtracted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(np.sqrt(_dg_sq(field, exact, sigma, None, curve, alpha)))


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
