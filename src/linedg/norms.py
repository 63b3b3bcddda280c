"""Error norms of discrete fields: global/local L2, broken energy, weighted.

Regions are open mesh-aligned boxes; element membership is decided by the
barycenter, and a face contributes to a region norm only when both adjacent
elements are inside (for the whole domain, boundary faces contribute with
one-sided jumps).
"""

import numpy as np

from . import basis as _basis
from .assembly import _face_traces
from .curve import distance_to_curve, nearest_segments
from .fields import WholeDomain, region_element_mask

_SINGULAR_SNAP = 1e-12
_SINGULAR_PUSH = 1e-10


def _element_quad_points(mesh, elements, rule):
    tc = mesh.tet_coords(elements)
    return _basis.map_to_physical(tc, rule.points)  # (n, q, 3)


def _guard_points(points, curve, h):
    """Nudge quadrature points off the curve so singular integrands stay finite.

    Points within 1e-12 of the curve move by 1e-10 * h orthogonally to their
    nearest segment, far below reported precision.  The direction does not
    depend on the curve's orientation: the coordinate axis least aligned with
    the segment, projected onto the segment's normal plane.  Returns the
    guarded points and their distances to the curve.
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


def l2_error(field, exact, region=None, exactness=None, singular_curve=None):
    """sqrt(sum over region elements of (u_h - u)^2) by quadrature.

    ``exact`` is a callable over points (n, 3) (pass ``0`` for the plain
    norm of the field).
    """
    mesh = field.mesh
    mask = region_element_mask(mesh, region)
    elements = np.flatnonzero(mask)
    if elements.size == 0:
        return 0.0
    if exactness is None:
        exactness = 2 * field.degree + 2
    rule = _basis.tet_quadrature(exactness)
    uh = field.eval_in_elements(elements, rule.points)  # (n, q)
    pts = _element_quad_points(mesh, elements, rule)
    if singular_curve is not None:
        pts, _ = _guard_points(pts, singular_curve, mesh.h)
    if callable(exact):
        ue = np.asarray(exact(pts.reshape(-1, 3)), dtype=float).reshape(uh.shape)
    else:
        ue = float(exact)
    diff2 = (uh - ue) ** 2
    total = np.einsum("nq,q,n->", diff2, rule.weights, mesh.det_jacobians[elements])
    return float(np.sqrt(total))


def _region_interior_faces(mesh, mask):
    both = mask[mesh.iface_elems[:, 0]] & mask[mesh.iface_elems[:, 1]]
    return np.flatnonzero(both)


def _face_jumps(field, exactness, boundary=False, sel=slice(None)):
    """Face points, physical weights and the field's jump at face quadrature points.

    On boundary faces the jump is the one-sided trace.
    """
    x, w, sides = _face_traces(field.mesh, field.basis, exactness, boundary, sel)
    traces = [np.einsum("fi,fqi->fq", field.coeffs[e], V) for e, V, _ in sides]
    return x, w, traces[0] - traces[1] if len(traces) == 2 else traces[0]


def dg_energy_error(field, exact, exact_grad, sigma, region=None, exactness=None):
    """Broken energy norm of (u_h - u) over a region.

    ``exact`` / ``exact_grad`` are callables over points (pass 0 / 0 for the
    plain energy norm); the jump weight is sigma / ``mesh.grid_spacing``.
    Since the exact solution is continuous inside the region, interior-face
    jumps use the discrete field only; for the whole domain, boundary faces
    add the one-sided trace (u_h - u).
    """
    mesh = field.mesh
    mask = region_element_mask(mesh, region)
    elements = np.flatnonzero(mask)
    if elements.size == 0:
        return 0.0
    if exactness is None:
        exactness = 2 * field.degree + 2
    rule = _basis.tet_quadrature(exactness)
    gh = field.grad_in_elements(elements, rule.points)  # (n, q, 3)
    if callable(exact_grad):
        pts = _element_quad_points(mesh, elements, rule)
        ge = np.asarray(exact_grad(pts.reshape(-1, 3)), dtype=float).reshape(gh.shape)
        gh = gh - ge
    diff2 = (gh ** 2).sum(-1)
    total = np.einsum("nq,q,n->", diff2, rule.weights, mesh.det_jacobians[elements])

    face_exactness = 2 * field.degree + 2
    w_jump = sigma / mesh.grid_spacing
    fsel = _region_interior_faces(mesh, mask)
    if fsel.size:
        _, w, jump = _face_jumps(field, face_exactness, sel=fsel)
        total += w_jump * np.einsum("fq,fq->", jump ** 2, w)
    if region is None or isinstance(region, WholeDomain):
        x, w, jump = _face_jumps(field, face_exactness, boundary=True)
        if callable(exact):
            jump = jump - np.asarray(exact(x.reshape(-1, 3)), dtype=float).reshape(jump.shape)
        elif exact:
            jump = jump - float(exact)
        total += w_jump * np.einsum("fq,fq->", jump ** 2, w)
    return float(np.sqrt(total))


def dg_norm(field, sigma, region=None):
    """Broken energy norm of a discrete field."""
    return dg_energy_error(field, 0, 0, sigma, region=region)


def weighted_l2_norm(field, curve, alpha, exact=None, region=None, exactness=None):
    """L2 norm weighted by dist(x, curve)^(2 alpha); alpha in (-1, 1).

    Measures ``field - exact`` when ``exact`` is given.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must be in (-1, 1)")
    mesh = field.mesh
    mask = region_element_mask(mesh, region)
    elements = np.flatnonzero(mask)
    if exactness is None:
        exactness = 2 * field.degree + 2
    rule = _basis.tet_quadrature(exactness)
    uh = field.eval_in_elements(elements, rule.points)
    pts = _element_quad_points(mesh, elements, rule)
    pts, d = _guard_points(pts, curve, mesh.h)
    if exact is not None:
        ue = np.asarray(exact(pts.reshape(-1, 3)), dtype=float).reshape(uh.shape)
        uh = uh - ue
    total = np.einsum(
        "nq,nq,q,n->", uh ** 2, d ** (2.0 * alpha), rule.weights,
        mesh.det_jacobians[elements],
    )
    return float(np.sqrt(total))


def weighted_dg_norm(field, curve, alpha, sigma, exact=None, exact_grad=None, exactness=None):
    """Distance-weighted energy norm; alpha in (0, 1).

    Volume part weights the broken gradient by d^(2 alpha); the jump part is
    (sigma / ``mesh.grid_spacing``) * ||d^alpha [v]||^2 over all faces.  For
    an error field, pass ``exact``/``exact_grad``: interior jumps of a
    continuous exact solution vanish, but its boundary trace must be
    subtracted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    mesh = field.mesh
    if exactness is None:
        exactness = 2 * field.degree + 2
    rule = _basis.tet_quadrature(exactness)
    elements = np.arange(mesh.n_elements)
    gh = field.grad_in_elements(elements, rule.points)
    pts = _element_quad_points(mesh, elements, rule)
    pts, d = _guard_points(pts, curve, mesh.h)
    if exact_grad is not None:
        ge = np.asarray(exact_grad(pts.reshape(-1, 3)), dtype=float).reshape(gh.shape)
        gh = gh - ge
    total = np.einsum(
        "nq,nq,q,n->", (gh ** 2).sum(-1), d ** (2.0 * alpha), rule.weights,
        mesh.det_jacobians,
    )

    face_exactness = 2 * field.degree + 2
    w_jump = sigma / mesh.grid_spacing
    for boundary in (False, True):
        x, w, jump = _face_jumps(field, face_exactness, boundary)
        if boundary and exact is not None:
            jump = jump - np.asarray(exact(x.reshape(-1, 3)), dtype=float).reshape(jump.shape)
        dfa = distance_to_curve(x.reshape(-1, 3), curve).reshape(jump.shape)
        total += w_jump * np.einsum("fq,fq,fq->", jump ** 2, dfa ** (2.0 * alpha), w)
    return float(np.sqrt(total))


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
