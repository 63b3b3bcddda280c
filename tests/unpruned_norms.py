"""Whole-domain norms integrated on every element and every face, with every
quadrature point guarded off the curve: the reference without pruning that
``linedg.norms`` must match.  It shares only the point guard and the face
traces with the code under test."""

import numpy as np

from linedg import basis as fb
from linedg.assembly import _face_traces
from linedg.curve import distance_to_curve
from linedg.norms import _guard_points


def _minus(values, exact, points):
    if callable(exact):
        return values - np.asarray(exact(points.reshape(-1, 3)), dtype=float).reshape(values.shape)
    return values - float(exact or 0.0)


def volume_sq(field, exact=None, grad=False, curve=None, alpha=None):
    """Sum over all elements of the integral of |v - exact|^2 d^(2 alpha)."""
    mesh = field.mesh
    rule = fb.tet_quadrature(2 * field.degree + 2)
    every = np.arange(mesh.n_elements)
    values = field.grad_in_elements if grad else field.eval_in_elements
    v = values(every, rule.points)
    pts, d = mesh.map_points(rule.points), None
    if curve is not None:
        pts, d = _guard_points(pts, curve, mesh.h)
    v2 = _minus(v, exact, pts) ** 2
    v2 = v2.sum(-1) if grad else v2
    if alpha is not None:
        v2 = v2 * d ** (2.0 * alpha)
    per_element = (v2 @ rule.weights) * mesh.type_det_jacobians[every % 6]
    return float(per_element.sum())


def face_sq(field, boundary, exact=None, curve=None, alpha=None):
    """Sum over all interior (or boundary) faces of the integral of the squared
    jump (or trace minus ``exact``), weighted by d^(2 alpha) given ``alpha``."""
    rule = fb.tri_quadrature(2 * field.degree + 2)
    mesh = field.mesh
    faces = (mesh.bface_elem, mesh.bface_local) if boundary else (mesh.iface_elems[:, 0],
                                                                  mesh.iface_local[:, 0])
    x, w, sides = _face_traces(mesh, field.basis, rule, *faces)
    traces = [np.einsum("fi,fqi->fq", field.coeffs[e], V) for e, V, _ in sides]
    jump = traces[0] - traces[1] if len(traces) == 2 else _minus(traces[0], exact, x)
    if alpha is not None:
        w = w * distance_to_curve(x.reshape(-1, 3), curve).reshape(w.shape) ** (2.0 * alpha)
    return float((jump ** 2 * w).sum())


def l2(field, exact=None, curve=None, alpha=None):
    return np.sqrt(volume_sq(field, exact, curve=curve, alpha=alpha))


def dg(field, sigma, exact=None, exact_grad=None, curve=None, alpha=None):
    jumps = face_sq(field, False, curve=curve, alpha=alpha)
    jumps += face_sq(field, True, exact, curve=curve, alpha=alpha)
    volume = volume_sq(field, exact_grad, grad=True, curve=curve, alpha=alpha)
    return np.sqrt(volume + sigma / field.mesh.grid_spacing * jumps)
