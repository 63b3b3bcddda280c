"""Built-in problem ingredients: the log-potential reference solution and
curve generators used by the command-line studies."""

import numpy as np

from .curve import Curve


class LogLineSolution:
    """Reference solution of the unit line load on a vertical line.

    u(x, y, z) = -log(r) / (2 pi) with r the horizontal distance to the
    line ``curve``; the corresponding line density is f = 1 and u is
    z-independent.  Singular on the line, which it keeps in ``curve`` for
    the norms to guard their points off.  ``curve`` must be vertical and
    straight and run once from the domain's bottom to its top face (to
    1e-9), the only line for which u solves the problem there; anything
    else raises ValueError.
    """

    def __init__(self, curve, domain):
        tol = 1e-9
        p = curve.points
        z, lo, hi = p[:, 2], domain.lo[2], domain.hi[2]
        ok = np.allclose(p[:, 0], p[0, 0], atol=tol) and np.allclose(p[:, 1], p[0, 1], atol=tol)
        ok = ok and np.all(np.diff(z) * (z[-1] - z[0]) > 0)
        if not (ok and np.allclose(sorted((z[0], z[-1])), (lo, hi), atol=tol)):
            raise ValueError(
                f"the built-in reference solution needs a vertical straight line "
                f"from z = {lo:g} to z = {hi:g}"
            )
        self.curve = curve
        self.x0 = float(p[0, 0])
        self.y0 = float(p[0, 1])

    def __call__(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        dx, dy = p[:, 0] - self.x0, p[:, 1] - self.y0
        return -np.log(dx * dx + dy * dy) / (4.0 * np.pi)  # -log(r) / (2 pi) without a root

    def gradient(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        dx = p[:, 0] - self.x0
        dy = p[:, 1] - self.y0
        r2 = dx ** 2 + dy ** 2
        g = np.zeros_like(p)
        g[:, 0] = -dx / (2.0 * np.pi * r2)
        g[:, 1] = -dy / (2.0 * np.pi * r2)
        return g


# displacement directions of ``sine_curve``
SINE_AXES = ("x", "y", "z")


def sine_curve(start, end, amplitude, periods, axis, samples):
    """Sinusoidal polyline: a straight run plus a sine displacement.

    ``axis`` is the displacement direction, one of ``SINE_AXES``;
    ``samples`` is the number of polyline points.
    """
    if axis not in SINE_AXES:
        raise ValueError(f"axis must be one of {', '.join(SINE_AXES)} (got {axis!r})")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    t = np.linspace(0.0, 1.0, int(samples))
    pts = start[None, :] + t[:, None] * (end - start)[None, :]
    pts[:, SINE_AXES.index(axis)] += amplitude * np.sin(2.0 * np.pi * periods * t)
    return Curve(pts)
