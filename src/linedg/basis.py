"""Nodal polynomial bases and quadrature rules on reference simplices.

Reference elements: tetrahedron with vertices (0,0,0), (1,0,0), (0,1,0),
(0,0,1); triangle (0,0), (1,0), (0,1); segment [0,1].  Bases are nodal
Lagrange on the equispaced lattice, built by inverting a monomial
Vandermonde matrix; conditioning is fine for the low degrees used here.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, GeometryError

MAX_DEGREE = 4

REF_TET_VERTICES = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


@dataclass(frozen=True)
class BasisSet:
    """Nodal Lagrange basis of degree ``k`` on the reference tetrahedron."""

    degree: int
    nodes: np.ndarray          # (dim_P, 3) lattice nodes, vertices first for k=1
    exponents: np.ndarray      # (dim_P, 3) monomial powers
    coeffs: np.ndarray         # (dim_P, dim_P), phi_j = sum_l coeffs[l, j] x^expo[l]

    @property
    def dim(self):
        return self.nodes.shape[0]

    def eval(self, points):
        """Basis values at reference points; returns (npts, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mono = _monomials(pts, self.exponents)
        return mono @ self.coeffs

    def grad(self, points):
        """Reference gradients at reference points; returns (npts, dim, 3)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], self.dim, 3))
        for d in range(3):
            out[:, :, d] = _monomials(pts, self.exponents, d) @ self.coeffs
        return out


def _monomials(pts, exponents, axis=None):
    """The monomials x^exponents at ``pts``, (npts, len(exponents)), or with
    ``axis`` their derivatives along it: that factor becomes e x^max(e-1, 0)."""
    vals = np.ones((pts.shape[0], exponents.shape[0]))
    for d in range(3):
        e = exponents[:, d]
        if d == axis:
            vals *= e * pts[:, d][:, None] ** np.maximum(e - 1, 0)
        elif e.max(initial=0) > 0:
            vals *= pts[:, d][:, None] ** e
    return vals


def make_basis(k):
    """Build the degree-``k`` nodal basis on the reference tetrahedron.

    dim = (k+1)(k+2)(k+3)/6; k=1 gives the 4 vertex hat functions in
    reference-vertex order.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise CapabilityError(f"polynomial degree must be an integer >= 1, got {k!r}")
    if k > MAX_DEGREE:
        raise CapabilityError(
            f"degree {k} not supported (equispaced nodal basis capped at {MAX_DEGREE})"
        )
    # multi-indices (a, b, c) with a + b + c <= k, graded, each grade with a
    # then b descending so that k=1 lists the reference vertices in order;
    # the lattice nodes (a/k, b/k, c/k) reuse the enumeration
    expo = np.array([(a, b, t - a - b) for t in range(k + 1) for a in range(t, -1, -1)
                     for b in range(t - a, -1, -1)], dtype=np.int64)
    nodes = expo.astype(float) / float(k)
    vander = _monomials(nodes, expo)
    coeffs = np.linalg.inv(vander)
    return BasisSet(degree=int(k), nodes=nodes, exponents=expo, coeffs=coeffs)


@dataclass(frozen=True)
class QuadRule:
    """Positive-weight quadrature rule on a reference simplex."""

    points: np.ndarray   # (n, dim)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        # rules are cached and shared, so their arrays refuse writes
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self):
        return self.points.shape[0]


_MAX_QUAD_EXACTNESS = 30


def _gauss_01(m):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi_01(m, alpha):
    """m-point Gauss rule on [0,1] for the weight (1-u)^alpha, alpha > 0.

    Golub & Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the weight, and each weight is
    the weight's mass 1/(alpha+1) times the squared first component of the
    node's unit eigenvector.  The matrix is the one of (1-x)^alpha on [-1,1]
    mapped to [0,1], so that nodes near 0 keep their relative accuracy.
    """
    n = np.arange(m, dtype=float)
    s = 2.0 * n + alpha
    diag = 0.5 * (s * (s + 2.0) - alpha ** 2) / (s * (s + 2.0))
    n, s = n[1:], s[1:]
    off = n * (n + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, v[0] ** 2 / (alpha + 1.0)


def _check_exactness(min_exactness):
    if min_exactness < 0:
        raise CapabilityError("quadrature exactness must be nonnegative")
    if min_exactness > _MAX_QUAD_EXACTNESS:
        raise CapabilityError(
            f"quadrature exactness {min_exactness} exceeds supported maximum "
            f"{_MAX_QUAD_EXACTNESS}"
        )
    return max(int(min_exactness), 0)


def _conical(dim, min_exactness):
    """Conical-product rule on the reference simplex of dimension ``dim``
    (weights sum to 1/dim!): Gauss-Jacobi rules in u_0..u_{dim-2} for the
    weights (1-u)^(dim-1), ..., (1-u), then Gauss-Legendre, collapsed onto
    the simplex by x_i = u_i (1-u_0) ... (1-u_{i-1})."""
    m = _check_exactness(min_exactness) // 2 + 1
    rules = [_jacobi_01(m, float(dim - 1 - i)) for i in range(dim - 1)] + [_gauss_01(m)]
    u = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    points = []
    for i in range(dim):
        x = u[i]
        for j in range(i):
            x = x * (1.0 - u[j])
        points.append(x.ravel())
    weights = rules[0][1]
    for _, w in rules[1:]:
        weights = np.multiply.outer(weights, w)
    return QuadRule(points=np.column_stack(points), weights=weights.ravel())


@lru_cache(maxsize=None)
def segment_quadrature(min_exactness):
    """Gauss rule on [0,1] exact for polynomials of the given degree."""
    return _conical(1, min_exactness)


@lru_cache(maxsize=None)
def tri_quadrature(min_exactness):
    """Conical-product rule on the reference triangle (weights sum to 1/2)."""
    return _conical(2, min_exactness)


@lru_cache(maxsize=None)
def tet_quadrature(min_exactness):
    """Conical-product rule on the reference tetrahedron (weights sum to 1/6)."""
    return _conical(3, min_exactness)


# ---------------------------------------------------------------------------
# Affine reference-to-physical map


def tet_jacobian(tet_coords):
    """Jacobian data for affine maps of one or many tetrahedra.

    ``tet_coords``: (..., 4, 3) vertex coordinates.  Returns (J, detJ, Jinv)
    with J[..., :, d] the image of reference axis d.  Raises GeometryError on
    non-positive ``detJ`` (degenerate or inverted element).
    """
    tc = np.asarray(tet_coords, dtype=float)
    edges = tc[..., 1:, :] - tc[..., :1, :]  # (..., 3, 3), row d = column d of J
    J = np.swapaxes(edges, -1, -2)
    # adjugate: row d of the inverse is the cross product of the other two
    # columns, in cyclic order, over detJ
    adj = np.cross(edges[..., [1, 2, 0], :], edges[..., [2, 0, 1], :])
    detJ = np.einsum("...i,...i->...", edges[..., 0, :], adj[..., 0, :])
    scale = np.max(np.abs(edges), axis=(-1, -2)) ** 3
    if np.any(detJ <= 1e-14 * np.maximum(scale, 1e-300)):
        raise GeometryError("degenerate or negatively oriented tetrahedron")
    return J, detJ, adj / detJ[..., None, None]
