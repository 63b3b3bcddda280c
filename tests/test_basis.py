from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy.special import roots_jacobi

from linedg import basis as fb
from linedg.errors import CapabilityError, GeometryError


def test_basis_dims():
    assert fb.make_basis(1).dim == 4
    assert fb.make_basis(2).dim == 10
    assert fb.make_basis(3).dim == 20


def test_unsupported_degree():
    with pytest.raises(CapabilityError):
        fb.make_basis(0)
    with pytest.raises(CapabilityError):
        fb.make_basis(9)


def test_nodal_property_k1():
    b = fb.make_basis(1)
    vals = b.eval(fb.REF_TET_VERTICES)
    assert np.allclose(vals, np.eye(4), atol=1e-13)


def test_nodal_property_k2():
    b = fb.make_basis(2)
    vals = b.eval(b.nodes)
    assert np.allclose(vals, np.eye(10), atol=1e-12)


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    pts = rng.dirichlet(np.ones(4), size=50)[:, :3]  # interior reference points
    for k in (1, 2):
        b = fb.make_basis(k)
        assert np.allclose(b.eval(pts).sum(axis=1), 1.0, atol=1e-12)
        # gradients of the constant combination vanish
        assert np.allclose(b.grad(pts).sum(axis=1), 0.0, atol=1e-11)


@pytest.mark.parametrize("k", [1, 2])
def test_polynomial_reproduction(k):
    rng = np.random.default_rng(10 + k)
    b = fb.make_basis(k)
    coef = rng.standard_normal(b.dim)

    def poly(pts):
        vals = np.zeros(pts.shape[0])
        for c, (a, bb, cc) in zip(coef, b.exponents):
            vals += c * pts[:, 0] ** a * pts[:, 1] ** bb * pts[:, 2] ** cc
        return vals

    nodal = poly(b.nodes)
    pts = rng.dirichlet(np.ones(4), size=100)[:, :3]
    reproduced = b.eval(pts) @ nodal
    assert np.allclose(reproduced, poly(pts), atol=1e-12)


# every exactness the code requests: 2k and 2k + 2 on tets, 2k + 1 and
# 2k + 2 on triangles, for k up to MAX_DEGREE
RULE_EXACTNESS = range(2 * fb.MAX_DEGREE + 3)


def test_tet_quadrature_monomials():
    for d in RULE_EXACTNESS:
        rule = fb.tet_quadrature(d)
        assert abs(rule.weights.sum() - 1.0 / 6.0) < 1e-14, d
        for a in range(d + 1):
            for b in range(d + 1 - a):
                for c in range(d + 1 - a - b):
                    approx = np.sum(
                        rule.weights
                        * rule.points[:, 0] ** a
                        * rule.points[:, 1] ** b
                        * rule.points[:, 2] ** c
                    )
                    exact = factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)
                    assert abs(approx - exact) < 1e-13 * exact, (d, a, b, c)


def test_tri_quadrature_monomials():
    for d in RULE_EXACTNESS:
        rule = fb.tri_quadrature(d)
        assert abs(rule.weights.sum() - 0.5) < 1e-14, d
        for a in range(d + 1):
            for b in range(d + 1 - a):
                approx = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                assert abs(approx - exact) < 1e-13 * exact, (d, a, b)


def _jacobi_moment(alpha, j):
    """Exact int_{-1}^{1} (1-x)^alpha x^j dx, from x^j = (1 - (1-x))^j."""
    return sum(
        Fraction(comb(j, i) * (-1) ** i * 2 ** (alpha + i + 1), alpha + i + 1)
        for i in range(j + 1)
    )


@pytest.mark.parametrize("alpha", [1, 2])
def test_jacobi_rules_are_gauss_rules(alpha):
    for m in range(1, 17):
        u, w = fb._jacobi_01(m, float(alpha))
        # the same rule on [-1, 1] for the weight (1-x)^alpha
        x, wx = 2.0 * u - 1.0, w * 2.0 ** (alpha + 1)
        for j in range(2 * m):
            exact = _jacobi_moment(alpha, j)
            assert abs(np.sum(wx * x ** j) - float(exact)) <= 5e-14 * abs(exact), (m, j)
        assert np.allclose(x, roots_jacobi(m, alpha, 0.0)[0], rtol=0.0, atol=1e-15), m


def test_cached_rules_are_read_only():
    for rule in (fb.segment_quadrature(5), fb.tri_quadrature(5), fb.tet_quadrature(5)):
        for arr in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert fb.tet_quadrature(5) is fb.tet_quadrature(5)


def test_segment_quadrature():
    rule = fb.segment_quadrature(2)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert abs(np.sum(rule.weights * rule.points[:, 0] ** 2) - 1.0 / 3.0) < 1e-14
    # m-point Gauss is exact to degree 2m-1
    rule5 = fb.segment_quadrature(9)
    x = rule5.points[:, 0]
    assert abs(np.sum(rule5.weights * x ** 9) - 0.1) < 1e-14


def test_quadrature_points_inside():
    rule = fb.tet_quadrature(8)
    x = rule.points
    assert np.all(x >= 0) and np.all(x.sum(axis=1) <= 1.0)
    assert np.all(rule.weights > 0)


def test_map_identity_and_scaling():
    ref = fb.REF_TET_VERTICES
    J, det, Jinv = fb.tet_jacobian(ref)
    assert np.allclose(J, np.eye(3))
    assert abs(det - 1.0) < 1e-15

    scaled = 2.0 * ref
    J, det, _ = fb.tet_jacobian(scaled)
    assert abs(det - 8.0) < 1e-14


def test_map_volume_oracle():
    rng = np.random.default_rng(7)
    tc = rng.standard_normal((4, 3))
    a, b, c, d = tc
    vol = abs(np.dot(b - a, np.cross(c - a, d - a))) / 6.0
    # orient positively for the jacobian helper
    if np.dot(b - a, np.cross(c - a, d - a)) < 0:
        tc = tc[[0, 1, 3, 2]]
    rule = fb.tet_quadrature(2)
    _, det, _ = fb.tet_jacobian(tc)
    assert abs(np.sum(rule.weights) * det - vol) < 1e-13 * vol


def test_jacobian_matches_linalg():
    rng = np.random.default_rng(11)
    tc = fb.REF_TET_VERTICES + 0.2 * rng.standard_normal((2, 5, 4, 3))
    J, det, Jinv = fb.tet_jacobian(tc)
    assert J.shape == Jinv.shape == (2, 5, 3, 3) and det.shape == (2, 5)
    assert np.allclose(J[..., :, 1], tc[..., 2, :] - tc[..., 0, :], rtol=0.0, atol=0.0)
    assert np.allclose(det, np.linalg.det(J), rtol=1e-13, atol=0.0)
    assert np.allclose(Jinv, np.linalg.inv(J), rtol=1e-12, atol=1e-13)


def test_degenerate_tet_raises():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(GeometryError):
        fb.tet_jacobian(flat)


def test_negatively_oriented_tet_raises():
    """A Kuhn tet with two vertices swapped is inverted and raises."""
    cube = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                     [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=float)
    tet = cube[[0, 2, 7, 3]]
    assert fb.tet_jacobian(tet)[1] > 0
    with pytest.raises(GeometryError):
        fb.tet_jacobian(tet[[0, 1, 3, 2]])


def test_gradient_pushforward_vs_finite_differences():
    rng = np.random.default_rng(42)
    tc = np.array([[0.1, 0.0, 0.2], [1.1, 0.2, 0.1], [0.3, 0.9, 0.0], [0.2, 0.1, 1.2]])
    b = fb.make_basis(2)
    J, _, Jinv = fb.tet_jacobian(tc)
    ref_pt = np.array([[0.2, 0.3, 0.1]])
    phys_pt = tc[0] + J @ ref_pt[0]
    grads = b.grad(ref_pt)[0] @ Jinv  # (nb, 3)

    step = 1e-6
    for d in range(3):
        plus = phys_pt.copy()
        minus = phys_pt.copy()
        plus[d] += step
        minus[d] -= step
        vp = b.eval(Jinv @ (plus - tc[0]))[0]
        vm = b.eval(Jinv @ (minus - tc[0]))[0]
        fd = (vp - vm) / (2 * step)
        assert np.allclose(grads[:, d], fd, atol=1e-6)
