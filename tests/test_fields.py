import numpy as np
import pytest

from linedg import basis as fb
from linedg.fields import FieldFunction, interpolate, region_element_mask
from linedg.mesh import BoxDomain, build_box_mesh

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def test_interpolate_and_evaluate():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(2)

    def f(p):
        return 1.0 + 2 * p[:, 0] - p[:, 1] * p[:, 2] + p[:, 0] ** 2

    field = interpolate(f, mesh, basis)
    rng = np.random.default_rng(4)
    pts = rng.uniform([0, 0, 0], [1, 1, 0.25], size=(60, 3))
    assert np.allclose(field.evaluate(pts), f(pts), atol=1e-12)


def test_vector_round_trip():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(mesh.n_elements * basis.dim)
    f = FieldFunction.from_vector(mesh, basis, vec)
    assert np.allclose(f.coeffs.ravel(), vec)


def test_region_masks():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    box = BoxDomain(lo=[0.25, 0.5, 0.0], hi=[0.5, 0.75, 0.25])
    mask = region_element_mask(mesh, box)
    # one cell of 6 tets
    assert mask.sum() == 6
    assert region_element_mask(mesh, None).all()


def test_region_masks_by_cell_are_the_barycenter_rule():
    """An element is in an aligned region when its barycenter lies strictly
    inside, on an anisotropic grid whose cell sizes are not dyadic."""
    domain = BoxDomain(lo=[-0.5, 0.2, 0.1], hi=[0.5, 1.5, 0.4])
    mesh = build_box_mesh(domain, (5, 7, 3))
    centroids = mesh.centroids()
    rng = np.random.default_rng(2)
    for _ in range(20):
        lo = rng.integers(0, mesh.n)
        hi = lo + rng.integers(1, np.asarray(mesh.n) - lo + 1)
        region = BoxDomain(lo=domain.lo + lo * mesh.cell_size, hi=domain.lo + hi * mesh.cell_size)
        expected = np.all((centroids > region.lo) & (centroids < region.hi), axis=1)
        assert np.array_equal(region_element_mask(mesh, region), expected)
        assert expected.sum() == 6 * np.prod(hi - lo)


def test_region_alignment_rejected():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    with pytest.raises(ValueError):
        region_element_mask(mesh, BoxDomain(lo=[0.26, 0.5, 0.0], hi=[0.5, 0.75, 0.25]))
    with pytest.raises(ValueError):
        region_element_mask(mesh, BoxDomain(lo=[0.25, 0.5, 0.0], hi=[1.25, 0.75, 0.25]))


def test_gradients_of_field():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    field = interpolate(lambda p: p[:, 0] ** 2 + 3 * p[:, 1] - p[:, 2], mesh, basis)
    ref = np.array([[0.25, 0.25, 0.25]])
    elems = np.arange(mesh.n_elements)
    grads = field.grad_in_elements(elems, ref)  # (nt, 1, 3)
    phys = mesh.map_points(ref)[:, 0, :]
    expected = np.column_stack([2 * phys[:, 0], np.full(len(elems), 3.0), -np.ones(len(elems))])
    assert np.allclose(grads[:, 0, :], expected, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grad_in_elements_matches_pushed_basis_gradients(k):
    mesh = build_box_mesh(BoxDomain(lo=[-0.3, 1.1, 2.0], hi=[0.7, 1.6, 2.25]), (5, 7, 2))
    basis = fb.make_basis(k)
    rng = np.random.default_rng(k)
    field = FieldFunction.from_vector(mesh, basis, rng.standard_normal(mesh.n_elements * basis.dim))
    ref = fb.tet_quadrature(2 * k).points
    elems = rng.permutation(mesh.n_elements)
    phys = basis.grad(ref)[None] @ mesh.type_jac_invs[elems % 6][:, None]
    expected = np.einsum("ni,nqid->nqd", field.coeffs[elems], phys)
    got = field.grad_in_elements(elems, ref)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
