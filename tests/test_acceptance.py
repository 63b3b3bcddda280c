"""Acceptance suite: convergence-rate reproduction plus the property gates.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  The two refinement studies (4 levels each, finest ~49k elements)
are shared module-scoped fixtures; expect a couple of minutes total.
"""

from math import factorial

import numpy as np
import pytest

from linedg import basis as fb
from linedg.assembly import (
    DGSpec,
    assemble_dirichlet_rhs,
    assemble_stiffness,
    assemble_volume_rhs,
)
from linedg.cli import run_study
from linedg.config import load_config
from linedg.curve import Curve, build_restrictions, compute_fh_field, distance_to_curve
from linedg.fields import FieldFunction
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.norms import dg_energy_error, l2_error
from linedg.parabolic import TimeGrid, run_backward_euler
from linedg.problems import sine_curve
from linedg.solver import SolverConfig, solve
from tests.test_cli import CONFIG_DIR

SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def vertical_line():
    return Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def study_k1(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "study_k1.yaml")
    return run_study(cfg, tmp_path_factory.mktemp("study_k1"))


@pytest.fixture(scope="module")
def study_k2(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "study_k2.yaml")
    return run_study(cfg, tmp_path_factory.mktemp("study_k2"))


def test_criterion_1_local_l2_rates_k1(study_k1):
    ra = study_k1["rates"]["err_L2_boxA"][-1]
    rb = study_k1["rates"]["err_L2_boxB"][-1]
    ok = abs(ra - 2.0) <= 0.3 and abs(rb - 1.9) <= 0.3
    report(
        "1 (k=1 local L2 rates, finest pair)",
        ok,
        f"boxA rate {ra:.3f} (2.0 +/- 0.3), boxB rate {rb:.3f} (1.9 +/- 0.3)",
    )


def test_criterion_2_local_l2_rates_k2(study_k2):
    ra = study_k2["rates"]["err_L2_boxA"][-1]
    rb = study_k2["rates"]["err_L2_boxB"][-1]
    ok = ra >= 2.0 and rb >= 2.0
    report(
        "2 (k=2 local L2 rates, finest pair)",
        ok,
        f"boxA rate {ra:.3f} (>= 2.0), boxB rate {rb:.3f} (>= 2.0)",
    )


def test_criterion_3_global_rate_k1(study_k1):
    rate = study_k1["rates"]["err_L2_global"][-1]
    # absolute error at the cell-size-1/8 level: reported, not asserted
    errs = [cols for cols in study_k1["columns"]]
    global_err_level1 = dict(errs[1])["err_L2_global"]
    ratio = global_err_level1 / 2.28e-3
    ok = 0.7 <= rate <= 1.2
    report(
        "3 (k=1 global L2 rate, finest pair)",
        ok,
        f"rate {rate:.3f} in [0.7, 1.2]; absolute at cell 1/8 = {global_err_level1:.3e} "
        f"({ratio:.2f}x the reference 2.28e-3, reported only)",
    )


def test_criterion_4_local_energy_rates(study_k1, study_k2):
    r1 = study_k1["rates"]["err_DG_boxA"][-1]
    r2 = study_k2["rates"]["err_DG_boxA"][-1]
    ok = 0.7 <= r1 <= 1.3 and 1.6 <= r2 <= 2.3
    report(
        "4 (local energy rates over boxA)",
        ok,
        f"k=1 rate {r1:.3f} in [0.7, 1.3]; k=2 rate {r2:.3f} in [1.6, 2.3]",
    )


def test_criterion_5_line_load_scaling():
    curve = vertical_line()
    vals = []
    for n in [(4, 4, 1), (8, 8, 2), (16, 16, 4), (32, 32, 8)]:
        mesh = build_box_mesh(SLAB, n)
        fh = compute_fh_field(curve, 1.0, mesh, fb.make_basis(1))
        vals.append(mesh.h * l2_error(fh, 0.0))
    spread = max(vals) / min(vals)
    report(
        "5 (h * ||f_h|| bounded over 4 levels)",
        spread <= 2.5,
        f"h*||f_h|| = {', '.join(f'{v:.4f}' for v in vals)}; max/min = {spread:.2f} <= 2.5",
    )


# -- criterion 6: property gates ---------------------------------------------


def test_criterion_6a_quadrature_exactness():
    worst = 0.0
    for d in range(0, 7):
        rule = fb.tet_quadrature(d)
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
                    worst = max(worst, abs(approx - exact) / abs(exact))
    report("6a (monomial exactness vs closed form)", worst < 1e-13, f"worst rel err {worst:.2e}")


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("epsilon", [-1, 0, 1])
def test_criterion_6b_patch_tests(k, epsilon):
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(k)
    beta = 1.0 if epsilon == -1 else 2.0
    sigma = {1: 5.0, 2: 12.0}[k] if epsilon == -1 else {1: 10.0, 2: 24.0}[k]
    spec = DGSpec(k=k, epsilon=epsilon, sigma=sigma, beta=beta)
    if k == 1:
        exact = lambda p: 0.5 - p[:, 0] + 2 * p[:, 1] + p[:, 2]
        grad = lambda p: np.tile([-1.0, 2.0, 1.0], (p.shape[0], 1))
        lap = lambda p: np.zeros(p.shape[0])
    else:
        exact = lambda p: p[:, 0] * p[:, 1] + p[:, 2] ** 2 - p[:, 0] ** 2
        grad = lambda p: np.column_stack([p[:, 1] - 2 * p[:, 0], p[:, 0], 2 * p[:, 2]])
        lap = lambda p: np.zeros(p.shape[0])
    system = assemble_stiffness(mesh, spec, basis)
    rhs = assemble_volume_rhs(mesh, basis, lambda p: -lap(p))
    rhs += assemble_dirichlet_rhs(mesh, spec, basis, exact)
    res = solve(system, rhs, SolverConfig(rel_tol=1e-13))
    uh = FieldFunction.from_vector(mesh, basis, res.x)
    exact.gradient = grad
    err = dg_energy_error(uh, exact, sigma=spec.sigma)
    report(f"6b (patch test k={k}, variant {epsilon:+d})", err < 1e-8, f"energy error {err:.2e}")


def test_criterion_6c_symmetry_and_coercivity():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(k=1, epsilon=-1, sigma=5.0, beta=1.0)
    A = assemble_stiffness(mesh, spec, basis).matrix
    sym = abs(A - A.T).max() / abs(A).max()
    rng = np.random.default_rng(77)
    margin = np.inf
    for _ in range(20):
        w = rng.standard_normal(A.shape[0])
        field = FieldFunction.from_vector(mesh, basis, w)
        energy = dg_energy_error(field, 0, sigma=spec.sigma) ** 2
        margin = min(margin, (w @ (A @ w)) / energy)
    ok = sym < 1e-12 and margin >= 0.5
    report(
        "6c (symmetry + coercivity probe)",
        ok,
        f"relative asymmetry {sym:.2e} < 1e-12; min a(w,w)/||w||_DG^2 = {margin:.3f} >= 0.5",
    )


def test_criterion_6d_curve_length_partition():
    worst = 0.0
    for n in [(4, 4, 1), (8, 8, 2), (16, 16, 4)]:
        mesh = build_box_mesh(SLAB, n)
        for curve in (
            vertical_line(),
            sine_curve([0.15, 0.5, 0.125], [0.85, 0.5, 0.125], 0.15, 1.5, "y", 48),
        ):
            total = sum(r.total_length for r in build_restrictions(curve, mesh))
            worst = max(worst, abs(total - curve.length) / curve.length)
    report("6d (curve length partition, 3 levels x 2 curves)", worst < 1e-9, f"worst rel defect {worst:.2e}")


def test_criterion_6e_distance_lipschitz():
    curve = sine_curve([0.15, 0.5, 0.125], [0.85, 0.5, 0.125], 0.15, 1.5, "y", 48)
    rng = np.random.default_rng(123)
    p = rng.uniform([-0.2, -0.2, -0.1], [1.2, 1.2, 0.35], size=(10_000, 3))
    q = rng.uniform([-0.2, -0.2, -0.1], [1.2, 1.2, 0.35], size=(10_000, 3))
    dp = distance_to_curve(p, curve)
    dq = distance_to_curve(q, curve)
    gap = np.abs(dp - dq) - np.linalg.norm(p - q, axis=1)
    report("6e (distance field 1-Lipschitz, 1e4 pairs)", np.all(gap <= 1e-12), f"max violation {gap.max():.2e}")


def test_criterion_6f_parabolic_properties():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    curve = vertical_line()
    from linedg.assembly import assemble_mass
    from linedg.curve import assemble_line_rhs

    M = assemble_mass(mesh, basis).matrix

    # monotone decay without forcing
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(mesh.n_elements * basis.dim)
    march = run_backward_euler(
        mesh, spec, None, None, u0, TimeGrid(0.5, 10), SolverConfig(rel_tol=1e-12), basis=basis
    )
    norms = [np.sqrt(v @ (M @ v)) for v in (step.field.coeffs.ravel() for step in march)]
    decay_ok = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    # long-horizon steady state agrees with the elliptic solution
    rel_tol = 1e-11
    system = assemble_stiffness(mesh, spec, basis)
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    u_inf = solve(system, b, SolverConfig(rel_tol=rel_tol)).x
    march = run_backward_euler(
        mesh, spec, curve, 1.0, None, TimeGrid(50.0, 100), SolverConfig(rel_tol=1e-13), basis=basis
    )
    gap_vec = march[-1].field.coeffs.ravel() - u_inf
    gap = np.sqrt(gap_vec @ (M @ gap_vec))
    steady_ok = gap <= 10 * rel_tol * np.linalg.norm(b) + 1e-13

    # first-order step halving
    u0_fn = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    finals = {}
    for steps in (4, 8, 16):
        s = run_backward_euler(
            mesh, spec, curve, 1.0, u0_fn, TimeGrid(0.02, steps),
            SolverConfig(rel_tol=1e-13), basis=basis,
        )
        finals[steps] = s[-1].field.coeffs.ravel()
    d1 = finals[4] - finals[8]
    d2 = finals[8] - finals[16]
    ratio = np.sqrt((d1 @ (M @ d1)) / (d2 @ (M @ d2)))
    halving_ok = 1.7 <= ratio <= 2.3

    report(
        "6f (parabolic: decay, steady state, step halving)",
        decay_ok and steady_ok and halving_ok,
        f"monotone decay {decay_ok}; steady-state gap {gap:.2e}; halving ratio {ratio:.2f}",
    )
