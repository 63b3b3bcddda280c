import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import linedg.assembly
import linedg.parabolic
from linedg import basis as fb
from linedg.assembly import DGSpec, assemble_mass, assemble_stiffness
from linedg.config import load_config
from linedg.curve import Curve, assemble_line_rhs
from linedg.errors import NonconvergenceError
from linedg.fields import FieldFunction
from linedg.mesh import BoxDomain, build_box_mesh
from linedg.multigrid import VCycle
from linedg.norms import l2_error
from linedg.parabolic import (
    BackwardEuler,
    TimeGrid,
    project_initial,
    run_backward_euler,
    spacetime_l2_error,
    step_diagnostics,
)
from linedg.solver import SolverConfig, solve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SLAB = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])


def vertical_line():
    return Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])


def step_of(grid, t):
    """Index n with t in (t^{n-1}, t^n]; 0 at t = 0."""
    if t <= 0.0:
        return 0
    return min(int(np.ceil(t / grid.tau - 1e-12)), grid.steps)


def at_time(steps, grid, t):
    """The piecewise-constant reconstruction: the right-endpoint state."""
    return steps[step_of(grid, t)].field


def snapshots(steps):
    """The states u^0..u^N of a march, one row each."""
    return np.array([step.field.coeffs.ravel() for step in steps])


def elliptic_solution(mesh, basis, spec, curve, rel_tol=1e-12):
    system = assemble_stiffness(mesh, spec, basis)
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    return solve(system, b, SolverConfig(rel_tol=rel_tol)).x


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(final_time=0.0, steps=3)
    with pytest.raises(ValueError):
        TimeGrid(final_time=1.0, steps=0)
    g = TimeGrid(final_time=1.0, steps=4)
    assert g.tau == 0.25
    assert np.allclose(g.times, [0, 0.25, 0.5, 0.75, 1.0])


def test_projection_allocates_a_block_not_the_mesh(monkeypatch):
    """With blocks of 384 elements at k=2, the allocation peak of the initial
    projection beyond its result grows by at most 1.5x from 8x8x2 to
    16x16x4, 8x the elements: its load is integrated in blocks."""
    monkeypatch.setattr(linedg.assembly, "_BLOCK", 384 * fb.tet_quadrature(6).n)
    basis, u0 = fb.make_basis(2), lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1]
    extra = []
    for n in [(8, 8, 2), (16, 16, 4)]:
        mesh = build_box_mesh(SLAB, n)
        project_initial(u0, mesh, basis)  # the mesh's cached tables
        tracemalloc.start()
        try:
            field = project_initial(u0, mesh, basis)
            extra.append(tracemalloc.get_traced_memory()[1] - field.coeffs.nbytes)
        finally:
            tracemalloc.stop()
    assert extra[1] <= 1.5 * extra[0], extra


def test_projection_identities():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(2)
    zero = project_initial(lambda p: np.zeros(len(p)), mesh, basis)
    assert np.all(zero.coeffs == 0)

    poly = lambda p: 1 + p[:, 0] ** 2 - p[:, 1] * p[:, 2]
    proj = project_initial(poly, mesh, basis)
    assert l2_error(proj, poly) < 1e-12

    # defining identity against random test functions
    u0 = lambda p: np.sin(np.pi * p[:, 0])
    proj = project_initial(u0, mesh, basis)
    M = assemble_mass(mesh, basis).matrix
    # the load (u0, phi_i) by a rule two degrees above the projection's
    rule = fb.tet_quadrature(2 * basis.degree + 4)
    u0q = u0(mesh.map_points(rule.points).reshape(-1, 3))
    load = np.einsum(
        "q,eq,qi,e->ei", rule.weights, u0q.reshape(mesh.n_elements, rule.n),
        basis.eval(rule.points), mesh.type_det_jacobians[np.arange(mesh.n_elements) % 6],
    ).ravel()
    residual = M @ proj.coeffs.ravel() - load
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal(residual.size)
        # quadrature of sin is inexact; tolerance reflects the 2k+4 rule
        assert abs(residual @ v) < 1e-8 * np.linalg.norm(v)


def test_zero_everything_stays_zero():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    spec = DGSpec(1)
    grid = TimeGrid(final_time=0.5, steps=5)
    steps = run_backward_euler(mesh, spec, vertical_line(), 0.0, None, grid)
    assert np.all(snapshots(steps) == 0)


def test_reconstruction_indexing():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    spec = DGSpec(1)
    grid = TimeGrid(final_time=1.0, steps=4)
    steps = run_backward_euler(mesh, spec, vertical_line(), 1.0, None, grid)
    assert [step.t for step in steps] == list(grid.times)
    assert step_of(grid, 0.0) == 0
    assert step_of(grid, 0.25) == 1
    assert step_of(grid, 0.2500001) == 2
    assert step_of(grid, 1.0) == 4


def test_decay_toward_elliptic_steady_state():
    """With a steady line source the iterates approach the elliptic solution
    geometrically (ratio of successive gaps below one)."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    curve = vertical_line()
    u_inf = elliptic_solution(mesh, basis, spec, curve)
    grid = TimeGrid(final_time=0.05, steps=10)
    u = snapshots(run_backward_euler(
        mesh, spec, curve, 1.0, None, grid, SolverConfig(rel_tol=1e-13), basis=basis
    ))
    diffs = []
    for n in (2, 4, 6):
        d = FieldFunction.from_vector(mesh, basis, u[n] - u_inf)
        diffs.append(l2_error(d, 0.0))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] / diffs[1] < 1.0


def test_steady_state_reached_for_large_time():
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    curve = vertical_line()
    rel_tol = 1e-10
    u_inf = elliptic_solution(mesh, basis, spec, curve, rel_tol=rel_tol)
    grid = TimeGrid(final_time=50.0, steps=100)
    steps = run_backward_euler(
        mesh, spec, curve, 1.0, None, grid, SolverConfig(rel_tol=1e-12), basis=basis
    )
    d = FieldFunction.from_vector(mesh, basis, steps[-1].field.coeffs.ravel() - u_inf)
    gap = l2_error(d, 0.0)
    b = assemble_line_rhs(curve, 1.0, mesh, basis)
    assert gap <= 10 * rel_tol * np.linalg.norm(b) + 1e-12


def test_unconditional_decay_without_source():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    M = assemble_mass(mesh, basis).matrix
    rng = np.random.default_rng(31)
    grid = TimeGrid(final_time=0.5, steps=10)
    for _ in range(3):
        u0 = rng.standard_normal(mesh.n_elements * basis.dim)
        steps = run_backward_euler(mesh, spec, None, None, u0, grid, basis=basis)
        norms = [np.sqrt(v @ (M @ v)) for v in snapshots(steps)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_step_halving_first_order():
    """Halving tau changes the final snapshot at first order in tau."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    curve = vertical_line()
    u0 = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    T = 0.02  # inside the transient; much later the state is steady to roundoff
    finals = {}
    for steps in (4, 8, 16):
        grid = TimeGrid(final_time=T, steps=steps)
        march = run_backward_euler(
            mesh, spec, curve, 1.0, u0, grid, SolverConfig(rel_tol=1e-13), basis=basis
        )
        finals[steps] = march[-1].field.coeffs.ravel()
    M = assemble_mass(mesh, basis).matrix
    d1 = finals[4] - finals[8]
    d2 = finals[8] - finals[16]
    r = np.sqrt((d1 @ (M @ d1)) / (d2 @ (M @ d2)))
    assert 1.7 <= r <= 2.3


def test_stability_bound_constant_is_stable():
    """The increment/energy quantity obeys the tau h^-2 bound with one C."""
    curve = vertical_line()
    qs = []
    for n in [(2, 2, 1), (4, 4, 1), (8, 8, 2)]:
        mesh = build_box_mesh(SLAB, n)
        basis = fb.make_basis(1)
        spec = DGSpec(1)
        u0 = lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1]
        grid = TimeGrid(final_time=0.25, steps=8)
        steps = run_backward_euler(
            mesh, spec, curve, 1.0, u0, grid, SolverConfig(rel_tol=1e-12), basis=basis
        )
        rows = step_diagnostics(steps, sigma=spec.sigma)
        m = grid.steps
        lhs = rows[m]["increment_sq_sum"] + grid.tau * rows[m]["dg"] ** 2
        u0f = project_initial(u0, mesh, basis)
        u0_sq = l2_error(u0f, 0.0) ** 2
        f_sq = grid.tau * sum(0.25 for _ in range(1, m + 1))  # ||f||^2 on the line = |curve|
        rhs = grid.tau / mesh.grid_spacing ** 2 * (u0_sq + f_sq)
        qs.append(lhs / rhs)
    # fitted on the coarsest level, the same constant covers the finer ones
    assert max(qs[1:]) <= 1.5 * qs[0]


def test_spacetime_error_zero_cases():
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    grid = TimeGrid(final_time=0.5, steps=4)
    steps = run_backward_euler(mesh, spec, None, None, None, grid, basis=basis)
    assert spacetime_l2_error(steps, lambda t, p: np.zeros(len(p))) == 0.0

    # the reconstruction of the march itself gives zero
    steps2 = run_backward_euler(mesh, spec, vertical_line(), 1.0, None, grid, basis=basis)

    def reconstruct(t, pts):
        return at_time(steps2, grid, t).evaluate(pts)

    assert spacetime_l2_error(steps2, reconstruct) < 1e-12


def test_manufactured_heat_equation_rates():
    """Volume-load manufactured solution: integrator sanity at first order."""
    spec = DGSpec(1)

    def exact(t, p):
        return np.exp(-t) * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * p[:, 2] * (
            0.25 - p[:, 2]
        )

    def volume_source(t, p):
        # du/dt - lap(u) with u as above
        s = np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        z = p[:, 2] * (0.25 - p[:, 2])
        return np.exp(-t) * (-s * z + 2 * np.pi ** 2 * s * z + 2 * s)

    errs = []
    for n, steps in [((2, 2, 1), 4), ((4, 4, 2), 16)]:
        mesh = build_box_mesh(SLAB, n)
        basis = fb.make_basis(1)
        grid = TimeGrid(final_time=0.25, steps=steps)
        march = run_backward_euler(
            mesh,
            spec,
            None,
            None,
            lambda p: exact(0.0, p),
            grid,
            SolverConfig(rel_tol=1e-11),
            basis=basis,
            volume_source=volume_source,
        )
        errs.append(spacetime_l2_error(march, exact))
    # with tau ~ h^2 the space-time error should drop at least linearly in h
    assert errs[1] < 0.6 * errs[0]


def test_spacetime_error_reads_a_live_march():
    """A ``BackwardEuler`` march is read as it is solved: bitwise the value of
    the collected steps, and from 8 to 32 steps the tracemalloc peak grows by
    at most two ndof vectors.  epsilon = +1 keeps no projection basis;
    collecting the steps would add 24 rows."""
    import tracemalloc

    mesh = build_box_mesh(SLAB, (8, 8, 2))
    basis = fb.make_basis(1)
    exact = lambda t, p: t * np.sin(np.pi * p[:, 0])

    def arguments(steps):
        return (mesh, DGSpec(1, epsilon=1), vertical_line(), 1.0, None,
                TimeGrid(final_time=0.1, steps=steps), SolverConfig(rel_tol=1e-10), basis)

    collected = spacetime_l2_error(run_backward_euler(*arguments(8)), exact)
    assert spacetime_l2_error(BackwardEuler(*arguments(8)), exact) == collected
    peaks = {}
    for steps in (8, 32):
        tracemalloc.start()
        try:
            spacetime_l2_error(BackwardEuler(*arguments(steps)), exact)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    vector = 8 * mesh.n_elements * basis.dim  # bytes of one float64 vector
    assert peaks[32] - peaks[8] <= 2 * vector, (peaks, vector)


def test_spacetime_error_matches_two_l2_errors_per_step():
    """Evaluating u^n once per step gives the value of the definition, two
    ``l2_error`` calls per step, one per temporal Gauss point, to 1e-12
    relative: at 16x16x4, over three blocks of elements."""
    mesh = build_box_mesh(SLAB, (16, 16, 4))
    assert linedg.assembly._BLOCK // fb.tet_quadrature(4).n < mesh.n_elements
    steps = run_backward_euler(mesh, DGSpec(1), vertical_line(), 1.0, None,
                               TimeGrid(final_time=0.05, steps=4), SolverConfig(rel_tol=1e-10))
    exact = lambda t, p: 40 * t * np.sin(np.pi * p[:, 0]) * p[:, 2]
    rule_t, total = fb.segment_quadrature(3), 0.0
    for previous, step in zip(steps, steps[1:]):
        tau = step.t - previous.t
        for tq, wq in zip(rule_t.points[:, 0], rule_t.weights):
            t = previous.t + tq * tau
            total += wq * tau * l2_error(step.field, lambda p: exact(t, p)) ** 2
    value = spacetime_l2_error(steps, exact)
    assert value > 0 and abs(value - np.sqrt(total)) <= 1e-12 * np.sqrt(total)


def test_tau_h2_coupling_dominated_by_spatial_error():
    """Refining tau below tau = h^2 changes the answer by less than the
    spatial error level."""
    curve = vertical_line()
    spec = DGSpec(1)
    basis = fb.make_basis(1)
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    h2 = mesh.grid_spacing ** 2
    T = 0.25
    runs, grids = {}, {}
    for tau_target in (h2, h2 / 4):
        steps = max(1, int(round(T / tau_target)))
        grids[tau_target] = TimeGrid(final_time=T, steps=steps)
        runs[tau_target] = run_backward_euler(
            mesh, spec, curve, 1.0, None, grids[tau_target], SolverConfig(rel_tol=1e-12),
            basis=basis
        )
    coarse, fine = runs[h2], runs[h2 / 4]

    def reconstruct(t, pts):
        return at_time(fine, grids[h2 / 4], t).evaluate(pts)

    temporal_gap = spacetime_l2_error(coarse, reconstruct)

    # spatial error proxy: elliptic solutions on this and the refined mesh
    u_c = elliptic_solution(mesh, basis, spec, curve)
    mesh_f = build_box_mesh(mesh.domain, tuple(2 * v for v in mesh.n))
    u_f = elliptic_solution(mesh_f, basis, spec, curve)
    fc = FieldFunction.from_vector(mesh, basis, u_c)
    ff = FieldFunction.from_vector(mesh_f, basis, u_f)
    spatial_gap = l2_error(ff, lambda p: fc.evaluate(p)) * np.sqrt(T)
    assert temporal_gap <= spatial_gap


def test_solver_failure_reports_step():
    """The step label is added and the failed solve's best iterate kept."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    spec = DGSpec(1)
    grid = TimeGrid(final_time=1.0, steps=3)
    with pytest.raises(NonconvergenceError, match="time step 1") as info:
        run_backward_euler(
            mesh, spec, vertical_line(), 1.0, None, grid,
            SolverConfig(rel_tol=1e-14, max_iter=1),
        )
    err = info.value
    assert err.best_x.shape == (mesh.n_elements * 4,)
    assert err.iterations == 1
    assert err.residual > 0.0


def warm_start_loop(mesh, spec, basis, curve, f, grid, config):
    """Backward Euler by hand: each solve starts from the previous step."""
    A = assemble_stiffness(mesh, spec, basis)
    M = assemble_mass(mesh, basis)
    S = M + grid.tau * A
    u = np.zeros(M.ndof)
    snapshots, iterations = [u], []
    for n in range(1, grid.steps + 1):
        t_n = n * grid.tau
        b_line = assemble_line_rhs(curve, lambda s: f(t_n, s), mesh, basis)
        result = solve(S, M @ u + grid.tau * b_line, config, x0=u)
        u = result.x
        snapshots.append(u)
        iterations.append(result.iterations)
    return np.array(snapshots), iterations


def relative_gap(a, b):
    return max(np.linalg.norm(x - y) / np.linalg.norm(y) for x, y in zip(a[1:], b[1:]))


def test_projected_start_halves_demo_iterations():
    """The demo config at 8x8x2 with block-Jacobi: the start projected on the
    span of the earlier solutions needs at most 400 CG iterations over the 40
    steps (759 from the plain warm start), and the snapshots stay those of the
    plain warm start to within the solver tolerance."""
    cfg = load_config(CONFIG_DIR / "parabolic_demo.yaml")
    mesh = build_box_mesh(cfg.domain, (8, 8, 2))
    basis = fb.make_basis(cfg.degree)
    curve = cfg.curve
    f, _ = cfg.source.build()
    config = replace(cfg.solver, preconditioner="block_jacobi")
    steps = run_backward_euler(mesh, cfg.scheme, curve, f, None, cfg.time, config,
                               basis=basis)
    step_iterations = [step.iterations for step in steps[1:]]
    assert len(step_iterations) == cfg.time.steps
    assert sum(step_iterations) <= 400
    plain, plain_iterations = warm_start_loop(mesh, cfg.scheme, basis, curve, f, cfg.time,
                                              config)
    assert sum(plain_iterations) > 700
    assert relative_gap(snapshots(steps), plain) <= 1e-9


def test_extend_basis_makes_one_product_and_keeps_q_orthonormal(monkeypatch):
    """Over the 8x8x2 demo march each basis extension applies S once, and
    the kept rows stay S-orthonormal: ||Q S Q^T - I|| <= 1e-10."""
    cfg = load_config(CONFIG_DIR / "parabolic_demo.yaml")
    extend, products, kept = linedg.parabolic._extend_basis, [], {}

    class Counted:
        def __init__(self, S):
            self.S, self.count = S, 0

        def __matmul__(self, x):
            self.count += 1
            return self.S @ x

    def counted(S, Q, m, u, Su):
        counting = Counted(S)
        kept["S"], kept["Q"], kept["m"] = S, Q, extend(counting, Q, m, u, Su)
        products.append(counting.count)
        return kept["m"]

    monkeypatch.setattr(linedg.parabolic, "_extend_basis", counted)
    f, _ = cfg.source.build()
    run_backward_euler(build_box_mesh(cfg.domain, (8, 8, 2)), cfg.scheme, cfg.curve, f,
                       None, cfg.time, cfg.solver)
    assert products == [1] * (cfg.time.steps - 1)
    Q = kept["Q"][:kept["m"]]
    assert len(Q) > 10
    gram = Q @ np.array([kept["S"] @ q for q in Q]).T
    assert np.linalg.norm(gram - np.eye(len(Q))) <= 1e-10


def test_nonsymmetric_variant_keeps_the_warm_start():
    """BiCGStab (epsilon = +1) starts each step from the previous solution:
    the same per-step iteration counts as the plain loop."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1, epsilon=1)
    grid = TimeGrid(final_time=0.05, steps=8)
    config = SolverConfig(rel_tol=1e-10)
    f = lambda t, s: 1.0 + 0 * s
    steps = run_backward_euler(mesh, spec, vertical_line(), f, None, grid, config, basis=basis)
    plain, plain_iterations = warm_start_loop(mesh, spec, basis, vertical_line(), f, grid,
                                              config)
    assert [step.iterations for step in steps[1:]] == plain_iterations
    assert relative_gap(snapshots(steps), plain) <= 1e-12


def test_projected_start_with_a_time_dependent_source():
    """With f(t, s) the right-hand sides leave the span of the earlier
    solutions; every snapshot still solves its step to the solver tolerance
    and matches the plain loop."""
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    basis = fb.make_basis(1)
    spec = DGSpec(1)
    curve = vertical_line()
    grid = TimeGrid(final_time=0.1, steps=12)
    config = SolverConfig(rel_tol=1e-10)
    f = lambda t, s: np.cos(30 * t) * (1 + 4 * s)
    u = snapshots(run_backward_euler(mesh, spec, curve, f, None, grid, config, basis=basis))
    plain, _ = warm_start_loop(mesh, spec, basis, curve, f, grid, config)
    assert relative_gap(u, plain) <= 1e-9

    M = assemble_mass(mesh, basis)
    S = M + grid.tau * assemble_stiffness(mesh, spec, basis)
    for n in range(1, grid.steps + 1):
        b_line = assemble_line_rhs(curve, lambda s: f(n * grid.tau, s), mesh, basis)
        rhs = M @ u[n - 1] + grid.tau * b_line
        residual = np.linalg.norm(S @ u[n] - rhs)
        assert residual <= 1.01 * config.rel_tol * np.linalg.norm(rhs)


def test_preconditioner_built_once_per_run(monkeypatch):
    import linedg.parabolic as parabolic
    import linedg.solver as solver

    calls = []
    real = solver.make_preconditioner

    def counting(system, kind):
        calls.append(kind)
        return real(system, kind)

    monkeypatch.setattr(parabolic, "make_preconditioner", counting)
    monkeypatch.setattr(solver, "make_preconditioner", counting)
    mesh = build_box_mesh(SLAB, (4, 4, 1))
    grid = TimeGrid(final_time=0.1, steps=5)
    u = snapshots(run_backward_euler(mesh, DGSpec(1), vertical_line(), 1.0, None, grid,
                                     SolverConfig(rel_tol=1e-10)))
    assert calls == ["block_jacobi"]
    assert np.all(np.isfinite(u)) and np.any(u[-1] != 0)


@pytest.mark.parametrize("dependent,builds", [(True, 4), (False, 1)])
def test_time_dependent_line_density(monkeypatch, dependent, builds):
    """f(t, s) is evaluated at each step's time when time-dependent, else once at t = 0."""
    import linedg.parabolic as parabolic

    loads = []
    real = parabolic.assemble_line_rhs

    def counting(*args, **kwargs):
        loads.append(real(*args, **kwargs))
        return loads[-1]

    monkeypatch.setattr(parabolic, "assemble_line_rhs", counting)
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    basis = fb.make_basis(1)
    grid = TimeGrid(final_time=0.2, steps=4)
    run_backward_euler(mesh, DGSpec(1), vertical_line(), lambda t, s: (1 + t) * np.cos(s),
                       None, grid, basis=basis, f_time_dependent=dependent)
    assert len(loads) == builds
    t_last = grid.final_time if dependent else 0.0
    expected = assemble_line_rhs(vertical_line(), lambda s: (1 + t_last) * np.cos(s), mesh, basis)
    assert np.array_equal(loads[-1], expected)


def test_one_argument_ufunc_density_rejected():
    """np.cos(t, s) would write cos(t) into s; a one-argument ufunc is no f(t, s)."""
    mesh = build_box_mesh(SLAB, (2, 2, 1))
    with pytest.raises(TypeError, match="f must be f\\(t, s\\)"):
        run_backward_euler(mesh, DGSpec(1), vertical_line(), np.cos, None,
                           TimeGrid(final_time=0.1, steps=2))


def test_multigrid_preconditions_the_parabolic_operator():
    """The stepper's V-cycle rebuilds M + tau A on the halved grid, and each
    step solves to the solver tolerance."""
    mesh = build_box_mesh(SLAB, (4, 4, 2))
    grid = TimeGrid(final_time=0.1, steps=2)
    config = SolverConfig(rel_tol=1e-10, preconditioner="multigrid")
    stepper = BackwardEuler(mesh, DGSpec(1), vertical_line(), 1.0, None, grid, config)
    assert isinstance(stepper.preconditioner, VCycle)
    assert stepper.preconditioner.grids == [(4, 4, 2), (2, 2, 1)]
    plain, _ = warm_start_loop(mesh, DGSpec(1), stepper.basis, vertical_line(),
                               lambda t, s: 1.0 + 0 * s, grid, SolverConfig(rel_tol=1e-12))
    assert relative_gap(snapshots(stepper), plain) <= 1e-9


def test_demo_multigrid_matches_block_jacobi():
    """The demo config at 8x8x2: the multigrid snapshots are the block-Jacobi
    ones to within the solver tolerance."""
    cfg = load_config(CONFIG_DIR / "parabolic_demo.yaml")
    assert cfg.solver.preconditioner == "multigrid"
    mesh = build_box_mesh(cfg.domain, (8, 8, 2))
    curve, (f, _) = cfg.curve, cfg.source.build()
    multigrid, jacobi = (
        snapshots(run_backward_euler(mesh, cfg.scheme, curve, f, None, cfg.time,
                                     replace(cfg.solver, preconditioner=kind)))
        for kind in ("multigrid", "block_jacobi"))
    assert relative_gap(multigrid, jacobi) <= 1e-9


@pytest.mark.parametrize("n", [(8, 8, 2), (16, 16, 4)])
def test_multigrid_step_iterations_do_not_grow(n):
    """With multigrid no step of the demo takes more than 16 CG iterations, at
    8x8x2 nor at 16x16x4 (measured 10 and 13; block-Jacobi: 55 and 109)."""
    cfg = load_config(CONFIG_DIR / "parabolic_demo.yaml")
    f, _ = cfg.source.build()
    steps = run_backward_euler(build_box_mesh(cfg.domain, n), cfg.scheme, cfg.curve,
                               f, None, cfg.time, cfg.solver)
    assert max(step.iterations for step in steps[1:]) <= 16


def test_multigrid_nonsymmetric_parabolic_operator():
    """An epsilon = +1 M + tau A under BiCGStab with multigrid converges."""
    mesh = build_box_mesh(SLAB, (4, 4, 2))
    grid = TimeGrid(final_time=0.05, steps=4)
    config = SolverConfig(rel_tol=1e-10, preconditioner="multigrid")
    stepper = BackwardEuler(mesh, DGSpec(1, epsilon=1), vertical_line(), 1.0, None, grid,
                            config)
    assert isinstance(stepper.preconditioner, VCycle) and len(stepper.preconditioner.grids) == 2
    A = assemble_stiffness(mesh, DGSpec(1, epsilon=1), stepper.basis)
    S = stepper.mass + grid.tau * A
    b = assemble_line_rhs(vertical_line(), 1.0, mesh, stepper.basis)
    march = snapshots(stepper)
    for u, v in zip(march[1:], march):
        rhs = stepper.mass @ v + grid.tau * b
        assert np.linalg.norm(S @ u - rhs) <= 1e-10 * np.linalg.norm(rhs)
