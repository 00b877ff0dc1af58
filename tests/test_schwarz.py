"""Interface construction, the multiplicative sweep, and field stitching."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from cdrschwarz import kernels, schwarz
from cdrschwarz.errors import ConfigurationError, DivergenceError
from cdrschwarz.fem import CdrParams, assemble, time_independent
from cdrschwarz.mesh import Rect, build_mesh
from cdrschwarz.schwarz import (PREDICTOR_DEPTH, FESubdomainSolver,
                                GatherPlan, LateRowHistory, ReducedBlock,
                                RomSubdomainSolver, SchwarzConfig, StitchPlan,
                                SubdomainSpec, build_interfaces,
                                build_solvers, run_coupled, schwarz_window)
from cdrschwarz.driver import cmd_train
from cdrschwarz.rom import OpInfOperators, RomStepper, compute_pod
from cdrschwarz.timestep import ImplicitEulerStepper, integrate

from conftest import small_cfg


def strip_specs(overlap=0.2, h=0.05):
    """Two vertical strips overlapping in an x band around 0.5."""
    hi = 0.5 + overlap / 2.0
    lo = 0.5 - overlap / 2.0
    ny = round(1.0 / h)
    return (SubdomainSpec(Rect(0.0, hi, 0.0, 1.0), round(hi / h), ny),
            SubdomainSpec(Rect(lo, 1.0, 0.0, 1.0), round((1.0 - lo) / h), ny))


def unaligned_strip_specs():
    """Three vertical strips, narrowly overlapping on unaligned meshes."""
    return (SubdomainSpec(Rect(0.0, 0.3, 0.0, 1.0), 6, 10),
            SubdomainSpec(Rect(0.26, 0.6, 0.0, 1.0), 5, 13),
            SubdomainSpec(Rect(0.5, 1.0, 0.0, 1.0), 10, 20))


def moving_data_params():
    """Problem data whose Dirichlet values move every substep."""
    return CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.5), forcing=1.0,
                     dirichlet=lambda x, y, t: np.sin(3.0 * t) + x * y)


def make_rom_solver(config, params, table, i, r=4, seed=0):
    """Reduced solver for subdomain ``i`` with a random stable model."""
    mesh = table.meshes[i]
    n_i = mesh.interior_node_ids.shape[0]
    n_b = mesh.boundary_node_ids.shape[0]
    rng = np.random.default_rng(seed)
    basis = compute_pod(rng.standard_normal((n_i, 3 * r)), r)
    ops = OpInfOperators(Khat=-np.eye(r) + 0.1 * rng.standard_normal((r, r)),
                         Bhat=0.1 * rng.standard_normal((r, n_b)),
                         fhat=rng.standard_normal(r))
    return RomSubdomainSolver(config.subdomains[i], mesh, params, config.dt,
                              config.steps_per_window,
                              table.entries[i].gamma_positions, basis, ops)


class RecordingPlan(GatherPlan):
    """Gather plan that logs every (receiver, values) pair it serves."""

    def __init__(self, table, solvers):
        super().__init__(table, solvers)
        self.log = []

    def gather(self, i):
        vals = super().gather(i)
        self.log.append((i, vals.copy()))
        return vals


# ---------------------------------------------------------------------------
# Configuration objects


def test_subdomain_spec_validation():
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        SubdomainSpec(rect, 4, 4, model="spectral")
    with pytest.raises(ConfigurationError):
        SubdomainSpec(rect, 4, 4, model="rom")  # needs a rank
    with pytest.raises(ConfigurationError):
        SubdomainSpec(rect, 4, 4, model="rom", rom_dim=3, rom_lambda=-1.0)
    spec = SubdomainSpec(rect, 4, 4, model="rom", rom_dim=3)
    assert spec.rom_lambda == 0.0


def test_schwarz_config_validation():
    specs = strip_specs()
    with pytest.raises(ConfigurationError):
        SchwarzConfig(subdomains=(), dt=0.1, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SchwarzConfig(subdomains=specs, dt=0.0, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SchwarzConfig(subdomains=specs, dt=0.1, t_end=1.0, tol=0.0)
    with pytest.raises(ConfigurationError):
        SchwarzConfig(subdomains=specs, dt=0.1, t_end=1.0, max_iters=0)
    with pytest.raises(ConfigurationError):
        SchwarzConfig(subdomains=specs, dt=0.1, t_end=1.0, steps_per_window=0)
    with pytest.raises(ConfigurationError):  # horizon not a step multiple
        SchwarzConfig(subdomains=specs, dt=0.3, t_end=1.0)
    outside = (SubdomainSpec(Rect(0.0, 1.5, 0.0, 1.0), 4, 4),)
    with pytest.raises(ConfigurationError):
        SchwarzConfig(subdomains=outside, dt=0.1, t_end=1.0)

    config = SchwarzConfig(subdomains=specs, dt=0.1, t_end=1.0,
                           steps_per_window=2)
    assert config.window_dt == pytest.approx(0.2)
    assert config.n_windows == 5


# ---------------------------------------------------------------------------
# Interface construction


def test_two_strip_interfaces():
    config = SchwarzConfig(subdomains=strip_specs(overlap=0.2, h=0.1),
                           dt=0.1, t_end=1.0)
    table = build_interfaces(config)
    left, right = table.entries

    # Interface nodes sit on the inner vertical edges, global corners excluded.
    assert left.n_gamma == 9  # x = 0.6, y in {0.1, ..., 0.9}
    np.testing.assert_allclose(left.gamma_points[:, 0], 0.6, atol=1e-14)
    np.testing.assert_array_equal(left.donors, 1)
    assert right.n_gamma == 9  # x = 0.4
    np.testing.assert_allclose(right.gamma_points[:, 0], 0.4, atol=1e-14)
    np.testing.assert_array_equal(right.donors, 0)
    assert sorted(set(left.donors.tolist())) == [1]
    assert sorted(set(right.donors.tolist())) == [0]


def test_quadrant_interfaces(default_cfg):
    cfg = small_cfg()
    config = cfg.schwarz_config(force_model="fe")
    table = build_interfaces(config)
    rects = [s.rect for s in config.subdomains]
    lo, hi = 0.4, 0.6  # overlap band edges for split 0.5, overlap 0.2

    for i, entry in enumerate(table.entries):
        assert np.all(entry.donors != i)
        for (x, y), j in zip(entry.gamma_points, entry.donors):
            # Every interface point sits strictly inside its donor.
            assert rects[j].border_distance(x, y) > 0.0
            # And no other subdomain holds it deeper.
            for k, rect in enumerate(rects):
                if k != i:
                    assert rect.border_distance(x, y) <= \
                        rects[j].border_distance(x, y) + 1e-12

    # Bottom-left subdomain: top-edge nodes left of the vertical overlap
    # band can only be fed by the top-left neighbor.
    bl = table.entries[0]
    on_top = np.abs(bl.gamma_points[:, 1] - hi) <= 1e-12
    left_of_band = bl.gamma_points[:, 0] < lo - 1e-12
    assert np.all(bl.donors[on_top & left_of_band] == 2)
    # Right-edge nodes below the horizontal band come from the bottom-right.
    on_right = np.abs(bl.gamma_points[:, 0] - hi) <= 1e-12
    below_band = bl.gamma_points[:, 1] < lo - 1e-12
    assert np.all(bl.donors[on_right & below_band] == 1)


def test_touching_rectangles_are_rejected():
    specs = (SubdomainSpec(Rect(0.0, 0.5, 0.0, 1.0), 5, 10),
             SubdomainSpec(Rect(0.5, 1.0, 0.0, 1.0), 5, 10))
    config = SchwarzConfig(subdomains=specs, dt=0.1, t_end=1.0)
    with pytest.raises(ConfigurationError, match="overlap is too small"):
        build_interfaces(config)


def test_gather_plan_matches_direct_interpolation():
    config = SchwarzConfig(subdomains=strip_specs(), dt=0.05, t_end=0.2)
    table = build_interfaces(config)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.5),
                       forcing=lambda x, y, t: x + y)
    solvers = build_solvers(config, table, params)
    plan = GatherPlan(table, solvers)
    schwarz_window(plan, 0.0, tol=1e-9, max_iters=50)

    for i, entry in enumerate(table.entries):
        got = plan.gather(i)
        want = np.empty(entry.n_gamma)
        for j in set(entry.donors.tolist()):
            sel = entry.donors == j
            want[sel] = table.meshes[j].interpolation_matrix(
                entry.gamma_points[sel]) @ solvers[j].full_field()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_gather_plan_matches_lifted_reduced_donor():
    # The plan samples a reduced donor in reduced coordinates; the values
    # must match interpolating the donor's lifted nodal field. The donor
    # mesh is coarser, so Gamma points near the global border fall between
    # donor nodes and the moving Dirichlet data on the donor's boundary
    # enters the gather too.
    fine, coarse = strip_specs(h=0.05), strip_specs(h=0.1)
    config = SchwarzConfig(subdomains=(fine[0], coarse[1]), dt=0.05,
                           t_end=0.2)
    table = build_interfaces(config)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.5),
                       forcing=lambda x, y, t: x + y,
                       dirichlet=lambda x, y, t: (1.0 + t) * (x - y))
    solvers = build_solvers(config, table, params)
    solvers[1] = make_rom_solver(config, params, table, 1)
    rng = np.random.default_rng(3)
    solvers[1].state = rng.standard_normal(solvers[1].state.shape[0])
    solvers[1].set_interface_values(
        rng.standard_normal(table.entries[1].n_gamma))
    solvers[1].advance_window(0.0)

    plan = GatherPlan(table, solvers)
    entry = table.entries[0]
    got = plan.gather(0)
    want = table.meshes[1].interpolation_matrix(
        entry.gamma_points) @ solvers[1].full_field()
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_fe_gathers_are_bitwise_on_unaligned_meshes():
    # On unaligned meshes a Gamma row weighs up to four donor nodes, so a
    # gather that summed them in another order than the nodal interpolation
    # would differ in the last bit somewhere; moving Dirichlet data put
    # nonzero values on the donors' physical boundary rows too.
    config = SchwarzConfig(subdomains=unaligned_strip_specs(), dt=0.01,
                           t_end=0.03)
    params = moving_data_params()
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params)
    plan = GatherPlan(table, solvers)
    for w in range(config.n_windows):
        schwarz_window(plan, w * config.dt, config.tol, config.max_iters)
        for i, entry in enumerate(table.entries):
            got = plan.gather(i)
            for j in set(entry.donors.tolist()):
                idx = np.flatnonzero(entry.donors == j)
                np.testing.assert_array_equal(
                    got[idx], table.meshes[j].interpolation_matrix(
                        entry.gamma_points[idx]) @ solvers[j].full_field())


# ---------------------------------------------------------------------------
# The window fixed point


def steady_strip_setup(overlap, tol=1e-10, h=0.02):
    # One backward-Euler step at a huge dt approximates the steady problem,
    # making each window iteration a pure boundary-value solve.
    config = SchwarzConfig(subdomains=strip_specs(overlap=overlap, h=h),
                           dt=1e6, t_end=1e6, tol=tol, max_iters=200)
    params = CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0), forcing=1.0)
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params)
    return config, params, table, solvers


def test_sweep_contracts_geometrically():
    config, _, table, solvers = steady_strip_setup(overlap=0.2)
    plan = RecordingPlan(table, solvers)
    iters, ok = schwarz_window(plan, 0.0, config.tol, config.max_iters)
    assert ok and iters >= 3

    history = [vals for (i, vals) in plan.log if i == 0]
    changes = [np.max(np.abs(b - a)) for a, b in zip(history, history[1:])]
    # Strictly decreasing interface updates with a uniform contraction rate.
    assert all(later < earlier for earlier, later in zip(changes, changes[1:]))
    rates = [later / earlier for earlier, later in zip(changes, changes[1:])
             if earlier > 0]
    assert max(rates) < 0.9


def test_wider_overlap_converges_faster():
    results = {}
    for overlap in (0.08, 0.2):
        config, _, table, solvers = steady_strip_setup(overlap=overlap)
        iters, ok = schwarz_window(GatherPlan(table, solvers), 0.0,
                                   config.tol, config.max_iters)
        assert ok
        results[overlap] = iters
    assert results[0.2] < results[0.08]


def test_converged_strips_match_monolithic_steady_solution():
    config, params, table, solvers = steady_strip_setup(overlap=0.2,
                                                        tol=1e-12)
    iters, ok = schwarz_window(GatherPlan(table, solvers), 0.0,
                               config.tol, config.max_iters)
    assert ok

    global_mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 50, 50)
    system = assemble(global_mesh, params)
    steady = np.zeros(global_mesh.n_nodes)
    steady[system.interior_map] = spsolve(system.A_II.tocsc(),
                                          system.load(0.0))
    stitched = StitchPlan(config, global_mesh, table.meshes).apply(
        [s.full_field() for s in solvers])
    assert np.max(np.abs(stitched - steady)) <= 1e-6


def test_sweep_is_multiplicative_not_jacobi():
    # Within one iteration the second subdomain must be fed from the first
    # subdomain's freshly advanced field, not its window-start field.
    config, params, table, solvers = steady_strip_setup(overlap=0.2)
    plan = RecordingPlan(table, solvers)
    schwarz_window(plan, 0.0, config.tol, config.max_iters)
    first_gather_0 = next(v for (i, v) in plan.log if i == 0)
    first_gather_1 = next(v for (i, v) in plan.log if i == 1)

    # Replay subdomain 0's first advance on a fresh solver.
    replay = build_solvers(config, table, params)[0]
    replay.set_interface_values(first_gather_0)
    replay.advance_window(0.0)
    entry1 = table.entries[1]
    fresh_field_sample = table.meshes[0].interpolation_matrix(
        entry1.gamma_points) @ replay.full_field()
    np.testing.assert_allclose(first_gather_1, fresh_field_sample,
                               rtol=0, atol=1e-12)
    # A Jacobi sweep would have sampled the window-start field instead.
    assert np.max(np.abs(first_gather_1)) > 1e-3


def test_first_gather_of_cold_start_is_zero():
    config, _, table, solvers = steady_strip_setup(overlap=0.2)
    plan = RecordingPlan(table, solvers)
    schwarz_window(plan, 0.0, config.tol, config.max_iters)
    np.testing.assert_array_equal(plan.log[0][1], 0.0)


def test_unconverged_window_reports_flag():
    config, params, table, solvers = steady_strip_setup(overlap=0.2,
                                                        tol=1e-14)
    iters, ok = schwarz_window(GatherPlan(table, solvers), 0.0,
                               tol=1e-14, max_iters=1)
    assert iters == 1 and not ok


def test_sweep_check_kernels():
    x = np.array([1.0, -3.0, 0.5])
    assert kernels.all_finite(x) and kernels.all_finite(np.zeros(0))
    for bad in (np.nan, np.inf, -np.inf):
        assert not kernels.all_finite(np.array([1.0, bad, 2.0]))
    prev = np.array([1.5, -3.0, 0.0])
    assert kernels.relative_sup_change(x, prev) == 0.5 / 4.0
    assert kernels.relative_sup_change(np.zeros(0), np.zeros(0)) == 0.0


def test_divergent_state_raises():
    class PoisonedSolver(FESubdomainSolver):
        def advance_window(self, t_n):
            super().advance_window(t_n)
            self.last_states = self.last_states * np.nan

    config, params, table, _ = steady_strip_setup(overlap=0.2)
    solvers = [PoisonedSolver(spec, table.meshes[i], params, config.dt,
                              config.steps_per_window,
                              table.entries[i].gamma_positions)
               for i, spec in enumerate(config.subdomains)]
    with pytest.raises(DivergenceError):
        schwarz_window(GatherPlan(table, solvers), 0.0, config.tol,
                       config.max_iters)


def test_divergent_reduced_state_raises():
    # The sweep checks reduced coordinates, never a lifted state, so a
    # non-finite vhat must be caught there.
    config, params, table, solvers = steady_strip_setup(overlap=0.2)
    solvers[0] = make_rom_solver(config, params, table, 0)
    solvers[0].state = np.full(solvers[0].state.shape[0], np.nan)
    with pytest.raises(DivergenceError, match="subdomain 1 .*non-finite"):
        schwarz_window(GatherPlan(table, solvers), 0.0, config.tol,
                       config.max_iters)


@pytest.mark.parametrize("steps_per_window", [1, 3])
def test_reduced_window_matches_substep_stepping(steps_per_window):
    # One reduced window equals implicit Euler substeps of the same model
    # with the physical trace following the data and Gamma held fixed.
    config = SchwarzConfig(subdomains=strip_specs(), dt=0.05, t_end=0.3,
                           steps_per_window=steps_per_window)
    table = build_interfaces(config)
    params = moving_data_params()
    solver = make_rom_solver(config, params, table, 0)
    rng = np.random.default_rng(7)
    v0 = rng.standard_normal(solver.state.shape[0])
    gamma = rng.standard_normal(table.entries[0].n_gamma)
    solver.state = v0.copy()
    solver.set_interface_values(gamma)
    solver.advance_window(0.0)

    coords = table.meshes[0].coords[solver.boundary_map]
    stepper = RomStepper(solver.ops, config.dt)
    vhat = v0
    for j in range(steps_per_window):
        t_j = (j + 1) * config.dt
        g = np.sin(3.0 * t_j) + coords[:, 0] * coords[:, 1]
        g[solver.gamma_positions] = gamma
        vhat = stepper.step(vhat, g)
        np.testing.assert_allclose(solver.last_states[:, j], vhat,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(solver.last_traces[:, j], g,
                                   rtol=0, atol=1e-15)
    assert solver.last_states.shape == (solver.ops.r, steps_per_window)
    np.testing.assert_allclose(solver.boundary_trace(), g, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(solver.lift(solver.state),
                               solver.basis.Psi @ vhat, rtol=0, atol=1e-13)


def test_snapshot_restore_round_trip():
    config, params, table, solvers = steady_strip_setup(overlap=0.2)
    s = solvers[0]
    snap = s.snapshot_state()
    before = s.full_field().copy()
    s.set_interface_values(np.ones(table.entries[0].n_gamma))
    s.advance_window(0.0)
    assert np.max(np.abs(s.full_field() - before)) > 1e-3
    s.restore_state(snap)
    np.testing.assert_array_equal(s.full_field(), before)


# ---------------------------------------------------------------------------
# Coupled runs


def test_single_subdomain_equals_direct_integration():
    spec = SubdomainSpec(Rect(0.0, 1.0, 0.0, 1.0), 10, 10)
    params = CdrParams(eps=0.05, sigma=0.1, b=(0.5, 0.2),
                       forcing=lambda x, y, t: x * y,
                       dirichlet=lambda x, y, t: t * (x + y))
    config = SchwarzConfig(subdomains=(spec,), dt=0.05, t_end=0.5)
    run = run_coupled(config, params)
    assert run.converged
    np.testing.assert_array_equal(run.iterations, 1)

    mesh = build_mesh(spec.rect, 10, 10)
    system = assemble(mesh, params)
    coords = mesh.coords[system.boundary_map]
    direct = integrate(
        ImplicitEulerStepper(system, 0.05), 0.0, 0.5,
        np.zeros(system.n_interior),
        lambda t: t * (coords[:, 0] + coords[:, 1]))
    np.testing.assert_allclose(run.trajectories[0].states, direct.states,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(run.trajectories[0].boundary_traces,
                               direct.boundary_traces, rtol=0, atol=1e-14)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_coupled_error_scales_with_tolerance(tol):
    cfg = small_cfg(t_end=0.1, dt=0.01, training_t_end=0.1, tol=tol)
    config = cfg.schwarz_config(force_model="fe")
    run = run_coupled(config, cfg.params())
    assert run.converged

    global_mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), cfg.nx, cfg.ny)
    system = assemble(global_mesh, cfg.params())
    direct = integrate(ImplicitEulerStepper(system, cfg.dt), 0.0, cfg.t_end,
                       np.zeros(system.n_interior),
                       lambda t: np.zeros(system.n_boundary))
    final = np.zeros(global_mesh.n_nodes)
    final[system.interior_map] = direct.states[:, -1]
    # The solvers sit at t_end, so their current fields are the final states.
    stitched = StitchPlan(config, global_mesh, run.meshes).apply(
        [s.full_field() for s in run.solvers])
    assert np.max(np.abs(stitched - final)) <= 100.0 * tol


def test_coupled_runs_are_deterministic():
    cfg = small_cfg(t_end=0.1, dt=0.01, training_t_end=0.1)
    config = cfg.schwarz_config(force_model="fe")
    run_a = run_coupled(config, cfg.params())
    run_b = run_coupled(config, cfg.params())
    assert np.array_equal(run_a.iterations, run_b.iterations)
    for ta, tb in zip(run_a.trajectories, run_b.trajectories):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.boundary_traces, tb.boundary_traces)


def test_coupled_max_iters_one_reports_unconverged():
    cfg = small_cfg(t_end=0.05, dt=0.01, training_t_end=0.05, mono_r=6,
                    max_iters=1)
    config = cfg.schwarz_config(force_model="fe")
    run = run_coupled(config, cfg.params())
    assert not run.converged
    assert not run.window_converged.all()


def three_strip_specs(h=0.05):
    """Three vertical strips; the middle one has donors 0 (left) and 2."""
    ny = round(1.0 / h)
    return tuple(SubdomainSpec(Rect(x0, x1, 0.0, 1.0), round((x1 - x0) / h),
                               ny)
                 for x0, x1 in ((0.0, 0.4), (0.3, 0.7), (0.6, 1.0)))


@pytest.mark.parametrize("degree", range(PREDICTOR_DEPTH + 1))
def test_late_row_history_extrapolates_polynomials_exactly(degree):
    # Late rows whose window-start values are a polynomial of the window
    # index are predicted exactly one window ahead once the history holds
    # at least `degree` earlier anchors; earlier-donor rows are untouched.
    # The solvers' coordinates are a polynomial of the window index, so
    # every gathered value is one too.
    config = SchwarzConfig(subdomains=three_strip_specs(h=0.1), dt=0.1,
                           t_end=1.0)
    table = build_interfaces(config)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.0))
    solvers = build_solvers(config, table, params)
    plan = GatherPlan(table, solvers)
    history = LateRowHistory(plan)
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal((degree + 1, int(plan.columns[-1])))

    def move_to(w):
        coords = sum(c * float(w) ** d for d, c in enumerate(coeffs))
        for k, s in enumerate(solvers):
            s.state, s.g_cur = np.split(
                coords[plan.columns[k]:plan.columns[k + 1]],
                [s.state.shape[0]])

    def data(i, w):
        move_to(w)
        return plan.gather(i)

    for w in range(PREDICTOR_DEPTH + 3):
        move_to(w)
        history.start_window()
        for i, entry in enumerate(table.entries):
            gathered = data(i, w)
            out = gathered.copy()
            history.impose(out, plan.offsets[i], plan.offsets[i + 1])
            late = entry.donors > i
            np.testing.assert_array_equal(out[~late], gathered[~late])
            if w == 0:
                # An empty history hands the gather back untouched.
                np.testing.assert_array_equal(out, gathered)
            elif min(w, PREDICTOR_DEPTH) >= degree:
                expect = data(i, w + 1)
                np.testing.assert_allclose(
                    out[late], expect[late], rtol=0,
                    atol=1e-12 * np.max(np.abs(expect)))


def test_predictor_cuts_sweeps_and_keeps_window_zero():
    cfg = small_cfg()
    config = cfg.schwarz_config(force_model="fe")
    run = run_coupled(config, cfg.params())

    # The same march without a history: every first sweep feeds late rows
    # their window-start values.
    table = build_interfaces(config)
    solvers = build_solvers(config, table, cfg.params())
    plan = GatherPlan(table, solvers)
    for i, s in enumerate(solvers):
        s.set_interface_values(plan.gather(i))
    lagged = []
    for w in range(config.n_windows):
        t_w = w * config.window_dt
        iters, ok = schwarz_window(plan, t_w, config.tol, config.max_iters)
        assert ok
        lagged.append(iters)
        if w == 0:
            window_zero = [s.last_states.copy() for s in solvers]

    assert run.converged
    assert run.iterations[0] == lagged[0]
    for traj, states in zip(run.trajectories, window_zero):
        np.testing.assert_array_equal(traj.states[:, 1:2], states)
    assert int(run.iterations.sum()) < sum(lagged)


def test_rows_from_earlier_donors_are_never_extrapolated():
    config = SchwarzConfig(subdomains=three_strip_specs(), dt=0.01,
                           t_end=0.08)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.0), forcing=1.0)
    table = build_interfaces(config)
    donors = table.entries[1].donors
    assert set(donors.tolist()) == {0, 2}
    solvers = build_solvers(config, table, params)
    imposed = []
    impose = solvers[1].set_interface_values

    def recording_impose(values):
        imposed.append(np.array(values))
        impose(values)

    solvers[1].set_interface_values = recording_impose
    plan = RecordingPlan(table, solvers)
    history = LateRowHistory(plan)
    for w in range(config.n_windows):
        plan.log.clear()
        imposed.clear()
        t_w = w * config.dt
        iters, ok = schwarz_window(plan, t_w, config.tol, config.max_iters,
                                   history)
        assert ok and iters >= 2
        gathered = next(v for (i, v) in plan.log if i == 1)
        np.testing.assert_array_equal(imposed[0][donors == 0],
                                      gathered[donors == 0])
        if w > 0:
            assert np.any(imposed[0][donors == 2] != gathered[donors == 2])


def test_rom_solver_validates_shapes():
    config, params, table, _ = steady_strip_setup(overlap=0.2)
    mesh = table.meshes[0]
    entry = table.entries[0]
    n_i = mesh.interior_node_ids.shape[0]
    n_b = mesh.boundary_node_ids.shape[0]
    rng = np.random.default_rng(0)
    basis = compute_pod(rng.standard_normal((n_i, 12)), 4)
    good_ops = OpInfOperators(Khat=-np.eye(4), Bhat=np.zeros((4, n_b)),
                              fhat=np.zeros(4))
    spec = config.subdomains[0]
    solver = RomSubdomainSolver(spec, mesh, params, config.dt, 1,
                                entry.gamma_positions, basis, good_ops)
    assert solver.lift(solver.state).shape == (n_i,)

    bad_rank = OpInfOperators(Khat=-np.eye(3), Bhat=np.zeros((3, n_b)),
                              fhat=np.zeros(3))
    with pytest.raises(ConfigurationError):
        RomSubdomainSolver(spec, mesh, params, config.dt, 1,
                           entry.gamma_positions, basis, bad_rank)
    bad_inputs = OpInfOperators(Khat=-np.eye(4), Bhat=np.zeros((4, n_b - 1)),
                                fhat=np.zeros(4))
    with pytest.raises(ConfigurationError):
        RomSubdomainSolver(spec, mesh, params, config.dt, 1,
                           entry.gamma_positions, basis, bad_inputs)


# ---------------------------------------------------------------------------
# Reduced blocks


class PerReceiverHistory:
    """The first-sweep predictor kept receiver by receiver: each visit
    stores the late rows of its own gather as the newest anchor and
    overwrites them with the polynomial through its anchors, one window
    ahead. The reference for :class:`LateRowHistory`, which samples every
    late row once per window."""

    def __init__(self, plan):
        self._late = [np.flatnonzero(plan.donors[a:b] > i) for i, (a, b)
                      in enumerate(zip(plan.offsets[:-1], plan.offsets[1:]))]
        self._anchors = [np.empty((PREDICTOR_DEPTH + 1, rows.shape[0]))
                         for rows in self._late]
        self._held = [0] * len(self._late)

    def predict(self, i, vals):
        rows, anchors, k = self._late[i], self._anchors[i], self._held[i]
        anchors[1:] = anchors[:-1]
        anchors[0] = vals[rows]
        self._held[i] = min(k + 1, PREDICTOR_DEPTH)
        # Lagrange weights of the anchors at 0, -1, ..., -k evaluated at 1.
        nodes = -np.arange(k + 1.0)
        weights = np.array([[np.prod([(1.0 - b) / (a - b)
                                      for b in nodes if b != a])]
                            for a in nodes])
        vals[rows] = np.add.reduce(weights * anchors[:k + 1], axis=0)
        return vals


def per_visit_window(plan, t_n, tol, max_iters, history):
    """The sweep visit by visit, every subdomain advanced through its own
    ``advance_window`` in every sweep and checked on its own: the reference
    that the composed reduced blocks and the finite element Gamma responses
    of ``schwarz_window`` must reproduce."""
    solvers = plan.solvers
    for s in solvers:
        s._window_snapshot = s.snapshot_state()
    prev = [s.interface_values() for s in solvers]
    for iteration in range(1, max_iters + 1):
        change = 0.0
        for i, s in enumerate(solvers):
            vals = plan.gather(i)
            if iteration == 1:
                vals = history.predict(i, vals)
            s.restore_state(s._window_snapshot)
            s.set_interface_values(vals)
            s.advance_window(t_n)
            change = max(change, kernels.relative_sup_change(vals, prev[i]))
            prev[i] = vals
        if change <= tol:
            return iteration, True
    return max_iters, False


def march(config, make_solvers, window, predictor=LateRowHistory):
    """Sweeps per window and each window's recorded states and traces of a
    march over ``config`` with ``window``, seeded by ``predictor``."""
    table = build_interfaces(config)
    solvers = make_solvers(table)
    plan = GatherPlan(table, solvers)
    history = predictor(plan)
    for i, s in enumerate(solvers):
        s.set_interface_values(plan.gather(i))
    sweeps, records = [], []
    for w in range(config.n_windows):
        t_w = w * config.window_dt
        iters, _ = window(plan, t_w, config.tol, config.max_iters, history)
        sweeps.append(iters)
        records.append([(np.array(s.last_states), np.array(s.last_traces))
                         for s in solvers])
    return sweeps, records


def assert_marches_agree(config, make_solvers):
    sweeps, records = march(config, make_solvers, schwarz_window)
    ref_sweeps, ref_records = march(config, make_solvers, per_visit_window,
                                    PerReceiverHistory)
    assert sweeps == ref_sweeps
    assert max(sweeps) > 1
    scale = max(1.0, max(np.max(np.abs(x)) for window in ref_records
                         for pair in window for x in pair))
    for window, ref in zip(records, ref_records):
        for (states, traces), (ref_states, ref_traces) in zip(window, ref):
            np.testing.assert_allclose(states, ref_states, rtol=0,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(traces, ref_traces, rtol=0,
                                       atol=1e-12 * scale)


@pytest.fixture(scope="module")
def small_trained():
    return cmd_train(small_cfg(t_end=0.3)).trained


@pytest.mark.parametrize("steps_per_window", [1, 3])
def test_reduced_block_matches_visits_on_trained_quadrants(small_trained,
                                                           steps_per_window):
    # Quadrants 0-2 are reduced and form one block ahead of the FE quadrant.
    cfg = small_cfg(t_end=0.3, steps_per_window=steps_per_window)
    config = cfg.schwarz_config()

    def make_solvers(table):
        return build_solvers(config, table, cfg.params(), small_trained)

    assert_marches_agree(config, make_solvers)


def test_build_solvers_checks_trained_operators(small_trained):
    cfg = small_cfg(t_end=0.3)
    config = cfg.schwarz_config()
    table = build_interfaces(config)
    solvers = build_solvers(config, table, cfg.params(), small_trained)
    assert [type(s) for s in solvers] == [RomSubdomainSolver] * 3 + [
        FESubdomainSolver]
    with pytest.raises(ConfigurationError, match=r"^subdomain 1 is reduced "
                       r"but has no trained operators; run training first"):
        build_solvers(config, table, cfg.params())
    with pytest.raises(ConfigurationError,
                       match=r"subdomain 1 .*r = 4.*rank 6.*retrain"):
        build_solvers(small_cfg(t_end=0.3, training_r=4).schwarz_config(),
                      table, cfg.params(), small_trained)


def four_strip_specs(h=0.05):
    ny = round(1.0 / h)
    return tuple(SubdomainSpec(Rect(x0, x1, 0.0, 1.0), round((x1 - x0) / h),
                               ny)
                 for x0, x1 in ((0.0, 0.3), (0.2, 0.55), (0.45, 0.8),
                                (0.7, 1.0)))


@pytest.mark.parametrize("steps_per_window", [1, 3, 12])
def test_reduced_blocks_match_visits_around_a_fe_strip(steps_per_window):
    # Reduced, reduced, FE, reduced: two blocks, one of a single member, and
    # moving Dirichlet data, so the physical trace changes every window.
    config = SchwarzConfig(subdomains=four_strip_specs(), dt=0.01,
                           t_end=0.12, steps_per_window=steps_per_window)
    params = moving_data_params()

    def make_solvers(table):
        solvers = build_solvers(config, table, params)
        for i in (0, 1, 3):
            solvers[i] = make_rom_solver(config, params, table, i, seed=i)
        return solvers

    table = build_interfaces(config)
    units = GatherPlan(table, make_solvers(table)).units
    assert [u if isinstance(u, int) else u.members for u in units] == \
        [[0, 1], 2, [3]]
    assert_marches_agree(config, make_solvers)


def test_reduced_block_composes_gathers_from_member_traces():
    # A narrow overlap and unaligned meshes: the later member's gathers from
    # the earlier one weigh that member's Gamma rows and physical rows, so
    # the composed map carries its boundary trace, not only its state; and
    # the FE strip's gathers weigh the later member's physical rows, which
    # must follow the moving data.
    config = SchwarzConfig(subdomains=unaligned_strip_specs(), dt=0.01,
                           t_end=0.08, steps_per_window=2)
    params = moving_data_params()

    def make_solvers(table):
        solvers = build_solvers(config, table, params)
        for i in (0, 1):
            solvers[i] = make_rom_solver(config, params, table, i, seed=i)
        return solvers

    table = build_interfaces(config)
    solvers = make_solvers(table)
    plan = GatherPlan(table, solvers)
    for receiver, donor, kinds in ((1, 0, ("gamma", "physical")),
                                   (2, 1, ("physical",))):
        entry = table.entries[receiver]
        j = int(entry.donors.min())
        matrix = table.meshes[j].interpolation_matrix(
            entry.gamma_points[entry.donors == j])
        trace = matrix.tocsc()[:, solvers[donor].boundary_map].toarray()
        assert j == donor
        for kind in kinds:
            rows = getattr(solvers[donor], f"{kind}_positions")
            assert np.any(trace[:, rows] != 0.0)
    assert_marches_agree(config, make_solvers)


@pytest.mark.parametrize("steps_per_window", [1, 3])
def test_fe_responses_match_visits_on_unaligned_strips(steps_per_window):
    # All-FE, with moving Dirichlet data: every sweep after a window's first
    # moves each strip's window end by its Gamma response, and a window of
    # several substeps replays the earlier ones after its final sweep.
    config = SchwarzConfig(subdomains=unaligned_strip_specs(), dt=0.01,
                           t_end=0.12, steps_per_window=steps_per_window)
    params = moving_data_params()

    def make_solvers(table):
        return build_solvers(config, table, params)

    assert_marches_agree(config, make_solvers)


@pytest.mark.parametrize("steps_per_window", [1, 3])
def test_fe_response_equals_a_genuine_window(steps_per_window):
    # A window advanced with some Gamma values and then moved to others by
    # the Gamma response is the window advanced with the others: states,
    # recorded traces, whose physical rows follow the data, and the trace
    # the next window starts from.
    config = SchwarzConfig(subdomains=unaligned_strip_specs(), dt=0.01,
                           t_end=0.12, steps_per_window=steps_per_window)
    params = moving_data_params()
    table = build_interfaces(config)
    solver = build_solvers(config, table, params)[1]
    rng = np.random.default_rng(11)
    n_gamma = table.entries[1].n_gamma
    solver.state = rng.standard_normal(solver.state.shape[0])
    solver.set_interface_values(rng.standard_normal(n_gamma))
    # A window start: snapshot, then rewind, which commits the trace.
    snap = solver.snapshot_state()
    solver.restore_state(snap)
    t_n = config.window_dt
    gamma = rng.standard_normal(n_gamma)

    solver.set_interface_values(rng.standard_normal(n_gamma))
    solver.advance_window(t_n)
    solver.respond(gamma)
    solver.finish_window(t_n)
    responded = (solver.state, solver.last_states, solver.last_traces,
                 solver.boundary_trace(), solver._g_committed)

    solver.restore_state(snap)
    solver.set_interface_values(gamma)
    solver.advance_window(t_n)
    genuine = (solver.state, solver.last_states, solver.last_traces,
               solver.boundary_trace(), solver._g_committed)
    scale = max(np.max(np.abs(x)) for x in genuine)
    for got, want in zip(responded, genuine):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
    xy = table.meshes[1].coords[solver.boundary_map[solver.physical_positions]]
    for j in range(steps_per_window):
        t_j = t_n + (j + 1) * config.dt
        np.testing.assert_array_equal(
            responded[2][solver.physical_positions, j],
            np.sin(3.0 * t_j) + xy[:, 0] * xy[:, 1])
        np.testing.assert_array_equal(
            responded[2][solver.gamma_positions, j], gamma)


def test_reduced_block_follows_moving_dirichlet_data():
    # Window after window, each member's recorded states are the implicit
    # Euler substeps of its own model driven by its recorded traces, whose
    # physical rows follow the Dirichlet data.
    def dirichlet(x, y, t):
        return np.sin(3.0 * t) + x * y

    config = SchwarzConfig(subdomains=four_strip_specs(), dt=0.01,
                           t_end=0.06, steps_per_window=2)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.5), forcing=1.0,
                       dirichlet=dirichlet)
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params)
    for i in (0, 1, 3):
        solvers[i] = make_rom_solver(config, params, table, i, seed=i)
    plan = GatherPlan(table, solvers)
    history = LateRowHistory(plan)
    for w in range(config.n_windows):
        t_w = w * config.window_dt
        start = [np.array(s.state) for s in solvers]
        schwarz_window(plan, t_w, config.tol, config.max_iters, history)
        for i in (0, 1, 3):
            s = solvers[i]
            xy = table.meshes[i].coords[s.boundary_map[s.physical_positions]]
            stepper = RomStepper(s.ops, config.dt)
            vhat = start[i]
            for j in range(config.steps_per_window):
                t_j = t_w + (j + 1) * config.dt
                np.testing.assert_allclose(
                    s.last_traces[s.physical_positions, j],
                    dirichlet(xy[:, 0], xy[:, 1], t_j), rtol=0, atol=1e-14)
                vhat = stepper.step(vhat, s.last_traces[:, j])
                np.testing.assert_allclose(s.last_states[:, j], vhat,
                                           rtol=0, atol=1e-12)


def test_time_independent_dirichlet_data_are_evaluated_once():
    # Marked Dirichlet data count as steady: each solver evaluates them
    # once, when it is built, and the march is bitwise that of the same
    # data unmarked, which FE substeps and reduced windows re-evaluate.
    calls = {"moving": 0, "marked": 0}

    def moving(x, y, t):
        calls["moving"] += 1
        return x * y

    @time_independent
    def marked(x, y, t):
        calls["marked"] += 1
        return x * y

    config = SchwarzConfig(subdomains=four_strip_specs(), dt=0.01,
                           t_end=0.06, steps_per_window=2)
    marches = []
    for dirichlet in (moving, marked):
        params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.5), forcing=1.0,
                           dirichlet=dirichlet)

        def make_solvers(table):
            fe = FESubdomainSolver(config.subdomains[2], table.meshes[2],
                                   params, config.dt, config.steps_per_window,
                                   table.entries[2].gamma_positions)
            return [fe if i == 2 else
                    make_rom_solver(config, params, table, i, seed=i)
                    for i in range(4)]

        marches.append(march(config, make_solvers, schwarz_window))
    assert calls["marked"] == 4
    assert calls["moving"] > 4 * config.n_windows
    (sweeps, records), (ref_sweeps, ref_records) = marches[1], marches[0]
    assert sweeps == ref_sweeps
    for window, ref_window in zip(records, ref_records):
        for (states, traces), (ref_states, ref_traces) in zip(window,
                                                              ref_window):
            np.testing.assert_array_equal(states, ref_states)
            np.testing.assert_array_equal(traces, ref_traces)


def test_reduced_block_never_visits_members(monkeypatch):
    def refuse(self, t_n):
        raise AssertionError("a reduced subdomain was visited on its own")

    config = SchwarzConfig(subdomains=three_strip_specs(), dt=0.01,
                           t_end=0.03)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.0), forcing=1.0)
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params)
    solvers[1] = make_rom_solver(config, params, table, 1)
    monkeypatch.setattr(RomSubdomainSolver, "advance_window", refuse)
    plan = GatherPlan(table, solvers)
    assert isinstance(plan.units[1], ReducedBlock)
    for w in range(config.n_windows):
        schwarz_window(plan, w * config.dt, config.tol, config.max_iters)
    assert solvers[1].last_states.shape == (solvers[1].ops.r, 1)
    np.testing.assert_array_equal(solvers[1].last_states[:, -1],
                                  solvers[1].state)


def test_reduced_block_maps_do_not_grow_with_substeps():
    # A map covers the window-end states and Gamma values only, so its size
    # is that of one substep however many substeps a window holds.
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.5), forcing=1.0)
    shapes = []
    for steps_per_window in (1, 40):
        config = SchwarzConfig(subdomains=four_strip_specs(), dt=0.01,
                               t_end=0.4, steps_per_window=steps_per_window)
        table = build_interfaces(config)
        solvers = build_solvers(config, table, params)
        for i in (0, 1):
            solvers[i] = make_rom_solver(config, params, table, i, seed=i)
        plan = GatherPlan(table, solvers)
        schwarz_window(plan, 0.0, config.tol, config.max_iters)
        block = plan.units[0]
        shapes.append(block._M.shape)
        assert solvers[1].last_states.shape == (solvers[1].ops.r,
                                                steps_per_window)
    assert shapes[0] == shapes[1]


def test_consecutive_windows_reproduce_run_coupled(small_trained,
                                                   monkeypatch):
    # A window is the run's fixed number of substeps: each call is told only
    # its start, snapshots every solver there, and reuses the reduced
    # block's map, composed once when the plan was built.
    cfg = small_cfg(t_end=0.3, steps_per_window=2)
    config = cfg.schwarz_config()
    recorded = []

    def recording_window(plan, *args):
        result = schwarz_window(plan, *args)
        recorded.append((result, [(s.last_states.copy(), s.last_traces.copy())
                                  for s in plan.solvers]))
        return result

    monkeypatch.setattr(schwarz, "schwarz_window", recording_window)
    run_coupled(config, cfg.params(), small_trained)
    monkeypatch.undo()

    table = build_interfaces(config)
    solvers = build_solvers(config, table, cfg.params(), small_trained)
    plan = GatherPlan(table, solvers)
    history = LateRowHistory(plan)
    for i, s in enumerate(solvers):
        s.set_interface_values(plan.gather(i))
    block = plan.units[0]
    assert isinstance(block, ReducedBlock)
    maps = []
    for w in range(2):
        starts = [s.state for s in solvers]
        result = schwarz_window(plan, w * config.window_dt, config.tol,
                                config.max_iters, history)
        # Each solver was snapshot on entry, its state by reference.
        assert all(s._window_snapshot[0] is start
                   for s, start in zip(solvers, starts))
        maps.append(block._M)
        want, records = recorded[w]
        assert result == want
        for s, (states, traces) in zip(solvers, records):
            np.testing.assert_array_equal(s.last_states, states)
            np.testing.assert_array_equal(s.last_traces, traces)
    assert maps[0] is maps[1]
    assert max(recorded[w][0][0] for w in range(2)) > 1


def test_schwarz_window_rejects_max_iters_below_one():
    config = SchwarzConfig(subdomains=three_strip_specs(), dt=0.01,
                           t_end=0.01)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.0), forcing=1.0)
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params)
    solvers[1] = make_rom_solver(config, params, table, 1)
    with pytest.raises(ConfigurationError, match="max_iters must be >= 1"):
        schwarz_window(GatherPlan(table, solvers), 0.0, config.tol, 0)


def test_divergence_in_second_block_member_names_it():
    # Dirichlet data that turn non-finite after t = 0 on boundary nodes that
    # only subdomain 1 owns: its state goes non-finite in the first sweep
    # while subdomain 0, ahead of it in the same block, stays finite (a
    # dense product would carry the NaN into subdomain 0's rows as 0 * NaN).
    def dirichlet(x, y, t):
        return np.where((t > 0.0) & (np.abs(x - 0.5) < 0.08), np.nan, 0.0)

    config = SchwarzConfig(subdomains=three_strip_specs(), dt=0.01,
                           t_end=0.02)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.0, 0.0), forcing=1.0,
                       dirichlet=dirichlet)
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params)
    solvers[0] = make_rom_solver(config, params, table, 0, seed=0)
    solvers[1] = make_rom_solver(config, params, table, 1, seed=1)
    with pytest.raises(DivergenceError,
                       match=r"^subdomain 2 produced a non-finite state"):
        schwarz_window(GatherPlan(table, solvers), 0.0, config.tol,
                       config.max_iters)


def test_segmented_relative_sup_change():
    rng = np.random.default_rng(5)
    sizes = (3, 7, 1, 4)
    new = rng.standard_normal(sum(sizes))
    prev = new + 1e-3 * rng.standard_normal(new.shape[0])
    starts = np.cumsum((0,) + sizes[:-1])
    want = max(kernels.relative_sup_change(new[a:a + n], prev[a:a + n])
               for a, n in zip(starts, sizes))
    assert kernels.relative_sup_change(new, prev, starts) == want
    assert kernels.relative_sup_change(np.zeros(0), np.zeros(0),
                                       np.zeros(0, dtype=np.int64)) == 0.0


# ---------------------------------------------------------------------------
# Stitching


def test_stitch_reproduces_constant_and_affine_fields():
    config = SchwarzConfig(subdomains=strip_specs(overlap=0.2, h=0.1),
                           dt=0.1, t_end=1.0)
    meshes = tuple(build_mesh(s.rect, s.nx, s.ny) for s in config.subdomains)
    global_mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 10, 10)

    constants = [np.full(m.n_nodes, 4.5) for m in meshes]
    plan = StitchPlan(config, global_mesh, meshes)
    np.testing.assert_allclose(plan.apply(constants), 4.5, atol=1e-13)

    affine = [m.coords[:, 0] + 2.0 * m.coords[:, 1] for m in meshes]
    expected = global_mesh.coords[:, 0] + 2.0 * global_mesh.coords[:, 1]
    np.testing.assert_allclose(plan.apply(affine), expected, atol=1e-13)


def test_stitch_averages_overlap_disagreement():
    config = SchwarzConfig(subdomains=strip_specs(overlap=0.2, h=0.1),
                           dt=0.1, t_end=1.0)
    meshes = tuple(build_mesh(s.rect, s.nx, s.ny) for s in config.subdomains)
    global_mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 10, 10)
    fields = [np.zeros(meshes[0].n_nodes), np.ones(meshes[1].n_nodes)]
    stitched = StitchPlan(config, global_mesh, meshes).apply(fields)
    x = global_mesh.coords[:, 0]
    np.testing.assert_allclose(stitched[x < 0.4 - 1e-12], 0.0, atol=1e-14)
    np.testing.assert_allclose(stitched[x > 0.6 + 1e-12], 1.0, atol=1e-14)
    band = (x > 0.4 + 1e-12) & (x < 0.6 - 1e-12)
    np.testing.assert_allclose(stitched[band], 0.5, atol=1e-14)


def test_stitch_handles_time_histories():
    config = SchwarzConfig(subdomains=strip_specs(overlap=0.2, h=0.1),
                           dt=0.1, t_end=1.0)
    meshes = tuple(build_mesh(s.rect, s.nx, s.ny) for s in config.subdomains)
    global_mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 5, 5)
    histories = [np.tile(m.coords[:, 0][:, None], (1, 3)) for m in meshes]
    plan = StitchPlan(config, global_mesh, meshes)
    out = plan.apply(histories)
    assert out.shape == (global_mesh.n_nodes, 3)
    for j in range(3):
        np.testing.assert_allclose(out[:, j], global_mesh.coords[:, 0],
                                   atol=1e-13)


def test_stitch_rejects_uncovered_nodes():
    specs = (SubdomainSpec(Rect(0.0, 0.4, 0.0, 1.0), 4, 10),
             SubdomainSpec(Rect(0.6, 1.0, 0.0, 1.0), 4, 10))
    config = SchwarzConfig(subdomains=specs, dt=0.1, t_end=1.0)
    meshes = tuple(build_mesh(s.rect, s.nx, s.ny) for s in specs)
    global_mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 10, 10)
    with pytest.raises(ConfigurationError, match="covered by no subdomain"):
        StitchPlan(config, global_mesh, meshes)
