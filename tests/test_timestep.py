"""Backward-Euler stepping: algebra, stability, convergence order."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from cdrschwarz import driver, timestep
from cdrschwarz.config import parse_config
from cdrschwarz.errors import ConfigurationError, FactorizationError
from cdrschwarz.fem import (CdrParams, SemiDiscreteSystem, assemble,
                            time_independent)
from cdrschwarz.mesh import Rect, build_mesh
from cdrschwarz.schwarz import (FESubdomainSolver, SchwarzConfig,
                                build_interfaces)
from cdrschwarz.timestep import ImplicitEulerStepper, integrate, n_steps_for

from test_schwarz import strip_specs


def scalar_system(m=1.0, a=0.5, load=None):
    """1x1 system with no boundary nodes: m * v' = -a * v + F(t)."""
    if load is None:
        load = lambda t: np.zeros(1)
    return SemiDiscreteSystem(
        M=csr_matrix(np.array([[m]])),
        A_II=csr_matrix(np.array([[a]])),
        A_IB=csr_matrix((1, 0)),
        M_IB=csr_matrix((1, 0)),
        interior_map=np.array([0]),
        boundary_map=np.array([], dtype=np.int64),
        load=load)


def matrix_system(dense):
    """System ``dense * v' = 0`` with no boundary nodes."""
    n = dense.shape[0]
    return SemiDiscreteSystem(
        M=csr_matrix(dense),
        A_II=csr_matrix((n, n)),
        A_IB=csr_matrix((n, 0)),
        M_IB=csr_matrix((n, 0)),
        interior_map=np.arange(n),
        boundary_map=np.array([], dtype=np.int64),
        load=lambda t: np.zeros(n))


def test_scalar_step_closed_form():
    # (1 + dt * 0.5) v1 = v0  =>  v1 = 2/3 at dt = 1.
    stepper = ImplicitEulerStepper(scalar_system(), 1.0)
    v1 = stepper.step(np.array([1.0]), np.zeros(0), 1.0, np.zeros(0))
    np.testing.assert_allclose(v1, [2.0 / 3.0], rtol=1e-14)


def test_identity_mass_zero_operator_adds_dt_times_load():
    rng = np.random.default_rng(0)
    n = 7
    system = SemiDiscreteSystem(
        M=csr_matrix(np.eye(n)),
        A_II=csr_matrix((n, n)),
        A_IB=csr_matrix((n, 0)),
        M_IB=csr_matrix((n, 0)),
        interior_map=np.arange(n),
        boundary_map=np.array([], dtype=np.int64),
        load=lambda t: np.full(n, 2.0))
    v0 = rng.standard_normal(n)
    v1 = ImplicitEulerStepper(system, 0.25).step(v0, np.zeros(0), 0.25,
                                                 np.zeros(0))
    np.testing.assert_allclose(v1, v0 + 0.25 * 2.0, rtol=1e-13)


def test_step_matches_dense_linear_algebra():
    # Full oracle including the moving-trace mass term: the step must solve
    #   (M + dt A_II) v1 = M v0 + dt (F - A_IB g1) - M_IB (g1 - g0).
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 5, 4)
    params = CdrParams(eps=0.05, sigma=0.2, b=(0.7, -0.3),
                       forcing=lambda x, y, t: x * y + t)
    system = assemble(mesh, params)
    dt = 0.05
    rng = np.random.default_rng(1)
    v0 = rng.standard_normal(system.n_interior)
    g0 = rng.standard_normal(system.n_boundary)
    g1 = rng.standard_normal(system.n_boundary)
    t1 = 0.35

    m = system.M.toarray()
    rhs = (m @ v0
           + dt * (system.load(t1) - system.A_IB.toarray() @ g1)
           - system.M_IB.toarray() @ (g1 - g0))
    expected = np.linalg.solve(m + dt * system.A_II.toarray(), rhs)

    v1 = ImplicitEulerStepper(system, dt).step(v0, g1, t1, g_prev=g0)
    np.testing.assert_allclose(v1, expected, rtol=1e-11)


def test_fe_window_matches_three_term_right_hand_side():
    # Three substeps of an FE subdomain window against the three-term form
    #   M v + dt (F - A_IB g) - M_IB (g - g_prev)
    # with dense products, a moving physical trace and a Gamma jump.
    config = SchwarzConfig(subdomains=strip_specs(), dt=0.05, t_end=0.3,
                           steps_per_window=3)
    table = build_interfaces(config)
    params = CdrParams(eps=0.05, sigma=0.1, b=(1.0, 0.5),
                       forcing=lambda x, y, t: x + y * t,
                       dirichlet=lambda x, y, t: np.sin(3.0 * t) + x * y)
    solver = FESubdomainSolver(config.subdomains[0], table.meshes[0], params,
                               config.dt, config.steps_per_window,
                               table.entries[0].gamma_positions)
    rng = np.random.default_rng(5)
    v0 = rng.standard_normal(solver.state.shape[0])
    gamma = rng.standard_normal(table.entries[0].n_gamma)
    g_prev = solver.g_cur.copy()
    solver.state = v0.copy()
    solver.advance_window(0.0, gamma)

    system = solver.system
    m, m_ib = system.M.toarray(), system.M_IB.toarray()
    a_ib = system.A_IB.toarray()
    lhs = m + config.dt * system.A_II.toarray()
    coords = table.meshes[0].coords[solver.boundary_map]
    v = v0
    for j in range(3):
        t_j = (j + 1) * config.dt
        g = np.sin(3.0 * t_j) + coords[:, 0] * coords[:, 1]
        g[solver.gamma_positions] = gamma
        rhs = (m @ v + config.dt * (system.load(t_j) - a_ib @ g)
               - m_ib @ (g - g_prev))
        v = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(solver.last_states[:, j], v,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(solver.last_traces[:, j], g,
                                   rtol=0, atol=1e-15)
        g_prev = g
    np.testing.assert_allclose(solver.state, v, rtol=0, atol=1e-13)


def test_steady_state_is_fixed_point():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 6, 6)
    params = CdrParams(eps=0.2, sigma=0.1, b=(0.4, 0.2), forcing=1.0,
                       dirichlet=0.5)
    system = assemble(mesh, params)
    g = np.full(system.n_boundary, 0.5)
    v_star = spsolve(system.A_II.tocsc(),
                     system.load(0.0) - system.A_IB @ g)
    stepper = ImplicitEulerStepper(system, 0.3)
    v = v_star.copy()
    for k in range(100):
        v = stepper.step(v, g, 0.3 * (k + 1), g_prev=g)
    np.testing.assert_allclose(v, v_star, rtol=1e-12)


def test_first_order_convergence_on_scalar_decay():
    # v' = -v, v(0) = 1: backward Euler converges at first order in dt.
    errors = []
    for dt in (0.1, 0.05, 0.025):
        stepper = ImplicitEulerStepper(scalar_system(m=1.0, a=1.0), dt)
        v = np.array([1.0])
        for k in range(int(round(1.0 / dt))):
            v = stepper.step(v, np.zeros(0), dt * (k + 1), np.zeros(0))
        errors.append(abs(v[0] - np.exp(-1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_unconditional_stability_at_large_dt():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 8, 8)
    system = assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))
    stepper = ImplicitEulerStepper(system, 10.0)
    g = np.zeros(system.n_boundary)
    m = system.M.toarray()
    v = np.random.default_rng(3).standard_normal(system.n_interior)
    energy = v @ m @ v
    for k in range(5):
        v = stepper.step(v, g, 10.0 * (k + 1), g_prev=g)
        new_energy = v @ m @ v
        assert new_energy <= energy * (1.0 + 1e-12)
        energy = new_energy


def test_load_cache_tracks_time():
    system = scalar_system(m=1.0, a=0.0, load=lambda t: np.array([t]))
    stepper = ImplicitEulerStepper(system, 1.0)
    v = stepper.step(np.array([0.0]), np.zeros(0), 2.0, np.zeros(0))
    np.testing.assert_allclose(v, [2.0], rtol=1e-14)
    v = stepper.step(v, np.zeros(0), 3.0, np.zeros(0))
    np.testing.assert_allclose(v, [5.0], rtol=1e-14)


def test_steady_load_is_scaled_once():
    # A stepper scales a steady load once, when it is built, and its steps
    # are bitwise those of scaling the same vector at every step.
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 6, 5)
    system = assemble(mesh, CdrParams(eps=0.05, sigma=0.2, b=(0.7, -0.3),
                                      forcing=lambda x, y, t: x * y + t))
    load = system.load(0.4)
    calls = []

    def counted(t):
        calls.append(t)
        return load

    steady = replace(system, load=counted, steady_load=True)
    stepper = ImplicitEulerStepper(steady, 0.05)
    every_step = ImplicitEulerStepper(replace(steady, steady_load=False),
                                      0.05, [stepper])
    assert len(calls) == 1
    rng = np.random.default_rng(9)
    v = rng.standard_normal(system.n_interior)
    g0, g1 = rng.standard_normal((2, system.n_boundary))
    for k in range(1, 4):
        got = stepper.step(v, g1, 0.05 * k, g0)
        assert np.array_equal(got, every_step.step(v, g1, 0.05 * k, g0))
        v = got
    assert len(calls) == 1 + 3


def test_steppers_share_operators_of_bitwise_equal_systems_only():
    # A stepper takes the operator set of the first peer at its dt whose
    # system's matrices are bitwise its own; a one-ulp change, another
    # sparsity pattern or another dt builds a new set.
    system = q1_system()
    first = ImplicitEulerStepper(system, 0.05)
    twin = ImplicitEulerStepper(assemble(system.mesh, CdrParams(
        eps=0.05, sigma=0.2, b=(0.7, -0.3), forcing=1.0)), 0.05, [first])
    assert twin.operators is first.operators
    assert twin.system is not first.system
    nudged = replace(system, A_IB=system.A_IB.copy())
    nudged.A_IB.data[7] = np.nextafter(nudged.A_IB.data[7], np.inf)
    assert timestep.same_matrices(system, system)
    assert not timestep.same_matrices(system, nudged)
    assert ImplicitEulerStepper(nudged, 0.05, [first]).operators \
        is not first.operators
    assert ImplicitEulerStepper(system, 0.1, [first]).operators \
        is not first.operators
    other = q1_system(nx=7, ny=9)
    assert not timestep.same_matrices(system, other)


def test_n_steps_for():
    assert n_steps_for(0.0, 0.5, 5e-3) == 100
    assert n_steps_for(0.0, 0.3, 0.1) == 3
    assert n_steps_for(1.0, 1.01, 5e-3) == 2
    with pytest.raises(ConfigurationError):
        n_steps_for(0.0, 0.5, 0.3)
    with pytest.raises(ConfigurationError):
        n_steps_for(0.5, 0.5, 0.1)
    with pytest.raises(ConfigurationError):
        n_steps_for(0.5, 0.4, 0.1)
    for t0, t1, dt in ((0.0, np.inf, 0.1), (np.nan, 1.0, 0.1),
                       (0.0, np.nan, 0.1), (0.0, 1.0, 0.0),
                       (0.0, 1.0, -0.1), (0.0, 1.0, np.nan),
                       (0.0, 1.0, np.inf)):
        with pytest.raises(ConfigurationError):
            n_steps_for(t0, t1, dt)


def test_integrate_records_full_history():
    traj = integrate(ImplicitEulerStepper(scalar_system(m=1.0, a=1.0), 5e-3),
                     0.0, 0.5, np.array([1.0]), lambda t: np.zeros(0))
    assert traj.n_times == 101
    assert traj.states.shape == (1, 101)
    assert traj.boundary_traces.shape == (0, 101)
    np.testing.assert_allclose(traj.times, 5e-3 * np.arange(101), atol=1e-15)
    assert traj.states[0, 0] == 1.0
    # Monotone decay toward zero for pure dissipation.
    assert np.all(np.diff(traj.states[0]) < 0.0)


def test_integrate_records_column_major_histories():
    # States and traces are recorded column-major, bitwise the history of
    # the same march recorded row-major step by step.
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 5, 4)
    system = assemble(mesh, CdrParams(eps=0.05, sigma=0.1, b=(1.0, 0.5),
                                      forcing=lambda x, y, t: x + y * t))
    xy = mesh.coords[system.boundary_map]

    def boundary(t):
        return np.sin(3.0 * t) + xy[:, 0] * xy[:, 1]

    stepper = ImplicitEulerStepper(system, 0.05)
    v0 = np.linspace(0.0, 1.0, system.n_interior)
    traj = integrate(stepper, 0.0, 0.5, v0, boundary)
    assert traj.states.flags.f_contiguous
    assert traj.boundary_traces.flags.f_contiguous
    states = np.empty((system.n_interior, 11))
    traces = np.empty((system.n_boundary, 11))
    states[:, 0], traces[:, 0] = v0, boundary(0.0)
    for j in range(1, 11):
        traces[:, j] = boundary(traj.times[j])
        states[:, j] = stepper.step(states[:, j - 1], traces[:, j],
                                    traj.times[j], traces[:, j - 1])
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.boundary_traces, traces)


def test_integrate_boundary_traces_columns():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 3, 3)
    system = assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))
    nb = system.n_boundary
    traj = integrate(ImplicitEulerStepper(system, 0.25), 0.0, 1.0,
                     np.zeros(system.n_interior), lambda t: np.full(nb, t))
    np.testing.assert_allclose(traj.boundary_traces,
                               np.tile(traj.times, (nb, 1)), atol=1e-15)


def test_validation_errors():
    system = scalar_system()
    with pytest.raises(ConfigurationError):
        ImplicitEulerStepper(system, 0.0)
    with pytest.raises(ConfigurationError):
        ImplicitEulerStepper(system, -1.0)
    stepper = ImplicitEulerStepper(system, 0.1)
    with pytest.raises(ConfigurationError):
        stepper.step(np.zeros(2), np.zeros(0), 0.1, np.zeros(0))
    with pytest.raises(ConfigurationError):
        stepper.step(np.zeros(1), np.zeros(3), 0.1, np.zeros(3))
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 3, 3)
    fe = assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))
    fe_stepper = ImplicitEulerStepper(fe, 0.1)
    with pytest.raises(ConfigurationError):
        fe_stepper.step(np.zeros(fe.n_interior), np.zeros(fe.n_boundary),
                        0.1, g_prev=np.zeros(fe.n_boundary - 1))
    with pytest.raises(ConfigurationError):
        integrate(stepper, 0.0, 1.0, np.zeros(4), lambda t: np.zeros(0))


def test_singular_matrix_raises_factorization_error():
    with pytest.raises(FactorizationError):
        ImplicitEulerStepper(matrix_system(np.zeros((1, 1))), 1.0)


def test_singular_narrow_band_matrix_raises_factorization_error():
    # Tridiagonal but for an empty row: band LU meets a zero pivot.
    n = 6
    dense = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    dense[2] = 0.0
    with pytest.raises(FactorizationError, match="band LU"):
        ImplicitEulerStepper(matrix_system(dense), 1.0)


def test_band_and_sparse_factorizations_agree(monkeypatch):
    # One FE system through band LU and, with the band limit below its
    # half-bandwidth, through SuperLU: the same solutions for one and for
    # several right-hand sides, and the same step.
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 9, 7)
    params = CdrParams(eps=0.05, sigma=0.2, b=(0.7, -0.3),
                       forcing=lambda x, y, t: x * y + t)
    system = assemble(mesh, params)
    band = ImplicitEulerStepper(system, 0.05)
    monkeypatch.setattr(timestep, "BAND_LIMIT", -1)
    sparse = ImplicitEulerStepper(system, 0.05)
    assert band.operators.triangles is not None
    assert sparse.operators.triangles is None
    rng = np.random.default_rng(2)
    n = system.n_interior
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 4))):
        want = sparse.solve(rhs)
        got = band.solve(rhs)
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
    v0 = rng.standard_normal(n)
    g0, g1 = rng.standard_normal((2, system.n_boundary))
    want = sparse.step(v0, g1, 0.05, g0)
    np.testing.assert_allclose(band.step(v0, g1, 0.05, g0), want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


def q1_system(nx=9, ny=7):
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), nx, ny)
    return assemble(mesh, CdrParams(eps=0.05, sigma=0.2, b=(0.7, -0.3)))


def band_lu(matrix):
    """LAPACK band LU of a sparse matrix: ``(lu, piv, info, kl, ku)``."""
    matrix = matrix.tocoo()
    offset = matrix.row - matrix.col
    kl, ku = int(offset.max()), int(-offset.min())
    ab = np.zeros((2 * kl + ku + 1, matrix.shape[0]))
    ab[kl + ku + offset, matrix.col] = matrix.data
    return dgbtrf(ab, kl, ku) + (kl, ku)


def test_triangle_solves_are_bitwise_band_lu():
    # The two triangular band solves against LAPACK's band LU solve of the
    # same factorization, which made no row interchange.
    system = q1_system()
    stepper = ImplicitEulerStepper(system, 0.05)
    assert stepper.operators.triangles is not None
    lu, piv, info, kl, ku = band_lu(system.M + 0.05 * system.A_II)
    assert info == 0 and np.array_equal(piv, np.arange(system.n_interior))
    rng = np.random.default_rng(4)
    for rhs in (rng.standard_normal(system.n_interior),
                rng.standard_normal((system.n_interior, 4))):
        got = stepper.solve(rhs)
        assert got.shape == rhs.shape
        assert np.array_equal(got, dgbtrs(lu, kl, ku, rhs, piv)[0])


def test_row_interchange_takes_the_sparse_path():
    # A tiny leading diagonal makes band LU swap rows 0 and 1: the stepper
    # then factors by SuperLU, and still solves the system.
    n = 8
    rng = np.random.default_rng(6)
    dense = (4.0 * np.eye(n) + np.diag(rng.uniform(0.5, 1.5, n - 1), 1)
             + np.diag(rng.uniform(0.5, 1.5, n - 1), -1))
    dense[0, 0] = 1e-8
    _, piv, info, _, _ = band_lu(csr_matrix(dense))
    assert info == 0 and piv[0] == 1
    stepper = ImplicitEulerStepper(matrix_system(dense), 1.0)
    assert stepper.operators.triangles is None
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        want = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(stepper.solve(rhs), want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("band_limit", [timestep.BAND_LIMIT, -1])
def test_solve_returns_a_new_array(monkeypatch, band_limit):
    # Solver states are replaced, never written in place, so a solve must
    # leave its right-hand side as it found it, on either path.
    monkeypatch.setattr(timestep, "BAND_LIMIT", band_limit)
    system = q1_system()
    stepper = ImplicitEulerStepper(system, 0.05)
    assert (stepper.operators.triangles is None) == (band_limit < 0)
    rng = np.random.default_rng(8)
    for rhs in (rng.standard_normal(system.n_interior),
                np.asfortranarray(rng.standard_normal((system.n_interior, 4)))):
        kept = rhs.copy()
        got = stepper.solve(rhs)
        assert not np.shares_memory(got, rhs)
        assert np.array_equal(rhs, kept)
    # A subdomain with no Gamma values has an empty Gamma response.
    assert stepper.solve(np.zeros((system.n_interior, 0))).shape == (
        system.n_interior, 0)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "moving"])
@pytest.mark.parametrize("band_limit", [timestep.BAND_LIMIT, -1],
                         ids=["band", "superlu"])
def test_step_input_buffer_never_leaks(monkeypatch, band_limit, steady):
    # A step writes [v_n; g_next; g_next - g_prev] into the stepper's own
    # buffer and lets the solves overwrite the product's fresh result: it
    # is bitwise the solve of the right-hand side built afresh, its result
    # shares no memory with the buffer or the step before, and the public
    # solve still leaves its right-hand side as it found it.
    monkeypatch.setattr(timestep, "BAND_LIMIT", band_limit)
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 9, 7)
    forcing = (time_independent(lambda x, y, t: x * y) if steady
               else (lambda x, y, t: x * y + t))
    system = assemble(mesh, CdrParams(eps=0.05, sigma=0.2, b=(0.7, -0.3),
                                      forcing=forcing))
    assert system.steady_load == steady
    dt = 0.05
    stepper = ImplicitEulerStepper(system, dt)
    assert (stepper.operators.triangles is None) == (band_limit < 0)

    def fresh(v, g, t, g_prev):
        return stepper.solve(
            stepper.operators.rhs_operator @ np.concatenate((v, g, g - g_prev))
            + dt * system.load(t))

    rng = np.random.default_rng(12)
    v0 = rng.standard_normal(system.n_interior)
    g0, g1, g2 = rng.standard_normal((3, system.n_boundary))
    inputs = [x.copy() for x in (v0, g0, g1, g2)]
    first = stepper.step(v0, g1, dt, g0)
    kept = first.copy()
    assert np.array_equal(first, fresh(v0, g1, dt, g0))
    second = stepper.step(first, g2, 2 * dt, g1)
    assert np.array_equal(second, fresh(kept, g2, 2 * dt, g1))
    assert not np.shares_memory(second, first)
    assert np.array_equal(first, kept)
    for result in (first, second):
        assert not np.shares_memory(result, stepper._input)
    for x, x_kept in zip((v0, g0, g1, g2), inputs):
        assert np.array_equal(x, x_kept)
    rhs = rng.standard_normal(system.n_interior)
    rhs_kept = rhs.copy()
    got = stepper.solve(rhs)
    assert not np.shares_memory(got, rhs)
    assert np.array_equal(rhs, rhs_kept)


STRIPS = ((0.0, 0.30), (0.22, 0.54), (0.46, 0.78), (0.70, 1.0))


@pytest.mark.parametrize("lines", [
    (),
    ("decomposition.layout = custom", "decomposition.count = 4")
    + tuple(f"subdomain.{k + 1}.rect = {x0},{x1},0,1"
            for k, (x0, x1) in enumerate(STRIPS)),
], ids=["default", "strips"])
def test_study_systems_factor_without_row_interchange(tmp_path, lines):
    # The FE reference and every subdomain system of the default study and
    # of the four-strip layout take the two-triangle path: band LU within
    # BAND_LIMIT and no row interchange. Pivoting would send them to
    # SuperLU, about twice as slow per solve.
    path = tmp_path / "study.cfg"
    path.write_text("".join(line + "\n" for line in lines))
    cfg = parse_config(str(path))
    params = cfg.params()
    systems = [assemble(driver.build_global_mesh(cfg), params)]
    config = cfg.schwarz_config(force_model="fe")
    systems += [assemble(mesh, params)
                for mesh in build_interfaces(config).meshes]
    assert len(systems) == 5
    for system in systems:
        stepper = ImplicitEulerStepper(system, cfg.dt)
        assert stepper.operators.triangles is not None
