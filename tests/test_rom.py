"""POD bases, snapshot differentiation, operator inference, reduced stepping.

The regression in ``fit_operators`` is checked against an independent
oracle: the regularized normal equations assembled directly from the data.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrschwarz.errors import ConfigurationError, FactorizationError
from cdrschwarz.fem import CdrParams, assemble
from cdrschwarz.mesh import Rect, build_mesh
from cdrschwarz.rom import (OpInfOperators, PodBasis, RomStepper, compute_pod,
                            fit_operators, time_derivatives, train_opinf)
from cdrschwarz.timestep import ImplicitEulerStepper, integrate


def _random_orthonormal(n, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def _stack_operators(ops):
    """Unknown matrix O of the regression ``D O = Ydot^T``."""
    return np.vstack([ops.Khat.T, ops.Bhat.T, ops.fhat[None, :]])


def _consistent_data(rng, r, m, n_t):
    """Random (Y, Ydot, G) exactly satisfying Ydot = K0 Y + B0 G + f0."""
    k0 = rng.standard_normal((r, r))
    b0 = rng.standard_normal((r, m))
    f0 = rng.standard_normal(r)
    y = rng.standard_normal((r, n_t))
    g = rng.standard_normal((m, n_t))
    ydot = k0 @ y + b0 @ g + f0[:, None]
    return y, ydot, g, k0, b0, f0


# ---------------------------------------------------------------------------
# POD


def test_pod_rank_one_snapshots():
    rng = np.random.default_rng(0)
    direction = rng.standard_normal(30)
    states = np.outer(direction, rng.uniform(1.0, 2.0, 12))
    basis = compute_pod(states, 1)
    unit = direction / np.linalg.norm(direction)
    sign = np.sign(basis.Psi[:, 0] @ unit)
    np.testing.assert_allclose(sign * basis.Psi[:, 0], unit, atol=1e-12)
    np.testing.assert_allclose(basis.svals[0], np.linalg.norm(states),
                               rtol=1e-12)
    np.testing.assert_allclose(basis.svals[1:], 0.0, atol=1e-12)


def test_pod_recovers_planted_spectrum():
    rng = np.random.default_rng(1)
    q = _random_orthonormal(40, 3, rng)
    w = _random_orthonormal(25, 3, rng)
    states = q @ np.diag([3.0, 2.0, 1.0]) @ w.T
    basis = compute_pod(states, 2)
    np.testing.assert_allclose(basis.svals[:3], [3.0, 2.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(basis.svals[3:], 0.0, atol=1e-12)
    for k in range(2):
        sign = np.sign(basis.Psi[:, k] @ q[:, k])
        np.testing.assert_allclose(sign * basis.Psi[:, k], q[:, k], atol=1e-10)
    assert basis.r == 2 and basis.n == 40


def test_pod_basis_orthonormal():
    rng = np.random.default_rng(2)
    basis = compute_pod(rng.standard_normal((60, 20)), 8)
    np.testing.assert_allclose(basis.Psi.T @ basis.Psi, np.eye(8), atol=1e-12)


def test_pod_best_low_rank_approximation():
    # The rank-r projection error must equal the tail of the spectrum,
    # which is the optimal value over all rank-r approximations.
    rng = np.random.default_rng(3)
    states = rng.standard_normal((200, 50))
    svals = scipy.linalg.svdvals(states)
    for r in (1, 5, 20):
        basis = compute_pod(states, r)
        err = np.linalg.norm(states - basis.Psi @ (basis.Psi.T @ states))
        optimal = np.sqrt(np.sum(svals[r:] ** 2))
        assert abs(err - optimal) <= 1e-10


def test_pod_validation():
    rng = np.random.default_rng(4)
    states = rng.standard_normal((10, 6))
    with pytest.raises(ConfigurationError):
        compute_pod(states, 0)
    with pytest.raises(ConfigurationError):
        compute_pod(states, 7)
    with pytest.raises(ConfigurationError):
        compute_pod(np.zeros(5), 1)


# ---------------------------------------------------------------------------
# Snapshot time derivatives


def test_time_derivatives_constant_and_linear():
    dt = 0.1
    const = np.full((3, 7), 2.5)
    np.testing.assert_allclose(time_derivatives(const, dt), 0.0, atol=1e-13)
    t = dt * np.arange(7)
    slope = np.array([1.0, -2.0, 0.5])
    linear = 1.0 + slope[:, None] * t[None, :]
    np.testing.assert_allclose(time_derivatives(linear, dt),
                               np.tile(slope[:, None], (1, 7)), atol=1e-12)


def test_time_derivatives_quadratic_exact():
    # Second-order stencils differentiate t^2 exactly, end points included.
    dt = 0.25
    t = dt * np.arange(3)
    y = (t ** 2)[None, :]
    np.testing.assert_allclose(time_derivatives(y, dt), (2.0 * t)[None, :],
                               atol=1e-13)


def test_time_derivatives_needs_three_snapshots():
    with pytest.raises(ConfigurationError):
        time_derivatives(np.ones((2, 2)), 0.1)


# ---------------------------------------------------------------------------
# Operator inference


def test_fit_operators_exact_recovery():
    rng = np.random.default_rng(5)
    y, ydot, g, k0, b0, f0 = _consistent_data(rng, r=6, m=4, n_t=40)
    ops = fit_operators(y, ydot, g, lam=0.0)
    np.testing.assert_allclose(ops.Khat, k0, atol=1e-8)
    np.testing.assert_allclose(ops.Bhat, b0, atol=1e-8)
    np.testing.assert_allclose(ops.fhat, f0, atol=1e-8)
    assert ops.lam == 0.0 and ops.r == 6 and ops.m == 4


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-1])
def test_fit_operators_satisfies_normal_equations(lam):
    # Independent oracle: the ridge minimizer solves
    #   (D^T D + lam^2 I) O = D^T Ydot^T.
    rng = np.random.default_rng(6)
    r, m, n_t = 5, 3, 30
    y = rng.standard_normal((r, n_t))
    g = rng.standard_normal((m, n_t))
    ydot = rng.standard_normal((r, n_t))  # noisy: no exact model exists
    ops = fit_operators(y, ydot, g, lam=lam)
    d = np.hstack([y.T, g.T, np.ones((n_t, 1))])
    gram = d.T @ d + lam ** 2 * np.eye(r + m + 1)
    residual = gram @ _stack_operators(ops) - d.T @ ydot.T
    scale = np.linalg.norm(d.T @ ydot.T)
    assert np.linalg.norm(residual) <= 1e-10 * scale


def test_fit_operators_ridge_shrinks_solution():
    rng = np.random.default_rng(7)
    y, ydot, g, *_ = _consistent_data(rng, r=4, m=2, n_t=25)
    free = fit_operators(y, ydot, g, lam=0.0)
    shrunk = fit_operators(y, ydot, g, lam=1e8)
    assert np.linalg.norm(_stack_operators(shrunk)) <= \
        1e-6 * np.linalg.norm(_stack_operators(free))


def test_fit_operators_lambda_tradeoff_monotone():
    # Larger lam can only raise the data residual and lower the norm.
    rng = np.random.default_rng(8)
    r, m, n_t = 4, 2, 30
    y = rng.standard_normal((r, n_t))
    g = rng.standard_normal((m, n_t))
    ydot = rng.standard_normal((r, n_t))
    d = np.hstack([y.T, g.T, np.ones((n_t, 1))])
    residuals, norms = [], []
    for lam in (0.0, 1e-4, 1e-2, 1.0):
        o = _stack_operators(fit_operators(y, ydot, g, lam=lam))
        residuals.append(np.linalg.norm(d @ o - ydot.T))
        norms.append(np.linalg.norm(o))
    assert all(a <= b + 1e-12 for a, b in zip(residuals, residuals[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_fit_operators_minimum_norm_when_rank_deficient():
    # With fewer snapshots than unknowns and lam = 0 the fit must still be
    # finite and satisfy the (singular) normal equations.
    rng = np.random.default_rng(9)
    r, m, n_t = 5, 3, 4  # 9 unknown columns, 4 rows
    y = rng.standard_normal((r, n_t))
    g = rng.standard_normal((m, n_t))
    ydot = rng.standard_normal((r, n_t))
    ops = fit_operators(y, ydot, g, lam=0.0)
    d = np.hstack([y.T, g.T, np.ones((n_t, 1))])
    o = _stack_operators(ops)
    residual = d.T @ (d @ o - ydot.T)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(d.T @ ydot.T)


@given(r=st.integers(2, 6), m=st.integers(1, 8), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_fit_operators_recovery_property(r, m, seed):
    rng = np.random.default_rng(seed)
    y, ydot, g, k0, b0, f0 = _consistent_data(rng, r, m, n_t=r + m + 12)
    ops = fit_operators(y, ydot, g, lam=0.0)
    scale = max(np.linalg.norm(k0), np.linalg.norm(b0), np.linalg.norm(f0))
    assert np.linalg.norm(ops.Khat - k0) <= 1e-6 * scale
    assert np.linalg.norm(ops.Bhat - b0) <= 1e-6 * scale
    assert np.linalg.norm(ops.fhat - f0) <= 1e-6 * scale


def test_fit_operators_validation():
    y = np.zeros((3, 10))
    g = np.zeros((2, 10))
    with pytest.raises(ConfigurationError):
        fit_operators(y, np.zeros((3, 9)), g)
    with pytest.raises(ConfigurationError):
        fit_operators(y, y, np.zeros((2, 9)))
    with pytest.raises(ConfigurationError):
        fit_operators(y, y, g, lam=-1.0)


def test_operator_container_validation():
    eye = np.eye(3)
    with pytest.raises(ConfigurationError):
        OpInfOperators(Khat=np.zeros((3, 2)), Bhat=np.zeros((3, 1)),
                       fhat=np.zeros(3))
    with pytest.raises(ConfigurationError):
        OpInfOperators(Khat=eye, Bhat=np.zeros((2, 1)), fhat=np.zeros(3))
    with pytest.raises(ConfigurationError):
        OpInfOperators(Khat=eye, Bhat=np.zeros((3, 1)), fhat=np.zeros(2))
    with pytest.raises(ConfigurationError):
        OpInfOperators(Khat=eye * np.nan, Bhat=np.zeros((3, 1)),
                       fhat=np.zeros(3))
    with pytest.raises(ConfigurationError):
        OpInfOperators(Khat=eye, Bhat=np.zeros((3, 1)), fhat=np.zeros(3),
                       lam=-0.5)


def test_train_opinf_uses_central_difference_rows():
    # Documented contract: with five or more snapshots only derivative rows
    # from central stencils enter the regression; with fewer, all rows do.
    rng = np.random.default_rng(10)
    n, r, n_t, dt = 30, 4, 20, 0.05
    states = rng.standard_normal((n, n_t))
    traces = rng.standard_normal((3, n_t))
    basis = compute_pod(states, r)
    got = train_opinf(basis, states, traces, dt, lam=1e-3)
    y = basis.Psi.T @ states
    ydot = time_derivatives(y, dt)
    want = fit_operators(y[:, 1:-1], ydot[:, 1:-1], traces[:, 1:-1], lam=1e-3)
    np.testing.assert_array_equal(got.Khat, want.Khat)
    np.testing.assert_array_equal(got.Bhat, want.Bhat)
    np.testing.assert_array_equal(got.fhat, want.fhat)

    short = train_opinf(basis, states[:, :4], traces[:, :4], dt)
    y4 = basis.Psi.T @ states[:, :4]
    want4 = fit_operators(y4, time_derivatives(y4, dt), traces[:, :4])
    np.testing.assert_array_equal(short.Khat, want4.Khat)


def test_train_opinf_validates_snapshot_rows():
    basis = compute_pod(np.random.default_rng(11).standard_normal((20, 10)), 3)
    with pytest.raises(ConfigurationError):
        train_opinf(basis, np.zeros((19, 10)), np.zeros((2, 10)), 0.1)


# ---------------------------------------------------------------------------
# Reduced stepping


def test_rom_step_pure_source():
    ops = OpInfOperators(Khat=np.zeros((3, 3)), Bhat=np.zeros((3, 2)),
                         fhat=np.array([1.0, 2.0, 3.0]))
    v1 = RomStepper(ops, 0.1).step(np.zeros(3), np.zeros(2))
    np.testing.assert_allclose(v1, [0.1, 0.2, 0.3], rtol=1e-14)


def test_rom_step_scalar_decay_closed_form():
    # (1 - dt * (-1)) v1 = v0  =>  v1 = 2/3 at dt = 0.5.
    ops = OpInfOperators(Khat=np.array([[-1.0]]), Bhat=np.zeros((1, 0)),
                         fhat=np.zeros(1))
    v1 = RomStepper(ops, 0.5).step(np.array([1.0]), np.zeros(0))
    np.testing.assert_allclose(v1, [2.0 / 3.0], rtol=1e-14)


def test_rom_step_steady_fixed_point():
    rng = np.random.default_rng(12)
    r, m = 5, 3
    khat = -np.eye(r) * 2.0 + 0.1 * rng.standard_normal((r, r))
    bhat = rng.standard_normal((r, m))
    fhat = rng.standard_normal(r)
    ops = OpInfOperators(Khat=khat, Bhat=bhat, fhat=fhat)
    g = rng.standard_normal(m)
    v_star = np.linalg.solve(-khat, bhat @ g + fhat)
    stepper = RomStepper(ops, 0.2)
    v = v_star.copy()
    for _ in range(50):
        v = stepper.step(v, g)
    np.testing.assert_allclose(v, v_star, rtol=1e-12)


def test_rom_stepper_validation():
    ops = OpInfOperators(Khat=-np.eye(2), Bhat=np.zeros((2, 1)),
                         fhat=np.zeros(2))
    with pytest.raises(ConfigurationError):
        RomStepper(ops, 0.0)
    stepper = RomStepper(ops, 0.1)
    with pytest.raises(ConfigurationError):
        stepper.step(np.zeros(3), np.zeros(1))
    with pytest.raises(ConfigurationError):
        stepper.step(np.zeros(2), np.zeros(2))
    singular = OpInfOperators(Khat=np.array([[1.0]]), Bhat=np.zeros((1, 0)),
                              fhat=np.zeros(1))
    with pytest.raises(FactorizationError), warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        RomStepper(singular, 1.0)


def test_reconstruct_is_isometric_lift():
    rng = np.random.default_rng(13)
    basis = compute_pod(rng.standard_normal((40, 15)), 6)
    vhat = rng.standard_normal(6)
    lifted = basis.Psi @ vhat
    assert lifted.shape == (40,)
    np.testing.assert_allclose(np.linalg.norm(lifted), np.linalg.norm(vhat),
                               rtol=1e-12)
    np.testing.assert_allclose(basis.Psi.T @ lifted, vhat, atol=1e-12)
    np.testing.assert_array_equal(basis.Psi @ np.zeros(6), 0.0)


def test_reduced_model_tracks_training_trajectory():
    # End-to-end sanity: infer a model from one dissipative transient and
    # integrate it over the training horizon; the lifted state must stay
    # within a few percent of the source trajectory.
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 15, 15)
    params = CdrParams(eps=1e-2, sigma=1e-3, b=(0.5, 0.5),
                       forcing=lambda x, y, t: x * y)
    system = assemble(mesh, params)
    dt = 0.01
    traj = integrate(ImplicitEulerStepper(system, dt), 0.0, 0.5,
                     np.zeros(system.n_interior),
                     lambda t: np.zeros(system.n_boundary))
    basis = compute_pod(traj.states, 8)
    energy = np.sum(basis.svals[:8] ** 2) / np.sum(basis.svals ** 2)
    assert energy >= 0.9999
    ops = train_opinf(basis, traj.states, traj.boundary_traces, dt)
    stepper = RomStepper(ops, dt)
    vhat = basis.Psi.T @ traj.states[:, 0]
    g = np.zeros(system.n_boundary)
    for _ in range(traj.n_times - 1):
        vhat = stepper.step(vhat, g)
    final = basis.Psi @ vhat
    ref = traj.states[:, -1]
    assert np.linalg.norm(final - ref) <= 0.05 * np.linalg.norm(ref)
