"""Acceptance gates for the coupled solver, one test per criterion.

Every test prints a single summary line — measured value(s), the gate, and
PASS/FAIL — before asserting, so a plain ``pytest -v -s`` run shows the
whole scorecard. Heavy full-scale artifacts (the reference run, coupled
runs, training, the monolithic reduced model) are computed once in the
session fixtures and shared.
"""

import time

import numpy as np
from scipy.sparse.linalg import spsolve

from cdrschwarz import driver
from cdrschwarz.fem import CdrParams, assemble
from cdrschwarz.mesh import Rect, build_mesh
from cdrschwarz.rom import compute_pod, fit_operators
from cdrschwarz.schwarz import build_interfaces
from cdrschwarz.timestep import ImplicitEulerStepper, integrate

from conftest import small_cfg


def _report(num, name, measured, gate, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {measured}; gate: {gate}; {verdict}")
    assert ok, f"criterion {num} ({name}): {measured}; gate: {gate}"


# ---------------------------------------------------------------------------
# 1. Finite element correctness


def _affine_exactness_error():
    # u = 1 + 2x + 3y is in the Q1 space; with consistent data the transient
    # solver must hold it to solver precision.
    bx, by, sigma = 0.6, 0.8, 0.5
    u = lambda x, y: 1.0 + 2.0 * x + 3.0 * y
    params = CdrParams(
        eps=1e-2, sigma=sigma, b=(bx, by),
        forcing=lambda x, y, t: 2.0 * bx + 3.0 * by + sigma * u(x, y),
        dirichlet=lambda x, y, t: u(x, y))
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 16, 16)
    system = assemble(mesh, params)
    coords = mesh.coords[system.interior_map]
    exact = u(coords[:, 0], coords[:, 1])
    bc = mesh.coords[system.boundary_map]
    traj = integrate(ImplicitEulerStepper(system, 0.01), 0.0, 0.1, exact,
                     lambda t: u(bc[:, 0], bc[:, 1]))
    return float(np.max(np.abs(traj.states - exact[:, None])))


def _spatial_error(n):
    # Manufactured steady solution u = sin(pi x) sin(pi y).
    eps, sigma, bx, by = 1.0, 1.0, 1.0, 0.5
    pi = np.pi
    u = lambda x, y: np.sin(pi * x) * np.sin(pi * y)

    def forcing(x, y, t):
        ux = pi * np.cos(pi * x) * np.sin(pi * y)
        uy = pi * np.sin(pi * x) * np.cos(pi * y)
        return (eps * 2.0 * pi ** 2 * u(x, y) + bx * ux + by * uy
                + sigma * u(x, y))

    params = CdrParams(eps=eps, sigma=sigma, b=(bx, by), forcing=forcing)
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), n, n)
    system = assemble(mesh, params)
    v = spsolve(system.A_II.tocsc(), system.load(0.0))
    coords = mesh.coords[system.interior_map]
    e = v - u(coords[:, 0], coords[:, 1])
    return float(np.sqrt(e @ (system.M @ e)))  # discrete L2 norm


def _temporal_differences():
    # Successive step halvings on one transient; first-order stepping makes
    # consecutive solution differences shrink by 2 per halving.
    params = CdrParams(eps=1e-2, sigma=1e-3, b=(0.5, 0.8),
                       forcing=lambda x, y, t: x * y)
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 16, 16)
    system = assemble(mesh, params)
    finals = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        traj = integrate(ImplicitEulerStepper(system, dt), 0.0, 0.4,
                         np.zeros(system.n_interior),
                         lambda t: np.zeros(system.n_boundary))
        finals.append(traj.states[:, -1])
    diffs = [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]
    return [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]


def test_criterion_1_finite_element_correctness():
    t0 = time.perf_counter()
    affine_err = _affine_exactness_error()
    spatial_ratio = _spatial_error(8) / _spatial_error(16)
    temporal_ratios = _temporal_differences()
    elapsed = time.perf_counter() - t0
    ok = (affine_err <= 1e-10
          and 3.5 <= spatial_ratio <= 4.5
          and all(1.8 <= r <= 2.2 for r in temporal_ratios)
          and elapsed < 30.0)
    _report(
        1, "finite element correctness",
        f"affine max error {affine_err:.3e}, spatial error ratio "
        f"{spatial_ratio:.3f} (h=1/8 vs 1/16), temporal ratios "
        f"{[f'{r:.3f}' for r in temporal_ratios]}, runtime {elapsed:.1f}s",
        "affine <= 1e-10, spatial in [3.5, 4.5], temporal in [1.8, 2.2], "
        "< 30 s",
        ok)


# ---------------------------------------------------------------------------
# 2. Coupled all-FE consistency with the monolithic reference


def test_criterion_2_schwarz_consistency(tight_schwarz):
    err = tight_schwarz["err"]
    run = tight_schwarz["run"]
    seconds = run.timings["setup_seconds"] + run.timings["solve_seconds"]
    ok = err <= 1e-9 and run.converged and seconds < 600.0
    _report(
        2, "all-FE coupling consistency",
        f"time-averaged relative L2 error {err:.3e} vs monolithic at "
        f"tol=1e-12, max_iters=100, all windows converged"
        f"={run.converged}, run {seconds:.1f}s",
        "error <= 1e-9, converged, < 600 s",
        ok)


def test_schwarz_consistency_at_the_default_tolerance(study):
    # The all-FE run of the study itself, at tol = 1e-9: the Gamma-response
    # updates of later sweeps must not drift from the reference.
    err = study["schwarz_err"]
    assert err <= 1e-13, f"all-FE DD error {err:.3e} at the default tol"


# ---------------------------------------------------------------------------
# 3. Hybrid accuracy


def test_criterion_3_hybrid_accuracy(study):
    err = study["hybrid_err"]
    run = study["hybrid_run"]
    finite = all(np.all(np.isfinite(t.states)) for t in run.trajectories)
    ok = err <= 1e-2 and finite
    _report(
        3, "hybrid accuracy",
        f"time-averaged relative L2 error {err:.3e} vs the reference, "
        f"states finite={finite}, all windows converged={run.converged}",
        "error <= 1e-2 and no non-finite states (target band 1e-4..1e-3)",
        ok)


# ---------------------------------------------------------------------------
# 4. Monolithic reduced model accuracy gap


def test_criterion_4_mono_reduced_model_gap(study):
    mono_err = study["mono_err"]
    hybrid_err = study["hybrid_err"]
    ratio = mono_err / hybrid_err
    ok = mono_err >= 5.0 * hybrid_err
    _report(
        4, "monolithic reduced model gap",
        f"monolithic error {mono_err:.3e} (best lambda "
        f"{study['mono'].lam:g}), hybrid error {hybrid_err:.3e}, "
        f"ratio {ratio:.1f}x",
        "monolithic error >= 5x hybrid error",
        ok)


# ---------------------------------------------------------------------------
# 5. Hybrid speedup


def test_criterion_5_hybrid_speedup(study):
    # Best-of-3 interleaved timings on fresh runs keep the comparison
    # robust to scheduler noise; the trained models are reused so only
    # the coupled solve phase is measured.
    cfg = study["cfg"]
    params = cfg.params()
    trained = study["training"].trained
    fe_times, hybrid_times = [], []
    for _ in range(3):
        run_fe = driver.run_coupled(cfg.schwarz_config(force_model="fe"),
                                    params)
        run_hybrid = driver.run_coupled(cfg.schwarz_config(), params, trained)
        fe_times.append(run_fe.timings["solve_seconds"])
        hybrid_times.append(run_hybrid.timings["solve_seconds"])
    hybrid, all_fe = min(hybrid_times), min(fe_times)
    ratio = hybrid / all_fe
    ok = ratio <= 0.7
    # Sweeps per window tell a per-sweep cost change apart from a
    # sweep-count change when the ratio moves; the BLAS thread setting is
    # part of the measured condition.
    _report(
        5, "hybrid speedup",
        f"best-of-3 solve-phase seconds hybrid {hybrid:.3f} vs all-FE "
        f"{all_fe:.3f}, ratio {ratio:.3f}; sweeps/window hybrid "
        f"{np.mean(run_hybrid.iterations):.3f} vs all-FE "
        f"{np.mean(run_fe.iterations):.3f}",
        f"hybrid <= 0.7x all-FE solve time "
        f"({driver._blas_threads_note()})",
        ok)


# ---------------------------------------------------------------------------
# 6. Hybrid accuracy without regularization


def test_criterion_6_unregularized_training(study):
    trained = study["training"].trained
    lams = {i: (item.lam, item.ops.lam) for i, item in trained.items()}
    all_zero = all(lam == 0.0 and ops_lam == 0.0
                   for lam, ops_lam in lams.values())
    err = study["hybrid_err"]
    ok = all_zero and err <= 1e-2
    _report(
        6, "unregularized training",
        f"trained lambdas {sorted(lams.values())}, hybrid error {err:.3e}",
        "every reduced subdomain trained with lambda = 0 exactly and "
        "criterion-3 error gate still met",
        ok)


# ---------------------------------------------------------------------------
# 7. Operator inference oracle


def test_criterion_7_operator_inference_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_recovery = 0.0
    worst_residual = 0.0
    for _ in range(20):
        r = int(rng.integers(2, 9))
        m = int(rng.integers(1, 11))
        n_t = r + m + 1 + int(rng.integers(5, 40))
        k0 = rng.standard_normal((r, r))
        b0 = rng.standard_normal((r, m))
        f0 = rng.standard_normal(r)
        y = rng.standard_normal((r, n_t))
        g = rng.standard_normal((m, n_t))
        ydot = k0 @ y + b0 @ g + f0[:, None]

        # Exact recovery from exactly consistent data, unregularized.
        ops, = fit_operators(y, ydot, g, (0.0,))
        scale = max(1.0, np.linalg.norm(k0))
        recovery = max(np.max(np.abs(ops.Khat - k0)),
                       np.max(np.abs(ops.Bhat - b0)),
                       np.max(np.abs(ops.fhat - f0))) / scale
        worst_recovery = max(worst_recovery, recovery)

        # Independent oracle: the regularized normal equations.
        lam = float(10.0 ** rng.uniform(-6.0, 0.0))
        ops_reg, = fit_operators(y, ydot, g, (lam,))
        o = np.vstack([ops_reg.Khat.T, ops_reg.Bhat.T, ops_reg.fhat[None, :]])
        d = np.hstack([y.T, g.T, np.ones((n_t, 1))])
        rhs = d.T @ ydot.T
        residual = np.linalg.norm(
            (d.T @ d + lam ** 2 * np.eye(r + m + 1)) @ o - rhs)
        worst_residual = max(worst_residual,
                             residual / max(np.linalg.norm(rhs), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_recovery <= 1e-8 and worst_residual <= 1e-10 and elapsed < 10.0
    _report(
        7, "operator inference oracle",
        f"20 random problems: worst recovery error {worst_recovery:.3e}, "
        f"worst relative normal-equation residual {worst_residual:.3e}, "
        f"runtime {elapsed:.1f}s",
        "recovery <= 1e-8, residual <= 1e-10, < 10 s",
        ok)


# ---------------------------------------------------------------------------
# 8. Optimal low-rank projection


def test_criterion_8_pod_optimality():
    rng = np.random.default_rng(99)
    states = rng.standard_normal((200, 50))
    svals = np.linalg.svd(states, compute_uv=False)
    worst = 0.0
    for r in (1, 5, 10, 25, 49):
        basis = compute_pod(states, r)
        err = np.linalg.norm(states - basis.Psi @ (basis.Psi.T @ states))
        optimal = np.sqrt(np.sum(svals[r:] ** 2))
        worst = max(worst, abs(err - optimal))
    ok = worst <= 1e-10
    _report(
        8, "optimal low-rank projection",
        f"max |projection error - spectral tail| {worst:.3e} over ranks "
        f"(1, 5, 10, 25, 49) of a random 200x50 matrix",
        "<= 1e-10",
        ok)


# ---------------------------------------------------------------------------
# 9. Coupling bookkeeping: donors, honesty flags, determinism


def test_criterion_9_coupling_bookkeeping(default_cfg):
    # Donor table on the four-quadrant default layout.
    table = build_interfaces(default_cfg.schwarz_config(force_model="fe"))
    rects = [s.rect for s in default_cfg.subdomain_specs()]
    donors_ok = True
    for i, entry in enumerate(table.entries):
        if entry.n_gamma == 0 or np.any(entry.donors == i):
            donors_ok = False
        for (x, y), j in zip(entry.gamma_points, entry.donors):
            depth = rects[j].border_distance(x, y)
            if depth <= 0.0:
                donors_ok = False
            for k, rect in enumerate(rects):
                if k != i and rect.border_distance(x, y) > depth + 1e-12:
                    donors_ok = False

    # Convergence flags stay honest when iterations are capped.
    cfg = small_cfg(t_end=0.05, dt=0.01, training_t_end=0.05, mono_r=6,
                    max_iters=1)
    capped = driver.run_coupled(cfg.schwarz_config(force_model="fe"),
                                cfg.params())
    honest = (not capped.converged) and (not capped.window_converged.all())

    # Bitwise determinism of repeated identical runs.
    cfg2 = small_cfg()
    run_a = driver.cmd_run_hybrid(
        cfg2, trained=driver.hybrid_operators(cfg2)[0])
    run_b = driver.cmd_run_hybrid(
        cfg2, trained=driver.hybrid_operators(cfg2)[0])
    deterministic = all(
        np.array_equal(a.states, b.states)
        and np.array_equal(a.boundary_traces, b.boundary_traces)
        for a, b in zip(run_a.trajectories, run_b.trajectories)) and \
        np.array_equal(run_a.iterations, run_b.iterations)

    ok = donors_ok and honest and deterministic
    _report(
        9, "coupling bookkeeping",
        f"quadrant donor table valid={donors_ok}, capped-iteration flag "
        f"honest={honest}, repeated hybrid runs bitwise identical="
        f"{deterministic}",
        "all three properties hold",
        ok)
