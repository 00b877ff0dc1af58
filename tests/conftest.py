"""Shared fixtures.

The expensive full-scale study (reference run, coupled runs, training,
monolithic reduced model) is computed once per session and shared by the
acceptance tests; everything else runs on small meshes.
"""

from dataclasses import replace

import numpy as np
import pytest

from cdrschwarz import driver
from cdrschwarz.config import RunConfig
from cdrschwarz.driver import NodalHistory


@pytest.fixture(scope="session")
def default_cfg():
    return RunConfig().validate()


@pytest.fixture(scope="session")
def study(default_cfg):
    """The default experiment, run end to end once.

    Returns a dict with the monolithic reference, the all-FE coupled run,
    the training result, the hybrid coupled run, the monolithic reduced
    model, and the stitched error of each model against the reference.
    Solve timings come from the runs themselves (wall clock around the
    solve phase only).
    """
    cfg = default_cfg
    gm = driver.build_global_mesh(cfg)
    fom = driver.cmd_run_fom(cfg)
    ref = reference_history(fom)

    schwarz_run = driver.cmd_run_schwarz(cfg)
    schwarz_err, schwarz_abs, _ = driver.error_metric_detail(
        NodalHistory.stitched(schwarz_run, gm), ref)

    training = driver.cmd_train(cfg)
    hybrid_run = driver.cmd_run_hybrid(cfg, trained=training.trained)
    hybrid_err, hybrid_abs, _ = driver.error_metric_detail(
        NodalHistory.stitched(hybrid_run, gm), ref)

    mono = driver.cmd_run_mono_opinf(cfg, fom=fom)
    if mono.diverged:
        mono_err = float("inf")
    else:
        mono_err, _, _ = driver.error_metric_detail(mono.history(), ref)

    return {
        "cfg": cfg,
        "global_mesh": gm,
        "fom": fom,
        "schwarz_run": schwarz_run,
        "schwarz_err": schwarz_err,
        "training": training,
        "hybrid_run": hybrid_run,
        "hybrid_err": hybrid_err,
        "mono": mono,
        "mono_err": mono_err,
    }


@pytest.fixture(scope="session")
def tight_schwarz(default_cfg):
    """All-FE coupled run at tol=1e-12, max_iters=100, with its error."""
    cfg = default_cfg
    gm = driver.build_global_mesh(cfg)
    fom = driver.cmd_run_fom(cfg)
    run = driver.run_coupled(
        replace(cfg, tol=1e-12, max_iters=100).schwarz_config(
            force_model="fe"), cfg.params())
    err, _, _ = driver.error_metric_detail(NodalHistory.stitched(run, gm),
                                           reference_history(fom))
    return {"run": run, "err": err}


def small_cfg(**overrides):
    """A fast, fully coupled configuration for functional tests."""
    base = dict(t_end=0.5, dt=0.01, nx=20, ny=20, overlap=0.2,
                training_t_end=0.2, training_r=6, mono_r=8)
    base.update(overrides)
    return RunConfig(**base).validate()


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# ---------------------------------------------------------------------------
# Whole nodal histories and fields, built directly: the oracles of the
# program's on-demand histories and coordinate operators.


def nodal_history(owner, trajectory):
    """Interior states and boundary traces merged into full nodal columns.

    ``owner`` is an assembled system or a subdomain solver; only its
    ``mesh``, ``interior_map`` and ``boundary_map`` are read.
    """
    full = np.empty((owner.mesh.n_nodes, trajectory.n_times))
    full[owner.interior_map] = trajectory.states
    full[owner.boundary_map] = trajectory.boundary_traces
    return full


def full_field(solver):
    """A subdomain solver's current nodal field: its lifted interior state
    merged with its boundary trace."""
    f = np.empty(solver.mesh.n_nodes)
    f[solver.interior_map] = solver.lift(solver.state)
    f[solver.boundary_map] = solver.g_cur
    return f


def reference_history(fom):
    """The monolithic reference's :class:`NodalHistory`."""
    return NodalHistory.merged(fom.system, fom.trajectory)


def stitched_whole(run, global_mesh):
    """A coupled run's whole history stitched onto ``global_mesh``."""
    return NodalHistory.stitched(run, global_mesh).columns(
        0, run.times.shape[0])


def held(nodal, times=None):
    """A :class:`NodalHistory` of the array ``nodal`` on ``times``, by
    default 0, 1, 2, ..."""
    if times is None:
        times = np.arange(float(nodal.shape[1]))
    return NodalHistory(times, nodal.shape[0], lambda key: nodal[:, key])
