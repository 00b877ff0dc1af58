"""Shared fixtures.

The expensive full-scale study (reference run, coupled runs, training,
monolithic reduced model) is computed once per session and shared by the
acceptance tests; everything else runs on small meshes.
"""

import numpy as np
import pytest

from cdrschwarz import driver
from cdrschwarz.config import RunConfig


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
    ref = (fom.trajectory.times, fom.nodal_states)

    schwarz_run = driver.cmd_run_schwarz(cfg)
    schwarz_err, schwarz_abs, _ = driver.error_metric_detail(
        (schwarz_run.times, driver.stitch_history(schwarz_run, gm)), ref)

    training = driver.cmd_train(cfg)
    hybrid_run = driver.cmd_run_hybrid(cfg, trained=training.trained)
    hybrid_hist = driver.stitch_history(hybrid_run, gm)
    hybrid_err, hybrid_abs, _ = driver.error_metric_detail(
        (hybrid_run.times, hybrid_hist), ref)

    mono = driver.cmd_run_mono_opinf(cfg, fom=fom)
    if mono.diverged:
        mono_err = float("inf")
    else:
        mono_err, _, _ = driver.error_metric_detail(
            (mono.times, mono.nodal_states), ref)

    return {
        "cfg": cfg,
        "global_mesh": gm,
        "fom": fom,
        "schwarz_run": schwarz_run,
        "schwarz_err": schwarz_err,
        "training": training,
        "hybrid_run": hybrid_run,
        "hybrid_hist": hybrid_hist,
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
        cfg.schwarz_config(force_model="fe", tol=1e-12, max_iters=100),
        driver.fe_factory(cfg.params()))
    err, _, _ = driver.error_metric_detail(
        (run.times, driver.stitch_history(run, gm)),
        (fom.trajectory.times, fom.nodal_states))
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
