"""Tests of the study benchmark itself: its checks and its report.

Run from the repository root:

    python3 -m pytest -q studybench
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

#: A study small enough for a test: 20x20 mesh, 50 steps, wide overlap.
TINY = run.Workload(
    "tiny", ("mesh.nx = 20", "mesh.ny = 20", "problem.t_end = 0.5",
             "problem.dt = 0.01", "decomposition.overlap = 0.2",
             "training.t_end = 0.2", "training.r = 6", "mono.r = 8"),
    nx=20, t_end=0.5, dt=0.01)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny study pass, collected as the benchmark collects it."""
    pkg = run.load_package(ROOT)
    tmp = tmp_path_factory.mktemp("study")
    cfg_path = str(tmp / "study.cfg")
    out_dir = str(tmp / "out")
    steps = run.write_config(TINY, 7, cfg_path)
    tracer = Tracer()
    tracer.install(pkg, layers=False)
    try:
        cfg = pkg.config.parse_config(cfg_path)
        pkg.driver.cmd_compare(cfg, out_dir=out_dir)
        return run.collect_outputs(TINY, tracer.results, out_dir, steps,
                                   cfg.dt)
    finally:
        tracer.uninstall()


def copy(out):
    """Deep copy of a StudyOutputs, so a test can perturb it."""
    return dataclasses.replace(
        out, reference=out.reference.copy(), allfe=out.allfe.copy(),
        hybrid=out.hybrid.copy(), mono=out.mono.copy(),
        runs={k: (c.copy(), i.copy()) for k, (c, i) in out.runs.items()},
        exports={k: v.copy() for k, v in out.exports.items()})


def interior_node(out):
    return int(np.flatnonzero(~checks.boundary_mask(out.nx, out.ny))[
        out.nx * 3])


def test_program_outputs_pass(outputs):
    failures, values = checks.check(copy(outputs))
    assert failures == []
    assert values["euler_residual"] < 1e-12
    assert values["dd_err"] < 1e-8
    assert 0.0 < values["hybrid_err"] < 1e-2


def test_perturbed_reference_step_is_rejected(outputs):
    out = copy(outputs)
    out.reference[interior_node(out), 10] *= 1.0 + 1e-6
    failures, _ = checks.check(out)
    assert any("implicit Euler" in f for f in failures)


def test_unconverged_window_is_rejected(outputs):
    out = copy(outputs)
    out.runs["hybrid"][0][3] = False
    failures, _ = checks.check(out)
    assert any("hybrid run: 1 windows did not converge" in f
               for f in failures)


def test_non_finite_state_is_rejected(outputs):
    out = copy(outputs)
    out.allfe[interior_node(out), -1] = np.nan
    failures, _ = checks.check(out)
    assert failures == ["all-fe history is not finite"]


def test_dd_mismatch_is_rejected(outputs):
    out = copy(outputs)
    out.allfe[:, 1:] *= 1.0 + 1e-6
    failures, _ = checks.check(out)
    assert any(f.startswith("all-FE DD error") for f in failures)


def test_hybrid_error_ceiling(outputs):
    out = copy(outputs)
    out.hybrid[:] = 1.02 * out.reference
    failures, values = checks.check(out)
    assert values["hybrid_err"] == pytest.approx(0.02)
    assert any(f.startswith("hybrid error") for f in failures)


def test_mono_gap_is_enforced_only_where_asked(outputs):
    out = copy(outputs)
    out.mono[:] = out.hybrid
    assert checks.check(out)[0] == []
    failures, _ = checks.check(out, mono_gap=True)
    assert any("mono-OpInf error" in f for f in failures)


def test_altered_export_is_rejected(outputs):
    out = copy(outputs)
    key = next(k for k in out.exports if k[0] == "hybrid")
    out.exports[key][interior_node(out)] += 1e-9
    failures, _ = checks.check(out)
    assert any("exported fields" in f for f in failures)


def test_steady_check(outputs):
    out = copy(outputs)
    _, op, load = checks.q1_system(out.nx, out.ny)
    interior = ~checks.boundary_mask(out.nx, out.ny)
    idx = np.flatnonzero(interior)
    steady = np.linalg.solve(op[idx][:, idx].toarray(), load[idx])
    out.reference[idx, -1] = steady
    assert checks.steady_mismatch(out) < 1e-12
    out.reference[idx[0], -1] += 1e-6 * np.abs(steady).max()
    assert checks.steady_mismatch(out) > checks.STEADY_TOL


def test_q1_system_matches_program_assembly():
    pkg = run.load_package(ROOT)
    cfg = pkg.config.RunConfig(nx=6, ny=4)
    mesh = pkg.driver.build_global_mesh(cfg)
    m_full, a_full = pkg.fem.assemble_full(mesh, cfg.params())
    mass, op, load = checks.q1_system(6, 4)
    assert abs(m_full - mass).max() < 1e-15
    assert abs(a_full - op).max() < 1e-14
    system = pkg.fem.assemble(mesh, cfg.params())
    interior = ~checks.boundary_mask(6, 4)
    assert np.allclose(system.load(0.0), load[interior], rtol=1e-13,
                       atol=0.0)


def test_fastest_segments():
    # A root span and two children, in three passes: each of the five
    # segments counts at its fastest, whichever pass that was in.
    passes = []
    for shift in (0.0, 1.0, 2.0):
        starts = np.array([0.0, 1.0 + shift, 4.0 + shift])
        ends = np.array([10.0, 3.0 + shift, 7.0])
        intervals = {"study_s": [(1, starts[0], ends[0])],
                     "train": [(1, starts[1], ends[1])],
                     "rest": [(1, starts[0], ends[0]),
                              (-1, starts[2], ends[2])]}
        passes.append((run.segment_bounds(starts, ends), intervals))
    # Segments per pass: [1, 2, 1, 3, 3], [2, 2, 1, 2, 3], [3, 2, 1, 1, 3].
    fast = run.fastest_stage_times(passes)
    assert fast == {"study_s": 8.0, "train": 2.0, "rest": 7.0}
    assert run.stage_times(passes[0][1]) == {"study_s": 10.0, "train": 2.0,
                                             "rest": 7.0}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_tables_match_benchmark_json():
    spec = benchmark_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_report_lists_every_metric(trace):
    spec = benchmark_spec()
    result = run.run_workload(TINY, 3, 0.0, trace, ROOT)
    assert result["correct"] and result["attempted"] == 1
    assert result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    lines = run.format_report(result)
    for m in wanted:
        assert any(line.split() == [m["name"], line.split()[1], m["unit"]]
                   for line in lines), m["name"]
    assert lines[-1] == "attempted 1 failed 0 correct true"
    if trace:
        metrics = result["metrics"]
        for name in ("schwarz.gather_calls", "timestep.step_calls",
                     "rom.fit_calls", "matio.bytes_written"):
            assert metrics[name]["value"] > 0, name
        spans = np.load(os.path.join(ROOT, ".studybench", "trace-tiny-s3.npz"))
        names = spans["name_table"][spans["name"]]
        assert list(spans["pass_start"]) == [0]
        assert names[0] == "driver.compare" and spans["parent"][0] == -1
        assert np.all(spans["parent"][1:] >= 0)
        assert np.all(spans["end"] >= spans["start"])
        assert np.count_nonzero(names == "schwarz.gather") == \
            metrics["schwarz.gather_calls"]["value"]


def test_fails_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "strips", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
