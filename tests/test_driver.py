"""Configuration files, persistence, the error metric, pipeline commands,
and the command line interface."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from cdrschwarz import cli, driver, matio
from cdrschwarz.config import (RunConfig, corner_source, parse_config)
from cdrschwarz.driver import (DEFAULT_LAMBDA_GRID, cmd_compare, cmd_run_fom,
                               cmd_run_hybrid, cmd_run_mono_opinf,
                               cmd_run_schwarz, cmd_train, error_metric,
                               error_metric_detail, hybrid_operators,
                               load_trained)
from cdrschwarz.errors import ConfigurationError, FormatError
from cdrschwarz.fem import boundary_values
from cdrschwarz.mesh import Rect, build_mesh
from cdrschwarz.rom import (LSTSQ_RCOND, RomStepper, time_derivatives,
                            train_opinf)
from cdrschwarz.timestep import Trajectory

from conftest import small_cfg

SMALL_CFG_TEXT = """
problem.t_end = 0.5
problem.dt = 0.01
mesh.nx = 20
mesh.ny = 20
decomposition.overlap = 0.2
training.t_end = 0.2
training.r = 6
mono.r = 8
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Configuration parsing


def test_empty_config_gives_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing but a comment\n\n"))
    assert cfg.epsilon == 1e-2 and cfg.sigma == 1e-3
    np.testing.assert_allclose(cfg.b, (math.cos(math.pi / 3.0),
                                       math.sin(math.pi / 3.0)))
    assert cfg.forcing is corner_source and cfg.dirichlet is None
    assert cfg.t_end == 5.0 and cfg.dt == 5e-3
    assert cfg.nx == 50 and cfg.ny == 50
    assert cfg.layout == "quadrants" and cfg.overlap == 0.08
    assert cfg.training_t_end == 0.5 and cfg.training_r == 10
    assert cfg.training_lambda == 0.0
    assert cfg.mono_r == 30 and cfg.mono_lambda is None
    assert cfg.tol == 1e-9 and cfg.max_iters == 50
    assert cfg.resolved_field_times() == [5.0]

    specs = cfg.subdomain_specs()
    assert len(specs) == 4
    assert [s.model for s in specs] == ["rom", "rom", "rom", "fe"]
    assert all(s.rom_dim == 10 for s in specs[:3])
    assert specs[0].rect == Rect(0.0, 0.54, 0.0, 0.54)
    assert specs[3].rect == Rect(0.46, 1.0, 0.46, 1.0)
    assert specs[0].nx == 27  # 0.54 / 0.02 cells


def test_config_applies_every_section(tmp_path):
    text = """
problem.epsilon = 0.5       # inline comment
problem.sigma = 0.0
problem.b_angle_degrees = 0
problem.forcing = one
problem.dirichlet = constant:2.5
problem.t_end = 1.0
problem.dt = 0.05
mesh.h = 0.05
decomposition.overlap = 0.2
training.t_end = 0.5
training.r = 4
training.lambda = 1e-3
mono.r = 5
mono.lambda = 0.25
schwarz.tol = 1e-7
schwarz.max_iters = 12
schwarz.steps_per_window = 2
output.dir = results
output.field_times = 0.5, 1.0
subdomain.1.r = 3
subdomain.1.lambda = 0.5
subdomain.2.model = fe
"""
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.epsilon == 0.5 and cfg.sigma == 0.0
    np.testing.assert_allclose(cfg.b, (1.0, 0.0), atol=1e-15)
    assert cfg.forcing == 1.0 and cfg.dirichlet == 2.5
    assert cfg.nx == 20 and cfg.ny == 20  # from mesh.h
    assert cfg.mono_lambda == 0.25
    assert cfg.tol == 1e-7 and cfg.max_iters == 12
    assert cfg.steps_per_window == 2
    assert cfg.out_dir == "results"
    assert cfg.resolved_field_times() == [0.5, 1.0]

    specs = cfg.subdomain_specs()
    assert specs[0].rom_dim == 3 and specs[0].rom_lambda == 0.5
    assert specs[1].model == "fe"
    assert specs[2].rom_dim == 4 and specs[2].rom_lambda == 1e-3


def test_config_velocity_components_and_grid_keyword(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
problem.bx = 1.0
problem.by = -2.0
mono.lambda = grid
"""))
    np.testing.assert_allclose(cfg.b, (1.0, -2.0))
    assert cfg.mono_lambda is None


def test_config_forcing_selectors(tmp_path):
    for text, expected in (("zero", None), ("one", 1.0),
                           ("constant:2.5", 2.5)):
        cfg = parse_config(write_cfg(tmp_path,
                                     f"problem.forcing = {text}\n",
                                     name=f"{text.replace(':', '_')}.cfg"))
        assert cfg.forcing == expected or cfg.forcing is expected
    cfg = parse_config(write_cfg(tmp_path, "problem.forcing = xy\n",
                                 name="xy.cfg"))
    assert cfg.forcing is corner_source


@pytest.mark.parametrize("text,match", [
    ("problem.epsilon = -1\n", "eps"),
    ("problem.epsilon = abc\n", "number"),
    ("problem.dt = 0.3\n", "integer number of steps"),
    ("nonsense.key = 1\n", "unknown key"),
    ("problem.sigma = 1\nproblem.sigma = 2\n", "duplicate"),
    ("problem.b_angle_degrees = 30\nproblem.bx = 1\n", "not both"),
    ("mesh.h = 0.1\nmesh.nx = 10\n", "either mesh.h or"),
    ("problem.forcing = cubic\n", "use zero, one, xy"),
    ("subdomain.0.nx = 5\n", "start at 1"),
    ("subdomain.1.rect = 0,1,0\n", "x0,x1,y0,y1"),
    ("subdomain.1.model = spectral\n", "fe or rom"),
    ("training.t_end = 9.0\n", "exceeds the run horizon"),
    ("decomposition.layout = pinwheel\n", "unknown decomposition layout"),
    ("decomposition.layout = single\n", "unknown decomposition layout"),
    ("decomposition.overlap = 1.2\n", "strictly inside"),
    ("mesh.nx = 20\nmesh.ny = 20\n", "integer number of cells"),
    ("just some words\n", "expected 'key = value'"),
    ("output.field_times = 7.0\n", "outside"),
    ("problem.dt = nan\n", "expected a finite number"),
    ("problem.dt = 0\n", "time step must be > 0"),
    ("problem.t_end = inf\n", "expected a finite number"),
    ("mesh.nx = nan\n", "expected a finite number"),
    ("mesh.nx = 1e400\n", "expected a finite number"),
    ("mesh.h = nan\n", "expected a finite number"),
    ("training.t_end = nan\n", "expected a finite number"),
])
def test_config_rejections(tmp_path, text, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_config(write_cfg(tmp_path, text))


def test_config_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        parse_config("/nonexistent/experiment.cfg")


def test_custom_layout_requires_rects(tmp_path):
    with pytest.raises(ConfigurationError, match="rect is missing"):
        parse_config(write_cfg(tmp_path, """
decomposition.layout = custom
decomposition.count = 2
subdomain.1.rect = 0, 0.6, 0, 1
subdomain.1.nx = 6
subdomain.1.ny = 10
"""))


def test_custom_layout_builds_specs(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
decomposition.layout = custom
decomposition.count = 2
subdomain.1.rect = 0, 0.6, 0, 1
subdomain.2.rect = 0.4, 1, 0, 1
mesh.nx = 10
mesh.ny = 10
"""))
    specs = cfg.subdomain_specs()
    assert len(specs) == 2
    assert specs[0].rect == Rect(0.0, 0.6, 0.0, 1.0)
    assert specs[0].nx == 6 and specs[1].nx == 6  # inherited h = 0.1
    assert [s.model for s in specs] == ["rom", "fe"]


# ---------------------------------------------------------------------------
# Matrix and metadata persistence


def test_matrix_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 5))
    matrix[0, 0] = -0.0
    matrix[1, 2] = np.pi
    path = str(tmp_path / "m.bin")
    matio.save_matrix(path, matrix)
    loaded = matio.load_matrix(path)
    assert loaded.shape == (3, 5)
    assert np.array_equal(matrix, loaded)
    assert np.signbit(loaded[0, 0])  # -0.0 preserved exactly


def test_matrix_one_dimensional_saved_as_column(tmp_path):
    path = str(tmp_path / "v.bin")
    matio.save_matrix(path, np.array([1.0, 2.0, 3.0]))
    loaded = matio.load_matrix(path)
    assert loaded.shape == (3, 1)
    np.testing.assert_array_equal(loaded.ravel(), [1.0, 2.0, 3.0])


def test_matrix_empty_round_trip(tmp_path):
    path = str(tmp_path / "e.bin")
    matio.save_matrix(path, np.zeros((0, 4)))
    assert matio.load_matrix(path).shape == (0, 4)


def test_matrix_format_rejections(tmp_path):
    path = str(tmp_path / "m.bin")
    matio.save_matrix(path, np.ones((2, 2)))
    good = open(path, "rb").read()

    with pytest.raises(FormatError, match="3-D|2-D"):
        matio.save_matrix(path, np.ones((2, 2, 2)))

    bad_magic = str(tmp_path / "magic.bin")
    open(bad_magic, "wb").write(b"NOPE" + good[4:])
    with pytest.raises(FormatError, match="magic"):
        matio.load_matrix(bad_magic)

    truncated_header = str(tmp_path / "th.bin")
    open(truncated_header, "wb").write(good[:10])
    with pytest.raises(FormatError, match="truncated header"):
        matio.load_matrix(truncated_header)

    truncated_payload = str(tmp_path / "tp.bin")
    open(truncated_payload, "wb").write(good[:-8])
    with pytest.raises(FormatError, match="payload"):
        matio.load_matrix(truncated_payload)

    trailing = str(tmp_path / "tr.bin")
    open(trailing, "wb").write(good + b"\x00" * 8)
    with pytest.raises(FormatError, match="payload"):
        matio.load_matrix(trailing)

    bad_version = str(tmp_path / "bv.bin")
    open(bad_version, "wb").write(good[:4] + b"\x09\x00\x00\x00" + good[8:])
    with pytest.raises(FormatError, match="version"):
        matio.load_matrix(bad_version)

    overflow = str(tmp_path / "of.bin")
    import struct
    open(overflow, "wb").write(struct.pack("<4sIQQ", b"OIFS", 1,
                                           1 << 60, 1 << 60))
    with pytest.raises(FormatError, match="overflow"):
        matio.load_matrix(overflow)


def test_field_csv_export(tmp_path):
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 1, 1)
    path = str(tmp_path / "f.csv")
    field = np.array([0.0, 1.0 / 3.0, -2.0, 4.5])
    matio.export_field_csv(path, mesh, field)
    lines = open(path).read().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 5
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, :2], mesh.coords)
    np.testing.assert_array_equal(data[:, 2], field)  # 17 digits: exact

    # The whole text: header, separators, 17-digit values, signed zero,
    # non-finite values and the final newline.
    matio.export_field_csv(path, mesh,
                           np.array([-0.0, 1.0 / 3.0, np.inf, np.nan]))
    assert (tmp_path / "f.csv").read_bytes() == (
        b"x,y,u\n0,0,-0\n1,0,0.33333333333333331\n0,1,inf\n1,1,nan\n")

    with pytest.raises(FormatError):
        matio.export_field_csv(path, mesh, np.zeros(3))


def test_meta_round_trip(tmp_path):
    path = str(tmp_path / "meta.txt")
    matio.save_meta(path, {"r": 10, "lambda": 0.1, "note": "plain text"})
    meta = matio.load_meta(path)
    assert meta["r"] == "10"
    assert float(meta["lambda"]) == 0.1
    assert meta["note"] == "plain text"


# ---------------------------------------------------------------------------
# Error metric


def test_error_metric_basics():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal((30, 12)) + 5.0
    assert error_metric(ref, ref) == 0.0
    value = error_metric(1.01 * ref, ref)
    np.testing.assert_allclose(value, 0.01, rtol=1e-12)


def test_error_metric_absolute_fallback_and_skips():
    zeros = np.zeros((10, 4))
    model = np.full((10, 4), 0.5)
    value, used_absolute, n_skipped = error_metric_detail(model, zeros)
    assert used_absolute and n_skipped == 4
    np.testing.assert_allclose(value, np.linalg.norm(model[:, 0]))

    # A single degenerate column is skipped, not averaged in.
    ref = np.ones((10, 4))
    ref[:, 0] = 0.0
    value, used_absolute, n_skipped = error_metric_detail(ref * 1.01, ref)
    assert not used_absolute and n_skipped == 1
    np.testing.assert_allclose(value, 0.01, rtol=1e-12)


def test_error_metric_input_forms():
    times = np.linspace(0.0, 1.0, 5)
    states = np.random.default_rng(2).standard_normal((7, 5)) + 3.0
    traj = Trajectory(times=times, states=states,
                      boundary_traces=np.zeros((0, 5)))
    assert error_metric(traj, (times, states)) == 0.0
    with pytest.raises(ConfigurationError, match="shapes differ"):
        error_metric(states[:, :4], states)
    with pytest.raises(ConfigurationError, match="time grids differ"):
        error_metric((times + 0.5, states), (times, states))


# ---------------------------------------------------------------------------
# Pipeline commands (one shared small-scale study)


@pytest.fixture(scope="module")
def small_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("small_out"))
    cfg = small_cfg()
    runs = {}

    def keeping(name, command):
        def kept(*args, **kwargs):
            runs[name] = command(*args, **kwargs)
            return runs[name]
        return kept

    with pytest.MonkeyPatch.context() as mp:
        for prefix, name in (("schwarz", "cmd_run_schwarz"),
                             ("hybrid", "cmd_run_hybrid")):
            mp.setattr(driver, name, keeping(prefix, getattr(driver, name)))
        report = cmd_compare(cfg, out_dir=out)
    return {"cfg": cfg, "out": out, "report": report, "runs": runs}


def assert_field_files_hold(cfg, out_dir, prefix, run):
    """Each exported field file's ``u`` column is the matching column of the
    run's stitched history."""
    stitched = driver.stitch_history(run, driver.build_global_mesh(cfg))
    for t in cfg.resolved_field_times():
        u = np.loadtxt(os.path.join(out_dir, f"{prefix}_field_t{t:g}.csv"),
                       delimiter=",", skiprows=1, usecols=2)
        np.testing.assert_array_equal(u, stitched[:, round(t / cfg.dt)])


def test_compare_report_structure(small_out):
    report = small_out["report"]
    assert [m.name for m in report.models] == ["all-fe-dd", "hybrid-dd",
                                               "mono-opinf"]
    assert report.reference_self_error == 0.0
    for m in report.models:
        assert np.isfinite(m.error) and m.error >= 0.0
        assert m.converged
    all_fe, hybrid, mono = report.models
    assert all_fe.error <= 1e-9   # same discretization, tight coupling
    assert "lambda" in mono.note
    text = report.to_text()
    assert "error vs reference" in text and "all-fe-dd" in text


def test_compare_outputs_on_disk(small_out):
    out = small_out["out"]
    expected = [
        "fom_times.bin", "fom_states.bin", "fom_traces.bin",
        "fom_field_final.csv", "schwarz_field_t0.5.csv",
        "hybrid_field_t0.5.csv", "comparison.csv", "comparison.txt",
        "mono_basis.bin", "mono_khat.bin", "mono_bhat.bin", "mono_fhat.bin",
        "mono_meta.txt",
    ]
    for i in (1, 2, 3):
        expected += [f"sub{i}_{name}.bin" for name in
                     ("basis", "svals", "khat", "bhat", "fhat")]
        expected += [f"sub{i}_meta.txt"]
    for name in expected:
        assert os.path.exists(os.path.join(out, name)), name
    # The last subdomain stays finite element: no operators for it.
    assert not os.path.exists(os.path.join(out, "sub4_khat.bin"))


@pytest.mark.parametrize("prefix", ["schwarz", "hybrid"])
def test_compare_field_files_hold_stitched_history(small_out, prefix):
    assert_field_files_hold(small_out["cfg"], small_out["out"], prefix,
                            small_out["runs"][prefix])


def test_compare_csv_round_trips_report(small_out):
    lines = open(os.path.join(small_out["out"], "comparison.csv")).read() \
        .splitlines()
    assert len(lines) == 9
    header = lines[0].split(",")
    assert header == ["metric", "all-fe-dd", "hybrid-dd", "mono-opinf"]
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    report = small_out["report"]
    for j, m in enumerate(report.models):
        assert float(rows["error_vs_reference"][j]) == m.error
        assert float(rows["solve_seconds"][j]) == m.solve_seconds
        assert rows["converged"][j] == str(m.converged).lower()
        assert rows["error_is_absolute"][j] == str(m.error_is_absolute).lower()


def _hand_made_report():
    models = [
        driver.ModelReport(
            name="all-fe-dd", error=1.25e-12, error_is_absolute=False,
            solve_seconds=2.5, setup_seconds=0.125, iters_mean=2.045,
            iters_max=7.0),
        driver.ModelReport(
            name="hybrid-dd", error=0.5, error_is_absolute=True,
            solve_seconds=1.0 / 3.0, setup_seconds=0.0625,
            train_seconds=0.75, iters_mean=1.5, iters_max=4.0,
            converged=False, note="trained in memory"),
        driver.ModelReport(
            name="mono opinf", error=float("inf"), error_is_absolute=False,
            solve_seconds=0.01, train_seconds=0.2,
            note="monolithic lambda = 1e-06"),
    ]
    return driver.ComparisonReport(
        models=models, reference_self_error=0.0,
        reference_solve_seconds=0.875, environment="environment: test")


def test_comparison_report_exact_bytes(tmp_path):
    # Pins both renderings byte for byte: NaN iterations, an absolute
    # error, infinite error, half-way rounding (0.0625) and two notes.
    report = _hand_made_report()
    assert report.to_text() == (
        "metric                         all-fe-dd       hybrid-dd"
        "      mono opinf\n"
        + "-" * 72 + "\n"
        "solve seconds                      2.500           0.333"
        "           0.010\n"
        "error vs reference             1.250e-12       5.000e-01"
        "             inf\n"
        "setup seconds                      0.125           0.062"
        "           0.000\n"
        "training seconds                   0.000           0.750"
        "           0.200\n"
        "iterations mean                     2.04            1.50"
        "             nan\n"
        "iterations max                         7               4"
        "             nan\n"
        "\n"
        "reference solve seconds: 0.875\n"
        "reference self error: 0\n"
        "environment: test\n"
        "note: trained in memory\n"
        "note: monolithic lambda = 1e-06")
    path = tmp_path / "comparison.csv"
    report.write_csv(str(path))
    assert path.read_bytes() == (
        b"metric,all-fe-dd,hybrid-dd,mono_opinf\n"
        b"solve_seconds,2.5,0.33333333333333331,0.01\n"
        b"error_vs_reference,1.2499999999999999e-12,0.5,inf\n"
        b"error_is_absolute,false,true,false\n"
        b"setup_seconds,0.125,0.0625,0\n"
        b"train_seconds,0,0.75,0.20000000000000001\n"
        b"iterations_mean,2.0449999999999999,1.5,nan\n"
        b"iterations_max,7,4,nan\n"
        b"converged,true,false,true\n")


def test_fom_outputs_round_trip(small_out):
    out = small_out["out"]
    cfg = small_out["cfg"]
    times = matio.load_matrix(os.path.join(out, "fom_times.bin")).ravel()
    assert times.shape == (51,)
    np.testing.assert_allclose(times, cfg.dt * np.arange(51), atol=1e-15)
    states = matio.load_matrix(os.path.join(out, "fom_states.bin"))
    assert states.shape == ((cfg.nx - 1) * (cfg.ny - 1), 51)
    assert np.all(states[:, 0] == 0.0)  # zero initial condition
    field = np.loadtxt(os.path.join(out, "fom_field_final.csv"),
                       delimiter=",", skiprows=1)
    assert field.shape == ((cfg.nx + 1) * (cfg.ny + 1), 3)


def test_training_metadata_consistency(small_out):
    out = small_out["out"]
    for i in (1, 2, 3):
        meta = matio.load_meta(os.path.join(out, f"sub{i}_meta.txt"))
        assert meta["r"] == "6"
        assert float(meta["lambda"]) == 0.0
        energy = float(meta["retained_energy"])
        assert 0.0 < energy <= 1.0
        svals = matio.load_matrix(os.path.join(out,
                                               f"sub{i}_svals.bin")).ravel()
        np.testing.assert_allclose(float(meta["snapshot_frobenius_sq"]),
                                   np.sum(svals ** 2), rtol=1e-12)
        basis = matio.load_matrix(os.path.join(out, f"sub{i}_basis.bin"))
        assert basis.shape[1] == 6
        np.testing.assert_allclose(basis.T @ basis, np.eye(6), atol=1e-12)


def test_persisted_operators_reproduce_in_memory_run(small_out):
    # Training, persistence, and retraining are all deterministic, so a
    # hybrid run fed from disk must match a freshly retrained one bitwise.
    cfg = small_out["cfg"]
    from_disk, training = hybrid_operators(cfg, out_dir=small_out["out"])
    assert training is None
    from_disk = cmd_run_hybrid(cfg, trained=from_disk)
    retrained = cmd_run_hybrid(cfg, trained=hybrid_operators(cfg)[0])
    for a, b in zip(from_disk.trajectories, retrained.trajectories):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.boundary_traces, b.boundary_traces)
    assert np.array_equal(from_disk.iterations, retrained.iterations)


def test_load_trained_round_trip(small_out):
    cfg = small_out["cfg"]
    out = small_out["out"]
    trained = load_trained(cfg, out)
    assert sorted(trained.keys()) == [0, 1, 2]
    for i, item in trained.items():
        assert item.lam == 0.0 and item.ops.lam == 0.0
        raw = matio.load_matrix(os.path.join(out, f"sub{i + 1}_khat.bin"))
        assert np.array_equal(item.ops.Khat, raw)


def test_load_trained_requires_files(small_out, tmp_path):
    with pytest.raises(ConfigurationError, match="run training first"):
        load_trained(small_out["cfg"], str(tmp_path))


def test_load_trained_rejects_operators_of_another_problem(tmp_path):
    out = str(tmp_path)
    cmd_train(small_cfg(), out_dir=out)
    assert sorted(load_trained(small_cfg(), out)) == [0, 1, 2]
    with pytest.raises(ConfigurationError,
                       match=r"subdomain 1: .*epsilon trained 0\.01, "
                             r"now 0\.02.*retrain"):
        load_trained(small_cfg(epsilon=0.02), out)
    with pytest.raises(ConfigurationError,
                       match=r"forcing trained corner_source, now zero"):
        load_trained(small_cfg(forcing=None), out)
    # Files written before fingerprints existed are not reused either.
    meta = os.path.join(out, "sub2_meta.txt")
    lines = open(meta).read().splitlines()
    with open(meta, "w") as handle:
        handle.write("\n".join(l for l in lines
                               if not l.startswith("fingerprint")) + "\n")
    with pytest.raises(ConfigurationError,
                       match=r"subdomain 2: .*no training fingerprint"):
        load_trained(small_cfg(), out)


def test_compare_is_deterministic(small_out):
    report = cmd_compare(small_out["cfg"])
    for fresh, cached in zip(report.models, small_out["report"].models):
        assert fresh.error == cached.error  # bitwise-equal pipelines
    for fresh, cached in zip(report.models[:2], small_out["report"].models):
        assert fresh.iters_mean == cached.iters_mean  # window counts too


def test_mono_meta_written(small_out):
    meta = matio.load_meta(os.path.join(small_out["out"], "mono_meta.txt"))
    assert meta["r"] == "8"
    assert meta["diverged"] == "False"
    assert float(meta["lambda"]) >= 0.0


# ---------------------------------------------------------------------------
# Individual commands


@pytest.fixture(scope="module")
def small_fom():
    return cmd_run_fom(small_cfg())


def test_zero_data_run_is_identically_zero():
    cfg = small_cfg(forcing=None)
    fom = cmd_run_fom(cfg)
    assert np.all(fom.nodal_states == 0.0)
    value, used_absolute, _ = error_metric_detail(fom.nodal_states,
                                                  fom.nodal_states)
    assert value == 0.0 and used_absolute


def test_train_rejects_rank_beyond_snapshots():
    with pytest.raises(ConfigurationError, match="rank"):
        cmd_train(small_cfg(training_r=500))


def test_hybrid_rejects_operators_trained_at_another_rank(tmp_path):
    cmd_train(small_cfg(), out_dir=str(tmp_path))
    with pytest.raises(ConfigurationError,
                       match=r"subdomain 1 .*r = 4.*rank 6.*retrain"):
        hybrid_operators(small_cfg(training_r=4), out_dir=str(tmp_path))


def test_training_couples_every_step_when_windows_are_longer():
    # Operators fitted to traces held constant over 2-step windows are
    # unstable; the data run must couple at every step instead.
    cfg = small_cfg(steps_per_window=2)
    training = cmd_train(cfg)
    assert training.run.config.steps_per_window == 1
    assert training.run.times.shape == (21,)
    for item in training.trained.values():
        assert np.linalg.eigvals(item.ops.Khat).real.max() < 0.0
    run = cmd_run_hybrid(cfg, trained=training.trained)
    assert run.config.steps_per_window == 2
    assert run.converged
    assert all(np.all(np.isfinite(t.states)) for t in run.trajectories)


def test_environment_note_reports_blas_threads(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    note = driver._environment_note()
    assert note.endswith("BLAS threads: library default")
    assert "single-threaded" not in note
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert driver._environment_note().endswith(
        "BLAS threads: OMP_NUM_THREADS=3")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert driver._environment_note().endswith(
        "BLAS threads: OPENBLAS_NUM_THREADS=1")


def test_default_lambda_grid_shape():
    assert DEFAULT_LAMBDA_GRID[0] == 0.0
    assert len(DEFAULT_LAMBDA_GRID) == 14
    np.testing.assert_allclose(DEFAULT_LAMBDA_GRID[1], 1e-6)
    np.testing.assert_allclose(DEFAULT_LAMBDA_GRID[-1], 1.0)
    diffs = np.diff(DEFAULT_LAMBDA_GRID)
    assert np.all(diffs > 0.0)


def test_mono_grid_search_picks_lowest_reprojection_error(small_fom):
    cfg = small_cfg()
    result = cmd_run_mono_opinf(cfg, fom=small_fom, lambda_grid=(1e8, 0.0))
    assert result.grid == (1e8, 0.0)
    assert result.grid_errors[1] < result.grid_errors[0]
    assert result.lam == 0.0
    assert result.ops.lam == 0.0


def test_mono_fixed_lambda_skips_grid(small_fom):
    cfg = small_cfg(mono_lambda=0.05)
    result = cmd_run_mono_opinf(cfg, fom=small_fom)
    assert result.grid == (0.05,)
    assert result.lam == 0.05


def test_mono_nodal_states_shape(small_fom):
    cfg = small_cfg()
    result = cmd_run_mono_opinf(cfg, fom=small_fom)
    assert result.nodal_states.shape == small_fom.nodal_states.shape
    assert not result.diverged
    assert np.all(np.isfinite(result.nodal_states))


def test_mono_divergence_is_reported(small_fom, tmp_path, monkeypatch):
    # K = (1 - 1e-10)/dt I makes each implicit Euler step multiply the
    # state by 1e10, so the model overflows within a few dozen steps.
    cfg = small_cfg()
    fit = driver.train_opinf

    def explosive(basis, states, traces, dt, lam=0.0):
        ops = fit(basis, states, traces, dt, lam)
        return replace(ops, Khat=(1.0 - 1e-10) / dt * np.eye(ops.r))

    monkeypatch.setattr(driver, "train_opinf", explosive)
    result = cmd_run_mono_opinf(cfg, out_dir=str(tmp_path), fom=small_fom,
                                lambda_grid=(0.0,))
    assert result.diverged
    assert list(result.grid_errors) == [np.inf]
    interior = result.nodal_states[small_fom.system.interior_map]
    finite = np.isfinite(result.nodal_states).all(axis=0)
    first = int(np.argmin(finite))
    assert 0 < first < interior.shape[1]
    assert finite[:first].all()
    assert np.isnan(interior[:, first:]).all()
    meta = matio.load_meta(os.path.join(str(tmp_path), "mono_meta.txt"))
    assert meta["diverged"] == "True"


def test_mono_is_driven_by_the_reference_traces():
    # Moving Dirichlet data: step k of the monolithic model takes the
    # boundary values at t_k, and its nodal boundary rows hold them.
    def moving(x, y, t):
        return np.sin(4.0 * t) * x * (1.0 - y)

    cfg = small_cfg(dirichlet=moving)
    fom = cmd_run_fom(cfg)
    result = cmd_run_mono_opinf(cfg, fom=fom, lambda_grid=(0.0,))
    system, params = fom.system, cfg.params()
    assert not result.diverged
    stepper = RomStepper(result.ops, cfg.dt)
    vhat = result.basis.Psi.T @ fom.trajectory.states[:, 0]
    for j, t in enumerate(result.times):
        g = boundary_values(system, params, t)
        if j > 0:
            vhat = stepper.step(vhat, g)
        np.testing.assert_array_equal(
            result.nodal_states[system.boundary_map, j], g)
        np.testing.assert_allclose(
            result.nodal_states[system.interior_map, j],
            result.basis.Psi @ vhat, rtol=0, atol=1e-12)


def test_field_time_not_on_grid_is_rejected(tmp_path):
    cfg = small_cfg(field_times=[0.015])  # between dt multiples
    with pytest.raises(ConfigurationError, match="not on the dt"):
        cmd_run_schwarz(cfg, out_dir=str(tmp_path))


def test_schwarz_field_export_times(tmp_path):
    cfg = small_cfg(field_times=[0.25, 0.5])
    run = cmd_run_schwarz(cfg, out_dir=str(tmp_path))
    assert os.path.exists(str(tmp_path / "schwarz_field_t0.25.csv"))
    assert os.path.exists(str(tmp_path / "schwarz_field_t0.5.csv"))
    assert_field_files_hold(cfg, str(tmp_path), "schwarz", run)


# ---------------------------------------------------------------------------
# Command line interface


@pytest.fixture(scope="module")
def cli_cfg(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "exp.cfg"
    path.write_text(SMALL_CFG_TEXT)
    return str(path)


def test_cli_run_fom(cli_cfg, tmp_path, capsys):
    code = cli.main(["run-fom", "--config", cli_cfg, "--out", str(tmp_path),
                     "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "monolithic reference" in out
    assert os.path.exists(str(tmp_path / "fom_states.bin"))


def test_cli_run_schwarz(cli_cfg, tmp_path, capsys):
    code = cli.main(["run-schwarz", "--config", cli_cfg,
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "all-FE coupled run" in out and "all converged" in out


def test_cli_train_then_hybrid(cli_cfg, tmp_path, capsys):
    out_dir = str(tmp_path)
    assert cli.main(["train", "--config", cli_cfg, "--out", out_dir]) == 0
    text = capsys.readouterr().out
    assert "subdomain 1: r=6, lambda=0" in text
    assert "subdomain 3: r=6" in text
    assert os.path.exists(os.path.join(out_dir, "sub2_khat.bin"))

    assert cli.main(["run-hybrid", "--config", cli_cfg,
                     "--out", out_dir]) == 0
    assert "hybrid coupled run" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out_dir, "hybrid_field_t0.5.csv"))


def test_cli_hybrid_refuses_operators_trained_for_another_epsilon(
        cli_cfg, tmp_path, capsys):
    out_dir = str(tmp_path)
    assert cli.main(["train", "--config", cli_cfg, "--out", out_dir]) == 0
    other = write_cfg(tmp_path, SMALL_CFG_TEXT + "problem.epsilon = 0.02\n",
                      name="other.cfg")
    capsys.readouterr()
    assert cli.main(["run-hybrid", "--config", other, "--out", out_dir]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err and "retrain" in err
    assert not os.path.exists(os.path.join(out_dir, "hybrid_field_t0.5.csv"))


def test_cli_mono_with_grid_override(cli_cfg, tmp_path, capsys):
    code = cli.main(["run-mono-opinf", "--config", cli_cfg,
                     "--out", str(tmp_path), "--lambda-grid", "0,1e-4,1e-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "monolithic reduced model" in out and "grid of 3" in out
    meta = matio.load_meta(str(tmp_path / "mono_meta.txt"))
    assert meta["grid"] == "0,0.0001,0.01"


def test_cli_compare(cli_cfg, tmp_path, capsys):
    code = cli.main(["compare", "--config", cli_cfg, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "all-fe-dd" in out and "mono-opinf" in out
    assert os.path.exists(str(tmp_path / "comparison.csv"))


def test_cli_default_config_is_accepted(capsys):
    # No --config: the built-in experiment; an impossible lambda grid is
    # caught during argument processing, before any expensive work starts.
    code = cli.main(["run-fom", "--lambda-grid", "not,numbers"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.epsilon = -1\n")
    code = cli.main(["run-fom", "--config", str(bad)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err

    assert cli.main(["run-fom", "--config",
                     str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()

    for line in ("problem.dt = nan", "problem.dt = 0", "mesh.nx = 1e400"):
        bad.write_text(line + "\n")
        assert cli.main(["run-fom", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_cli_empty_lambda_grid_rejected(capsys):
    assert cli.main(["run-mono-opinf", "--lambda-grid", ","]) == 2
    assert "lambda grid" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("""
problem.t_end = 0.02
problem.dt = 0.01
problem.forcing = constant:inf
training.t_end = 0.02
mesh.nx = 4
mesh.ny = 4
decomposition.overlap = 0.5
""")
    code = cli.main(["run-schwarz", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


CAPPED_CFG_TEXT = """
problem.t_end = 0.1
problem.dt = 0.01
mesh.nx = 10
mesh.ny = 10
decomposition.overlap = 0.2
schwarz.max_iters = 1
training.t_end = 0.1
training.r = 4
mono.r = 4
"""


@pytest.mark.parametrize("command, label, prefix", [
    ("run-schwarz", "all-FE coupled run", "schwarz"),
    ("run-hybrid", "hybrid coupled run", "hybrid"),
])
def test_cli_unconverged_coupled_run_exits_3(tmp_path, capsys, command,
                                             label, prefix):
    cfg = write_cfg(tmp_path, CAPPED_CFG_TEXT)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    # The summary and the outputs come first, as for a converged run.
    assert label in captured.out and "NOT ALL CONVERGED" in captured.out
    assert "windows by sweeps 1/2/3/4/5+: 10/0/0/0/0" in captured.out
    assert (out / f"{prefix}_field_t0.1.csv").exists()
    assert ("numerical failure: coupled window 1 of 10 (ending at t=0.01) "
            "did not converge within max_iters = 1") in captured.err


def test_cli_compare_names_unconverged_coupled_models(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CAPPED_CFG_TEXT)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "all-fe-dd" in captured.out
    assert (out / "comparison.csv").exists()
    assert ("numerical failure: coupled model(s) all-fe-dd, hybrid-dd did "
            "not converge") in captured.err
    assert "mono-opinf" not in captured.err


def test_iteration_summary_counts_windows_by_sweeps():
    class Run:
        iterations = np.array([1, 2, 2, 5, 9, 3, 1])
        converged = True

    text = cli._iteration_summary(Run())
    assert "windows 7" in text and "max 9" in text
    assert "windows by sweeps 1/2/3/4/5+: 2/2/1/0/2" in text
    assert text.endswith("all converged")


def test_train_meta_records_khat_stability(tmp_path):
    out = str(tmp_path)
    result = cmd_train(small_cfg(), out_dir=out)
    for i, item in result.trained.items():
        tag = f"sub{i + 1}"
        khat = matio.load_matrix(os.path.join(out, f"{tag}_khat.bin"))
        meta = matio.load_meta(os.path.join(out, f"{tag}_meta.txt"))
        value = float(meta["max_re_eig_khat"])
        assert value == float(np.max(np.linalg.eigvals(khat).real))
        assert value == item.max_re_eig_khat
        assert value < 0.0
    # The new key is not part of the fingerprint check.
    assert sorted(load_trained(small_cfg(), out)) == [0, 1, 2]


UNCONVERGED_TRAINING_CFG_TEXT = """
mesh.nx = 10
mesh.ny = 10
problem.t_end = 0.1
training.t_end = 0.1
problem.dt = 0.01
decomposition.overlap = 0.2
schwarz.max_iters = 1
"""


@pytest.mark.parametrize("command", ["train", "run-hybrid"])
def test_cli_training_from_unconverged_data_run_exits_3(tmp_path, capsys,
                                                        command):
    cfg = write_cfg(tmp_path, UNCONVERGED_TRAINING_CFG_TEXT)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    # The operators are written first, as for a converged data run.
    assert (out / "sub3_khat.bin").exists()
    assert (out / "sub3_meta.txt").exists()
    assert ("numerical failure: training data run: coupled window 1 of 10 "
            "(ending at t=0.01) did not converge within max_iters = 1"
            ) in captured.err


def test_train_meta_reports_fit_diagnostics(tmp_path):
    # Rebuild each fit's data matrix D = [Y^T G^T 1] from the data run and
    # check the reported shape, rank, cutoff margin and residual against an
    # independent SVD; the operators are still lstsq's minimum-norm answer.
    cfg = small_cfg()
    out = str(tmp_path)
    result = cmd_train(cfg, out_dir=out)
    for i, item in result.trained.items():
        traj = result.run.trajectories[i]
        Y = item.basis.Psi.T @ traj.states
        Ydot = time_derivatives(Y, cfg.dt)[:, 1:-1]
        data = np.hstack([Y[:, 1:-1].T, traj.boundary_traces[:, 1:-1].T,
                          np.ones((Y.shape[1] - 2, 1))])
        ops = np.linalg.lstsq(data, Ydot.T, rcond=LSTSQ_RCOND)[0]
        np.testing.assert_array_equal(item.ops.Khat, ops[:Y.shape[0]].T)
        svals = np.linalg.svd(data, compute_uv=False)
        rank = int(np.count_nonzero(svals > LSTSQ_RCOND * svals[0]))
        meta = matio.load_meta(os.path.join(out, f"sub{i + 1}_meta.txt"))
        assert meta["fit_data_shape"] == f"{data.shape[0]}x{data.shape[1]}"
        assert int(meta["fit_rank"]) == rank == item.ops.fit.rank
        assert rank < data.shape[1]
        assert float(meta["fit_min_kept_sval_over_cutoff"]) == pytest.approx(
            svals[rank - 1] / (LSTSQ_RCOND * svals[0]), rel=1e-6)
        residual = (np.linalg.norm(data @ ops - Ydot.T)
                    / np.linalg.norm(Ydot.T))
        assert float(meta["fit_residual"]) == pytest.approx(residual,
                                                            rel=1e-6)
        assert "fit" not in meta["fingerprint"]
    assert sorted(load_trained(cfg, out)) == [0, 1, 2]


@pytest.mark.parametrize("mono_r", [2, 8])
def test_mono_grid_errors_match_full_space_formula(mono_r):
    # Each candidate's training-window error, scored in reduced coordinates,
    # against stepping, lifting and measuring it in the full space. At rank
    # 2 the snapshots' distance from the POD space is about 1.6% of their
    # norm, so the projection residual is a visible part of every error.
    cfg = small_cfg(mono_r=mono_r)
    fom = cmd_run_fom(cfg)
    mono = cmd_run_mono_opinf(cfg, fom=fom)
    n_train = round(cfg.training_t_end / cfg.dt) + 1
    states = fom.trajectory.states[:, :n_train]
    traces = fom.trajectory.boundary_traces[:, :n_train]
    want = []
    for lam in mono.grid:
        ops = train_opinf(mono.basis, states, traces, cfg.dt, lam)
        stepper = RomStepper(ops, cfg.dt)
        vhat = mono.basis.Psi.T @ states[:, 0]
        lifted = [mono.basis.Psi @ vhat]
        for j in range(1, n_train):
            vhat = stepper.step(vhat, traces[:, j])
            lifted.append(mono.basis.Psi @ vhat)
        lifted = np.column_stack(lifted)
        want.append(error_metric(lifted, states)
                    if np.isfinite(lifted).all() else np.inf)
    want = np.array(want)
    assert np.isfinite(want).sum() > 1
    np.testing.assert_allclose(mono.grid_errors, want, rtol=1e-10, atol=0)
    assert want[np.argmin(mono.grid_errors)] <= want.min() * (1.0 + 1e-10)
