"""Configuration files, persistence, the error metric, pipeline commands,
and the command line interface."""

import math
import os
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cdrschwarz import cli, config, driver, kernels, matio, schwarz
from cdrschwarz.config import (RunConfig, corner_source, parse_config)
from cdrschwarz.driver import (DEFAULT_LAMBDA_GRID, cmd_compare, cmd_run_fom,
                               cmd_run_hybrid, cmd_run_mono_opinf,
                               cmd_run_schwarz, cmd_train, error_metric,
                               error_metric_detail, hybrid_operators,
                               load_trained)
from cdrschwarz.errors import ConfigurationError, FormatError
from cdrschwarz.fem import boundary_values, time_independent
from cdrschwarz.mesh import Rect, build_mesh
from cdrschwarz.rom import (LSTSQ_RCOND, RomStepper, time_derivatives,
                            train_opinf)
from cdrschwarz.timestep import ImplicitEulerStepper, Trajectory

from conftest import (held, nodal_history, reference_history, small_cfg,
                      stitched_whole)

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
    ("problem.forcing = constant:nan\n", "expected a finite number"),
    ("problem.dirichlet = constant:inf\n", "expected a finite number"),
    ("schwarz.tol = -1\n", "tolerance must be > 0"),
    ("schwarz.max_iters = 0\n", "max_iters must be >= 1"),
    ("schwarz.steps_per_window = 3\n", "integer number of steps"),
    ("output.field_times = 0.0025\n", "integer number of steps"),
    ("mono.r = 5000\n", r"POD rank mono\.r = 5000 must be in \[1, 101\]"),
    ("mono.r = 0\n", r"POD rank mono\.r = 0"),
    ("training.r = 20\ntraining.t_end = 0.05\n",
     r"POD rank r of subdomain 1 = 20 must be in \[1, 11\]"),
    ("subdomain.2.r = 700\n",
     r"subdomain 2 = 700 .*101 training snapshots, 676 interior nodes"),
    ("subdomain.5.r = 3\n", r"subdomain\.5\.\* is given.* 4 subdomains"),
    ("subdomain.1.rect = 0,0.6,0,0.6\n",
     r"subdomain\.1\.rect applies to decomposition\.layout = custom only"),
    ("decomposition.count = 4\n",
     r"decomposition\.count applies to decomposition\.layout = custom"),
    ("decomposition.layout = custom\ndecomposition.count = 1\n"
     "subdomain.1.rect = 0,1,0,1\ndecomposition.split = 0.4\n",
     r"decomposition\.split applies to decomposition\.layout = quadrants"),
    ("decomposition.overlap = 0.1\ndecomposition.layout = custom\n"
     "decomposition.count = 1\nsubdomain.1.rect = 0,1,0,1\n",
     r"decomposition\.overlap .* quadrants only, not custom"),
])
def test_config_rejections(tmp_path, text, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("text,line", [
    ("problem.sigma = 1\nproblem.epsilon = abc\n", 2),
    ("\n# comment\nsubdomain.1.rect = 0,1,0\n", 3),
    ("subdomain.1.rect = 0,0,0,1\n", 1),
    ("subdomain.0.nx = 5\n", 1),
    ("mesh.nx = 10\n\nmesh.h = 0.3\n", 3),
    ("problem.bx = 1\nproblem.b_angle_degrees = 30\nproblem.by = 0\n", 3),
    ("output.field_times = 1, x\n", 1),
    ("mesh.nx = 10\nsubdomain.1.rect = 0,0.6,0,0.6\n", 2),
    ("\ndecomposition.count = 4\n", 2),
    ("decomposition.layout = custom\ndecomposition.count = 1\n"
     "subdomain.1.rect = 0,1,0,1\ndecomposition.split = 0.4\n", 4),
    ("decomposition.overlap = 0.1\ndecomposition.layout = custom\n"
     "decomposition.count = 1\nsubdomain.1.rect = 0,1,0,1\n", 1),
])
def test_config_parse_errors_name_file_and_line(tmp_path, text, line):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigurationError) as caught:
        parse_config(path)
    assert str(caught.value).startswith(f"{path}:{line}: ")


def test_readme_config_table_lists_every_key(tmp_path):
    # One key per row of the table under "## Configuration file".
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("## Configuration file")[1]
    cells = [line.split("|")[1].strip()
             for line in section.split("\n## ")[0].splitlines()
             if line.startswith("| `")]
    assert all(re.fullmatch(r"`[^`]+`", c) for c in cells), cells
    keys = sorted(c.strip("`") for c in cells)
    assert keys == sorted(config._KEYS)
    for key in keys:  # every row is accepted, whatever its value
        try:
            parse_config(write_cfg(tmp_path, f"{key.replace('<k>', '1')} "
                                             f"= ?\n"))
        except ConfigurationError as exc:
            assert "unknown key" not in str(exc)


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


def test_matrix_written_a_block_at_a_time(tmp_path):
    # A wide C-ordered array is written a block of columns at a time: the
    # file holds the whole array's column-major bytes, and no copy much
    # larger than one block is made.
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((300, 20 * matio.BLOCK_COLUMNS + 5))
    path = str(tmp_path / "wide.bin")
    tracemalloc.start()
    try:
        matio.save_matrix(path, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * matrix.shape[0] * matio.BLOCK_COLUMNS
    payload = open(path, "rb").read()[matio._HEADER.size:]
    assert payload == np.asfortranarray(matrix).tobytes(order="F")
    assert np.array_equal(matio.load_matrix(path), matrix)
    # Strided, Fortran-ordered and column-free inputs round-trip too.
    for other in (matrix[:, ::3], np.asfortranarray(matrix[:7]),
                  np.zeros((3, 0))):
        matio.save_matrix(path, other)
        loaded = matio.load_matrix(path)
        assert loaded.shape == other.shape
        assert np.array_equal(loaded, other)


def test_matrix_bytes_do_not_depend_on_layout(tmp_path):
    # Row-major, column-major and strided arrays of the same values write
    # the same bytes. A row-major one is copied a block of columns at a
    # time; a column-major one is written from its own memory.
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((300, 3 * matio.BLOCK_COLUMNS + 9))
    block = 8 * matrix.shape[0] * matio.BLOCK_COLUMNS
    written, peaks = [], []
    for k, layout in enumerate((matrix, np.asfortranarray(matrix),
                                np.repeat(matrix, 2, axis=1)[:, ::2])):
        path = str(tmp_path / f"m{k}.bin")
        tracemalloc.start()
        try:
            matio.save_matrix(path, layout)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        written.append(open(path, "rb").read())
    assert written[0] == written[1] == written[2]
    assert peaks[0] >= block and peaks[1] < block // 8


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


def test_field_csv_bytes_match_savetxt(tmp_path):
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 2, 1)
    field = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -1.0 / 3.0])
    path = tmp_path / "f.csv"
    matio.export_field_csv(str(path), mesh, field)
    np.savetxt(tmp_path / "g.csv", np.column_stack((mesh.coords, field)),
               fmt="%.17g", delimiter=",", header="x,y,u", comments="")
    assert path.read_bytes() == (tmp_path / "g.csv").read_bytes()


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
    assert error_metric(held(ref), held(ref)) == 0.0
    value = error_metric(held(1.01 * ref), held(ref))
    np.testing.assert_allclose(value, 0.01, rtol=1e-12)


def test_error_metric_absolute_fallback_and_skips():
    zeros = np.zeros((10, 4))
    model = np.full((10, 4), 0.5)
    value, used_absolute, n_skipped = error_metric_detail(held(model),
                                                          held(zeros))
    assert used_absolute and n_skipped == 4
    np.testing.assert_allclose(value, np.linalg.norm(model[:, 0]))

    # A single degenerate column is skipped, not averaged in.
    ref = np.ones((10, 4))
    ref[:, 0] = 0.0
    value, used_absolute, n_skipped = error_metric_detail(held(ref * 1.01),
                                                          held(ref))
    assert not used_absolute and n_skipped == 1
    np.testing.assert_allclose(value, 0.01, rtol=1e-12)


def test_error_metric_input_forms():
    # A reference merged on demand from its states and traces scores as the
    # whole merged array does; histories of another shape or time grid are
    # rejected.
    times = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(2)
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 2, 2)
    owner = SimpleNamespace(mesh=mesh, interior_map=mesh.interior_node_ids,
                            boundary_map=mesh.boundary_node_ids)
    traj = Trajectory(times=times, states=rng.standard_normal((1, 5)) + 3.0,
                      boundary_traces=rng.standard_normal((8, 5)) + 3.0)
    merged = driver.NodalHistory.merged(owner, traj)
    whole = nodal_history(owner, traj)
    np.testing.assert_array_equal(merged.columns(0, 5), whole)
    np.testing.assert_array_equal(merged.column(-1), whole[:, -1])
    assert error_metric(merged, held(whole, times)) == 0.0
    with pytest.raises(ConfigurationError, match="shapes differ"):
        error_metric(held(whole[:, :4], times[:4]), merged)
    with pytest.raises(ConfigurationError, match="time grids differ"):
        error_metric(held(whole, times + 0.5), merged)


@pytest.mark.parametrize("n_times", [1, 2, 63, 64, 65, 129, 1001])
def test_blocked_norms_equal_whole_history_norms(n_times):
    rng = np.random.default_rng(n_times)
    model = rng.standard_normal((301, n_times)) * np.exp(
        4.0 * rng.standard_normal((301, n_times)))
    ref = rng.standard_normal((301, n_times))
    assert all(b - a <= driver.BLOCK_COLUMNS
               for a, b in driver.column_blocks(n_times))
    (diff,), norms = driver._column_norms([held(model)], held(ref))
    np.testing.assert_array_equal(diff, np.linalg.norm(model - ref, axis=0))
    np.testing.assert_array_equal(norms, np.linalg.norm(ref, axis=0))


def test_reference_norms_are_kept_from_the_first_score():
    # The reference's per-time norms are computed in its first score and
    # reused, bitwise, by every later one.
    rng = np.random.default_rng(5)
    ref, first, second = (rng.standard_normal((301, 129)) for _ in range(3))
    reference = held(ref)
    assert reference.norms is None
    _, norms = driver._column_norms([held(first)], reference)
    np.testing.assert_array_equal(norms, np.linalg.norm(ref, axis=0))
    assert reference.norms is norms
    (diff,), again = driver._column_norms([held(second)], reference)
    assert again is norms
    np.testing.assert_array_equal(diff, np.linalg.norm(second - ref, axis=0))


@pytest.mark.parametrize("case", ["finite", "nan", "inf", "overflow"])
def test_self_error_reads_only_times_of_non_finite_norm(case):
    # A scored history's self error is its score against itself (NaN for
    # NaN) and reads only the times whose kept norm is not finite: a NaN
    # entry's time is skipped by the score, an infinite entry makes its
    # time's error NaN, and finite entries whose squares overflow score 0.
    rng = np.random.default_rng(7)
    nodal = rng.standard_normal((40, 70)) + 2.0
    nodal[5:7, 3] = {"finite": 1.0, "nan": np.nan, "inf": np.inf,
                     "overflow": 1e200}[case]
    reads = []

    def read(key):
        reads.append(key)
        return nodal[:, key]

    history = driver.NodalHistory(np.arange(70.0), 40, read)
    with np.errstate(over="ignore", invalid="ignore"):
        error_metric_detail(held(nodal + 1.0), history)
        reads.clear()
        got = driver.self_error(history)
        want = error_metric(held(nodal), held(nodal))
    np.testing.assert_array_equal(got, want)
    if case == "inf":
        assert np.isnan(got)
    else:
        assert got == 0.0
    assert reads == ([] if case == "finite" else [3])
    # A history not scored yet is scored against itself.
    if case == "finite":
        assert driver.self_error(held(nodal)) == 0.0


# ---------------------------------------------------------------------------
# Pipeline commands (one shared small-scale study)


def compare_keeping(cfg, out):
    """``cmd_compare(cfg, out)``, keeping the all-FE run, the training
    result and the hybrid run it made."""
    runs = {}

    def keeping(name, command):
        def kept(*args, **kwargs):
            runs[name] = command(*args, **kwargs)
            return runs[name]
        return kept

    with pytest.MonkeyPatch.context() as mp:
        for prefix, name in (("schwarz", "cmd_run_schwarz"),
                             ("training", "cmd_train"),
                             ("hybrid", "cmd_run_hybrid")):
            mp.setattr(driver, name, keeping(prefix, getattr(driver, name)))
        report = cmd_compare(cfg, out_dir=out)
    return {"cfg": cfg, "out": out, "report": report, "runs": runs}


@pytest.fixture(scope="module")
def small_out(tmp_path_factory):
    return compare_keeping(small_cfg(),
                           str(tmp_path_factory.mktemp("small_out")))


def assert_field_files_hold(cfg, out_dir, prefix, run):
    """Each exported field file's ``u`` column is the matching column of the
    run's stitched history."""
    stitched = stitched_whole(run, driver.build_global_mesh(cfg))
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


@pytest.mark.parametrize("steps_per_window", [1, 2])
def test_compare_trains_what_train_trains(steps_per_window, small_out,
                                          tmp_path):
    # At one step per window the data run is the all-FE run's first 20
    # windows, shared; at two it is computed, as train computes it. The
    # operators are bitwise the same either way.
    study = (small_out if steps_per_window == 1 else compare_keeping(
        small_cfg(steps_per_window=2), str(tmp_path / "compare")))
    cfg, runs, report = study["cfg"], study["runs"], study["report"]
    training, all_fe = runs["training"], runs["schwarz"]
    assert report.training_run is training.run
    shared = steps_per_window == 1
    assert np.shares_memory(training.run.coordinates,
                            all_fe.coordinates) == shared
    assert (training.timings["data_run_seconds"] == 0.0) == shared
    note = ("hybrid training data: the first 20 windows of all-fe-dd"
            if shared else "hybrid training data: a data run of its own, "
                           "20 windows of one step")
    assert report.models[1].note == note
    for text in (report.to_text(),
                 open(os.path.join(study["out"], "comparison.txt")).read()):
        assert f"note: {note}\n" in text
    assert "note" not in open(os.path.join(study["out"],
                                           "comparison.csv")).read()

    out = str(tmp_path / "train")
    alone = cmd_train(cfg, out_dir=out)
    assert not np.shares_memory(alone.run.coordinates, all_fe.coordinates)
    assert sorted(alone.trained) == sorted(training.trained) == [0, 1, 2]
    for i, item in alone.trained.items():
        kept = training.trained[i]
        assert np.array_equal(item.basis.Psi, kept.basis.Psi)
        for name in ("Khat", "Bhat", "fhat"):
            assert np.array_equal(getattr(item.ops, name),
                                  getattr(kept.ops, name)), name
    files = sorted(f for f in os.listdir(out) if f.startswith("sub"))
    assert len(files) == 18
    for name in files:
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(study["out"], name), "rb") as b:
            assert a.read() == b.read(), name


def test_default_training_data_are_the_all_fe_runs_first_windows(study,
                                                                  tmp_path):
    # The default study's all-FE run holds its training data run: trained
    # from its first windows, the operators and their files are bitwise
    # those of a data run computed on its own.
    cfg, all_fe = study["cfg"], study["schwarz_run"]
    shared = cmd_train(cfg, out_dir=str(tmp_path / "shared"),
                       data_run=all_fe)
    alone = cmd_train(cfg, out_dir=str(tmp_path / "alone"))
    assert np.shares_memory(shared.run.coordinates, all_fe.coordinates)
    assert not np.shares_memory(alone.run.coordinates, all_fe.coordinates)
    assert np.array_equal(shared.run.iterations, alone.run.iterations)
    for i, item in alone.trained.items():
        for name in ("Khat", "Bhat", "fhat"):
            assert np.array_equal(getattr(item.ops, name),
                                  getattr(shared.trained[i].ops, name))
    names = sorted(os.listdir(tmp_path / "alone"))
    assert names == sorted(os.listdir(tmp_path / "shared"))
    for name in names:
        assert ((tmp_path / "alone" / name).read_bytes()
                == (tmp_path / "shared" / name).read_bytes()), name


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


def test_compare_stitches_a_block_at_a_time(tmp_path, monkeypatch):
    cfg = small_cfg(t_end=1.0)
    n_times = round(cfg.t_end / cfg.dt) + 1
    assert n_times > driver.BLOCK_COLUMNS
    widths, runs = [], {}
    apply = schwarz.StitchPlan.apply

    def recording_apply(self, coordinates):
        widths.append(np.shape(coordinates)[1:])
        return apply(self, coordinates)

    def keeping(name, command):
        def kept(*args, **kwargs):
            runs[name] = command(*args, **kwargs)
            return runs[name]
        return kept

    monkeypatch.setattr(schwarz.StitchPlan, "apply", recording_apply)
    for name in ("cmd_run_fom", "cmd_run_schwarz", "cmd_run_hybrid"):
        monkeypatch.setattr(driver, name, keeping(name, getattr(driver, name)))
    report = cmd_compare(cfg, out_dir=str(tmp_path))
    # Field files take single columns; each run's error takes every column
    # once, in blocks of at most BLOCK_COLUMNS.
    assert widths.count(()) == 2 * len(cfg.resolved_field_times())
    assert all(w == () or w[0] <= driver.BLOCK_COLUMNS for w in widths)
    assert sum(w[0] for w in widths if w) == 2 * n_times

    # The blocked errors equal those of the whole stitched histories.
    gm = driver.build_global_mesh(cfg)
    fom = runs["cmd_run_fom"]
    ref = reference_history(fom)
    for model, name in zip(report.models, ("cmd_run_schwarz",
                                           "cmd_run_hybrid")):
        run = runs[name]
        whole = held(stitched_whole(run, gm), run.times)
        assert model.error == error_metric_detail(whole, ref)[0]


def test_compare_reads_the_reference_a_block_at_a_time(tmp_path,
                                                      monkeypatch):
    # The reference is never held as a nodal copy: every read of it merges
    # at most BLOCK_COLUMNS columns of its states and traces, bitwise the
    # whole merge's, and the one scoring pass reads every column once for
    # all three models.
    cfg = small_cfg(t_end=1.0)
    n_times = round(cfg.t_end / cfg.dt) + 1
    assert n_times > driver.BLOCK_COLUMNS
    merged = driver.NodalHistory.merged
    reads = []

    def recording_merged(system, trajectory, basis=None):
        history = merged(system, trajectory, basis)
        if basis is not None:   # mono, lifted from its reduced march
            return history
        whole = nodal_history(system, trajectory)
        column, columns = history.column, history.columns

        def read_column(j):
            got = column(j)
            k = range(n_times)[j]
            reads.append((range(k, k + 1), got, whole[:, j]))
            return got

        def read_columns(a, b):
            got = columns(a, b)
            reads.append((range(a, b), got, whole[:, a:b]))
            return got

        history.column, history.columns = read_column, read_columns
        return history

    monkeypatch.setattr(driver.NodalHistory, "merged",
                        staticmethod(recording_merged))
    cmd_compare(cfg, out_dir=str(tmp_path))
    assert reads
    for span, got, want in reads:
        assert len(span) <= driver.BLOCK_COLUMNS
        np.testing.assert_array_equal(got, want)
    # One scoring pass, plus the final field; the self error, taken from
    # the kept norms of a finite reference, reads nothing.
    counts = np.zeros(n_times, dtype=int)
    for span, _, _ in reads:
        counts[span.start:span.stop] += 1
    assert counts[:-1].tolist() == [1] * (n_times - 1)
    assert counts[-1] == 2


@pytest.mark.parametrize("mono_diverges", [False, True],
                         ids=["mono-stable", "mono-diverged"])
def test_compare_scores_each_model_as_alone(monkeypatch, mono_diverges):
    # The one scoring pass gives each model bitwise its own
    # error_metric_detail against the reference; a diverged mono is
    # reported as an infinite relative error and not scored.
    cfg = small_cfg()
    runs = {}

    def keeping(name, command):
        def kept(*args, **kwargs):
            runs[name] = command(*args, **kwargs)
            return runs[name]
        return kept

    for name in ("cmd_run_fom", "cmd_run_schwarz", "cmd_run_hybrid",
                 "cmd_run_mono_opinf"):
        monkeypatch.setattr(driver, name, keeping(name, getattr(driver, name)))
    if mono_diverges:
        fit = driver.train_opinf

        def explosive(basis, states, traces, dt, lams):
            # Only the monolithic model, of rank mono.r, explodes.
            fits = fit(basis, states, traces, dt, lams)
            if basis.r != cfg.mono_r:
                return fits
            return [replace(ops, Khat=(1.0 - 1e-10) / dt * np.eye(ops.r))
                    for ops in fits]

        monkeypatch.setattr(driver, "train_opinf", explosive)
    report = cmd_compare(cfg, lambda_grid=(0.0,))
    mono = runs["cmd_run_mono_opinf"]
    assert mono.diverged == mono_diverges
    gm = driver.build_global_mesh(cfg)
    ref = reference_history(runs["cmd_run_fom"])
    want = [error_metric_detail(driver.NodalHistory.stitched(runs[name], gm),
                                ref)[:2]
            for name in ("cmd_run_schwarz", "cmd_run_hybrid")]
    want.append((float("inf"), False) if mono_diverges
                else error_metric_detail(mono.history(), ref)[:2])
    assert [(m.error, m.error_is_absolute) for m in report.models] == want
    assert all(np.isfinite(m.error) for m in report.models[:2])


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


STRIPS_CFG_TEXT = """
decomposition.layout = custom
decomposition.count = 4
subdomain.1.rect = 0.0,0.30,0,1
subdomain.2.rect = 0.22,0.54,0,1
subdomain.3.rect = 0.46,0.78,0,1
subdomain.4.rect = 0.70,1.0,0,1
"""


def test_run_hybrid_refuses_operators_of_another_training_run(tmp_path,
                                                               capsys):
    # The training data come from a coupled run over every subdomain, so
    # the operators depend on its tolerance, sweep limit and horizon and on
    # every subdomain's rectangle and mesh, not only on their own.
    for base, changes in (
            ("", ("schwarz.tol = 1e-6", "schwarz.max_iters = 40",
                  "training.t_end = 0.4",
                  "subdomain.4.nx = 54\nsubdomain.4.ny = 54")),
            (STRIPS_CFG_TEXT, ("subdomain.4.rect = 0.72,1.0,0,1",))):
        out = str(tmp_path / f"out{len(base)}")
        assert cli.main(["train", "--config", write_cfg(tmp_path, base),
                         "--out", out]) == 0
        for change in changes:
            text = base.replace("subdomain.4.rect = 0.70,1.0,0,1", "") \
                + change + "\n"
            capsys.readouterr()
            assert cli.main(["run-hybrid", "--config",
                             write_cfg(tmp_path, text), "--out", out]) == 2
            err = capsys.readouterr().err
            assert "subdomain 1: " in err and "retrain" in err, change
        assert cli.main(["run-hybrid", "--config", write_cfg(tmp_path, base),
                         "--out", out]) == 0


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
    assert np.all(nodal_history(fom.system, fom.trajectory) == 0.0)
    ref = reference_history(fom)
    value, used_absolute, _ = error_metric_detail(ref, ref)
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
    # The note reads the count back from each OpenBLAS in the process, so
    # the environment's thread variables do not enter it.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    counts = kernels.blas_threads()
    note = driver._environment_note()
    assert "single-threaded" not in note
    if counts:
        assert note.endswith(f"BLAS threads: 1 in each of {len(counts)} "
                             f"OpenBLAS libraries")
    else:
        assert note.endswith("BLAS threads: no OpenBLAS found, "
                             "library default")
    monkeypatch.setattr(driver, "blas_threads", lambda: [])
    assert driver._environment_note().endswith(
        "BLAS threads: no OpenBLAS found, library default")
    monkeypatch.setattr(driver, "blas_threads", lambda: [1, 2])
    assert driver._environment_note().endswith(
        "BLAS threads: 1, 2 in 2 OpenBLAS libraries")


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
    assert result.nodal_states.shape == reference_history(small_fom).shape
    assert not result.diverged
    assert np.all(np.isfinite(result.nodal_states))


def test_mono_is_held_in_reduced_coordinates():
    # The march stays in reduced coordinates. Its nodal states, assembled
    # on demand, are bitwise the block-by-block lift merged with the
    # reference traces, and its error through the on-demand history is
    # bitwise that of the whole array.
    cfg = small_cfg(t_end=1.0)
    fom = cmd_run_fom(cfg)
    result = cmd_run_mono_opinf(cfg, fom=fom)
    system, reduced = fom.system, result.trajectory.states
    n_t = fom.trajectory.n_times
    assert n_t > driver.BLOCK_COLUMNS
    assert reduced.shape == (cfg.mono_r, n_t)
    want = np.empty((fom.mesh.n_nodes, n_t))
    for a, b in driver.column_blocks(n_t):
        want[system.interior_map, a:b] = result.basis.Psi @ reduced[:, a:b]
    want[system.boundary_map] = fom.trajectory.boundary_traces
    np.testing.assert_array_equal(result.nodal_states, want)
    assert error_metric_detail(result.history(), reference_history(fom)) \
        == error_metric_detail(held(want, fom.trajectory.times),
                               reference_history(fom))


def traced_peak(command):
    """``(result, bytes)``: ``command()`` and the peak of the memory it
    allocated, as traced by :mod:`tracemalloc`."""
    tracemalloc.start()
    try:
        result = command()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hybrid_and_mono_stages_lift_no_whole_history():
    # While the hybrid and mono stages run, the memory they allocate, less
    # the hybrid run's one record, stays below one whole lifted or nodal
    # history: reduced histories are never lifted whole.
    cfg = small_cfg(t_end=2.0)
    trained = cmd_train(cfg).trained
    fom = cmd_run_fom(cfg)
    run, peak = traced_peak(lambda: cmd_run_hybrid(cfg, trained=trained))
    lifted = 8 * run.times.shape[0] * sum(
        s.interior_map.shape[0] for s in run.solvers
        if isinstance(s, schwarz.RomSubdomainSolver))
    assert 0 < peak - run.coordinates.nbytes < lifted
    _, peak = traced_peak(lambda: cmd_run_mono_opinf(cfg, fom=fom))
    assert peak < 8 * fom.mesh.n_nodes * fom.trajectory.n_times


def test_mono_divergence_is_reported(small_fom, tmp_path, monkeypatch):
    # K = (1 - 1e-10)/dt I makes each implicit Euler step multiply the
    # state by 1e10, so the model overflows within a few dozen steps.
    cfg = small_cfg()
    fit = driver.train_opinf

    def explosive(basis, states, traces, dt, lams):
        return [replace(ops, Khat=(1.0 - 1e-10) / dt * np.eye(ops.r))
                for ops in fit(basis, states, traces, dt, lams)]

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


def test_reference_evaluates_marked_dirichlet_data_once():
    # Marked data are evaluated once, moving data once per time level, and
    # both give the same reference bitwise.
    calls = {"moving": 0, "marked": 0}

    def moving(x, y, t):
        calls["moving"] += 1
        return x * y

    @time_independent
    def marked(x, y, t):
        calls["marked"] += 1
        return x * y

    runs = [cmd_run_fom(small_cfg(dirichlet=g)) for g in (moving, marked)]
    assert calls == {"moving": runs[0].trajectory.n_times, "marked": 1}
    np.testing.assert_array_equal(
        *(nodal_history(r.system, r.trajectory) for r in runs))


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
    trace = boundary_values(system, params)
    nodal = result.nodal_states
    for j, t in enumerate(result.trajectory.times):
        g = trace(t)
        if j > 0:
            vhat = stepper.step(vhat, g)
        np.testing.assert_array_equal(nodal[system.boundary_map, j], g)
        np.testing.assert_allclose(
            nodal[system.interior_map, j],
            result.basis.Psi @ vhat, rtol=0, atol=1e-12)


def test_field_time_not_on_grid_is_rejected():
    # Validation rejects it, before any stage runs.
    with pytest.raises(ConfigurationError,
                       match=r"0\.015\] is not an integer number of steps"):
        small_cfg(field_times=[0.015])  # between dt multiples


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


@pytest.mark.parametrize("text", [
    "output.field_times = 0.0025\n",
    "schwarz.tol = -1\n",
    "schwarz.max_iters = 0\n",
    "schwarz.steps_per_window = 3\n",
    "mono.r = 5000\n",
    "training.r = 20\ntraining.t_end = 0.05\n",
    "subdomain.4.nx = 1\n",
    # Strips with a gap: a Schwarz-boundary node inside no other subdomain.
    "mesh.nx = 10\nmesh.ny = 10\ndecomposition.layout = custom\n"
    "decomposition.count = 2\nsubdomain.1.rect = 0,0.4,0,1\n"
    "subdomain.2.rect = 0.6,1,0,1\n",
    # Every Schwarz-boundary node has a donor, but the corner x > 0.7,
    # y > 0.6 is covered by no subdomain.
    "mesh.nx = 10\nmesh.ny = 10\ndecomposition.layout = custom\n"
    "decomposition.count = 2\nsubdomain.1.rect = 0,0.7,0,1\n"
    "subdomain.1.nx = 2\nsubdomain.1.ny = 2\nsubdomain.1.model = fe\n"
    "subdomain.2.rect = 0.2,1,0,0.6\nsubdomain.2.nx = 2\n"
    "subdomain.2.ny = 2\n",
])
def test_cli_compare_reports_config_errors_before_any_output(tmp_path, capsys,
                                                            text):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_empty_lambda_grid_rejected(capsys):
    assert cli.main(["run-mono-opinf", "--lambda-grid", ","]) == 2
    assert "lambda grid" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys, monkeypatch):
    def poisoned(self, v_n, g_next, t_next, g_prev):
        return np.full(v_n.shape, np.nan)

    monkeypatch.setattr(ImplicitEulerStepper, "step", poisoned)
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("""
problem.t_end = 0.02
problem.dt = 0.01
training.t_end = 0.02
training.r = 2
mono.r = 2
mesh.nx = 4
mesh.ny = 4
decomposition.overlap = 0.5
""")
    code = cli.main(["run-schwarz", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # Subdomains are numbered from 1, as in the config keys.
    assert "subdomain 1 produced a non-finite state" in err


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


def test_cli_compare_exits_3_when_only_the_training_data_run_stalls(
        tmp_path, capsys, monkeypatch):
    # Both coupled models converge, but the data run that trained the
    # hybrid's operators has an unconverged window: compare writes its
    # report, names that window as train does, and exits 3.
    train = driver.cmd_train

    def stalled(*args, **kwargs):
        result = train(*args, **kwargs)
        result.run.window_converged[2] = False
        return result

    monkeypatch.setattr(driver, "cmd_train", stalled)
    cfg = write_cfg(tmp_path, SMALL_CFG_TEXT)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    rows = {line.split(",")[0]: line.split(",")[1:] for line in
            (out / "comparison.csv").read_text().splitlines()}
    assert rows["converged"] == ["true", "true", "true"]
    assert ("numerical failure: training data run: coupled window 3 of 20 "
            "(ending at t=0.03) did not converge within max_iters = 50"
            ) in captured.err
    assert "coupled model(s)" not in captured.err


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
mono.r = 10
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
    # independent SVD. The operators are the filter-factor fit restated
    # here, bitwise, and lstsq's minimum-norm answer up to the rounding
    # these ill-posed fits amplify (largest difference measured: 1.5e-5 of
    # the largest entry).
    cfg = small_cfg()
    out = str(tmp_path)
    result = cmd_train(cfg, out_dir=out)
    for i, item in result.trained.items():
        traj = result.run.trajectories[i]
        Y = item.basis.Psi.T @ traj.states
        Ydot = time_derivatives(Y, cfg.dt)[:, 1:-1]
        data = np.hstack([Y[:, 1:-1].T, traj.boundary_traces[:, 1:-1].T,
                          np.ones((Y.shape[1] - 2, 1))])
        u, s, vt = np.linalg.svd(data, full_matrices=False)
        sigma = np.hypot(s, item.lam)
        kept = sigma > LSTSQ_RCOND * np.hypot(s[0], item.lam)
        f = np.zeros_like(s)
        f[kept] = (s[kept] / sigma[kept]) / sigma[kept]
        ops = vt.T @ (f[:, None] * (u.T @ Ydot.T))
        np.testing.assert_array_equal(item.ops.Khat, ops[:Y.shape[0]].T)
        want = np.linalg.lstsq(data, Ydot.T, rcond=LSTSQ_RCOND)[0]
        np.testing.assert_allclose(ops, want, rtol=0,
                                   atol=5e-5 * np.abs(want).max())
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
    for ops in train_opinf(mono.basis, states, traces, cfg.dt, mono.grid):
        stepper = RomStepper(ops, cfg.dt)
        vhat = mono.basis.Psi.T @ states[:, 0]
        lifted = [mono.basis.Psi @ vhat]
        for j in range(1, n_train):
            vhat = stepper.step(vhat, traces[:, j])
            lifted.append(mono.basis.Psi @ vhat)
        lifted = np.column_stack(lifted)
        want.append(error_metric(held(lifted), held(states))
                    if np.isfinite(lifted).all() else np.inf)
    want = np.array(want)
    assert np.isfinite(want).sum() > 1
    np.testing.assert_allclose(mono.grid_errors, want, rtol=1e-10, atol=0)
    assert want[np.argmin(mono.grid_errors)] <= want.min() * (1.0 + 1e-10)
