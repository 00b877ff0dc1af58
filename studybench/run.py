#!/usr/bin/env python3
"""Study benchmark of cdrschwarz: `compare` timed stage by stage.

Run from the repository root:

    python3 studybench/run.py --workload study-default --seed 1 \\
        --seconds 60 --trace 0

Each pass runs the package's full study (``driver.cmd_compare``: FE
reference, all-FE DD, training, hybrid DD, monolithic OpInf) on the
workload's configuration, with file output to a scratch directory, then
checks the pass's outputs (see ``checks.py``). Passes repeat until
``--seconds`` would be exceeded. Times come from spans recorded around calls
into the package (see ``tracer.py``), which runs unmodified and with its
BLAS threading left at the library default. ``--trace 0`` reports the
end-to-end metrics with only the stage boundaries, windows and time steps
patched. ``study_s`` and the stage times sum, over the segments between
consecutive span boundaries of a pass, each segment's fastest time across
passes (see ``fastest_stage_times``); the other times are medians over
passes. ``--trace 1`` patches every layer, reports per-layer self times and
counts as medians over passes, and writes the spans to
``.studybench/trace-<workload>-s<seed>.npz``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (counted in study passes) and ``metrics``.
The seed picks two of the times at which the study exports stitched
fields; the checks compare those files with the histories.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import SETUP_SPAN, Tracer, self_times, write_trace  # noqa: E402

#: Subprocess samples of package import plus config reading, per run.
IMPORT_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """One study configuration and the checks that must hold on it.

    ``lines`` are the config-file lines that differ from the defaults;
    ``nx``, ``t_end`` and ``dt`` restate the resulting grid for the checks.
    """

    name: str
    lines: tuple
    nx: int = 50
    t_end: float = 5.0
    dt: float = 5e-3
    steady: bool = False
    mono_gap: bool = False


STRIPS = ((0.0, 0.30), (0.22, 0.54), (0.46, 0.78), (0.70, 1.0))

WORKLOADS = {w.name: w for w in (
    Workload("study-default", (), steady=True, mono_gap=True),
    Workload("transient-fine",
             ("mesh.nx = 100", "mesh.ny = 100", "problem.t_end = 1"),
             nx=100, t_end=1.0),
    Workload("strips",
             ("decomposition.layout = custom", "decomposition.count = 4")
             + tuple(f"subdomain.{k + 1}.rect = {x0},{x1},0,1"
                     for k, (x0, x1) in enumerate(STRIPS)),
             steady=True, mono_gap=True),
)}

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("study_s", "s"), ("setup_s", "s"), ("allfe_sweeps", "count"),
    ("hybrid_sweeps", "count"), ("hybrid_err", "ratio"), ("peak_rss_mb", "MB"),
)

#: Stage times, in seconds, from each segment's fastest time like
#: ``study_s``. They are per-layer metrics: their spread between runs is
#: too wide to gate (README).
STAGES = ("driver.fom_solve_s", "driver.allfe_solve_s", "driver.train_s",
          "driver.hybrid_solve_s", "driver.mono_s", "driver.train_data_run_s")

#: Per-layer metrics: ``(name, unit, span name, field)``. ``field`` is
#: ``calls`` or ``self`` (self seconds).
LAYER_SPANS = (
    ("schwarz.gather_calls", "count", "schwarz.gather", "calls"),
    ("schwarz.gather_s", "s", "schwarz.gather", "self"),
    ("schwarz.rom_advance_calls", "count", "schwarz.rom_advance", "calls"),
    ("schwarz.rom_advance_s", "s", "schwarz.rom_advance", "self"),
    ("schwarz.fe_advance_calls", "count", "schwarz.fe_advance", "calls"),
    ("schwarz.fe_advance_s", "s", "schwarz.fe_advance", "self"),
    ("schwarz.restore_s", "s", "schwarz.restore", "self"),
    ("schwarz.window_s", "s", "schwarz.window", "self"),
    ("schwarz.lift_s", "s", "schwarz.lift", "self"),
    ("schwarz.setup_s", "s", SETUP_SPAN, "self"),
    ("schwarz.stitch_s", "s", "schwarz.stitch", "self"),
    ("kernels.check_calls", "count", "kernels.check", "calls"),
    ("kernels.check_s", "s", "kernels.check", "self"),
    ("kernels.csr_matvec_calls", "count", "kernels.csr_matvec", "calls"),
    ("kernels.csr_matvec_s", "s", "kernels.csr_matvec", "self"),
    ("timestep.step_calls", "count", "timestep.step", "calls"),
    ("timestep.step_s", "s", "timestep.step", "self"),
    ("timestep.factorize_s", "s", "timestep.factorize", "self"),
    ("fem.assemble_s", "s", "fem.assemble", "self"),
    ("mesh.interpolation_matrix_s", "s", "mesh.interpolation_matrix", "self"),
    ("fem.boundary_values_calls", "count", "fem.boundary_values", "calls"),
    ("fem.boundary_values_s", "s", "fem.boundary_values", "self"),
    ("rom.pod_calls", "count", "rom.pod", "calls"),
    ("rom.pod_s", "s", "rom.pod", "self"),
    ("rom.fit_calls", "count", "rom.fit", "calls"),
    ("rom.fit_s", "s", "rom.fit", "self"),
    ("rom.step_calls", "count", "rom.step", "calls"),
    ("rom.step_s", "s", "rom.step", "self"),
    ("driver.error_metric_s", "s", "driver.error_metric", "self"),
    ("driver.export_s", "s", "driver.export", "self"),
)

#: Per-layer metrics counted by the tracer rather than read from spans.
LAYER_OTHER = (
    ("schwarz.one_sweep_windows", "count"),
    ("matio.bytes_written", "bytes"),
)

PER_LAYER = (tuple((n, "s") for n in STAGES)
             + tuple((n, u) for n, u, _, _ in LAYER_SPANS) + LAYER_OTHER)


# ---------------------------------------------------------------------------
# Loading the package from the checkout
# ---------------------------------------------------------------------------

class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_package(root):
    """Import ``cdrschwarz`` from ``<root>/src``, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cdrschwarz", "__init__.py")):
        raise SetupError(f"no cdrschwarz package under {src}")
    sys.path.insert(0, src)
    import cdrschwarz
    # The submodules the tracer patches, bound as package attributes.
    from cdrschwarz import config, driver, kernels, matio, mesh  # noqa: F401
    from cdrschwarz import rom, schwarz, timestep  # noqa: F401
    if not os.path.abspath(cdrschwarz.__file__).startswith(src + os.sep):
        raise SetupError(f"cdrschwarz imported from {cdrschwarz.__file__}")
    return cdrschwarz


_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cdrschwarz.config import parse_config
parse_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def import_seconds(root, cfg_path):
    """Package import plus config reading, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, os.path.join(root, "src"),
         cfg_path], capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# One study pass
# ---------------------------------------------------------------------------

def write_config(workload, seed, path):
    """Workload config plus two seed-picked export times and the final one."""
    n_steps = int(round(workload.t_end / workload.dt))
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(np.arange(1, n_steps), size=2, replace=False))
    steps = [int(j) for j in picks] + [n_steps]
    times = ",".join(repr(j * workload.dt) for j in steps)
    with open(path, "w", encoding="utf-8") as handle:
        for line in workload.lines + (f"output.field_times = {times}",):
            handle.write(line + "\n")
    return steps


def _stitched(run, nx):
    pieces = []
    for spec, traj in zip(run.config.subdomains, run.trajectories):
        r = spec.rect
        hist = checks.nodal(spec.nx, spec.ny, traj.states,
                            traj.boundary_traces)
        pieces.append(((r.x0, r.x1, r.y0, r.y1), spec.nx, spec.ny, hist))
    return checks.stitch(nx, nx, pieces)


def _read_field(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=2, ndmin=1)


def collect_outputs(workload, results, out_dir, steps, dt):
    """Gather a pass's histories and exported fields for :mod:`checks`."""
    fom = results["driver.run_fom"]
    nx = workload.nx
    traj = fom.trajectory
    exports = {("reference", steps[-1]):
               _read_field(os.path.join(out_dir, "fom_field_final.csv"))}
    for kind in ("schwarz", "hybrid"):
        for j in steps:
            name = f"{kind}_field_t{j * dt:g}.csv"
            exports[(kind, j)] = _read_field(os.path.join(out_dir, name))
    runs = {}
    for name, key in (("all-fe", "driver.run_schwarz"),
                      ("hybrid", "driver.run_hybrid")):
        run = results[key]
        runs[name] = (run.window_converged, run.iterations)
    training = results["driver.train"].run
    runs["training"] = (training.window_converged, training.iterations)
    return checks.StudyOutputs(
        nx=nx, ny=nx, dt=dt,
        reference=checks.nodal(nx, nx, traj.states, traj.boundary_traces),
        allfe=_stitched(results["driver.run_schwarz"], nx),
        hybrid=_stitched(results["driver.run_hybrid"], nx),
        mono=results["driver.run_mono_opinf"].nodal_states,
        runs=runs, exports=exports)


def stage_intervals(names, starts, ends, parents):
    """The intervals of one pass that make up the pass and each stage.

    Each value is a list of ``(sign, start, end)``. ``setup`` is the part
    before the reference's first time step plus each coupled run's set-up
    up to its first window; a coupled solve is its run minus that set-up.
    """
    def span(k, sign=1):
        return (sign, starts[k], ends[k])

    def pick(name, parent=None):
        for k in np.flatnonzero(names == name):
            if parent is None or (parents[k] >= 0
                                  and names[parents[k]] == parent):
                return k
        raise KeyError(f"no {name} span under {parent}")

    def coupled_solve(stage):
        k = pick("schwarz.run_coupled", stage)
        setup = np.flatnonzero((parents == k) & (names == SETUP_SPAN))
        return [span(k)] + [span(j, -1) for j in setup]

    compare = pick("driver.compare")
    integrate = pick("timestep.integrate", "driver.run_fom")
    return {
        "study_s": [span(compare)],
        "setup": ([(1, starts[compare], starts[integrate])]
                  + [span(j) for j in np.flatnonzero(names == SETUP_SPAN)]),
        "driver.fom_solve_s": [span(integrate)],
        "driver.allfe_solve_s": coupled_solve("driver.run_schwarz"),
        "driver.train_s": [span(pick("driver.train"))],
        "driver.hybrid_solve_s": coupled_solve("driver.run_hybrid"),
        "driver.mono_s": [span(pick("driver.run_mono_opinf"))],
        "driver.train_data_run_s": [span(pick("schwarz.run_coupled",
                                              "driver.train"))],
    }


def stage_times(intervals):
    """Seconds of each entry of :func:`stage_intervals`."""
    return {key: sum(sign * (b - a) for sign, a, b in parts)
            for key, parts in intervals.items()}


def fastest_stage_times(passes):
    """Each stage's time with every segment at its fastest across passes.

    ``passes`` holds one ``(segment boundaries, stage intervals)`` per pass;
    all passes have the same number of boundaries.
    """
    fastest = np.min([np.diff(bounds) for bounds, _ in passes], axis=0)
    bounds, intervals = passes[0]
    total = np.concatenate([[0.0], np.cumsum(fastest)])
    at = {}
    for key, parts in intervals.items():
        at[key] = sum(sign * (total[np.searchsorted(bounds, b)]
                              - total[np.searchsorted(bounds, a)])
                      for sign, a, b in parts)
    return at


def segment_bounds(starts, ends):
    """Sorted span boundaries of one pass; they cut it into segments.

    The study is deterministic and its sweep counts are checked equal, so
    every pass records the same sequence of spans and segment ``i`` is the
    same piece of work in each. Taking each segment's fastest time across
    passes keeps the machine's own slow spells, which last from under a
    second to tens of seconds, out of the sum.
    """
    return np.sort(np.concatenate([starts, ends]))


def layer_values(spans):
    """Per-layer values of one pass from its spans (span-derived ones)."""
    table = self_times(*spans)
    return {name: table.get(span, (0, 0.0))[kind == "self"]
            for name, _, span, kind in LAYER_SPANS}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, root, log=sys.stderr):
    """Run passes for ``seconds``; returns the result object to print."""
    pkg = load_package(root)
    scratch = os.path.join(root, ".studybench",
                           f"{workload.name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cfg_path = os.path.join(scratch, "study.cfg")
    out_dir = os.path.join(scratch, "out")
    steps = write_config(workload, seed, cfg_path)

    tracer = Tracer()
    tracer.install(pkg, layers=bool(trace))
    samples = []
    passes = []
    failures = []
    sweeps = set()
    peak_rss_mb = None
    traced = []
    attempted = failed = 0
    t_begin = time.perf_counter()
    try:
        imports = [import_seconds(root, cfg_path)
                   for _ in range(IMPORT_SAMPLES)]
        while True:
            t_pass = time.perf_counter()
            shutil.rmtree(out_dir, ignore_errors=True)
            attempted += 1
            bytes0, windows0 = tracer.bytes_written, tracer.one_sweep_windows
            try:
                cfg = pkg.config.parse_config(cfg_path)
                pkg.driver.cmd_compare(cfg, out_dir=out_dir)
            except (pkg.ConfigurationError, pkg.DivergenceError,
                    pkg.FactorizationError):
                failed += 1
                tracer.take()
                traceback.print_exc(file=log)
            else:
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                spans = tracer.take()
                intervals = stage_intervals(*spans)
                sample = stage_times(intervals)
                passes.append((segment_bounds(spans[1], spans[2]),
                               intervals))
                if trace:
                    traced.append(spans)
                    sample.update(layer_values(spans))
                    sample["schwarz.one_sweep_windows"] = \
                        tracer.one_sweep_windows - windows0
                    sample["matio.bytes_written"] = \
                        tracer.bytes_written - bytes0
                outputs = collect_outputs(workload, tracer.results, out_dir,
                                          steps, cfg.dt)
                bad, values = checks.check(outputs, steady=workload.steady,
                                           mono_gap=workload.mono_gap)
                failures.extend(bad)
                sample["hybrid_err"] = values["hybrid_err"]
                sweeps.add((int(tracer.results["driver.run_schwarz"]
                                .iterations.sum()),
                            int(tracer.results["driver.run_hybrid"]
                                .iterations.sum())))
                samples.append(sample)
                print(f"pass {attempted}: study {sample['study_s']:.3f} s, "
                      f"dd_err {values['dd_err']:.2e}, hybrid_err "
                      f"{values['hybrid_err']:.3e}, mono_err "
                      f"{values['mono_err']:.3e}, euler residual "
                      f"{values['euler_residual']:.1e}"
                      + ("" if not bad else f", FAILED: {'; '.join(bad)}"),
                      file=log)
            tracer.results.clear()
            elapsed = time.perf_counter() - t_begin
            if elapsed + (time.perf_counter() - t_pass) > seconds:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    if len(sweeps) > 1:
        failures.append(
            f"sweep counts differ between passes: {sorted(sweeps)}")
    lengths = sorted({len(bounds) for bounds, _ in passes})
    if len(lengths) > 1:
        failures.append(f"span sequences differ between passes: {lengths} "
                        "span boundaries")
    metrics = {}
    if samples:
        med = {key: statistics.median(s[key] for s in samples)
               for key in samples[0]}
        wall = med["study_s"]
        if len(lengths) == 1:
            fast = fastest_stage_times(passes)
            med.update((key, fast[key]) for key in ("study_s",) + STAGES)
        print(f"{len(samples)} passes, {lengths[0] - 1} segments, median "
              f"pass {wall:.4f} s; fastest segments: study_s "
              f"{med['study_s']:.4f} s, "
              + ", ".join(f"{k} {med[k]:.4f} s" for k in STAGES), file=log)
        if trace:
            for name, unit in PER_LAYER:
                metrics[name] = {"value": float(med[name]), "unit": unit}
        else:
            allfe_sweeps, hybrid_sweeps = min(sweeps)
            values = dict(med, allfe_sweeps=allfe_sweeps,
                          hybrid_sweeps=hybrid_sweeps,
                          peak_rss_mb=peak_rss_mb,
                          setup_s=statistics.median(imports) + med["setup"])
            for name, unit in END_TO_END:
                metrics[name] = {"value": float(values[name]), "unit": unit}
    if traced:
        write_trace(os.path.join(root, ".studybench",
                                 f"trace-{workload.name}-s{seed}.npz"), traced)
    for message in failures:
        print(f"check failed: {message}", file=log)
    return {"correct": not failures and bool(samples),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def format_report(result):
    """Human-readable lines: each metric with its unit, then the counts."""
    lines = [f"{name:<30} {m['value']:>14.6g} {m['unit']}"
             for name, m in result["metrics"].items()]
    lines.append(f"attempted {result['attempted']} failed {result['failed']} "
                 f"correct {str(result['correct']).lower()}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, args.trace, os.getcwd())
    except SetupError as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        return 2
    for line in format_report(result):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
