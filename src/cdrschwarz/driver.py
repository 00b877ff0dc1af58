"""Experiment pipeline: reference runs, training, hybrid runs, comparison.

The full study wires together five stages, each also exposed as its own
command: a monolithic finite element reference, an all-FE coupled run, the
training of per-subdomain reduced operators from a short coupled run, the
hybrid (FE + reduced) coupled run, and a monolithic reduced model trained on
the reference snapshots. ``cmd_compare`` runs all of them and produces a
three-model table of solve times and errors against the reference.
"""

import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import matio
from .config import GLOBAL_RECT, RunConfig
from .errors import ConfigurationError, DivergenceError
from .fem import assemble, boundary_values
from .mesh import build_mesh
from .rom import (OpInfOperators, PodBasis, RomStepper, compute_pod,
                  train_opinf)
from .schwarz import (FESubdomainSolver, RomSubdomainSolver, RunResult,
                      StitchPlan, run_coupled)
from .timestep import (ImplicitEulerStepper, Trajectory, integrate,
                       n_steps_for)

#: Reference-norm floor below which a time is skipped by the error metric.
ZERO_NORM_FLOOR = 1e-14

#: Default regularization grid: unregularized plus a log sweep of [1e-6, 1].
DEFAULT_LAMBDA_GRID = (0.0,) + tuple(np.logspace(-6.0, 0.0, 13))


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

def _coerce_history(obj):
    """Accept a Trajectory, a (times, states) pair, or a bare states array."""
    if isinstance(obj, Trajectory):
        return obj.times, obj.states
    if isinstance(obj, tuple) and len(obj) == 2:
        return np.asarray(obj[0], dtype=float), np.asarray(obj[1], dtype=float)
    return None, np.asarray(obj, dtype=float)


def error_metric_detail(model, reference):
    """Error value plus degeneracy bookkeeping.

    Returns ``(value, used_absolute, n_skipped)``: the time-averaged
    relative L2 error over the shared grid, skipping times where the
    reference norm is below ``ZERO_NORM_FLOOR``. A reference that is zero
    at every time has no relative scale, so the mean absolute L2 error is
    returned with ``used_absolute`` set.
    """
    t_m, u_m = _coerce_history(model)
    t_r, u_r = _coerce_history(reference)
    if u_m.shape != u_r.shape:
        raise ConfigurationError(
            f"trajectory shapes differ: {u_m.shape} vs {u_r.shape}")
    if t_m is not None and t_r is not None:
        if t_m.shape != t_r.shape or np.max(np.abs(t_m - t_r)) > 1e-9:
            raise ConfigurationError("trajectory time grids differ")
    return _mean_relative(np.linalg.norm(u_m - u_r, axis=0),
                          np.linalg.norm(u_r, axis=0))


def _mean_relative(diff, ref):
    """:func:`error_metric_detail` from per-time error and reference norms."""
    include = ref >= ZERO_NORM_FLOOR
    n_skipped = int(np.count_nonzero(~include))
    if not include.any():
        return float(np.mean(diff)), True, n_skipped
    value = float(np.mean(diff[include] / ref[include]))
    return value, False, n_skipped


def error_metric(model, reference):
    """Time-averaged relative L2 error of a trajectory against a reference."""
    return error_metric_detail(model, reference)[0]


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def build_global_mesh(cfg):
    return build_mesh(GLOBAL_RECT, cfg.nx, cfg.ny)


def nodal_history(owner, trajectory):
    """Merge interior states and boundary traces into full nodal columns.

    ``owner`` is an assembled system or a subdomain solver; only its
    ``mesh``, ``interior_map`` and ``boundary_map`` are read.
    """
    full = np.empty((owner.mesh.n_nodes, trajectory.n_times))
    full[owner.interior_map] = trajectory.states
    full[owner.boundary_map] = trajectory.boundary_traces
    return full


def stitch_history(run, global_mesh):
    """Stitch a coupled run's per-subdomain histories onto a global mesh."""
    plan = StitchPlan(run.config, global_mesh, run.meshes)
    fields = [nodal_history(s, traj)
              for s, traj in zip(run.solvers, run.trajectories)]
    return plan.apply(fields)


def fe_factory(params):
    """Coupled-solver factory assigning finite elements everywhere."""
    def factory(spec, mesh, entry, config):
        return FESubdomainSolver(spec, mesh, params, config.dt,
                                 entry.gamma_positions)
    return factory


def _check_rank(index, spec, basis):
    if basis.r != spec.rom_dim:
        raise ConfigurationError(
            f"subdomain {index + 1} asks for a reduced model of "
            f"rank r = {spec.rom_dim}, but its trained operators have "
            f"rank {basis.r}; retrain with the current config")


def hybrid_factory(params, trained):
    """Coupled-solver factory honoring each subdomain's model assignment."""
    def factory(spec, mesh, entry, config):
        if spec.model == "fe":
            return FESubdomainSolver(spec, mesh, params, config.dt,
                                     entry.gamma_positions)
        if entry.index not in trained:
            raise ConfigurationError(
                f"subdomain {entry.index + 1} is reduced but has no "
                f"trained operators; run training first")
        item = trained[entry.index]
        _check_rank(entry.index, spec, item.basis)
        return RomSubdomainSolver(spec, mesh, params, config.dt,
                                  entry.gamma_positions, item.basis,
                                  item.ops)
    return factory


def _time_index(cfg, t):
    idx = int(round((t - 0.0) / cfg.dt))
    if abs(idx * cfg.dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(
            f"output time {t} is not on the dt={cfg.dt} grid")
    return idx


def _export_stitched_fields(cfg, stitched, global_mesh, out_dir, prefix):
    """Write the columns of a stitched history at the output field times."""
    os.makedirs(out_dir, exist_ok=True)
    for t in cfg.resolved_field_times():
        matio.export_field_csv(
            os.path.join(out_dir, f"{prefix}_field_t{t:g}.csv"),
            global_mesh, stitched[:, _time_index(cfg, t)])


# ---------------------------------------------------------------------------
# Monolithic reference
# ---------------------------------------------------------------------------

@dataclass
class MonolithicResult:
    mesh: object
    system: object
    trajectory: Trajectory
    nodal_states: np.ndarray
    timings: dict


def cmd_run_fom(cfg, out_dir=None):
    """Monolithic finite element reference over the full horizon."""
    params = cfg.params()
    mesh = build_global_mesh(cfg)
    t0 = time.perf_counter()
    system = assemble(mesh, params)
    stepper = ImplicitEulerStepper(system, cfg.dt)
    setup_seconds = time.perf_counter() - t0

    initial = np.zeros(system.n_interior)
    t1 = time.perf_counter()
    trajectory = integrate(stepper, 0.0, cfg.t_end, initial,
                           lambda t: boundary_values(system, params, t))
    solve_seconds = time.perf_counter() - t1
    result = MonolithicResult(
        mesh=mesh, system=system, trajectory=trajectory,
        nodal_states=nodal_history(system, trajectory),
        timings={"setup_seconds": setup_seconds,
                 "solve_seconds": solve_seconds})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        matio.save_matrix(os.path.join(out_dir, "fom_times.bin"),
                          trajectory.times)
        matio.save_matrix(os.path.join(out_dir, "fom_states.bin"),
                          trajectory.states)
        matio.save_matrix(os.path.join(out_dir, "fom_traces.bin"),
                          trajectory.boundary_traces)
        matio.export_field_csv(os.path.join(out_dir, "fom_field_final.csv"),
                               mesh, result.nodal_states[:, -1])
    return result


# ---------------------------------------------------------------------------
# Coupled runs
# ---------------------------------------------------------------------------

def cmd_run_schwarz(cfg, out_dir=None):
    """All-FE coupled run over the full horizon."""
    params = cfg.params()
    run = run_coupled(cfg.schwarz_config(force_model="fe"),
                      fe_factory(params))
    if out_dir is not None:
        global_mesh = build_global_mesh(cfg)
        _export_stitched_fields(cfg, stitch_history(run, global_mesh),
                                global_mesh, out_dir, "schwarz")
    return run


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainedSubdomain:
    index: int
    basis: PodBasis
    ops: OpInfOperators
    lam: float
    energy: float

    @property
    def max_re_eig_khat(self):
        """Spectral abscissa of ``Khat``; negative for a stable model."""
        return float(np.max(np.linalg.eigvals(self.ops.Khat).real))


@dataclass
class TrainingResult:
    run: RunResult
    trained: dict
    timings: dict


def _selector_tag(value):
    """Forcing/Dirichlet data as text: a function by name, else its value."""
    if value is None:
        return "zero"
    if callable(value):
        return value.__name__
    return str(float(value))


def training_fingerprint(cfg, spec):
    """``{key: text}`` of everything a subdomain's trained operators depend
    on: the problem data, the time step, the training horizon and the
    subdomain's rectangle, mesh, rank and lambda.
    """
    params = cfg.params()
    rect = spec.rect
    return {
        "epsilon": str(float(params.eps)), "sigma": str(float(params.sigma)),
        "bx": str(params.b[0]), "by": str(params.b[1]),
        "forcing": _selector_tag(params.forcing),
        "dirichlet": _selector_tag(params.dirichlet),
        "dt": str(float(cfg.dt)),
        "training_t_end": str(float(cfg.training_t_end)),
        "rect": ",".join(str(float(v))
                         for v in (rect.x0, rect.x1, rect.y0, rect.y1)),
        "nx": str(spec.nx), "ny": str(spec.ny), "r": str(spec.rom_dim),
        "lambda": str(float(spec.rom_lambda)),
    }


def _check_fingerprint(index, meta_path, stored, current):
    """Raise unless ``stored`` (``key=text;...`` from a meta file) equals
    the ``current`` fingerprint."""
    if stored is None:
        raise ConfigurationError(
            f"subdomain {index + 1}: {meta_path} has no training "
            f"fingerprint; retrain with the current config")
    old = dict(item.split("=", 1) for item in stored.split(";"))
    differ = sorted(k for k in current.keys() | old.keys()
                    if old.get(k) != current.get(k))
    if differ:
        detail = ", ".join(f"{k} trained {old.get(k)}, now {current.get(k)}"
                           for k in differ)
        raise ConfigurationError(
            f"subdomain {index + 1}: the operators in {meta_path} were "
            f"trained for another problem ({detail}); retrain with the "
            f"current config")


def _fit_meta(fit):
    """Meta entries of a fit's :class:`~cdrschwarz.rom.FitDiagnostics`."""
    return {"fit_data_shape": "x".join(str(n) for n in fit.data_shape),
            "fit_rank": fit.rank,
            "fit_min_kept_sval_over_cutoff": fit.min_kept_over_cutoff,
            "fit_residual": fit.residual}


def _retained_energy(svals, r):
    total = float(np.sum(svals ** 2))
    if total == 0.0:
        return 1.0
    return float(np.sum(svals[:r] ** 2) / total)


def cmd_train(cfg, out_dir=None):
    """Train per-subdomain reduced operators from a short all-FE run.

    The training data come from an all-FE coupled run over the training
    horizon, so each subdomain's recorded boundary trace has exactly the
    layout its reduced model sees online. The data run couples at every
    time step whatever ``schwarz.steps_per_window`` says: a longer window
    holds each interface trace constant across its substeps, and operators
    fitted to such piecewise-constant inputs come out unstable.
    """
    params = cfg.params()
    specs = cfg.subdomain_specs()
    training_cfg = cfg.schwarz_config(force_model="fe",
                                      t_end=cfg.training_t_end,
                                      steps_per_window=1)
    run = run_coupled(training_cfg, fe_factory(params))
    trained = {}
    t0 = time.perf_counter()
    for i, spec in enumerate(specs):
        if spec.model != "rom":
            continue
        traj = run.trajectories[i]
        basis = compute_pod(traj.states, spec.rom_dim)
        ops = train_opinf(basis, traj.states, traj.boundary_traces,
                          cfg.dt, spec.rom_lambda)
        trained[i] = TrainedSubdomain(
            index=i, basis=basis, ops=ops, lam=spec.rom_lambda,
            energy=_retained_energy(basis.svals, spec.rom_dim))
    train_seconds = time.perf_counter() - t0
    result = TrainingResult(
        run=run, trained=trained,
        timings={"data_run_seconds": run.timings["solve_seconds"],
                 "train_seconds": train_seconds})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for i, item in trained.items():
            tag = f"sub{i + 1}"
            matio.save_matrix(os.path.join(out_dir, f"{tag}_basis.bin"),
                              item.basis.Psi)
            matio.save_matrix(os.path.join(out_dir, f"{tag}_svals.bin"),
                              item.basis.svals)
            matio.save_matrix(os.path.join(out_dir, f"{tag}_khat.bin"),
                              item.ops.Khat)
            matio.save_matrix(os.path.join(out_dir, f"{tag}_bhat.bin"),
                              item.ops.Bhat)
            matio.save_matrix(os.path.join(out_dir, f"{tag}_fhat.bin"),
                              item.ops.fhat)
            matio.save_meta(
                os.path.join(out_dir, f"{tag}_meta.txt"),
                {"r": item.basis.r, "lambda": item.lam,
                 "retained_energy": item.energy,
                 "max_re_eig_khat": item.max_re_eig_khat,
                 **_fit_meta(item.ops.fit),
                 "snapshot_frobenius_sq": float(np.sum(item.basis.svals ** 2)),
                 "fingerprint": ";".join(
                     f"{k}={v}" for k, v in
                     training_fingerprint(cfg, specs[i]).items())})
    return result


def load_trained(cfg, out_dir):
    """Load persisted reduced operators for every reduced subdomain.

    Operators whose training fingerprint (see :func:`training_fingerprint`)
    is missing or differs from the current config raise
    :class:`ConfigurationError` instead of being reused.
    """
    trained = {}
    for i, spec in enumerate(cfg.subdomain_specs()):
        if spec.model != "rom":
            continue
        tag = f"sub{i + 1}"
        paths = {name: os.path.join(out_dir, f"{tag}_{name}.bin")
                 for name in ("basis", "svals", "khat", "bhat", "fhat")}
        paths["meta"] = os.path.join(out_dir, f"{tag}_meta.txt")
        for name, p in paths.items():
            if not os.path.exists(p):
                raise ConfigurationError(
                    f"missing trained operator file {p}; run training first")
        basis = PodBasis(Psi=matio.load_matrix(paths["basis"]),
                         svals=matio.load_matrix(paths["svals"]).ravel())
        _check_rank(i, spec, basis)
        meta = matio.load_meta(paths["meta"])
        _check_fingerprint(i, paths["meta"], meta.get("fingerprint"),
                           training_fingerprint(cfg, spec))
        ops = OpInfOperators(Khat=matio.load_matrix(paths["khat"]),
                             Bhat=matio.load_matrix(paths["bhat"]),
                             fhat=matio.load_matrix(paths["fhat"]).ravel(),
                             lam=float(meta.get("lambda", "0")))
        trained[i] = TrainedSubdomain(
            index=i, basis=basis, ops=ops,
            lam=float(meta.get("lambda", "0")),
            energy=float(meta.get("retained_energy", "nan")))
    return trained


# ---------------------------------------------------------------------------
# Hybrid run
# ---------------------------------------------------------------------------

def hybrid_operators(cfg, out_dir=None):
    """``(trained, training)``: the operators a hybrid run needs.

    They are loaded from ``out_dir`` when every reduced subdomain has them
    there (``training`` is then None), and trained otherwise.
    """
    specs = cfg.subdomain_specs()
    if not any(s.model == "rom" for s in specs):
        return {}, None
    if out_dir is not None and all(
            os.path.exists(os.path.join(out_dir, f"sub{i + 1}_khat.bin"))
            for i, s in enumerate(specs) if s.model == "rom"):
        return load_trained(cfg, out_dir), None
    training = cmd_train(cfg, out_dir)
    return training.trained, training


def cmd_run_hybrid(cfg, out_dir=None, *, trained):
    """Coupled run with the configured FE/reduced model assignment.

    ``trained`` maps each reduced subdomain to its operators, as from
    :func:`hybrid_operators`, whose training run the caller judges.
    """
    params = cfg.params()
    run = run_coupled(cfg.schwarz_config(), hybrid_factory(params, trained))
    if out_dir is not None:
        global_mesh = build_global_mesh(cfg)
        _export_stitched_fields(cfg, stitch_history(run, global_mesh),
                                global_mesh, out_dir, "hybrid")
    return run


# ---------------------------------------------------------------------------
# Monolithic reduced model
# ---------------------------------------------------------------------------

@dataclass
class MonoOpinfResult:
    basis: PodBasis
    ops: OpInfOperators
    lam: float
    grid: tuple
    grid_errors: np.ndarray
    times: np.ndarray
    nodal_states: np.ndarray
    diverged: bool
    timings: dict


@dataclass(frozen=True)
class _TrainingProjection:
    """What every candidate's training-window error needs of the snapshots
    ``S``: ``coords = Psi^T S``, the squared norms of ``S - Psi Psi^T S``
    and of ``S`` per time, and the boundary traces."""

    coords: np.ndarray
    residual_sq: np.ndarray
    norms: np.ndarray
    traces: np.ndarray

    @classmethod
    def of(cls, basis, states, traces):
        coords = basis.Psi.T @ states
        residual = states - basis.Psi @ coords
        return cls(coords=coords, residual_sq=np.sum(residual ** 2, axis=0),
                   norms=np.linalg.norm(states, axis=0), traces=traces)


def _mono_reprojection_error(ops, dt, projection):
    """Training-window error of a candidate monolithic reduced model.

    The candidate steps in reduced coordinates with its implicit-Euler
    propagators and is never lifted: with orthonormal ``Psi``, ``|Psi v -
    s|^2 = |v - Psi^T s|^2 + |s - Psi Psi^T s|^2``, and the last term does
    not depend on the candidate. Equals :func:`error_metric_detail` of the
    lifted trajectory against the snapshots up to rounding; a non-finite
    trajectory scores ``inf``.
    """
    P, Q, q = RomStepper(ops, dt).propagators()
    coords = projection.coords
    drive = (Q @ projection.traces[:, 1:] + q[:, None]).T
    vhat = np.empty((coords.shape[1], coords.shape[0]))
    vhat[0] = coords[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, vhat.shape[0]):
            vhat[j] = P @ vhat[j - 1] + drive[j - 1]
        if not np.isfinite(vhat).all():
            return np.inf
        diff = np.sqrt(np.sum((vhat.T - coords) ** 2, axis=0)
                       + projection.residual_sq)
    return _mean_relative(diff, projection.norms)[0]


def cmd_run_mono_opinf(cfg, out_dir=None, fom=None, lambda_grid=None):
    """Monolithic reduced model trained on reference snapshots.

    With a fixed ``mono.lambda`` that value is used directly; otherwise
    every candidate on the grid is trained and the one with the smallest
    training-window reprojection error wins (first on ties, so the grid
    order is part of the contract). The winner is integrated to the full
    horizon driven by the reference's recorded Dirichlet traces.
    """
    if fom is None:
        fom = cmd_run_fom(cfg, out_dir=None)
    system = fom.system
    traj = fom.trajectory
    traces = traj.boundary_traces
    n_train = n_steps_for(0.0, cfg.training_t_end, cfg.dt) + 1
    train_states = traj.states[:, :n_train]
    train_traces = traces[:, :n_train]

    t0 = time.perf_counter()
    basis = compute_pod(train_states, cfg.mono_r)
    if lambda_grid is not None:
        grid = tuple(float(l) for l in lambda_grid)
    elif cfg.mono_lambda is not None:
        grid = (float(cfg.mono_lambda),)
    else:
        grid = DEFAULT_LAMBDA_GRID
    grid_errors = np.empty(len(grid))
    candidates = []
    projection = _TrainingProjection.of(basis, train_states, train_traces)
    for k, lam in enumerate(grid):
        ops = train_opinf(basis, train_states, train_traces, cfg.dt, lam)
        candidates.append(ops)
        grid_errors[k] = _mono_reprojection_error(ops, cfg.dt, projection)
    best = int(np.argmin(grid_errors))
    ops = candidates[best]
    lam = grid[best]
    train_seconds = time.perf_counter() - t0

    n_t = traj.n_times
    t1 = time.perf_counter()
    stepper = RomStepper(ops, cfg.dt)
    vhat = basis.Psi.T @ traj.states[:, 0]
    reduced = np.empty((cfg.mono_r, n_t))
    reduced[:, 0] = vhat
    diverged = False
    for j in range(1, n_t):
        vhat = stepper.step(vhat, traces[:, j])
        reduced[:, j] = vhat
        if not np.all(np.isfinite(vhat)):
            diverged = True
            reduced[:, j:] = np.nan
            break
    solve_seconds = time.perf_counter() - t1

    nodal = np.empty((fom.mesh.n_nodes, n_t))
    nodal[system.interior_map] = basis.Psi @ reduced
    nodal[system.boundary_map] = traces
    result = MonoOpinfResult(
        basis=basis, ops=ops, lam=lam, grid=grid, grid_errors=grid_errors,
        times=traj.times, nodal_states=nodal, diverged=diverged,
        timings={"train_seconds": train_seconds,
                 "solve_seconds": solve_seconds})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        matio.save_matrix(os.path.join(out_dir, "mono_basis.bin"), basis.Psi)
        matio.save_matrix(os.path.join(out_dir, "mono_khat.bin"), ops.Khat)
        matio.save_matrix(os.path.join(out_dir, "mono_bhat.bin"), ops.Bhat)
        matio.save_matrix(os.path.join(out_dir, "mono_fhat.bin"), ops.fhat)
        matio.save_meta(os.path.join(out_dir, "mono_meta.txt"),
                        {"r": cfg.mono_r, "lambda": lam,
                         "diverged": diverged,
                         "grid": ",".join(f"{l:g}" for l in grid)})
    return result


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass
class ModelReport:
    name: str
    error: float
    error_is_absolute: bool
    solve_seconds: float
    setup_seconds: float = 0.0
    train_seconds: float = 0.0
    iters_mean: float = float("nan")
    iters_max: float = float("nan")
    converged: bool = True
    note: str = ""


def _csv_number(value):
    return f"{value:.17g}"


def _csv_bool(value):
    return str(value).lower()


#: Rows of the comparison report: ``(text label, CSV key, ModelReport
#: attribute, text format, CSV formatter)``. A row without a text label is
#: written to the CSV only.
_REPORT_ROWS = (
    ("solve seconds", "solve_seconds", "solve_seconds", ".3f", _csv_number),
    ("error vs reference", "error_vs_reference", "error", ".3e", _csv_number),
    (None, "error_is_absolute", "error_is_absolute", None, _csv_bool),
    ("setup seconds", "setup_seconds", "setup_seconds", ".3f", _csv_number),
    ("training seconds", "train_seconds", "train_seconds", ".3f",
     _csv_number),
    ("iterations mean", "iterations_mean", "iters_mean", ".2f", _csv_number),
    ("iterations max", "iterations_max", "iters_max", ".0f", _csv_number),
    (None, "converged", "converged", None, _csv_bool),
)


@dataclass
class ComparisonReport:
    """Three-model summary: solve-phase seconds and error vs the reference."""

    models: list
    reference_self_error: float
    reference_solve_seconds: float
    environment: str

    def to_text(self):
        header = f"{'metric':<24}" + "".join(f"{m.name:>16}"
                                             for m in self.models)
        lines = [header, "-" * len(header)]
        for label, _, attr, fmt, _ in _REPORT_ROWS:
            if label is not None:
                lines.append(f"{label:<24}" + "".join(
                    format(getattr(m, attr), ">16" + fmt)
                    for m in self.models))
        lines += ["",
                  f"reference solve seconds: "
                  f"{self.reference_solve_seconds:.3f}",
                  f"reference self error: {self.reference_self_error:g}",
                  self.environment]
        lines += [f"note: {m.note}" for m in self.models if m.note]
        return "\n".join(lines)

    def write_csv(self, path):
        rows = ["metric," + ",".join(m.name.replace(" ", "_")
                                     for m in self.models)]
        rows += [key + "," + ",".join(cell(getattr(m, attr))
                                      for m in self.models)
                 for _, key, attr, _, cell in _REPORT_ROWS]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")


def _blas_threads_note():
    """The BLAS thread setting in force, as OpenBLAS reads it."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value:
            return f"BLAS threads: {name}={value}"
    return "BLAS threads: library default"


def _environment_note():
    return (f"environment: {platform.platform()}, python "
            f"{platform.python_version()}, numpy {np.__version__}, "
            f"{_blas_threads_note()}")


def cmd_compare(cfg, out_dir=None, lambda_grid=None):
    """Run the full study and build the comparison report.

    Timings separate solve, setup, and training phases; only solve-phase
    seconds are comparable across models. The trained operators are passed
    to the hybrid run in memory, never reloaded from ``out_dir``.
    """
    global_mesh = build_global_mesh(cfg)
    fom = cmd_run_fom(cfg, out_dir=out_dir)
    ref = (fom.trajectory.times, fom.nodal_states)

    # Each coupled run is stitched once, for its error and its field files.
    schwarz_run = cmd_run_schwarz(cfg)
    schwarz_hist = (schwarz_run.times, stitch_history(schwarz_run,
                                                      global_mesh))
    if out_dir is not None:
        _export_stitched_fields(cfg, schwarz_hist[1], global_mesh, out_dir,
                                "schwarz")
    training = cmd_train(cfg, out_dir=out_dir)
    hybrid_run = cmd_run_hybrid(cfg, trained=training.trained)
    hybrid_hist = (hybrid_run.times, stitch_history(hybrid_run, global_mesh))
    if out_dir is not None:
        _export_stitched_fields(cfg, hybrid_hist[1], global_mesh, out_dir,
                                "hybrid")
    mono = cmd_run_mono_opinf(cfg, out_dir=out_dir, fom=fom,
                              lambda_grid=lambda_grid)
    mono_hist = (mono.times, mono.nodal_states)

    err_schwarz, abs_schwarz, _ = error_metric_detail(schwarz_hist, ref)
    err_hybrid, abs_hybrid, _ = error_metric_detail(hybrid_hist, ref)
    if mono.diverged:
        err_mono, abs_mono = float("inf"), False
    else:
        err_mono, abs_mono, _ = error_metric_detail(mono_hist, ref)
    self_error = error_metric(ref, ref)

    models = [
        ModelReport(
            name="all-fe-dd", error=err_schwarz,
            error_is_absolute=abs_schwarz,
            solve_seconds=schwarz_run.timings["solve_seconds"],
            setup_seconds=schwarz_run.timings["setup_seconds"],
            iters_mean=float(np.mean(schwarz_run.iterations)),
            iters_max=float(np.max(schwarz_run.iterations)),
            converged=schwarz_run.converged),
        ModelReport(
            name="hybrid-dd", error=err_hybrid,
            error_is_absolute=abs_hybrid,
            solve_seconds=hybrid_run.timings["solve_seconds"],
            setup_seconds=hybrid_run.timings["setup_seconds"],
            train_seconds=(training.timings["train_seconds"]
                           + training.timings["data_run_seconds"]),
            iters_mean=float(np.mean(hybrid_run.iterations)),
            iters_max=float(np.max(hybrid_run.iterations)),
            converged=hybrid_run.converged),
        ModelReport(
            name="mono-opinf", error=err_mono, error_is_absolute=abs_mono,
            solve_seconds=mono.timings["solve_seconds"],
            train_seconds=mono.timings["train_seconds"],
            converged=not mono.diverged,
            note=(f"monolithic reduced model diverged before t_end"
                  if mono.diverged else
                  f"monolithic lambda = {mono.lam:g}")),
    ]
    report = ComparisonReport(
        models=models, reference_self_error=self_error,
        reference_solve_seconds=fom.timings["solve_seconds"],
        environment=_environment_note())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, "comparison.csv"))
        with open(os.path.join(out_dir, "comparison.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write(report.to_text() + "\n")
    return report
