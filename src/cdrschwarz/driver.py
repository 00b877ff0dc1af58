"""Experiment pipeline: reference runs, training, hybrid runs, comparison.

The full study wires together five stages, each also exposed as its own
command: a monolithic finite element reference, an all-FE coupled run, the
training of per-subdomain reduced operators from a short coupled run, the
hybrid (FE + reduced) coupled run, and a monolithic reduced model trained on
the reference snapshots. ``cmd_compare`` runs all of them and produces a
three-model table of solve times and errors against the reference.

Every history the study scores or exports is one :class:`NodalHistory`,
read a block of columns at a time: a coupled run is stitched from its
coordinates, the reference merged from its interior states and boundary
traces, and the monolithic reduced model lifted from its reduced march.
"""

import os
import platform
import time
from dataclasses import dataclass, replace

import numpy as np

from . import matio
from .config import GLOBAL_RECT
from .errors import ConfigurationError
from .fem import assemble, boundary_values
from .kernels import blas_threads
from .matio import BLOCK_COLUMNS
from .mesh import build_mesh
from .rom import (OpInfOperators, PodBasis, RomStepper, compute_pod,
                  train_opinf)
from .schwarz import RunResult, StitchPlan, check_rank, run_coupled
from .timestep import (ImplicitEulerStepper, Trajectory, integrate,
                       n_steps_for)

#: Reference-norm floor below which a time is skipped by the error metric.
ZERO_NORM_FLOOR = 1e-14

#: Default regularization grid: unregularized plus a log sweep of [1e-6, 1].
DEFAULT_LAMBDA_GRID = (0.0,) + tuple(np.logspace(-6.0, 0.0, 13))


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

def column_blocks(n):
    """``(start, stop)`` of consecutive blocks of at most
    :data:`BLOCK_COLUMNS` columns covering ``n``.

    No block is a single column unless ``n`` is 1: numpy sums the rows of a
    lone column pairwise, but those of a wider block, or of a whole history,
    one after another, so norms taken block by block equal the whole
    history's bitwise.
    """
    bounds = list(range(0, n, BLOCK_COLUMNS)) + [n]
    if n > 1 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return list(zip(bounds[:-1], bounds[1:]))


def error_metric_detail(model, reference):
    """Error value plus degeneracy bookkeeping.

    ``model`` and ``reference`` are :class:`NodalHistory` objects. Returns
    ``(value, used_absolute, n_skipped)``: the time-averaged relative L2
    error over the shared grid, skipping times where the reference norm is
    below ``ZERO_NORM_FLOOR``. A reference that is zero at every time has no
    relative scale, so the mean absolute L2 error is returned with
    ``used_absolute`` set.
    """
    return error_metric_details([model], reference)[0]


def error_metric_details(models, reference):
    """:func:`error_metric_detail` of each of ``models`` against one
    ``reference``, scored in one pass over its column blocks, so each
    block of the reference is read once for all of them; each result is
    bitwise that model's score alone."""
    for model in models:
        if model.shape != reference.shape:
            raise ConfigurationError(
                f"trajectory shapes differ: {model.shape} vs "
                f"{reference.shape}")
        if np.max(np.abs(model.times - reference.times)) > 1e-9:
            raise ConfigurationError("trajectory time grids differ")
    diffs, norms = _column_norms(models, reference)
    return [_mean_relative(diff, norms) for diff in diffs]


def _column_norms(models, reference):
    """Per-time L2 norms of each ``model - reference`` and of
    ``reference``, :class:`NodalHistory` objects, a block of columns at a
    time, each block of the reference read once; bitwise those of
    ``np.linalg.norm(x, axis=0)`` of the whole histories."""
    norms = reference.norms
    diff_sq = np.empty((len(models), reference.shape[1]))
    ref_sq = np.empty(reference.shape[1])
    for a, b in column_blocks(reference.shape[1]):
        r = reference.columns(a, b)
        for k, model in enumerate(models):
            d = model.columns(a, b) - r
            d *= d
            diff_sq[k, a:b] = np.add.reduce(d, axis=0)
            # Freed before the next model's block is read, so the pass
            # holds one difference block at a time.
            del d
        if norms is None:
            ref_sq[a:b] = np.add.reduce(r * r, axis=0)
    if norms is None:
        reference.norms = norms = np.sqrt(ref_sq)
    return list(np.sqrt(diff_sq)), norms


def _mean_relative(diff, ref):
    """:func:`error_metric_detail` from per-time error and reference norms."""
    include = ref >= ZERO_NORM_FLOOR
    n_skipped = int(np.count_nonzero(~include))
    if not include.any():
        return float(np.mean(diff)), True, n_skipped
    value = float(np.mean(diff[include] / ref[include]))
    return value, False, n_skipped


def error_metric(model, reference):
    """Time-averaged relative L2 error of a history against a reference."""
    return error_metric_detail(model, reference)[0]


def self_error(history):
    """``error_metric(history, history)``, from the norms its first score
    kept, reading only the columns whose norm is not finite.

    ``x - x`` is 0 for finite ``x``, and NaN for an infinite or NaN one,
    so a time's error norm is 0 when all its entries are finite and NaN
    otherwise. A time with a finite norm has only finite entries; the
    others, which hold a non-finite entry or squares that overflow, are
    read. A history not yet scored is scored against itself.
    """
    norms = history.norms
    if norms is None:
        return error_metric(history, history)
    diff = np.zeros_like(norms)
    for j in np.flatnonzero(~np.isfinite(norms)):
        if not np.isfinite(history.column(j)).all():
            diff[j] = np.nan
    return _mean_relative(diff, norms)[0]


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def build_global_mesh(cfg):
    return build_mesh(GLOBAL_RECT, cfg.nx, cfg.ny)


class NodalHistory:
    """A history of nodal fields on one mesh, one column per time, read a
    column or a block of columns at a time, so that it is never held whole.

    ``read(key)`` gives the columns ``key`` selects, an index or a slice.
    A coupled run is stitched from its coordinates (:meth:`stitched`);
    other histories merge interior states with traces (:meth:`merged`).
    ``norms``, its per-time L2 norms, are kept from its first score. A
    reference is read once per scoring pass, a block at a time, whatever
    the number of models scored against it (:func:`error_metric_details`).
    """

    def __init__(self, times, n_nodes, read):
        self.times = times
        self.shape = (n_nodes, times.shape[0])
        self._read = read
        self.norms = None

    def column(self, j):
        """The nodal field at ``times[j]``."""
        return self._read(j)

    def columns(self, a, b):
        """The nodal fields at ``times[a:b]``, one per column."""
        return self._read(slice(a, b))

    @classmethod
    def stitched(cls, run, global_mesh):
        """A coupled run's history on ``global_mesh``, stitched from the
        run's coordinates by its :class:`StitchPlan`."""
        plan = StitchPlan(run.config, global_mesh, run.solvers)
        coordinates = run.coordinates
        return cls(run.times, global_mesh.n_nodes,
                   lambda key: plan.apply(coordinates[:, key]))

    @classmethod
    def merged(cls, system, trajectory, basis=None):
        """``trajectory``'s interior states and boundary traces merged onto
        the nodes of the assembled ``system``; reduced states are lifted by
        ``basis.Psi``, if given, as they are read."""
        def read(key):
            states = trajectory.states[:, key]
            if basis is not None:
                states = basis.Psi @ states
            full = np.empty((system.mesh.n_nodes,) + states.shape[1:])
            _scatter_rows(full, system.interior_map, states)
            _scatter_rows(full, system.boundary_map,
                          trajectory.boundary_traces[:, key])
            return full
        return cls(trajectory.times, system.mesh.n_nodes, read)


#: Columns :func:`_scatter_rows` copies at a time. Each column of a
#: column-major history is one read stream, and a whole block's 64 outrun
#: the hardware prefetcher: on a 2-vCPU Xeon a merged read of the default
#: reference took about 1.3x as long as 32 at a time, or as a row-major
#: history.
_SCATTER_COLUMNS = 32


def _scatter_rows(full, rows, block):
    """``full[rows] = block``, for a matrix ``block`` a few columns at a
    time."""
    if block.ndim == 1:
        full[rows] = block
        return
    for c in range(0, block.shape[1], _SCATTER_COLUMNS):
        full[rows, c:c + _SCATTER_COLUMNS] = block[:, c:c + _SCATTER_COLUMNS]


def _export_stitched_fields(cfg, stitched, global_mesh, out_dir, prefix):
    """Write the fields of a :class:`NodalHistory` at the output field
    times."""
    os.makedirs(out_dir, exist_ok=True)
    for t in cfg.resolved_field_times():
        matio.export_field_csv(
            os.path.join(out_dir, f"{prefix}_field_t{t:g}.csv"),
            global_mesh, stitched.column(n_steps_for(0.0, t, cfg.dt)))


# ---------------------------------------------------------------------------
# Monolithic reference
# ---------------------------------------------------------------------------

@dataclass
class MonolithicResult:
    mesh: object
    system: object
    trajectory: Trajectory
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
                           boundary_values(system, params))
    solve_seconds = time.perf_counter() - t1
    result = MonolithicResult(
        mesh=mesh, system=system, trajectory=trajectory,
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
        matio.export_field_csv(
            os.path.join(out_dir, "fom_field_final.csv"), mesh,
            NodalHistory.merged(system, trajectory).column(-1))
    return result


# ---------------------------------------------------------------------------
# Coupled runs
# ---------------------------------------------------------------------------

def cmd_run_schwarz(cfg, out_dir=None):
    """All-FE coupled run over the full horizon."""
    run = run_coupled(cfg.schwarz_config(force_model="fe"), cfg.params())
    if out_dir is not None:
        global_mesh = build_global_mesh(cfg)
        _export_stitched_fields(cfg, NodalHistory.stitched(run, global_mesh),
                                global_mesh, out_dir, "schwarz")
    return run


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainedSubdomain:
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
    on: the problem data; the training data run's time step, horizon,
    tolerance, sweep limit and every subdomain's rectangle and mesh (see
    :meth:`~cdrschwarz.config.RunConfig.training_schwarz_config`); and the
    subdomain's rank and lambda.
    """
    params = cfg.params()
    run = cfg.training_schwarz_config()
    fingerprint = {
        "epsilon": str(float(params.eps)), "sigma": str(float(params.sigma)),
        "bx": str(params.b[0]), "by": str(params.b[1]),
        "forcing": _selector_tag(params.forcing),
        "dirichlet": _selector_tag(params.dirichlet),
        "dt": str(float(run.dt)), "training_t_end": str(float(run.t_end)),
        "tol": str(float(run.tol)), "max_iters": str(run.max_iters),
        "r": str(spec.rom_dim), "lambda": str(float(spec.rom_lambda)),
    }
    for k, s in enumerate(run.subdomains, start=1):
        r = s.rect
        fingerprint[f"subdomain{k}"] = ",".join(
            str(v) for v in (float(r.x0), float(r.x1), float(r.y0),
                             float(r.y1), s.nx, s.ny))
    return fingerprint


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
    specs = cfg.subdomain_specs()
    run = run_coupled(cfg.training_schwarz_config(), cfg.params())
    trained = {}
    t0 = time.perf_counter()
    trajectories = run.trajectories
    for i, spec in enumerate(specs):
        if spec.model != "rom":
            continue
        traj = trajectories[i]
        basis = compute_pod(traj.states, spec.rom_dim)
        ops, = train_opinf(basis, traj.states, traj.boundary_traces,
                           cfg.dt, (spec.rom_lambda,))
        trained[i] = TrainedSubdomain(
            basis=basis, ops=ops, lam=spec.rom_lambda,
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
        check_rank(i, spec, basis)
        meta = matio.load_meta(paths["meta"])
        _check_fingerprint(i, paths["meta"], meta.get("fingerprint"),
                           training_fingerprint(cfg, spec))
        ops = OpInfOperators(Khat=matio.load_matrix(paths["khat"]),
                             Bhat=matio.load_matrix(paths["bhat"]),
                             fhat=matio.load_matrix(paths["fhat"]).ravel(),
                             lam=float(meta.get("lambda", "0")))
        trained[i] = TrainedSubdomain(
            basis=basis, ops=ops, lam=float(meta.get("lambda", "0")),
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
    run = run_coupled(cfg.schwarz_config(), cfg.params(), trained)
    if out_dir is not None:
        global_mesh = build_global_mesh(cfg)
        _export_stitched_fields(cfg, NodalHistory.stitched(run, global_mesh),
                                global_mesh, out_dir, "hybrid")
    return run


# ---------------------------------------------------------------------------
# Monolithic reduced model
# ---------------------------------------------------------------------------

@dataclass
class MonoOpinfResult:
    """The monolithic reduced model; ``trajectory`` is its march in reduced
    coordinates, with the reference traces that drove it."""

    basis: PodBasis
    ops: OpInfOperators
    lam: float
    grid: tuple
    grid_errors: np.ndarray
    system: object
    trajectory: Trajectory
    diverged: bool
    timings: dict

    def history(self):
        """The march's :class:`NodalHistory`, lifted a block at a time."""
        return NodalHistory.merged(self.system, self.trajectory, self.basis)

    @property
    def nodal_states(self):
        """The whole nodal history, one column per time."""
        history = self.history()
        nodal = np.empty(history.shape)
        for a, b in column_blocks(history.shape[1]):
            nodal[:, a:b] = history.columns(a, b)
        return nodal


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
        # Squares in row-major order whatever the layout of ``states``, so
        # that the rows are summed one after another, as
        # ``np.linalg.norm(states, axis=0)`` sums row-major snapshots; it
        # sums a column-major block's pairwise.
        norms = np.sqrt(np.add.reduce(np.multiply(states, states, order="C"),
                                      axis=0))
        return cls(coords=coords, residual_sq=np.sum(residual ** 2, axis=0),
                   norms=norms, traces=traces)


def _march(ops, dt, vhat0, traces):
    """Reduced states ``(r, n_t)`` stepped from ``vhat0`` by the implicit
    Euler propagators of ``ops``, column ``j`` driven by ``traces[:, j]``;
    NaN from the first non-finite column on."""
    P, Q, q = RomStepper(ops, dt).propagators()
    drive = (Q @ traces[:, 1:] + q[:, None]).T
    vhat = np.empty((traces.shape[1], vhat0.shape[0]))
    vhat[0] = vhat0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, vhat.shape[0]):
            vhat[j] = P @ vhat[j - 1] + drive[j - 1]
    bad = ~np.isfinite(vhat).all(axis=1)
    if bad.any():
        vhat[np.argmax(bad):] = np.nan
    return vhat.T


def _mono_reprojection_error(ops, dt, projection):
    """Training-window error of a candidate monolithic reduced model.

    The candidate is marched in reduced coordinates and never lifted: with
    orthonormal ``Psi``, ``|Psi v - s|^2 = |v - Psi^T s|^2 + |s - Psi Psi^T
    s|^2``, and the last term does not depend on the candidate. Equals
    :func:`error_metric_detail` of the lifted trajectory against the
    snapshots up to rounding; a non-finite trajectory scores ``inf``.
    """
    coords = projection.coords
    vhat = _march(ops, dt, coords[:, 0], projection.traces)
    if not np.isfinite(vhat[:, -1]).all():
        return np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.sqrt(np.sum((vhat - coords) ** 2, axis=0)
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
    projection = _TrainingProjection.of(basis, train_states, train_traces)
    candidates = train_opinf(basis, train_states, train_traces, cfg.dt, grid)
    grid_errors = np.array([_mono_reprojection_error(ops, cfg.dt, projection)
                            for ops in candidates])
    best = int(np.argmin(grid_errors))
    ops = candidates[best]
    lam = grid[best]
    train_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    reduced = _march(ops, cfg.dt, basis.Psi.T @ traj.states[:, 0], traces)
    diverged = not np.isfinite(reduced[:, -1]).all()
    solve_seconds = time.perf_counter() - t1

    result = MonoOpinfResult(
        basis=basis, ops=ops, lam=lam, grid=grid, grid_errors=grid_errors,
        system=fom.system, trajectory=replace(traj, states=reduced),
        diverged=diverged, timings={"train_seconds": train_seconds,
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
    """Three-model summary: solve-phase seconds and error vs the reference.

    ``training_run`` is the all-FE run whose snapshots trained the hybrid's
    operators, kept in memory for its convergence and not written.
    """

    models: list
    reference_self_error: float
    reference_solve_seconds: float
    environment: str
    training_run: RunResult = None

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
    """The thread count of each OpenBLAS in the process, read back."""
    counts = blas_threads()
    if not counts:
        return "BLAS threads: no OpenBLAS found, library default"
    if len(set(counts)) == 1:
        return (f"BLAS threads: {counts[0]} in each of {len(counts)} "
                f"OpenBLAS libraries")
    return (f"BLAS threads: {', '.join(map(str, counts))} in "
            f"{len(counts)} OpenBLAS libraries")


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
    # Every history is read a block of columns at a time for its error and
    # a column at a time for its field files, so none is built whole: the
    # reference and mono are merged from their states and traces, and each
    # coupled run, kept once as its coordinates, is stitched from them.
    ref = NodalHistory.merged(fom.system, fom.trajectory)
    schwarz_run = cmd_run_schwarz(cfg)
    schwarz_hist = NodalHistory.stitched(schwarz_run, global_mesh)
    if out_dir is not None:
        _export_stitched_fields(cfg, schwarz_hist, global_mesh, out_dir,
                                "schwarz")
    training = cmd_train(cfg, out_dir=out_dir)
    hybrid_run = cmd_run_hybrid(cfg, trained=training.trained)
    hybrid_hist = NodalHistory.stitched(hybrid_run, global_mesh)
    if out_dir is not None:
        _export_stitched_fields(cfg, hybrid_hist, global_mesh, out_dir,
                                "hybrid")
    mono = cmd_run_mono_opinf(cfg, out_dir=out_dir, fom=fom,
                              lambda_grid=lambda_grid)

    # One scoring pass: each block of the reference is merged once for
    # every model scored; a diverged mono is not scored.
    histories = [schwarz_hist, hybrid_hist]
    if not mono.diverged:
        histories.append(mono.history())
    scores = error_metric_details(histories, ref)
    (err_schwarz, abs_schwarz, _), (err_hybrid, abs_hybrid, _) = scores[:2]
    err_mono, abs_mono = (scores[2][:2] if not mono.diverged
                          else (float("inf"), False))
    reference_self_error = self_error(ref)

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
        models=models, reference_self_error=reference_self_error,
        reference_solve_seconds=fom.timings["solve_seconds"],
        environment=_environment_note(), training_run=training.run)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, "comparison.csv"))
        with open(os.path.join(out_dir, "comparison.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write(report.to_text() + "\n")
    return report
