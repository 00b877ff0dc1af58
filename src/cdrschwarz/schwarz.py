"""Overlapping multiplicative Schwarz coupling of subdomain solvers.

The global problem is decomposed into overlapping rectangles, each owned by
a local solver (finite element or inferred reduced model). Time marches in
windows; within a window the subdomains are swept in ascending index order,
each receiving Dirichlet values on its Schwarz boundary Gamma sampled from
the latest available donor states, until the interface traces stop changing.

Solvers are duck-typed, so tests can instrument the sweep. The coupled
loop uses this protocol:

- ``state``: the solver's own coordinates, interior nodal values for a
  finite element solver and reduced coordinates ``vhat`` for a reduced one;
  ``t``: the solver clock; ``boundary_map``: boundary node ids, whose count
  sizes the recorded traces.
- ``snapshot_state()`` / ``restore_state(snap)``: save and rewind
  ``(state, boundary trace, t)``.
- ``set_interface_values(vals)`` / ``interface_values()`` /
  ``boundary_trace()``: the Gamma part and the whole boundary trace.
- ``advance_window(t_n, t_next)``: integrate the window with Gamma values
  held fixed, leaving ``last_states`` (one column of ``state`` per
  substep, so reduced coordinates for a reduced solver) and
  ``last_traces`` (one imposed boundary trace per substep).
- ``sampler(matrix)``: a zero-argument callable returning ``matrix @
  full_field()`` from ``state`` and the trace; :class:`GatherPlan` builds
  one per (receiver, donor) pair, so a reduced donor is sampled without
  lifting its state.
- ``lift(states)``: interior nodal values of ``state`` columns.
  :func:`run_coupled` records ``state`` columns and lifts each history
  once, after the last window; ``full_field()`` and ``interior_values()``
  lift on demand for callers outside the sweep.
"""

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .mesh import BOUNDARY_TOL, Rect, build_mesh
from .fem import assemble
from .rom import RomStepper
from . import kernels, timestep

#: Relative slack when matching solver clocks against window endpoints.
_TIME_RTOL = 1e-9


@dataclass(frozen=True)
class SubdomainSpec:
    """One subdomain: its rectangle, resolution, and model assignment.

    ``model`` is ``"fe"`` or ``"rom"``; the ordering position in the
    configuration list is the subdomain index used everywhere else.
    """

    rect: Rect
    nx: int
    ny: int
    model: str = "fe"
    rom_dim: Optional[int] = None
    rom_lambda: float = 0.0

    def __post_init__(self):
        if self.model not in ("fe", "rom"):
            raise ConfigurationError(
                f"subdomain model must be 'fe' or 'rom', got {self.model!r}")
        if self.model == "rom":
            if self.rom_dim is None or self.rom_dim < 1:
                raise ConfigurationError(
                    f"rom subdomain needs a positive rank, got {self.rom_dim}")
            if not (np.isfinite(self.rom_lambda) and self.rom_lambda >= 0.0):
                raise ConfigurationError(
                    f"rom regularization must be >= 0, got {self.rom_lambda}")


@dataclass(frozen=True)
class SchwarzConfig:
    """Decomposition, window, and convergence settings of a coupled run."""

    subdomains: tuple
    dt: float
    t_end: float
    tol: float = 1e-9
    max_iters: int = 50
    t_begin: float = 0.0
    steps_per_window: int = 1
    global_rect: Rect = Rect(0.0, 1.0, 0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "subdomains", tuple(self.subdomains))
        if not self.subdomains:
            raise ConfigurationError("need at least one subdomain")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"time step must be > 0, got {self.dt}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigurationError(f"tolerance must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigurationError(
                f"max_iters must be >= 1, got {self.max_iters}")
        if self.steps_per_window < 1:
            raise ConfigurationError(
                f"steps_per_window must be >= 1, got {self.steps_per_window}")
        g = self.global_rect
        for k, spec in enumerate(self.subdomains):
            r = spec.rect
            if (r.x0 < g.x0 - BOUNDARY_TOL or r.x1 > g.x1 + BOUNDARY_TOL
                    or r.y0 < g.y0 - BOUNDARY_TOL or r.y1 > g.y1 + BOUNDARY_TOL):
                raise ConfigurationError(
                    f"subdomain {k} rectangle exceeds the global domain")
        # Validates that the horizon is an integer number of windows.
        timestep.n_steps_for(self.t_begin, self.t_end,
                             self.dt * self.steps_per_window)

    @property
    def window_dt(self):
        return self.dt * self.steps_per_window

    @property
    def n_windows(self):
        return timestep.n_steps_for(self.t_begin, self.t_end, self.window_dt)


@dataclass(frozen=True)
class SubdomainInterfaces:
    """Schwarz-boundary bookkeeping of one subdomain.

    ``gamma_positions`` index into the subdomain's boundary-node list;
    ``donors[k]`` tells which subdomain supplies the value at
    ``gamma_points[k]``.
    """

    index: int
    gamma_node_ids: np.ndarray
    gamma_positions: np.ndarray
    gamma_points: np.ndarray
    donors: np.ndarray

    @property
    def n_gamma(self):
        return self.gamma_positions.shape[0]


@dataclass(frozen=True)
class InterfaceTable:
    """Interface bookkeeping for every subdomain, plus their meshes."""

    entries: tuple
    meshes: tuple

    def donor_set(self, i):
        """Distinct donor indices feeding subdomain ``i``."""
        return sorted(set(self.entries[i].donors.tolist()))


def build_interfaces(config):
    """Identify Schwarz-boundary nodes and pick a donor for each.

    A boundary node of subdomain ``i`` not on the global border (within
    ``BOUNDARY_TOL``) is a Gamma node. Its donor is the covering subdomain
    (never itself) whose rectangle border is farthest away, so sampled
    values sit as deep inside the donor as the overlap allows; ties go to
    the lowest index. A Gamma node strictly inside no other subdomain means
    the overlap is too small to couple.
    """
    specs = config.subdomains
    meshes = tuple(build_mesh(s.rect, s.nx, s.ny) for s in specs)
    g = config.global_rect
    entries = []
    for i, mesh in enumerate(meshes):
        bids = mesh.boundary_node_ids
        pts = mesh.coords[bids]
        on_global = ((np.abs(pts[:, 0] - g.x0) <= BOUNDARY_TOL)
                     | (np.abs(pts[:, 0] - g.x1) <= BOUNDARY_TOL)
                     | (np.abs(pts[:, 1] - g.y0) <= BOUNDARY_TOL)
                     | (np.abs(pts[:, 1] - g.y1) <= BOUNDARY_TOL))
        gamma_pos = np.flatnonzero(~on_global)
        gamma_pts = pts[gamma_pos]
        donors = np.empty(gamma_pos.shape[0], dtype=np.int64)
        for k, (x, y) in enumerate(gamma_pts):
            best = -1
            best_depth = 0.0
            for j, other in enumerate(specs):
                if j == i:
                    continue
                depth = other.rect.border_distance(x, y)
                if depth > BOUNDARY_TOL and depth > best_depth + BOUNDARY_TOL:
                    best = j
                    best_depth = depth
            if best < 0:
                raise ConfigurationError(
                    f"boundary node ({x}, {y}) of subdomain {i} lies "
                    f"strictly inside no other subdomain; the overlap is "
                    f"too small")
            donors[k] = best
        entries.append(SubdomainInterfaces(
            index=i, gamma_node_ids=bids[gamma_pos],
            gamma_positions=gamma_pos, gamma_points=gamma_pts,
            donors=donors))
    return InterfaceTable(entries=tuple(entries), meshes=meshes)


class GatherPlan:
    """Precomputed donor sampling operators for every receiver.

    For each (receiver, donor) pair the bilinear interpolation matrix from
    the donor's nodes to the receiver's Gamma points is fixed, so it is
    built once up front. On first use with a given donor solver it is
    handed to the donor's :meth:`sampler`, which folds it into the donor's
    own state coordinates; a reduced donor is then gathered from without
    lifting its state.
    """

    def __init__(self, table):
        self._slots = []
        for entry in table.entries:
            groups = []
            for j in sorted(set(entry.donors.tolist())):
                idx = np.flatnonzero(entry.donors == j)
                matrix = table.meshes[j].interpolation_matrix(
                    entry.gamma_points[idx])
                # [donor index, Gamma rows, matrix, bound solver, sampler]
                groups.append([j, idx, matrix, None, None])
            self._slots.append((entry.n_gamma, groups))

    def gather(self, i, solvers):
        """Gamma values for receiver ``i`` from the donors' current states."""
        n_gamma, groups = self._slots[i]
        vals = np.empty(n_gamma)
        for group in groups:
            j, idx, matrix, bound, sampler = group
            donor = solvers[j]
            if donor is not bound:
                sampler = donor.sampler(matrix)
                group[3], group[4] = donor, sampler
            vals[idx] = sampler()
        return vals


def _row_slots(matrix):
    """Column and weight slots ``(k, n_rows)`` of a k-entries-per-row matrix.

    Slot ``s`` holds each row's ``s``-th entry in ascending column order, so
    summing the slot products over axis 0 accumulates every row in column
    order, as the bilinear four-corner blend does.
    """
    csr = matrix.tocsr()
    csr.sort_indices()
    n_rows = csr.shape[0]
    if np.any(np.diff(csr.indptr) != csr.indptr[1]):
        raise ConfigurationError(
            "sampling matrix rows must hold equally many entries")
    return (csr.indices.reshape(n_rows, -1).T.astype(np.int64),
            csr.data.reshape(n_rows, -1).T.copy())


def _dirichlet_closure(params, coords):
    """Physical-boundary trace evaluator over fixed coordinates."""
    g = None if params is None else params.dirichlet
    n = coords.shape[0]
    if g is None:
        const = np.zeros(n)
        return lambda t: const
    if np.isscalar(g):
        const = np.full(n, float(g))
        return lambda t: const
    x = coords[:, 0].copy()
    y = coords[:, 1].copy()
    return lambda t: np.broadcast_to(
        np.asarray(g(x, y, t), dtype=float), (n,))


class _SubdomainSolverBase:
    """Shared trace, sampling, and snapshot bookkeeping of subdomain solvers.

    Subclasses keep their own coordinates in ``state`` and map them to
    interior nodal values with :meth:`lift`.
    """

    def __init__(self, spec, mesh, params, dt, gamma_positions, t0):
        self.spec = spec
        self.mesh = mesh
        self.params = params
        self.dt = float(dt)
        self.boundary_map = mesh.boundary_node_ids
        self.interior_map = mesh.interior_node_ids
        n_b = self.boundary_map.shape[0]
        self.gamma_positions = np.asarray(gamma_positions, dtype=np.int64)
        mask = np.ones(n_b, dtype=bool)
        mask[self.gamma_positions] = False
        self.physical_positions = np.flatnonzero(mask)
        self._physical_trace = _dirichlet_closure(
            params, mesh.coords[self.boundary_map[self.physical_positions]])
        self.g_cur = np.zeros(n_b)
        self.g_cur[self.physical_positions] = self._physical_trace(t0)
        self.t = float(t0)
        self.state = None
        self._field = None
        self._window_snapshot = None
        self._span_cache = None
        self._span_n = 0
        self.last_states = None
        self.last_traces = None

    # -- interface trace handling ------------------------------------

    def set_interface_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self.gamma_positions.shape:
            raise ConfigurationError(
                f"expected {self.gamma_positions.shape[0]} interface "
                f"values, got {values.shape}")
        self.g_cur[self.gamma_positions] = values
        self._field = None

    def interface_values(self):
        return self.g_cur[self.gamma_positions].copy()

    def boundary_trace(self):
        return self.g_cur.copy()

    # -- sampling ------------------------------------------------------

    def interior_values(self):
        """Current interior nodal values (lifted for a reduced solver)."""
        return self.lift(self.state)

    def full_field(self):
        """Current nodal field: interior state merged with boundary trace."""
        if self._field is None:
            f = np.empty(self.mesh.n_nodes)
            f[self.interior_map] = self.interior_values()
            f[self.boundary_map] = self.g_cur
            self._field = f
        return self._field

    def sampler(self, matrix):
        """Callable returning ``matrix @ full_field()`` for the current state.

        ``matrix`` is a sparse operator on this solver's nodal field, such
        as ``StructuredMesh.interpolation_matrix``. The callable works from
        ``state`` and the boundary trace directly and never assembles the
        nodal field.
        """
        raise NotImplementedError

    # -- state management ----------------------------------------------

    def snapshot_state(self):
        return (self.state.copy(), self.g_cur.copy(), self.t)

    def restore_state(self, snap):
        state, g, t = snap
        self.state = state.copy()
        self.g_cur = g.copy()
        self.t = t
        self._field = None

    def _n_substeps(self, t_n, t_next):
        if self._span_cache != (t_n, t_next):
            self._span_cache = (t_n, t_next)
            self._span_n = timestep.n_steps_for(t_n, t_next, self.dt)
        return self._span_n

    def _finish_window(self, t_next, states, traces):
        self.t = float(t_next)
        self._field = None
        self.last_states = states
        self.last_traces = traces

    # -- subclass hooks ---------------------------------------------------

    def lift(self, states):
        """Interior nodal values of ``state`` vectors (or their columns)."""
        raise NotImplementedError

    def advance_window(self, t_n, t_next):
        raise NotImplementedError


class FESubdomainSolver(_SubdomainSolverBase):
    """Finite element subdomain: assembled system plus implicit Euler.

    ``state`` holds the interior nodal values.
    """

    def __init__(self, spec, mesh, params, dt, gamma_positions, t0=0.0,
                 initial=None):
        super().__init__(spec, mesh, params, dt, gamma_positions, t0)
        self.system = assemble(mesh, params)
        self.stepper = timestep.factorize(self.system, dt)
        self.state = (np.zeros(self.system.n_interior) if initial is None
                      else np.array(initial, dtype=float))
        if self.state.shape != (self.system.n_interior,):
            raise ConfigurationError(
                f"initial state has shape {self.state.shape}, expected "
                f"({self.system.n_interior},)")
        # Trace the current state is consistent with: the one imposed while
        # stepping into the current time (feeds the moving-boundary mass
        # term of the next step).
        self._g_committed = self.g_cur.copy()

    def lift(self, states):
        return states

    def sampler(self, matrix):
        # The nodal field is [state; g_cur] up to a permutation of nodes, so
        # each row of ``matrix`` (W_I state + W_B g_cur) is evaluated on the
        # concatenation. Row entries are summed in ascending node order,
        # which reproduces the bilinear four-corner gather bitwise.
        n_i = self.interior_map.shape[0]
        position = np.empty(self.mesh.n_nodes, dtype=np.int64)
        position[self.interior_map] = np.arange(n_i)
        position[self.boundary_map] = n_i + np.arange(
            self.boundary_map.shape[0])
        columns, weights = _row_slots(matrix)
        columns = position[columns]
        return lambda: np.add.reduce(
            weights * np.concatenate((self.state, self.g_cur)).take(columns),
            axis=0)

    def restore_state(self, snap):
        super().restore_state(snap)
        self._g_committed = self.g_cur.copy()

    def advance_window(self, t_n, t_next):
        """Integrate [t_n, t_next] holding Gamma values fixed.

        Physical boundary values follow the prescribed data at each substep
        time; the interface part of the trace stays as last set. The substep
        history is kept on the solver for the orchestrator to record.
        """
        n = self._n_substeps(t_n, t_next)
        states = np.empty((self.state.shape[0], n))
        traces = np.empty((self.boundary_map.shape[0], n))
        g_prev = self._g_committed
        for j in range(n):
            t_j = t_n + (j + 1) * self.dt
            self.g_cur[self.physical_positions] = self._physical_trace(t_j)
            self.state = self.stepper.step(self.state, self.g_cur, t_j,
                                           g_prev)
            states[:, j] = self.state
            traces[:, j] = self.g_cur
            g_prev = self.g_cur.copy()
        self._g_committed = g_prev
        self._finish_window(t_next, states, traces)


class RomSubdomainSolver(_SubdomainSolverBase):
    """Reduced subdomain: inferred operators driven by the boundary trace.

    ``state`` holds the reduced coordinates ``vhat``. The reduced model's
    input vector is the full boundary trace in boundary-node order
    (physical and Schwarz parts alike), matching the traces recorded during
    training.
    """

    def __init__(self, spec, mesh, params, dt, gamma_positions, basis, ops,
                 t0=0.0):
        super().__init__(spec, mesh, params, dt, gamma_positions, t0)
        n_interior = self.interior_map.shape[0]
        n_b = self.boundary_map.shape[0]
        if basis.n != n_interior:
            raise ConfigurationError(
                f"basis spans {basis.n} rows but the mesh has {n_interior} "
                f"interior nodes")
        if ops.r != basis.r:
            raise ConfigurationError(
                f"operators have rank {ops.r} but the basis rank is {basis.r}")
        if ops.m != n_b:
            raise ConfigurationError(
                f"operators take {ops.m} boundary inputs but the mesh has "
                f"{n_b} boundary nodes")
        self.basis = basis
        self.ops = ops
        self.stepper = RomStepper(ops, dt)
        self._P, Q, self._q = self.stepper.propagators()
        self._Q_gamma = Q[:, self.gamma_positions]
        self._Q_physical = Q[:, self.physical_positions]
        self.state = np.zeros(ops.r)
        self._window = None

    def lift(self, states):
        return self.basis.Psi @ states

    def sampler(self, matrix):
        # W_I Psi is folded once, so a sample costs an (n x r) matvec on
        # vhat plus the trace part; the state is never lifted.
        matrix = matrix.tocsc()
        reduced = np.asarray(matrix[:, self.interior_map] @ self.basis.Psi)
        boundary = matrix[:, self.boundary_map]
        cols = np.flatnonzero(np.diff(boundary.indptr))
        if cols.size == 0:
            return lambda: reduced @ self.state
        weights = boundary[:, cols].toarray()
        return lambda: reduced @ self.state + weights @ self.g_cur.take(cols)

    def _prepare_window(self, t_n, t_next):
        # Everything but the Gamma values is fixed within a window, so the
        # physical traces and their reduced forcing are computed once per
        # window and reused by every sweep.
        n = self._n_substeps(t_n, t_next)
        physical = np.column_stack(
            [self._physical_trace(t_n + (j + 1) * self.dt) for j in range(n)])
        self._forcing = self._Q_physical @ physical + self._q[:, None]
        self._traces = np.empty((self.boundary_map.shape[0], n))
        self._traces[self.physical_positions] = physical
        self._window = (t_n, t_next)

    def advance_window(self, t_n, t_next):
        """Integrate [t_n, t_next] in reduced coordinates, Gamma held fixed.

        Each substep is the explicit implicit-Euler update ``vhat <- P vhat
        + Q_Gamma gamma + c(t_j)``, with ``c(t_j)`` the physical-trace and
        constant forcing at the substep time. ``last_states`` holds the
        reduced coordinates; nothing is lifted here.
        """
        if self._window != (t_n, t_next):
            self._prepare_window(t_n, t_next)
        gamma = self.g_cur.take(self.gamma_positions)
        drive = self._Q_gamma @ gamma
        forcing = self._forcing
        states = np.empty((self.state.shape[0], forcing.shape[1]))
        vhat = self.state
        for j in range(forcing.shape[1]):
            vhat = self._P @ vhat + drive + forcing[:, j]
            states[:, j] = vhat
        self.state = vhat
        traces = self._traces.copy()
        traces[self.gamma_positions] = gamma[:, None]
        self.g_cur[self.physical_positions] = \
            traces[self.physical_positions, -1]
        self._finish_window(t_next, states, traces)


def _matches(t_a, t_b):
    return abs(t_a - t_b) <= _TIME_RTOL * max(1.0, abs(t_a), abs(t_b))


def schwarz_window(solvers, interfaces, t_n, t_next, tol, max_iters,
                   plan=None):
    """One multiplicative Schwarz fixed point over [t_n, t_next].

    Sweeps the subdomains in ascending order: gather Gamma values from the
    donors' current fields (subdomains already advanced this iteration
    contribute their new state), rewind to the window start, impose, and
    advance. Converged once the relative sup-norm trace change of every
    subdomain drops to ``tol``.

    Returns ``(iterations, converged)``; the converged states live in the
    solvers. A solver already advanced through this very window is rewound
    from its remembered window-start snapshot, so re-running a converged
    window terminates after one cheap iteration.
    """
    if plan is None:
        plan = GatherPlan(interfaces)
    for k, s in enumerate(solvers):
        if _matches(s.t, t_n):
            s._window_snapshot = s.snapshot_state()
        elif not (s._window_snapshot is not None
                  and _matches(s._window_snapshot[2], t_n)):
            raise ConfigurationError(
                f"solver {k} is at t={s.t}, not at the window start "
                f"t={t_n}, and has no snapshot there")
    prev = [s.interface_values() for s in solvers]
    for iteration in range(1, max_iters + 1):
        change = 0.0
        for i, s in enumerate(solvers):
            vals = plan.gather(i, solvers)
            if not kernels.all_finite(vals):
                raise DivergenceError(
                    f"non-finite interface values gathered for subdomain "
                    f"{i} at t={t_next}")
            s.restore_state(s._window_snapshot)
            s.set_interface_values(vals)
            s.advance_window(t_n, t_next)
            if not kernels.all_finite(s.last_states.ravel()):
                raise DivergenceError(
                    f"subdomain {i} produced a non-finite state at "
                    f"t={t_next}")
            change = max(change, kernels.relative_sup_change(vals, prev[i]))
            prev[i] = vals
        if change <= tol:
            return iteration, True
    return max_iters, False


@dataclass
class RunResult:
    """Everything a coupled run produces, including phase timings."""

    times: np.ndarray
    trajectories: List[timestep.Trajectory]
    iterations: np.ndarray
    window_converged: np.ndarray
    timings: dict
    table: InterfaceTable
    solvers: list
    config: SchwarzConfig

    @property
    def converged(self):
        return bool(self.window_converged.all())

    @property
    def meshes(self):
        return self.table.meshes


def run_coupled(config, solver_factory):
    """March coupled subdomains over the full horizon, window by window.

    ``solver_factory(spec, mesh, interface_entry, config)`` builds each
    subdomain solver. Every substep state and imposed boundary trace is
    recorded (the traces double as reduced-model training inputs); wall
    clock is split into a setup phase and a solve phase.
    """
    t0 = time.perf_counter()
    table = build_interfaces(config)
    solvers = [solver_factory(spec, table.meshes[i], table.entries[i], config)
               for i, spec in enumerate(config.subdomains)]
    plan = GatherPlan(table)
    for i, s in enumerate(solvers):
        s.set_interface_values(plan.gather(i, solvers))
    setup_seconds = time.perf_counter() - t0

    n_steps = timestep.n_steps_for(config.t_begin, config.t_end, config.dt)
    times = config.t_begin + config.dt * np.arange(n_steps + 1)
    # States are recorded in each solver's own coordinates and lifted to
    # interior nodal values once, after the last window.
    states = [np.empty((s.state.shape[0], n_steps + 1)) for s in solvers]
    traces = [np.empty((s.boundary_map.shape[0], n_steps + 1))
              for s in solvers]
    for i, s in enumerate(solvers):
        states[i][:, 0] = s.state
        traces[i][:, 0] = s.boundary_trace()

    n_windows = config.n_windows
    iterations = np.zeros(n_windows, dtype=np.int64)
    window_converged = np.zeros(n_windows, dtype=bool)
    spw = config.steps_per_window

    t1 = time.perf_counter()
    for w in range(n_windows):
        t_w = config.t_begin + w * config.window_dt
        iters, ok = schwarz_window(solvers, table, t_w, t_w + config.window_dt,
                                   config.tol, config.max_iters, plan)
        iterations[w] = iters
        window_converged[w] = ok
        lo = 1 + w * spw
        for i, s in enumerate(solvers):
            states[i][:, lo:lo + spw] = s.last_states
            traces[i][:, lo:lo + spw] = s.last_traces
    states = [s.lift(x) for s, x in zip(solvers, states)]
    solve_seconds = time.perf_counter() - t1

    trajectories = [timestep.Trajectory(times=times.copy(), states=states[i],
                                        boundary_traces=traces[i])
                    for i in range(len(solvers))]
    return RunResult(times=times, trajectories=trajectories,
                     iterations=iterations, window_converged=window_converged,
                     timings={"setup_seconds": setup_seconds,
                              "solve_seconds": solve_seconds},
                     table=table, solvers=solvers, config=config)


class StitchPlan:
    """Precomputed overlap-averaging operators onto a global mesh."""

    def __init__(self, config, global_mesh, meshes=None):
        if meshes is None:
            meshes = tuple(build_mesh(s.rect, s.nx, s.ny)
                           for s in config.subdomains)
        pts = global_mesh.coords
        counts = np.zeros(pts.shape[0])
        self._pieces = []
        for spec, mesh in zip(config.subdomains, meshes):
            covered = spec.rect.contains_points(pts)
            idx = np.flatnonzero(covered)
            matrix = mesh.interpolation_matrix(pts[idx])
            self._pieces.append((idx, matrix))
            counts[idx] += 1.0
        if np.any(counts == 0.0):
            bad = int(np.flatnonzero(counts == 0.0)[0])
            raise ConfigurationError(
                f"global node ({pts[bad, 0]}, {pts[bad, 1]}) is covered by "
                f"no subdomain")
        self._counts = counts
        self.n_nodes = pts.shape[0]

    def apply(self, fields):
        """Average per-subdomain nodal fields node by node.

        Accepts single fields ``(n_i,)`` or histories ``(n_i, n_t)`` with
        one column per time.
        """
        first = np.asarray(fields[0])
        if first.ndim == 1:
            acc = np.zeros(self.n_nodes)
            counts = self._counts
        else:
            acc = np.zeros((self.n_nodes, first.shape[1]))
            counts = self._counts[:, None]
        for (idx, matrix), f in zip(self._pieces, fields):
            acc[idx] += matrix @ f
        return acc / counts


def stitch(config, fields, global_mesh, meshes=None, plan=None):
    """Combine per-subdomain nodal fields into one global nodal field.

    Each global node takes the average of the bilinear samples of every
    subdomain whose rectangle contains it.
    """
    if plan is None:
        plan = StitchPlan(config, global_mesh, meshes)
    return plan.apply(fields)
