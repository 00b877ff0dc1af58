"""Overlapping multiplicative Schwarz coupling of subdomain solvers.

The global problem is decomposed into overlapping rectangles, each owned by
a local solver (finite element or inferred reduced model). Time marches in
windows; within a window the subdomains are swept in ascending index order,
each receiving Dirichlet values on its Schwarz boundary Gamma sampled from
the latest available donor states, until the interface traces stop changing.
In the first sweep a Gamma row whose donor comes earlier in the sweep gets
that donor's freshly advanced state; a row whose donor comes later (a
*late row*) would get the donor's window-start state, one window behind.
:func:`run_coupled` passes a :class:`LateRowHistory`, which samples every
late row once per window, at the window start, and feeds each the
polynomial extrapolation of its values at the last few window starts.
Physical-boundary data are read through
:func:`~cdrschwarz.fem.profile_closure`, so data that do not depend on
time are evaluated once per solver.

A maximal run of consecutive reduced subdomains in the sweep is advanced
as one :class:`ReducedBlock`: its visits are affine maps of the window-start
states and Gamma values, which forward substitution composes, once per run,
into one dense map that every sweep applies, sized by the run's reduced
ranks and Gamma rows but not by the substeps per window. The loop's
bookkeeping is per window and per sweep, not per visit: every state is
snapshot by reference, finiteness and convergence are checked once per
sweep on the concatenated values, and the block replays and records the
substep ``last_states``/``last_traces`` after the final sweep only. A
finite element subdomain is advanced in a window's first sweep only; in
later sweeps its window end moves by its Gamma response, computed once
per solver (see :class:`FESubdomainSolver`).

A window is ``steps`` substeps of ``dt``, both fixed per run and given to
every solver when it is built; solvers keep no clock, and
:func:`schwarz_window` is told the window start ``t_n``.

A :class:`GatherPlan`, built once per coupled run, holds the solvers and
hands them to every window. Solvers are duck-typed, so tests can
instrument the sweep. Finite element and other non-reduced solvers are
visited one at a time through this protocol:

- ``state``: the solver's own coordinates, interior nodal values for a
  finite element solver and reduced coordinates ``vhat`` for a reduced one;
  ``boundary_map``: boundary node ids, whose count sizes the recorded
  traces; ``dt`` and ``steps``: the substep and the substeps per window.
- ``snapshot_state()`` / ``restore_state(snap)``: save and rewind
  ``(state, boundary trace)``, the state by reference (``state`` arrays are
  replaced, never written in place) and the trace by copy.
- ``set_interface_values(vals)`` / ``interface_values()`` /
  ``boundary_trace()``: the Gamma part and the whole boundary trace.
- ``advance_window(t_n)``: integrate the ``steps`` substeps from ``t_n``
  with Gamma values held fixed, leaving ``last_states`` (one column of
  ``state`` per substep, so reduced coordinates for a reduced solver) and
  ``last_traces`` (one imposed boundary trace per substep). Only a
  window's first sweep advances a visited solver.
- ``respond(vals)``: in every later sweep, impose Gamma values ``vals``
  on the window the last ``advance_window`` integrated and move ``state``
  to that window's end, which is affine in them, without integrating.
  ``finish_window(t_n)``: after a final sweep that was not the first,
  record that window's ``last_states``/``last_traces`` for the values
  last imposed.
- ``coordinate_operator(matrix)``: ``matrix``, an operator on the nodal
  field, as one on the coordinates ``[state; g_cur]``. The plan stacks
  every (receiver, donor) interpolation matrix, so converted, into one CSR
  operator on the concatenated coordinates of all solvers; a gather is a
  row slice of it times those coordinates, and a reduced donor is sampled
  without lifting its state.
- ``lift(states)``: interior nodal values of ``state`` columns.
  :func:`run_coupled` records ``state`` columns and lifts each history
  once, after the last window, for a :class:`StitchPlan` to average onto
  the global mesh; ``full_field()`` lifts the current state on demand.

A :class:`RomSubdomainSolver` in a block is never visited on its own: the
block reads its propagators and the plan's operator to compose the map,
and leaves ``state``, the trace and, after the final sweep,
``last_states``/``last_traces`` on it, replayed by the solver's own
substep recurrence. Its ``advance_window`` stays for callers outside the
sweep.
"""

import math
import time
from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConfigurationError, DivergenceError
from .mesh import BOUNDARY_TOL, Rect, build_mesh
from .fem import assemble, profile_closure
from .rom import RomStepper
from . import kernels, timestep

#: The global domain, the unit square; every coupled run starts at t = 0.
GLOBAL_RECT = Rect(0.0, 1.0, 0.0, 1.0)

#: Degree of the first-sweep late-row extrapolation, which runs through up
#: to ``PREDICTOR_DEPTH + 1`` window starts. Total sweeps on the default
#: study (all-FE / hybrid) by degree: 0 (no prediction) 2045/2470, 1
#: 1894/2055, 2 1813/1946, 3 1593/1720, 4 1410/1533, 5 1395/1522, 8
#: 1386/1512; the gain levels off past 4.
PREDICTOR_DEPTH = 4

#: Entry ``k``: weights, newest anchor first, of the degree-``k`` polynomial
#: through ``k + 1`` equally spaced anchors evaluated one spacing past the
#: newest, ``(-1)**m * C(k + 1, m + 1)`` (``k = 1``: 2, -1), as a column.
_EXTRAPOLATION = tuple(
    np.array([[(-1) ** m * math.comb(k + 1, m + 1)] for m in range(k + 1)],
             dtype=float)
    for k in range(PREDICTOR_DEPTH + 1))


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
    steps_per_window: int = 1

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
        g = GLOBAL_RECT
        for k, spec in enumerate(self.subdomains):
            r = spec.rect
            if (r.x0 < g.x0 - BOUNDARY_TOL or r.x1 > g.x1 + BOUNDARY_TOL
                    or r.y0 < g.y0 - BOUNDARY_TOL or r.y1 > g.y1 + BOUNDARY_TOL):
                raise ConfigurationError(
                    f"subdomain {k + 1} rectangle exceeds the global domain")
        # Validates that the horizon is an integer number of windows.
        timestep.n_steps_for(0.0, self.t_end, self.dt * self.steps_per_window)

    @property
    def window_dt(self):
        return self.dt * self.steps_per_window

    @property
    def n_windows(self):
        return timestep.n_steps_for(0.0, self.t_end, self.window_dt)


@dataclass(frozen=True)
class SubdomainInterfaces:
    """Schwarz-boundary bookkeeping of one subdomain.

    ``gamma_positions`` index into the subdomain's boundary-node list;
    ``donors[k]`` tells which subdomain supplies the value at
    ``gamma_points[k]``.
    """

    index: int
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
    g = GLOBAL_RECT
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
                    f"boundary node ({x}, {y}) of subdomain {i + 1} lies "
                    f"strictly inside no other subdomain; the overlap is "
                    f"too small")
            donors[k] = best
        entries.append(SubdomainInterfaces(
            index=i, gamma_positions=gamma_pos, gamma_points=gamma_pts,
            donors=donors))
    return InterfaceTable(entries=tuple(entries), meshes=meshes)


class GatherPlan:
    """One sparse sampling operator for every receiver's Gamma values.

    For each (receiver, donor) pair the bilinear interpolation matrix from
    the donor's nodes to the receiver's Gamma points is fixed. The plan
    hands each matrix to its donor's :meth:`coordinate_operator`, which
    folds it into the donor's coordinates ``[state; g_cur]``, and stacks the
    results into one CSR ``operator`` from the concatenated coordinates of
    ``solvers`` to the sweep's concatenated Gamma values. A gather is a row
    slice of it times the current coordinates, so a reduced donor is
    sampled without lifting its state. The plan serves the solvers it was
    built with, for the whole coupled run.
    """

    def __init__(self, table, solvers):
        self.solvers = tuple(solvers)
        counts = np.array([e.n_gamma for e in table.entries], dtype=np.int64)
        #: Receiver ``i``'s rows in a sweep's concatenated Gamma values are
        #: ``offsets[i]:offsets[i + 1]``; ``starts`` are the nonempty ones.
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.starts = self.offsets[:-1][counts > 0]
        #: The donor of each row of the concatenated Gamma values.
        self.donors = np.concatenate([e.donors for e in table.entries])
        #: Solver ``k``'s coordinates are ``columns[k]:columns[k + 1]``.
        self.columns = np.concatenate(([0], np.cumsum(
            [s.state.shape[0] + s.g_cur.shape[0] for s in solvers])))
        empty = np.zeros(0, dtype=np.int64)
        rows, cols, data = [empty], [empty], [np.zeros(0)]
        for i, entry in enumerate(table.entries):
            for j in sorted(set(entry.donors.tolist())):
                idx = np.flatnonzero(entry.donors == j)
                block = csr_matrix(solvers[j].coordinate_operator(
                    table.meshes[j].interpolation_matrix(
                        entry.gamma_points[idx])))
                rows.append(np.repeat(self.offsets[i] + idx,
                                      np.diff(block.indptr)))
                cols.append(block.indices + self.columns[j])
                data.append(block.data)
        # A stable sort by row keeps each row's entries in the order its
        # donor gave them, which is the order the product sums them in.
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(
            np.bincount(rows, minlength=int(self.offsets[-1])))))
        self.operator = csr_matrix(
            (np.concatenate(data)[order], np.concatenate(cols)[order], indptr),
            shape=(int(self.offsets[-1]), int(self.columns[-1])))
        self._rows = [self.operator[a:b]
                      for a, b in zip(self.offsets[:-1], self.offsets[1:])]
        #: The sweep in order: subdomain indices visited one at a time and a
        #: :class:`ReducedBlock` per maximal run of reduced subdomains.
        self.units = []
        for reduced, run in groupby(
                range(len(solvers)),
                key=lambda i: isinstance(solvers[i], RomSubdomainSolver)):
            if reduced:
                self.units.append(ReducedBlock(list(run), self))
            else:
                self.units.extend(run)

    def coordinates(self):
        """The solvers' current ``[state; g_cur]``, concatenated."""
        return np.concatenate(
            [a for s in self.solvers for a in (s.state, s.g_cur)])

    def gather(self, i):
        """Gamma values for receiver ``i`` from the donors' current states."""
        return self._rows[i] @ self.coordinates()


class LateRowHistory:
    """First-sweep predictor of every late Gamma row of the sweep.

    A late row of receiver ``i`` is one whose donor ``j > i`` has not been
    advanced yet when the first sweep reaches ``i``, so its gathered value
    is the donor's window-start state. :meth:`start_window` samples every
    late row there at once, keeps the samples of the last
    ``PREDICTOR_DEPTH + 1`` window starts, and predicts each row by the
    polynomial through them, evaluated at the window end; :meth:`impose`
    hands a receiver its rows of that prediction. The anchors are sampled
    donor states, never the imposed (predicted) values, so prediction
    errors do not accumulate.
    """

    def __init__(self, plan):
        self._plan = plan
        receivers = np.repeat(np.arange(plan.offsets.shape[0] - 1),
                              np.diff(plan.offsets))
        #: Late rows of the sweep's concatenated Gamma values, ascending.
        self._rows = np.flatnonzero(plan.donors > receivers)
        self._sample = plan.operator[self._rows]
        self._anchors = np.empty((PREDICTOR_DEPTH + 1, self._rows.shape[0]))
        self._held = 0

    def start_window(self):
        """Sample every late row from the solvers' current, window-start
        coordinates as the newest anchor and predict the window end. Call
        once per window, before the first sweep moves any solver; with no
        earlier anchor the prediction is the sample."""
        self._anchors[1:] = self._anchors[:-1]
        self._anchors[0] = self._sample @ self._plan.coordinates()
        self._held = min(self._held + 1, PREDICTOR_DEPTH + 1)
        k = self._held - 1
        # Summed anchor by anchor, newest first, in numpy rather than by a
        # BLAS product, so the rounding, which training amplifies, does not
        # depend on the BLAS build.
        self._prediction = np.add.reduce(
            _EXTRAPOLATION[k] * self._anchors[:k + 1], axis=0)

    def impose(self, vals, lo, hi):
        """Overwrite, in place, the late rows among the sweep's Gamma rows
        ``lo:hi``, which ``vals`` holds, with their prediction."""
        a, b = np.searchsorted(self._rows, (lo, hi))
        vals[self._rows[a:b] - lo] = self._prediction[a:b]


class _SubdomainSolverBase:
    """Shared trace, sampling, and snapshot bookkeeping of subdomain solvers.

    Subclasses keep their own coordinates in ``state`` and map them to
    interior nodal values with :meth:`lift`. A window is ``steps`` substeps
    of ``dt``.
    """

    def __init__(self, spec, mesh, params, dt, steps, gamma_positions):
        self.spec = spec
        self.mesh = mesh
        self.dt = float(dt)
        self.steps = int(steps)
        self.boundary_map = mesh.boundary_node_ids
        self.interior_map = mesh.interior_node_ids
        n_b = self.boundary_map.shape[0]
        self.gamma_positions = np.asarray(gamma_positions, dtype=np.int64)
        mask = np.ones(n_b, dtype=bool)
        mask[self.gamma_positions] = False
        self.physical_positions = np.flatnonzero(mask)
        #: ``_steady``: the physical trace never changes.
        xy = mesh.coords[self.boundary_map[self.physical_positions]]
        self._physical_trace, self._steady = profile_closure(
            params.dirichlet, xy[:, 0], xy[:, 1])
        self.g_cur = np.zeros(n_b)
        self.g_cur[self.physical_positions] = self._physical_trace(0.0)
        self.state = None
        self._window_snapshot = None
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

    def interface_values(self):
        return self.g_cur[self.gamma_positions].copy()

    def boundary_trace(self):
        return self.g_cur.copy()

    # -- sampling ------------------------------------------------------

    def full_field(self):
        """Current nodal field: interior state merged with boundary trace."""
        f = np.empty(self.mesh.n_nodes)
        f[self.interior_map] = self.lift(self.state)
        f[self.boundary_map] = self.g_cur
        return f

    def coordinate_operator(self, matrix):
        """``matrix``, an operator on this solver's nodal field such as
        ``StructuredMesh.interpolation_matrix``, as an operator on its
        coordinates ``[state; g_cur]``: their product is ``matrix @
        full_field()`` without the nodal field ever being assembled.
        """
        raise NotImplementedError

    # -- state management ----------------------------------------------

    def snapshot_state(self):
        # The state by reference: ``state`` arrays are replaced, never
        # written in place; the trace is written in place.
        return (self.state, self.g_cur.copy())

    def restore_state(self, snap):
        self.state = snap[0]
        self.g_cur = snap[1].copy()

    # -- subclass hooks ---------------------------------------------------

    def lift(self, states):
        """Interior nodal values of ``state`` vectors (or their columns)."""
        raise NotImplementedError

    def advance_window(self, t_n):
        raise NotImplementedError


class FESubdomainSolver(_SubdomainSolverBase):
    """Finite element subdomain: assembled system plus implicit Euler.

    ``state`` holds the interior nodal values. Within a window the step is
    affine in the Gamma values, which are held fixed, so once an
    :meth:`advance_window` from the window start has taken Gamma values
    ``gamma_1`` to the window-end state ``v_1``, any other Gamma values
    ``gamma`` give ``v_1 + Y (gamma - gamma_1)``: :meth:`respond`, with no
    sparse solve. ``Y``, the Gamma response, is computed once per solver.
    """

    def __init__(self, spec, mesh, params, dt, steps, gamma_positions):
        super().__init__(spec, mesh, params, dt, steps, gamma_positions)
        self.system = system = assemble(mesh, params)
        self.stepper = timestep.ImplicitEulerStepper(system, dt)
        self.state = np.zeros(system.n_interior)
        # Trace the current state is consistent with: the one imposed while
        # stepping into the current time (feeds the moving-boundary mass
        # term of the next step).
        self._g_committed = self.g_cur.copy()
        # Y, the window-end state's derivative in the Gamma values. The
        # first substep sees them in the stiffness and moving-boundary mass
        # terms (the committed trace is fixed); later substeps hold them, so
        # only the stiffness term and the carried state depend on them.
        stiffness = self.dt * system.A_IB[:, self.gamma_positions].toarray()
        y = self.stepper.solve(
            -stiffness - system.M_IB[:, self.gamma_positions].toarray())
        for _ in range(1, self.steps):
            y = self.stepper.solve(system.M @ y - stiffness)
        self._response = y
        #: The last advance's start ``(state, committed trace)`` and its
        #: anchor ``(end state, Gamma values)``.
        self._start = self._anchor = None

    def lift(self, states):
        return states

    def coordinate_operator(self, matrix):
        # Node ids become coordinate positions and each row keeps its
        # entries in node order, so a CSR product sums them as ``matrix @
        # full_field()`` does, bitwise.
        position = np.argsort(np.concatenate((self.interior_map,
                                              self.boundary_map)))
        matrix = matrix.tocsr()
        return csr_matrix(
            (matrix.data, position[matrix.indices], matrix.indptr),
            shape=(matrix.shape[0], position.shape[0]))

    def restore_state(self, snap):
        super().restore_state(snap)
        # Only read, as is the snapshot's trace.
        self._g_committed = snap[1]

    def _substeps(self, t_n, v, g_prev, states, traces):
        """Step ``v``, stepped into trace ``g_prev``, from ``t_n`` through
        the window's first substeps, one per column of ``states`` and
        ``traces``, which receive them; returns the last state. Physical
        boundary values follow the data; Gamma values stay as in ``g_cur``.
        """
        for j in range(states.shape[1]):
            t_j = t_n + (j + 1) * self.dt
            if not self._steady:
                self.g_cur[self.physical_positions] = self._physical_trace(t_j)
            v = self.stepper.step(v, self.g_cur, t_j, g_prev)
            states[:, j] = v
            traces[:, j] = self.g_cur
            g_prev = traces[:, j]
        return v

    def advance_window(self, t_n):
        """Integrate the window from ``t_n`` holding Gamma values fixed.

        Physical boundary values follow the prescribed data at each substep
        time; the interface part of the trace stays as last set. The substep
        history is kept on the solver for the orchestrator to record, and
        the window end anchors :meth:`respond`.
        """
        states = np.empty((self.state.shape[0], self.steps))
        traces = np.empty((self.boundary_map.shape[0], self.steps))
        self._start = (self.state, self._g_committed)
        self.state = self._substeps(t_n, *self._start, states, traces)
        self._g_committed = self.g_cur.copy()
        self.last_states, self.last_traces = states, traces
        self._anchor = (self.state, self.g_cur.take(self.gamma_positions))

    def respond(self, values):
        """Impose Gamma ``values`` on the window the last
        :meth:`advance_window` integrated: its end state moved by the Gamma
        response, its window-end physical trace kept. ``last_states`` and
        ``last_traces`` wait for :meth:`finish_window`."""
        self.set_interface_values(values)
        state, gamma = self._anchor
        self.state = state + self._response @ (
            self.g_cur.take(self.gamma_positions) - gamma)

    def finish_window(self, t_n):
        """Record the window from ``t_n`` after :meth:`respond` moved its end.

        The substeps before the window end are replayed from the last
        advance's start with the final Gamma values; the window end is the
        last response.
        """
        end = self.g_cur.copy()
        states = np.empty((self.state.shape[0], self.steps))
        traces = np.empty((end.shape[0], self.steps))
        self._substeps(t_n, *self._start, states[:, :-1], traces[:, :-1])
        states[:, -1] = self.state
        traces[:, -1] = end
        self.g_cur = end
        self._g_committed = end.copy()
        self.last_states, self.last_traces = states, traces


class RomSubdomainSolver(_SubdomainSolverBase):
    """Reduced subdomain: inferred operators driven by the boundary trace.

    ``state`` holds the reduced coordinates ``vhat``. The reduced model's
    input vector is the full boundary trace in boundary-node order
    (physical and Schwarz parts alike), matching the traces recorded during
    training.
    """

    def __init__(self, spec, mesh, params, dt, steps, gamma_positions, basis,
                 ops):
        super().__init__(spec, mesh, params, dt, steps, gamma_positions)
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
        self._P, Q, self._q = RomStepper(ops, dt).propagators()
        self._Q_gamma = Q[:, self.gamma_positions]
        self._Q_physical = Q[:, self.physical_positions]
        self.state = np.zeros(ops.r)

    def lift(self, states):
        return self.basis.Psi @ states

    def coordinate_operator(self, matrix):
        # Dense ``[W_I Psi | W_B]`` on ``[vhat; g_cur]``: the state is never
        # lifted.
        matrix = matrix.tocsc()
        return np.hstack((matrix[:, self.interior_map] @ self.basis.Psi,
                          matrix[:, self.boundary_map].toarray()))

    def _prepare_window(self, t_n):
        # Everything but the Gamma values is fixed within a window, so the
        # physical traces and their reduced forcing are computed once per
        # window and reused by every sweep.
        physical = np.column_stack(
            [self._physical_trace(t_n + (j + 1) * self.dt)
             for j in range(self.steps)])
        self._forcing = self._Q_physical @ physical + self._q[:, None]
        self._traces = np.empty((self.boundary_map.shape[0], self.steps))
        self._traces[self.physical_positions] = physical

    def _substeps(self, vhat, gamma, states):
        """Step ``vhat`` through the prepared window's first substeps, one
        per column of ``states``, which receives them; returns the last."""
        drive = self._Q_gamma @ gamma
        for j in range(states.shape[1]):
            vhat = self._P @ vhat + drive + self._forcing[:, j]
            states[:, j] = vhat
        return vhat

    def advance_window(self, t_n):
        """Integrate the window from ``t_n`` in reduced coordinates, Gamma
        held fixed.

        Each substep is the explicit implicit-Euler update ``vhat <- P vhat
        + Q_Gamma gamma + c(t_j)``, with ``c(t_j)`` the physical-trace and
        constant forcing at the substep time. ``last_states`` holds the
        reduced coordinates; nothing is lifted here.
        """
        self._prepare_window(t_n)
        gamma = self.g_cur.take(self.gamma_positions)
        states = np.empty((self.state.shape[0], self.steps))
        self.state = self._substeps(self.state, gamma, states)
        traces = self._traces.copy()
        traces[self.gamma_positions] = gamma[:, None]
        self.g_cur[self.physical_positions] = \
            traces[self.physical_positions, -1]
        self.last_states, self.last_traces = states, traces


class ReducedBlock:
    """A maximal run of consecutive reduced subdomains, swept as one map.

    Gamma values are held fixed within a window, so a reduced visit takes
    its window-start state ``vhat_0`` to the window-end state ``P^n vhat_0 +
    S Q_Gamma gamma + F``, with ``S`` the sum of ``P^k`` over ``k < n`` and
    ``F`` the sum of ``P^(n-1-l) c(t_l)`` over the substeps. A gather from a
    reduced donor is affine in its window-end ``vhat`` and trace. A sweep
    through the run is therefore one block Gauss-Seidel step, which forward
    substitution composes, once per run, into one dense map ``y = M z``
    whose size does not grow with the number of substeps ``n``.

    ``y`` stacks every member's window-end state, then the run's Gamma
    values, so each receiver's convergence measure and predictor anchors
    are those of a visit-by-visit sweep. ``z`` stacks what is fixed within
    a window (the members' window-start states, their ``F``, and the
    physical trace values at the window end that in-run gathers read),
    then the input Gamma rows: every row not fed by an earlier member, that
    is, fed by a donor outside the run or by a later member. Inputs are
    sampled from the donors' current states before any member moves, in
    later sweeps from the previous sweep's; in a window's first sweep the
    late rows take the :class:`LateRowHistory` prediction, and only the
    others are sampled. The substep states before the window end are
    replayed once, after the final sweep.
    """

    def __init__(self, members, plan):
        self.members = members
        self.solvers = [plan.solvers[i] for i in members]
        self.lo = int(plan.offsets[members[0]])
        self.hi = int(plan.offsets[members[-1] + 1])
        #: Member ``m``'s Gamma rows in the run are ``goff[m]:goff[m + 1]``
        #: and its state rows ``so[m]:so[m + 1]``.
        self._goff = [int(plan.offsets[i]) - self.lo for i in members]
        self._goff.append(self.hi - self.lo)
        self._so = np.concatenate(
            ([0], np.cumsum([s.state.shape[0] for s in self.solvers])))
        self._R = int(self._so[-1])
        #: Member ``m``'s rows in the stacked boundary traces, and the Gamma
        #: rows among them in the order of the run's Gamma values.
        self._boff = np.concatenate(
            ([0], np.cumsum([s.boundary_map.shape[0] for s in self.solvers])))
        self._trace_gamma = np.concatenate(
            [b + s.gamma_positions for b, s in zip(self._boff, self.solvers)])
        self._steady = all(s._steady for s in self.solvers)
        # Gathers from earlier members are composed into the map; every
        # other row is an input, sampled by one product with the plan's
        # operator.
        self._plan = plan
        donors = plan.donors[self.lo:self.hi]
        receivers = np.repeat(members, np.diff(self._goff))
        #: Input Gamma rows, ascending; the early ones, fed by a donor ahead
        #: of the run, are the inputs that are not late.
        self._inputs = inputs = np.flatnonzero((donors < members[0])
                                               | (donors > receivers))
        self._early = np.flatnonzero(donors < members[0])
        self._sample = plan.operator[self.lo + inputs]
        self._early_sample = plan.operator[self.lo + self._early]
        # The map, composed once: every window has the run's ``n`` substeps.
        R, so, goff = self._R, self._so, self._goff
        n = self.solvers[0].steps
        physical = [s.physical_positions for s in self.solvers]
        hoff = np.concatenate(([0], np.cumsum([p.size for p in physical])))
        h0 = 2 * R  # after the window-start states and the forcing
        base = h0 + int(hoff[-1])
        n_z = base + inputs.size
        gamma = np.zeros((goff[-1], n_z))
        gamma[inputs, base + np.arange(inputs.size)] = 1.0
        states, traces = [], []
        columns = plan.columns[members]
        for m, s in enumerate(self.solvers):
            g = gamma[goff[m]:goff[m + 1]]
            if m > 0:
                # The operator's columns of the earlier members' coordinates,
                # times those coordinates as maps of z; zero on input rows.
                weights = plan.operator[
                    self.lo + goff[m]:self.lo + goff[m + 1],
                    columns[0]:columns[m]].toarray()
                g += weights @ np.vstack(
                    [x for d in range(m) for x in (states[d], traces[d])])
            # The member's boundary trace at the window end as a map of z.
            trace = np.zeros((s.boundary_map.shape[0], n_z))
            trace[physical[m],
                  h0 + hoff[m] + np.arange(physical[m].size)] = 1.0
            trace[s.gamma_positions] = g
            traces.append(trace)
            r = so[m + 1] - so[m]
            power, total = np.eye(r), np.zeros((r, r))
            for _ in range(n):
                total += power
                power = s._P @ power
            state = (total @ s._Q_gamma) @ g
            state[:, so[m]:so[m + 1]] += power
            state[:, R + so[m]:R + so[m + 1]] += np.eye(r)
            states.append(state)
        M = np.vstack(states + [gamma])
        # Keep only the physical values read.
        h_used = np.flatnonzero(np.any(M[:, h0:base] != 0, axis=0))
        self._M = np.ascontiguousarray(M[:, np.concatenate(
            (np.arange(h0), h0 + h_used, np.arange(base, n_z)))])
        self._h_used = [physical[m][h_used[(h_used >= hoff[m])
                                           & (h_used < hoff[m + 1])]
                                    - hoff[m]]
                        for m in range(len(self.solvers))]
        self._fixed = None

    def start_window(self, t_n):
        """Prepare the members' window and the inputs fixed within it."""
        if self._fixed is None or not self._steady:
            folded = []
            for s in self.solvers:
                s._prepare_window(t_n)
                f = s._forcing[:, 0]
                for k in range(1, s.steps):
                    f = s._P @ f + s._forcing[:, k]
                folded.append(f)
            # Each member's folded forcing, then the physical trace values
            # at the window end that in-run gathers read; and the members'
            # substep traces, stacked, for the record.
            self._fixed = np.concatenate(
                folded + [s._traces[h, -1] for s, h in zip(self.solvers,
                                                           self._h_used)])
            self._traces = np.concatenate([s._traces for s in self.solvers])
        self._w = np.concatenate([s._window_snapshot[0] for s in self.solvers]
                                 + [self._fixed])

    def sweep(self, first, gamma, history):
        """Advance every member once, filling ``gamma``, the run's slice of
        the sweep's Gamma values, and leaving each member's new ``state``
        and trace in place for the gathers that follow.

        In a first sweep with a ``history`` the late inputs take its
        prediction, so only the early ones are sampled."""
        if first and history is not None:
            if self._early.size:
                gamma[self._early] = (self._early_sample
                                      @ self._plan.coordinates())
            history.impose(gamma, self.lo, self.hi)
        else:
            gamma[self._inputs] = self._sample @ self._plan.coordinates()
        self._z = np.concatenate((self._w, gamma.take(self._inputs)))
        self._y = y = self._M @ self._z
        gamma[:] = y[self._R:]
        for m, s in enumerate(self.solvers):
            s.state = y[self._so[m]:self._so[m + 1]]
            s.g_cur[s.gamma_positions] = gamma[self._goff[m]:self._goff[m + 1]]
            if not s._steady:
                s.g_cur[s.physical_positions] = \
                    s._traces[s.physical_positions, -1]

    @property
    def states(self):
        """The last sweep's window-end states of every member."""
        return self._y[:self._R]

    def finish(self):
        """Record the last sweep's substep states and traces on the members.

        The substeps before the window end are replayed by the members'
        own recurrence from the final Gamma values; the window end is the
        last sweep's.
        """
        traces = self._traces.copy()
        traces[self._trace_gamma] = self._y[self._R:, None]
        for m, s in enumerate(self.solvers):
            states = np.empty((self._so[m + 1] - self._so[m], s.steps))
            states[:, -1] = s.state
            if s.steps > 1:
                s._substeps(s._window_snapshot[0],
                            s.g_cur.take(s.gamma_positions), states[:, :-1])
            s.last_states = states
            s.last_traces = traces[self._boff[m]:self._boff[m + 1]]

    def first_failure(self):
        """``(subdomain, gathered)`` of the first member whose Gamma values
        (``gathered``) or window-end state the last sweep left non-finite,
        or None.

        An output counts as non-finite only through inputs it depends on,
        as in a visit-by-visit sweep; in the dense product a zero weight
        times a non-finite input of a later member would taint it too.
        """
        bad = ~np.isfinite(self._z)
        y = self._M @ np.where(bad, 0.0, self._z)
        y[np.any(self._M[:, bad] != 0, axis=1)] = np.nan
        R = self._R
        for m, i in enumerate(self.members):
            if not np.isfinite(
                    y[R + self._goff[m]:R + self._goff[m + 1]]).all():
                return i, True
            if not np.isfinite(y[self._so[m]:self._so[m + 1]]).all():
                return i, False
        return None


def _raise_divergence(plan, gamma, t_n):
    """Raise :class:`DivergenceError` for the sweep's first subdomain, in
    sweep order, with non-finite gathered Gamma values or states; the
    message names the end of the window that starts at ``t_n``."""
    s = plan.solvers[0]
    t_next = t_n + s.dt * s.steps
    offsets = plan.offsets
    for unit in plan.units:
        if isinstance(unit, ReducedBlock):
            hit = unit.first_failure()
        elif not np.isfinite(gamma[offsets[unit]:offsets[unit + 1]]).all():
            hit = (unit, True)
        elif not (np.isfinite(plan.solvers[unit].state).all()
                  and np.isfinite(plan.solvers[unit].last_states).all()):
            hit = (unit, False)
        else:
            hit = None
        if hit is not None and hit[1]:
            raise DivergenceError(
                f"non-finite interface values gathered for subdomain "
                f"{hit[0] + 1} at t={t_next}")
        if hit is not None:
            raise DivergenceError(
                f"subdomain {hit[0] + 1} produced a non-finite state at "
                f"t={t_next}")


def schwarz_window(plan, t_n, tol, max_iters, history=None):
    """One multiplicative Schwarz fixed point of ``plan.solvers`` over the
    window that starts at ``t_n``, where the solvers are.

    Snapshots every solver, then sweeps the units of the plan in order,
    each subdomain taking Gamma values gathered from its donors' current
    states, so subdomains already moved in this sweep contribute their new
    window end. In the first sweep a visited solver is rewound to the
    window start, takes its values, and advances the window; in every
    later sweep it takes them through :meth:`~FESubdomainSolver.respond`,
    with no integration, and after the final sweep, if that was not the
    first, it records the window with ``finish_window``. A
    :class:`ReducedBlock` moves its run of reduced subdomains by its
    composed map in every sweep and records their window after the final
    one.

    Converged once the relative sup-norm change of every subdomain's Gamma
    values drops to ``tol``; the first sweep's change is measured against
    the values imposed in the previous window. Finiteness and convergence
    are checked once per sweep, on the concatenated values; a non-finite
    value raises :class:`DivergenceError` naming the first subdomain, in
    sweep order, whose gathered values or states are not finite.

    In the first sweep a row fed by an earlier subdomain gets that donor's
    new state and a row fed by a later one its window-start state. Given a
    :class:`LateRowHistory` ``history``, built on ``plan``, the latter rows
    get its extrapolation instead; later sweeps always impose the gathered
    values.

    Returns ``(iterations, converged)``; the converged states live in the
    solvers, at the window end, with ``last_states``/``last_traces`` from
    the final sweep.
    """
    if max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
    solvers = plan.solvers
    for s in solvers:
        s._window_snapshot = s.snapshot_state()
    units = plan.units
    blocks = [u for u in units if isinstance(u, ReducedBlock)]
    prev = np.concatenate([s.interface_values() for s in solvers])
    if history is not None:
        history.start_window()
    for block in blocks:
        block.start_window(t_n)
    offsets = plan.offsets
    converged = False
    for iteration in range(1, max_iters + 1):
        first = iteration == 1
        gamma = np.empty(prev.shape[0])
        checked = [gamma]
        for unit in units:
            if isinstance(unit, ReducedBlock):
                unit.sweep(first, gamma[unit.lo:unit.hi], history)
                checked.append(unit.states)
                continue
            s = solvers[unit]
            vals = plan.gather(unit)
            if first:
                if history is not None:
                    history.impose(vals, offsets[unit], offsets[unit + 1])
                s.restore_state(s._window_snapshot)
                s.set_interface_values(vals)
                s.advance_window(t_n)
                checked.append(s.last_states.ravel())
            else:
                s.respond(vals)
                checked.append(s.state)
            gamma[offsets[unit]:offsets[unit + 1]] = vals
        if not kernels.all_finite(np.concatenate(checked)):
            _raise_divergence(plan, gamma, t_n)
        change = kernels.relative_sup_change(gamma, prev, plan.starts)
        prev = gamma
        if change <= tol:
            converged = True
            break
    for unit in units:
        if isinstance(unit, ReducedBlock):
            unit.finish()
        elif iteration > 1:
            solvers[unit].finish_window(t_n)
    return iteration, converged


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


def check_rank(index, spec, basis):
    """Raise unless reduced subdomain ``index``'s ``basis`` has the rank its
    ``spec`` asks for."""
    if basis.r != spec.rom_dim:
        raise ConfigurationError(
            f"subdomain {index + 1} asks for a reduced model of "
            f"rank r = {spec.rom_dim}, but its trained operators have "
            f"rank {basis.r}; retrain with the current config")


def build_solvers(config, table, params, trained=None):
    """One solver per subdomain of ``config``, by ``spec.model``: finite
    element, or reduced on the ``basis`` and ``ops`` of ``trained[index]``.
    """
    solvers = []
    for i, spec in enumerate(config.subdomains):
        args = (spec, table.meshes[i], params, config.dt,
                config.steps_per_window, table.entries[i].gamma_positions)
        if spec.model == "fe":
            solvers.append(FESubdomainSolver(*args))
            continue
        if i not in (trained or {}):
            raise ConfigurationError(
                f"subdomain {i + 1} is reduced but has no trained "
                f"operators; run training first")
        check_rank(i, spec, trained[i].basis)
        solvers.append(RomSubdomainSolver(*args, trained[i].basis,
                                          trained[i].ops))
    return solvers


def run_coupled(config, params, trained=None):
    """March coupled subdomains over the full horizon, window by window.

    The solvers come from :func:`build_solvers`. Every substep state and
    imposed boundary trace is recorded (the traces double as reduced-model
    training inputs); wall clock is split into a setup phase and a solve
    phase. One :class:`LateRowHistory` spans the run and seeds every
    window's first sweep.
    """
    t0 = time.perf_counter()
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params, trained)
    plan = GatherPlan(table, solvers)
    history = LateRowHistory(plan)
    for i, s in enumerate(solvers):
        s.set_interface_values(plan.gather(i))
    setup_seconds = time.perf_counter() - t0

    n_steps = timestep.n_steps_for(0.0, config.t_end, config.dt)
    times = config.dt * np.arange(n_steps + 1)
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
        t_w = w * config.window_dt
        iters, ok = schwarz_window(plan, t_w, config.tol, config.max_iters,
                                   history)
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

    def __init__(self, config, global_mesh, meshes):
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
