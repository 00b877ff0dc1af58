"""Overlapping multiplicative Schwarz coupling of subdomain solvers.

The global problem is decomposed into overlapping rectangles, each owned by
a local solver (finite element or inferred reduced model). Time marches in
windows; within a window the subdomains are swept in ascending index order,
each receiving Dirichlet values on its Schwarz boundary Gamma sampled from
the latest available donor states, until the interface traces stop changing.
In the first sweep a Gamma row whose donor comes earlier in the sweep gets
that donor's freshly advanced state; a row whose donor comes later (a
*late row*) would get the donor's window-start state, one window behind.
:func:`run_coupled` passes a :class:`LateRowHistory`, which instead feeds
each late row the polynomial extrapolation of its values at the last few
window starts.

A maximal run of consecutive reduced subdomains in the sweep is advanced
as one :class:`ReducedBlock`: its visits are affine maps of the window-start
states and Gamma values, which forward substitution composes, once per run,
into one dense map that every sweep applies, sized by the run's reduced
ranks and Gamma rows but not by the substeps per window. The loop's
bookkeeping is per window and per sweep, not per visit: a reduced state is
snapshot by reference, finiteness and convergence are checked once per
sweep on the concatenated values, and the block replays and records the
substep ``last_states``/``last_traces`` after the final sweep only.

Solvers are duck-typed, so tests can instrument the sweep. Finite element
and other non-reduced solvers are visited one at a time through this
protocol:

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
  lifting its state (a receiver's finite element donors share one joint
  product, bitwise equal to theirs).
- ``lift(states)``: interior nodal values of ``state`` columns.
  :func:`run_coupled` records ``state`` columns and lifts each history
  once, after the last window; ``full_field()`` and ``interior_values()``
  lift on demand for callers outside the sweep.

A :class:`RomSubdomainSolver` in a block is never visited on its own: the
block reads its propagators and ``sampling_operators`` to compose the map,
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
from scipy.sparse import vstack

from .errors import ConfigurationError, DivergenceError
from .mesh import BOUNDARY_TOL, Rect, build_mesh
from .fem import assemble
from .rom import RomStepper
from . import kernels, timestep

#: Relative slack when matching solver clocks against window endpoints.
_TIME_RTOL = 1e-9

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
                groups.append((j, idx, matrix))
            # [Gamma count, groups, (bound donors, samplers) or None]
            self._slots.append([entry.n_gamma, groups, None])
        counts = np.array([e.n_gamma for e in table.entries], dtype=np.int64)
        #: Receiver ``i``'s rows in a sweep's concatenated Gamma values are
        #: ``offsets[i]:offsets[i + 1]``; ``starts`` are the nonempty ones.
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.starts = self.offsets[:-1][counts > 0]
        self._units = None

    def groups(self, i):
        """``(donor, Gamma rows, sampling matrix)`` of receiver ``i``."""
        return self._slots[i][1]

    def units(self, solvers):
        """The sweep in order: subdomain indices visited one at a time and a
        :class:`ReducedBlock` per maximal run of reduced subdomains.

        Built, and each block composed, once per set of solvers.
        """
        if self._units is not None:
            bound, units = self._units
            if len(bound) == len(solvers) and all(
                    a is b for a, b in zip(bound, solvers)):
                return units
        units = []
        for reduced, run in groupby(
                range(len(solvers)),
                key=lambda i: isinstance(solvers[i], RomSubdomainSolver)):
            if reduced:
                units.append(ReducedBlock(list(run), solvers, self))
            else:
                units.extend(run)
        self._units = (tuple(solvers), units)
        return units

    def gather(self, i, solvers):
        """Gamma values for receiver ``i`` from the donors' current states."""
        slot = self._slots[i]
        bound = slot[2]
        if bound is None or not all(solvers[j] is d for j, d in bound[0]):
            bound = slot[2] = self._bind(slot[1], solvers)
        vals = np.empty(slot[0])
        for sample, idx in bound[1]:
            vals[idx] = sample()
        return vals

    @staticmethod
    def _bind(groups, solvers):
        # The finite element donors of a receiver are sampled by one joint
        # product, any other donor by its own sampler.
        fe = [(j, idx, matrix) for j, idx, matrix in groups
              if isinstance(solvers[j], FESubdomainSolver)]
        samplers = [(solvers[j].sampler(matrix), idx)
                    for j, idx, matrix in groups
                    if not isinstance(solvers[j], FESubdomainSolver)]
        if fe:
            samplers.append((_fe_sampler([(solvers[j], m) for j, _, m in fe]),
                             np.concatenate([idx for _, idx, _ in fe])))
        return [(j, solvers[j]) for j, _, _ in groups], samplers


class LateRowHistory:
    """First-sweep predictor of every receiver's late Gamma rows.

    A late row of receiver ``i`` is one whose donor ``j > i`` has not been
    advanced yet when the first sweep reaches ``i``, so its gathered value
    is the donor's window-start state. The history keeps those rows of
    each first-sweep gather at the last ``PREDICTOR_DEPTH + 1`` window
    starts and replaces them with the polynomial through them, evaluated at
    the window end. The anchors are the gathered donor states, never the
    imposed (predicted) values, so prediction errors do not accumulate.
    """

    def __init__(self, table):
        self._late = [np.flatnonzero(e.donors > e.index)
                      for e in table.entries]
        self._counts = [e.n_gamma for e in table.entries]
        self._slots = {}

    def predict(self, i, vals):
        """Store receiver ``i``'s first-sweep gather ``vals`` as the newest
        anchor and overwrite its late rows, in place, with the prediction.

        ``i`` may also be a tuple of consecutive receivers, with ``vals``
        their Gamma values concatenated; the tuple keeps its own anchors.
        Call once per window. With no earlier anchor ``vals`` is returned
        untouched.
        """
        key = i if isinstance(i, tuple) else (i,)
        slot = self._slots.get(key)
        if slot is None:
            offsets = np.cumsum([0] + [self._counts[j] for j in key[:-1]])
            rows = np.concatenate([self._late[j] + o
                                   for j, o in zip(key, offsets)])
            slot = [rows, np.empty((PREDICTOR_DEPTH + 1, rows.shape[0])), 0]
            self._slots[key] = slot
        rows, anchors, k = slot
        if rows.shape[0] == 0:
            return vals
        anchors[1:] = anchors[:-1]
        anchors[0] = vals[rows]
        slot[2] = min(k + 1, PREDICTOR_DEPTH)
        if k > 0:
            # Summed anchor by anchor, newest first, in numpy rather than
            # by a BLAS product, so the rounding, which training amplifies,
            # does not depend on the BLAS build.
            vals[rows] = np.add.reduce(
                _EXTRAPOLATION[k] * anchors[:k + 1], axis=0)
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


def _fe_sampler(parts):
    """Callable sampling finite element solvers: ``parts`` lists ``(solver,
    matrix)``, and the values of each ``matrix @ full_field()`` are stacked
    in that order.

    A solver's nodal field is ``[state; g_cur]`` up to a permutation of
    nodes, so each row (``W_I state + W_B g_cur``) is evaluated on the
    concatenation of every solver's ``[state; g_cur]``. Row entries are
    summed in ascending node order, which reproduces the bilinear
    four-corner gather bitwise, however many solvers share the product.
    """
    columns, weights, offset = [], [], 0
    for s, matrix in parts:
        n_i = s.interior_map.shape[0]
        position = np.empty(s.mesh.n_nodes, dtype=np.int64)
        position[s.interior_map] = offset + np.arange(n_i)
        position[s.boundary_map] = offset + n_i + np.arange(
            s.boundary_map.shape[0])
        c, w = _row_slots(matrix)
        columns.append(position[c])
        weights.append(w)
        offset += s.mesh.n_nodes
    columns = np.concatenate(columns, axis=1)
    weights = np.concatenate(weights, axis=1)
    solvers = [s for s, _ in parts]
    return lambda: np.add.reduce(weights * np.concatenate(
        [a for s in solvers for a in (s.state, s.g_cur)]).take(columns),
        axis=0)


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
        #: Steady physical data: the physical trace never changes.
        self._steady = not callable(None if params is None
                                    else params.dirichlet)
        self.g_cur = np.zeros(n_b)
        self.g_cur[self.physical_positions] = self._physical_trace(t0)
        self.t = float(t0)
        self.state = None
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
        f = np.empty(self.mesh.n_nodes)
        f[self.interior_map] = self.interior_values()
        f[self.boundary_map] = self.g_cur
        return f

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

    def _n_substeps(self, t_n, t_next):
        if self._span_cache != (t_n, t_next):
            self._span_cache = (t_n, t_next)
            self._span_n = timestep.n_steps_for(t_n, t_next, self.dt)
        return self._span_n

    def _finish_window(self, t_next, states, traces):
        self.t = float(t_next)
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
        return _fe_sampler([(self, matrix)])

    def restore_state(self, snap):
        super().restore_state(snap)
        # Only read, as is the snapshot's trace.
        self._g_committed = snap[1]

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
            if not self._steady:
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

    def snapshot_state(self):
        # By reference: ``state`` arrays are replaced, never written in place.
        return (self.state, self.g_cur.copy(), self.t)

    def sampling_operators(self, matrix):
        """``(reduced, cols, weights)`` with ``matrix @ full_field() ==
        reduced @ state + weights @ g_cur[cols]``.

        ``reduced`` folds ``W_I Psi``; ``cols`` are the boundary positions
        ``matrix`` touches.
        """
        matrix = matrix.tocsc()
        reduced = np.asarray(matrix[:, self.interior_map] @ self.basis.Psi)
        boundary = matrix[:, self.boundary_map]
        cols = np.flatnonzero(np.diff(boundary.indptr))
        return reduced, cols, boundary[:, cols].toarray()

    def sampler(self, matrix):
        # W_I Psi is folded once, and with the trace weights it makes one
        # dense operator on [vhat; g_cur]: a sample is a single small
        # product, and the state is never lifted.
        reduced, cols, weights = self.sampling_operators(matrix)
        r = reduced.shape[1]
        operator = np.zeros((reduced.shape[0], r + self.g_cur.shape[0]))
        operator[:, :r] = reduced
        operator[:, r + cols] = weights
        return lambda: operator @ np.concatenate((self.state, self.g_cur))

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

    def _substeps(self, vhat, gamma, states):
        """Step ``vhat`` through the prepared window's first substeps, one
        per column of ``states``, which receives them; returns the last."""
        drive = self._Q_gamma @ gamma
        for j in range(states.shape[1]):
            vhat = self._P @ vhat + drive + self._forcing[:, j]
            states[:, j] = vhat
        return vhat

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
        states = np.empty((self.state.shape[0], self._forcing.shape[1]))
        self.state = self._substeps(self.state, gamma, states)
        traces = self._traces.copy()
        traces[self.gamma_positions] = gamma[:, None]
        self.g_cur[self.physical_positions] = \
            traces[self.physical_positions, -1]
        self._finish_window(t_next, states, traces)


class ReducedBlock:
    """A maximal run of consecutive reduced subdomains, swept as one map.

    Gamma values are held fixed within a window, so a reduced visit takes
    its window-start state ``vhat_0`` to the window-end state ``P^n vhat_0 +
    S Q_Gamma gamma + F``, with ``S`` the sum of ``P^k`` over ``k < n`` and
    ``F`` the sum of ``P^(n-1-l) c(t_l)`` over the substeps. A gather from a
    reduced donor is affine in its window-end ``vhat`` and trace. A sweep
    through the run is therefore one block Gauss-Seidel step, which forward
    substitution composes, once per window length, into one dense map ``y =
    M z`` whose size does not grow with the number of substeps ``n``.

    ``y`` stacks every member's window-end state, then the run's Gamma
    values, so each receiver's convergence measure and predictor anchors
    are those of a visit-by-visit sweep. ``z`` stacks what is fixed within
    a window (the members' window-start states, their ``F``, and the
    physical trace values at the window end that in-run gathers read),
    then the input Gamma rows: every row not fed by an earlier member, that
    is, fed by a donor outside the run or by a later member. Inputs are
    sampled from the donors' current states before any member moves: in a
    window's first sweep from the window-start states, after which the
    :class:`LateRowHistory` prediction replaces the late rows, and in later
    sweeps from the previous sweep's. The substep states before the window
    end are replayed once, after the final sweep.
    """

    def __init__(self, members, solvers, plan):
        self.members = members
        self.solvers = [solvers[i] for i in members]
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
        # Gathers from earlier members are composed into the map; any other
        # donor is sampled, one sampler per donor over every run row it
        # feeds.
        inputs, self._earlier = {}, []
        for m, i in enumerate(members):
            earlier = []
            for j, idx, matrix in plan.groups(i):
                if members[0] <= j < i:
                    earlier.append((j - members[0], idx, matrix))
                else:
                    inputs.setdefault(j, []).append(
                        (idx + self._goff[m], matrix))
            self._earlier.append(earlier)
        self._samplers = [
            (solvers[j].sampler(vstack([mat for _, mat in parts],
                                       format="csr")),
             np.concatenate([rows for rows, _ in parts]))
            for j, parts in sorted(inputs.items())]
        #: Input Gamma rows, ascending.
        self._inputs = np.sort(np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [rows for _, rows in self._samplers]))
        self._n = None

    def _compose(self, n):
        R, so, goff, inputs = self._R, self._so, self._goff, self._inputs
        physical = [s.physical_positions for s in self.solvers]
        hoff = np.concatenate(([0], np.cumsum([p.size for p in physical])))
        h0 = 2 * R  # after the window-start states and the forcing
        base = h0 + int(hoff[-1])
        n_z = base + inputs.size
        gamma = np.zeros((goff[-1], n_z))
        gamma[inputs, base + np.arange(inputs.size)] = 1.0
        states, traces = [], []
        for m, s in enumerate(self.solvers):
            g = gamma[goff[m]:goff[m + 1]]
            for d, idx, matrix in self._earlier[m]:
                reduced, cols, weights = \
                    self.solvers[d].sampling_operators(matrix)
                g[idx] = reduced @ states[d] + weights @ traces[d][cols]
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
        self._n = n
        self._fixed = None

    def start_window(self, t_n, t_next):
        """Prepare the members' window and the inputs fixed within it."""
        n = self.solvers[0]._n_substeps(t_n, t_next)
        if n != self._n:
            self._compose(n)
        if self._fixed is None or not self._steady:
            folded = []
            for s in self.solvers:
                if s._window != (t_n, t_next):
                    s._prepare_window(t_n, t_next)
                f = s._forcing[:, 0]
                for k in range(1, n):
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
        self._t_next = t_next

    def sweep(self, first, gamma, history):
        """Advance every member once, filling ``gamma``, the run's slice of
        the sweep's Gamma values, and leaving each member's new ``state``
        and trace in place for the gathers that follow."""
        for sample, rows in self._samplers:
            gamma[rows] = sample()
        if first and history is not None:
            history.predict(tuple(self.members), gamma)
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
            states = np.empty((self._so[m + 1] - self._so[m], self._n))
            states[:, -1] = s.state
            if self._n > 1:
                s._substeps(s._window_snapshot[0],
                            s.g_cur.take(s.gamma_positions), states[:, :-1])
            s._finish_window(self._t_next, states,
                             traces[self._boff[m]:self._boff[m + 1]])

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


def _matches(t_a, t_b):
    return abs(t_a - t_b) <= _TIME_RTOL * max(1.0, abs(t_a), abs(t_b))


def _raise_divergence(units, solvers, gamma, offsets, t_next):
    """Raise :class:`DivergenceError` for the sweep's first subdomain, in
    sweep order, with non-finite gathered Gamma values or states."""
    for unit in units:
        if isinstance(unit, ReducedBlock):
            hit = unit.first_failure()
        elif not np.isfinite(gamma[offsets[unit]:offsets[unit + 1]]).all():
            hit = (unit, True)
        elif not np.isfinite(solvers[unit].last_states).all():
            hit = (unit, False)
        else:
            hit = None
        if hit is not None and hit[1]:
            raise DivergenceError(
                f"non-finite interface values gathered for subdomain "
                f"{hit[0]} at t={t_next}")
        if hit is not None:
            raise DivergenceError(
                f"subdomain {hit[0]} produced a non-finite state at "
                f"t={t_next}")


def schwarz_window(solvers, interfaces, t_n, t_next, tol, max_iters,
                   plan=None, history=None):
    """One multiplicative Schwarz fixed point over [t_n, t_next].

    Sweeps the subdomains in ascending order: gather Gamma values from the
    donors' current fields (subdomains already advanced this iteration
    contribute their new state), rewind to the window start, impose, and
    advance. A run of consecutive reduced subdomains is advanced by its
    :class:`ReducedBlock`, the same step composed into one map. Converged
    once the relative sup-norm trace change of every subdomain drops to
    ``tol``; the first sweep's change is measured against the values
    imposed in the previous window. Finiteness and convergence are checked
    once per sweep, on the concatenated values; a non-finite value raises
    :class:`DivergenceError` naming the first subdomain, in sweep order,
    whose gathered values or states are not finite.

    In the first sweep a row fed by an earlier subdomain gets its fresh
    state and a row fed by a later one its window-start state. Given a
    :class:`LateRowHistory` ``history``, the latter rows get its
    extrapolation instead; later sweeps always impose the gathered values.

    Returns ``(iterations, converged)``; the converged states live in the
    solvers, with ``last_states``/``last_traces`` from the final sweep. A
    solver already advanced through this very window is rewound from its
    remembered window-start snapshot, so re-running a converged window
    terminates after one cheap iteration.
    """
    if max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
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
    units = plan.units(solvers)
    blocks = [u for u in units if isinstance(u, ReducedBlock)]
    prev = np.concatenate([s.interface_values() for s in solvers])
    for block in blocks:
        block.start_window(t_n, t_next)
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
            vals = plan.gather(unit, solvers)
            if history is not None and first:
                vals = history.predict(unit, vals)
            s.restore_state(s._window_snapshot)
            s.set_interface_values(vals)
            s.advance_window(t_n, t_next)
            gamma[offsets[unit]:offsets[unit + 1]] = vals
            checked.append(s.last_states.ravel())
        if not kernels.all_finite(np.concatenate(checked)):
            _raise_divergence(units, solvers, gamma, offsets, t_next)
        change = kernels.relative_sup_change(gamma, prev, plan.starts)
        prev = gamma
        if change <= tol:
            converged = True
            break
    for block in blocks:
        block.finish()
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


def run_coupled(config, solver_factory):
    """March coupled subdomains over the full horizon, window by window.

    ``solver_factory(spec, mesh, interface_entry, config)`` builds each
    subdomain solver. Every substep state and imposed boundary trace is
    recorded (the traces double as reduced-model training inputs); wall
    clock is split into a setup phase and a solve phase. One
    :class:`LateRowHistory` spans the run and seeds every window's first
    sweep.
    """
    t0 = time.perf_counter()
    table = build_interfaces(config)
    solvers = [solver_factory(spec, table.meshes[i], table.entries[i], config)
               for i, spec in enumerate(config.subdomains)]
    plan = GatherPlan(table)
    history = LateRowHistory(table)
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
                                   config.tol, config.max_iters, plan,
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
