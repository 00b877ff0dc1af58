"""Overlapping multiplicative Schwarz coupling of subdomain solvers.

The global problem is decomposed into overlapping rectangles, each owned by
a local solver (finite element or inferred reduced model). Time marches in
windows; within a window the subdomains are swept in ascending index order,
each receiving Dirichlet values on its Schwarz boundary Gamma sampled from
the latest available donor states, until the interface traces stop changing.
Physical-boundary data are read through
:func:`~cdrschwarz.fem.profile_closure`, so data that do not depend on
time are evaluated once per solver.

A :class:`GatherPlan`, built once per coupled run, owns the solvers'
storage: ``plan.coordinates`` concatenates every solver's ``[state;
g_cur]`` and ``plan.window`` its ``[last_states; last_traces]``, and each
solver's four arrays are views of its rows, written in place and never
rebound. The plan holds one sampling operator for every Gamma row and
splits the sweep into units, ``plan.units``, that all follow one protocol:

- ``lo``/``hi``: the unit's rows of the sweep's concatenated Gamma values,
  ``plan.coordinates[plan.gamma_rows]``; its input rows are the *early*
  ones, fed by a donor ahead of the unit, and the *late* ones, fed by a
  donor later in the sweep, which in a window's first sweep would see
  that donor's window-start state, one window behind. ``inputs(first)``
  gathers them by one row slice of the plan's operator, except that in a
  first sweep the late rows take the plan's polynomial extrapolation of
  their values at the last few window starts (see
  :meth:`GatherPlan.start_window`).
- ``start_window(t_n)``, ``sweep(first)``, which advances the unit once,
  leaving its members' states and traces in the plan's coordinates,
  ``finish(sweeps)``, which records the window after the final sweep, and
  ``first_failure()``.

A :class:`Visit` advances one subdomain on its own: a window's first sweep
calls its solver's ``advance_window``, later sweeps its ``respond``, and
``finish_window`` records the window. A :class:`ReducedBlock` advances a
maximal run of consecutive reduced subdomains by one dense map, composed
once per run, sized by the run's reduced ranks and Gamma rows but not by
the substeps per window. Finiteness and convergence are checked once per
sweep on the plan's arrays. No solver is snapshot or rewound.

A window is ``steps`` substeps of ``dt``, both fixed per run and given to
every solver when it is built; solvers keep no clock, and
:func:`schwarz_window` is told the window start ``t_n``. Solvers are
duck-typed, so tests can instrument the sweep:

- ``state``: the solver's own coordinates, interior nodal values for a
  finite element solver and reduced coordinates ``vhat`` for a reduced one;
  ``boundary_map``: boundary node ids, whose count sizes the recorded
  traces; ``dt`` and ``steps``: the substep and the substeps per window.
- ``g_cur``: the whole boundary trace, in boundary-node order;
  ``set_interface_values(vals)`` writes its Gamma part.
- ``advance_window(t_n, values)``: take the current ``(state, g_cur)`` as
  the window start, impose Gamma values ``values``, and integrate the
  ``steps`` substeps from ``t_n`` with them held fixed, leaving
  ``last_states`` (one column of ``state`` per substep) and
  ``last_traces`` (one imposed boundary trace per substep).
- ``respond(vals)``: impose Gamma values ``vals`` on the window the last
  ``advance_window`` integrated and move ``state`` to that window's end,
  which is affine in them, without integrating; ``finish_window(t_n)``:
  record that window's ``last_states``/``last_traces`` for the values
  last imposed.
- ``coordinate_operator(matrix)``: ``matrix``, an operator on the nodal
  field, as one on the coordinates ``[state; g_cur]``. The plan stacks
  every (receiver, donor) interpolation matrix, so converted, into one CSR
  operator on the concatenated coordinates of all solvers, so a reduced
  donor is sampled without lifting its state.
- ``lift(states)``: interior nodal values of ``state`` columns, for
  callers outside the run. :func:`run_coupled` records one history,
  ``RunResult.coordinates``, in the plan's coordinates, and lifts
  nothing; :attr:`RunResult.trajectories` lifts a reduced solver's rows
  of it by its Psi on each read.

``state``, ``g_cur``, ``last_states`` and ``last_traces`` are allocated
when a solver is built and only ever written in place, so a plan can take
them over as views; a value that must outlive a write, such as a window
start, is copied.

A :class:`RomSubdomainSolver` in a block is never visited on its own: the
block reads its propagators and leaves ``state``, the trace and, after the
final sweep, ``last_states``/``last_traces`` on it. Its ``advance_window``
stays for callers outside the sweep.

A :class:`StitchPlan` averages the record onto a global mesh without
lifting it: each solver's interpolation onto the global nodes it covers
goes through its ``coordinate_operator``, and the pieces are stacked, as
in the :class:`GatherPlan`, into one CSR operator from the coordinates
to the global nodes with the overlap average folded in.
"""

import math
import time
from dataclasses import dataclass, fields
from itertools import groupby
from typing import Optional

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
            gamma_positions=gamma_pos, gamma_points=gamma_pts,
            donors=donors))
    return InterfaceTable(entries=tuple(entries), meshes=meshes)


def coordinate_columns(solvers):
    """Offsets of each solver's coordinates ``[state; g_cur]`` in their
    concatenation: solver ``k``'s are ``columns[k]:columns[k + 1]``."""
    return np.concatenate(([0], np.cumsum(
        [s.state.shape[0] + s.g_cur.shape[0] for s in solvers])))


def _stack_rows(pieces, shape):
    """One CSR matrix of ``shape`` from ``(rows, block, column)`` pieces:
    row ``k`` of ``block``, a sparse or dense matrix, lands in row
    ``rows[k]``, its columns shifted by ``column``."""
    empty = np.zeros(0, dtype=np.int64)
    rows, cols, data = [empty], [empty], [np.zeros(0)]
    for idx, block, column in pieces:
        block = csr_matrix(block)
        rows.append(np.repeat(idx, np.diff(block.indptr)))
        cols.append(block.indices + column)
        data.append(block.data)
    # A stable sort by row keeps each row's entries in the order its piece
    # gave them, which is the order the product sums them in.
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(
        np.bincount(rows, minlength=shape[0]))))
    return csr_matrix(
        (np.concatenate(data)[order], np.concatenate(cols)[order], indptr),
        shape=shape)


class GatherPlan:
    """The solvers' storage, one sparse sampling operator for every
    receiver's Gamma values, and the sweep's units.

    The plan takes over its solvers' arrays: ``coordinates`` concatenates
    every solver's ``[state; g_cur]`` and ``window``, column-major, its
    ``[last_states; last_traces]``, one column per substep, and each
    solver's four arrays become views of its ``columns`` rows. A solver
    list serves one plan, the last built on it, for the whole coupled run.

    For each (receiver, donor) pair the bilinear interpolation matrix from
    the donor's nodes to the receiver's Gamma points is fixed. The plan
    hands each matrix to its donor's :meth:`coordinate_operator`, which
    folds it into the donor's coordinates ``[state; g_cur]``, and stacks the
    results into one CSR ``operator`` from ``coordinates`` to the sweep's
    concatenated Gamma values. A gather is a row slice of it times the
    current coordinates, so a reduced donor is sampled without lifting its
    state.

    A *late row* of receiver ``i`` is one whose donor ``j > i`` has not
    been advanced yet when a window's first sweep reaches ``i``, so its
    gathered value would be the donor's window-start state.
    :meth:`start_window` samples every late row there at once, keeps the
    samples of the last ``PREDICTOR_DEPTH + 1`` window starts, and predicts
    each row by the polynomial through them, evaluated at the window end.
    The anchors are sampled donor states, never the imposed (predicted)
    values, so prediction errors do not accumulate.
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
        #: Late rows of the concatenated Gamma values, ascending.
        self.late_rows = np.flatnonzero(
            self.donors > np.repeat(np.arange(counts.shape[0]), counts))
        #: Solver ``k``'s coordinates are ``columns[k]:columns[k + 1]``.
        self.columns = coordinate_columns(solvers)
        self.coordinates = np.concatenate(
            [a for s in solvers for a in (s.state, s.g_cur)])
        self.window = np.asfortranarray(np.concatenate(
            [a for s in solvers for a in (s.last_states, s.last_traces)]))
        for s, a, b in zip(solvers, self.columns[:-1], self.columns[1:]):
            split = [s.state.shape[0]]
            s.state, s.g_cur = np.split(self.coordinates[a:b], split)
            s.last_states, s.last_traces = np.split(self.window[a:b], split)
        #: The rows of ``coordinates`` that hold the sweep's Gamma values.
        self.gamma_rows = np.concatenate(
            [a + s.state.shape[0] + s.gamma_positions
             for s, a in zip(solvers, self.columns)])
        pieces = []
        for i, entry in enumerate(table.entries):
            for j in sorted(set(entry.donors.tolist())):
                idx = np.flatnonzero(entry.donors == j)
                pieces.append((
                    self.offsets[i] + idx,
                    solvers[j].coordinate_operator(
                        table.meshes[j].interpolation_matrix(
                            entry.gamma_points[idx])),
                    self.columns[j]))
        self.operator = _stack_rows(
            pieces, (int(self.offsets[-1]), int(self.columns[-1])))
        self._late_sample = self.operator[self.late_rows]
        self._anchors = np.empty((PREDICTOR_DEPTH + 1,
                                  self.late_rows.shape[0]))
        self._held = 0
        #: The sweep in order: a :class:`Visit` per subdomain visited on its
        #: own and a :class:`ReducedBlock` per maximal run of reduced ones.
        self.units = []
        for reduced, run in groupby(
                range(len(solvers)),
                key=lambda i: isinstance(solvers[i], RomSubdomainSolver)):
            if reduced:
                self.units.append(ReducedBlock(list(run), self))
            else:
                self.units.extend(Visit(i, self) for i in run)

    def gather(self, i):
        """Gamma values for receiver ``i`` from the donors' current states."""
        return (self.operator[self.offsets[i]:self.offsets[i + 1]]
                @ self.coordinates)

    def start_window(self, t_n):
        """Start the window from ``t_n`` where the solvers stand: sample
        every late row as the newest anchor, predict the window end into
        ``prediction``, and start every unit. Call once per window, before
        the first sweep moves any solver; with no earlier anchor the
        prediction is the sample."""
        self._anchors[1:] = self._anchors[:-1]
        self._anchors[0] = self._late_sample @ self.coordinates
        self._held = min(self._held + 1, PREDICTOR_DEPTH + 1)
        k = self._held - 1
        # Summed anchor by anchor, newest first, in numpy rather than by a
        # BLAS product, so the rounding, which training amplifies, does not
        # depend on the BLAS build.
        self.prediction = np.add.reduce(
            _EXTRAPOLATION[k] * self._anchors[:k + 1], axis=0)
        for unit in self.units:
            unit.start_window(t_n)


class _SweepUnit:
    """What every unit of a plan's sweep shares (see the module docstring):
    consecutive subdomains ``members`` whose Gamma values are rows
    ``lo:hi`` of the sweep's. Its input rows, relative to ``lo``, are
    ``early_rows``, fed by a donor ahead of the unit, and ``late_rows``,
    fed by a donor later in the sweep, span ``late_span`` of the plan's
    ``prediction``. Any other row is fed by an earlier member, so only a
    :class:`ReducedBlock` has them.
    """

    def __init__(self, members, plan):
        self.members = members
        self.lo = int(plan.offsets[members[0]])
        self.hi = int(plan.offsets[members[-1] + 1])
        self._plan = plan
        a, b = np.searchsorted(plan.late_rows, (self.lo, self.hi))
        self.late_span = slice(int(a), int(b))
        self.late_rows = plan.late_rows[a:b] - self.lo
        self.early_rows = np.flatnonzero(
            plan.donors[self.lo:self.hi] < members[0])
        self.input_rows = np.union1d(self.early_rows, self.late_rows)
        #: Positions of the late and of the early rows among the inputs.
        late = np.isin(self.input_rows, self.late_rows)
        self._late_at = np.flatnonzero(late)
        self._early_at = np.flatnonzero(~late)
        self._sample = plan.operator[self.lo + self.input_rows]
        self._early_sample = plan.operator[self.lo + self.early_rows]

    def inputs(self, first):
        """The input rows' values: gathered from the solvers' current
        coordinates, except in a window's first sweep, where the late rows
        take the plan's prediction and only the early ones are gathered."""
        if not first:
            return self._sample @ self._plan.coordinates
        vals = np.empty(self.input_rows.shape[0])
        vals[self._late_at] = self._plan.prediction[self.late_span]
        if self._early_at.size:
            vals[self._early_at] = self._early_sample @ self._plan.coordinates
        return vals


class Visit(_SweepUnit):
    """A subdomain visited on its own, through its solver's
    ``advance_window`` in a window's first sweep and ``respond`` in later
    ones; every one of its Gamma rows is an input."""

    def __init__(self, index, plan):
        super().__init__([index], plan)
        self.solver = plan.solvers[index]

    def start_window(self, t_n):
        self._t_n = t_n

    def sweep(self, first):
        vals = self.inputs(first)
        if first:
            self.solver.advance_window(self._t_n, vals)
        else:
            self.solver.respond(vals)

    def finish(self, sweeps):
        if sweeps > 1:
            self.solver.finish_window(self._t_n)

    def first_failure(self):
        """``(subdomain, gathered)`` if the Gamma values (``gathered``) or
        the states the last sweep left are not finite, else None."""
        s = self.solver
        if not np.isfinite(s.g_cur[s.gamma_positions]).all():
            return self.members[0], True
        if not (np.isfinite(s.state).all()
                and np.isfinite(s.last_states).all()):
            return self.members[0], False
        return None


class _SubdomainSolverBase:
    """Shared trace, sampling, and snapshot bookkeeping of subdomain solvers.

    Subclasses keep their own coordinates, ``n_state`` of them, in
    ``state`` and map them to interior nodal values with ``lift``. A window
    is ``steps`` substeps of ``dt``. ``state``, ``g_cur``, ``last_states``
    and ``last_traces`` are written in place, never rebound, so a
    :class:`GatherPlan` can own them.
    """

    def __init__(self, spec, mesh, params, dt, steps, gamma_positions,
                 n_state):
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
        self.state = np.zeros(n_state)
        self.last_states = np.zeros((n_state, self.steps))
        self.last_traces = np.zeros((n_b, self.steps))

    # -- interface trace handling ------------------------------------

    def set_interface_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self.gamma_positions.shape:
            raise ConfigurationError(
                f"expected {self.gamma_positions.shape[0]} interface "
                f"values, got {values.shape}")
        self.g_cur[self.gamma_positions] = values

    # -- sampling ------------------------------------------------------

    def coordinate_operator(self, matrix):
        """``matrix``, an operator on this solver's nodal field such as
        ``StructuredMesh.interpolation_matrix``, as an operator on its
        coordinates ``[state; g_cur]``: their product is ``matrix`` times
        the nodal field, ``lift(state)`` on the interior nodes and ``g_cur``
        on the boundary ones, without that field ever being assembled.
        """
        raise NotImplementedError

    # -- state management ----------------------------------------------

    # The sweep never rewinds a solver: saving and rewinding ``(state,
    # boundary trace)`` serve visit-by-visit reference sweeps only.

    def snapshot_state(self):
        return (self.state.copy(), self.g_cur.copy())

    def restore_state(self, snap):
        self.state[:] = snap[0]
        self.g_cur[:] = snap[1]


class FESubdomainSolver(_SubdomainSolverBase):
    """Finite element subdomain: assembled system plus implicit Euler.

    ``state`` holds the interior nodal values. Within a window the step is
    affine in the Gamma values, which are held fixed, so once an
    :meth:`advance_window` from the window start has taken Gamma values
    ``gamma_1`` to the window-end state ``v_1``, any other Gamma values
    ``gamma`` give ``v_1 + Y (gamma - gamma_1)``: :meth:`respond`, with no
    sparse solve. ``Y``, the Gamma response, is computed once per solver,
    as columns of one solve per operator set (:func:`set_gamma_responses`).

    ``peers`` are the finite element solvers of the same run built before
    this one: the stepper shares the operator set of a peer whose assembled
    matrices equal this one's bitwise (see
    :class:`~cdrschwarz.timestep.ImplicitEulerStepper`), and the caller
    then sets every ``Y`` by :func:`set_gamma_responses`. Without
    ``peers`` the solver stands alone and sets its own. The load, the
    trace, the maps and the state stay per solver.
    """

    def __init__(self, spec, mesh, params, dt, steps, gamma_positions,
                 peers=None):
        super().__init__(spec, mesh, params, dt, steps, gamma_positions,
                         mesh.interior_node_ids.shape[0])
        self.system = system = assemble(mesh, params)
        self.stepper = timestep.ImplicitEulerStepper(
            system, dt, [p.stepper for p in peers or ()])
        #: The last advance's window start ``(state, trace)``, copied into
        #: arrays allocated here. Its anchor, the window end, is
        #: ``last_states[:, -1]`` and ``last_traces[:, -1]`` until
        #: :meth:`finish_window` writes them.
        self._start = (np.empty_like(self.state), np.empty_like(self.g_cur))
        if peers is None:
            set_gamma_responses([self])

    def lift(self, states):
        return states

    def coordinate_operator(self, matrix):
        # Node ids become coordinate positions and each row keeps its
        # entries in node order, so a CSR product sums them as ``matrix``
        # times the nodal field does, bitwise.
        position = np.argsort(np.concatenate((self.interior_map,
                                              self.boundary_map)))
        matrix = matrix.tocsr()
        return csr_matrix(
            (matrix.data, position[matrix.indices], matrix.indptr),
            shape=(matrix.shape[0], position.shape[0]))

    def restore_state(self, snap):
        # Adds nothing: studybench's tracer patches this name in the class's
        # own ``__dict__``, so it stays while the tracer names it.
        super().restore_state(snap)

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

    def advance_window(self, t_n, values):
        """Integrate the window from ``t_n`` holding Gamma ``values`` fixed.

        The window starts from the current state and trace, which the first
        substep's moving-boundary mass term reads. Physical boundary values
        follow the prescribed data at each substep time. The substep history
        is written into ``last_states``/``last_traces`` for the orchestrator
        to record, and the window end anchors :meth:`respond`.
        """
        start_state, start_trace = self._start
        start_state[:] = self.state
        start_trace[:] = self.g_cur
        self.set_interface_values(values)
        self.state[:] = self._substeps(t_n, start_state, start_trace,
                                       self.last_states, self.last_traces)

    def respond(self, values):
        """Impose Gamma ``values`` on the window the last
        :meth:`advance_window` integrated: its end state, still in
        ``last_states[:, -1]``, moved by the Gamma response from its Gamma
        values, still in ``last_traces[:, -1]``; its window-end physical
        trace kept. ``last_states`` and ``last_traces`` wait for
        :meth:`finish_window`."""
        self.set_interface_values(values)
        rows = self.gamma_positions
        np.add(self.last_states[:, -1], self._response @ (
            self.g_cur.take(rows) - self.last_traces[:, -1].take(rows)),
            out=self.state)

    def finish_window(self, t_n):
        """Record the window from ``t_n`` after :meth:`respond` moved its end.

        The substeps before the window end are replayed from the last
        advance's start with the final Gamma values; the window end is the
        last response.
        """
        self.last_states[:, -1] = self.state
        self.last_traces[:, -1] = self.g_cur
        if self.steps > 1:
            self._substeps(t_n, *self._start, self.last_states[:, :-1],
                           self.last_traces[:, :-1])
            self.g_cur[:] = self.last_traces[:, -1]


class RomSubdomainSolver(_SubdomainSolverBase):
    """Reduced subdomain: inferred operators driven by the boundary trace.

    ``state`` holds the reduced coordinates ``vhat``. The reduced model's
    input vector is the full boundary trace in boundary-node order
    (physical and Schwarz parts alike), matching the traces recorded during
    training.
    """

    def __init__(self, spec, mesh, params, dt, steps, gamma_positions, basis,
                 ops):
        super().__init__(spec, mesh, params, dt, steps, gamma_positions,
                         ops.r)
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
        # physical traces, written into ``last_traces``, and their reduced
        # forcing are computed once per window and reused by every sweep.
        physical = np.column_stack(
            [self._physical_trace(t_n + (j + 1) * self.dt)
             for j in range(self.steps)])
        self._forcing = self._Q_physical @ physical + self._q[:, None]
        self.last_traces[self.physical_positions] = physical

    def _substeps(self, vhat, gamma, states):
        """Step ``vhat`` through the prepared window's first substeps, one
        per column of ``states``, which receives them; returns the last."""
        drive = self._Q_gamma @ gamma
        for j in range(states.shape[1]):
            vhat = self._P @ vhat + drive + self._forcing[:, j]
            states[:, j] = vhat
        return vhat

    def advance_window(self, t_n, values):
        """Integrate the window from ``t_n`` in reduced coordinates, from the
        current state, with Gamma ``values`` held fixed.

        Each substep is the explicit implicit-Euler update ``vhat <- P vhat
        + Q_Gamma gamma + c(t_j)``, with ``c(t_j)`` the physical-trace and
        constant forcing at the substep time. ``last_states`` holds the
        reduced coordinates; nothing is lifted here.
        """
        self.set_interface_values(values)
        self._prepare_window(t_n)
        gamma = self.g_cur.take(self.gamma_positions)
        self.state[:] = self._substeps(self.state, gamma, self.last_states)
        self.last_traces[self.gamma_positions] = gamma[:, None]
        self.g_cur[self.physical_positions] = \
            self.last_traces[self.physical_positions, -1]


class ReducedBlock(_SweepUnit):
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
    then the input rows: every Gamma row not fed by an earlier member, that
    is, fed by a donor ahead of the run or later in the sweep. Inputs are
    read through :meth:`~_SweepUnit.inputs` before any member moves.

    ``z`` and ``y`` are allocated once. A window's start copies the
    members' states into ``z`` and, when a member's data move or in the
    first window, the fixed inputs; each sweep writes its inputs into
    ``z`` and scatters ``y`` into ``plan.coordinates`` by one indexed write
    over the members' rows there, ``_rows``. After the final sweep one
    write records ``y`` in every column of those rows of ``plan.window``,
    and with more than one substep the states before the window end are
    replayed from the window-start states, still in ``z``.
    """

    def __init__(self, members, plan):
        super().__init__(members, plan)
        self.solvers = [plan.solvers[i] for i in members]
        #: Member ``m``'s Gamma rows in the run are ``goff[m]:goff[m + 1]``
        #: and its state rows ``so[m]:so[m + 1]``.
        self._goff = [int(plan.offsets[i]) - self.lo for i in members]
        self._goff.append(self.hi - self.lo)
        self._so = np.concatenate(
            ([0], np.cumsum([s.state.shape[0] for s in self.solvers])))
        self._R = int(self._so[-1])
        # The map, composed once: every window has the run's ``n`` substeps.
        R, so, goff = self._R, self._so, self._goff
        n = self.solvers[0].steps
        physical = [s.physical_positions for s in self.solvers]
        hoff = np.concatenate(([0], np.cumsum([p.size for p in physical])))
        h0 = 2 * R  # after the window-start states and the forcing
        base = h0 + int(hoff[-1])
        inputs = self.input_rows
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
        self._z = np.empty(self._M.shape[1])
        self._y = np.empty(self._M.shape[0])
        #: ``z``'s window-start states, fixed inputs and input rows.
        base = self._z.shape[0] - inputs.size
        self._z_start, self._z_fixed, self._z_inputs = (
            self._z[:R], self._z[R:base], self._z[base:])
        self._fixed_written = False
        #: The rows of ``plan.coordinates`` that ``y`` fills: every
        #: member's state, then every member's Gamma values.
        self._rows = np.concatenate(
            [c + np.arange(s.state.shape[0])
             for s, c in zip(self.solvers, columns)]
            + [c + s.state.shape[0] + s.gamma_positions
               for s, c in zip(self.solvers, columns)])
        self._moving = [s for s in self.solvers if not s._steady]

    def start_window(self, t_n):
        """Copy the members' window-start states into ``z`` and, unless
        every member's data are steady and they are written already,
        prepare the members' window and write the inputs fixed within it.
        A member whose data move takes its window-end physical trace."""
        self._plan.coordinates.take(self._rows[:self._R], out=self._z_start)
        if self._fixed_written and not self._moving:
            return
        folded = []
        for s in self.solvers:
            s._prepare_window(t_n)
            f = s._forcing[:, 0]
            for k in range(1, s.steps):
                f = s._P @ f + s._forcing[:, k]
            folded.append(f)
        # Each member's folded forcing, then the physical trace values at
        # the window end that in-run gathers read.
        self._z_fixed[:] = np.concatenate(
            folded + [s.last_traces[h, -1] for s, h in zip(self.solvers,
                                                           self._h_used)])
        self._fixed_written = True
        for s in self._moving:
            s.g_cur[s.physical_positions] = \
                s.last_traces[s.physical_positions, -1]

    def sweep(self, first):
        """Advance every member once, leaving its new ``state`` and trace
        in place for the gathers that follow."""
        self._z_inputs[:] = self.inputs(first)
        np.matmul(self._M, self._z, out=self._y)
        self._plan.coordinates[self._rows] = self._y

    def finish(self, sweeps):
        """Record the last sweep's substep states and traces on the members,
        after any number of ``sweeps``.

        The last sweep's ``y`` fills every column of the members' state
        and Gamma rows of ``plan.window``; the substeps before the window
        end are then replayed by the members' own recurrence from the final
        Gamma values. The physical trace rows were written when the window
        was prepared.
        """
        self._plan.window[self._rows] = self._y[:, None]
        if self.solvers[0].steps == 1:
            return
        R, so, goff = self._R, self._so, self._goff
        for m, s in enumerate(self.solvers):
            s._substeps(self._z_start[so[m]:so[m + 1]],
                        self._y[R + goff[m]:R + goff[m + 1]],
                        s.last_states[:, :-1])

    def first_failure(self):
        """``(subdomain, gathered)`` of the first member whose Gamma values
        (``gathered``, which the map recomputes) or window-end state the
        last sweep left non-finite, or None.

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


def _raise_divergence(plan, t_n):
    """Raise :class:`DivergenceError` for the sweep's first subdomain, in
    sweep order, with non-finite gathered Gamma values or states, or, if
    no unit claims the non-finite value, for the coordinates as a whole;
    the message names the end of the window that starts at ``t_n``."""
    s = plan.solvers[0]
    t_next = t_n + s.dt * s.steps
    for unit in plan.units:
        hit = unit.first_failure()
        if hit is not None and hit[1]:
            raise DivergenceError(
                f"non-finite interface values gathered for subdomain "
                f"{hit[0] + 1} at t={t_next}")
        if hit is not None:
            raise DivergenceError(
                f"subdomain {hit[0] + 1} produced a non-finite state at "
                f"t={t_next}")
    raise DivergenceError(f"non-finite coordinates at t={t_next}")


def schwarz_window(plan, t_n, tol, max_iters):
    """One multiplicative Schwarz fixed point of ``plan.solvers`` over the
    window that starts at ``t_n``, where the solvers are.

    Sweeps the units of the plan in order, each taking its input rows from
    its donors' current states, so units already moved in this sweep
    contribute their new window end; in the first sweep the late rows take
    the plan's prediction instead. A :class:`Visit` advances its solver
    from where it stands in the first sweep and moves it by
    :meth:`~FESubdomainSolver.respond`, with no integration, in later ones;
    a :class:`ReducedBlock` moves its run of reduced subdomains by its
    composed map in every sweep. After the final sweep every unit records
    the window.

    Converged once the relative sup-norm change of every subdomain's Gamma
    values drops to ``tol``; the first sweep's change is measured against
    the values imposed in the previous window. Finiteness and convergence
    are checked once per sweep, on the plan's arrays: its coordinates, and
    in the first sweep also its window, which holds every advanced
    solver's substeps. A non-finite value raises :class:`DivergenceError`
    naming the first subdomain, in sweep order, whose gathered values or
    states are not finite, or else the window end alone.

    Returns ``(iterations, converged)``; the converged states live in the
    plan's coordinates, at the window end, and its ``window`` holds the
    final sweep's ``last_states``/``last_traces``.
    """
    if max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
    prev = plan.coordinates[plan.gamma_rows]
    plan.start_window(t_n)
    converged = False
    for iteration in range(1, max_iters + 1):
        first = iteration == 1
        for unit in plan.units:
            unit.sweep(first)
        checked = (plan.coordinates, plan.window) if first else (
            plan.coordinates,)
        if not kernels.all_finite(*checked):
            _raise_divergence(plan, t_n)
        gamma = plan.coordinates[plan.gamma_rows]
        change = kernels.relative_sup_change(gamma, prev, plan.starts)
        prev = gamma
        if change <= tol:
            converged = True
            break
    for unit in plan.units:
        unit.finish(iteration)
    return iteration, converged


@dataclass
class RunResult:
    """Everything a coupled run produces, including phase timings.

    ``coordinates`` is the run's one record: column ``j`` holds every
    solver's ``[state; boundary trace]`` at ``times[j]``, solver ``k``'s in
    rows ``columns[k]:columns[k + 1]`` of ``columns =
    coordinate_columns(solvers)``, the run's :attr:`GatherPlan.columns`.
    No lifted state is held: :attr:`trajectories` are built from it.
    ``config`` and ``params`` are the problem the run solved.

    A run returned as another's first windows (``run_coupled(...,
    prefix_of=...)``) holds read-only views of that run's ``times`` and
    ``coordinates`` and shares its ``solvers``; its ``iterations`` and
    ``window_converged`` are its own copies, and its timings read 0.
    """

    times: np.ndarray
    coordinates: np.ndarray
    iterations: np.ndarray
    window_converged: np.ndarray
    timings: dict
    solvers: list
    config: SchwarzConfig
    params: object

    @property
    def converged(self):
        return bool(self.window_converged.all())

    @property
    def trajectories(self):
        """One trajectory per solver, built on each read: rows of
        :attr:`coordinates`, a reduced solver's states lifted by its Psi."""
        trajectories = []
        columns = coordinate_columns(self.solvers)
        for s, a, b in zip(self.solvers, columns[:-1], columns[1:]):
            states, traces = np.split(self.coordinates[a:b], [s.state.size])
            if isinstance(s, RomSubdomainSolver):
                states = s.basis.Psi @ states
            trajectories.append(timestep.Trajectory(self.times.copy(),
                                                    states, traces))
        return trajectories


def check_rank(index, spec, basis):
    """Raise unless reduced subdomain ``index``'s ``basis`` has the rank its
    ``spec`` asks for."""
    if basis.r != spec.rom_dim:
        raise ConfigurationError(
            f"subdomain {index + 1} asks for a reduced model of "
            f"rank r = {spec.rom_dim}, but its trained operators have "
            f"rank {basis.r}; retrain with the current config")


def set_gamma_responses(solvers):
    """Give every :class:`FESubdomainSolver` of ``solvers`` its Gamma
    response ``Y``, the window-end state's derivative in its Gamma values,
    by one solve per operator set and window length: over the union of the
    Gamma columns of the solvers that share them, each taking its own
    columns, Fortran-ordered. Columns are solved independently, so each
    ``Y`` is bitwise that of its own columns solved alone."""
    groups = {}
    for s in solvers:
        groups.setdefault((id(s.stepper.operators), s.steps), []).append(s)
    for group in groups.values():
        columns = np.unique(np.concatenate(
            [s.gamma_positions for s in group]))
        y = group[0].stepper.trace_response(columns, group[0].steps)
        for s in group:
            s._response = np.asfortranarray(
                y[:, np.searchsorted(columns, s.gamma_positions)])


def build_solvers(config, table, params, trained=None):
    """One solver per subdomain of ``config``, by ``spec.model``: finite
    element, or reduced on the ``basis`` and ``ops`` of ``trained[index]``.

    Finite element subdomains whose assembled matrices are bitwise equal
    share one operator set and one Gamma-response solve (see
    :class:`FESubdomainSolver`).
    """
    solvers, fe = [], []
    for i, spec in enumerate(config.subdomains):
        args = (spec, table.meshes[i], params, config.dt,
                config.steps_per_window, table.entries[i].gamma_positions)
        if spec.model == "fe":
            fe.append(FESubdomainSolver(*args, peers=tuple(fe)))
            solvers.append(fe[-1])
            continue
        if i not in (trained or {}):
            raise ConfigurationError(
                f"subdomain {i + 1} is reduced but has no trained "
                f"operators; run training first")
        check_rank(i, spec, trained[i].basis)
        solvers.append(RomSubdomainSolver(*args, trained[i].basis,
                                          trained[i].ops))
    set_gamma_responses(fe)
    return solvers


def _first_windows(config, params, run):
    """``run``'s first windows as the run of ``config`` and ``params``, or
    None unless ``run`` solved the same all-FE problem over at least
    ``config``'s horizon: equal :class:`SchwarzConfig` but for ``t_end``,
    equal ``params``, and every subdomain finite element, so that no
    trained operator enters either run.

    The windows are bitwise those ``run_coupled(config, params)`` would
    compute, since every window depends only on the windows before it.
    """
    other = run.config
    if not (params == run.params
            and all(getattr(config, f.name) == getattr(other, f.name)
                    for f in fields(SchwarzConfig) if f.name != "t_end")
            and all(s.model == "fe" for s in config.subdomains)
            and config.n_windows <= other.n_windows):
        return None
    n_windows = config.n_windows
    n_times = timestep.n_steps_for(0.0, config.t_end, config.dt) + 1
    times = run.times[:n_times]
    coordinates = run.coordinates[:, :n_times]
    times.flags.writeable = False
    coordinates.flags.writeable = False
    return RunResult(times=times, coordinates=coordinates,
                     iterations=run.iterations[:n_windows].copy(),
                     window_converged=run.window_converged[:n_windows].copy(),
                     timings={"setup_seconds": 0.0, "solve_seconds": 0.0},
                     solvers=run.solvers, config=config, params=params)


def run_coupled(config, params, trained=None, prefix_of=None):
    """March coupled subdomains over the full horizon, window by window.

    The solvers come from :func:`build_solvers`. Every substep state and
    imposed boundary trace is recorded (the traces double as reduced-model
    training inputs); wall clock is split into a setup phase and a solve
    phase. The :class:`GatherPlan` and its units span the run: its
    gathers impose the initial Gamma values, and its prediction seeds
    every window's first sweep.

    ``prefix_of``, a :class:`RunResult`, is a run that may already hold
    this one: when it solved the same all-FE problem over at least as long
    a horizon and no ``trained`` operators are given, its first windows
    are returned as views, with nothing set up or solved (see
    :func:`_first_windows`). Otherwise the run is computed.
    """
    if prefix_of is not None and not trained:
        run = _first_windows(config, params, prefix_of)
        if run is not None:
            return run
    t0 = time.perf_counter()
    table = build_interfaces(config)
    solvers = build_solvers(config, table, params, trained)
    plan = GatherPlan(table, solvers)
    for i, s in enumerate(solvers):
        s.set_interface_values(plan.gather(i))
    setup_seconds = time.perf_counter() - t0

    n_steps = timestep.n_steps_for(0.0, config.t_end, config.dt)
    times = config.dt * np.arange(n_steps + 1)
    # One record in the plan's coordinates, column-major, so each window's
    # columns are one contiguous copy of ``plan.window``. Nothing is lifted.
    coordinates = np.empty((int(plan.columns[-1]), n_steps + 1), order="F")
    coordinates[:, 0] = plan.coordinates

    n_windows = config.n_windows
    iterations = np.zeros(n_windows, dtype=np.int64)
    window_converged = np.zeros(n_windows, dtype=bool)
    spw = config.steps_per_window
    window_dt = config.window_dt

    t1 = time.perf_counter()
    for w in range(n_windows):
        t_w = w * window_dt
        iters, ok = schwarz_window(plan, t_w, config.tol, config.max_iters)
        iterations[w] = iters
        window_converged[w] = ok
        lo = 1 + w * spw
        coordinates[:, lo:lo + spw] = plan.window
    solve_seconds = time.perf_counter() - t1

    for s in solvers:  # stitching needs no Gamma response
        if isinstance(s, FESubdomainSolver):
            s._response = None
    return RunResult(times=times, coordinates=coordinates,
                     iterations=iterations, window_converged=window_converged,
                     timings={"setup_seconds": setup_seconds,
                              "solve_seconds": solve_seconds},
                     solvers=solvers, config=config, params=params)


class StitchPlan:
    """One sparse averaging operator from a coupled run's coordinates onto
    a global mesh.

    Built like :class:`GatherPlan`: each subdomain's bilinear interpolation
    onto the global nodes its rectangle covers goes through its solver's
    :meth:`coordinate_operator`, and the pieces are stacked into one CSR
    ``operator`` from the concatenated coordinates of ``solvers``, the rows
    of :attr:`RunResult.coordinates`, to the global nodes, each row divided
    by the number of subdomains covering its node. A reduced subdomain is
    stitched through ``W_I Psi``, never lifted.
    """

    def __init__(self, config, global_mesh, solvers):
        pts = global_mesh.coords
        counts = np.zeros(pts.shape[0])
        columns = coordinate_columns(solvers)
        pieces = []
        for spec, s, column in zip(config.subdomains, solvers, columns):
            idx = np.flatnonzero(spec.rect.contains_points(pts))
            pieces.append((idx, s.coordinate_operator(
                s.mesh.interpolation_matrix(pts[idx])), column))
            counts[idx] += 1.0
        if np.any(counts == 0.0):
            bad = int(np.flatnonzero(counts == 0.0)[0])
            raise ConfigurationError(
                f"global node ({pts[bad, 0]}, {pts[bad, 1]}) is covered by "
                f"no subdomain")
        self.operator = _stack_rows(pieces, (pts.shape[0], int(columns[-1])))
        self.operator.data /= np.repeat(counts,
                                        np.diff(self.operator.indptr))

    def apply(self, coordinates):
        """Stitched nodal values of the solvers' concatenated
        ``coordinates``: one column ``(n_coords,)`` or a block of columns
        ``(n_coords, n)``, one per time."""
        return self.operator @ coordinates
