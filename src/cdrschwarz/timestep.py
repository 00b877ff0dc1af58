"""Implicit Euler integration of assembled interior systems.

One step solves

    (M + dt * A_II) v_{n+1} = M v_n + dt * (F(t_{n+1}) - A_IB g_{n+1})
                              - M_IB (g_{n+1} - g_n),

with the boundary trace taken fully implicitly at the new time level. The
last term is the consistent-mass contribution of a moving boundary trace;
it vanishes for a steady trace, and it is what keeps a subdomain step
identical to the matching rows of a monolithic step. ``M + dt * A_II`` is
factored once per :class:`OperatorSet` and reused for every step at that
``dt``: by LAPACK's band LU when its half-bandwidth is at most
:data:`BAND_LIMIT`, by SuperLU otherwise. The symmetric part of these
matrices is positive definite, and on every system of the study band LU
makes no row interchange, so the set keeps its factors as two band
triangles and a solve is two triangular band solves; a band LU that does
interchange rows falls back to SuperLU.
:meth:`ImplicitEulerStepper.solve` serves both, for one right-hand side or
a matrix of them.

The right-hand side apart from the load is one sparse product,

    [M, -dt * A_IB, -M_IB] @ [v_n; g_{n+1}; g_{n+1} - g_n],

with the block operator built once per operator set and its input vector
written in place into a buffer each stepper allocates once. The product's
result is a new array, which the two band triangle solves then overwrite
in place, and a step checks its inputs against shapes kept when the
stepper is built. Steppers whose systems' matrices are bitwise equal, at
the same ``dt``, share one set (see :class:`ImplicitEulerStepper`); each
keeps its own system, so its own load. The load ``dt * F(t_{n+1})`` is scaled once per stepper when the
system's load is steady, and at every step otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dtbtrs
from scipy.sparse import hstack
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, FactorizationError

#: Widest half-bandwidth of ``M + dt * A_II`` factored by band LU. Solve
#: time in us on Q1 systems (2 cores, one BLAS thread, best of 7), SuperLU
#: (MMD_AT_PLUS_A) against the two band triangles, by half-bandwidth: 27
#: 24.9 / 10.2, 50 80.4 / 36.7, 100 352 / 250, 110 445 / 315, 120 545 / 647,
#: 150 845 / 1765 (README, "Numerics"). At this limit every study system
#: goes banded, the nx = 100 reference (100) included.
BAND_LIMIT = 100


@dataclass
class Trajectory:
    """Time history of one simulation.

    ``states`` holds one interior state per column; ``boundary_traces``
    column ``j`` is the Dirichlet trace imposed while stepping into
    ``times[j]`` (column 0 repeats the initial trace).
    """

    times: np.ndarray
    states: np.ndarray
    boundary_traces: np.ndarray

    @property
    def n_times(self):
        return self.times.shape[0]


def same_matrices(a, b):
    """True when systems ``a`` and ``b`` have bitwise equal ``M``, ``A_II``,
    ``A_IB`` and ``M_IB``: the same shapes and the same bytes of ``data``,
    ``indices`` and ``indptr``. No tolerance: only then does a step of one
    give the bits of a step of the other."""
    for name in ("M", "A_II", "A_IB", "M_IB"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or any(
                getattr(x, f).dtype != getattr(y, f).dtype
                or getattr(x, f).tobytes() != getattr(y, f).tobytes()
                for f in ("data", "indices", "indptr")):
            return False
    return True


class OperatorSet:
    """What an implicit Euler step of a system at ``dt`` needs besides the
    load: ``M + dt * A_II`` factored, as two band ``triangles`` or, when it
    has none, SuperLU factors ``lu``, and ``rhs_operator``, ``[M, -dt *
    A_IB, -M_IB]``.
    """

    def __init__(self, system, dt):
        # A sum of sparse matrices is canonical: no duplicate entries.
        matrix = (system.M + dt * system.A_II).tocoo()
        offset = matrix.row - matrix.col
        # ``initial``: a matrix with no stored entry has bandwidth 0.
        kl = int(np.max(offset, initial=0))
        ku = int(np.max(-offset, initial=0))
        n = matrix.shape[0]
        self.triangles = self.lu = None
        failure = None
        if max(kl, ku) <= BAND_LIMIT:
            # LAPACK band storage, with kl extra rows for the pivoting fill;
            # Fortran order, so that dgbtrf factors it in place.
            ab = np.zeros((2 * kl + ku + 1, n), order="F")
            ab[kl + ku + offset, matrix.col] = matrix.data
            lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
            if info > 0:
                failure = f"band LU pivot {info - 1} is zero"
            elif np.array_equal(piv, np.arange(n)):
                # No row interchange, so no fill: the unit lower triangle
                # (kl subdiagonals) and the upper one (ku superdiagonals),
                # each in triangular band storage, are the whole factor.
                self.triangles = (np.asfortranarray(lu[kl + ku:]),
                                  np.asfortranarray(lu[kl:kl + ku + 1]))
        if self.triangles is None and failure is None:
            try:
                # Beyond BAND_LIMIT this ordering solves 1.2-1.7x and
                # factors about 2x faster than SuperLU's default COLAMD.
                self.lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                failure = exc
        if failure is not None:
            raise FactorizationError(
                f"implicit Euler matrix of size {n} is "
                f"singular at dt={dt}: {failure}")
        # One operator for the whole right-hand side but the load: a single
        # sparse product per step instead of one per term, which dominated
        # the cost of small subdomain steps.
        self.rhs_operator = hstack(
            [system.M, -dt * system.A_IB, -system.M_IB], format="csr")


class ImplicitEulerStepper:
    """Reusable backward-Euler stepper for one semi-discrete system.

    ``peers`` are steppers built before this one. The first whose ``dt``
    equals this one's and whose system's matrices equal ``system``'s
    bitwise (:func:`same_matrices`) lends its :class:`OperatorSet`, so
    equal systems are factored once and their steps share one set of
    operators; otherwise the stepper builds its own.
    """

    def __init__(self, system, dt, peers=()):
        if not (np.isfinite(dt) and dt > 0.0):
            raise ConfigurationError(f"time step must be > 0, got {dt}")
        self.system = system
        self.dt = float(dt)
        twin = next((p for p in peers if p.dt == self.dt
                     and same_matrices(p.system, system)), None)
        self.operators = (OperatorSet(system, self.dt) if twin is None
                          else twin.operators)
        #: ``dt * F``, scaled once, for a steady load; None otherwise.
        self._scaled_load = (self.dt * system.load(0.0)
                             if system.steady_load else None)
        n, m = system.n_interior, system.n_boundary
        #: The shapes a step checks its state and traces against.
        self._state_shape, self._trace_shape = (n,), (m,)
        #: A step's ``[v_n; g_next; g_next - g_prev]``, written in place,
        #: and its three parts.
        self._input = np.empty(n + 2 * m)
        self._input_parts = (self._input[:n], self._input[n:n + m],
                             self._input[n + m:])

    def solve(self, rhs, overwrite_rhs=False):
        """``(M + dt * A_II)^-1 rhs`` for a vector or a matrix of columns,
        as a new array with ``rhs`` only read; with ``overwrite_rhs`` the
        band solves may write the result over ``rhs`` instead."""
        ops = self.operators
        if ops.triangles is None:
            return ops.lu.solve(rhs)
        if rhs.size == 0:
            # scipy's dtbtrs wrapper corrupts the heap on an empty matrix
            # of right-hand sides (a subdomain with no Gamma values).
            return np.zeros(rhs.shape)
        lower, upper = ops.triangles
        y = dtbtrs(lower, rhs, uplo="L", diag="U",
                   overwrite_b=overwrite_rhs)[0]
        return dtbtrs(upper, y, overwrite_b=True)[0]

    def trace_response(self, columns, steps):
        """The derivative of the state after ``steps`` steps in the boundary
        trace entries ``columns``, held from the first step on, with the
        trace before it fixed: one column per entry, Fortran-ordered.

        The first step sees them in the stiffness and moving-boundary mass
        terms; later steps hold them, so only the stiffness term and the
        carried state depend on them. Columns are solved independently, so
        each is bitwise the same whatever other columns are asked for.
        """
        system = self.system
        stiffness = self.dt * system.A_IB[:, columns].toarray()
        y = self.solve(-stiffness - system.M_IB[:, columns].toarray())
        for _ in range(1, steps):
            y = self.solve(system.M @ y - stiffness)
        return y

    def step(self, v_n, g_next, t_next, g_prev):
        """Advance one state vector a single step to time ``t_next``, into
        a new array.

        ``g_prev`` is the trace the current state was stepped into (the
        previous column of the trace history).
        """
        if v_n.shape != self._state_shape:
            raise ConfigurationError(
                f"state has shape {v_n.shape}, expected {self._state_shape}")
        if g_next.shape != self._trace_shape:
            raise ConfigurationError(
                f"boundary trace has shape {g_next.shape}, expected "
                f"{self._trace_shape}")
        if g_prev.shape != g_next.shape:
            raise ConfigurationError(
                f"previous trace has shape {g_prev.shape}, expected "
                f"{g_next.shape}")
        v, g, dg = self._input_parts
        v[:] = v_n
        g[:] = g_next
        np.subtract(g_next, g_prev, out=dg)
        rhs = self.operators.rhs_operator @ self._input
        rhs += (self._scaled_load if self._scaled_load is not None
                else self.dt * self.system.load(t_next))
        # ``rhs`` is the product's own new array, so the solve may
        # overwrite it.
        return self.solve(rhs, overwrite_rhs=True)


def n_steps_for(t0, t1, dt):
    """Number of uniform steps covering [t0, t1], validated to 1e-9."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ConfigurationError(f"time interval [{t0}, {t1}] is not finite")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"time step must be > 0, got {dt}")
    if t1 <= t0:
        raise ConfigurationError(f"empty time interval [{t0}, {t1}]")
    span = t1 - t0
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-9 * max(span, dt):
        raise ConfigurationError(
            f"interval [{t0}, {t1}] is not an integer number of steps "
            f"of dt={dt}")
    return n


def integrate(stepper, t0, t1, initial, boundary_fn):
    """March a stepper from t0 to t1 and record the full history, one
    Fortran-ordered column per time.

    ``boundary_fn(t)`` supplies the Dirichlet trace imposed at time ``t``.
    """
    system = stepper.system
    dt = stepper.dt
    n = n_steps_for(t0, t1, dt)
    times = t0 + dt * np.arange(n + 1)
    # Column-major, like a coupled run's record: each step writes one
    # contiguous column, so the history evicts no more of the factors than
    # it must, and it is saved with no transposing copy.
    states = np.empty((system.n_interior, n + 1), order="F")
    traces = np.empty((system.n_boundary, n + 1), order="F")
    v = np.asarray(initial, dtype=float)
    if v.shape != (system.n_interior,):
        raise ConfigurationError(
            f"initial state has shape {v.shape}, expected "
            f"({system.n_interior},)")
    g_prev = np.asarray(boundary_fn(times[0]), dtype=float)
    states[:, 0] = v
    traces[:, 0] = g_prev
    for j in range(1, n + 1):
        g = np.asarray(boundary_fn(times[j]), dtype=float)
        v = stepper.step(v, g, times[j], g_prev)
        states[:, j] = v
        traces[:, j] = g
        g_prev = g
    return Trajectory(times=times, states=states, boundary_traces=traces)
