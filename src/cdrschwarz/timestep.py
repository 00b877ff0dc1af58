"""Implicit Euler integration of assembled interior systems.

One step solves

    (M + dt * A_II) v_{n+1} = M v_n + dt * (F(t_{n+1}) - A_IB g_{n+1})
                              - M_IB (g_{n+1} - g_n),

with the boundary trace taken fully implicitly at the new time level. The
last term is the consistent-mass contribution of a moving boundary trace;
it vanishes for a steady trace, and it is what keeps a subdomain step
identical to the matching rows of a monolithic step. ``M + dt * A_II`` is
factored once per stepper and reused for every step at that ``dt``: by
LAPACK's band LU when its half-bandwidth is at most :data:`BAND_LIMIT`, by
SuperLU otherwise. :meth:`ImplicitEulerStepper.solve` serves both, for one
right-hand side or a matrix of them.

The right-hand side apart from the load is one sparse product,

    [M, -dt * A_IB, -M_IB] @ [v_n; g_{n+1}; g_{n+1} - g_n],

with the block operator built once per stepper.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import hstack
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, FactorizationError

#: Widest half-bandwidth of ``M + dt * A_II`` factored by band LU. Solve
#: time of band LU over SuperLU's on Q1 systems (2 cores, best of 5), by
#: half-bandwidth: 16 0.53, 28 0.64, 37 0.58, 50 0.74, 55 0.87, 100 2.13;
#: band factorization is 2-14x faster throughout. At this limit the default
#: quadrants (27) and strips (15-16) go banded, while the nx = 50 reference
#: (50), which times the study, and every nx = 100 system (>= 54) stay on
#: SuperLU.
BAND_LIMIT = 40


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


class ImplicitEulerStepper:
    """Reusable backward-Euler stepper for one semi-discrete system."""

    def __init__(self, system, dt):
        if not (np.isfinite(dt) and dt > 0.0):
            raise ConfigurationError(f"time step must be > 0, got {dt}")
        self.system = system
        self.dt = float(dt)
        # A sum of sparse matrices is canonical: no duplicate entries.
        matrix = (system.M + self.dt * system.A_II).tocoo()
        offset = matrix.row - matrix.col
        # ``initial``: a matrix with no stored entry has bandwidth 0.
        kl = int(np.max(offset, initial=0))
        ku = int(np.max(-offset, initial=0))
        failure = None
        if max(kl, ku) <= BAND_LIMIT:
            # LAPACK band storage, with kl extra rows for the pivoting fill.
            ab = np.zeros((2 * kl + ku + 1, matrix.shape[0]))
            ab[kl + ku + offset, matrix.col] = matrix.data
            lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
            self._band = (lu, kl, ku, piv)
            if info > 0:
                failure = f"band LU pivot {info - 1} is zero"
        else:
            self._band = None
            try:
                self._lu = splu(matrix.tocsc())
            except RuntimeError as exc:
                failure = exc
        if failure is not None:
            raise FactorizationError(
                f"implicit Euler matrix of size {matrix.shape[0]} is "
                f"singular at dt={dt}: {failure}")
        # One operator for the whole right-hand side but the load: a single
        # sparse product per step instead of one per term, which dominated
        # the cost of small subdomain steps.
        self._rhs_operator = hstack(
            [system.M, -self.dt * system.A_IB, -system.M_IB], format="csr")
        self._load_t = None
        self._load_vec = None

    def solve(self, rhs):
        """``(M + dt * A_II)^-1 rhs`` for a vector or a matrix of columns."""
        if self._band is None:
            return self._lu.solve(rhs)
        lu, kl, ku, piv = self._band
        return dgbtrs(lu, kl, ku, rhs, piv)[0]

    def _scaled_load(self, t):
        # One-slot cache of dt * F(t): within a Schwarz window the same
        # instants are revisited on every sweep, so repeats are free.
        if self._load_t is None or t != self._load_t:
            self._load_vec = self.dt * self.system.load(t)
            self._load_t = t
        return self._load_vec

    def step(self, v_n, g_next, t_next, g_prev):
        """Advance one state vector a single step to time ``t_next``.

        ``g_prev`` is the trace the current state was stepped into (the
        previous column of the trace history).
        """
        system = self.system
        if v_n.shape != (system.n_interior,):
            raise ConfigurationError(
                f"state has shape {v_n.shape}, expected ({system.n_interior},)")
        if g_next.shape != (system.n_boundary,):
            raise ConfigurationError(
                f"boundary trace has shape {g_next.shape}, expected "
                f"({system.n_boundary},)")
        if g_prev.shape != g_next.shape:
            raise ConfigurationError(
                f"previous trace has shape {g_prev.shape}, expected "
                f"{g_next.shape}")
        rhs = self._rhs_operator @ np.concatenate((v_n, g_next,
                                                   g_next - g_prev))
        rhs += self._scaled_load(t_next)
        return self.solve(rhs)


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
    """March a stepper from t0 to t1 and record the full history.

    ``boundary_fn(t)`` supplies the Dirichlet trace imposed at time ``t``.
    """
    system = stepper.system
    dt = stepper.dt
    n = n_steps_for(t0, t1, dt)
    times = t0 + dt * np.arange(n + 1)
    states = np.empty((system.n_interior, n + 1))
    traces = np.empty((system.n_boundary, n + 1))
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
