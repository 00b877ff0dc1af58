"""Implicit Euler integration of assembled interior systems.

One step solves

    (M + dt * A_II) v_{n+1} = M v_n + dt * (F(t_{n+1}) - A_IB g_{n+1})
                              - M_IB (g_{n+1} - g_n),

with the boundary trace taken fully implicitly at the new time level. The
last term is the consistent-mass contribution of a moving boundary trace;
it vanishes for a steady trace (pass ``g_prev=None`` to drop it), and it is
what keeps a subdomain step identical to the matching rows of a monolithic
step. The sparse factorization of ``M + dt * A_II`` is computed once per
stepper and reused for every step at that ``dt``.

The right-hand side apart from the load is one sparse product,

    [M, -dt * A_IB, -M_IB] @ [v_n; g_{n+1}; g_{n+1} - g_n],

with the block operator built once per stepper. A steady trace feeds zeros
to the last block; a system without ``M_IB`` uses the first two blocks.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import hstack
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, FactorizationError


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
        matrix = (system.M + self.dt * system.A_II).tocsc()
        try:
            self._lu = splu(matrix)
        except RuntimeError as exc:
            raise FactorizationError(
                f"implicit Euler matrix of size {matrix.shape[0]} is "
                f"singular at dt={dt}: {exc}") from exc
        # One operator for the whole right-hand side but the load: a single
        # sparse product per step instead of one per term, which dominated
        # the cost of small subdomain steps.
        blocks = [system.M, -self.dt * system.A_IB]
        # What a steady trace feeds the -M_IB block; None without M_IB.
        self._steady_change = None
        if system.M_IB is not None:
            blocks.append(-system.M_IB)
            self._steady_change = np.zeros(system.n_boundary)
        self._rhs_operator = hstack(blocks, format="csr")
        self._load_t = None
        self._load_vec = None

    def _scaled_load(self, t):
        # One-slot cache of dt * F(t): within a Schwarz window the same
        # instants are revisited on every sweep, so repeats are free.
        if self._load_t is None or t != self._load_t:
            self._load_vec = self.dt * self.system.load(t)
            self._load_t = t
        return self._load_vec

    def step(self, v_n, g_next, t_next, g_prev=None):
        """Advance one state vector a single step to time ``t_next``.

        ``g_prev`` is the trace the current state was stepped into (the
        previous column of the trace history); omit it when the boundary
        trace is steady across the step.
        """
        system = self.system
        if v_n.shape != (system.n_interior,):
            raise ConfigurationError(
                f"state has shape {v_n.shape}, expected ({system.n_interior},)")
        if g_next.shape != (system.n_boundary,):
            raise ConfigurationError(
                f"boundary trace has shape {g_next.shape}, expected "
                f"({system.n_boundary},)")
        if self._steady_change is None:
            stacked = np.concatenate((v_n, g_next))
        elif g_prev is None:
            stacked = np.concatenate((v_n, g_next, self._steady_change))
        else:
            if g_prev.shape != g_next.shape:
                raise ConfigurationError(
                    f"previous trace has shape {g_prev.shape}, expected "
                    f"{g_next.shape}")
            stacked = np.concatenate((v_n, g_next, g_next - g_prev))
        rhs = self._rhs_operator @ stacked
        rhs += self._scaled_load(t_next)
        return self._lu.solve(rhs)


def factorize(system, dt):
    """Build the reusable implicit Euler stepper for one system and dt."""
    return ImplicitEulerStepper(system, dt)


def step(stepper, v_n, g_next, t_next, g_prev=None):
    return stepper.step(v_n, g_next, t_next, g_prev)


def n_steps_for(t0, t1, dt):
    """Number of uniform steps covering [t0, t1], validated to 1e-9."""
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


def run_transient(system, dt, t0, t1, initial, boundary_fn):
    """Factorize once and integrate ``system`` over [t0, t1]."""
    return integrate(factorize(system, dt), t0, t1, initial, boundary_fn)
