"""Proper orthogonal decomposition and operator inference.

Reduced models mirror the interior systems: with basis ``Psi`` and reduced
state ``vhat``, the learned dynamics are

    d vhat / dt = Khat vhat + Bhat g + fhat,

where ``g`` is the subdomain boundary trace. Operators are fit by ridge
regression on projected snapshot data; the constant ``fhat`` absorbs the
(uncentered) snapshot offset and any constant forcing. One SVD of the data
matrix serves every ridge weight: each fit applies its own filter factors
to the same singular vectors (see :func:`fit_operators`).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, FactorizationError

#: Relative singular value cutoff of the operator fits, as a least-squares
#: solver's ``rcond``.
LSTSQ_RCOND = 1e-13


@dataclass(frozen=True)
class PodBasis:
    """Leading left singular vectors of a snapshot matrix."""

    Psi: np.ndarray
    svals: np.ndarray

    @property
    def r(self):
        return self.Psi.shape[1]

    @property
    def n(self):
        return self.Psi.shape[0]


def compute_pod(states, r):
    """POD basis of rank ``r`` from raw (uncentered) snapshots.

    ``states`` is (n, n_t) with one snapshot per column. ``svals`` keeps
    every singular value so callers can report retained energy.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ConfigurationError(
            f"snapshot matrix must be 2-D, got shape {states.shape}")
    max_rank = min(states.shape)
    if not (1 <= r <= max_rank):
        raise ConfigurationError(
            f"POD rank r={r} must be in [1, {max_rank}] for a "
            f"{states.shape[0]}x{states.shape[1]} snapshot matrix")
    u, s, _ = scipy.linalg.svd(states, full_matrices=False)
    return PodBasis(Psi=u[:, :r].copy(), svals=s)


def time_derivatives(Y, dt):
    """Second-order finite-difference d/dt of columns of ``Y``.

    Central differences inside, second-order one-sided stencils at both
    ends. Needs at least three columns.
    """
    Y = np.asarray(Y, dtype=float)
    n_t = Y.shape[-1]
    if n_t < 3:
        raise ConfigurationError(
            f"need at least 3 snapshots to differentiate, got {n_t}")
    ydot = np.empty_like(Y)
    ydot[..., 1:-1] = (Y[..., 2:] - Y[..., :-2]) / (2.0 * dt)
    ydot[..., 0] = (-3.0 * Y[..., 0] + 4.0 * Y[..., 1] - Y[..., 2]) / (2.0 * dt)
    ydot[..., -1] = (3.0 * Y[..., -1] - 4.0 * Y[..., -2]
                     + Y[..., -3]) / (2.0 * dt)
    return ydot


@dataclass(frozen=True)
class FitDiagnostics:
    """How well posed an operator-inference fit was, read from its SVD.

    ``data_shape`` is the shape of ``D = [Y^T G^T 1]``; ``rank`` its
    numerical rank at ``LSTSQ_RCOND`` (of ``D`` with its ridge rows when
    ``lam > 0``); ``min_kept_over_cutoff`` the smallest singular value the
    solve kept divided by the cutoff ``LSTSQ_RCOND * s_max``, so values
    near 1 mean the rank hinges on rounding; ``residual`` the relative
    fit residual ``|D O - Ydot^T|_F / |Ydot^T|_F`` over the data rows.
    """

    data_shape: tuple
    rank: int
    min_kept_over_cutoff: float
    residual: float


@dataclass(frozen=True)
class OpInfOperators:
    """Inferred reduced operators ``(Khat, Bhat, fhat)``.

    ``lam`` records the regularization weight the operators were fit
    with; it does not affect how they integrate. ``fit`` holds the
    :class:`FitDiagnostics` of a fit made in this process (None for
    operators loaded or built otherwise).
    """

    Khat: np.ndarray
    Bhat: np.ndarray
    fhat: np.ndarray
    lam: float = 0.0
    fit: Optional[FitDiagnostics] = field(default=None, compare=False)

    def __post_init__(self):
        r = self.Khat.shape[0]
        if self.Khat.shape != (r, r):
            raise ConfigurationError(
                f"Khat must be square, got shape {self.Khat.shape}")
        if self.Bhat.ndim != 2 or self.Bhat.shape[0] != r:
            raise ConfigurationError(
                f"Bhat has shape {self.Bhat.shape}, expected ({r}, m)")
        if self.fhat.shape != (r,):
            raise ConfigurationError(
                f"fhat has shape {self.fhat.shape}, expected ({r},)")
        for name, arr in (("Khat", self.Khat), ("Bhat", self.Bhat),
                          ("fhat", self.fhat)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"inferred {name} is not finite")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigurationError(
                f"regularization weight must be >= 0, got {self.lam}")

    @property
    def r(self):
        return self.Khat.shape[0]

    @property
    def m(self):
        return self.Bhat.shape[1]


def fit_operators(Y, Ydot, G, lams):
    """Ridge regressions for reduced operators, one per weight in ``lams``.

    Each solves ``min || D O - Ydot^T ||_F^2 + lam^2 ||O||_F^2`` with data
    matrix ``D = [Y^T  G^T  1]`` and unknown ``O = [Khat  Bhat  fhat]^T``,
    and all of them come from one SVD ``D = U diag(s) V^T``. The singular
    values of ``D`` stacked on ``lam I`` are ``sigma_i = hypot(s_i, lam)``
    (and ``lam`` once more per column beyond ``len(s)``), and the fit is
    ``O = V diag(f) U^T Ydot^T`` with filter factors ``f_i = (s_i / sigma_i)
    / sigma_i``. A direction is kept when ``sigma_i > LSTSQ_RCOND *
    hypot(s_0, lam)``, the cutoff a least-squares solve of the stacked
    system applies, so a rank-deficient problem at ``lam = 0`` falls back to
    the minimum-norm solution. Dividing by ``sigma_i`` twice lets ``f``
    underflow to 0 for huge ``lam`` instead of overflowing ``sigma_i^2``.
    """
    Y = np.asarray(Y, dtype=float)
    Ydot = np.asarray(Ydot, dtype=float)
    G = np.asarray(G, dtype=float)
    if Y.ndim != 2 or Ydot.shape != Y.shape:
        raise ConfigurationError(
            f"Y and Ydot must share a (r, n_t) shape, got {Y.shape} "
            f"and {Ydot.shape}")
    if G.ndim != 2 or G.shape[1] != Y.shape[1]:
        raise ConfigurationError(
            f"boundary data has shape {G.shape}, expected (m, {Y.shape[1]})")
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not (np.isfinite(lam) and lam >= 0.0):
            raise ConfigurationError(
                f"regularization must be >= 0, got {lam}")
    r, n_t = Y.shape
    m = G.shape[0]
    # Column-major whatever the layout of ``G``, so that the products below
    # round alike for a row view of any history.
    data = np.asfortranarray(np.hstack([Y.T, G.T, np.ones((n_t, 1))]))
    target = Ydot.T
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    coef = u.T @ target
    n_extra = data.shape[1] - s.shape[0]
    fits = []
    for lam in lams:
        sigma = np.hypot(s, lam)
        cutoff = LSTSQ_RCOND * np.hypot(s[0], lam)
        kept = sigma > cutoff
        f = np.zeros_like(s)
        f[kept] = (s[kept] / sigma[kept]) / sigma[kept]
        ops = vt.T @ (f[:, None] * coef)
        # [D; lam I] has n_extra more singular values, each equal to lam.
        extra = n_extra if lam > cutoff else 0
        kept_svals = np.append(sigma[kept], np.full(extra, lam))
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = FitDiagnostics(
                data_shape=data.shape, rank=kept_svals.size,
                min_kept_over_cutoff=float(
                    kept_svals.min() / cutoff if kept_svals.size else np.nan),
                residual=float(np.linalg.norm(data @ ops - target)
                               / np.linalg.norm(target)))
        fits.append(OpInfOperators(
            Khat=ops[:r].T.copy(), Bhat=ops[r:r + m].T.copy(),
            fhat=ops[r + m].copy(), lam=lam, fit=fit))
    return fits


def train_opinf(basis, states, traces, dt, lams):
    """Infer reduced operators from full-order snapshots and traces.

    Snapshots are projected onto ``basis``, differentiated in time, and
    regressed against the reduced state and the boundary trace, once per
    ridge weight in ``lams`` (see :func:`fit_operators`). Only rows
    whose derivative target comes from a central stencil enter the
    regression: the one-sided stencils at the first and last snapshot
    carry a large systematic error when the trajectory starts or ends
    inside a fast transient, and with small regularization that error
    inflates the learned operators enough to destabilize them. The end
    snapshots still inform the kept rows through their stencils. (The two
    end rows are kept when fewer than five snapshots are available, where
    there is no interior to speak of.)
    """
    states = np.asarray(states, dtype=float)
    if states.shape[0] != basis.n:
        raise ConfigurationError(
            f"snapshots have {states.shape[0]} rows but the basis spans "
            f"{basis.n}")
    traces = np.asarray(traces, dtype=float)
    Y = basis.Psi.T @ states
    Ydot = time_derivatives(Y, dt)
    if Y.shape[1] >= 5:
        Y, Ydot, traces = Y[:, 1:-1], Ydot[:, 1:-1], traces[:, 1:-1]
    return fit_operators(Y, Ydot, traces, lams)


class RomStepper:
    """Reusable implicit Euler stepper for one inferred reduced model."""

    def __init__(self, ops, dt):
        if not (np.isfinite(dt) and dt > 0.0):
            raise ConfigurationError(f"time step must be > 0, got {dt}")
        self.ops = ops
        self.dt = float(dt)
        matrix = np.eye(ops.r) - self.dt * ops.Khat
        lu, piv = scipy.linalg.lu_factor(matrix)
        if np.any(np.abs(np.diag(lu)) == 0.0):
            raise FactorizationError(
                f"reduced implicit Euler matrix of size {ops.r} is singular "
                f"at dt={dt}")
        self._lu = (lu, piv)

    def step(self, vhat, g_next):
        ops = self.ops
        if vhat.shape != (ops.r,):
            raise ConfigurationError(
                f"reduced state has shape {vhat.shape}, expected ({ops.r},)")
        if g_next.shape != (ops.m,):
            raise ConfigurationError(
                f"boundary input has shape {g_next.shape}, expected "
                f"({ops.m},)")
        rhs = vhat + self.dt * (ops.Bhat @ g_next + ops.fhat)
        # check_finite off: divergence is detected by the callers' explicit
        # finiteness checks, which report it as DivergenceError.
        return scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)

    def propagators(self):
        """Explicit form ``(P, Q, q)`` of one step: ``P vhat + Q g + q``.

        ``P = (I - dt Khat)^-1``, ``Q = dt P Bhat`` and ``q = dt P fhat``
        come from one solve, so a caller taking many steps trades each solve
        for small matvecs; results agree with :meth:`step` to rounding. The
        solve is numpy's; a scipy solve would change the propagators, and
        every reduced march, at rounding.
        """
        ops = self.ops
        P = np.linalg.solve(np.eye(ops.r) - self.dt * ops.Khat,
                            np.hstack([np.eye(ops.r), self.dt * ops.Bhat,
                                       self.dt * ops.fhat[:, None]]))
        return P[:, :ops.r], P[:, ops.r:-1], P[:, -1]
