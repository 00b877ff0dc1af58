"""Correctness checks of one study pass, computed apart from the program.

The checks rebuild what they compare against from the problem statement,
not from the package: Q1 matrices of the convection-diffusion-reaction
operator as Kronecker products of 1-D linear-element matrices, the load of
f = x*y in closed form, nodal histories and the overlap average of the
coupled runs, and the time-averaged relative L2 error. Only the recorded
trajectories and the exported files are taken from the program.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Reference norms below this are skipped by :func:`relative_error`.
ZERO_NORM = 1e-14

#: All-FE DD against the FE reference (Schwarz consistency on matching meshes).
DD_TOL = 1e-8
#: Hybrid error ceiling.
HYBRID_TOL = 1e-2
#: Mono-OpInf error must be at least this multiple of the hybrid error.
MONO_GAP = 5.0
#: Implicit-Euler residual, relative to the size of the terms.
EULER_TOL = 1e-10
#: Final reference state against a direct steady solve.
STEADY_TOL = 1e-8
#: Exported fields against the stitched histories they come from.
EXPORT_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    """The study's PDE on the unit square: eps, sigma, b; f = x*y, g = 0."""

    eps: float = 1e-2
    sigma: float = 1e-3
    b: tuple = (math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))


PROBLEM = Problem()


# ---------------------------------------------------------------------------
# Discretization rebuilt from the problem statement
# ---------------------------------------------------------------------------

def _p1(n, h):
    """1-D linear-element mass, stiffness and ``(phi_i, phi_j')`` matrices."""
    main = np.full(n + 1, 2.0)
    main[[0, -1]] = 1.0
    off = np.ones(n)
    mass = sp.diags([off, 2.0 * main, off], [-1, 0, 1]) * (h / 6.0)
    stiff = sp.diags([-off, main, -off], [-1, 0, 1]) / h
    conv_main = np.zeros(n + 1)
    conv_main[0], conv_main[-1] = -0.5, 0.5
    conv = sp.diags([-0.5 * off, conv_main, 0.5 * off], [-1, 0, 1])
    return mass, stiff, conv


def q1_system(nx, ny, problem=PROBLEM):
    """Mass, operator and load of the Q1 discretization on the unit square.

    Node ``(i, j)`` has id ``j * (nx + 1) + i``. Returns ``(M, A, F)`` over
    all nodes, with ``A`` the diffusion + convection + reaction matrix and
    ``F`` the load of f = x*y, which is exact for this separable source.
    """
    mx, kx, cx = _p1(nx, 1.0 / nx)
    my, ky, cy = _p1(ny, 1.0 / ny)
    mass = sp.kron(my, mx)
    op = (problem.eps * (sp.kron(my, kx) + sp.kron(ky, mx))
          + problem.b[0] * sp.kron(my, cx) + problem.b[1] * sp.kron(cy, mx)
          + problem.sigma * mass)
    fx = _moment(nx)
    fy = _moment(ny)
    return mass.tocsr(), op.tocsr(), np.kron(fy, fx)


def _moment(n):
    """``int_0^1 x phi_i(x) dx`` of the 1-D hat functions on n cells."""
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    out = h * x
    out[0] = h * h / 6.0
    out[-1] = h / 2.0 - h * h / 6.0
    return out


def boundary_mask(nx, ny):
    """True on border nodes of an ``nx`` by ``ny`` grid, in node-id order."""
    i, j = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    return ((i == 0) | (i == nx) | (j == 0) | (j == ny)).ravel()


def nodal(nx, ny, states, traces):
    """Full nodal history from interior states and boundary traces."""
    on_border = boundary_mask(nx, ny)
    full = np.empty((on_border.size, states.shape[1]))
    full[~on_border] = states
    full[on_border] = traces
    return full


def stitch(nx, ny, pieces):
    """Average subdomain histories on the global ``nx`` by ``ny`` grid.

    ``pieces`` holds ``(rect, sub_nx, sub_ny, history)`` per subdomain, with
    ``rect = (x0, x1, y0, y1)`` and ``history`` over the subdomain's nodes.
    Subdomain grids must coincide with the global grid where they overlap
    it, so every covered global node is a subdomain node.
    """
    gx, gy = np.meshgrid(np.linspace(0.0, 1.0, nx + 1),
                         np.linspace(0.0, 1.0, ny + 1))
    gx, gy = gx.ravel(), gy.ravel()
    acc = None
    count = np.zeros(gx.size)
    for (x0, x1, y0, y1), snx, sny, hist in pieces:
        tol = 1e-9
        inside = ((gx >= x0 - tol) & (gx <= x1 + tol)
                  & (gy >= y0 - tol) & (gy <= y1 + tol))
        fi = (gx[inside] - x0) / (x1 - x0) * snx
        fj = (gy[inside] - y0) / (y1 - y0) * sny
        li, lj = np.rint(fi).astype(np.int64), np.rint(fj).astype(np.int64)
        if max(np.abs(fi - li).max(), np.abs(fj - lj).max()) > 1e-6:
            raise ValueError("subdomain grid does not match the global grid")
        if acc is None:
            acc = np.zeros((gx.size, hist.shape[1]))
        acc[inside] += hist[lj * (snx + 1) + li]
        count[inside] += 1.0
    if np.any(count == 0.0):
        raise ValueError("a global node is covered by no subdomain")
    return acc / count[:, None]


def relative_error(model, reference):
    """Mean over time of ``||model - ref|| / ||ref||``, skipping zero refs."""
    diff = np.linalg.norm(model - reference, axis=0)
    ref = np.linalg.norm(reference, axis=0)
    keep = ref >= ZERO_NORM
    return float(np.mean(diff[keep] / ref[keep]))


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

@dataclass
class StudyOutputs:
    """What the checks read from one study pass.

    Histories are ``(n_nodes, n_times)`` arrays on the global grid;
    ``runs`` maps ``"all-fe"``, ``"training"`` and ``"hybrid"`` to
    ``(window_converged, iterations)`` arrays; ``exports`` maps an exported
    CSV's ``(kind, time index)`` to its nodal values.
    """

    nx: int
    ny: int
    dt: float
    reference: np.ndarray
    allfe: np.ndarray
    hybrid: np.ndarray
    mono: np.ndarray
    runs: dict
    exports: dict


def euler_residual(out, problem=PROBLEM):
    """Largest relative implicit-Euler residual over the reference's steps.

    Every step must satisfy ``M (u_{n+1} - u_n) + dt (A u_{n+1} - F) = 0``
    on interior rows, where ``u`` holds boundary values too.
    """
    mass, op, load = q1_system(out.nx, out.ny, problem)
    interior = ~boundary_mask(out.nx, out.ny)
    u = out.reference
    dmass = (mass @ (u[:, 1:] - u[:, :-1]))[interior]
    flux = out.dt * (op @ u[:, 1:])[interior]
    force = out.dt * load[interior][:, None]
    residual = dmass + flux - force
    scale = max(np.abs(mass @ u).max(), np.abs(flux).max(),
                np.abs(force).max())
    return float(np.abs(residual).max() / scale)


def steady_mismatch(out, problem=PROBLEM):
    """Relative difference of the final reference state and the steady one."""
    _, op, load = q1_system(out.nx, out.ny, problem)
    interior = np.flatnonzero(~boundary_mask(out.nx, out.ny))
    a_ii = op[interior][:, interior].tocsc()
    steady = spla.spsolve(a_ii, load[interior])
    final = out.reference[interior, -1]
    return float(np.linalg.norm(final - steady) / np.linalg.norm(steady))


def check(out, steady=False, mono_gap=False):
    """Run every check; returns ``(failures, values)``.

    ``failures`` lists a message per failed check, empty when all pass;
    ``values`` holds the measured quantities, ``hybrid_err`` among them.
    ``steady`` adds the steady-state check and ``mono_gap`` the mono-OpInf
    gap, for workloads where they must hold.
    """
    failures = []
    values = {}
    n_nodes = (out.nx + 1) * (out.ny + 1)
    histories = {"reference": out.reference, "all-fe": out.allfe,
                 "hybrid": out.hybrid, "mono": out.mono}
    for name, hist in histories.items():
        if hist.shape[0] != n_nodes or hist.shape[1] != out.reference.shape[1]:
            failures.append(f"{name} history has shape {hist.shape}")
            return failures, values
        if not np.all(np.isfinite(hist)):
            failures.append(f"{name} history is not finite")
    if failures:
        return failures, values
    for name, (converged, iterations) in out.runs.items():
        if not np.all(converged):
            failures.append(f"{name} run: {int(np.sum(~converged))} windows "
                            f"did not converge")
        if np.any(iterations < 1):
            failures.append(f"{name} run records a window with no sweep")

    values["euler_residual"] = euler_residual(out)
    if not values["euler_residual"] <= EULER_TOL:
        failures.append(f"reference violates implicit Euler: relative "
                        f"residual {values['euler_residual']:.3e}")
    if steady:
        values["steady_mismatch"] = steady_mismatch(out)
        if not values["steady_mismatch"] <= STEADY_TOL:
            failures.append(f"final reference state is "
                            f"{values['steady_mismatch']:.3e} from steady")

    values["dd_err"] = relative_error(out.allfe, out.reference)
    values["hybrid_err"] = relative_error(out.hybrid, out.reference)
    values["mono_err"] = relative_error(out.mono, out.reference)
    if not values["dd_err"] <= DD_TOL:
        failures.append(f"all-FE DD error {values['dd_err']:.3e} > {DD_TOL}")
    if not values["hybrid_err"] <= HYBRID_TOL:
        failures.append(f"hybrid error {values['hybrid_err']:.3e} > "
                        f"{HYBRID_TOL}")
    if mono_gap and not values["mono_err"] >= MONO_GAP * values["hybrid_err"]:
        failures.append(f"mono-OpInf error {values['mono_err']:.3e} is under "
                        f"{MONO_GAP}x the hybrid error")

    sources = {"reference": out.reference, "schwarz": out.allfe,
               "hybrid": out.hybrid}
    worst = 0.0
    for (kind, j), field in out.exports.items():
        want = sources[kind][:, j]
        if field.shape != want.shape:
            failures.append(f"exported {kind} field at step {j} has "
                            f"{field.shape[0]} nodes")
            continue
        worst = max(worst, float(np.abs(field - want).max()
                                 / (1.0 + np.abs(want).max())))
    values["export_mismatch"] = worst
    if not worst <= EXPORT_TOL:
        failures.append(f"exported fields differ from the histories by "
                        f"{worst:.3e}")
    return failures, values
