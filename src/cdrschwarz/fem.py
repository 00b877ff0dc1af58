"""Q1 finite element discretization of the convection-diffusion-reaction
operator on structured meshes.

The strong form is ``u_t - eps * lap(u) + b . grad(u) + sigma * u = f`` with
Dirichlet data on the rectangle border. ``assemble`` eliminates boundary
nodes and returns the semi-discrete interior system

    M dv/dt = -A_II v - A_IB g + F(t),

where ``v`` collects interior nodal values and ``g`` the boundary trace.
All integrals use 2x2 Gauss quadrature, which is exact for every term here
on affine data; the mass matrix is consistent (not lumped).

Forcing and Dirichlet data are read through one evaluator,
:func:`profile_closure`, at fixed points: quadrature points for the load,
boundary nodes for the trace. Data that do not depend on time are
evaluated once there, and the load is then assembled once.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConfigurationError

# 2-point Gauss rule on [0, 1] per direction.
_GP = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
_GW = (0.5, 0.5)


def time_independent(profile):
    """Mark a profile ``(x, y, t) -> values`` that ignores ``t``: every
    solver evaluates data so marked once (see :func:`profile_closure`)."""
    profile.time_independent = True
    return profile


@dataclass(frozen=True)
class CdrParams:
    """Physical coefficients and data of the scalar CDR equation.

    ``forcing`` and ``dirichlet`` may each be ``None`` (zero), a scalar, or
    a vectorized callable ``(x, y, t) -> values``. A callable marked by
    :func:`time_independent` is evaluated once, not at every step time.
    """

    eps: float
    sigma: float
    b: tuple
    forcing: object = None
    dirichlet: object = None

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigurationError(f"diffusion eps must be > 0, got {self.eps}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigurationError(
                f"reaction sigma must be >= 0, got {self.sigma}")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (2,) or not np.all(np.isfinite(b)):
            raise ConfigurationError(f"velocity b must be two finite numbers, got {self.b}")
        object.__setattr__(self, "b", (float(b[0]), float(b[1])))


def shape_functions(xi, eta):
    """Q1 shape values and reference-square gradients at ``(xi, eta)``.

    Node order matches the mesh connectivity: (0,0), (1,0), (0,1), (1,1).
    Returns ``(N, dN)`` with shapes (4,) and (4, 2).
    """
    n = np.array([(1.0 - xi) * (1.0 - eta), xi * (1.0 - eta),
                  (1.0 - xi) * eta, xi * eta])
    dn = np.array([[-(1.0 - eta), -(1.0 - xi)],
                   [(1.0 - eta), -xi],
                   [-eta, (1.0 - xi)],
                   [eta, xi]])
    return n, dn


def _quad_tables(hx, hy):
    """Shape values/physical gradients and weights at the 2x2 Gauss points."""
    pts = [(gx, gy) for gy in _GP for gx in _GP]
    wts = [wx * wy * hx * hy for wy in _GW for wx in _GW]
    n_tab = np.empty((4, 4))
    dx_tab = np.empty((4, 4))
    dy_tab = np.empty((4, 4))
    for q, (gx, gy) in enumerate(pts):
        n, dn = shape_functions(gx, gy)
        n_tab[q] = n
        dx_tab[q] = dn[:, 0] / hx
        dy_tab[q] = dn[:, 1] / hy
    return np.array(pts), np.array(wts), n_tab, dx_tab, dy_tab


def element_matrices(hx, hy, params):
    """Consistent element mass and CDR stiffness on one hx-by-hy cell."""
    _, wts, n_tab, dx_tab, dy_tab = _quad_tables(hx, hy)
    bx, by = params.b
    me = np.zeros((4, 4))
    ae = np.zeros((4, 4))
    for q in range(4):
        n = n_tab[q]
        gx = dx_tab[q]
        gy = dy_tab[q]
        w = wts[q]
        me += w * np.outer(n, n)
        ae += w * (params.eps * (np.outer(gx, gx) + np.outer(gy, gy))
                   + np.outer(n, bx * gx + by * gy)
                   + params.sigma * np.outer(n, n))
    return me, ae


@dataclass
class SemiDiscreteSystem:
    """Interior ODE system of one meshed subdomain after boundary elimination.

    ``M_IB`` couples interior rows to boundary values through the
    consistent mass matrix; its term in a step vanishes when the boundary
    trace is steady. ``steady_load``: ``load`` returns the same vector at
    every time.
    """

    M: csr_matrix
    A_II: csr_matrix
    A_IB: csr_matrix
    M_IB: csr_matrix
    interior_map: np.ndarray
    boundary_map: np.ndarray
    load: Callable[[float], np.ndarray]
    mesh: object = None
    steady_load: bool = False

    @property
    def n_interior(self):
        return self.interior_map.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_map.shape[0]


def _scatter_coo(conn, elem_m, elem_a):
    """Expand two shared 4x4 element matrices into global COO triplets."""
    ne = conn.shape[0]
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    mvals = np.tile(elem_m.reshape(-1), ne)
    avals = np.tile(elem_a.reshape(-1), ne)
    return rows, cols, mvals, avals


def _load_scatter(conn, fq, phiw, n_nodes):
    """Accumulate quadrature sums of forcing times shape values into nodes.

    ``fq`` is (ne, nq) forcing at quadrature points; ``phiw`` is (nq, 4)
    shape values pre-multiplied by weight and Jacobian.
    """
    contrib = fq @ phiw
    return np.bincount(conn.ravel(), weights=contrib.ravel(), minlength=n_nodes)


def assemble_full(mesh, params):
    """Global consistent mass and CDR matrices over all mesh nodes."""
    me, ae = element_matrices(mesh.hx, mesh.hy, params)
    rows, cols, mvals, avals = _scatter_coo(mesh.connectivity, me, ae)
    shape = (mesh.n_nodes, mesh.n_nodes)
    m_full = csr_matrix((mvals, (rows, cols)), shape=shape)
    a_full = csr_matrix((avals, (rows, cols)), shape=shape)
    return m_full, a_full


def profile_closure(data, x, y):
    """``(evaluate, steady)`` for problem data at the fixed points ``(x,
    y)``: ``evaluate(t)`` returns the values, shaped like ``x``, as a
    read-only array.

    ``data`` is None (zero), a scalar, or a profile ``(x, y, t) ->
    values``. Non-profile data and profiles marked by
    :func:`time_independent` are evaluated once and reported ``steady``.
    """
    if callable(data):
        def evaluate(t):
            return np.broadcast_to(np.asarray(data(x, y, t), dtype=float),
                                   x.shape)

        if not getattr(data, "time_independent", False):
            return evaluate, False
        const = evaluate(0.0)
    else:
        const = np.broadcast_to(0.0 if data is None else float(data), x.shape)
    return (lambda t: const), True


def _forcing_closure(mesh, params, interior_map):
    """``(load, steady)``: the interior load vector F(t), assembled once
    for steady forcing."""
    pts, wts, n_tab, _, _ = _quad_tables(mesh.hx, mesh.hy)
    phiw = n_tab * wts[:, None]
    conn = mesh.connectivity
    # Quadrature-point coordinates, one row of 4 points per cell.
    corner = mesh.coords[conn[:, 0]]
    xq = corner[:, 0][:, None] + pts[:, 0][None, :] * mesh.hx
    yq = corner[:, 1][:, None] + pts[:, 1][None, :] * mesh.hy
    forcing, steady = profile_closure(params.forcing, xq, yq)

    def load(t):
        full = _load_scatter(conn, np.ascontiguousarray(forcing(t)), phiw,
                             mesh.n_nodes)
        return full[interior_map]

    if steady:
        const = load(0.0)
        return (lambda t: const), True
    return load, False


def assemble(mesh, params):
    """Assemble the interior system of ``mesh`` with coefficients ``params``."""
    m_full, a_full = assemble_full(mesh, params)
    interior = mesh.interior_node_ids
    boundary = mesh.boundary_node_ids
    if interior.size == 0:
        raise ConfigurationError(
            f"mesh {mesh.nx}x{mesh.ny} has no interior nodes; refine it")
    m_ii = m_full[interior][:, interior].tocsr()
    a_ii = a_full[interior][:, interior].tocsr()
    a_ib = a_full[interior][:, boundary].tocsr()
    m_ib = m_full[interior][:, boundary].tocsr()
    load, steady = _forcing_closure(mesh, params, interior)
    return SemiDiscreteSystem(
        M=m_ii, A_II=a_ii, A_IB=a_ib, M_IB=m_ib,
        interior_map=interior, boundary_map=boundary,
        load=load, mesh=mesh, steady_load=steady)


def boundary_values(system, params):
    """Evaluator ``t -> values`` of the Dirichlet trace at the system's
    boundary nodes; steady data are evaluated once."""
    coords = system.mesh.coords[system.boundary_map]
    return profile_closure(params.dirichlet, coords[:, 0], coords[:, 1])[0]
