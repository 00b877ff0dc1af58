"""Hot numeric kernels: point location, bilinear gather, element scatter.

Every kernel exists twice: a Numba ``@njit`` version and a pure-NumPy
reference version computing the same quantity (results agree up to
floating-point summation order). The active backend is chosen once at
import time; set ``CDRSCHWARZ_NUMBA=0`` to force the NumPy path. Within
one backend every kernel is deterministic: reruns reproduce bitwise.
``benchmarks/benchmark_kernels.py`` times the two backends against each
other and checks their numerical agreement.
"""

import os

import numpy as np


def _numba_requested():
    flag = os.environ.get("CDRSCHWARZ_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# NumPy reference implementations
# ---------------------------------------------------------------------------

def locate_points_numpy(px, py, x0, y0, hx, hy, nx, ny, tol):
    """Cell indices and local coordinates of points in a uniform grid.

    Returns ``(ci, cj, xi, eta, inside)``. Points within ``tol`` of the
    rectangle are clamped onto it; ``inside`` is False beyond that and the
    caller decides how to treat such points.
    """
    xmax = x0 + nx * hx
    ymax = y0 + ny * hy
    inside = ((px >= x0 - tol) & (px <= xmax + tol)
              & (py >= y0 - tol) & (py <= ymax + tol))
    rx = (px - x0) / hx
    ry = (py - y0) / hy
    ci = np.clip(np.floor(rx).astype(np.int64), 0, nx - 1)
    cj = np.clip(np.floor(ry).astype(np.int64), 0, ny - 1)
    xi = np.clip(rx - ci, 0.0, 1.0)
    eta = np.clip(ry - cj, 0.0, 1.0)
    return ci, cj, xi, eta, inside


def bilinear_gather_numpy(field, ci, cj, xi, eta, nx):
    """Bilinear interpolation of a nodal field at located points."""
    base = cj * (nx + 1) + ci
    f00 = field[base]
    f10 = field[base + 1]
    f01 = field[base + nx + 1]
    f11 = field[base + nx + 2]
    return ((1.0 - xi) * (1.0 - eta) * f00 + xi * (1.0 - eta) * f10
            + (1.0 - xi) * eta * f01 + xi * eta * f11)


def scatter_coo_numpy(conn, elem_m, elem_a):
    """Expand two shared 4x4 element matrices into global COO triplets."""
    ne = conn.shape[0]
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    mvals = np.tile(elem_m.reshape(-1), ne)
    avals = np.tile(elem_a.reshape(-1), ne)
    return rows, cols, mvals, avals


def load_scatter_numpy(conn, fq, phiw, n_nodes):
    """Accumulate quadrature sums of forcing times shape values into nodes.

    ``fq`` is (ne, nq) forcing at quadrature points; ``phiw`` is (nq, 4)
    shape values pre-multiplied by weight and Jacobian.
    """
    contrib = fq @ phiw
    return np.bincount(conn.ravel(), weights=contrib.ravel(), minlength=n_nodes)


def csr_matvec_numpy(data, indices, indptr, x):
    """Sparse matrix-vector product from raw CSR arrays."""
    n_rows = indptr.shape[0] - 1
    out = np.zeros(n_rows)
    starts = indptr[:-1]
    nonempty = starts < indptr[1:]
    if np.any(nonempty):
        prod = data * x[indices]
        out[nonempty] = np.add.reduceat(prod, starts[nonempty])
    return out


def all_finite_numpy(x):
    """True when every entry of a 1-D array is finite."""
    # Array methods skip the Python-level wrappers of ``np.all``/``np.max``,
    # which cost more than the reduction itself on interface-sized inputs.
    return bool(np.isfinite(x).all())


def relative_sup_change_numpy(new, prev):
    """Sup-norm change of ``new`` against ``prev``, relative to ``new``.

    Computes ``max|new - prev| / (1 + max|new|)``; empty inputs change
    nothing and return 0. Inputs are expected finite (the coupled loop
    checks finiteness before measuring convergence).
    """
    if new.shape[0] == 0:
        return 0.0
    return float(np.abs(new - prev).max() / (1.0 + np.abs(new).max()))


# ---------------------------------------------------------------------------
# Numba implementations
# ---------------------------------------------------------------------------

NUMBA_ENABLED = False
if _numba_requested():
    try:
        from numba import njit
        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False

if NUMBA_ENABLED:

    @njit(cache=True)
    def _locate_points_nb(px, py, x0, y0, hx, hy, nx, ny, tol):
        n = px.shape[0]
        ci = np.empty(n, np.int64)
        cj = np.empty(n, np.int64)
        xi = np.empty(n)
        eta = np.empty(n)
        inside = np.empty(n, np.bool_)
        xmax = x0 + nx * hx
        ymax = y0 + ny * hy
        for k in range(n):
            x = px[k]
            y = py[k]
            inside[k] = (x >= x0 - tol) and (x <= xmax + tol) \
                and (y >= y0 - tol) and (y <= ymax + tol)
            rx = (x - x0) / hx
            ry = (y - y0) / hy
            i = np.int64(np.floor(rx))
            if i < 0:
                i = 0
            if i > nx - 1:
                i = nx - 1
            j = np.int64(np.floor(ry))
            if j < 0:
                j = 0
            if j > ny - 1:
                j = ny - 1
            u = rx - i
            if u < 0.0:
                u = 0.0
            if u > 1.0:
                u = 1.0
            v = ry - j
            if v < 0.0:
                v = 0.0
            if v > 1.0:
                v = 1.0
            ci[k] = i
            cj[k] = j
            xi[k] = u
            eta[k] = v
        return ci, cj, xi, eta, inside

    @njit(cache=True)
    def _bilinear_gather_nb(field, ci, cj, xi, eta, nx):
        n = ci.shape[0]
        out = np.empty(n)
        for k in range(n):
            base = cj[k] * (nx + 1) + ci[k]
            u = xi[k]
            v = eta[k]
            out[k] = ((1.0 - u) * (1.0 - v) * field[base]
                      + u * (1.0 - v) * field[base + 1]
                      + (1.0 - u) * v * field[base + nx + 1]
                      + u * v * field[base + nx + 2])
        return out

    @njit(cache=True)
    def _scatter_coo_nb(conn, elem_m, elem_a):
        ne = conn.shape[0]
        rows = np.empty(16 * ne, np.int64)
        cols = np.empty(16 * ne, np.int64)
        mvals = np.empty(16 * ne)
        avals = np.empty(16 * ne)
        k = 0
        for e in range(ne):
            for a in range(4):
                ra = conn[e, a]
                for b in range(4):
                    rows[k] = ra
                    cols[k] = conn[e, b]
                    mvals[k] = elem_m[a, b]
                    avals[k] = elem_a[a, b]
                    k += 1
        return rows, cols, mvals, avals

    @njit(cache=True)
    def _load_scatter_nb(conn, fq, phiw, n_nodes):
        ne = conn.shape[0]
        nq = fq.shape[1]
        out = np.zeros(n_nodes)
        for e in range(ne):
            for a in range(4):
                acc = 0.0
                for q in range(nq):
                    acc += fq[e, q] * phiw[q, a]
                out[conn[e, a]] += acc
        return out

    @njit(cache=True)
    def _csr_matvec_nb(data, indices, indptr, x):
        n_rows = indptr.shape[0] - 1
        out = np.zeros(n_rows)
        for i in range(n_rows):
            acc = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                acc += data[k] * x[indices[k]]
            out[i] = acc
        return out

    @njit(cache=True)
    def _all_finite_nb(x):
        for k in range(x.shape[0]):
            if not np.isfinite(x[k]):
                return False
        return True

    @njit(cache=True)
    def _relative_sup_change_nb(new, prev):
        n = new.shape[0]
        if n == 0:
            return 0.0
        diff = 0.0
        scale = 0.0
        for k in range(n):
            d = abs(new[k] - prev[k])
            if d > diff:
                diff = d
            a = abs(new[k])
            if a > scale:
                scale = a
        return diff / (1.0 + scale)

    locate_points = _locate_points_nb
    bilinear_gather = _bilinear_gather_nb
    scatter_coo = _scatter_coo_nb
    load_scatter = _load_scatter_nb
    csr_matvec = _csr_matvec_nb
    all_finite = _all_finite_nb
    relative_sup_change = _relative_sup_change_nb
else:
    locate_points = locate_points_numpy
    bilinear_gather = bilinear_gather_numpy
    scatter_coo = scatter_coo_numpy
    load_scatter = load_scatter_numpy
    csr_matvec = csr_matvec_numpy
    all_finite = all_finite_numpy
    relative_sup_change = relative_sup_change_numpy


def backend_name():
    return "numba" if NUMBA_ENABLED else "numpy"


def warmup():
    """Trigger JIT compilation so timed phases never include it."""
    px = np.array([0.25, 0.75])
    py = np.array([0.25, 0.75])
    ci, cj, xi, eta, _ = locate_points(px, py, 0.0, 0.0, 0.5, 0.5, 2, 2, 1e-12)
    field = np.arange(9.0)
    bilinear_gather(field, ci, cj, xi, eta, 2)
    conn = np.array([[0, 1, 3, 4]], dtype=np.int64)
    scatter_coo(conn, np.eye(4), np.eye(4))
    load_scatter(conn, np.ones((1, 4)), np.ones((4, 4)), 9)
    csr_matvec(
        np.array([2.0, 1.0]),
        np.array([0, 1], dtype=np.int64),
        np.array([0, 1, 1, 2], dtype=np.int64),
        np.array([3.0, 4.0]),
    )
    all_finite(px)
    relative_sup_change(px, py)
