"""Per-visit checks of the coupled loop, and a raw CSR product.

``all_finite`` and ``relative_sup_change`` are the finiteness and
convergence checks ``schwarz_window`` runs on every subdomain visit.
``csr_matvec`` has no caller in the package; it stays only while the
study benchmark (``studybench/``) reports a ``kernels.csr_matvec`` layer,
since its tracer patches all three names here. Array methods skip the
Python-level wrappers of ``np.all``/``np.max``, which cost more than the
reduction itself on interface-sized inputs.
"""

import numpy as np


def csr_matvec(data, indices, indptr, x):
    """Sparse matrix-vector product from raw CSR arrays."""
    out = np.zeros(indptr.shape[0] - 1)
    starts = indptr[:-1]
    nonempty = starts < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(data * x[indices], starts[nonempty])
    return out


def all_finite(x):
    """True when every entry of a 1-D array is finite."""
    return bool(np.isfinite(x).all())


def relative_sup_change(new, prev):
    """``max|new - prev| / (1 + max|new|)``; 0 for empty inputs.

    Inputs are expected finite (the coupled loop checks finiteness before
    measuring convergence).
    """
    if new.shape[0] == 0:
        return 0.0
    return float(np.abs(new - prev).max() / (1.0 + np.abs(new).max()))
