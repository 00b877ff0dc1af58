"""Per-sweep checks of the coupled loop, a raw CSR product, and the
process's BLAS thread policy.

``all_finite`` and ``relative_sup_change`` are the finiteness and
convergence checks ``schwarz_window`` runs once per sweep, on the arrays
its plan holds for every subdomain.
``csr_matvec`` has no caller in the package; it stays only while the
study benchmark (``studybench/``) reports a ``kernels.csr_matvec`` layer,
since its tracer patches all three names here. Array methods skip the
Python-level wrappers of ``np.all``/``np.max``, which cost more than the
reduction itself on interface-sized inputs.

``single_thread_blas`` runs once, when the package is imported: numpy and
scipy each bundle an OpenBLAS with its own thread pool, and calls that
alternate between the two pools leave their threads contending for the
cores. Every OpenBLAS mapped into the process is set to one thread and
left there; restoring the old count would spawn the threads again on every
use. Where no OpenBLAS is found (another BLAS, or a system without
``/proc/self/maps``) nothing is changed.
"""

import ctypes

import numpy as np

#: ``(setter, getter)`` thread-count symbols an OpenBLAS build may export:
#: plain, scipy's prefixed build, and their 64-bit-integer ``64_`` forms.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_set_num_threads{suffix}",
     f"{prefix}openblas_get_num_threads{suffix}")
    for prefix in ("", "scipy_") for suffix in ("", "64_"))

#: ``(library path, thread-count getter)`` of each OpenBLAS set to one
#: thread; None until :func:`single_thread_blas` has run.
_openblas_pools = None

#: Segment starts of an unsegmented input.
_WHOLE = np.zeros(1, dtype=np.int64)


def csr_matvec(data, indices, indptr, x):
    """Sparse matrix-vector product from raw CSR arrays."""
    out = np.zeros(indptr.shape[0] - 1)
    starts = indptr[:-1]
    nonempty = starts < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(data * x[indices], starts[nonempty])
    return out


def all_finite(*arrays):
    """True when every entry of every array is finite."""
    for x in arrays:
        if not np.isfinite(x).all():
            return False
    return True


def relative_sup_change(new, prev, starts=None):
    """``max|new - prev| / (1 + max|new|)``; 0 for empty inputs.

    With ``starts``, the inputs are segments concatenated at those offsets
    (ascending, each segment nonempty, the first at 0); the measure is
    taken per segment and the largest is returned. Inputs are expected
    finite (the coupled loop checks finiteness before measuring
    convergence).
    """
    if new.shape[0] == 0:
        return 0.0
    if starts is None:
        starts = _WHOLE
    return float((np.maximum.reduceat(np.abs(new - prev), starts)
                  / (1.0 + np.maximum.reduceat(np.abs(new), starts))).max())


def _loaded_openblas_paths():
    """Paths of the mapped libraries whose file name contains ``openblas``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields if len(f) == 6
                   and "openblas" in f[5].rsplit("/", 1)[-1].lower()})


def single_thread_blas():
    """Set every loaded OpenBLAS to one thread, once per process.

    Returns ``(library path, thread-count getter)`` of each library set.
    Later calls return the same list without looking again.
    """
    global _openblas_pools
    if _openblas_pools is not None:
        return _openblas_pools
    pools = []
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads = getattr(lib, setter)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads = getattr(lib, getter)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                set_threads(1)
                pools.append((path, get_threads))
                break
    _openblas_pools = pools
    return pools


def blas_threads():
    """Thread count read back from each OpenBLAS :func:`single_thread_blas`
    set, in the order it found them; empty when it found none."""
    return [get() for _, get in single_thread_blas()]
