"""Matrix and field persistence.

Binary matrix format: ASCII magic ``OIFS``, format version (u32), rows
(u64), cols (u64), then the entries as column-major little-endian IEEE-754
doubles. Round trips are bitwise exact. Field exports are plain CSV with
17-significant-digit decimals, enough to reproduce every double exactly.
"""

import struct

import numpy as np

from .errors import FormatError

MAGIC = b"OIFS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")

#: Refuse dimensions whose payload could not possibly be addressed.
_MAX_ELEMENTS = (1 << 62) // 8


def save_matrix(path, matrix):
    """Write a 2-D (or 1-D, saved as a column) array of doubles."""
    arr = np.asarray(matrix, dtype="<f8")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise FormatError(f"can only save 2-D matrices, got shape {arr.shape}")
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION,
                                  arr.shape[0], arr.shape[1]))
        handle.write(np.asfortranarray(arr).tobytes(order="F"))


def load_matrix(path):
    """Read a matrix written by :func:`save_matrix`, bitwise exact."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if rows * cols > _MAX_ELEMENTS:
            raise FormatError(f"{path}: dimensions {rows}x{cols} overflow")
        payload = handle.read(8 * rows * cols + 1)
    if len(payload) != 8 * rows * cols:
        raise FormatError(
            f"{path}: payload has {len(payload)} bytes, expected "
            f"{8 * rows * cols} for a {rows}x{cols} matrix")
    flat = np.frombuffer(payload, dtype="<f8")
    return flat.reshape((rows, cols), order="F").copy()


def export_field_csv(path, mesh, field):
    """Write a nodal field as ``x,y,u`` rows in node-id (row-major) order."""
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_nodes,):
        raise FormatError(
            f"field has shape {field.shape}, expected ({mesh.n_nodes},)")
    np.savetxt(path, np.column_stack((mesh.coords, field)), fmt="%.17g",
               delimiter=",", header="x,y,u", comments="")


def save_meta(path, entries):
    """Write scalar metadata as ``key = value`` lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in entries.items():
            if isinstance(value, float):
                handle.write(f"{key} = {value:.17g}\n")
            else:
                handle.write(f"{key} = {value}\n")


def load_meta(path):
    """Read metadata written by :func:`save_meta` (values stay strings)."""
    entries = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or "=" not in line:
                continue
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries
