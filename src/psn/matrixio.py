"""File formats for matrices, vectors and tables.

Matrices travel in Matrix Market exchange format (both array and
coordinate flavours, symmetric storage supported) via scipy.io.
Vectors are plain text, one value per line.  Tables (traces, rate
tables) are CSV.
"""

from __future__ import annotations

import csv
import sys

import numpy as np
import scipy.io
import scipy.sparse

from .linalg import check_symmetric

__all__ = [
    "check_order",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "write_csv",
]

MAX_ORDER = 10_000  # largest order read or generated: 800 MB as a dense float64 array


def check_order(rows: int, cols: int) -> None:
    """Raise ValueError for a rows x cols matrix of order above
    MAX_ORDER, so that it is refused before it is allocated."""
    if max(rows, cols) > MAX_ORDER:
        raise ValueError(f"a {rows} x {cols} matrix exceeds the dense limit {MAX_ORDER}")


def read_matrix(path) -> np.ndarray:
    """Read a dense or coordinate Matrix Market file into a dense
    symmetric array.  A header of order above MAX_ORDER is refused
    before any entry is read; it and a complex, non-finite or
    asymmetric matrix raise ValueError."""
    try:
        check_order(*scipy.io.mminfo(path)[:2])
        M = scipy.io.mmread(path)
    except (ValueError, OSError) as err:
        raise ValueError(f"cannot read matrix from {path}: {err}") from err
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return check_symmetric(M)


def write_matrix(path, M: np.ndarray, comment: str = "") -> None:
    """Write a dense symmetric matrix in Matrix Market array format."""
    M = check_symmetric(M)
    scipy.io.mmwrite(path, M, comment=comment, symmetry="symmetric")


def read_vector(path) -> np.ndarray:
    """Read a one-value-per-line text vector."""
    try:
        v = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except (ValueError, OSError) as err:
        raise ValueError(f"cannot read vector from {path}: {err}") from err
    if v.ndim != 1:
        raise ValueError(f"expected one value per line in {path}, got shape {v.shape}")
    return v


def write_vector(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    np.savetxt(path, v, fmt="%.17g")


def write_csv(target, header: list, rows) -> None:
    """Write a header and rows as CSV with newline line ends to target:
    an open text file, '-' for stdout, or a path."""
    if target == "-":
        target = sys.stdout
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
