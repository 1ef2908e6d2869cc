"""Symmetric-matrix primitives used throughout the package.

A "symmetric matrix" is (n, n) and equal to its transpose up to
round-off; an "index set" is a non-empty collection of distinct
integers in [0, n).  Index sets are normalised to sorted int64 arrays
so they can double as dictionary keys (via tuple()) and slicing
arguments.

Storage follows one rule, applied where a matrix enters (_stored, which
check_symmetric runs): a matrix of bandwidth b is a _Band, a read-only
scipy.sparse.dia_array of O(n b) floats, exactly when banded storage is
cheaper (_band_is_cheaper), and a float64 array otherwise, whatever type
it came as.  The heat and tridiagonal generators build _Bands directly.
Code past the entry branches only on the type: a _Band is checked on
its diagonals, solved by bisection on its inertia (eigen_extremes) and
by a banded Cholesky factor (solve_pd), and gathers its blocks as an
array does (M[rows, cols]); an array takes the dense routes.  An array
always means "not cheaper as a band", so no code reads an array's
bandwidth after entry.  A route that needs an n x n array refuses an
order above MAX_ORDER before making it.
"""

from __future__ import annotations

import functools
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "check_index_set",
    "check_symmetric",
    "make_rho_matrix",
    "make_tridiagonal",
    "make_heat_matrix",
    "eigen_extremes",
    "psd_order_holds",
    "solve_pd",
]

# Eigenvalues below this are clamped before forming matrix square roots.
_EIG_FLOOR = 1e-14

MAX_ORDER = 10_000  # largest order held densely: 800 MB as a float64 array


def _refuse_dense(n: int, route: str) -> None:
    """Raise ValueError when route, which needs an n x n array, is taken
    at an order above MAX_ORDER; called before that array is made."""
    if n > MAX_ORDER:
        raise ValueError(f"{route} needs a dense {n} x {n} array, above the limit {MAX_ORDER}")


def check_index_set(S, n: int) -> np.ndarray:
    """Validate an index set against dimension n and return it sorted.

    Raises ValueError when the set is empty, contains duplicates, or
    contains an index outside [0, n).
    """
    idx = np.atleast_1d(np.asarray(S, dtype=np.int64))
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("index set must be a non-empty 1-d collection")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"index set {idx.tolist()} out of range for n={n}")
    idx = np.sort(idx)
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError(f"index set {idx.tolist()} contains duplicates")
    return idx


def check_symmetric(M):
    """Return M as a symmetric float64 matrix, raising ValueError if it
    is complex, is not square, has a non-finite entry, or is not
    symmetric within 1e-10 relative to its largest entry.

    M is stored first (_stored): a _Band exactly when banded storage is
    cheaper, an array otherwise, whatever its input type.  A band is
    checked on its 2b+1 diagonals alone: every entry outside them is an
    exact zero, and a NaN or inf is nonzero, so it lies inside.  An
    array takes full passes.  Either way the errors, the tolerance and
    the values are those of the full check.  An M that is only nearly
    symmetric is replaced by (M + M')/2, stored again, since block
    solves read one triangle and gradient updates read rows for
    columns; an exactly symmetric M is returned as it was stored (the
    same object for a float64 array below the switch or a _Band).  A
    _Band that passed is marked so (its data is read-only), and a
    marked band is returned at once: the objective, its curvature pair
    and the eigenvalue routes check one band once."""
    if np.iscomplexobj(M):
        raise ValueError("matrix has complex entries")
    A = _stored(M)
    if isinstance(A, _Band) and A._symmetric:
        return A
    entries = A.data if isinstance(A, _Band) else A
    # The maximum and minimum propagate NaN and inf, so these two passes
    # also catch the entries every comparison below would let through; a
    # NaN makes both NaN, and max() keeps its first argument then.
    largest = max(float(entries.max(initial=0.0)), -float(entries.min(initial=0.0)))
    if not np.isfinite(largest):
        raise ValueError("matrix has non-finite entries")
    if isinstance(A, _Band):
        # Lower row k >= 1 (the diagonal is its own partner), A[j + k, j]
        # for j < n - k, against A[j, j + k], read in place from _padded.
        (padded, row), n = A._padded, A.shape[0]
        pairs = ((padded[row[-k], : n - k], padded[row[k], k:]) for k in range(1, A.b + 1))
        asymmetry = max((float(np.abs(lo - up).max()) for lo, up in pairs), default=0.0)
    else:
        difference = A - A.T
        asymmetry = np.abs(difference, out=difference).max(initial=0.0)
    if asymmetry > 1e-10 * max(1.0, largest):
        raise ValueError("matrix is not symmetric within tolerance")
    if asymmetry:
        return _stored(0.5 * (A + A.T))
    if isinstance(A, _Band):
        A._symmetric = True
    return A


def _stored(M) -> np.ndarray | _Band:
    """M, an array or any scipy.sparse matrix, in the storage every
    checked matrix has: a _Band exactly when banded storage is cheaper
    (_band_is_cheaper) for its bandwidth b, a float64 array otherwise.
    Nothing is checked but the shape: a matrix that is not square raises
    ValueError.  A _Band and a float64 array that keep their storage
    are returned as they are; a sparse M gives the bandwidth of the
    entries it stores and, as a band, the diagonals it stores, and is
    made dense (_dense) below the switch."""
    A = M if scipy.sparse.issparse(M) else np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n, b = A.shape[0], A.b if isinstance(A, _Band) else _bandwidth(A)
    if not _band_is_cheaper(b, n):
        return np.asarray(_dense(A, "a matrix too wide for banded storage"), dtype=np.float64)
    if isinstance(A, _Band):
        return A
    offsets = range(-b, b + 1) if isinstance(A, np.ndarray) else sorted(A.todia().offsets)
    return _Band.from_diagonals(n, {int(k): A.diagonal(k) for k in offsets})


class _Band(scipy.sparse.dia_array):
    """A matrix in diagonal storage whose data is read-only (made by
    from_diagonals): the heat and tridiagonal matrices, any checked
    matrix for which banded storage is cheaper, and the list-sampling E
    of a band, enumerated or drawn.  It stores exactly the diagonals
    that hold a nonzero, so its offsets give its bandwidth b from the
    exact zeros.

    M[rows, cols] reads its stored diagonals as fancy indexing reads an
    array, so block gathers read either storage alike.  Compared with
    == to another sparse matrix of its shape it gives one bool, whether
    the two are equal entry for entry, so that results holding it
    compare as values; scipy's elementwise == of two sparse matrices
    would build an n x n boolean array."""

    # Set by check_symmetric on a band that passed it.
    _symmetric = False

    @classmethod
    def from_diagonals(cls, n: int, diagonals: dict) -> "_Band":
        """The n x n matrix whose diagonal of offset k holds
        diagonals[k] (n - |k| values, as A.diagonal(k) returns them, or
        one value for all of them), zero elsewhere.  A diagonal that is
        all zero or lies outside the matrix is not stored."""
        offsets = [k for k, values in diagonals.items() if abs(k) < n and np.count_nonzero(values)]
        data = np.zeros((len(offsets), n))
        for row, k in enumerate(offsets):
            data[row, max(k, 0) : max(k, 0) + n - abs(k)] = diagonals[k]
        A = cls((data, np.array(offsets, dtype=np.int64)), shape=(n, n))
        A.data.setflags(write=False)
        return A

    @cached_property
    def b(self) -> int:
        """The bandwidth, read from the offsets."""
        return _bandwidth(self)

    def __eq__(self, other):
        if scipy.sparse.issparse(other) and other.shape == self.shape:
            return (self != other).nnz == 0
        return super().__eq__(other)

    def __getitem__(self, key) -> np.ndarray:
        """M[rows, cols] for integer index arrays rows and cols in [0, n)
        that broadcast, such as the blocks M[S, S] of the (k, tau) rows
        of a draw, read from the stored diagonals (_padded): the entries
        of M.toarray()[rows, cols], bit for bit."""
        rows, cols = key
        padded, row = self._padded
        return padded[row[cols - rows], cols]

    def lower(self) -> np.ndarray:
        """(b+1) x n lower band storage: row k holds the k-th
        subdiagonal and then the zeros that pad it in data (_padded)."""
        padded, row = self._padded
        return padded[row[-np.arange(self.b + 1)]]

    @cached_property
    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        """data with one zero row appended, and row, which maps each
        offset j - i (length 2n - 1, a negative one by wrap-around) to its
        data row, or to the zero row where no diagonal is stored."""
        n, stored = self.shape[0], len(self.offsets)
        row = np.full(2 * n - 1, stored)
        row[self.offsets] = np.arange(stored)
        return np.vstack([self.data, np.zeros(n)]), row


def _dense(A, route: str) -> np.ndarray:
    """A, an array or a scipy.sparse matrix, as an array: a sparse A is
    made dense (.toarray()) after _refuse_dense(n, route)."""
    if isinstance(A, np.ndarray):
        return A
    _refuse_dense(A.shape[0], route)
    return A.toarray()


def lifted_inverse(M: np.ndarray, S) -> np.ndarray:
    """Inverse of the S-block of M, embedded back into an n x n matrix.

    The result Z satisfies Z[S, S] = inv(M[S, S]) and is zero outside
    S x S.  Raises numpy.linalg.LinAlgError when the block is singular
    or so ill-conditioned that the inverse is meaningless; the message
    carries a condition estimate for diagnosis.  Not exported: kept for
    the benchmark's span tracer and the tests.
    """
    M = np.asarray(M, dtype=np.float64)
    idx = check_index_set(S, M.shape[0])
    block = M[np.ix_(idx, idx)]
    try:
        inv_block = np.linalg.inv(block)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"submatrix on {idx.tolist()} is singular: {err}"
        ) from err
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > 1e14:
        raise np.linalg.LinAlgError(
            f"submatrix on {idx.tolist()} is numerically singular "
            f"(condition estimate {cond:.3e})"
        )
    out = np.zeros_like(M)
    out[np.ix_(idx, idx)] = inv_block
    return out


def make_rho_matrix(n: int, rho: float) -> np.ndarray:
    """Unit-diagonal matrix with constant off-diagonal entries rho.

    Requires 0 < rho < 1, which makes the matrix positive definite: the
    spectrum is {1 - rho (n-1 times), n*rho - rho + 1}.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
    M = np.full((n, n), float(rho))
    np.fill_diagonal(M, 1.0)
    return M


def make_tridiagonal(n: int, alpha: float) -> scipy.sparse.dia_array:
    """Unit-diagonal tridiagonal matrix with off-diagonal entries alpha.

    The eigenvalues are 1 + 2*alpha*cos(k*pi/(n+1)), k = 1..n, so the
    matrix is positive definite for every finite n when alpha <= 0.5
    (the smallest eigenvalue 1 + 2*alpha*cos(n*pi/(n+1)) stays positive,
    though it approaches 0 as n grows at alpha = 0.5).  Values above 0.5
    are rejected because definiteness can fail.  Returned in diagonal
    storage (a _Band).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    return _Band.from_diagonals(n, {-1: alpha, 0: 1.0, 1: alpha})


def make_heat_matrix(n: int, r: float = 0.1) -> scipy.sparse.dia_array:
    """System matrix of the implicit fourth-order heat-equation step.

    One time step solves (I - r*D) u_next = u, where D is the
    fourth-order finite-difference Laplacian with Dirichlet boundaries
    (stencil entries outside the grid are dropped).  The result is a
    penta-diagonal matrix with diagonal 1 + (5/2) r, first off-diagonals
    -(4/3) r and second off-diagonals (1/12) r.  r = dt/dx^2 must be
    positive and finite; the default 0.1 keeps the Gershgorin condition
    estimate below 1.68.  Returned in diagonal storage (a _Band).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    near, far = -(4.0 / 3.0) * r, (1.0 / 12.0) * r
    return _Band.from_diagonals(n, {-2: far, -1: near, 0: 1.0 + 2.5 * r, 1: near, 2: far})


def _bandwidth(A) -> int:
    """Largest |i - j| over the nonzero entries A[i, j], read from exact
    zeros (a NaN counts as nonzero); 0 for a diagonal or all-zero A.  A
    scipy.sparse A gives the largest |j - i| it stores, read in O(1)
    from the offsets of diagonal storage, and an array the larger of
    its lower and upper bandwidths (scipy.linalg.bandwidth, which
    returns at once on a nonzero corner)."""
    n = A.shape[0]
    if n < 2:
        return 0
    if scipy.sparse.issparse(A):
        if A.format == "dia":
            offsets = A.offsets
        else:
            coo = A.tocoo()
            offsets = coo.col - coo.row
        return min(n - 1, int(np.abs(offsets).max(initial=0)))
    return max(scipy.linalg.bandwidth(A))


def _band_is_cheaper(b: int, n: int) -> bool:
    """Whether the band bisection (_band_extremes) beats one dense
    eigvalsh, O(n^3), for bandwidth b.  The bisection makes about 90
    O(n b^2) probes, whose call overhead sets its floor at small n.  The
    smallest n at which it won (one thread, best of 5, diagonally
    dominant random bands):

        b  1    2    4    6    8    12   16   24   32   48   64
        n  116  136  128  144  176  256  320  320  576  736  768

    A least-squares line through the table gives n = 104 + 11.7 b, used
    for a diagonal (b = 0) too.
    """
    return n > 104 + 12 * b


def _band_extremes(band: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the symmetric matrix whose lower band
    storage is band, by bisection (_band_lowest) in O(n b) memory."""
    return _band_lowest(band), -_band_lowest(np.negative(band))


def _band_lowest(band: np.ndarray) -> float:
    """lambda_min of the symmetric matrix whose lower band storage is
    band, by bisection (_band_min).  Dividing by a power of two near the
    largest entry is exact and keeps the Gershgorin bracket and stop
    width finite at every scale.  A non-finite entry raises ValueError."""
    if not np.isfinite(band).all():
        raise ValueError("matrix has non-finite entries")
    scale = 2.0 ** (np.frexp(np.abs(band).max(initial=0.0))[1] - 1)
    scaled = np.divide(band, scale, out=np.empty(band.shape, order="F"))
    return float(_band_min(scaled) * scale)


def _band_min(band: np.ndarray) -> float:
    """lambda_min of the symmetric matrix A whose lower band storage is
    band, a Fortran-ordered (b+1) x n array.

    By Sylvester's law of inertia A - sigma I is positive definite
    exactly when sigma < lambda_min, and whether it is shows in whether
    its banded Cholesky factorization (LAPACK dpbtrf, O(n b^2))
    succeeds; LAPACK's dstebz bisects a tridiagonal matrix the same way
    with Sturm counts.  Gershgorin's discs bracket lambda_min in
    [min(a_ii - r_i), min(a_ii)], at most ||A||_inf wide.  A
    factorization that succeeds is backward stable, so the bracket is
    halved only down to a width of 2 (b+1) eps ||A||_inf, or until its
    midpoint rounds to an end: at most 51 probes at any scale of A."""
    b, n = band.shape[0] - 1, band.shape[1]
    diagonal = band[0]
    radius = np.zeros(n)
    for k in range(1, min(b + 1, n)):
        off = np.abs(band[k, : n - k])
        radius[: n - k] += off
        radius[k:] += off
    lo, hi = float((diagonal - radius).min()), float(diagonal.min())
    norm = float((np.abs(diagonal) + radius).max())
    width = 2 * (b + 1) * np.finfo(float).eps * norm
    shifted = np.empty_like(band, order="F")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        shifted[...] = band
        shifted[0] -= mid
        if scipy.linalg.lapack.dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eigen_extremes(M) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix, an array or a
    scipy.sparse band.

    M is checked and stored (check_symmetric).  A _Band is packed into
    its (b+1) x n lower band and solved by _band_extremes; an array
    takes the dense eigvalsh.  The heat and tridiagonal matrices (b <=
    2) thus cost O(n) per bisection probe instead of O(n^3)."""
    return _checked_extremes(check_symmetric(M))


def _checked_extremes(A) -> tuple[float, float]:
    """eigen_extremes of a matrix that check_symmetric returned."""
    if isinstance(A, _Band):
        return _band_extremes(A.lower())
    w = np.linalg.eigvalsh(A)
    return float(w[0]), float(w[-1])


def _checked_lowest(A) -> float:
    """lambda_min of a matrix that check_symmetric returned:
    _checked_extremes(A)[0], but the band route bisects lambda_min
    alone."""
    if isinstance(A, _Band):
        return _band_lowest(A.lower())
    return float(np.linalg.eigvalsh(A)[0])


def psd_order_holds(A, B, tol: float = 1e-9) -> bool:
    """Whether A <= B in the positive semidefinite order, i.e. whether
    lambda_min(B - A) >= -tol."""
    A = check_symmetric(A)
    B = check_symmetric(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _checked_lowest(check_symmetric(B - A)) >= -tol


def solve_pd(M, q: np.ndarray) -> np.ndarray:
    """Solve M x = q for positive definite M via Cholesky.

    M is an array or a scipy.sparse matrix, stored as _stored says (a
    dense M shows a nonzero corner at once).  A _Band is factored in
    its (b+1) x n lower band (LAPACK dpbtrf through
    scipy.linalg.cholesky_banded, O(n b^2) work and O(n b) memory, the
    heat and tridiagonal matrices); an array by a dense Cholesky factor
    (O(n^3)).  One step of iterative refinement is applied if the raw
    solve misses the residual target ||M x - q|| <= 1e-10 ||q||.  A factorization that fails, failure to
    reach the target, or a non-finite x or residual (an overflowing
    solve) raises numpy.linalg.LinAlgError.  The norms are BLAS dnrm2,
    which scales and so stays finite for every finite vector.
    """
    M = _stored(M)
    q = np.asarray(q, dtype=np.float64)
    try:
        if isinstance(M, _Band):
            factor = scipy.linalg.cholesky_banded(M.lower(), lower=True, check_finite=False)
            solve = functools.partial(
                scipy.linalg.cho_solve_banded, (factor, True), check_finite=False
            )
        else:
            factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
            solve = functools.partial(scipy.linalg.cho_solve, factor, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"matrix is not positive definite: {err}") from err
    # An overflowing solve is reported below as one error, not warned
    # about; a NaN residual fails no "norm > target" test, so finiteness
    # is checked entry by entry.
    norm = functools.partial(scipy.linalg.norm, check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        x = solve(q)
        target = 1e-10 * norm(q)
        resid = q - M @ x
        if norm(resid) > target:
            x = x + solve(resid)
            resid = q - M @ x
    if not (np.isfinite(x).all() and np.isfinite(resid).all()):
        raise np.linalg.LinAlgError("solve_pd produced a non-finite solution or residual")
    if norm(resid) > target:
        raise np.linalg.LinAlgError(
            "solve_pd failed to reach relative residual 1e-10 "
            f"(got {norm(resid):.3e} vs target {target:.3e})"
        )
    return x


def _clamped_eigh(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    G = check_symmetric(G)
    w, V = np.linalg.eigh(G)
    if w[-1] <= 0.0:
        raise np.linalg.LinAlgError("matrix has no positive eigenvalues")
    return np.maximum(w, _EIG_FLOOR), V

def sqrt_pd(G: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive definite matrix.

    Eigenvalues below 1e-14 are clamped so that near-singular inputs
    fail loudly in later solves instead of producing NaNs here.  Not
    exported: kept for the benchmark's span tracer and the tests.
    """
    w, V = _clamped_eigh(G)
    return (V * np.sqrt(w)) @ V.T

def invsqrt_pd(G: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix.
    Not exported: kept for the benchmark's span tracer and the tests.
    """
    w, V = _clamped_eigh(G)
    return (V / np.sqrt(w)) @ V.T
