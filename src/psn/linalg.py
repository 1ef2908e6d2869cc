"""Symmetric-matrix primitives used throughout the package.

A matrix is a float64 numpy array or, for a narrow band, a
scipy.sparse matrix kept in diagonal storage.  A "symmetric matrix"
is (n, n) and equal to its transpose up to round-off; an "index set"
is a non-empty collection of distinct integers in [0, n).  Index sets
are normalised to sorted int64 arrays so they can double as
dictionary keys (via tuple()) and slicing arguments.

The heat and tridiagonal generators return their diagonals as a
read-only scipy.sparse.dia_array (a _Band), O(n b) memory for
bandwidth b.  Every function here takes either storage and reads a
band's bandwidth from its stored offsets, an array's from its exact
zeros.  Where banded storage is cheaper (_band_is_cheaper) a band
stays a band; below that switch it is made dense (.toarray()).
check_symmetric checks a narrow band on its diagonals alone; a dense
matrix (nonzero corner) takes full passes.  eigen_extremes is the
package's one route to the extreme eigenvalues of a symmetric matrix:
it bisects a narrow band on its inertia in banded storage and solves
any other matrix densely.  solve_pd takes the same switch: a narrow
band is factored by a banded Cholesky (O(n b^2)), any other matrix
densely.  _gather_blocks gathers the tau x tau blocks of a draw from
either storage, bit for bit the same entries.  A route that needs an
n x n array refuses an order above MAX_ORDER before making it.
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

    An M that is only nearly symmetric is replaced by (M + M')/2,
    since block solves read one triangle and gradient updates read rows
    for columns; an exactly symmetric M is returned as it is.  A
    narrow band is checked on its diagonals alone (_checked_band)."""
    return _checked_band(M)[0]


def _checked_band(M) -> tuple[np.ndarray | scipy.sparse.dia_array, int]:
    """M checked and returned as check_symmetric says, with the
    bandwidth of the returned matrix.

    The bandwidth b is read first (_stored).  When banded storage is
    cheaper (_band_is_cheaper) only the 2b+1 diagonals are checked: every
    entry outside them is an exact zero, and a NaN or inf is nonzero,
    so it lies inside.  Any other matrix takes the full passes.  Either
    way the errors, the tolerance and the returned values are those of
    the full check.  A scipy.sparse M is returned as a _Band past the
    switch (the same object for a symmetric _Band) and dense below it."""
    if np.iscomplexobj(M):
        raise ValueError("matrix has complex entries")
    A, b = _stored(M)
    band = _band_is_cheaper(b, A.shape[0])
    if band:
        lower = [A.diagonal(-k) for k in range(b + 1)]
        upper = [A.diagonal(k) for k in range(b + 1)]
        largest = float(np.abs(np.concatenate(lower + upper)).max())
    else:
        # The maximum and minimum propagate NaN and inf, so these two
        # passes also catch the entries every comparison below would let
        # through; a NaN makes both NaN, and max() keeps its first
        # argument then.
        largest = max(float(A.max(initial=0.0)), -float(A.min(initial=0.0)))
    if not np.isfinite(largest):
        raise ValueError("matrix has non-finite entries")
    if band:
        asymmetry = max(float(np.abs(lo - up).max()) for lo, up in zip(lower, upper))
    else:
        difference = A - A.T
        asymmetry = np.abs(difference, out=difference).max(initial=0.0)
    if asymmetry > 1e-10 * max(1.0, largest):
        raise ValueError("matrix is not symmetric within tolerance")
    sparse = scipy.sparse.issparse(A)
    if asymmetry:
        A = 0.5 * (A + A.T)
    elif not sparse or isinstance(A, _Band):
        return A, b
    if sparse:
        A = _band_of(A, b)
    return A, _bandwidth(A)


def _stored(M) -> tuple[np.ndarray | scipy.sparse.dia_array, int]:
    """M as a square float64 matrix and its bandwidth.  A scipy.sparse
    M stays sparse, its bandwidth read from the entries it stores, when
    banded storage is cheaper (_band_is_cheaper), and is made dense
    below that switch.  Any other M becomes an array.  A matrix that is
    not square raises ValueError."""
    if scipy.sparse.issparse(M):
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        b = _bandwidth(M)
        if _band_is_cheaper(b, M.shape[0]):
            return M.astype(np.float64, copy=False), b
        M = M.toarray()
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A, _bandwidth(A)


class _Band(scipy.sparse.dia_array):
    """A matrix in diagonal storage whose data is read-only (made by
    _band_array), such as the heat and tridiagonal matrices and the
    enumerated list-sampling E of a band.

    Compared with == to another sparse matrix of its shape it gives one
    bool, whether the two are equal entry for entry, so that results
    holding it compare as values; scipy's elementwise == of two sparse
    matrices would build an n x n boolean array."""

    def __eq__(self, other):
        if scipy.sparse.issparse(other) and other.shape == self.shape:
            return (self != other).nnz == 0
        return super().__eq__(other)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The band row-aligned for block gathers, built on first use:
        rows[i, b + j - i] = A[i, j] for |j - i| <= b, in an n x (2b+2)
        array whose last column is zero; and column[j - i], indexed with
        numpy's wrap-around for negative offsets (length 2n - 1), is
        b + j - i inside the band and that zero column 2b + 1 outside."""
        n = self.shape[0]
        b = _bandwidth(self)
        rows = np.zeros((n, 2 * b + 2))
        for k in range(-b, b + 1):
            d = self.diagonal(k)
            rows[max(-k, 0) : max(-k, 0) + len(d), b + k] = d
        column = np.full(2 * n - 1, 2 * b + 1)
        column[: b + 1] = np.arange(b, 2 * b + 1)
        column[len(column) - b :] = np.arange(b)
        return rows, column


def _band_array(data: np.ndarray) -> _Band:
    """The n x n matrix whose diagonals of offsets -w..w are the 2w+1
    rows of data (column aligned as in scipy's dia format: A[j - k, j]
    at [w + k, j]; zero where a diagonal has no entry), its outer
    all-zero diagonals dropped so that its offsets give its bandwidth
    from the exact zeros, with read-only data."""
    w = len(data) // 2
    used = np.flatnonzero(data.any(axis=1))
    b = int(np.abs(used - w).max(initial=0))
    n = data.shape[1]
    A = _Band((data[w - b : w + b + 1], np.arange(-b, b + 1)), shape=(n, n))
    A.data.setflags(write=False)
    return A


def _band_of(A, b: int) -> _Band:
    """The diagonals -b..b of A, an array or scipy.sparse matrix, as a
    _Band (_band_array)."""
    n = A.shape[0]
    data = np.zeros((2 * b + 1, n))
    for k in range(-b, b + 1):
        d = A.diagonal(k)
        data[b + k, max(k, 0) : max(k, 0) + len(d)] = d
    return _band_array(data)


def _dense(A) -> np.ndarray:
    """A as an array: a scipy.sparse A is made dense (.toarray())."""
    return A.toarray() if scipy.sparse.issparse(A) else A


def _gather_blocks(M, sets: np.ndarray) -> np.ndarray:
    """The blocks M[S, S] of the rows S of sets, a (k, tau) integer
    array such as a draw returns, as one (k, tau, tau) array.  An array
    M is read with one fancy index; a band from its row-aligned layout
    (_Band._layout), built once per _Band (any other scipy.sparse M is
    made a _Band first).  Either way the blocks hold M's entries bit for
    bit."""
    rows, cols = sets[:, :, None], sets[:, None, :]
    if isinstance(M, np.ndarray):
        return M[rows, cols]
    if not isinstance(M, _Band):
        M = _band_of(M, _bandwidth(M))
    layout, column = M._layout
    return layout[rows, column[cols - rows]]


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
    storage (_toeplitz_band).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    return _toeplitz_band(n, (1.0, float(alpha)))


def make_heat_matrix(n: int, r: float = 0.1) -> scipy.sparse.dia_array:
    """System matrix of the implicit fourth-order heat-equation step.

    One time step solves (I - r*D) u_next = u, where D is the
    fourth-order finite-difference Laplacian with Dirichlet boundaries
    (stencil entries outside the grid are dropped).  The result is a
    penta-diagonal matrix with diagonal 1 + (5/2) r, first off-diagonals
    -(4/3) r and second off-diagonals (1/12) r.  r = dt/dx^2 must be
    positive and finite; the default 0.1 keeps the Gershgorin condition
    estimate below 1.68.  Returned in diagonal storage
    (_toeplitz_band).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    return _toeplitz_band(n, (1.0 + 2.5 * r, -(4.0 / 3.0) * r, (1.0 / 12.0) * r))


def _toeplitz_band(n: int, values) -> _Band:
    """n x n symmetric matrix with values[k] on its k-th sub- and
    superdiagonals and zeros elsewhere, as a read-only _Band of O(n b)
    floats; a zero diagonal at the edge of the band is not stored."""
    w = len(values) - 1
    data = np.zeros((2 * w + 1, n))
    for k, value in enumerate(values):
        data[w + k, k:] = value
        data[w - k, : n - k] = value
    return _band_array(data)


def _bandwidth(A) -> int:
    """Largest |i - j| over the nonzero entries A[i, j], read from exact
    zeros (a NaN counts as nonzero); 0 for a diagonal or all-zero A.  A
    scipy.sparse A gives the largest |j - i| it stores, read in O(1)
    from the offsets of diagonal storage.

    A nonzero corner A[n-1, 0] or A[0, n-1] gives n - 1 at once (the
    dense case).  Otherwise one pass marks the nonzeros, and each row's
    first one gives the lower bandwidth b.  For a narrow b, counting the
    nonzeros on the 2b+1 diagonals shows whether all lie there; if not
    (or for a wide b) each row's last nonzero gives the upper one."""
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
    if A[n - 1, 0] != 0.0 or A[0, n - 1] != 0.0:
        return n - 1
    nonzero = A != 0.0
    rows = np.arange(n)
    first = nonzero.argmax(axis=1)
    b = int((rows - first)[nonzero[rows, first]].max(initial=0))
    if _band_is_cheaper(b, n) and np.count_nonzero(nonzero) == sum(
        np.count_nonzero(nonzero.diagonal(k)) for k in range(-b, b + 1)
    ):
        return b
    last = n - 1 - nonzero[:, ::-1].argmax(axis=1)
    return max(b, int((last - rows)[nonzero[rows, last]].max(initial=0)))


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


def _lower_band(M, b: int) -> np.ndarray:
    """(b+1) x n lower band storage of M, a numpy or scipy.sparse
    array: row k holds the k-th subdiagonal, zero-padded at its end."""
    n = M.shape[0]
    band = np.zeros((b + 1, n))
    for k in range(b + 1):
        band[k, : n - k] = M.diagonal(-k)
    return band


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

    M is checked and its bandwidth b read in one pass (_checked_band).
    A matrix for which banded storage is cheaper (_band_is_cheaper) is
    packed into its (b+1) x n lower band and solved by _band_extremes;
    any other matrix takes the dense eigvalsh.  The heat and tridiagonal
    matrices (b <= 2) thus cost O(n) per bisection probe instead of
    O(n^3)."""
    return _checked_extremes(*_checked_band(M))


def _checked_extremes(A, b: int) -> tuple[float, float]:
    """eigen_extremes of a matrix that _checked_band returned, with the
    bandwidth b it read."""
    if _band_is_cheaper(b, A.shape[0]):
        return _band_extremes(_lower_band(A, b))
    w = np.linalg.eigvalsh(A)
    return float(w[0]), float(w[-1])


def _checked_lowest(A, b: int) -> float:
    """lambda_min of a matrix that _checked_band returned, with the
    bandwidth b it read: _checked_extremes(A, b)[0], but the band route
    bisects lambda_min alone."""
    if _band_is_cheaper(b, A.shape[0]):
        return _band_lowest(_lower_band(A, b))
    return float(np.linalg.eigvalsh(A)[0])


def psd_order_holds(A, B, tol: float = 1e-9) -> bool:
    """Whether A <= B in the positive semidefinite order, i.e. whether
    lambda_min(B - A) >= -tol."""
    A = check_symmetric(A)
    B = check_symmetric(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _order_holds(A, B, tol)


def _order_holds(A, B, tol: float) -> bool:
    """psd_order_holds of A and B that check_symmetric returned, of one
    shape: B - A is checked (it may overflow) and only its lambda_min
    is found."""
    return _checked_lowest(*_checked_band(B - A)) >= -tol


def solve_pd(M, q: np.ndarray) -> np.ndarray:
    """Solve M x = q for positive definite M via Cholesky.

    M is an array or a scipy.sparse band, and its bandwidth b is read
    as _stored reads it (a dense M shows a nonzero corner at once).
    When banded storage is cheaper (_band_is_cheaper) M is factored in
    its (b+1) x n lower band
    (LAPACK dpbtrf through scipy.linalg.cholesky_banded, O(n b^2) work
    and O(n b) memory, the heat and tridiagonal matrices); any other M
    by a dense Cholesky factor (O(n^3)).  One step of iterative
    refinement is applied if the raw solve misses the residual target
    ||M x - q|| <= 1e-10 ||q||.  A factorization that fails, failure to
    reach the target, or a non-finite x or residual (an overflowing
    solve) raises numpy.linalg.LinAlgError.  The norms are BLAS dnrm2,
    which scales and so stays finite for every finite vector.
    """
    M, b = _stored(M)
    q = np.asarray(q, dtype=np.float64)
    try:
        if _band_is_cheaper(b, M.shape[0]):
            factor = scipy.linalg.cholesky_banded(
                _lower_band(M, b), lower=True, check_finite=False
            )
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
