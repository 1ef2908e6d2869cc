"""Dense symmetric-matrix primitives used throughout the package.

Everything here operates on plain float64 numpy arrays.  A "symmetric
matrix" is an (n, n) array equal to its transpose up to round-off; an
"index set" is a non-empty collection of distinct integers in [0, n).
Index sets are normalised to sorted int64 arrays so they can double as
dictionary keys (via tuple()) and slicing arguments.

check_symmetric reads a matrix's bandwidth from the exact zeros in one
pass and checks a narrow band on its diagonals alone; a dense matrix
(nonzero corner) takes full passes.  eigen_extremes is the package's
one route to the extreme eigenvalues of a symmetric matrix.  It keeps
the bandwidth that check read and bisects a narrow band (the heat and
tridiagonal matrices) on its inertia in banded storage, any other
matrix densely.  The rate module hands its banded L^T E L straight to
the band solver, and the curvature pairs keep the bandwidth of the
matrix they checked.  solve_pd takes the same switch: a narrow band is
factored by a banded Cholesky (O(n b^2)), any other matrix densely.
The heat and tridiagonal generators write their diagonals into one
n x n array, with no n x n temporaries.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

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


def check_symmetric(M) -> np.ndarray:
    """Return M as a symmetric float64 array, raising ValueError if it
    is complex, is not square, has a non-finite entry, or is not
    symmetric within 1e-10 relative to its largest entry.

    An M that is only nearly symmetric is replaced by (M + M')/2,
    since block solves read one triangle and gradient updates read rows
    for columns; an exactly symmetric M is returned as it is.  A
    narrow band is checked on its diagonals alone (_checked_band)."""
    return _checked_band(M)[0]


def _checked_band(M) -> tuple[np.ndarray, int]:
    """M checked and returned as check_symmetric says, with the
    bandwidth of the returned matrix.

    The bandwidth b is read first (_bandwidth).  When banded storage is
    cheaper (_band_is_cheaper) only the 2b+1 diagonals are checked: every
    entry outside them is an exact zero, and a NaN or inf is nonzero,
    so it lies inside.  Any other matrix takes the full passes.  Either
    way the errors, the tolerance and the returned values are those of
    the full check."""
    if np.iscomplexobj(M):
        raise ValueError("matrix has complex entries")
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    b = _bandwidth(A)
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
    if not asymmetry:
        return A, b
    A = 0.5 * (A + A.T)
    return A, _bandwidth(A)


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


def make_tridiagonal(n: int, alpha: float) -> np.ndarray:
    """Unit-diagonal tridiagonal matrix with off-diagonal entries alpha.

    The eigenvalues are 1 + 2*alpha*cos(k*pi/(n+1)), k = 1..n, so the
    matrix is positive definite for every finite n when alpha <= 0.5
    (the smallest eigenvalue 1 + 2*alpha*cos(n*pi/(n+1)) stays positive,
    though it approaches 0 as n grows at alpha = 0.5).  Values above 0.5
    are rejected because definiteness can fail.  The diagonals are
    written into one n x n array (_symmetric_toeplitz_band).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    return _symmetric_toeplitz_band(n, (1.0, float(alpha)))


def make_heat_matrix(n: int, r: float = 0.1) -> np.ndarray:
    """System matrix of the implicit fourth-order heat-equation step.

    One time step solves (I - r*D) u_next = u, where D is the
    fourth-order finite-difference Laplacian with Dirichlet boundaries
    (stencil entries outside the grid are dropped).  The result is a
    penta-diagonal matrix with diagonal 1 + (5/2) r, first off-diagonals
    -(4/3) r and second off-diagonals (1/12) r.  r = dt/dx^2 must be
    positive and finite; the default 0.1 keeps the Gershgorin condition
    estimate below 1.68.  The diagonals are written into one n x n
    array (_symmetric_toeplitz_band).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    return _symmetric_toeplitz_band(n, (1.0 + 2.5 * r, -(4.0 / 3.0) * r, (1.0 / 12.0) * r))


def _symmetric_toeplitz_band(n: int, values) -> np.ndarray:
    """n x n symmetric matrix with values[k] on its k-th sub- and
    superdiagonals and zeros elsewhere.  The zeros fill the one n x n
    array first; np.full writes them, where np.zeros would leave the
    pages to fault in during the first passes over M.  Each diagonal is
    then set through a strided view of the flat buffer: the k-th
    subdiagonal starts at flat index k n, the k-th superdiagonal at k,
    both with step n + 1.  Adding 0.0 turns a -0.0 into the +0.0 of the
    entries off the band."""
    M = np.full((n, n), 0.0)
    flat = M.reshape(-1)
    for k, value in enumerate(values):
        flat[k * n :: n + 1] = value + 0.0
        if k:
            flat[k : n * (n - k) : n + 1] = value + 0.0
    return M


def _bandwidth(A: np.ndarray) -> int:
    """Largest |i - j| over the nonzero entries A[i, j], read from exact
    zeros (a NaN counts as nonzero); 0 for a diagonal or all-zero A.

    A nonzero corner A[n-1, 0] or A[0, n-1] gives n - 1 at once (the
    dense case).  Otherwise one pass marks the nonzeros, and each row's
    first one gives the lower bandwidth b.  For a narrow b, counting the
    nonzeros on the 2b+1 diagonals shows whether all lie there; if not
    (or for a wide b) each row's last nonzero gives the upper one."""
    n = A.shape[0]
    if n < 2:
        return 0
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


def eigen_extremes(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix.

    M is checked and its bandwidth b read in one pass (_checked_band).
    A matrix for which banded storage is cheaper (_band_is_cheaper) is
    packed into its (b+1) x n lower band and solved by _band_extremes;
    any other matrix takes the dense eigvalsh.  The heat and tridiagonal
    matrices (b <= 2) thus cost O(n) per bisection probe instead of
    O(n^3)."""
    return _checked_extremes(*_checked_band(M))


def _checked_extremes(A: np.ndarray, b: int) -> tuple[float, float]:
    """eigen_extremes of a matrix that _checked_band returned, with the
    bandwidth b it read."""
    if _band_is_cheaper(b, A.shape[0]):
        return _band_extremes(_lower_band(A, b))
    w = np.linalg.eigvalsh(A)
    return float(w[0]), float(w[-1])


def _checked_lowest(A: np.ndarray, b: int) -> float:
    """lambda_min of a matrix that _checked_band returned, with the
    bandwidth b it read: _checked_extremes(A, b)[0], but the band route
    bisects lambda_min alone."""
    if _band_is_cheaper(b, A.shape[0]):
        return _band_lowest(_lower_band(A, b))
    return float(np.linalg.eigvalsh(A)[0])


def psd_order_holds(A: np.ndarray, B: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether A <= B in the positive semidefinite order, i.e. whether
    lambda_min(B - A) >= -tol."""
    A = check_symmetric(A)
    B = check_symmetric(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _order_holds(A, B, tol)


def _order_holds(A: np.ndarray, B: np.ndarray, tol: float) -> bool:
    """psd_order_holds of A and B that check_symmetric returned, of one
    shape: B - A is checked (it may overflow) and only its lambda_min
    is found."""
    return _checked_lowest(*_checked_band(B - A)) >= -tol


def solve_pd(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve M x = q for positive definite M via Cholesky.

    M's bandwidth b is read from its exact zeros (_bandwidth; a dense M
    shows a nonzero corner at once).  When banded storage is cheaper
    (_band_is_cheaper) M is factored in its (b+1) x n lower band
    (LAPACK dpbtrf through scipy.linalg.cholesky_banded, O(n b^2) work
    and O(n b) memory, the heat and tridiagonal matrices); any other M
    by a dense Cholesky factor (O(n^3)).  One step of iterative
    refinement is applied if the raw solve misses the residual target
    ||M x - q|| <= 1e-10 ||q||.  A factorization that fails, failure to
    reach the target, or a non-finite x or residual (an overflowing
    solve) raises numpy.linalg.LinAlgError.  The norms are BLAS dnrm2,
    which scales and so stays finite for every finite vector.
    """
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    square = M.ndim == 2 and M.shape[0] == M.shape[1]
    b = _bandwidth(M) if square else None
    try:
        if square and _band_is_cheaper(b, M.shape[0]):
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
