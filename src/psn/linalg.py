"""Dense symmetric-matrix primitives used throughout the package.

Everything here operates on plain float64 numpy arrays.  A "symmetric
matrix" is an (n, n) array equal to its transpose up to round-off; an
"index set" is a non-empty collection of distinct integers in [0, n).
Index sets are normalised to sorted int64 arrays so they can double as
dictionary keys (via tuple()) and slicing arguments.

eigen_extremes is the package's one route to the extreme eigenvalues
of a symmetric matrix.  It reads the bandwidth of its input from the
exact zeros and solves a narrow band (the heat and tridiagonal
matrices) in banded storage, any other matrix densely.
"""

from __future__ import annotations

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
    is not square, has a non-finite entry, or is not symmetric within
    1e-10 relative to its largest entry.

    An M that is only nearly symmetric is replaced by (M + M')/2,
    since block solves read one triangle and gradient updates read rows
    for columns; an exactly symmetric M is returned as it is."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    # The maximum and minimum propagate NaN and inf, so these two passes
    # also catch the entries every comparison below would let through;
    # a NaN makes both NaN, and max() keeps its first argument then.
    largest = max(float(A.max(initial=0.0)), -float(A.min(initial=0.0)))
    if not np.isfinite(largest):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, largest)
    difference = A - A.T
    asymmetry = np.abs(difference, out=difference).max(initial=0.0)
    if asymmetry > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (A + A.T) if asymmetry else A


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
    are rejected because definiteness can fail.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    M = np.eye(n)
    off = np.full(n - 1, float(alpha))
    M += np.diag(off, k=1) + np.diag(off, k=-1)
    return M


def make_heat_matrix(n: int, r: float = 0.1) -> np.ndarray:
    """System matrix of the implicit fourth-order heat-equation step.

    One time step solves (I - r*D) u_next = u, where D is the
    fourth-order finite-difference Laplacian with Dirichlet boundaries
    (stencil entries outside the grid are dropped).  The result is a
    penta-diagonal matrix with diagonal 1 + (5/2) r, first off-diagonals
    -(4/3) r and second off-diagonals (1/12) r.  r = dt/dx^2 must be
    positive and finite; the default 0.1 keeps the Gershgorin condition
    estimate below 1.68.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    M = np.eye(n) * (1.0 + 2.5 * r)
    if n >= 2:
        first = np.full(n - 1, -(4.0 / 3.0) * r)
        M += np.diag(first, k=1) + np.diag(first, k=-1)
    if n >= 3:
        second = np.full(n - 2, (1.0 / 12.0) * r)
        M += np.diag(second, k=2) + np.diag(second, k=-2)
    return M


def _lower_bandwidth(M: np.ndarray) -> int:
    """Largest i - j over the nonzero entries M[i, j], read from exact
    zeros; 0 for a diagonal or all-zero M.

    A nonzero corner M[n-1, 0] gives n - 1 at once (the dense case).
    Otherwise one pass finds each row's first nonzero column; all-zero
    rows are ignored."""
    n = M.shape[0]
    if n > 1 and M[n - 1, 0] != 0.0:
        return n - 1
    nonzero = M != 0.0
    first = nonzero.argmax(axis=1)
    rows = np.arange(n)
    return int((rows - first)[nonzero[rows, first]].max(initial=0))


def _band_is_cheaper(b: int, n: int) -> bool:
    """Whether two banded solves beat one dense solve for bandwidth b.

    eigvalsh reduces M to tridiagonal form with dsytrd, about 4n^3/3
    flops.  Each eigvals_banded call reduces the band with dsbtrd, about
    6n^2 b flops, and a call finds one eigenvalue, so two calls cost
    12n^2 b: fewer flops when 9b < n.  dsbtrd applies plane rotations,
    which ran at under half the flop rate of dsytrd's blocked updates
    (one thread: the crossover fell at b = 8 for n = 100, b = 30 for
    n = 600 and b = 68 for n = 1500), so the band is taken for 20b < n.
    """
    return 20 * b < n


def eigen_extremes(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix.

    A matrix whose lower bandwidth b (_lower_bandwidth) makes banded
    storage cheaper (_band_is_cheaper) is packed into its (b+1) x n
    lower band, and
    LAPACK's dsbevx finds the eigenvalues of index 0 and n-1; any other
    matrix takes the dense eigvalsh.  The heat and tridiagonal matrices
    (b <= 2) thus cost O(n^2) instead of O(n^3)."""
    M = check_symmetric(M)
    n = M.shape[0]
    b = _lower_bandwidth(M)
    if not _band_is_cheaper(b, n):
        w = np.linalg.eigvalsh(M)
        return float(w[0]), float(w[-1])
    band = np.zeros((b + 1, n))
    for k in range(b + 1):
        band[k, : n - k] = np.diagonal(M, -k)
    lo, hi = (
        scipy.linalg.eigvals_banded(
            band, lower=True, select="i", select_range=(i, i), check_finite=False
        )[0]
        for i in (0, n - 1)
    )
    return float(lo), float(hi)


def psd_order_holds(A: np.ndarray, B: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether A <= B in the positive semidefinite order, i.e. whether
    lambda_min(B - A) >= -tol."""
    A = check_symmetric(A)
    B = check_symmetric(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return eigen_extremes(B - A)[0] >= -tol


def solve_pd(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve M x = q for positive definite M via Cholesky.

    One step of iterative refinement is applied if the raw solve misses
    the residual target ||M x - q|| <= 1e-10 ||q||; failure to reach it
    raises numpy.linalg.LinAlgError.
    """
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    try:
        factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"matrix is not positive definite: {err}") from err
    x = scipy.linalg.cho_solve(factor, q, check_finite=False)
    target = 1e-10 * np.linalg.norm(q)
    resid = q - M @ x
    if np.linalg.norm(resid) > target:
        x = x + scipy.linalg.cho_solve(factor, resid, check_finite=False)
        resid = q - M @ x
        if np.linalg.norm(resid) > target:
            raise np.linalg.LinAlgError(
                "solve_pd failed to reach relative residual 1e-10 "
                f"(got {np.linalg.norm(resid):.3e} vs target {target:.3e})"
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
