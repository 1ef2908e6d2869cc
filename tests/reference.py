"""Reference paths the tests compare the library against.

They are written for clarity, not speed: one scipy Cholesky factor and
solve per block, a serial loop that recomputes the objective and the
full gradient at every iterate, the inclusion probabilities of a
sampling written out from its definition, the extreme eigenvalues
(of G^{1/2} E G^{1/2} too) from a dense eigvalsh and those of a band
from LAPACK's band reduction, the symmetry check by full passes over
the matrix, the ERM curvature pair built and validated at order n,
and the slopes phi' of the losses written out from their definitions.
count_spectral_work lets a test see which spectral work the curvature
pairs do, and at which order.
"""

import numpy as np
import scipy.linalg
import scipy.special

import psn.erm
import psn.rates
from psn.rates import CurvaturePair, lambda_ratio
from psn.sampling import draw
from psn.solver import IterationTrace, TraceRecord


def reference_block_step(M, sets, block_gradient):
    """Sum of the block Newton directions of sets, one scipy Cholesky
    factor and solve per set, added up in set order."""
    total = np.zeros(M.shape[0])
    for S in sets:
        factor = scipy.linalg.cho_factor(M[np.ix_(S, S)], lower=True, check_finite=False)
        total[S] -= scipy.linalg.cho_solve(factor, block_gradient(S), check_finite=False)
    return total


def reference_step(x, objective, sets, b):
    """x + (1/b) sum_i h_i over the (possibly ragged) index sets."""
    g = objective.gradient(x)
    return x + reference_block_step(objective.M, sets, g.__getitem__) / b


def reference_run(objective, config, b):
    """The iteration of solver.run without its optimisations: from
    zero, one reference_step with damping b per draw of config.scheme
    until the gradient norm reaches config.tol or config.max_iter steps
    are taken.  Returns an IterationTrace whose records carry no timing
    (elapsed is 0)."""
    rng = np.random.default_rng(config.seed)
    x = np.zeros(objective.n)
    records = []
    status = "max-iterations"
    for k in range(config.max_iter + 1):
        f = objective.value(x)
        gap = None if objective.f_star is None else f - objective.f_star
        gnorm = float(np.linalg.norm(objective.gradient(x)))
        records.append(TraceRecord(k, f, gap, gnorm, 0.0))
        if gnorm <= config.tol:
            status = "converged"
            break
        if k < config.max_iter:
            x = reference_step(x, objective, draw(config.scheme, rng), b)
    return IterationTrace(records, status, b, None, x)


def reference_check_symmetric(M):
    """linalg.check_symmetric by full passes over M whatever its
    bandwidth: the largest magnitude from the maximum and minimum (which
    propagate NaN and inf), then the asymmetry from M - M', and (M + M')/2
    for an M that is only nearly symmetric."""
    if np.iscomplexobj(M):
        raise ValueError("matrix has complex entries")
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    largest = max(float(A.max(initial=0.0)), -float(A.min(initial=0.0)))
    if not np.isfinite(largest):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, largest)
    difference = A - A.T
    asymmetry = np.abs(difference, out=difference).max(initial=0.0)
    if asymmetry > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (A + A.T) if asymmetry else A


def reference_eigen_extremes(M):
    """(lambda_min, lambda_max) of a symmetric M from one dense
    eigvalsh, whatever its bandwidth."""
    w = np.linalg.eigvalsh(M)
    return float(w[0]), float(w[-1])


def reference_band_extremes(band):
    """(lambda_min, lambda_max) of the symmetric matrix whose lower band
    storage is band, from LAPACK's dsbevx (scipy.linalg.eigvals_banded)
    for the eigenvalues of index 0 and n-1: a band reduction to
    tridiagonal form, O(n^2 b) per call."""
    n = band.shape[1]
    lo, hi = (
        scipy.linalg.eigvals_banded(band, lower=True, select="i", select_range=(i, i))[0]
        for i in (0, n - 1)
    )
    return float(lo), float(hi)


def reference_weighted_extremes(G, E):
    """(lambda_min, lambda_max) of G^{1/2} E G^{1/2} by the dense route,
    whatever the bandwidths: the Cholesky factor G = L L^T, L^T E L
    from two n x n products, its symmetric part and a dense eigvalsh."""
    L = scipy.linalg.cholesky(G, lower=True)
    S = L.T @ E @ L
    return reference_eigen_extremes(0.5 * (S + S.T))


def reference_bandwidth(M):
    """Largest i - j over the nonzero entries of M, by listing them."""
    rows, cols = np.nonzero(M)
    return int(max((i - j for i, j in zip(rows, cols)), default=0))


def lifted_submatrix(M, S):
    """n x n matrix keeping M's entries on S x S and zero elsewhere."""
    out = np.zeros_like(M)
    out[np.ix_(S, S)] = M[np.ix_(S, S)]
    return out


def probability_matrix(scheme):
    """Pairwise inclusion probabilities of one constituent set of scheme.

    Entry (i, j) is P(i and j both sampled); the diagonal holds the
    single-coordinate probabilities P(i sampled) = tau / n.  Schemes
    with c > 1 report the matrix of one constituent set.
    """
    n, tau = scheme.n, scheme.tau
    if scheme.constituent().kind == "nice":
        off = tau * (tau - 1) / (n * (n - 1)) if n > 1 else 1.0
        P = np.full((n, n), off)
    else:
        P = np.zeros((n, n))
        for start in range(n):
            window = (start + np.arange(tau)) % n
            P[np.ix_(window, window)] += 1.0 / n
    np.fill_diagonal(P, tau / n)
    return P


def squared_slope(z, y):
    """phi'(z, y) = z - y of the squared loss (z - y)^2 / 2."""
    return z - y


def logistic_slope(loss, z, y):
    """phi'(z, y) = -y sigmoid(-y z) + epsilon z of the smoothed
    logistic loss log(1 + exp(-y z)) + (epsilon/2) z^2."""
    z, y = np.asarray(z, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return -y * scipy.special.expit(-y * z) + loss.epsilon * z


def reference_erm_pair(problem):
    """The dual curvature pair of an erm.ErmProblem by the general
    route, with lambda: M and G each formed from its own Gram product,
    validated by CurvaturePair (eigenvalue solves of G and of M - G, of
    order n), and lambda from the Cholesky factor of G."""
    n = problem.n

    def bound(curv):
        X = (problem.A.T @ problem.A) / (problem.lam_reg * n * n)
        X = 0.5 * (X + X.T)
        X[np.diag_indices_from(X)] += 1.0 / (curv * n)
        return X

    M = bound(problem.loss.gamma)
    pair = CurvaturePair(M, M if problem.quadratic else bound(problem.loss.smoothness))
    return pair, lambda_ratio(pair)


def count_spectral_work(monkeypatch):
    """A list that records (name, order) for every enumeration of E,
    eigenvalue solve (dense or of a packed band) and Cholesky factor of
    G (dense or banded) that the rate module, the ERM problems and the
    curvature pairs make while monkeypatch is active; order is that of
    the matrix the call works on."""
    calls = []

    def counting(name, original, order):
        def counted(*args, **kwargs):
            calls.append((name, order(*args)))
            return original(*args, **kwargs)

        return counted

    orders = {
        "expected_lifted_inverse": lambda M, *rest: np.shape(M)[0],
        "eigen_extremes": lambda M, *rest: np.shape(M)[0],
        "_checked_extremes": lambda A, b: np.shape(A)[0],
        "_band_extremes": lambda band: np.shape(band)[1],
        "_band_lowest": lambda band: np.shape(band)[1],
    }
    for module in (psn.rates, psn.erm):
        for name, order in orders.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name), order))
    monkeypatch.setattr(
        CurvaturePair,
        "_cholesky",
        counting("_cholesky", CurvaturePair._cholesky, lambda pair, *band: pair.n),
    )
    return calls
