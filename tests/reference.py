"""Reference paths the tests compare the library against.

They are written for clarity, not speed: one scipy Cholesky factor and
solve per block, a serial loop that recomputes the objective and the
full gradient at every iterate, the inclusion probabilities of a
sampling written out from its definition, the extreme eigenvalues
(of G^{1/2} E G^{1/2} too) from a dense eigvalsh and those of a band
from LAPACK's band reduction, the symmetry check by full passes over
the matrix, the positive definite solve by a dense Cholesky factor,
the banded generators as sums of diagonal matrices, the heat objective
with its matrix stored densely, the ERM curvature
pair built and validated at order n, and the slopes phi' of the losses
written out from their definitions.
count_spectral_work lets a test see which spectral work the curvature
pairs do, and at which order.  reference_iterate is the solver loop
with one draw and one block_step per iteration.
"""

import functools

import numpy as np
import scipy.linalg
import scipy.special

import psn.erm
import psn.rates
from psn.linalg import solve_pd
from psn.rates import CurvaturePair, lambda_ratio
from psn.sampling import draw
from psn.solver import IterationTrace, SmoothObjective, TraceRecord, block_step


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


def reference_iterate(config, M, monitor, block_gradient, update, record):
    """solver._iterate as one draw and one block_step per iteration: no
    pre-drawn starts and no kept factors, and no divergence guard.
    Records carry no timing (elapsed is 0)."""
    rng = np.random.default_rng(config.seed)
    records = []
    for k in range(config.max_iter + 1):
        fields, residual, value = monitor()
        records.append(record(k, *fields, 0.0))
        if not (np.isfinite(residual) and np.isfinite(value)):
            return records, "non-finite"
        if residual <= config.tol:
            return records, "converged"
        if k < config.max_iter:
            sets = draw(config.scheme, rng)
            update(k, sets, block_step(M, sets, block_gradient))
    return records, "max-iterations"


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


def reference_solve_pd(M, q):
    """linalg.solve_pd by a dense Cholesky factor whatever M's
    bandwidth: scipy's cho_factor and cho_solve, one refinement step
    when the residual misses 1e-10 ||q||, and the same errors."""
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    try:
        factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"matrix is not positive definite: {err}") from err
    norm = functools.partial(scipy.linalg.norm, check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        x = scipy.linalg.cho_solve(factor, q, check_finite=False)
        target = 1e-10 * norm(q)
        resid = q - M @ x
        if norm(resid) > target:
            x = x + scipy.linalg.cho_solve(factor, resid, check_finite=False)
            resid = q - M @ x
    if not (np.isfinite(x).all() and np.isfinite(resid).all()):
        raise np.linalg.LinAlgError("solve_pd produced a non-finite solution or residual")
    if norm(resid) > target:
        raise np.linalg.LinAlgError(
            "solve_pd failed to reach relative residual 1e-10 "
            f"(got {norm(resid):.3e} vs target {target:.3e})"
        )
    return x


def reference_make_tridiagonal(n, alpha):
    """linalg.make_tridiagonal as a sum of an identity and two diagonal
    matrices (three n x n temporaries), with the same domain checks."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    M = np.eye(n)
    off = np.full(n - 1, float(alpha))
    M += np.diag(off, k=1) + np.diag(off, k=-1)
    return M


def reference_make_heat_matrix(n, r=0.1):
    """linalg.make_heat_matrix as a scaled identity plus four diagonal
    matrices, with the same domain checks."""
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


def reference_heat_objective(n, r=0.1):
    """The objective of psn heat with its M stored as an n x n array
    whatever n is: reference_make_heat_matrix, the CLI's right-hand
    side, x* from solve_pd, and the value and gradient expressions of
    solver.quadratic_objective, built directly as a SmoothObjective."""
    M = reference_make_heat_matrix(n, r)
    q = np.cos(0.5 * np.pi * np.linspace(-1.0, 1.0, n))

    def value(x):
        return float(0.5 * x @ (M @ x) - q @ x)

    x_star = solve_pd(M, q)
    return SmoothObjective(n, value, lambda x: M @ x - q, M, M, x_star, value(x_star))


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
    eigenvalue solve (dense or of a packed band) and dense Cholesky
    factor of G that the rate module, the ERM problems and the curvature
    pairs make while monkeypatch is active; order is that of the matrix
    the call works on.  A band factor of G is not listed: it shows as
    the pair's cached _band_factor."""
    calls = []

    def counting(name, original, order):
        def counted(*args, **kwargs):
            calls.append((name, order(*args)))
            return original(*args, **kwargs)

        return counted

    orders = {
        "expected_lifted_inverse": lambda M, *rest: np.shape(M)[0],
        "eigen_extremes": lambda M, *rest: np.shape(M)[0],
        "_checked_extremes": lambda A: np.shape(A)[0],
        "_band_extremes": lambda band: np.shape(band)[1],
        "_checked_lowest": lambda A: np.shape(A)[0],
    }
    for module in (psn.rates, psn.erm):
        for name, order in orders.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name), order))
    monkeypatch.setattr(
        CurvaturePair,
        "_cholesky",
        counting("_cholesky", CurvaturePair._cholesky, lambda pair: pair.n),
    )
    return calls
