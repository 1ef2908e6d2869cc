"""Convergence-rate constants for stochastic Newton-type block methods.

For a curvature pair (M, G) -- f has Hessians bounded above by M and
below by G in the semidefinite order -- and a sampling scheme with
expected lifted inverse E = E[(M_S)^{-1}], the relevant constants are

    sigma_1 = lambda_min(G^{1/2} E G^{1/2})     serial rate,
    theta   = lambda_max(G^{1/2} E G^{1/2})     step-overshoot measure,
    lambda  = lambda_max(G^{-1/2} M G^{-1/2})   curvature mismatch,

with 0 < sigma_1 <= theta <= 1 whenever G <= M are positive definite.
Running c workers with step damping b >= b_min(c) = (c-1)*lambda*theta + 1
contracts the expected objective gap by 1 - sigma_p per iteration, where
sigma_p = c*sigma_1/b.  The PCDM constants sigma_3 and sigma_b serve as
comparison baselines for the same block sizes.

No matrix square root is formed.  With the Cholesky factor G = L L^T,
G^{1/2} E G^{1/2} has the spectrum of L^T E L (the pencil (G E G, G))
and G^{-1/2} M G^{-1/2} that of L^{-1} M L^{-T} (the pencil (M, G)).
Each constant is computed once per curvature pair and kept on it as a
scalar: the extremes of G (and of M where known), lambda, the
dense sigma_3, and sigma_1 and theta per enumerated sampling and for
the last read-only E seen.  Objectives keep one pair for life.  A pair
whose structure gives the extremes of G and M and lambda in closed form is
built by CurvaturePair.from_spectrum, which makes no eigenvalue solve;
the ERM dual does so from a d x d Gram matrix (erm.ErmProblem).

L^T E L has bandwidth b = b_G + b_E; where eigen_extremes would bisect
that band, it is formed as one from G's banded factor: O(n b) memory and
O(n b^2) work per probe, against O(n^2) and O(n^3) through a dense factor.
b_G is read once, when the pair checks G.  A band E, as the enumerated
list sampling of a banded M comes, is read in its diagonal storage
(b_E from its offsets); it is made dense only where the product takes
the dense route.
"""

from __future__ import annotations

import weakref
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .linalg import _band_extremes, _band_is_cheaper, _bandwidth, _checked_band, _checked_extremes
from .linalg import _checked_lowest, _lower_band, _order_holds, eigen_extremes
from .sampling import SamplingScheme, expected_lifted_inverse

__all__ = [
    "CurvaturePair",
    "sigma1",
    "theta",
    "lambda_ratio",
    "b_threshold",
    "sigma_p",
    "theta_cond_bound",
    "tridiag_theta_bound",
    "RhoAnalysis",
    "rho_closed_forms",
    "PcdmConstants",
    "pcdm_constants",
    "RateReport",
    "rate_report",
]


@dataclass(frozen=True)
class CurvaturePair:
    """Upper/lower curvature matrices (M, G), validated so that both are
    positive definite and G <= M in the semidefinite order.

    ``g_extremes`` holds (lambda_min(G), lambda_max(G)) from that check,
    or as given to from_spectrum.  ``m_extremes`` holds those of M where
    they are known without a further solve: equal to ``g_extremes`` for
    a quadratic pair, as given to from_spectrum, and None otherwise.
    Derived spectral constants are cached on the pair as scalars, never
    as n x n arrays; the cached arrays are diag(M) and, for a banded G,
    the band of its Cholesky factor.
    """

    M: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    spectrum: InitVar[tuple[tuple[float, float], tuple[float, float], float] | None] = None
    g_extremes: tuple[float, float] = field(init=False, repr=False, compare=False)
    m_extremes: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, spectrum):
        M, b_M = _checked_band(self.M)
        if self.G is self.M:
            G, b_G = M, b_M
        elif spectrum is None:
            G, b_G = _checked_band(self.G)
        else:
            G, b_G = np.asarray(self.G, dtype=np.float64), None
        if M.shape != G.shape:
            raise ValueError(f"shape mismatch: M {M.shape} vs G {G.shape}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "G", G)
        if b_G is not None:
            self.__dict__["_g_bandwidth"] = b_G
        if spectrum is None:
            g_extremes = _checked_extremes(G, b_G)
            m_extremes = g_extremes if self.quadratic else None
        else:
            g_extremes, m_extremes, lam = spectrum
            self.__dict__["_lam"] = lam
        object.__setattr__(self, "g_extremes", g_extremes)
        object.__setattr__(self, "m_extremes", m_extremes)
        if not g_extremes[0] > 0.0:
            raise ValueError(f"{'M' if self.quadratic else 'G'} must be positive definite")
        if spectrum is not None or self.quadratic:
            return
        scale = float(np.abs(M).max(initial=1.0))
        if not _order_holds(G, M, tol=1e-9 * max(1.0, scale)):
            raise ValueError("G <= M fails in the semidefinite order")

    @classmethod
    def from_hessian(cls, M: np.ndarray) -> "CurvaturePair":
        """Pair for a quadratic objective, where M and G coincide."""
        return cls(M, M)

    @classmethod
    def from_spectrum(
        cls,
        M: np.ndarray,
        G: np.ndarray,
        g_extremes: tuple[float, float],
        m_extremes: tuple[float, float],
        lam: float,
    ) -> "CurvaturePair":
        """Pair whose extremes of G and of M and whose lambda the caller
        knows from the structure of its problem.  M is checked to be
        finite and symmetric and lambda_min(G) to be positive; G <= M,
        the symmetry of G and the values given are the caller's to vouch
        for, so the pair makes no eigenvalue solve."""
        spectrum = (tuple(map(float, g_extremes)), tuple(map(float, m_extremes)), float(lam))
        return cls(M, G, spectrum)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def quadratic(self) -> bool:
        """Whether G is M itself; a G that only equals M is validated
        as a general pair."""
        return self.M is self.G

    @cached_property
    def _lam(self) -> float:
        """lambda_max(L^{-1} M L^{-T}) for G = L L^T; exactly 1 when
        quadratic."""
        if self.quadratic:
            return 1.0
        L = self._cholesky()
        S = scipy.linalg.solve_triangular(L, self.M, lower=True, check_finite=False)
        S = scipy.linalg.solve_triangular(L, S.T, lower=True, check_finite=False)
        del L  # one n x n array fewer at the eigenvalue peak
        return _symmetric_extremes(S)[1]

    @cached_property
    def _m_diagonal(self) -> np.ndarray:
        """Read-only copy of diag(M).  Reading the diagonal of M strides
        across all of M, one page per entry at n = 1500, so the dense
        PCDM weights read this length-n copy instead."""
        d = np.diag(self.M).copy()
        d.flags.writeable = False
        return d

    @cached_property
    def _dense_sigma3(self) -> float:
        """PCDM sigma_3 for fully dense rows, which is the same for every
        tau*c: lambda_min(diag(M)^{-1/2} G diag(M)^{-1/2}) / n."""
        return _scaled_min(self.G, 1.0 / np.sqrt(self._m_diagonal)) / self.n

    def cond_bound(self, tau: int) -> float:
        """Bound min(1, (tau/n) lambda_max(G)/lambda_min(M)) on theta for
        every uniform sampling of tau-sets (P(i in S) = tau/n for all i).

        Interlacing gives lambda_min(M_SS) >= lambda_min(M), so each
        lifted inverse is at most I_S/lambda_min(M) and E <= (tau/n)
        I/lambda_min(M).  Hence theta <= (tau/n) lambda_max(G)/
        lambda_min(M), and theta <= 1 always holds for G <= M.  Where
        lambda_min(M) is not known (m_extremes is None) lambda_min(G) <=
        lambda_min(M) stands in for it.  For M == G the value below 1 is
        theta_cond_bound(tau, M) bit for bit."""
        if not 1 <= tau <= self.n:
            raise ValueError(f"tau must lie in [1, n={self.n}], got {tau}")
        lo = (self.m_extremes or self.g_extremes)[0]
        return min(1.0, self.g_extremes[1] / lo * (tau / self.n))

    def enumerated_extremes(self, scheme: SamplingScheme) -> tuple[float, float]:
        """(sigma_1, theta) of the enumerated E[(M_S)^{-1}] of scheme,
        computed once per constituent sampling, so for all c."""
        memo = self.__dict__.setdefault("_enumerated_memo", {})
        key = scheme.constituent()
        if key not in memo:
            memo[key] = self._weighted_extremes(expected_lifted_inverse(self.M, key).matrix)
        return memo[key]

    def _weighted_extremes(self, expected_inverse) -> tuple[float, float]:
        """(lambda_min, lambda_max) of the symmetric part of L^T E L for
        G = L L^T, the spectrum of G^{1/2} E G^{1/2}.  E is an array or a
        scipy.sparse matrix; a band E (dia) gives its bandwidth b_E by its
        offsets, an array E by its exact zeros.  When _band_is_cheaper(b_G
        + b_E, n), L^T E L is a sparse product of bands, packed and solved
        as a band; otherwise E is made dense and the product takes a dense
        factor and two n x n products.  The result for a read-only E (a
        band E with read-only data) is kept until another E is passed
        (matched by identity); a writeable E may change in place, so it is
        never memoized."""
        memo = self.__dict__.get("_weighted_memo")
        if memo is not None and memo[0]() is expected_inverse:
            return memo[1]
        sparse = scipy.sparse.issparse(expected_inverse)
        if sparse:
            E = expected_inverse.todia()
            read_only = not E.data.flags.writeable
        else:
            E = np.asarray(expected_inverse, dtype=np.float64)
            read_only = not E.flags.writeable
        if E.shape != self.G.shape:
            raise ValueError(f"expected inverse must have shape {self.G.shape}, got {E.shape}")
        b_E = int(np.abs(E.offsets).max(initial=0)) if sparse else _bandwidth(E)
        b = self._g_bandwidth + b_E
        if _band_is_cheaper(b, self.n):
            if not sparse:
                offsets = np.arange(-b_E, b_E + 1)
                E = scipy.sparse.diags_array([E.diagonal(k) for k in offsets], offsets=offsets)
            S = self._band_factor.T @ E @ self._band_factor
            result = _band_extremes(_lower_band(0.5 * (S + S.T), b))
        else:
            L = self._cholesky()
            S = L.T @ (E.toarray() if sparse else E) @ L
            del L  # one n x n array fewer at the eigenvalue peak
            result = _symmetric_extremes(S)
        if read_only:
            self.__dict__["_weighted_memo"] = (weakref.ref(expected_inverse), result)
        return result

    @cached_property
    def _g_bandwidth(self) -> int:
        return _bandwidth(self.G)

    @cached_property
    def _band_factor(self) -> scipy.sparse.dia_array:
        """G's Cholesky factor as a sparse band: (b_G + 1) x n floats."""
        band = self._cholesky(self._g_bandwidth)
        return scipy.sparse.dia_array((band, -np.arange(len(band))), shape=self.G.shape)

    def _cholesky(self, band: int | None = None) -> np.ndarray:
        """Lower Cholesky factor of G: n x n, not cached (18 MB at
        n = 1500), or in lower band storage given G's lower bandwidth."""
        if band is None:
            return scipy.linalg.cholesky(self.G, lower=True, check_finite=False)
        packed = _lower_band(self.G, band)
        return scipy.linalg.cholesky_banded(packed, lower=True, check_finite=False)


def _symmetric_extremes(S: np.ndarray) -> tuple[float, float]:
    """Extremes of the symmetric part of S, formed in place to spare two
    n x n temporaries."""
    S += S.T
    S *= 0.5
    return eigen_extremes(S)


def _scaled_min(G: np.ndarray, d: np.ndarray) -> float:
    """lambda_min(D G D) with D = diag(d), checked and routed as by
    eigen_extremes; the band route bisects lambda_min alone."""
    S = d[:, None] * G
    S *= d
    return _checked_lowest(*_checked_band(S))


def sigma1(pair: CurvaturePair, expected_inverse: np.ndarray) -> float:
    """Serial rate constant lambda_min(L^T E L), G = L L^T, which equals
    lambda_min(G^{1/2} E G^{1/2})."""
    return pair._weighted_extremes(expected_inverse)[0]


def theta(pair: CurvaturePair, expected_inverse: np.ndarray) -> float:
    """Overshoot constant lambda_max(L^T E L), G = L L^T, which equals
    lambda_max(G^{1/2} E G^{1/2})."""
    return pair._weighted_extremes(expected_inverse)[1]


def lambda_ratio(pair: CurvaturePair) -> float:
    """Curvature mismatch lambda_max(L^{-1} M L^{-T}), G = L L^T, which
    equals lambda_max(G^{-1/2} M G^{-1/2}); exactly 1 for quadratic
    pairs (M == G).  Computed once per pair."""
    return pair._lam


def b_threshold(c: int, lam: float, theta_value: float) -> float:
    """Smallest admissible damping b_min = (c-1)*lambda*theta + 1."""
    if c < 1:
        raise ValueError(f"c must be positive, got {c}")
    if lam <= 0.0 or theta_value <= 0.0:
        raise ValueError("lambda and theta must be positive")
    return (c - 1) * lam * theta_value + 1.0


def sigma_p(c: int, b: float, sigma1_value: float, b_min: float = 1.0) -> float:
    """Parallel rate constant c*sigma_1/b for damping b >= b_min.

    b == b_min is accepted (the contraction guarantee is tight there);
    anything below raises ValueError because the underlying one-step
    bound no longer applies.
    """
    if c < 1:
        raise ValueError(f"c must be positive, got {c}")
    if b < b_min - 1e-12:
        raise ValueError(
            f"damping b={b} is below the admissible threshold b_min={b_min}"
        )
    if not 0.0 <= sigma1_value <= 1.0 + 1e-9:
        raise ValueError(f"sigma1 must lie in [0, 1], got {sigma1_value}")
    return c * sigma1_value / b


def theta_cond_bound(tau: int, M: np.ndarray) -> float:
    """Upper bound (tau/n) * cond(M) on theta for every uniform sampling
    of tau-sets when the curvature pair is (M, M): by interlacing each
    lifted block inverse is at most I_S/lambda_min(M), so E <= (tau/n)
    I/lambda_min(M) (see CurvaturePair.cond_bound).  tau is checked
    against the order of M first, then M is checked to be symmetric and
    positive definite."""
    shape = np.shape(M)
    if len(shape) == 2 and not 1 <= tau <= shape[0]:
        raise ValueError(f"tau must lie in [1, n={shape[0]}], got {tau}")
    lo, hi = eigen_extremes(M)
    if lo <= 0.0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (lambda_min = {lo:.3e})"
        )
    return hi / lo * (tau / shape[0])


def tridiag_theta_bound(alpha: float, n: int) -> float:
    """Upper bound 2 / ((1 - alpha) n) on theta for 2-list sampling of
    the unit-diagonal tridiagonal matrix with off-diagonal alpha.

    Valid for 0 <= alpha <= 0.5 and n >= 3; tight at alpha = 0.
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    return 2.0 / ((1.0 - alpha) * n)


@dataclass(frozen=True)
class RhoAnalysis:
    """Closed-form rate constants for the unit-diagonal matrix with
    constant off-diagonal rho under tau-nice sampling.

    Every tau x tau principal submatrix is the same rho-matrix, whose
    inverse has diagonal a_coef and off-diagonal b_coef:

        a_coef = ((tau-2) rho + 1) / ((1-rho)((tau-1) rho + 1))
        b_coef = -rho / ((1-rho)((tau-1) rho + 1))

    The expected lifted inverse is then itself of rho-matrix shape with
    effective correlation rho_nested = (tau-1) b_coef / ((n-1) a_coef),
    which gives sigma1 and theta by multiplying the extreme eigenvalues
    of the two rho-shaped factors.
    """

    n: int
    tau: int
    rho: float
    a_coef: float
    b_coef: float
    rho_nested: float
    sigma1: float
    theta: float

    def expected_inverse(self) -> np.ndarray:
        """Closed-form E[(M_S)^{-1}]: diagonal tau*a_coef/n, off-diagonal
        tau*(tau-1)*b_coef/(n*(n-1))."""
        off = self.tau * (self.tau - 1) / (self.n * (self.n - 1)) * self.b_coef
        E = np.full((self.n, self.n), off)
        np.fill_diagonal(E, self.tau * self.a_coef / self.n)
        return E

    @property
    def condition_number(self) -> float:
        """cond(M) = (n rho - rho + 1) / (1 - rho), from the spectrum
        {1 - rho with multiplicity n-1, n rho - rho + 1}.  A sometimes
        quoted variant with -1 in the numerator is inconsistent with
        that spectrum and is not used here."""
        return (self.n * self.rho - self.rho + 1.0) / (1.0 - self.rho)


def rho_closed_forms(n: int, tau: int, rho: float) -> RhoAnalysis:
    """Closed-form sigma1/theta for tau-nice sampling of the rho-matrix."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 2 <= tau <= n:
        raise ValueError(f"tau must lie in [2, n={n}], got {tau}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
    denom = (1.0 - rho) * ((tau - 1) * rho + 1.0)
    a_coef = ((tau - 2) * rho + 1.0) / denom
    b_coef = -rho / denom
    rho_nested = (tau - 1) * b_coef / ((n - 1) * a_coef)
    scale = tau * a_coef / n
    sig = (1.0 - rho) * (1.0 - rho_nested) * scale
    th = (n * rho - rho + 1.0) * (n * rho_nested - rho_nested + 1.0) * scale
    return RhoAnalysis(n, tau, rho, a_coef, b_coef, rho_nested, sig, th)


@dataclass(frozen=True)
class PcdmConstants:
    """Comparison constants for parallel coordinate descent with tau*c
    coordinates updated per iteration.

    v holds the per-coordinate curvature weights; sigma3 is the rate
    constant lambda_min(G^{1/2} D(1/v) D(p) G^{1/2}) with uniform
    inclusion probabilities p_i = tau*c/n, and sigma_b is the cruder
    variant obtained by replacing every v_i with lambda_max(A^T A).
    """

    tau_c: int
    v: np.ndarray = field(repr=False)
    sigma3: float
    sigma_b: float


def pcdm_constants(
    pair: CurvaturePair,
    tau_c: int,
    A: np.ndarray | None = None,
    assume_dense: bool = False,
) -> PcdmConstants:
    """PCDM rate constants for M = A^T A with tau*c updates per iteration.

    With the decomposition A (m x n) available, the weights are

        v_i = sum_j (1 + (|J_j| - 1)(tau_c - 1)/max(n-1, 1)) * A_ji^2,

    where J_j is the support of row j.  When every row is fully dense
    this collapses to v_i = tau_c * M_ii, which is what assume_dense
    uses directly when no decomposition is supplied.

    With D = diag(p/v) and p = tau_c/n, sigma3 = lambda_min(D^{1/2} G
    D^{1/2}), the spectrum of G^{1/2} D G^{1/2} without its square
    root.  Under assume_dense p/v = 1/(n M_ii) for every tau_c, so the
    pair computes sigma3 once.  sigma_b = p lambda_min(G)/lambda_max(M)
    takes lambda_min(G) from the pair, and lambda_max(M) too where the
    pair knows it (m_extremes).
    """
    n = pair.n
    if not 1 <= tau_c <= n:
        raise ValueError(f"tau_c must lie in [1, n={n}], got {tau_c}")
    if A is not None:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"decomposition must have {n} columns, got {A.shape}")
        scale = max(1.0, float(np.abs(pair.M).max(initial=0.0)))
        if np.abs(A.T @ A - pair.M).max(initial=0.0) > 1e-8 * scale:
            raise ValueError("decomposition does not satisfy A^T A = M")
        omega = np.count_nonzero(A, axis=1)
        weights = 1.0 + (omega - 1.0) * (tau_c - 1) / max(n - 1, 1)
        v = weights @ (A * A)
    elif assume_dense:
        v = tau_c * pair._m_diagonal
    else:
        raise ValueError(
            "need the decomposition A with M = A^T A, or assume_dense=True "
            "for the fully dense worst case"
        )
    if np.any(v <= 0.0):
        bad = int(np.flatnonzero(v <= 0.0)[0])
        raise ValueError(f"curvature weight v[{bad}] is not positive")
    p = tau_c / n
    sig3 = pair._dense_sigma3 if A is None else _scaled_min(pair.G, np.sqrt(p / v))
    m_max = (pair.m_extremes or eigen_extremes(pair.M))[1]
    sig_b = p * pair.g_extremes[0] / m_max
    return PcdmConstants(tau_c, np.asarray(v), sig3, sig_b)


@dataclass(frozen=True)
class RateReport:
    """All rate constants of one (pair, scheme) combination, with the
    parallel constant evaluated at the smallest admissible damping."""

    scheme: SamplingScheme
    sigma1: float
    theta: float
    lam: float
    b_min: float
    sigma_p: float
    speedup: float
    hypotheses_hold: bool


def rate_report(
    pair: CurvaturePair,
    scheme: SamplingScheme,
    expected_inverse: np.ndarray | None = None,
) -> RateReport:
    """Assemble sigma1, theta, lambda, b_min, sigma_p and the speedup
    sigma_p/sigma1 for one scheme.  Without expected_inverse, sigma1 and
    theta are those of the pair's enumerated E[(M_S)^-1], which the pair
    computes once per constituent sampling.

    For non-overlapping samplings the constituent sets are not
    independent, so the parallel contraction guarantee is not
    established; the report still evaluates the constants from one
    constituent set but clears ``hypotheses_hold``.
    """
    if expected_inverse is None:
        lo, hi = pair.enumerated_extremes(scheme)
    else:
        lo, hi = pair._weighted_extremes(expected_inverse)
    lam = lambda_ratio(pair)
    b_min = b_threshold(scheme.c, lam, hi)
    sp = sigma_p(scheme.c, b_min, lo, b_min)
    return RateReport(
        scheme=scheme,
        sigma1=lo,
        theta=hi,
        lam=lam,
        b_min=b_min,
        sigma_p=sp,
        speedup=sp / lo if lo > 0.0 else float("nan"),
        hypotheses_hold=scheme.kind != "non-overlapping",
    )
