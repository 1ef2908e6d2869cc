"""Rate-constant tests.

sigma1/theta are cross-checked against the eigenvalues of G @ E (a
similar matrix computed by a different route), against closed forms
frozen as exact fractions, against the matrix-square-root formulas,
and against structural guarantees such as the 0 < sigma1 <= theta <= 1
sandwich.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import psn.linalg
import psn.rates
from psn.linalg import invsqrt_pd, make_rho_matrix, make_tridiagonal, sqrt_pd
from psn.rates import (
    CurvaturePair,
    b_threshold,
    lambda_ratio,
    pcdm_constants,
    rate_report,
    rho_closed_forms,
    sigma1,
    sigma_p,
    theta,
    theta_cond_bound,
    tridiag_theta_bound,
)
from psn.sampling import SamplingScheme, expected_lifted_inverse

from reference import count_spectral_work, reference_weighted_extremes
from test_linalg import counting_band_probes, random_band


def random_pd(n, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + spread * np.eye(n)


def similar_extremes(G, E):
    """Spectrum of G^{1/2} E G^{1/2} via the similar matrix G @ E."""
    vals = np.linalg.eigvals(G @ E)
    assert np.abs(vals.imag).max() < 1e-10
    return float(vals.real.min()), float(vals.real.max())


class TestCurvaturePair:
    def test_from_hessian_is_quadratic(self):
        pair = CurvaturePair.from_hessian(random_pd(5, 0))
        assert pair.quadratic
        assert lambda_ratio(pair) == 1.0

    def test_shared_matrix_is_checked_once(self, monkeypatch):
        M = random_pd(5, 2)
        M[0, 1] += 1e-12 * np.abs(M).max()  # symmetric only within tolerance
        checks, check = [], psn.linalg._checked_band

        def counting(A, *args, **kwargs):
            checks.append(A)
            return check(A, *args, **kwargs)

        monkeypatch.setattr(psn.linalg, "_checked_band", counting)
        monkeypatch.setattr(psn.rates, "_checked_band", counting)
        for pair in (CurvaturePair(M, M), CurvaturePair.from_hessian(M)):
            assert pair.M is pair.G
            assert pair.quadratic
            assert np.array_equal(pair.M, pair.M.T)
            # The bandwidth read by that one check is kept for G.
            assert pair.__dict__["_g_bandwidth"] == 4
        # One check per pair: the extremes of G and its bandwidth reuse it.
        assert len(checks) == 2

    def test_rejects_indefinite(self):
        M = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            CurvaturePair.from_hessian(M)

    def test_rejects_wrong_order(self):
        M = np.eye(3)
        G = 2.0 * np.eye(3)
        with pytest.raises(ValueError, match="semidefinite"):
            CurvaturePair(M, G)

    def test_accepts_strict_order(self):
        M = random_pd(4, 1)
        pair = CurvaturePair(M, 0.5 * M)
        assert not pair.quadratic
        assert lambda_ratio(pair) == pytest.approx(2.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CurvaturePair(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        M = random_pd(4, 2)
        M[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CurvaturePair.from_hessian(M)


class TestSigmaTheta:
    def test_identity_gives_tau_over_n(self):
        n, tau = 6, 2
        pair = CurvaturePair.from_hessian(np.eye(n))
        E = expected_lifted_inverse(pair.M, SamplingScheme("nice", n, tau)).matrix
        assert sigma1(pair, E) == pytest.approx(tau / n, abs=1e-14)
        assert theta(pair, E) == pytest.approx(tau / n, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["nice", "list"])
    def test_against_similar_matrix_spectrum(self, seed, kind):
        n, tau = 6, 3
        M = random_pd(n, seed)
        pair = CurvaturePair.from_hessian(M)
        E = expected_lifted_inverse(M, SamplingScheme(kind, n, tau)).matrix
        lo, hi = similar_extremes(pair.G, E)
        assert sigma1(pair, E) == pytest.approx(lo, rel=1e-9)
        assert theta(pair, E) == pytest.approx(hi, rel=1e-9)

    def test_sandwich_property(self):
        for seed in range(4):
            n = 5 + seed
            M = random_pd(n, seed, spread=0.3)
            pair = CurvaturePair.from_hessian(M)
            for kind in ("nice", "list"):
                for tau in (1, 2, n):
                    E = expected_lifted_inverse(
                        M, SamplingScheme(kind, n, tau)
                    ).matrix
                    lo, hi = sigma1(pair, E), theta(pair, E)
                    assert 0.0 < lo <= hi <= 1.0 + 1e-12

    def test_full_sampling_hits_one(self):
        M = random_pd(5, 9)
        pair = CurvaturePair.from_hessian(M)
        E = expected_lifted_inverse(M, SamplingScheme("nice", 5, 5)).matrix
        assert sigma1(pair, E) == pytest.approx(1.0, abs=1e-10)
        assert theta(pair, E) == pytest.approx(1.0, abs=1e-10)

    def test_nonquadratic_uses_lower_matrix(self):
        M = random_pd(5, 10)
        pair = CurvaturePair(M, 0.5 * M)
        E = expected_lifted_inverse(M, SamplingScheme("nice", 5, 2)).matrix
        lo, hi = similar_extremes(pair.G, E)
        assert sigma1(pair, E) == pytest.approx(lo, rel=1e-9)
        assert theta(pair, E) == pytest.approx(hi, rel=1e-9)
        # halving G halves both constants relative to the quadratic pair
        quad = CurvaturePair.from_hessian(M)
        assert sigma1(pair, E) == pytest.approx(0.5 * sigma1(quad, E), rel=1e-10)


class TestDamping:
    def test_serial_threshold_is_one(self):
        assert b_threshold(1, 1.0, 0.7) == 1.0
        assert b_threshold(1, 3.0, 0.2) == 1.0

    def test_threshold_formula(self):
        assert b_threshold(4, 2.0, 0.5) == pytest.approx(4.0)
        assert b_threshold(3, 1.0, 1.0) == pytest.approx(3.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            b_threshold(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            b_threshold(2, -1.0, 0.5)

    def test_sigma_p_value_and_equality_case(self):
        assert sigma_p(3, 2.0, 0.4) == pytest.approx(0.6)
        b_min = b_threshold(3, 1.0, 0.8)
        assert sigma_p(3, b_min, 0.5, b_min) == pytest.approx(1.5 / b_min)

    def test_sigma_p_rejects_undershoot(self):
        with pytest.raises(ValueError, match="threshold"):
            sigma_p(3, 1.5, 0.4, b_min=2.0)

    def test_sigma_p_rejects_bad_sigma1(self):
        with pytest.raises(ValueError):
            sigma_p(2, 2.0, 1.5)


class TestRhoClosedForms:
    def test_frozen_fractions(self):
        # n=4, tau=2, rho=1/2 works out to exact small fractions
        r = rho_closed_forms(4, 2, 0.5)
        assert r.a_coef == pytest.approx(4 / 3, abs=1e-15)
        assert r.b_coef == pytest.approx(-2 / 3, abs=1e-15)
        assert r.rho_nested == pytest.approx(-1 / 6, abs=1e-15)
        assert r.sigma1 == pytest.approx(7 / 18, abs=1e-15)
        assert r.theta == pytest.approx(5 / 6, abs=1e-15)

    @pytest.mark.parametrize(
        "n,tau,rho", [(4, 2, 0.5), (6, 3, 0.2), (7, 2, 0.9), (5, 5, 0.6)]
    )
    def test_matches_enumeration(self, n, tau, rho):
        M = make_rho_matrix(n, rho)
        pair = CurvaturePair.from_hessian(M)
        E = expected_lifted_inverse(M, SamplingScheme("nice", n, tau)).matrix
        r = rho_closed_forms(n, tau, rho)
        assert np.abs(r.expected_inverse() - E).max() < 1e-12
        assert r.sigma1 == pytest.approx(sigma1(pair, E), rel=1e-10)
        assert r.theta == pytest.approx(theta(pair, E), rel=1e-10)

    def test_nested_correlation_range(self):
        # -1/(tau-1) < rho_nested <= 0 across the whole parameter box
        for n in (3, 5, 9, 16):
            for tau in range(2, n + 1):
                for rho in (0.05, 0.3, 0.7, 0.95):
                    r = rho_closed_forms(n, tau, rho)
                    assert -1.0 / (tau - 1) < r.rho_nested <= 0.0

    def test_condition_number_matches_spectrum(self):
        for n, rho in [(4, 0.5), (8, 0.2)]:
            r = rho_closed_forms(n, 2, rho)
            M = make_rho_matrix(n, rho)
            vals = np.linalg.eigvalsh(M)
            assert r.condition_number == pytest.approx(
                vals[-1] / vals[0], rel=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rho_closed_forms(4, 1, 0.5)
        with pytest.raises(ValueError):
            rho_closed_forms(4, 5, 0.5)
        with pytest.raises(ValueError):
            rho_closed_forms(4, 2, 1.0)


class TestThetaBounds:
    @pytest.mark.parametrize("n,tau", [(6, 2), (8, 3), (5, 5)])
    def test_cond_bound_dominates_list_theta(self, n, tau):
        for make, arg in [(make_rho_matrix, 0.4), (make_tridiagonal, 0.3)]:
            M = make(n, arg)
            pair = CurvaturePair.from_hessian(M)
            E = expected_lifted_inverse(M, SamplingScheme("list", n, tau)).matrix
            assert theta(pair, E) <= theta_cond_bound(tau, M) + 1e-12

    def test_tridiag_bound_dominates(self):
        for n in (5, 9, 14):
            for alpha in (0.0, 0.2, 0.4, 0.5):
                T = make_tridiagonal(n, alpha)
                pair = CurvaturePair.from_hessian(T)
                E = expected_lifted_inverse(T, SamplingScheme("list", n, 2)).matrix
                assert theta(pair, E) <= tridiag_theta_bound(alpha, n) + 1e-12

    def test_tridiag_bound_tight_at_zero_coupling(self):
        n = 10
        T = make_tridiagonal(n, 0.0)
        pair = CurvaturePair.from_hessian(T)
        E = expected_lifted_inverse(T, SamplingScheme("list", n, 2)).matrix
        assert theta(pair, E) == pytest.approx(tridiag_theta_bound(0.0, n), abs=1e-14)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_pair_bound_covers_every_uniform_sampling(self, data):
        # theta <= min(1, (tau/n) lambda_max(G)/lambda_min(G)) for nice,
        # list and non-overlapping sets, for M == G and for G = M - delta I.
        n = data.draw(st.integers(2, 10), label="n")
        kind = data.draw(st.sampled_from(["nice", "list", "non-overlapping"]), label="kind")
        tau = data.draw(st.integers(1, min(n, 4) if kind != "list" else n), label="tau")
        c = data.draw(st.integers(1, n // tau), label="c") if kind == "non-overlapping" else 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
        B = rng.standard_normal((n, n))
        M = B @ B.T + data.draw(st.sampled_from([1e-2, 0.1, 1.0]), label="shift") * np.eye(n)
        frac = data.draw(st.sampled_from([0.0, 0.5, 0.99]), label="frac")
        G = M - frac * np.linalg.eigvalsh(M)[0] * np.eye(n) if frac else M
        pair = CurvaturePair(M, G)
        exact = rate_report(pair, SamplingScheme(kind, n, tau, c)).theta
        assert exact <= pair.cond_bound(tau) * (1 + 1e-12)
        if G is M:
            assert pair.cond_bound(tau) == min(1.0, theta_cond_bound(tau, M))

    def test_cond_bound_checks_matrix_once(self, monkeypatch):
        M = random_pd(7, 47)
        calls = []
        check = psn.linalg._checked_band

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(psn.linalg, "_checked_band", counted)
        monkeypatch.setattr(psn.rates, "_checked_band", counted)
        bound = theta_cond_bound(3, M)
        assert len(calls) == 1
        w = np.linalg.eigvalsh(M)
        assert bound == (3 / 7) * (float(w[-1]) / float(w[0]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta_cond_bound(0, np.eye(3))
        with pytest.raises(ValueError):
            theta_cond_bound(4, np.eye(3))
        for bad in (np.ones((2, 3)), np.ones(3), np.array([[1.0, 2.0], [0.0, 1.0]])):
            with pytest.raises(ValueError):
                theta_cond_bound(1, bad)
        with pytest.raises(ValueError):
            tridiag_theta_bound(0.6, 10)
        with pytest.raises(ValueError):
            tridiag_theta_bound(0.2, 2)


def random_sparse_decomposition(m, n, density, seed):
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
        if np.all(np.count_nonzero(A, axis=0) > 0):
            M = A.T @ A
            if np.linalg.eigvalsh(M)[0] > 1e-8:
                return A, M


class TestPcdm:
    def test_dense_decomposition_matches_assume_dense(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((9, 5)) + 3.0  # no zero entries
        pair = CurvaturePair.from_hessian(A.T @ A)
        for tau_c in (1, 3, 5):
            with_a = pcdm_constants(pair, tau_c, A=A)
            dense = pcdm_constants(pair, tau_c, assume_dense=True)
            assert np.abs(with_a.v - dense.v).max() < 1e-10 * dense.v.max()
            assert with_a.sigma3 == pytest.approx(dense.sigma3, rel=1e-10)

    def test_dense_sigma3_independent_of_tau_c(self):
        pair = CurvaturePair.from_hessian(random_pd(6, 21))
        values = [
            pcdm_constants(pair, tau_c, assume_dense=True).sigma3
            for tau_c in range(1, 7)
        ]
        assert np.ptp(values) < 1e-13 * values[0]

    def test_dense_weights_read_cached_diagonal(self):
        M = random_pd(6, 26)
        pair = CurvaturePair.from_hessian(M)
        for tau_c in (1, 4, 6):
            v = pcdm_constants(pair, tau_c, assume_dense=True).v
            assert np.array_equal(v, tau_c * np.diag(M).copy())
            assert v.flags.writeable
        assert not pair._m_diagonal.flags.writeable
        assert pair.__dict__["_m_diagonal"] is pair._m_diagonal

    def test_banded_sigma3_bisects_lambda_min_alone(self):
        # sigma_3 reads lambda_min of D M D alone, D = diag(M)^{-1/2}, so
        # on the band route it makes the probes of one bisection, not two.
        M = random_band(300, 2, np.random.default_rng(27))
        d = 1.0 / np.sqrt(np.diag(M))
        band = psn.linalg._lower_band(psn.linalg.check_symmetric(d[:, None] * M * d), 2)
        with counting_band_probes() as both:
            lo, _ = psn.linalg._band_extremes(band)
        with counting_band_probes() as lowest:
            psn.linalg._band_lowest(band)
        pair = CurvaturePair.from_hessian(M)
        with counting_band_probes() as probes:
            sigma3 = pcdm_constants(pair, 5, assume_dense=True).sigma3
        assert sigma3 == lo / 300
        assert len(probes) == len(lowest) > 0
        assert abs(2 * len(probes) - len(both)) <= 2

    def test_sparse_sigma3_increases_with_tau_c(self):
        A, M = random_sparse_decomposition(90, 40, 1 / 3, 22)
        pair = CurvaturePair.from_hessian(M)
        values = [pcdm_constants(pair, tc, A=A).sigma3 for tc in range(1, 41)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 + 1e-12 for v in values)

    def test_sparse_weights_never_exceed_dense(self):
        A, M = random_sparse_decomposition(24, 8, 0.4, 23)
        pair = CurvaturePair.from_hessian(M)
        for tau_c in (2, 5, 8):
            sparse = pcdm_constants(pair, tau_c, A=A)
            dense = pcdm_constants(pair, tau_c, assume_dense=True)
            assert np.all(sparse.v <= dense.v + 1e-12)
            assert sparse.sigma3 >= dense.sigma3 - 1e-12

    def test_sigma_b_formula(self):
        A, M = random_sparse_decomposition(20, 7, 0.5, 24)
        pair = CurvaturePair.from_hessian(M)
        vals = np.linalg.eigvalsh(M)
        for tau_c in (1, 4, 7):
            got = pcdm_constants(pair, tau_c, A=A).sigma_b
            assert got == pytest.approx((tau_c / 7) * vals[0] / vals[-1], rel=1e-10)

    def test_rejects_bad_decomposition(self):
        pair = CurvaturePair.from_hessian(np.eye(4))
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="A\\^T A"):
            pcdm_constants(pair, 2, A=rng.standard_normal((6, 4)))

    def test_requires_decomposition_or_flag(self):
        pair = CurvaturePair.from_hessian(np.eye(4))
        with pytest.raises(ValueError, match="assume_dense"):
            pcdm_constants(pair, 2)


class TestRateReport:
    def test_serial_report(self):
        M = make_rho_matrix(6, 0.3)
        pair = CurvaturePair.from_hessian(M)
        rep = rate_report(pair, SamplingScheme("nice", 6, 2))
        closed = rho_closed_forms(6, 2, 0.3)
        assert rep.sigma1 == pytest.approx(closed.sigma1, rel=1e-10)
        assert rep.theta == pytest.approx(closed.theta, rel=1e-10)
        assert rep.lam == 1.0
        assert rep.b_min == 1.0
        assert rep.sigma_p == pytest.approx(rep.sigma1, rel=1e-14)
        assert rep.speedup == pytest.approx(1.0, rel=1e-14)
        assert rep.hypotheses_hold

    def test_parallel_report_scales(self):
        M = make_rho_matrix(6, 0.3)
        pair = CurvaturePair.from_hessian(M)
        base = rate_report(pair, SamplingScheme("nice", 6, 2))
        for c in (2, 4, 8):
            rep = rate_report(pair, SamplingScheme("nice", 6, 2, c=c))
            assert rep.sigma1 == pytest.approx(base.sigma1, rel=1e-12)
            assert rep.b_min == pytest.approx((c - 1) * base.theta + 1, rel=1e-12)
            assert rep.sigma_p == pytest.approx(c * base.sigma1 / rep.b_min)
            assert rep.sigma_p <= 1.0 + 1e-12
            assert rep.speedup > 1.0  # adding workers helps
            assert rep.hypotheses_hold

    def test_speedup_saturates_below_inverse_theta(self):
        M = make_rho_matrix(8, 0.5)
        pair = CurvaturePair.from_hessian(M)
        base = rate_report(pair, SamplingScheme("nice", 8, 2))
        rep = rate_report(pair, SamplingScheme("nice", 8, 2, c=64))
        assert rep.speedup < 1.0 / base.theta

    def test_non_overlapping_flagged(self):
        M = make_rho_matrix(6, 0.3)
        pair = CurvaturePair.from_hessian(M)
        rep = rate_report(pair, SamplingScheme("non-overlapping", 6, 2, c=3))
        assert not rep.hypotheses_hold
        assert rep.sigma1 > 0.0

    def test_sigma_p_at_other_damping(self):
        M = make_rho_matrix(6, 0.3)
        pair = CurvaturePair.from_hessian(M)
        rep = rate_report(pair, SamplingScheme("nice", 6, 2, c=3))
        assert sigma_p(3, 2 * rep.b_min, rep.sigma1, rep.b_min) == pytest.approx(rep.sigma_p / 2)
        with pytest.raises(ValueError):
            sigma_p(3, 0.5 * rep.b_min, rep.sigma1, rep.b_min)

    def test_accepts_precomputed_expectation(self):
        M = make_rho_matrix(5, 0.4)
        pair = CurvaturePair.from_hessian(M)
        scheme = SamplingScheme("nice", 5, 2)
        E = expected_lifted_inverse(M, scheme).matrix
        rep = rate_report(pair, scheme, expected_inverse=E)
        assert rep.sigma1 == pytest.approx(rho_closed_forms(5, 2, 0.4).sigma1)


def square_root_reference(M, G, E, tau_c):
    """sigma1, theta, lambda and the dense sigma3 through explicit
    symmetric square roots of G, the textbook formulas."""
    W, Wi = sqrt_pd(G), invsqrt_pd(G)
    weighted = np.linalg.eigvalsh(W @ E @ W)
    n = M.shape[0]
    v = tau_c * np.diag(M)
    return {
        "sigma1": weighted[0],
        "theta": weighted[-1],
        "lam": np.linalg.eigvalsh(Wi @ M @ Wi)[-1],
        "sigma3": np.linalg.eigvalsh((W * (tau_c / n / v)) @ W)[0],
    }


@st.composite
def curvature_problems(draw):
    """Random positive definite M = A^T A, G <= M (or G = M), a nice or
    list scheme, a worker count and tau_c = tau*c <= n."""
    n = draw(st.integers(2, 7), label="n")
    tau = draw(st.integers(1, n), label="tau")
    kind = draw(st.sampled_from(["nice", "list"]), label="kind")
    c = draw(st.integers(1, n // tau), label="c")
    quadratic = draw(st.booleans(), label="quadratic")
    rng = np.random.default_rng(draw(st.integers(0, 2**31), label="seed"))
    A = np.vstack([rng.standard_normal((n + 1, n)), np.eye(n)])
    M = A.T @ A
    if quadratic:
        G = M
    else:
        # G = M - t C with t below lambda_min(M) / lambda_max(C), so
        # that 0 < G <= M without G being a multiple of M.
        B = rng.standard_normal((n, n))
        C = B @ B.T + 0.1 * np.eye(n)
        t = 0.9 * np.linalg.eigvalsh(M)[0] / np.linalg.eigvalsh(C)[-1]
        G = M - t * C
    return M, G, A, SamplingScheme(kind, n, tau), c


class TestPencilRoute:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(problem=curvature_problems())
    def test_sandwich_and_square_root_reference(self, problem):
        M, G, A, scheme, c = problem
        pair = CurvaturePair(M, G)
        E = expected_lifted_inverse(M, scheme).matrix
        rep = rate_report(pair, scheme.with_workers(c), expected_inverse=E)
        assert 0.0 < rep.sigma1 <= rep.theta <= 1.0 + 1e-12
        tau_c = scheme.tau * c
        dense = pcdm_constants(pair, tau_c, assume_dense=True)
        ref = square_root_reference(M, G, E, tau_c)
        got = {"sigma1": rep.sigma1, "theta": rep.theta, "lam": rep.lam, "sigma3": dense.sigma3}
        for key, value in ref.items():
            assert got[key] == pytest.approx(value, rel=1e-10), key
        if pair.quadratic:
            assert rep.lam == 1.0
        # With a decomposition the weights differ; the pencil route
        # still gives lambda_min(G^{1/2} D G^{1/2}), D = diag(p/v).
        with_a = pcdm_constants(pair, tau_c, A=A)
        W = sqrt_pd(G)
        want = np.linalg.eigvalsh((W * (tau_c / scheme.n / with_a.v)) @ W)[0]
        assert with_a.sigma3 == pytest.approx(want, rel=1e-10)


class TestMemo:
    def test_enumerated_extremes_computed_once_per_constituent(self, monkeypatch):
        M = random_pd(7, 32)
        pair = CurvaturePair.from_hessian(M)
        nice = SamplingScheme("nice", 7, 2)
        E = expected_lifted_inverse(M, nice).matrix
        calls = count_spectral_work(monkeypatch)
        reports = [rate_report(pair, nice.with_workers(c)) for c in (1, 2, 3)]
        reports.append(rate_report(pair, SamplingScheme("non-overlapping", 7, 2, c=3)))
        assert [name for name, _ in calls].count("expected_lifted_inverse") == 1
        assert len({(r.sigma1, r.theta) for r in reports}) == 1
        rate_report(pair, SamplingScheme("list", 7, 2))
        assert [name for name, _ in calls].count("expected_lifted_inverse") == 2
        assert (reports[0].sigma1, reports[0].theta) == (sigma1(pair, E), theta(pair, E))

    def test_writeable_expectation_is_never_memoized(self):
        M = random_pd(6, 30)
        pair = CurvaturePair.from_hessian(M)
        scheme = SamplingScheme("nice", 6, 2)
        E = expected_lifted_inverse(M, scheme).matrix.copy()
        first = rate_report(pair, scheme, expected_inverse=E)
        E *= 0.5
        second = rate_report(pair, scheme, expected_inverse=E)
        assert second.sigma1 == pytest.approx(0.5 * first.sigma1, rel=1e-12)
        assert second.theta == pytest.approx(0.5 * first.theta, rel=1e-12)

    def test_read_only_expectation_matched_by_identity(self):
        M = random_pd(6, 31)
        pair = CurvaturePair.from_hessian(M)
        nice = expected_lifted_inverse(M, SamplingScheme("nice", 6, 2)).matrix
        window = expected_lifted_inverse(M, SamplingScheme("list", 6, 2)).matrix
        a = (sigma1(pair, nice), theta(pair, nice))
        b = (sigma1(pair, window), theta(pair, window))
        assert a != b
        assert (sigma1(pair, nice), theta(pair, nice)) == a
        assert similar_extremes(M, window) == pytest.approx(b, rel=1e-10)


def weighted_with_work(G, E):
    """The extremes of L^T E L for a fresh pair of G (the one call
    behind sigma1 and theta), the names of the spectral work it did and
    its number of band bisection probes."""
    pair = CurvaturePair.from_hessian(G)
    with counting_band_probes() as probes, pytest.MonkeyPatch.context() as mp:
        calls = count_spectral_work(mp)
        result = pair._weighted_extremes(E)
    return result, [name for name, _ in calls], len(probes)


class TestBandedWeightedRoute:
    """L^T E L in band storage against the dense reference route."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        b_G=st.integers(0, 3),
        b_E=st.integers(0, 3),
        extra=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_band_route_matches_dense_reference(self, b_G, b_E, extra, seed):
        # From the first order at which the band route is taken.
        b = b_G + b_E
        n = next(m for m in itertools.count(1) if psn.linalg._band_is_cheaper(b, m)) + extra - 1
        rng = np.random.default_rng(seed)
        G, E = random_band(n, b_G, rng), random_band(n, b_E, rng)
        got, work, probes = weighted_with_work(G, E)
        # The banded factor (one _cholesky call) and one band solve,
        # which probes unless L^T E L is diagonal; no dense factor, no
        # eigen_extremes.
        assert work == ["_cholesky", "_band_extremes"] and bool(probes) == (b > 0)
        assert got == pytest.approx(reference_weighted_extremes(G, E), rel=1e-12)

    def test_dense_g_or_dense_e_takes_the_dense_route(self):
        rng = np.random.default_rng(5)
        heat = psn.linalg.make_heat_matrix(60)
        nice = expected_lifted_inverse(heat, SamplingScheme("nice", 60, 2)).matrix
        for G, E in ((random_pd(60, 6), random_band(60, 1, rng)), (heat, nice)):
            got, work, probes = weighted_with_work(G, E)
            assert work == ["_cholesky", "eigen_extremes"] and probes == 0
            assert got == pytest.approx(reference_weighted_extremes(G, E), rel=1e-12)

    def test_upper_band_wider_than_lower(self):
        rng = np.random.default_rng(7)
        G = random_band(200, 1, rng)
        E = random_band(200, 1, rng)
        E += np.diag(rng.uniform(0.1, 0.5, 197), 3)
        got, work, probes = weighted_with_work(G, E)
        assert "_band_extremes" in work and probes > 0
        assert got == pytest.approx(reference_weighted_extremes(G, E), rel=1e-12)

    def test_heat_rates_in_band_memory(self):
        # With M and its pair built first, E and a rate report at
        # n = 3000 peak below an eighth of one n x n array (72 MB): E
        # stays a band from its assembly to sigma_1 and theta.
        n = 3000
        M = psn.linalg.make_heat_matrix(n)
        pair = CurvaturePair.from_hessian(M)
        scheme = SamplingScheme("list", n, 5)
        tracemalloc.start()
        try:
            E = expected_lifted_inverse(M, scheme).matrix
            report = rate_report(pair, scheme.with_workers(4), expected_inverse=E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scipy.sparse.issparse(E)
        assert peak < M.nbytes / 8
        assert 0.0 < report.sigma1 <= report.theta <= pair.cond_bound(5)

    def test_band_expectation_memo(self):
        # A band E with read-only data is matched by identity; one with
        # writeable data (here a copy) is never memoized.
        M = psn.linalg.make_heat_matrix(300)
        E = expected_lifted_inverse(M, SamplingScheme("list", 300, 4)).matrix
        pair = CurvaturePair.from_hessian(M)
        first = theta(pair, E)
        copy = scipy.sparse.dia_array(E, copy=True)
        assert copy.data.flags.writeable
        with pytest.MonkeyPatch.context() as mp:
            calls = count_spectral_work(mp)
            assert (theta(pair, E), sigma1(pair, E)) == (first, sigma1(pair, E)) and calls == []
            assert theta(pair, copy) == first and calls == [("_band_extremes", 300)]
            copy.data *= 0.5
            assert theta(pair, copy) == pytest.approx(0.5 * first, rel=1e-12)

    def test_memo_on_the_band_route(self):
        rng = np.random.default_rng(8)
        G, E = random_band(200, 2, rng), random_band(200, 2, rng)
        pair = CurvaturePair.from_hessian(G)
        first = (sigma1(pair, E), theta(pair, E))
        E *= 0.5
        assert (sigma1(pair, E), theta(pair, E)) == pytest.approx(
            (0.5 * first[0], 0.5 * first[1]), rel=1e-12
        )
        E.flags.writeable = False
        with pytest.MonkeyPatch.context() as mp:
            calls = count_spectral_work(mp)
            again = sigma1(pair, E), theta(pair, E)
            assert [name for name, _ in calls] == ["_band_extremes"]
            calls.clear()
            assert (sigma1(pair, E), theta(pair, E)) == again and calls == []
            copy = E.copy()
            copy.flags.writeable = False
            theta(pair, copy)
            assert [name for name, _ in calls] == ["_band_extremes"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("route", ["band", "dense"])
    def test_non_finite_inside_the_band(self, bad, route):
        rng = np.random.default_rng(9)
        G = random_band(200, 1, rng) if route == "band" else random_pd(200, 10)
        E = random_band(200, 1, rng)
        E[5, 4] = bad
        pair = CurvaturePair.from_hessian(G)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                theta(pair, E)

    def test_shape_mismatch(self):
        pair = CurvaturePair.from_hessian(np.eye(4))
        with pytest.raises(ValueError, match="shape"):
            theta(pair, np.eye(3))
