"""Dual ERM solver tests.

Loss conjugates are checked through the Fenchel-Young equality, the
squared-loss path against the ridge-regression closed form, and the
dual driver against weak/strong duality and the running-average
invariant.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from psn.cli import main
from psn.erm import (
    DualState,
    ErmProblem,
    LogisticLoss,
    SquaredLoss,
    block_subproblem,
    load_libsvm,
    run_erm,
)
from psn.linalg import eigen_extremes
from psn.rates import b_threshold, lambda_ratio, rate_report
from psn.sampling import SamplingScheme
from psn.solver import DivergenceError, SolverConfig

from reference import count_spectral_work, logistic_slope, reference_erm_pair, squared_slope


def record_values(trace):
    """Everything a dual trace records except timing."""
    return [(r.iteration, r.primal, r.dual, r.gap, r.consistency) for r in trace.records]


def random_problem(d, n, seed, loss=None, lam=0.1):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, n))
    if isinstance(loss, LogisticLoss):
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    else:
        y = rng.standard_normal(n)
    return ErmProblem(A, y, loss or SquaredLoss(), lam)


def ridge_weights(problem):
    """Closed-form minimiser of the squared-loss primal."""
    d, n = problem.d, problem.n
    lhs = problem.A @ problem.A.T / n + problem.lam_reg * np.eye(d)
    return np.linalg.solve(lhs, problem.A @ problem.y / n)


class TestSquaredLoss:
    def test_fenchel_young_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z, y = rng.standard_normal(2)
            s = squared_slope(z, y)
            conjugate = SquaredLoss.conjugate_with_derivative(s, y)[0]
            assert SquaredLoss.value(z, y) + conjugate == pytest.approx(s * z, abs=1e-12)

    def test_conjugate_derivative_inverts(self):
        rng = np.random.default_rng(1)
        s, y = rng.standard_normal(2)
        z = SquaredLoss.conjugate_with_derivative(s, y)[1]
        assert squared_slope(z, y) == pytest.approx(s, abs=1e-14)


class TestLogisticLoss:
    def test_derivative_matches_finite_difference(self):
        # The reference slope the root checks below rely on is the
        # derivative of the loss's own value.
        loss = LogisticLoss(1e-2)
        rng = np.random.default_rng(2)
        for y in (-1.0, 1.0):
            z = rng.standard_normal()
            h = 1e-6
            fd = (loss.value(z + h, y) - loss.value(z - h, y)) / (2 * h)
            assert logistic_slope(loss, z, y) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_conjugate_derivative_inverts(self):
        loss = LogisticLoss(1e-3)
        s = np.array([-50.0, -1.0, -1e-4, 0.0, 1e-4, 1.0, 50.0])
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        z = loss.conjugate_with_derivative(s, y)[1]
        resid = logistic_slope(loss, z, y) - s
        assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(s).max())

    def test_fenchel_young_equality(self):
        loss = LogisticLoss(1e-2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(8) * 3.0
        y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
        s = logistic_slope(loss, z, y)
        total = loss.value(z, y) + loss.conjugate_with_derivative(s, y)[0]
        assert np.abs(total - s * z).max() < 1e-10

    def test_conjugate_is_scalar_friendly(self):
        loss = LogisticLoss()
        scalar = loss.conjugate_with_derivative(0.3, 1.0)
        vector = loss.conjugate_with_derivative(np.array([0.3]), np.array([1.0]))
        for got, want in zip(scalar, vector):
            assert float(got) == pytest.approx(float(want[0]))

    def test_epsilon_validation(self):
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                LogisticLoss(epsilon)


class BareSquaredLoss:
    """The squared loss with only the members ErmProblem reads."""

    gamma = 1.0
    smoothness = 1.0

    def value(self, z, y):
        return 0.5 * (z - y) ** 2

    def conjugate_with_derivative(self, s, y):
        return 0.5 * s**2 + s * y, s + y


class TestLossInterface:
    def test_bare_loss_object_is_enough(self):
        rng = np.random.default_rng(47)
        A, y = rng.standard_normal((3, 9)), rng.standard_normal(9)
        bare, full = ErmProblem(A, y, BareSquaredLoss(), 0.1), ErmProblem(A, y, SquaredLoss(), 0.1)
        config = SolverConfig(SamplingScheme("nice", 9, 2).with_workers(2), theta="exact", seed=4)
        got, want = run_erm(bare, config), run_erm(full, config)
        assert got.status == want.status == "converged"
        assert (got.b, got.theta_used) == (want.b, want.theta_used)
        assert record_values(got) == record_values(want)
        assert np.array_equal(got.alpha, want.alpha)
        alpha = rng.standard_normal(9)
        assert bare.dual_value(alpha) == full.dual_value(alpha)
        assert np.array_equal(bare.psi_gradient(alpha), full.psi_gradient(alpha))


def random_slopes(seed, size):
    """Labels y and slopes s: size of them in [-10, 10], size/2 in
    [-1, 0] (where the Newton iteration needs the most passes),
    size/4 in [-1e3, 1e3], and the ends of those ranges."""
    rng = np.random.default_rng(seed)
    s = np.concatenate([
        rng.uniform(-10.0, 10.0, size),
        rng.uniform(-1.0, 0.0, size // 2),
        rng.uniform(-1e3, 1e3, size // 4),
        [-1e3, -1.0, -0.5, 0.0, 1e3],
    ])
    return s, np.where(rng.random(s.size) < 0.5, -1.0, 1.0)


class TestLogisticRoot:
    @pytest.mark.parametrize("epsilon", [1e-3, 0.1])
    def test_vector_solve_equals_entrywise_solves(self, epsilon):
        loss = LogisticLoss(epsilon)
        s, y = random_slopes(42, 200)
        z = loss._root(s, y)
        each = np.array([loss._root(s[i : i + 1], y[i : i + 1])[0] for i in range(s.size)])
        assert np.array_equal(z, each)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.1])
    def test_residual_within_tolerance(self, epsilon):
        loss = LogisticLoss(epsilon)
        s, y = random_slopes(43, 2000)
        z = loss._root(s, y)
        resid = np.abs(logistic_slope(loss, z, y) - s)
        assert np.all(resid <= 1e-13 * np.maximum(1.0, np.abs(s)))

    @pytest.mark.parametrize("epsilon", [1e-3, 0.1])
    def test_few_newton_passes(self, epsilon, monkeypatch):
        # Each pass evaluates the sigmoid once, and the pass that finds
        # every entry converged takes no Newton step.
        calls = []
        expit = scipy.special.expit

        def counted(x):
            calls.append(1)
            return expit(x)

        monkeypatch.setattr(scipy.special, "expit", counted)
        s, y = random_slopes(44, 2000)
        small = np.abs(s) <= 10.0
        LogisticLoss(epsilon)._root(s[small], y[small])
        newton_steps = len(calls) - 1
        assert 0 < newton_steps <= 10


class TestProblemSetup:
    def test_data_is_a_read_only_copy(self):
        rng = np.random.default_rng(45)
        A = rng.standard_normal((3, 5))
        y = rng.standard_normal(5)
        prob = ErmProblem(A, y)
        A_before, y_before = prob.A.copy(), prob.y.copy()
        A[0, 0] += 1.0
        y[1] += 1.0
        assert np.array_equal(prob.A, A_before)
        assert np.array_equal(prob.y, y_before)
        assert not prob.A.flags.writeable
        assert not prob.y.flags.writeable

    def test_shape_and_parameter_validation(self):
        A = np.ones((3, 4))
        with pytest.raises(ValueError):
            ErmProblem(A, np.ones(3))
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lam_reg"):
                ErmProblem(A, np.ones(4), SquaredLoss(), lam_reg=lam)
        with pytest.raises(ValueError, match="labels"):
            ErmProblem(A, np.array([1.0, -1.0, 0.5, 1.0]), LogisticLoss())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_data(self, bad):
        A, y = np.ones((3, 4)), np.ones(4)
        A_bad, y_bad = A.copy(), y.copy()
        A_bad[1, 2] = y_bad[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data in ((A_bad, y), (A, y_bad)):
                with pytest.raises(ValueError, match="finite"):
                    ErmProblem(*data)

    def test_smoothness_matrix_formula(self):
        prob = random_problem(4, 6, 4)
        n = prob.n
        X = prob.smoothness_matrix()
        expect = prob.A.T @ prob.A / (prob.lam_reg * n * n) + np.eye(n) / n
        assert np.abs(X - expect).max() < 1e-12
        assert np.linalg.eigvalsh(X)[0] > 0

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(1e-2)])
    def test_smoothness_dominates_separable_part(self, loss):
        prob = random_problem(4, 6, 5, loss=loss)
        X = prob.smoothness_matrix()
        floor = np.eye(prob.n) / (loss.gamma * prob.n)
        assert np.linalg.eigvalsh(X - floor)[0] > -1e-12

    def test_curvature_quadratic_for_squared_loss(self):
        prob = random_problem(3, 5, 6)
        pair = prob.curvature()
        assert pair.quadratic
        assert np.abs(pair.M - prob.smoothness_matrix()).max() < 1e-14

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(1e-2)])
    def test_smoothness_matrix_built_once(self, loss, monkeypatch):
        prob = random_problem(3, 6, 8, loss=loss)
        products = []

        class CountingArray(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ np.asarray(other)
                products.append(out.shape)
                return out

        object.__setattr__(prob, "A", prob.A.view(CountingArray))

        def gram_products():
            return products.count((6, 6))

        calls = count_spectral_work(monkeypatch)
        config = SolverConfig(SamplingScheme("nice", 6, 2), b=1.0, seed=0, max_iter=5)
        for _ in range(2):
            run_erm(prob, config)
            assert gram_products() == 1
        assert calls == []  # an explicit b builds no pair
        X = prob.smoothness_matrix()
        assert not X.flags.writeable
        assert prob.curvature().M is X
        assert prob.smoothness_matrix() is X
        assert gram_products() == 1  # the pair forms no second n x n Gram product

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(1e-2)])
    def test_bound_damping_works_at_order_d(self, loss, monkeypatch):
        # d < n: the pair's extremes and lambda come from the d x d Gram,
        # so neither building it nor a run with bound theta makes an
        # eigenvalue solve or a Cholesky factor of order n.
        prob = random_problem(3, 12, 48, loss=loss)
        calls = count_spectral_work(monkeypatch)
        prob.curvature()
        assert calls == [("eigen_extremes", 3)]
        for c in (1, 4):
            scheme = SamplingScheme("list", 12, 3, c=c)
            run_erm(prob, SolverConfig(scheme, b="auto", theta="bound", seed=1, max_iter=5))
        assert calls == [("eigen_extremes", 3)]

    def test_pair_rejects_gamma_above_smoothness(self):
        class Inverted(SquaredLoss):
            gamma = 2.0

        with pytest.raises(ValueError, match="G <= M"):
            ErmProblem(np.ones((2, 3)), np.ones(3), Inverted()).curvature()

    def test_curvature_gap_for_logistic(self):
        prob = random_problem(3, 5, 7, loss=LogisticLoss(1e-2))
        pair = prob.curvature()
        assert not pair.quadratic
        diff = np.linalg.eigvalsh(pair.M - pair.G)[0]
        assert diff > -1e-14


class TestCurvatureFromGram:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_order_n_route(self, data):
        # The pair from the smaller Gram against full validation at
        # order n and the numeric lambda.  lambda_min(G) is compared to
        # 1e-12 relative or 1e-14 lambda_max(G) absolute: at lam = 1e-2
        # a rank-deficient B is large next to I/(L n), and the order-n
        # eigenvalue solve is accurate only to a few n eps lambda_max(G).
        n = data.draw(st.integers(2, 12), label="n")
        d = data.draw(st.sampled_from([n // 2, n, 2 * n]), label="d")
        rank = data.draw(st.integers(1, min(d, n)), label="rank")
        loss = data.draw(
            st.sampled_from([SquaredLoss(), LogisticLoss(1e-2), LogisticLoss(0.1)]), label="loss"
        )
        lam = data.draw(st.sampled_from([1e-2, 0.1, 1.0]), label="lam")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        prob = ErmProblem(A, y, loss, lam)
        pair = prob.curvature()
        ref, ref_lam = reference_erm_pair(prob)
        assert np.array_equal(pair.M, ref.M)
        assert np.array_equal(pair.G, ref.G)
        assert pair.quadratic == ref.quadratic == prob.quadratic
        lo, hi = ref.g_extremes
        assert pair.g_extremes[0] == pytest.approx(lo, rel=1e-12, abs=1e-14 * hi)
        assert pair.g_extremes[1] == pytest.approx(hi, rel=1e-12)
        if rank < n:  # lambda_min(B) = 0, so lambda_min(G) = 1/(L n)
            floor = 1.0 / (loss.smoothness * n)
            assert pair.g_extremes[0] == pytest.approx(floor, rel=1e-12)
        m_lo, m_hi = eigen_extremes(ref.M)
        assert pair.m_extremes[0] == pytest.approx(m_lo, rel=1e-12, abs=1e-14 * m_hi)
        assert pair.m_extremes[1] == pytest.approx(m_hi, rel=1e-12)
        assert lambda_ratio(pair) == pytest.approx(ref_lam, rel=1e-12)
        scheme = SamplingScheme("nice", n, data.draw(st.integers(1, min(n, 3)), label="tau"))
        assert pair.enumerated_extremes(scheme) == ref.enumerated_extremes(scheme)


class TestThetaBound:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bound_lies_between_exact_theta_and_one(self, data):
        # sigma1 <= theta_exact <= cond_bound <= 1: the bound divides by
        # lambda_min(M) = mu_min + 1/(gamma n) and is clamped at the
        # paper's theta <= 1.
        n = data.draw(st.integers(2, 10), label="n")
        d = data.draw(st.sampled_from([max(1, n // 2), n, 2 * n]), label="d")
        loss = data.draw(
            st.sampled_from([SquaredLoss(), LogisticLoss(1e-2), LogisticLoss(1.0)]), label="loss"
        )
        lam = data.draw(st.sampled_from([1e-2, 0.1, 1.0]), label="lam")
        kind = data.draw(st.sampled_from(["nice", "list"]), label="kind")
        tau = data.draw(st.integers(1, min(n, 4)), label="tau")
        c = data.draw(st.integers(1, 4), label="c")
        prob = random_problem(d, n, data.draw(st.integers(0, 2**16), label="seed"), loss, lam)
        pair = prob.curvature()
        report = rate_report(pair, SamplingScheme(kind, n, tau, c))
        bound = pair.cond_bound(tau)
        assert 0.0 < report.sigma1 <= report.theta * (1 + 1e-12)
        assert report.theta <= bound * (1 + 1e-12)
        assert bound <= 1.0


class TestDuality:
    def test_weak_duality(self):
        prob = random_problem(4, 7, 8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            w = rng.standard_normal(4)
            alpha = rng.standard_normal(7)
            assert prob.primal_value(w) >= prob.dual_value(alpha) - 1e-12

    def test_strong_duality_at_ridge_solution(self):
        prob = random_problem(5, 8, 10)
        w_star = ridge_weights(prob)
        alpha_star = np.linalg.solve(prob.smoothness_matrix(), prob.y / prob.n)
        gap = prob.primal_value(w_star) - prob.dual_value(alpha_star)
        assert abs(gap) < 1e-10
        assert np.abs(prob.average_of(alpha_star) - w_star).max() < 1e-10

    def test_full_block_step_reaches_dual_optimum(self):
        prob = random_problem(4, 6, 11)
        X = prob.smoothness_matrix()
        rng = np.random.default_rng(12)
        alpha0 = rng.standard_normal(6)
        state = DualState.initial(prob, alpha0)
        h = block_subproblem(prob, state, np.arange(6), X)
        alpha1 = state.alpha + h
        alpha_star = np.linalg.solve(X, prob.y / prob.n)
        assert np.abs(alpha1 - alpha_star).max() < 1e-10

    def test_block_step_zero_outside_set(self):
        prob = random_problem(4, 6, 13)
        X = prob.smoothness_matrix()
        state = DualState.initial(prob, np.ones(6))
        h = block_subproblem(prob, state, np.array([1, 4]), X)
        assert h[[0, 2, 3, 5]].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_consistency_error_detects_drift(self):
        prob = random_problem(3, 5, 14)
        state = DualState.initial(prob, np.ones(5))
        assert state.consistency_error(prob) < 1e-15
        state.alpha_bar = state.alpha_bar + 1e-3
        assert state.consistency_error(prob) == pytest.approx(1e-3, rel=1e-9)


class TestRunErm:
    def test_squared_loss_serial_converges_to_ridge(self):
        prob = random_problem(6, 20, 15)
        config = SolverConfig(SamplingScheme("nice", 20, 4), b=1.0, tol=1e-10, seed=0)
        trace = run_erm(prob, config)
        assert trace.converged
        assert trace.records[-1].gap <= 1e-10
        assert np.abs(trace.w - ridge_weights(prob)).max() < 1e-5
        assert max(r.consistency for r in trace.records) < 1e-10

    def test_dual_value_never_decreases_serial(self):
        prob = random_problem(5, 15, 16)
        config = SolverConfig(SamplingScheme("nice", 15, 3), b=1.0, tol=1e-9, seed=1)
        trace = run_erm(prob, config)
        duals = [r.dual for r in trace.records]
        assert all(b >= a - 1e-12 for a, b in zip(duals, duals[1:]))

    def test_parallel_auto_damping(self):
        prob = random_problem(5, 16, 17)
        config = SolverConfig(
            SamplingScheme("nice", 16, 4, c=3),
            b="auto",
            theta="exact",
            tol=1e-9,
            seed=2,
        )
        trace = run_erm(prob, config)
        assert trace.converged
        assert trace.b > 1.0
        assert trace.theta_used is not None

    def test_more_workers_need_no_more_iterations(self):
        prob = random_problem(6, 24, 30, lam=0.5)
        counts = {}
        for c in (1, 4):
            scheme = SamplingScheme("nice", 24, 3, c=c)
            config = SolverConfig(scheme, b="auto", theta="exact", tol=1e-9, seed=5)
            trace = run_erm(prob, config)
            assert trace.converged
            counts[c] = trace.iterations
        assert counts[4] <= counts[1]

    def test_logistic_converges(self):
        prob = random_problem(4, 14, 18, loss=LogisticLoss(1e-2))
        config = SolverConfig(
            SamplingScheme("nice", 14, 7), b=1.0, tol=1e-7, seed=3, max_iter=20_000
        )
        trace = run_erm(prob, config)
        assert trace.converged
        assert trace.records[-1].gap <= 1e-7
        assert max(r.consistency for r in trace.records) < 1e-10
        # the converged weights classify the training set no worse than w=0
        w = trace.w
        p0 = prob.primal_value(np.zeros(prob.d))
        assert prob.primal_value(w) < p0

    def test_thread_count_does_not_change_trace(self):
        prob = random_problem(4, 18, 24, loss=LogisticLoss(1e-2))
        base = None
        for threads in (1, 2, 4):
            config = SolverConfig(
                SamplingScheme("nice", 18, 3, c=3),
                b=2.0,
                seed=6,
                threads=threads,
                max_iter=200,
            )
            trace = run_erm(prob, config)
            gaps = [r.gap for r in trace.records]
            if base is None:
                base = (gaps, trace.alpha)
            else:
                assert gaps == base[0]
                assert np.array_equal(trace.alpha, base[1])

    def test_non_finite_status(self):
        prob = random_problem(3, 8, 25)
        config = SolverConfig(SamplingScheme("nice", 8, 2), b=1.0, x0=np.full(8, np.nan))
        trace = run_erm(prob, config)
        assert trace.status == "non-finite"
        assert len(trace.records) == 1

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(1.0)], ids=["squared", "logistic"])
    def test_divergence_raises(self, loss):
        # 8 blocks of 10 of the 20 coordinates at b = 1 overshoot: -D
        # rises until the guard stops the run, before anything overflows.
        prob = random_problem(5, 20, 0, loss=loss, lam=0.01)
        config = SolverConfig(SamplingScheme("nice", 20, 10, c=8), b=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="damping"):
                run_erm(prob, config)

    def test_gap_matches_direct_evaluation(self):
        prob = random_problem(4, 10, 19)
        config = SolverConfig(SamplingScheme("nice", 10, 2), b=1.0, max_iter=5, seed=4)
        trace = run_erm(prob, config)
        last = trace.records[-1]
        assert last.primal == pytest.approx(prob.primal_value(trace.w), rel=1e-12)
        assert last.dual == pytest.approx(prob.dual_value(trace.alpha), rel=1e-12)
        assert last.gap == pytest.approx(last.primal - last.dual, rel=1e-12)

    def test_alpha0_and_dimension_validation(self):
        prob = random_problem(3, 8, 20)
        with pytest.raises(ValueError):
            run_erm(prob, SolverConfig(SamplingScheme("nice", 9, 2), b=1.0))
        with pytest.raises(ValueError, match="x0"):
            run_erm(prob, SolverConfig(SamplingScheme("nice", 8, 2), b=1.0, x0=np.zeros(7)))

    def test_starts_from_config_x0(self):
        prob = random_problem(3, 8, 24)
        alpha0 = np.linspace(-1.0, 1.0, 8)
        config = SolverConfig(SamplingScheme("nice", 8, 2), b=1.0, max_iter=0, x0=alpha0)
        trace = run_erm(prob, config)
        assert trace.records[0].dual == pytest.approx(prob.dual_value(alpha0), rel=1e-12)
        assert np.array_equal(trace.alpha, alpha0) and trace.alpha is not alpha0

    def test_damping_validation(self):
        prob = random_problem(3, 8, 21)
        scheme = SamplingScheme("nice", 8, 2)
        with pytest.raises(ValueError, match="at least 1"):
            run_erm(prob, SolverConfig(scheme, b=0.25))
        for bad in (
            {"max_iter": -1},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"b": float("nan")},
            {"b": float("inf")},
            {"b": "auto", "theta": float("nan")},
            {"b": "auto", "theta": -0.5},
            {"threads": 0},
            {"threads": -3},
        ):
            with pytest.raises(ValueError):
                run_erm(prob, SolverConfig(scheme, **{"b": 1.0, **bad}))
        with pytest.raises(ValueError, match="theta"):
            run_erm(prob, SolverConfig(scheme, b="auto"))

    @pytest.mark.parametrize("kind", ["nice", "list"])
    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(0.1)])
    def test_bound_theta_for_any_sampling_and_loss(self, kind, loss):
        # The bound covers every uniform sampling and non-quadratic
        # duals; the run takes it from the problem's pair.
        prob = random_problem(3, 8, 22, loss=loss, lam=1.0)
        for c in (1, 2):
            scheme = SamplingScheme(kind, 8, 2).with_workers(c)
            trace = run_erm(prob, SolverConfig(scheme, b="auto", theta="bound", seed=1))
            assert trace.converged
            assert trace.theta_used == prob.curvature().cond_bound(2)
            exact = rate_report(prob.curvature(), scheme)
            assert exact.theta <= trace.theta_used
            assert trace.b == pytest.approx(b_threshold(c, exact.lam, trace.theta_used), rel=1e-12)

    def test_csv_output(self, tmp_path):
        # The CLI is the one CSV writer: its rows are the trace's
        # csv_rows, each led by c, and its floats are reprs that
        # round-trip.
        prob = random_problem(3, 8, 23)
        trace = run_erm(prob, SolverConfig(SamplingScheme("nice", 8, 2), b=1.0, max_iter=4))
        rows = list(trace.csv_rows())
        assert len(rows) == len(trace.records)
        assert float(rows[0][3]) == trace.records[0].gap
        data = tmp_path / "data.svm"
        data.write_text("".join(
            f"{label!r} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(col)) + "\n"
            for label, col in zip(prob.y.tolist(), prob.A.T.tolist())
        ))
        out = tmp_path / "trace.csv"
        argv = [
            "erm", "--data", str(data), "--reg", "0.1", "--scheme", "nice:tau=2",
            "--b", "1", "--max-iter", "4", "--out", str(out),
        ]
        assert main(argv) == (0 if trace.converged else 2)
        lines = out.read_text().splitlines()
        assert lines[0] == "c,iteration,primal,dual,gap"
        assert lines[1:] == [",".join(map(str, [1, *row])) for row in rows]


class TestDualRunProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_duality_and_incremental_state(self, data):
        d = data.draw(st.integers(1, 6), label="d")
        n = data.draw(st.integers(4, 12), label="n")
        loss = data.draw(
            st.sampled_from([SquaredLoss(), LogisticLoss(1e-2), LogisticLoss(0.1)]), label="loss"
        )
        lam = data.draw(st.sampled_from([1e-2, 0.1, 1.0]), label="lam")
        kind = data.draw(st.sampled_from(["nice", "list"]), label="kind")
        tau = data.draw(st.integers(1, 3), label="tau")
        c = data.draw(st.sampled_from([1, 2, 4]), label="c")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        prob = random_problem(d, n, seed, loss=loss, lam=lam)
        scheme = SamplingScheme(kind, n, tau).with_workers(c)
        config = SolverConfig(
            scheme, b="auto", theta="exact", tol=1e-9, seed=seed, max_iter=150
        )
        states = []
        initial = DualState.initial.__func__

        def capture(cls, problem, alpha):
            states.append(initial(cls, problem, alpha))
            return states[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DualState, "initial", classmethod(capture))
            trace = run_erm(prob, config)
        for rec in trace.records:
            assert rec.gap >= -1e-12 * max(1.0, abs(rec.primal)), rec
            assert rec.consistency <= 1e-10, rec
        assert trace.records[-1].dual == pytest.approx(prob.dual_value(trace.alpha), rel=1e-12)
        (state,) = states
        assert state.alpha is trace.alpha
        conjugate, zeta = prob.loss.conjugate_with_derivative(-trace.alpha, prob.y)
        assert np.array_equal(state.conjugate, conjugate)
        assert np.array_equal(state.zeta, zeta)
        assert np.array_equal(-state.zeta / n, prob.psi_gradient(trace.alpha))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_thread_count_never_changes_trace(self, data):
        n = data.draw(st.integers(2, 10), label="n")
        loss = data.draw(st.sampled_from([SquaredLoss(), LogisticLoss(0.1)]), label="loss")
        kind = data.draw(
            st.sampled_from(["nice", "list", "non-overlapping"]), label="kind"
        )
        tau = data.draw(st.integers(1, n), label="tau")
        c = data.draw(st.integers(1, min(4, n // tau) if kind == "non-overlapping" else 4), label="c")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        prob = random_problem(3, n, seed, loss=loss)
        traces = [
            run_erm(prob, SolverConfig(
                SamplingScheme(kind, n, tau).with_workers(c), b=float(c), seed=seed,
                threads=threads, max_iter=40,
            ))
            for threads in (1, 2, 3)
        ]
        for trace in traces[1:]:
            assert record_values(trace) == record_values(traces[0])
            assert np.array_equal(trace.alpha, traces[0].alpha)


class TestDampingMemo:
    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(1e-2)])
    def test_second_run_reuses_damping(self, loss, monkeypatch):
        scheme = SamplingScheme("list", 12, 3)
        calls = count_spectral_work(monkeypatch)

        def config(c, theta):
            return SolverConfig(
                scheme.with_workers(c), b="auto", theta=theta, seed=1, max_iter=5
            )

        for theta in ("exact", "bound"):
            prob = random_problem(4, 12, 46, loss=loss)
            run_erm(prob, config(1, theta))
            assert calls
            calls.clear()
            for c in (2, 4):
                trace = run_erm(prob, config(c, theta))
                assert calls == []
                fresh = run_erm(ErmProblem(prob.A, prob.y, loss, prob.lam_reg), config(c, theta))
                assert (trace.b, trace.theta_used) == (fresh.b, fresh.theta_used)
                calls.clear()

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss(1e-2)])
    def test_rate_report_and_runs_share_one_enumeration(self, loss, monkeypatch):
        prob = random_problem(4, 12, 47, loss=loss)
        assert prob.curvature() is prob.curvature()
        scheme = SamplingScheme("nice", 12, 3)
        calls = count_spectral_work(monkeypatch)
        report = rate_report(prob.curvature(), scheme)
        for c in (1, 2, 4):
            config = SolverConfig(
                scheme.with_workers(c), b="auto", theta="exact", seed=1, max_iter=5
            )
            assert run_erm(prob, config).theta_used == report.theta
        assert [name for name, _ in calls].count("expected_lifted_inverse") == 1


class TestLibsvmReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:0.5 3:-2\n-1 2:1.25\n\n1 3:4\n")
        A, y = load_libsvm(path)
        assert A.shape == (3, 3)
        assert y.tolist() == [1.0, -1.0, 1.0]
        expect = np.array([[0.5, 0.0, 0.0], [0.0, 1.25, 0.0], [-2.0, 0.0, 4.0]])
        assert np.array_equal(A, expect)

    def test_n_features_override(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:2\n")
        A, _ = load_libsvm(path, n_features=5)
        assert A.shape == (5, 1)
        with pytest.raises(ValueError, match="exceeds"):
            load_libsvm(path, n_features=0)

    def test_errors_name_line_numbers(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:2\nxyz 1:1\n")
        with pytest.raises(ValueError, match=":2:"):
            load_libsvm(path)
        path.write_text("1 0:2\n")
        with pytest.raises(ValueError, match="1-based"):
            load_libsvm(path)
        path.write_text("1 a:b\n")
        with pytest.raises(ValueError, match="feature token"):
            load_libsvm(path)
        path.write_text("1 12\n")
        with pytest.raises(ValueError, match="index:value"):
            load_libsvm(path)
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no data"):
            load_libsvm(path)
