"""Solver driver tests.

Step formulas are checked against hand-solved small systems and the
exact Newton step; the driver must reproduce the reference loop of
reference.py bit for bit, and the threads setting must not change it.
"""

import dataclasses
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

import psn.erm
import psn.rates
import psn.sampling
import psn.solver
from psn.cli import main
from psn.erm import ErmProblem, LogisticLoss, run_erm
from psn.linalg import make_heat_matrix, make_rho_matrix
from psn.rates import CurvaturePair, b_threshold, lambda_ratio, theta, theta_cond_bound
from psn.sampling import KINDS, SamplingScheme, draw, expected_lifted_inverse, parse_scheme
from psn.solver import (
    DivergenceError,
    SmoothObjective,
    SolverConfig,
    block_step,
    least_squares_objective,
    quadratic_objective,
    run,
)

from reference import (
    count_spectral_work,
    reference_block_step,
    reference_heat_objective,
    reference_iterate,
    reference_make_heat_matrix,
    reference_run,
    reference_step,
)


def random_quadratic(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    M = A @ A.T + n * np.eye(n)
    return quadratic_objective(M, rng.standard_normal(n))


def nonquadratic_objective(n, mu=0.1):
    """f(x) = ||x||^2/2 + mu * sum log cosh x_i, minimised at 0 with
    Hessians between I and (1 + mu) I."""
    def value(x):
        return float(0.5 * x @ x + mu * np.sum(np.logaddexp(x, -x) - np.log(2.0)))

    def gradient(x):
        return x + mu * np.tanh(x)

    return SmoothObjective(
        n=n,
        value=value,
        gradient=gradient,
        M=(1.0 + mu) * np.eye(n),
        G=np.eye(n),
        x_star=np.zeros(n),
        f_star=0.0,
    )


def kernel_step(x, objective, sets, b=1.0):
    """x + (1/b) sum_i h_i through the library kernel; the sets may
    differ in size, so each is its own one-row draw."""
    g = objective.gradient(x)
    total = sum(block_step(objective.M, np.asarray(S)[None], g.__getitem__) for S in sets)
    return x + total / b


def trace_values(trace):
    """Everything a trace records except timing."""
    return [(r.iteration, r.value, r.gap, r.grad_norm) for r in trace.records]


class TestObjectives:
    def test_quadratic_exactly_when_G_is_M(self, monkeypatch):
        assert "quadratic" not in {f.name for f in dataclasses.fields(SmoothObjective)}
        order_checks = []
        order_holds = psn.rates.psd_order_holds

        def counted(*args, **kwargs):
            order_checks.append(args)
            return order_holds(*args, **kwargs)

        monkeypatch.setattr(psn.rates, "psd_order_holds", counted)
        obj = random_quadratic(5, 58)
        assert obj.G is obj.M and obj.quadratic
        assert obj.curvature().quadratic and order_checks == []
        # G equal to M but another array is a general pair: G <= M is
        # checked and lambda comes from a Cholesky factor of G.
        copy = SmoothObjective(5, obj.value, obj.gradient, obj.M, obj.M.copy())
        assert not copy.quadratic
        pair = copy.curvature()
        assert not pair.quadratic and pair.m_extremes is None and len(order_checks) == 1
        calls = count_spectral_work(monkeypatch)
        assert lambda_ratio(pair) == pytest.approx(1.0, rel=1e-12)
        assert ("_cholesky", 5) in calls

    def test_quadratic_matches_formula(self):
        obj = random_quadratic(5, 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(5)
            assert obj.value(x) == pytest.approx(0.5 * x @ (obj.M @ x) - (obj.M @ obj.x_star) @ x)
            # central finite differences as an independent gradient oracle
            g = obj.gradient(x)
            h = 1e-6
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_quadratic_minimiser(self):
        obj = random_quadratic(6, 2)
        q = obj.M @ obj.x_star
        assert np.allclose(obj.x_star, np.linalg.solve(obj.M, q), atol=1e-10)
        assert obj.f_star == pytest.approx(-0.5 * q @ obj.x_star)
        assert obj.quadratic

    def test_quadratic_shape_error(self):
        with pytest.raises(ValueError):
            quadratic_objective(np.eye(3), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quadratic_rejects_non_finite_q(self, bad):
        q = np.ones(3)
        q[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quadratic_objective(np.eye(3), q)

    @pytest.mark.parametrize("where", ["A", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_least_squares_rejects_non_finite(self, where, bad):
        rng = np.random.default_rng(6)
        data = {"A": rng.standard_normal((8, 3)), "y": rng.standard_normal(8)}
        data[where][(2, 1) if where == "A" else 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            least_squares_objective(data["A"], data["y"])

    def test_least_squares_matches_lstsq(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 5))
        y = rng.standard_normal(12)
        obj = least_squares_objective(A, y)
        x_ref = np.linalg.lstsq(A, y, rcond=None)[0]
        assert np.allclose(obj.x_star, x_ref, atol=1e-10)
        x = rng.standard_normal(5)
        # same curve up to the constant ||y||^2/2 dropped by the quadratic form
        assert obj.value(x) == pytest.approx(0.5 * np.sum((A @ x - y) ** 2) - 0.5 * y @ y)

    def test_least_squares_rank_deficient(self):
        A = np.ones((4, 2))
        with pytest.raises(np.linalg.LinAlgError):
            least_squares_objective(A, np.ones(4))

    @pytest.mark.parametrize("fmt", ["dia", "csr", "coo"])
    def test_hand_built_sparse_objective_runs(self, fmt):
        # Block steps index M, so an M in a sparse format is stored by
        # the rule (an array below the switch), one object with G, and
        # runs as the same M given as an array.
        A = 2 * np.eye(5)
        M = getattr(scipy.sparse, f"{fmt}_array")(A)
        obj = SmoothObjective(5, lambda x: float(x @ x - x.sum()), lambda x: 2 * x - 1, M, M)
        assert isinstance(obj.M, np.ndarray) and obj.G is obj.M and obj.quadratic
        array = SmoothObjective(5, obj.value, obj.gradient, A, A)
        config = SolverConfig(SamplingScheme("nice", 5, 2), b=1, max_iter=3)
        assert trace_values(run(obj, config)) == trace_values(run(array, config))

    @pytest.mark.parametrize("fmt", ["band", "dia", "csr", "coo"])
    def test_hand_built_non_symmetric_m_refused(self, fmt):
        # Past the switch every format is stored as a band and checked
        # in full: a skew band fails the objective's own check.
        skew = psn.linalg._Band.from_diagonals(300, {-1: 1.0, 0: 4.0, 1: 2.0})
        M = skew if fmt == "band" else getattr(scipy.sparse, f"{fmt}_array")(skew)
        with pytest.raises(ValueError, match="not symmetric"):
            SmoothObjective(300, lambda x: 0.0, lambda x: x, M, M)
        assert not skew._symmetric

    def test_checked_band_passed_on(self, monkeypatch):
        # quadratic_objective checks its band once; the objective and its
        # curvature pair take the marked band as it is: check_symmetric
        # reads its diagonals (_padded) no more.
        M = make_heat_matrix(300)
        obj = quadratic_objective(M, np.ones(300))
        assert obj.M is M and M._symmetric
        padded = psn.linalg._Band._padded

        def read(band):
            assert sys._getframe(1).f_code.co_name != "check_symmetric"
            return padded.__get__(band, type(band))

        monkeypatch.setattr(psn.linalg._Band, "_padded", property(read))
        assert obj.curvature().M is obj.M is obj.G
        assert dataclasses.replace(obj).M is M

    def test_hand_built_general_pair_with_sparse_g(self):
        # A non-quadratic objective whose M and G come as sparse matrices
        # past the switch: both are stored as bands, and the run and the
        # pair's lambda equal those of the array objective.
        ref = nonquadratic_objective(150)
        obj = dataclasses.replace(
            ref, M=scipy.sparse.dia_array(ref.M), G=scipy.sparse.csr_array(ref.G)
        )
        assert isinstance(obj.M, psn.linalg._Band) and isinstance(obj.G, psn.linalg._Band)
        assert not obj.quadratic
        assert obj.M.toarray().tobytes() == ref.M.tobytes()
        assert obj.G.toarray().tobytes() == ref.G.tobytes()
        config = SolverConfig(SamplingScheme("nice", 150, 5, 2), b=2.0, seed=3, max_iter=40)
        assert trace_values(run(obj, config)) == trace_values(run(ref, config))
        assert lambda_ratio(obj.curvature()) == lambda_ratio(ref.curvature())


class TestSteps:
    def test_full_set_is_newton_step(self):
        obj = random_quadratic(6, 4)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.standard_normal(6)
            x1 = kernel_step(x, obj, [np.arange(6)])
            assert np.abs(x1 - obj.x_star).max() < 1e-10

    def test_block_step_hand_solved(self):
        M = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.5]])
        q = np.array([1.0, -2.0, 0.5])
        obj = quadratic_objective(M, q)
        x = np.array([1.0, 1.0, 1.0])
        S = np.array([0, 2])
        g = M @ x - q
        h = np.linalg.solve(M[np.ix_(S, S)], -g[S])
        expect = x.copy()
        expect[S] += h
        got = kernel_step(x, obj, [S])
        assert np.allclose(got, expect, atol=1e-14)
        assert got[1] == x[1]  # untouched outside the block

    def test_block_step_never_increases_quadratic(self):
        obj = random_quadratic(7, 6)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(7)
            S = np.sort(rng.choice(7, size=3, replace=False))
            assert obj.value(kernel_step(x, obj, [S])) <= obj.value(x) + 1e-12

    def test_psn_single_set_matches_serial(self):
        obj = random_quadratic(5, 8)
        x = np.arange(5, dtype=float)
        S = np.array([1, 3])
        assert np.array_equal(kernel_step(x, obj, [S]), reference_step(x, obj, [S], 1.0))

    def test_psn_damping_scales_step(self):
        obj = random_quadratic(5, 9)
        x = np.ones(5)
        sets = [np.array([0, 1]), np.array([2, 4])]
        full = kernel_step(x, obj, sets, 1.0) - x
        half = kernel_step(x, obj, sets, 2.0) - x
        assert np.allclose(half, full / 2.0, atol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_psn_aggregates_block_directions(self, data):
        # Random positive definite M, random (possibly overlapping) sets
        # and damping, against one dense solve per block.
        n = data.draw(st.integers(1, 8), label="n")
        obj = random_quadratic(n, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        block = st.sets(st.integers(0, n - 1), min_size=1).map(sorted)
        sets = data.draw(st.lists(block, min_size=1, max_size=5), label="sets")
        b = data.draw(st.floats(0.1, 10.0), label="b")
        x = np.linspace(-1, 1, n)
        g = obj.gradient(x)
        total = np.zeros(n)
        for S in sets:
            h = np.zeros(n)
            h[S] = np.linalg.solve(obj.M[np.ix_(S, S)], -g[S])
            total += h
        got = kernel_step(x, obj, sets, b)
        err = np.abs(got - (x + total / b)).max()
        assert err <= 1e-10 * (1.0 + np.abs(total).max() / b)
        # Ragged sets through the kernel equal the per-block reference.
        assert np.array_equal(got, reference_step(x, obj, sets, b))


class TestBlockKernel:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_draws_match_per_block_reference(self, data):
        n = data.draw(st.integers(1, 30), label="n")
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        tau = data.draw(st.integers(1, n), label="tau")
        top = n // tau if kind == "non-overlapping" else 4
        c = data.draw(st.integers(1, min(4, top)), label="c")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        M = A @ A.T + rng.uniform(0.01, 1.0) * np.eye(n)
        g = rng.standard_normal(n)
        sets = draw(SamplingScheme(kind, n, tau, c), rng)
        expect = reference_block_step(M, sets, g.__getitem__)
        assert np.array_equal(block_step(M, sets, g.__getitem__), expect)

    def test_bad_block_names_its_set(self):
        # [[1, 2], [2, 1]] on {0, 1} is indefinite; {0, 2} is fine.
        M = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sets = np.array([[0, 2], [0, 1]])
        with pytest.raises(np.linalg.LinAlgError, match=r"\[0, 1\]"):
            block_step(M, sets, np.ones(3).__getitem__)


class TestRunConvergence:
    def test_serial_nice_converges(self):
        obj = random_quadratic(10, 12)
        config = SolverConfig(SamplingScheme("nice", 10, 3), b=1.0, seed=0)
        trace = run(obj, config)
        assert trace.converged
        assert trace.records[-1].grad_norm <= config.tol
        assert np.abs(trace.x - obj.x_star).max() < 1e-7
        assert trace.records[0].iteration == 0
        assert len(trace.records) == trace.iterations + 1
        gaps = [r.gap for r in trace.records]
        assert all(g is not None and g >= -1e-12 for g in gaps)

    def test_parallel_auto_damping_converges(self):
        obj = random_quadratic(8, 13)
        config = SolverConfig(
            SamplingScheme("nice", 8, 2, c=4), b="auto", theta="exact", seed=1
        )
        trace = run(obj, config)
        assert trace.converged
        pair = CurvaturePair.from_hessian(obj.M)
        E = expected_lifted_inverse(obj.M, config.scheme).matrix
        assert trace.b == pytest.approx(b_threshold(4, 1.0, theta(pair, E)), rel=1e-12)
        assert trace.theta_used == pytest.approx(theta(pair, E), rel=1e-12)

    def test_list_bound_damping_converges(self):
        obj = random_quadratic(9, 14)
        config = SolverConfig(
            SamplingScheme("list", 9, 3, c=3), b="auto", theta="bound", seed=2
        )
        trace = run(obj, config)
        assert trace.converged
        expect_b = b_threshold(3, 1.0, min(1.0, theta_cond_bound(3, obj.M)))
        assert trace.b == pytest.approx(expect_b, rel=1e-12)

    def test_bound_damping_covers_nice_sampling(self):
        # The bound holds for every uniform sampling, nice included, and
        # for non-quadratic pairs; the run uses the pair's value.
        for obj, scheme, lam in (
            (random_quadratic(5, 50), SamplingScheme("nice", 5, 2, c=2), 1.0),
            (nonquadratic_objective(6), SamplingScheme("nice", 6, 3, c=2), 1.1),
        ):
            trace = run(obj, SolverConfig(scheme, b="auto", theta="bound", seed=5))
            assert trace.converged
            assert trace.theta_used == obj.curvature().cond_bound(scheme.tau)
            assert trace.b == pytest.approx(b_threshold(2, lam, trace.theta_used), rel=1e-12)

    def test_non_overlapping_converges(self):
        obj = random_quadratic(8, 15)
        config = SolverConfig(
            SamplingScheme("non-overlapping", 8, 2, c=4), b=1.0, seed=3
        )
        assert run(obj, config).converged

    def test_nonquadratic_converges_to_zero(self):
        obj = nonquadratic_objective(6)
        config = SolverConfig(
            SamplingScheme("nice", 6, 2, c=2), b="auto", theta="exact", seed=4
        )
        trace = run(obj, config)
        assert trace.converged
        assert np.abs(trace.x).max() < 1e-7
        # auto damping folds in lambda = lambda_max(G^{-1/2} M G^{-1/2}) = 1.1
        E = expected_lifted_inverse(obj.M, config.scheme).matrix
        th = theta(obj.curvature(), E)
        assert trace.b == pytest.approx(1.0 + 1.1 * th, rel=1e-9)

    def test_non_finite_status(self):
        M = random_quadratic(6, 17).M
        obj = SmoothObjective(6, lambda x: 0.0, lambda x: np.full(6, np.nan), M, M)
        config = SolverConfig(SamplingScheme("nice", 6, 2), b=1.0)
        trace = run(obj, config)
        assert trace.status == "non-finite"
        assert len(trace.records) == 1

    def test_max_iterations_status(self):
        obj = random_quadratic(10, 16)
        config = SolverConfig(SamplingScheme("nice", 10, 1), b=1.0, max_iter=3)
        trace = run(obj, config)
        assert not trace.converged
        assert trace.status == "max-iterations"
        assert len(trace.records) == 4


class TestDampingMemo:
    @pytest.mark.parametrize(
        "build,theta_source",
        [
            (lambda: random_quadratic(9, 48), "bound"),
            (lambda: random_quadratic(9, 48), "exact"),
            (lambda: nonquadratic_objective(120), "exact"),
        ],
    )
    def test_second_run_reuses_damping(self, build, theta_source, monkeypatch):
        calls = count_spectral_work(monkeypatch)
        obj = build()
        scheme = SamplingScheme("list", obj.n, 3)

        def config(c):
            return SolverConfig(
                scheme.with_workers(c), b="auto", theta=theta_source, seed=1, max_iter=5
            )

        run(obj, config(1))
        # G = I and a diagonal E put the non-quadratic theta on the band
        # route (banded factor and band solve) at n = 120; the others are
        # dense.
        assert calls and (("_band_extremes", obj.n) in calls) == (not obj.quadratic)
        for c in (2, 4):
            calls.clear()
            trace = run(obj, config(c))
            assert calls == []
            fresh = run(build(), config(c))
            assert (trace.b, trace.theta_used) == (fresh.b, fresh.theta_used)

    def test_one_pair_per_objective(self):
        for obj in (random_quadratic(5, 57), nonquadratic_objective(5)):
            assert obj.curvature() is obj.curvature()

    def test_numeric_theta_is_used_as_given(self):
        obj = random_quadratic(6, 49)
        for th in (0.5, 0.25):
            config = SolverConfig(SamplingScheme("nice", 6, 2, c=3), theta=th, max_iter=2)
            trace = run(obj, config)
            assert (trace.b, trace.theta_used) == (2.0 * th + 1.0, th)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["nice", "list"])
    def test_parallel_driver_reproduces_serial_loop(self, kind, seed):
        obj = random_quadratic(9, 40 + seed)
        config = SolverConfig(SamplingScheme(kind, 9, 2), b=1.0, seed=seed, max_iter=400)
        a = run(obj, config)
        b = reference_run(obj, config, 1.0)
        assert a.status == b.status
        assert np.array_equal(a.x, b.x)
        assert [r.value for r in a.records] == [r.value for r in b.records]
        assert [r.grad_norm for r in a.records] == [r.grad_norm for r in b.records]

    @pytest.mark.parametrize("kind", ["parallel-nice", "non-overlapping"])
    def test_parallel_driver_matches_reference_loop(self, kind):
        obj = random_quadratic(9, 47)
        config = SolverConfig(parse_scheme(f"{kind}:tau=2,c=3", 9), b=2.5, seed=4, max_iter=300)
        a, b = run(obj, config), reference_run(obj, config, 2.5)
        assert a.status == b.status
        assert trace_values(a) == trace_values(b)
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("kind", ["nice", "list"])
    @pytest.mark.parametrize(
        "obj, seed",
        [(quadratic_objective(make_rho_matrix(12, 0.3), np.ones(12)), 3),
         (random_quadratic(9, 44), 0)],
    )
    def test_one_worker_parallel_scheme_reproduces_serial(self, obj, seed, kind):
        config = SolverConfig(
            parse_scheme(f"parallel-{kind}:tau=3,c=1", obj.n), b=1.0, seed=seed, max_iter=2000
        )
        parallel, serial = run(obj, config), reference_run(obj, config, 1.0)
        assert serial.status == parallel.status == "converged"
        assert trace_values(parallel) == trace_values(serial)
        assert np.array_equal(parallel.x, serial.x)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_thread_count_never_changes_trace(self, data):
        n = data.draw(st.integers(2, 10), label="n")
        kind = data.draw(
            st.sampled_from(["nice", "list", "non-overlapping"]), label="kind"
        )
        tau = data.draw(st.integers(1, n), label="tau")
        c = data.draw(st.integers(1, min(4, n // tau) if kind == "non-overlapping" else 4), label="c")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        incremental = data.draw(st.booleans(), label="incremental")
        obj = random_quadratic(n, seed)
        traces = [
            run(obj, SolverConfig(
                SamplingScheme(kind, n, tau).with_workers(c), b=float(c), seed=seed,
                threads=threads, max_iter=40, incremental_gradient=incremental,
            ))
            for threads in (1, 2, 3)
        ]
        for trace in traces[1:]:
            assert trace_values(trace) == trace_values(traces[0])
            assert np.array_equal(trace.x, traces[0].x)

    def test_thread_count_does_not_change_trace(self):
        obj = random_quadratic(10, 43)
        base = None
        for threads in (1, 2, 4):
            config = SolverConfig(
                SamplingScheme("nice", 10, 2, c=3),
                b=2.0,
                seed=5,
                threads=threads,
                max_iter=300,
            )
            trace = run(obj, config)
            values = [r.value for r in trace.records]
            if base is None:
                base = (values, trace.x)
            else:
                assert values == base[0]
                assert np.array_equal(trace.x, base[1])

    def test_same_seed_same_trace(self):
        obj = random_quadratic(8, 45)
        config = SolverConfig(SamplingScheme("nice", 8, 2, c=2), b=1.5, seed=7)
        assert np.array_equal(run(obj, config).x, run(obj, config).x)


class TestIncrementalGradient:
    def test_converges_and_matches_direct_solution(self):
        obj = random_quadratic(12, 46)
        scheme = SamplingScheme("nice", 12, 3, c=2)
        fast = run(obj, SolverConfig(scheme, b=1.5, seed=8, incremental_gradient=True))
        slow = run(obj, SolverConfig(scheme, b=1.5, seed=8))
        assert fast.converged and slow.converged
        assert np.abs(fast.x - obj.x_star).max() < 1e-7
        # same sampling path, so the trajectories agree to round-off
        assert np.abs(fast.x - slow.x).max() < 1e-6

    def test_wide_steps_recompute_the_full_gradient(self):
        # Every non-overlapping draw of 4 sets of 2 moves 8 of 12
        # coordinates, more than n/2, so each update is a full recompute
        # and the gradient equals the non-incremental run's bit for bit.
        obj = random_quadratic(12, 48)
        scheme = SamplingScheme("non-overlapping", 12, 2, c=4)
        fast = run(obj, SolverConfig(scheme, b=3.0, seed=8, max_iter=60, incremental_gradient=True))
        slow = run(obj, SolverConfig(scheme, b=3.0, seed=8, max_iter=60))
        assert [r.grad_norm for r in fast.records] == [r.grad_norm for r in slow.records]
        assert np.array_equal(fast.x, slow.x)

    def test_nearly_symmetric_M_does_not_drift(self):
        # An M symmetric only within check_symmetric's tolerance is
        # symmetrised on entry, so the row updates read the matrix the
        # gradient uses.  The run ends before the first full recompute;
        # without the symmetrisation its last gradient norm was off by
        # 8e-3 relative, against 1e-8 for an exactly symmetric M.
        rng = np.random.default_rng(57)
        A = rng.standard_normal((40, 40))
        M = A @ A.T / 40 + 40 * np.eye(40)
        upper = np.triu_indices(40, 1)
        M[upper] += 1e-11 * np.abs(M).max() * rng.standard_normal(upper[0].size)
        q = rng.standard_normal(40)
        obj = quadratic_objective(M, q)
        config = SolverConfig(
            SamplingScheme("list", 40, 5), b=1.0, seed=3, incremental_gradient=True
        )
        trace = run(obj, config)
        assert trace.converged and trace.iterations < 250
        residual = np.linalg.norm(obj.M @ trace.x - q)
        assert trace.records[-1].grad_norm == pytest.approx(residual, rel=1e-6)

    def test_ignored_for_nonquadratic(self):
        obj = nonquadratic_objective(5)
        config = SolverConfig(
            SamplingScheme("nice", 5, 2), b=1.0, seed=9, incremental_gradient=True
        )
        assert run(obj, config).converged


class TestGuards:
    def test_divergence_raises(self):
        # c full-block directions with b = 1 triple the Newton step:
        # x' - x* = -2 (x - x*), so from x = 0, away from x*, the
        # objective rises every iteration.
        obj = random_quadratic(6, 47)
        assert np.abs(obj.x_star).max() > 0.1
        config = SolverConfig(
            SamplingScheme("nice", 6, 6, c=3), b=1.0, seed=10, max_iter=10_000
        )
        with pytest.raises(DivergenceError, match="damping"):
            run(obj, config)

    def test_explicit_b_below_one_rejected(self):
        obj = random_quadratic(5, 48)
        config = SolverConfig(SamplingScheme("nice", 5, 2), b=0.5)
        with pytest.raises(ValueError, match="at least 1"):
            run(obj, config)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iter": -1},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"b": float("nan")},
            {"b": float("inf")},
            {"b": "auto", "theta": float("nan")},
            {"b": "auto", "theta": -0.5},
            {"threads": 0},
            {"threads": -3},
        ],
    )
    def test_bad_settings_rejected(self, bad):
        obj = random_quadratic(5, 56)
        config = SolverConfig(SamplingScheme("nice", 5, 2), **{"b": 1.0, **bad})
        with pytest.raises(ValueError):
            run(obj, config)

    def test_auto_without_theta_rejected(self):
        obj = random_quadratic(5, 49)
        with pytest.raises(ValueError, match="theta"):
            run(obj, SolverConfig(SamplingScheme("nice", 5, 2), b="auto"))

    def test_dimension_mismatch(self):
        obj = random_quadratic(5, 51)
        with pytest.raises(ValueError, match="dimension"):
            run(obj, SolverConfig(SamplingScheme("nice", 6, 2), b=1.0))


class TestTraceCsv:
    def test_columns_and_blank_gap(self, tmp_path):
        from dataclasses import replace

        obj = nonquadratic_objective(4)
        obj = replace(obj, x_star=None, f_star=None)  # optimum unknown
        trace = run(obj, SolverConfig(SamplingScheme("nice", 4, 2), b=1.0, max_iter=5))
        rows = list(trace.csv_rows())
        assert list(trace.COLUMNS) == ["f_gap", "grad_norm"]
        assert [row[0] for row in rows] == [rec.iteration for rec in trace.records]
        assert all(len(row) == 3 and row[1] == "" for row in rows)
        # The CLI is the one CSV writer, and no timing column reaches it.
        out = tmp_path / "trace.csv"
        argv = ["solve", "--gen", "rho:4,0.3", "--scheme", "nice:tau=2", "--b", "1",
                "--max-iter", "5", "--out", str(out)]
        assert main(argv) in (0, 2)
        text = out.read_bytes().decode()
        assert "\r" not in text
        assert text.splitlines()[0] == "c,iteration,f_gap,grad_norm"

    def test_round_trip_precision(self):
        obj = random_quadratic(4, 55)
        trace = run(obj, SolverConfig(SamplingScheme("nice", 4, 2), b=1.0, max_iter=8))
        for (_, gap, gnorm), rec in zip(trace.csv_rows(), trace.records):
            assert float(gap) == rec.gap  # repr round-trips exactly
            assert float(gnorm) == rec.grad_norm


class TestBandStorage:
    """A heat objective past the switch holds M as a band; its block
    steps and minimiser equal those of the dense-storage reference bit
    for bit, and its runs (band matvec gradients) agree with the
    reference's (row-update gradients) to round-off."""

    N = 300

    @pytest.fixture(scope="class")
    def objectives(self):
        q = np.cos(0.5 * np.pi * np.linspace(-1.0, 1.0, self.N))
        return quadratic_objective(make_heat_matrix(self.N), q), reference_heat_objective(self.N)

    def test_storage_follows_the_switch(self, objectives):
        band, dense = objectives
        assert isinstance(band.M, psn.linalg._Band) and isinstance(dense.M, np.ndarray)
        assert band.M.toarray().tobytes() == dense.M.tobytes()
        # An array past the switch is stored as a band, a band below it
        # as an array, a dense matrix as an array.
        assert scipy.sparse.issparse(quadratic_objective(dense.M, np.ones(self.N)).M)
        small = quadratic_objective(make_heat_matrix(60), np.ones(60)).M
        assert small.tobytes() == reference_make_heat_matrix(60).tobytes()
        assert isinstance(random_quadratic(150, 1).M, np.ndarray)

    @pytest.mark.parametrize("kind", ["list", "nice"])
    @pytest.mark.parametrize("c", [1, 4])
    def test_block_steps_equal_bit_for_bit(self, objectives, kind, c):
        band, dense = objectives
        rng = np.random.default_rng(11)
        g = rng.standard_normal(self.N)
        for _ in range(50):
            sets = draw(SamplingScheme(kind, self.N, 5, c), rng)
            want = block_step(dense.M, sets, g.__getitem__)
            assert block_step(band.M, sets, g.__getitem__).tobytes() == want.tobytes()

    def test_minimiser_equal(self, objectives):
        band, dense = objectives
        assert band.x_star.tobytes() == dense.x_star.tobytes()

    @pytest.mark.parametrize("fmt", ["dia", "csr", "coo"])
    def test_hand_built_objective_stored_as_band(self, objectives, fmt):
        # The heat M built by hand in a sparse format is stored as
        # quadratic_objective stores it, as one object with G, and its
        # seeded trace is quadratic_objective's bit for bit.
        band, dense = objectives
        M = getattr(scipy.sparse, f"{fmt}_array")(dense.M)
        obj = SmoothObjective(self.N, band.value, band.gradient, M, M, band.x_star, band.f_star)
        assert isinstance(obj.M, psn.linalg._Band) and obj.G is obj.M and obj.M == band.M
        config = SolverConfig(SamplingScheme("list", self.N, 5, 4), theta="bound", seed=7)
        assert trace_values(run(obj, config)) == trace_values(run(band, config))

    @pytest.mark.parametrize("c", [1, 4])
    def test_seeded_runs_agree(self, objectives, c):
        band, dense = objectives
        config = SolverConfig(
            scheme=SamplingScheme("list", self.N, 5, c), theta="bound", tol=1e-8,
            seed=7, incremental_gradient=True,
        )
        a, b = run(band, config), run(dense, config)
        assert a.converged and b.converged and a.b == b.b
        assert abs(a.iterations - b.iterations) <= 1
        assert np.abs(a.x - b.x).max() <= 1e-10


def test_changed_set_of_each_draw(monkeypatch):
    # The loop passes each draw's sets to update: for nice and
    # non-overlapping the very array draw returned, for list (starts
    # drawn ahead) the same values.  _changed gives np.unique of their
    # rows, and a one-row draw passes its (sorted, distinct) row itself.
    recorded, passed = [], []

    def recording_draw(scheme, rng):
        recorded.append(draw(scheme, rng))
        return recorded[-1]

    monkeypatch.setattr(psn.sampling, "draw", recording_draw)
    objective = random_quadratic(12, 3)
    for kind, c in [("list", 1), ("nice", 1), ("non-overlapping", 1), ("nice", 3), ("list", 2),
                    ("non-overlapping", 2)]:
        recorded.clear()
        passed.clear()
        config = SolverConfig(SamplingScheme(kind, 12, 3, c), b=float(c), max_iter=20, seed=5)
        psn.solver._iterate(
            config, objective.M, lambda: ((0.0, None, 1.0), 1.0, 0.0),
            np.ones(12).__getitem__, lambda k, sets, total: passed.append(sets),
            psn.solver.TraceRecord,
        )
        rng = np.random.default_rng(config.seed)
        expected = [draw(config.scheme, rng) for _ in range(20)]
        assert len(passed) == 20 and len(recorded) == (0 if kind == "list" else 20)
        for k, (got, sets) in enumerate(zip(passed, expected)):
            assert got.dtype == sets.dtype and np.array_equal(got, sets)
            if kind != "list":
                assert got is recorded[k]
            changed = psn.solver._changed(got)
            assert np.array_equal(changed, np.unique(sets))
            assert (c == 1) == np.shares_memory(changed, got)


def logistic_data(d=6, n=30, seed=8):
    """Features and +-1 labels of a planted linear model."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, n))
    return A, np.where(A.T @ rng.standard_normal(d) >= 0.0, 1.0, -1.0)


def count_factors(monkeypatch):
    """A list that gets one entry per block factor the solver makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(psn.solver, "dpotrf", counted)
    return calls


class TestWindowFactors:
    """List runs keep each window's block factor; their traces equal the
    per-draw loop's (reference_iterate) bit for bit, above the cache's
    cap too."""

    @pytest.fixture(scope="class", params=["band", "dense"])
    def heat(self, request):
        n = 300 if request.param == "band" else 60
        q = np.cos(0.5 * np.pi * np.linspace(-1.0, 1.0, n))
        objective = quadratic_objective(make_heat_matrix(n), q)
        assert isinstance(objective.M, np.ndarray) == (request.param == "dense")
        return objective

    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("chunk", [None, 40])
    def test_run_equals_reference(self, heat, c, chunk, monkeypatch):
        # 700 steps: past one chunk of starts (819 draws of 5 indices at
        # c = 4, 3,276 at c = 1) only with a small chunk.
        if chunk is not None:
            monkeypatch.setattr(psn.sampling, "_CHUNK_ENTRIES", chunk)
        config = SolverConfig(SamplingScheme("list", heat.n, 5, c), b=float(c), tol=0.0,
                              max_iter=700, seed=11)
        a, b = run(heat, config), reference_run(heat, config, float(c))
        assert a.status == b.status == "max-iterations"
        assert trace_values(a) == trace_values(b)
        assert a.x.tobytes() == b.x.tobytes()

    @pytest.mark.parametrize("c", [1, 4])
    def test_default_chunk_crossed(self, heat, c, monkeypatch):
        # One chunk holds 3,276 (c = 1) or 819 (c = 4) draws at tau = 5.
        config = SolverConfig(SamplingScheme("list", heat.n, 5, c), b=float(c), tol=0.0,
                              max_iter=3400 if c == 1 else 900, seed=3)
        a = run(heat, config)
        monkeypatch.setattr(psn.solver, "_iterate", reference_iterate)
        b = run(heat, config)
        assert trace_values(a) == trace_values(b)
        assert a.x.tobytes() == b.x.tobytes()

    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("max_iter", [30, 400])
    def test_run_erm_equals_reference(self, c, max_iter, monkeypatch):
        monkeypatch.setattr(psn.sampling, "_CHUNK_ENTRIES", 50)
        problem = ErmProblem(*logistic_data(), LogisticLoss(0.1), 0.05)
        config = SolverConfig(SamplingScheme("list", problem.n, 4, c), theta="exact",
                              tol=0.0, max_iter=max_iter, seed=9)
        a = run_erm(problem, config)
        monkeypatch.setattr(psn.erm, "_iterate", reference_iterate)
        b = run_erm(problem, config)
        assert list(a.csv_rows()) == list(b.csv_rows())
        assert a.alpha.tobytes() == b.alpha.tobytes() and a.w.tobytes() == b.w.tobytes()

    @pytest.mark.parametrize("c", [1, 4])
    def test_above_the_cap_same_bits(self, heat, c, monkeypatch):
        config = SolverConfig(SamplingScheme("list", heat.n, 5, c), b=float(c), tol=0.0,
                              max_iter=200, seed=2)
        calls = count_factors(monkeypatch)
        cached = run(heat, config)
        assert len(calls) <= heat.n
        calls.clear()
        monkeypatch.setattr(psn.solver, "_FACTOR_CACHE_ENTRIES", heat.n * 25 - 1)
        fresh = run(heat, config)
        assert len(calls) == 200 * c
        assert trace_values(cached) == trace_values(fresh)
        assert cached.x.tobytes() == fresh.x.tobytes()

    @pytest.mark.parametrize("c", [1, 3])
    def test_each_window_factored_once(self, c, monkeypatch):
        objective = random_quadratic(9, 6)
        calls = count_factors(monkeypatch)
        passed = []
        config = SolverConfig(SamplingScheme("list", 9, 3, c), b=float(c), tol=0.0,
                              max_iter=300, seed=1)
        psn.solver._iterate(
            config, objective.M, lambda: ((0.0, None, 1.0), 1.0, 0.0),
            np.ones(9).__getitem__, lambda k, sets, total: passed.append(sets.copy()),
            psn.solver.TraceRecord,
        )
        assert len(calls) == len({tuple(S) for sets in passed for S in sets}) == 9

    @pytest.mark.parametrize("c", [1, 2])
    def test_indefinite_window_raises_as_before(self, c):
        # Window {2, 3} of [[1, 2], [2, 1]] is indefinite; every other
        # window of the list sampling (n = 6, tau = 2) is positive
        # definite.  The run stops at the same iteration with the same
        # message as the per-draw loop.
        M = np.eye(6)
        M[2, 3] = M[3, 2] = 2.0
        config = SolverConfig(SamplingScheme("list", 6, 2, c), b=float(c), tol=0.0,
                              max_iter=50, seed=4)
        outcomes = []
        for loop in (psn.solver._iterate, reference_iterate):
            steps = []
            with pytest.raises(np.linalg.LinAlgError) as err:
                loop(config, M, lambda: ((0.0, None, 1.0), 1.0, 0.0), np.ones(6).__getitem__,
                     lambda k, sets, total: steps.append(k), psn.solver.TraceRecord)
            outcomes.append((len(steps), str(err.value)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1].startswith("block [2, 3] is not positive definite")

    @pytest.mark.parametrize("c", [1, 4])
    def test_large_n_factors_only_drawn_windows(self, c, monkeypatch):
        n = 10**5
        objective = quadratic_objective(make_heat_matrix(n), np.ones(n))
        assert n * 25 <= psn.solver._FACTOR_CACHE_ENTRIES
        calls = count_factors(monkeypatch)
        trace = run(objective, SolverConfig(SamplingScheme("list", n, 5, c), b=float(c),
                                            tol=0.0, max_iter=10))
        assert trace.iterations == 10 and 0 < len(calls) <= 10 * c
