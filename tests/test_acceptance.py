"""End-to-end acceptance gate.

Twelve checks cover the advertised guarantees: the parallel one-step
contraction bound, exact serial reduction, closed-form constants,
eigenvalue sandwiches and orderings, the tridiagonal/condition-number
bounds, PCDM comparison structure, the heat benchmark speedup, the
ridge oracle for the dual solver, the tower property, and byte-level
determinism of the command line.  Each test prints one PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import contextlib
import csv
import itertools
import time

import numpy as np
import pytest

from psn.cli import main
from psn.erm import ErmProblem, SquaredLoss, run_erm
from psn.linalg import (
    make_heat_matrix,
    make_rho_matrix,
    make_tridiagonal,
)
from psn.rates import (
    CurvaturePair,
    b_threshold,
    pcdm_constants,
    rho_closed_forms,
    sigma1,
    sigma_p,
    theta,
    theta_cond_bound,
    tridiag_theta_bound,
)
from psn.sampling import SamplingScheme, draw, expected_lifted_inverse
from psn.solver import SolverConfig, block_step, quadratic_objective, run

from reference import lifted_submatrix, probability_matrix, reference_run


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[{number:02d}] {name}: FAIL")
        raise
    print(f"[{number:02d}] {name}: PASS")


def test_01_parallel_one_step_contraction_bound():
    with criterion(1, "one-step contraction meets c*sigma1/b rate"):
        t0 = time.perf_counter()
        n = 8
        M = make_rho_matrix(n, 0.5)
        rng = np.random.default_rng(100)
        objective = quadratic_objective(M, rng.standard_normal(n))
        pair = CurvaturePair.from_hessian(M)
        scheme = SamplingScheme("nice", n, 2, c=2)
        E = expected_lifted_inverse(M, scheme).matrix
        th = theta(pair, E)
        b_star = b_threshold(2, 1.0, th)
        rate = sigma_p(2, b_star, sigma1(pair, E), b_star)

        x0 = objective.x_star + rng.standard_normal(n)
        gap0 = objective.value(x0) - objective.f_star
        g0 = objective.gradient(x0)
        trials = 20_000
        ratios = np.empty(trials)
        for t in range(trials):
            x1 = x0 + block_step(M, draw(scheme, rng), g0.__getitem__) / b_star
            ratios[t] = (objective.value(x1) - objective.f_star) / gap0
        mean = float(ratios.mean())
        sem = float(ratios.std(ddof=1) / np.sqrt(trials))
        assert mean <= (1.0 - rate) + 3.0 * sem
        assert time.perf_counter() - t0 < 10.0


def test_02_serial_reduction_is_exact():
    with criterion(2, "c=1, b=1 reduces exactly to the serial method"):
        s1 = 0.37281
        assert sigma_p(1, 1.0, s1) == s1  # exact, not approximate
        M = make_rho_matrix(8, 0.5)
        rng = np.random.default_rng(101)
        objective = quadratic_objective(M, rng.standard_normal(8))
        for seed in (0, 1, 2):
            config = SolverConfig(SamplingScheme("nice", 8, 2), b=1.0, seed=seed)
            parallel = run(objective, config)
            serial = reference_run(objective, config, 1.0)
            assert parallel.status == serial.status == "converged"
            assert np.array_equal(parallel.x, serial.x)
            assert [r.value for r in parallel.records] == [
                r.value for r in serial.records
            ]
            assert [r.grad_norm for r in parallel.records] == [
                r.grad_norm for r in serial.records
            ]


def test_03_rho_matrix_closed_forms_match_enumeration():
    with criterion(3, "rho-matrix closed forms match enumeration to 1e-10"):
        t0 = time.perf_counter()
        for n in range(4, 11):
            for tau in (2, 3, 4):
                for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
                    closed = rho_closed_forms(n, tau, rho)
                    M = make_rho_matrix(n, rho)
                    pair = CurvaturePair.from_hessian(M)
                    E = expected_lifted_inverse(M, SamplingScheme("nice", n, tau)).matrix
                    assert abs(closed.sigma1 - sigma1(pair, E)) <= 1e-10
                    assert abs(closed.theta - theta(pair, E)) <= 1e-10
        assert time.perf_counter() - t0 < 30.0


def test_04_sandwich_inequality():
    with criterion(4, "0 < sigma1 <= theta <= 1 on random curvature pairs"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            B = rng.standard_normal((n, n))
            G = B @ B.T + 0.2 * np.eye(n)
            C = rng.standard_normal((n, n))
            M = G + float(rng.random()) * (C @ C.T)
            pair = CurvaturePair(M, G)
            tau = int(rng.integers(1, n + 1))
            for kind in ("nice", "list"):
                E = expected_lifted_inverse(M, SamplingScheme(kind, n, tau)).matrix
                lo, hi = sigma1(pair, E), theta(pair, E)
                assert 0.0 < lo <= hi <= 1.0 + 1e-9


def test_05_lifted_inverse_orderings():
    with criterion(5, "lifted inverses respect both semidefinite orderings"):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            M = A @ A.T + 0.5 * np.eye(n)
            M_inv = np.linalg.inv(M)
            inverses = {}
            for size in range(1, n + 1):
                for S in itertools.combinations(range(n), size):
                    inverses[S] = np.linalg.inv(M[np.ix_(S, S)])
            # (M_S)^{-1} <= (M^{-1})_S for every nonempty S
            for S, inv_S in inverses.items():
                diff = M_inv[np.ix_(S, S)] - inv_S
                assert np.linalg.eigvalsh(diff)[0] >= -1e-9
            # (M_{S'})^{-1} <= (M_S)^{-1} for every S' strictly inside S
            for S, inv_S in inverses.items():
                pos = {v: i for i, v in enumerate(S)}
                for size in range(1, len(S)):
                    for S_sub in itertools.combinations(S, size):
                        padded = np.zeros_like(inv_S)
                        idx = [pos[v] for v in S_sub]
                        padded[np.ix_(idx, idx)] = inverses[S_sub]
                        assert np.linalg.eigvalsh(inv_S - padded)[0] >= -1e-9


def test_06_tridiagonal_theta_bound():
    with criterion(6, "2-list theta <= 2/((1-alpha)n), tight at alpha=0"):
        for n in range(5, 65):
            for alpha in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
                T = make_tridiagonal(n, alpha)
                pair = CurvaturePair.from_hessian(T)
                E = expected_lifted_inverse(T, SamplingScheme("list", n, 2)).matrix
                exact = theta(pair, E)
                bound = tridiag_theta_bound(alpha, n)
                assert exact <= bound + 1e-12
                if alpha == 0.0:
                    assert abs(exact - bound) <= 1e-12


def test_07_condition_number_bound_on_heat_matrix():
    with criterion(7, "list theta <= (tau/n) cond(M) <= 8.4/n on heat matrix"):
        tau = 5
        for n in (50, 200, 1000):
            M = make_heat_matrix(n)
            bound = theta_cond_bound(tau, M)
            assert bound <= 8.4 / n
            pair = CurvaturePair.from_hessian(M)
            E = expected_lifted_inverse(M, SamplingScheme("list", n, tau)).matrix
            assert theta(pair, E) <= bound + 1e-12


def test_08_pcdm_flat_while_parallel_rate_grows():
    with criterion(8, "dense sigma3 flat in tau*c while sigma_p grows with c"):
        rng = np.random.default_rng(104)
        A = rng.standard_normal((40, 40))
        pair = CurvaturePair.from_hessian(A.T @ A)
        sig3 = [pcdm_constants(pair, tc, A=A).sigma3 for tc in (3, 6, 12, 24)]
        assert max(sig3) - min(sig3) <= 1e-12 * max(sig3)

        E = expected_lifted_inverse(pair.M, SamplingScheme("nice", 40, 3)).matrix
        lo, hi = sigma1(pair, E), theta(pair, E)
        rates = []
        for c in (1, 2, 4, 8):
            b_star = b_threshold(c, 1.0, hi)
            rates.append(sigma_p(c, b_star, lo, b_star))
        assert all(b > a for a, b in zip(rates, rates[1:]))


def test_09_heat_solve_and_worker_speedup():
    with criterion(9, "heat system solved to 1e-8 with fewer iterations as c grows"):
        t0 = time.perf_counter()
        n = 1000
        M = make_heat_matrix(n)
        grid = np.linspace(-1.0, 1.0, n)
        objective = quadratic_objective(M, np.cos(0.5 * np.pi * grid))
        th = theta_cond_bound(5, M)
        mean_iterations = []
        for c in (1, 2, 4):
            scheme = SamplingScheme("list", n, 5, c=c)
            counts = []
            for seed in range(5):
                config = SolverConfig(
                    scheme,
                    b="auto",
                    theta=th,
                    tol=1e-8,
                    seed=seed,
                    max_iter=200_000,
                    incremental_gradient=True,
                )
                trace = run(objective, config)
                assert trace.converged
                assert trace.records[-1].grad_norm <= 1e-8
                counts.append(trace.iterations)
            mean_iterations.append(sum(counts) / len(counts))
        assert mean_iterations[0] > mean_iterations[1] > mean_iterations[2]
        assert time.perf_counter() - t0 < 60.0


def test_10_erm_ridge_oracle_and_weak_duality():
    with criterion(10, "dual solver reaches the ridge solution, gap never negative"):
        rng = np.random.default_rng(105)
        d, n = 5, 20
        A = rng.standard_normal((d, n))
        y = rng.standard_normal(n)
        problem = ErmProblem(A, y, SquaredLoss(), lam_reg=1.0)
        config = SolverConfig(
            SamplingScheme("nice", n, 4), b=1.0, tol=1e-13, seed=0, max_iter=50_000
        )
        trace = run_erm(problem, config)
        assert trace.converged
        w_star = np.linalg.solve(A @ A.T / n + np.eye(d), A @ y / n)
        assert np.abs(trace.w - w_star).max() <= 1e-6
        assert all(rec.gap >= -1e-12 for rec in trace.records)


def test_11_tower_property_for_independent_sets():
    with criterion(11, "independent-set cross terms factor through P * A"):
        n, tau = 5, 2
        scheme = SamplingScheme("nice", n, tau)
        P = probability_matrix(scheme)
        subsets = [
            np.asarray(S) for S in itertools.combinations(range(n), tau)
        ]
        rng = np.random.default_rng(106)
        for _ in range(20):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            x = rng.standard_normal(n)
            lifted = [lifted_submatrix(A, S) for S in subsets]
            lhs = np.mean(
                [(A @ (L1 @ x)) @ (L2 @ x) for L1 in lifted for L2 in lifted]
            )
            mean_lift = (P * A) @ x
            rhs = (A @ mean_lift) @ mean_lift
            assert abs(lhs - rhs) <= 1e-12


def test_12_command_line_is_deterministic(tmp_path):
    with criterion(12, "experiment commands byte-identical across runs and threads"):
        data = tmp_path / "train.txt"
        rng = np.random.default_rng(107)
        lines = []
        for _ in range(12):
            label = int(rng.integers(0, 2)) * 2 - 1
            feats = " ".join(
                f"{j + 1}:{rng.standard_normal():.4f}" for j in range(4)
            )
            lines.append(f"{label} {feats}")
        data.write_text("\n".join(lines) + "\n")

        commands = {
            "solve": [
                "solve", "--gen", "dense:10,14",
                "--scheme", "parallel-nice:tau=2,c=3", "--b", "1.5", "--seed", "3",
            ],
            "rates": [
                "rates", "--gen", "rho:6,0.3", "--scheme", "nice:tau=2",
                "--c", "1,2,4", "--seed", "3",
            ],
            "rho": ["rho", "--n", "32", "--tau", "2", "--rho-grid", "0.3,0.7",
                    "--c", "1,4"],
            "tridiag": ["tridiag", "--n-grid", "5,8", "--alpha-grid", "0,0.4"],
            "heat": ["heat", "--n", "60", "--b", "1", "--seed", "3"],
            "erm": [
                "erm", "--data", str(data), "--scheme", "nice:tau=3",
                "--b", "1", "--seed", "3",
            ],
        }
        threaded = {"solve", "heat", "erm"}
        for name, argv in commands.items():
            outputs = []
            variants = [[], []] + ([["--threads", "2"], ["--threads", "4"]]
                                   if name in threaded else [])
            for i, extra in enumerate(variants):
                out = tmp_path / f"{name}-{i}.csv"
                assert main(argv + extra + ["--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert all(blob == outputs[0] for blob in outputs[1:])
            with open(tmp_path / f"{name}-0.csv", newline="") as fh:
                assert len(list(csv.reader(fh))) > 1
