"""Workloads of the psn benchmark.

Each workload makes its inputs from the workload seed (``inputs``),
builds the problem objects the CLI would build from them (``setup``,
timed as ``setup_s``), and then repeats rounds of work (``run_round``).
A round runs the workload's rate work once and, for c in {1, 4}, one
solve or one rate-table row; every output is checked, and a failed
check or an exception counts as a failed attempt.

The configurations mirror what ``psn solve``/``psn heat``/``psn rates``/
``psn erm`` build, including ``incremental_gradient=True`` for primal
solves, which the CLI sets and the library default does not.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from psn import erm, linalg, rates, sampling, solver

REFERENCE_PATH = Path(__file__).with_name("reference_rates_heat.json")

# Worker counts timed as time_to_tol_s.c1 and time_to_tol_s.c4.
C_TIMED = (1, 4)
HEAT_R = 0.1
# Every round solves with a solver seed of its own; a run never needs
# more rounds than this.
MAX_ROUNDS = 1000


@dataclass
class RoundResult:
    """Timings in seconds (end-to-end metrics, and the solver loop
    time ``loop_s.c<c>``), outputs keyed by a label such as 'c4',
    attempt count and failure messages."""

    times: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(self, label: str, fn):
        """Run fn() as one attempt; fn returns (output, seconds,
        problems).  Exceptions and problems count as a failure."""
        self.attempted += 1
        try:
            output, seconds, problems = fn()
        except Exception as err:  # a raising solve is a failed attempt
            traceback.print_exc()
            self.errors.append(f"{label}: {type(err).__name__}: {err}")
            return None, None
        if problems:
            self.errors.append(f"{label}: " + "; ".join(problems))
        self.outputs[label] = output
        return output, seconds


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def solver_seeds(seed: int) -> list[int]:
    """Solver seed of each round, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, 3]).generate_state(MAX_ROUNDS)]


def heat_rhs(n: int) -> np.ndarray:
    """Right-hand side ``psn heat`` uses."""
    return np.cos(0.5 * np.pi * np.linspace(-1.0, 1.0, n))


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def load_reference() -> dict:
    """Rate table of the full-size rates-heat workload, computed at the
    commit that defined the benchmark."""
    return json.loads(REFERENCE_PATH.read_text())


def gap_contraction(gaps: list[float]) -> float:
    """Observed geometric-mean gap contraction per iteration, taken up
    to the last iterate whose gap is still above 1e-10 of the initial
    gap (below that, round-off in the objective dominates)."""
    g0 = gaps[0]
    last = max(
        (k for k, g in enumerate(gaps) if g > 1e-10 * g0), default=0
    )
    if last == 0 or g0 <= 0.0:
        return 0.0
    return (gaps[last] / g0) ** (1.0 / last)


class Workload:
    name: str
    sizes: dict[str, dict]
    solves = True
    layer = "solver"

    def __init__(self, size: str = "full"):
        self.size = self.sizes[size]

    def inputs(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict) -> dict:
        raise NotImplementedError

    def run_round(self, problem: dict, index: int, tracer=None) -> RoundResult:
        raise NotImplementedError

    def predicted_sigma_p(self, outputs: dict) -> dict[int, float]:
        """sigma_p at each timed c for this workload's matrix and scheme,
        where the rate table gives it."""
        return {}


class SolveWorkload(Workload):
    """Rounds of the solve's rate work plus one solve to tolerance at
    each timed c, with the round's own solver seed."""

    def rate_work(self, problem: dict):
        """Returns ((lambda, theta) the solves should use, seconds,
        problems)."""
        raise NotImplementedError

    def solve(self, problem: dict, c: int, seed: int):
        """Returns (trace, final iterate, seconds)."""
        raise NotImplementedError

    def check_trace(self, problem: dict, trace) -> list[str]:
        raise NotImplementedError

    def run_round(self, problem, index, tracer=None):
        result = RoundResult()
        seed = problem["seeds"][index]
        if tracer is not None:
            tracer.run = f"rates/round{index}"
        damping, secs = result.attempt("rates", lambda: self.rate_work(problem))
        if secs is not None:
            result.times["rates_s"] = secs
        for c in C_TIMED:
            if tracer is not None:
                tracer.run = f"c{c}/seed{seed}"

            def attempt(c=c):
                trace, iterate, secs = self.solve(problem, c, seed)
                result.times[f"loop_s.c{c}"] = trace.records[-1].elapsed
                problems = self.check_trace(problem, trace)
                if damping is not None:
                    lam, th = damping
                    b = rates.b_threshold(c, lam, th)
                    if trace.theta_used != th or not rel_close(trace.b, b, 1e-12):
                        problems.append(
                            f"damping b={trace.b!r}, theta={trace.theta_used!r} "
                            f"differs from b={b!r}, theta={th!r}"
                        )
                out = {
                    "x": iterate,
                    "iterations": trace.iterations,
                    "b": trace.b,
                    "gaps": [r.gap for r in trace.records],
                }
                return out, secs, problems

            _, secs = result.attempt(f"c{c}", attempt)
            if secs is not None:
                result.times[f"time_to_tol_s.c{c}"] = secs
        return result


class PrimalWorkload(SolveWorkload):
    """Quadratic solves by ``solver.run``."""

    tol = 1e-8
    theta: object
    threads: int

    def solve(self, problem, c, seed):
        config = solver.SolverConfig(
            scheme=problem["scheme"].with_workers(c),
            b="auto",
            theta=self.theta,
            tol=self.tol,
            max_iter=100_000,
            seed=seed,
            threads=self.threads,
            incremental_gradient=True,
        )
        trace, secs = timed(solver.run, problem["objective"], config)
        return trace, trace.x, secs

    def check_trace(self, problem, trace):
        objective = problem["objective"]
        problems = []
        if not trace.converged:
            problems.append(f"status {trace.status}")
        if not trace.records[-1].grad_norm <= self.tol:
            problems.append(f"final grad_norm {trace.records[-1].grad_norm:.3e} > {self.tol}")
        err = float(np.linalg.norm(trace.x - objective.x_star))
        scale = max(1.0, float(np.linalg.norm(objective.x_star)))
        if not err <= 1e-6 * scale:
            problems.append(f"|x - x*| = {err:.3e} exceeds 1e-6 * {scale:.3g}")
        return problems


class HeatTau5(PrimalWorkload):
    """``psn heat --n 1500 --scheme list:tau=5 --c 1,4 --b auto --theta
    bound``: tiny steps, so the time goes to per-iteration overhead."""

    name = "heat-tau5"
    sizes = {"full": {"n": 1500}, "tiny": {"n": 60}}
    theta = "bound"
    threads = 1
    tau = 5

    def inputs(self, seed, workdir):
        n = self.size["n"]
        return {"n": n, "q": heat_rhs(n), "seeds": solver_seeds(seed)}

    def setup(self, inputs):
        M = linalg.make_heat_matrix(inputs["n"], HEAT_R)
        objective = solver.quadratic_objective(M, inputs["q"])
        return {
            "objective": objective,
            "scheme": sampling.parse_scheme(f"list:tau={self.tau}", objective.n),
            "seeds": inputs["seeds"],
        }

    def rate_work(self, problem):
        # The theta bound each auto-damped solve resolves for itself.
        th, secs = timed(rates.theta_cond_bound, self.tau, problem["objective"].M)
        problems = [] if th > 0.0 else [f"theta bound {th} is not positive"]
        return (1.0, th), secs, problems

    def predicted_sigma_p(self, outputs):
        # rates-heat tabulates the same matrix and scheme.
        reference = load_reference()
        if reference["n"] != self.size["n"]:
            return {}
        return {r["c"]: r["sigma_p"] for r in reference["rows"] if r["c"] in C_TIMED}


class DenseTau400(PrimalWorkload):
    """``psn solve --gen dense:2000,8000 --scheme nice:tau=400 --c 1,4
    --b auto --theta 1 --threads 2``: large blocks, flop-bound steps."""

    name = "dense-tau400"
    sizes = {
        "full": {"n": 2000, "m": 8000, "tau": 400},
        "tiny": {"n": 40, "m": 160, "tau": 8},
    }
    theta = 1.0
    threads = 2

    def inputs(self, seed, workdir):
        # The stream ``psn solve --gen dense:n,m --seed SEED`` draws from.
        rng = np.random.default_rng([seed, 1])
        m, n = self.size["m"], self.size["n"]
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        return {"A": A, "y": y, "seeds": solver_seeds(seed)}

    def setup(self, inputs):
        objective = solver.least_squares_objective(inputs["A"], inputs["y"])
        return {
            "objective": objective,
            "scheme": sampling.parse_scheme(f"nice:tau={self.size['tau']}", objective.n),
            "seeds": inputs["seeds"],
        }

    def rate_work(self, problem):
        # theta = 1 is the universal bound; the list bound (tau/n) cond(M)
        # exceeds it here and enumerating nice subsets is refused.
        bound, secs = timed(
            rates.theta_cond_bound, self.size["tau"], problem["objective"].M
        )
        problems = [] if bound > 1.0 else [f"theta bound {bound} does not exceed 1"]
        return (1.0, self.theta), secs, problems


class RatesHeat(Workload):
    """``psn rates --gen heat:1500,0.1 --scheme list:tau=5 --c 1,2,4,8``:
    the rate table, exact enumeration and the dense PCDM baseline."""

    name = "rates-heat"
    sizes = {"full": {"n": 1500}, "tiny": {"n": 60}}
    solves = False
    tau = 5
    c_grid = (1, 2, 4, 8)

    def __init__(self, size="full"):
        super().__init__(size)
        reference = load_reference()
        # Reference values exist for the full size only.
        self.reference = reference if reference["n"] == self.size["n"] else None

    def inputs(self, seed, workdir):
        # The table is deterministic: the seed changes no input.
        n = self.size["n"]
        return {"n": n, "q": heat_rhs(n)}

    def setup(self, inputs):
        M = linalg.make_heat_matrix(inputs["n"], HEAT_R)
        objective = solver.quadratic_objective(M, inputs["q"])
        pair = rates.CurvaturePair.from_hessian(objective.M)
        return {
            "pair": pair,
            "scheme": sampling.parse_scheme(f"list:tau={self.tau}", pair.n),
        }

    def run_round(self, problem, index, tracer=None):
        result = RoundResult()
        pair, scheme = problem["pair"], problem["scheme"]
        if tracer is not None:
            tracer.run = f"table/round{index}"
        head, total = result.attempt(
            "expected-inverse", lambda: self._table_head(pair, scheme)
        )
        if head is None:
            return result
        E, bound = head
        for c in self.c_grid:
            if tracer is not None:
                tracer.run = f"c{c}/round{index}"
            _, secs = result.attempt(
                f"c{c}", lambda c=c: self._row(pair, scheme, E, bound, c)
            )
            if secs is None:
                return result
            total += secs
            if c in C_TIMED:
                result.times[f"time_to_tol_s.c{c}"] = secs
        result.times["rates_s"] = total
        return result

    def predicted_sigma_p(self, outputs):
        return {c: outputs[f"c{c}"]["sigma_p"] for c in C_TIMED if f"c{c}" in outputs}

    def _table_head(self, pair, scheme):
        (E, bound), secs = timed(
            lambda: (
                sampling.expected_lifted_inverse(pair.M, scheme).matrix,
                rates.theta_cond_bound(scheme.tau, pair.M),
            )
        )
        problems = []
        if self.reference and not rel_close(bound, self.reference["theta_cond_bound"], 1e-9):
            problems.append(
                f"theta_cond_bound {bound!r} differs from reference "
                f"{self.reference['theta_cond_bound']!r}"
            )
        return (E, bound), secs, problems

    def _row(self, pair, scheme, E, bound, c):
        sch = scheme.with_workers(c)
        (report, pcdm), secs = timed(
            lambda: (
                rates.rate_report(pair, sch, expected_inverse=E),
                rates.pcdm_constants(pair, sch.tau * c, assume_dense=True),
            )
        )
        row = {
            "c": c,
            "sigma1": report.sigma1,
            "theta": report.theta,
            "lam": report.lam,
            "b_min": report.b_min,
            "sigma_p": report.sigma_p,
            "sigma3": pcdm.sigma3,
            "sigma_b": pcdm.sigma_b,
        }
        return row, secs, self.check_row(row, bound)

    def check_row(self, row, bound) -> list[str]:
        c = row["c"]
        problems = []
        if not 0.0 < row["sigma1"] <= row["theta"] <= min(1.0, bound):
            problems.append(
                f"0 < sigma1={row['sigma1']!r} <= theta={row['theta']!r} <= "
                f"min(1, {bound!r}) fails"
            )
        if row["lam"] != 1.0:
            problems.append(f"lambda {row['lam']!r} != 1 for a quadratic")
        if not rel_close(row["b_min"], (c - 1) * row["theta"] + 1.0, 1e-12):
            problems.append(f"b_min {row['b_min']!r} != (c-1) theta + 1")
        if not rel_close(row["sigma_p"], c * row["sigma1"] / row["b_min"], 1e-12):
            problems.append(f"sigma_p {row['sigma_p']!r} != c sigma1 / b_min")
        if self.reference:
            ref = next(r for r in self.reference["rows"] if r["c"] == c)
            for key, value in ref.items():
                if not rel_close(row[key], value, 1e-9):
                    problems.append(f"{key} {row[key]!r} differs from reference {value!r}")
        return problems


class ErmLogistic(SolveWorkload):
    """``psn erm --loss logistic --epsilon 0.1 --reg 0.01 --scheme
    list:tau=20 --c 1,4 --b auto --theta exact --tol 1e-5`` on a
    synthetic LIBSVM file.  tau=20 rather than 10 halves the iterations,
    so that a run holds enough solves for a steady median."""

    name = "erm-logistic"
    layer = "erm"
    sizes = {
        "full": {"d": 50, "n": 1000, "tau": 20},
        "tiny": {"d": 8, "n": 60, "tau": 4},
    }
    density = 0.3
    epsilon = 0.1
    reg = 0.01
    tol = 1e-5

    def inputs(self, seed, workdir):
        """A LIBSVM file with d features and n examples, about 30 %
        nonzero, labelled +-1 by a planted linear model."""
        rng = np.random.default_rng([seed, 2])
        d, n = self.size["d"], self.size["n"]
        A = rng.standard_normal((d, n)) * (rng.random((d, n)) < self.density)
        w = rng.standard_normal(d)
        y = np.where(A.T @ w >= 0.0, 1, -1)
        path = Path(workdir) / f"erm-{seed}.libsvm"
        with open(path, "w") as fh:
            for j in range(n):
                feats = " ".join(f"{i + 1}:{float(A[i, j])!r}" for i in np.flatnonzero(A[:, j]))
                fh.write(f"{y[j]:+d} {feats}\n")
        return {"path": path, "seeds": solver_seeds(seed)}

    def setup(self, inputs):
        A, y = erm.load_libsvm(inputs["path"])
        problem = erm.ErmProblem(A, y, erm.LogisticLoss(self.epsilon), self.reg)
        problem.curvature()  # validates the curvature pair
        return {
            "problem": problem,
            "scheme": sampling.parse_scheme(f"list:tau={self.size['tau']}", problem.n),
            "seeds": inputs["seeds"],
        }

    def rate_work(self, problem):
        """The damping resolution run_erm repeats for every c: exact
        theta from E[(X_S)^-1] and lambda (not 1: the loss is not
        quadratic)."""
        ermp, scheme = problem["problem"], problem["scheme"]
        start = time.perf_counter()
        X = ermp.smoothness_matrix()
        th = rates.theta(ermp.curvature(), sampling.expected_lifted_inverse(X, scheme).matrix)
        lam = rates.lambda_ratio(ermp.curvature())
        secs = time.perf_counter() - start
        problems = []
        if not 0.0 < th <= 1.0 + 1e-12:
            problems.append(f"theta {th!r} outside (0, 1]")
        if not lam >= 1.0:
            problems.append(f"lambda {lam!r} below 1")
        return (lam, th), secs, problems

    def solve(self, problem, c, seed):
        config = solver.SolverConfig(
            scheme=problem["scheme"].with_workers(c),
            b="auto",
            theta="exact",
            tol=self.tol,
            max_iter=100_000,
            seed=seed,
            threads=1,
        )
        trace, secs = timed(erm.run_erm, problem["problem"], config)
        return trace, trace.alpha, secs

    def check_trace(self, problem, trace):
        problems = []
        if not trace.converged:
            problems.append(f"status {trace.status}")
        if not trace.records[-1].gap <= self.tol:
            problems.append(f"final gap {trace.records[-1].gap:.3e} > {self.tol}")
        for rec in trace.records:
            if rec.gap < -1e-12 * max(1.0, abs(rec.primal)):
                problems.append(f"weak duality fails at iteration {rec.iteration}")
                break
        drift = max(r.consistency for r in trace.records)
        if not drift <= 1e-10:
            problems.append(f"abar drift {drift:.3e} > 1e-10")
        return problems


WORKLOADS = {w.name: w for w in (HeatTau5, RatesHeat, DenseTau400, ErmLogistic)}
