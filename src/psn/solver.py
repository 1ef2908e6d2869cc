"""Stochastic Newton iterations driven by block samplings.

The model problem is min f(x) for smooth strongly convex f whose
Hessians are bounded by a fixed symmetric positive definite matrix M
(above) and G (below).  One serial step picks an index set S and solves
the Newton system of the sampled block:

    x' = x + h,    M[S, S] h[S] = -grad f(x)[S],    h zero outside S.

The parallel variant aggregates c such blocks with damping b:

    x' = x + (1/b) * sum_i h_i,    M[S_i, S_i] h_i[S_i] = -grad[S_i].

block_step computes sum_i h_i for one draw.  run (here) and
erm.run_erm (on the dual of an ERM problem) share the loop around it;
each supplies only what it monitors and how it applies the step.

The c workers are simulated in the calling thread: every block is
factored and solved there, in row order, and all randomness flows from
a single master seed, so a seeded run gives the same trace every time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .linalg import check_symmetric, solve_pd
from .rates import CurvaturePair, b_threshold, lambda_ratio
from .sampling import SamplingScheme, draw

__all__ = [
    "DivergenceError",
    "SmoothObjective",
    "quadratic_objective",
    "least_squares_objective",
    "block_step",
    "SolverConfig",
    "check_config",
    "resolve_damping",
    "TraceRecord",
    "Trace",
    "IterationTrace",
    "run",
]

# Consecutive objective increases tolerated before giving up.
_DIVERGENCE_PATIENCE = 100
# Iterations between full gradient recomputes under incremental_gradient.
_REFRESH_EVERY = 250


class DivergenceError(RuntimeError):
    """Raised when the objective keeps increasing, which normally means
    the damping b was set below the admissible threshold."""


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth strongly convex objective with curvature bounds.

    value/gradient are plain callables on length-n vectors.  M bounds
    the Hessians from above and G from below in the semidefinite order;
    block steps always solve against M.  x_star/f_star are optional and
    only used to report optimality gaps in traces.  The objective is
    quadratic, with G = M, exactly when G is M itself.

    The objective is a snapshot of M and G: x_star and f_star are fixed
    when it is built, and curvature() builds and validates the pair
    (M, G) once and keeps it, with every spectral constant cached on
    it, for the life of the objective; runs at several worker counts
    share it.  Changing M in place afterwards invalidates all of these;
    build a new objective instead.
    """

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    M: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    x_star: np.ndarray | None = field(default=None, repr=False)
    f_star: float | None = None

    @property
    def quadratic(self) -> bool:
        return self.G is self.M

    @cached_property
    def _pair(self) -> CurvaturePair:
        return CurvaturePair(self.M, self.G)

    def curvature(self) -> CurvaturePair:
        """The validated pair (M, G), the same object on every call."""
        return self._pair


def quadratic_objective(M: np.ndarray, q: np.ndarray) -> SmoothObjective:
    """Objective f(x) = x'Mx/2 - q'x for positive definite M.

    The minimiser M^{-1} q and optimal value are computed on
    construction by solve_pd, whose residual bound puts the gradient at
    x_star below 1e-10 ||q||; a narrow band (the heat and tridiagonal
    matrices past _band_is_cheaper) is factored in band storage, so the
    set-up makes no n x n float temporary.  Non-finite entries in M or q, or an
    optimal value that overflows, raise ValueError, and a minimiser
    solve_pd cannot resolve raises numpy.linalg.LinAlgError.
    """
    M = check_symmetric(M)
    q = np.asarray(q, dtype=np.float64)
    n = M.shape[0]
    if q.shape != (n,):
        raise ValueError(f"q must have shape ({n},), got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("q has non-finite entries")
    x_star = solve_pd(M, q)

    def value(x: np.ndarray) -> float:
        return float(0.5 * x @ (M @ x) - q @ x)

    def gradient(x: np.ndarray) -> np.ndarray:
        return M @ x - q

    with np.errstate(over="ignore", invalid="ignore"):
        f_star = value(x_star)
    if not np.isfinite(f_star):
        raise ValueError("the optimal value of x'Mx/2 - q'x overflows")
    return SmoothObjective(
        n=n,
        value=value,
        gradient=gradient,
        M=M,
        G=M,
        x_star=x_star,
        f_star=f_star,
    )


def least_squares_objective(A: np.ndarray, y: np.ndarray) -> SmoothObjective:
    """Objective f(x) = ||A x - y||^2 / 2, a quadratic with Hessian A'A.

    Requires A to have full column rank so that A'A is positive
    definite.  Non-finite entries in A or y raise ValueError (through
    the checks on A'A and A'y).
    """
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    if y.shape != (A.shape[0],):
        raise ValueError(f"y must have shape ({A.shape[0]},), got {y.shape}")
    return quadratic_objective(A.T @ A, A.T @ y)


def block_step(
    M: np.ndarray,
    sets: np.ndarray,
    block_gradient: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Sum of the block Newton directions of the rows of ``sets``, a
    (k, tau) integer array such as a draw returns.

    The direction of a row S is zero outside S and on S solves
    M[S, S] h = -block_gradient(S).  All k blocks are gathered with one
    fancy index; each is factored and solved on its lower triangle by
    LAPACK's dpotrf/dpotrs, the routines behind scipy.linalg.cho_factor
    and cho_solve, so the directions equal theirs bit for bit.  Blocks
    are factored, solved and summed in row order.  A block that is not
    positive definite raises LinAlgError naming its index set.
    """
    blocks = M[sets[:, :, None], sets[:, None, :]]
    total = np.zeros(M.shape[0])
    for S, block in zip(sets, blocks):
        factor, info = dpotrf(block, lower=1, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"block {S.tolist()} is not positive definite: its "
                f"{info}-th leading minor is not positive"
            )
        total[S] -= dpotrs(factor, block_gradient(S), lower=1)[0]
    return total


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    b is either an explicit positive damping or "auto", which sets
    b = (c-1)*lambda*theta + 1.  Auto mode needs a theta source: a
    number, "exact" (enumerate the expected lifted inverse), or "bound"
    (CurvaturePair.cond_bound(tau) = min(1, (tau/n) lambda_max(G)/
    lambda_min(M)), valid for every scheme and every curvature pair).
    There is no silent default.

    incremental_gradient switches quadratic objectives to gradient
    updates g += step[changed] @ M[changed], which read the rows of the
    symmetric M for the changed coordinates only.  The gradient is
    recomputed in full every 250 iterations, and whenever a step moves
    more than half of the coordinates, where the full product is
    cheaper.  It changes round-off, not semantics, and is off by default
    so that step-for-step comparisons stay exact.

    threads is checked to be at least 1 and selects nothing: every
    block is solved in the calling thread.
    """

    scheme: SamplingScheme
    b: float | str = "auto"
    theta: float | str | None = None
    tol: float = 1e-8
    max_iter: int = 100_000
    seed: int = 0
    threads: int = 1
    incremental_gradient: bool = False


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    value: float
    gap: float | None
    grad_norm: float
    elapsed: float


@dataclass
class Trace:
    """What one run returns: its records, the status it ended with
    ('converged', 'max-iterations' or 'non-finite'), the damping b and
    the theta b came from (None for an explicit b).  Subclasses add the
    final point and name their CSV columns in COLUMNS, which maps each
    column to the record attribute it shows."""

    records: list
    status: str
    b: float
    theta_used: float | None

    COLUMNS: ClassVar[dict[str, str]] = {}

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    def csv_rows(self):
        """One row per record: the iteration, then each column as the
        repr of a float (blank for None).  Timing is never a column, so
        the rows of a seeded run are the same bytes on every run."""
        for rec in self.records:
            values = (getattr(rec, attr) for attr in self.COLUMNS.values())
            yield [rec.iteration] + ["" if v is None else repr(float(v)) for v in values]


@dataclass
class IterationTrace(Trace):
    """Trace of one primal run ending at x.  Its f_gap column is blank
    when the optimum is unknown."""

    x: np.ndarray
    COLUMNS: ClassVar[dict[str, str]] = {"f_gap": "gap", "grad_norm": "grad_norm"}


def check_config(config: SolverConfig, n: int) -> None:
    """Reject, before any work, settings no run on an n-dimensional
    problem can use: a scheme of another dimension, a negative
    iteration budget, a tolerance that is negative or not finite, an
    explicit damping b that is not a finite number of at least 1, a
    numeric theta that is not finite and positive, and fewer than one
    thread."""
    if config.scheme.n != n:
        raise ValueError(
            f"scheme dimension {config.scheme.n} does not match problem dimension n={n}"
        )
    if config.max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {config.max_iter}")
    if not (math.isfinite(config.tol) and config.tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {config.tol}")
    if config.b != "auto":
        b = float(config.b)
        if not (math.isfinite(b) and b >= 1.0):
            raise ValueError(f"explicit damping b must be at least 1 and finite, got {b}")
    spec = config.theta
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        if not (math.isfinite(spec) and spec > 0.0):
            raise ValueError(f"theta must be finite and positive, got {spec}")
    if config.threads < 1:
        raise ValueError(f"threads must be at least 1, got {config.threads}")


def resolve_damping(config: SolverConfig, problem) -> tuple[float, float | None]:
    """Damping b and the theta it came from (None for an explicit b).

    For b='auto', b = (c-1)*lambda*theta + 1 with theta a number (used
    as given), 'exact' (the pair's enumerated E) or 'bound' (the pair's
    cond_bound, valid for every scheme).  problem is a SmoothObjective
    or an erm.ErmProblem; lambda is 1 when problem.quadratic.  Its pair,
    built only when needed, keeps every spectral constant, so a run at
    another worker count c recomputes only b.
    """
    if config.b != "auto":
        return float(config.b), None
    scheme = config.scheme
    spec = config.theta
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        th = float(spec)
    elif spec == "exact":
        th = problem.curvature().enumerated_extremes(scheme)[1]
    elif spec == "bound":
        th = problem.curvature().cond_bound(scheme.tau)
    else:
        raise ValueError(
            "b='auto' needs an explicit theta source: a number, 'exact', or "
            "'bound' (no silent default)"
        )
    lam = 1.0 if problem.quadratic else lambda_ratio(problem.curvature())
    return b_threshold(scheme.c, lam, th), th


def _iterate(
    config: SolverConfig,
    M: np.ndarray,
    monitor: Callable[[], tuple],
    block_gradient: Callable[[np.ndarray], np.ndarray],
    update: Callable[[int, np.ndarray, np.ndarray], None],
    record: type,
) -> tuple[list, str]:
    """The iteration loop of run and erm.run_erm; returns the records
    and the status.

    Each iteration k first calls monitor(), which returns the fields of
    its record, the residual the run stops on and the objective value
    it minimises; the record is record(k, *fields, elapsed seconds).  A
    non-finite residual or objective ends the run as 'non-finite', a
    residual at most config.tol as 'converged'.  An objective that rises
    for 100 consecutive iterations raises DivergenceError.  Otherwise
    the sets of one draw of config.scheme, from a generator seeded with
    config.seed, are passed with the undamped sum of their block
    directions against M (see block_step) to update(k, sets, total).
    """
    rng = np.random.default_rng(config.seed)
    records: list = []
    prev_value = np.inf
    rises = 0
    t0 = time.perf_counter()
    for k in range(config.max_iter + 1):
        fields, residual, value = monitor()
        records.append(record(k, *fields, time.perf_counter() - t0))
        if not (math.isfinite(residual) and math.isfinite(value)):
            return records, "non-finite"
        if residual <= config.tol:
            return records, "converged"
        rises = rises + 1 if value > prev_value else 0
        if rises >= _DIVERGENCE_PATIENCE:
            raise DivergenceError(
                f"objective increased for {rises} consecutive iterations; "
                "the damping b is likely below the admissible threshold "
                "(c-1)*lambda*theta + 1"
            )
        prev_value = value
        if k == config.max_iter:
            break
        sets = draw(config.scheme, rng)
        update(k, sets, block_step(M, sets, block_gradient))
    return records, "max-iterations"


def run(objective: SmoothObjective, config: SolverConfig) -> IterationTrace:
    """Run the damped parallel iteration from x = 0 until
    ||grad|| <= tol.

    The trace records every iterate including the initial point.  A
    non-finite objective or gradient norm ends the run with status
    'non-finite'.  A DivergenceError is raised if the objective value
    increases for 100 consecutive iterations, which indicates b below
    the admissible threshold.
    """
    check_config(config, objective.n)
    b, theta_used = resolve_damping(config, objective)
    x = np.zeros(objective.n)
    g = objective.gradient(x)
    incremental = config.incremental_gradient and objective.quadratic
    # With a maintained gradient and a known optimum the quadratic value
    # is f* + (x - x*)'g/2, which avoids a dense matvec per iteration.
    fast_value = (
        incremental
        and objective.x_star is not None
        and objective.f_star is not None
    )

    def monitor():
        if fast_value:
            f = objective.f_star + 0.5 * float((x - objective.x_star) @ g)
        else:
            f = objective.value(x)
        gap = None if objective.f_star is None else f - objective.f_star
        gnorm = float(np.linalg.norm(g))
        return (f, gap, gnorm), gnorm, f

    def update(k, sets, total):
        nonlocal x, g
        step = total / b
        x = x + step
        changed = np.unique(sets) if incremental and (k + 1) % _REFRESH_EVERY else None
        # Past n/2 changed coordinates the row gather costs more than
        # the full product it replaces.
        if changed is not None and 2 * changed.size <= objective.n:
            # M is symmetric, so its rows give M[:, changed] @
            # step[changed] from contiguous memory.
            g = g + step[changed] @ objective.M[changed]
        else:
            g = objective.gradient(x)

    records, status = _iterate(
        config, objective.M, monitor, lambda S: g[S], update, TraceRecord
    )
    return IterationTrace(records, status, b, theta_used, x)
