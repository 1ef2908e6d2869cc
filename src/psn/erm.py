"""Dual block-Newton solver for regularised empirical risk minimisation.

The primal problem over weights w in R^d, with feature columns a_i and
convex per-example losses phi_i that are gamma_i-strongly convex,

    P(w) = (1/n) sum_i phi_i(a_i' w, y_i) + (lam/2) ||w||^2,

has the dual over alpha in R^n

    D(alpha) = -(1/n) sum_i phi_i*(-alpha_i, y_i) - (lam/2) ||abar||^2,
    abar = (1/(lam n)) A alpha,      w = abar,

and -D is smooth with Hessian bound

    X = (1/(lam n^2)) A'A + diag(1/gamma_i)/n.

Each iteration samples index sets, solves the Newton block system

    X[S, S] h[S] = -((1/n) A'w + grad psi(alpha))[S],
    psi_i(alpha_i) = (1/n) phi_i*(-alpha_i, y_i),

and aggregates the blocks with damping b in the loop of the primal
solver.  The running average abar is updated incrementally and must
stay equal to (1/(lam n)) A alpha up to round-off; traces record the
drift so the invariant is observable.

The conjugate terms phi_i*(-alpha_i) and their derivatives are state
too: they are computed for all n coordinates once, and after each step
recomputed only on the coordinates it moved (at most c*tau of them),
with one root solve for both.  Each conjugate entry depends on its own
coordinate alone, so the maintained arrays equal a full recompute bit
for bit; the dual value is summed from them and the block gradient
reads them.  ErmProblem.dual_value and psi_gradient evaluate the same
quantities from scratch and serve as the reference path.

A loss is any object with value(z, y), the constants gamma (strong
convexity) and smoothness, and conjugate_with_derivative(s, y), which
returns phi*(s, y) and phi*'(s, y) together; nothing else is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np
import scipy.special

from .linalg import check_index_set, eigen_extremes
from .rates import CurvaturePair
from .solver import (
    SolverConfig,
    Trace,
    _initial_point,
    _iterate,
    block_step,
    check_config,
    resolve_damping,
)

__all__ = [
    "SquaredLoss",
    "LogisticLoss",
    "ErmProblem",
    "DualState",
    "ErmRecord",
    "ErmTrace",
    "run_erm",
    "load_libsvm",
]


class SquaredLoss:
    """phi(z, y) = (z - y)^2 / 2, with closed-form conjugate."""

    gamma = 1.0       # strong convexity in z
    smoothness = 1.0  # Lipschitz constant of the derivative

    @staticmethod
    def value(z, y):
        return 0.5 * (z - y) ** 2

    @staticmethod
    def conjugate_with_derivative(s, y):
        """(phi*(s, y), phi*'(s, y))."""
        return 0.5 * s**2 + s * y, s + y


@dataclass(frozen=True)
class LogisticLoss:
    """Logistic loss with quadratic smoothing for labels y in {-1, +1}:

        phi(z, y) = log(1 + exp(-y z)) + (epsilon/2) z^2.

    The epsilon term makes phi strongly convex so the dual blocks stay
    positive definite; the conjugate has no closed form and is
    evaluated by a safeguarded elementwise Newton iteration on
    phi'(z) = s (phi' is strictly increasing, so the root is unique and
    bracketed by |z| <= (|s| + 1)/epsilon + 1).  An entry is frozen as
    soon as its residual is within tolerance, so each entry's root
    depends on its own s and y only: solving a subset gives bit for bit
    the values of solving the whole vector.
    """

    epsilon: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def gamma(self) -> float:
        return self.epsilon

    @property
    def smoothness(self) -> float:
        return 0.25 + self.epsilon

    def value(self, z, y):
        # log(1 + exp(-yz)) computed without overflow
        return np.logaddexp(0.0, -np.asarray(y) * z) + 0.5 * self.epsilon * np.asarray(z) ** 2

    def _root(self, s, y):
        # Solve phi'(z) = s elementwise: Newton with bisection fallback.
        # Each pass evaluates sig = expit(-y z) once, for
        # phi'(z) = -y sig + epsilon z and phi''(z) = sig (1 - sig) + epsilon.
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        bound = (np.abs(s) + 1.0) / self.epsilon + 1.0
        lo, hi = -bound, bound.copy()
        z = np.clip(s / (0.25 + self.epsilon), lo, hi)
        tol = 1e-13 * np.maximum(1.0, np.abs(s))
        for _ in range(200):
            sig = scipy.special.expit(-y * z)
            r = (-y * sig + self.epsilon * z) - s
            done = np.abs(r) <= tol
            if np.all(done):
                break
            lo = np.where(r <= 0.0, z, lo)
            hi = np.where(r > 0.0, z, hi)
            z_new = z - r / (sig * (1.0 - sig) + self.epsilon)
            mid = 0.5 * (lo + hi)
            bad = ~np.isfinite(z_new) | (z_new <= lo) | (z_new >= hi)
            # A converged entry stays put.  One edge of its bracket sits on
            # it, so a Newton step too small to move it would count as bad
            # and send it to the bracket's midpoint.
            z = np.where(done, z, np.where(bad, mid, z_new))
        return z

    def conjugate_with_derivative(self, s, y):
        """(phi*(s, y), phi*'(s, y)) from one root solve: the derivative
        is the root z of phi'(z) = s and phi*(s) = s z - phi(z)."""
        z = self._root(s, y)
        return np.asarray(s) * z - self.value(z, y), z


@dataclass(frozen=True)
class ErmProblem:
    """Dataset and regulariser: feature matrix A (d x n, one column per
    example) and targets y (length n), both finite, a loss object, and
    a finite lam_reg > 0.

    A and y are stored as read-only copies, so later changes to the
    caller's arrays cannot reach the problem.  That keeps valid what the
    problem builds on first use and keeps for its life: the Hessian
    bound X (smoothness_matrix()), from the problem's one n x n Gram
    product, and the curvature pair of the dual (curvature()), which
    holds X as M, and G, and every spectral constant derived from them,
    so runs at several worker counts resolve lambda and theta once.
    The pair's extremes and lambda come from the smaller Gram matrix
    (d x d when d < n); only an exact theta works at order n.
    """

    A: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    loss: object = field(default_factory=SquaredLoss)
    lam_reg: float = 1.0

    def __post_init__(self):
        A = np.array(self.A, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError(f"A must be d x n, got shape {A.shape}")
        if y.shape != (A.shape[1],):
            raise ValueError(
                f"y must have one entry per column of A ({A.shape[1]}), got {y.shape}"
            )
        if not (np.isfinite(A).all() and np.isfinite(y).all()):
            raise ValueError("A and y must be finite")
        if not 0.0 < self.lam_reg < math.inf:
            raise ValueError(f"lam_reg must be positive and finite, got {self.lam_reg}")
        if isinstance(self.loss, LogisticLoss) and not np.all(np.abs(y) == 1.0):
            raise ValueError("logistic loss expects labels in {-1, +1}")
        A.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def quadratic(self) -> bool:
        """Whether the dual is quadratic: L == gamma (the squared loss)."""
        return math.isclose(self.loss.gamma, self.loss.smoothness)

    def smoothness_matrix(self) -> np.ndarray:
        """Dual Hessian bound X = (1/(lam n^2)) A'A + I/(gamma n), built
        on the first call, read-only and the same array after that."""
        return self._bound[0]

    @cached_property
    def _bound(self) -> tuple[np.ndarray, np.ndarray]:
        """X and the diagonal of B = (1/(lam n^2)) A'A, from the one
        n x n Gram product the problem forms."""
        n = self.n
        X = (self.A.T @ self.A) / (self.lam_reg * n * n)
        X = 0.5 * (X + X.T)
        b_diagonal = np.diag(X).copy()
        X[np.diag_indices_from(X)] += 1.0 / (self.loss.gamma * n)
        X.flags.writeable = False
        return X, b_diagonal

    def _with_diagonal(self, diagonal: np.ndarray) -> np.ndarray:
        """A writeable copy of X with its diagonal replaced."""
        out = self.smoothness_matrix().copy()
        np.fill_diagonal(out, diagonal)
        return out

    def _gram_extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) of B = (1/(lam n^2)) A'A from the
        smaller Gram matrix.  For d < n that is A A' (d x d): it shares
        B's nonzero eigenvalues, and B, of rank at most d, has
        lambda_min = 0 exactly.  Otherwise it is B itself, whose
        lambda_min is clamped at 0 against round-off."""
        d, n = self.A.shape
        if d < n:
            top = eigen_extremes(self.A @ self.A.T)[1] if d else 0.0
            return 0.0, top / (self.lam_reg * n * n)
        lo, hi = eigen_extremes(self._with_diagonal(self._bound[1]))
        return max(lo, 0.0), hi

    def curvature(self) -> CurvaturePair:
        """Curvature pair of the (negated) dual objective, built on the
        first call and the same object after that.

        The quadratic part B = (1/(lam n^2)) A'A is in both bounds; the
        separable part is between I/(L n) and I/(gamma n), where L is
        the loss smoothness.  So M = X and G = B + I/(L n) differ by a
        multiple of the identity: G <= M is the scalar gamma <= L, G is
        X with its diagonal lowered, its extremes are those of B plus
        1/(L n), those of M are those of B plus 1/(gamma n), and lambda
        = lambda_max(G^{-1/2} M G^{-1/2}) is (mu + 1/(gamma n)) /
        (mu + 1/(L n)) with mu = lambda_min(B).
        For the squared loss L == gamma and the dual is exactly
        quadratic.
        """
        return self._pair

    @cached_property
    def _pair(self) -> CurvaturePair:
        gamma, smooth = self.loss.gamma, self.loss.smoothness
        if not gamma <= smooth:
            raise ValueError(
                f"loss strong convexity {gamma} exceeds its smoothness {smooth}: G <= M fails"
            )
        n = self.n
        X = self.smoothness_matrix()
        lo, hi = self._gram_extremes()
        floor, top = 1.0 / (smooth * n), 1.0 / (gamma * n)
        if self.quadratic:
            G, lam = X, 1.0
        else:
            G = self._with_diagonal(self._bound[1] + floor)
            lam = (lo + top) / (lo + floor)
        return CurvaturePair.from_spectrum(
            X, G, (lo + floor, hi + floor), (lo + top, hi + top), lam
        )

    def average_of(self, alpha: np.ndarray) -> np.ndarray:
        """abar = (1/(lam n)) A alpha."""
        return (self.A @ alpha) / (self.lam_reg * self.n)

    def primal_value(self, w: np.ndarray) -> float:
        z = self.A.T @ w
        return float(
            np.sum(self.loss.value(z, self.y)) / self.n
            + 0.5 * self.lam_reg * (w @ w)
        )

    def dual_value(self, alpha: np.ndarray) -> float:
        return self._dual_from(
            self.loss.conjugate_with_derivative(-alpha, self.y)[0], self.average_of(alpha)
        )

    def _dual_from(self, conjugates: np.ndarray, abar: np.ndarray) -> float:
        """D from the terms phi_i*(-alpha_i, y_i) and abar of alpha."""
        return float(-np.sum(conjugates) / self.n - 0.5 * self.lam_reg * (abar @ abar))

    def psi_gradient(self, alpha: np.ndarray) -> np.ndarray:
        """Gradient of psi_i(alpha_i) = (1/n) phi_i*(-alpha_i)."""
        return -np.asarray(
            self.loss.conjugate_with_derivative(-alpha, self.y)[1], dtype=np.float64
        ) / self.n


@dataclass
class DualState:
    """Dual iterate alpha, its running average abar, and the conjugate
    terms at -alpha: conjugate[i] = phi_i*(-alpha_i, y_i) and
    zeta[i] = phi_i*'(-alpha_i, y_i).

    abar is updated incrementally by the solver and must equal
    (1/(lam n)) A alpha up to round-off at all times.  conjugate and
    zeta are refreshed by ``step`` on the coordinates it moves and equal
    a full recompute bit for bit; assigning alpha directly leaves them
    stale.
    """

    alpha: np.ndarray
    alpha_bar: np.ndarray
    conjugate: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)

    @classmethod
    def initial(cls, problem: ErmProblem, alpha: np.ndarray) -> "DualState":
        """State at alpha, a float array of shape (n,) that the state
        takes over."""
        conjugate, zeta = problem.loss.conjugate_with_derivative(-alpha, problem.y)
        return cls(alpha, problem.average_of(alpha), conjugate, zeta)

    def step(self, problem: ErmProblem, total: np.ndarray, b: float, changed: np.ndarray) -> None:
        """alpha += total/b, where total is zero outside the index array
        changed, with abar and the conjugate terms kept in step."""
        self.alpha = self.alpha + total / b
        self.alpha_bar = self.alpha_bar + (problem.A @ total) * (
            1.0 / (problem.lam_reg * problem.n * b)
        )
        self.conjugate[changed], self.zeta[changed] = problem.loss.conjugate_with_derivative(
            -self.alpha[changed], problem.y[changed]
        )

    def consistency_error(self, problem: ErmProblem, average: np.ndarray | None = None) -> float:
        """Max-norm drift between abar and (1/(lam n)) A alpha; average
        is that product when the caller has already formed it."""
        if average is None:
            average = problem.average_of(self.alpha)
        return float(np.abs(self.alpha_bar - average).max(initial=0.0))


def _dual_gradient(problem: ErmProblem, state: DualState):
    """Block gradient of -D at the current state: S -> ((1/n) A'w +
    grad psi(alpha))[S], where w is the primal point of the state and
    grad psi(alpha) = -zeta/n is read from its conjugate terms."""
    n = problem.n
    return lambda S: (problem.A[:, S].T @ state.alpha_bar) / n - state.zeta[S] / n


def block_subproblem(
    problem: ErmProblem,
    state: DualState,
    S,
    X: np.ndarray,
) -> np.ndarray:
    """Newton direction of one dual block: zero outside S, and on S the
    solution of X[S, S] h = -((1/n) A'w + grad psi(alpha))[S], where
    w is the primal point of the current state.  Not exported: kept for
    the benchmark's span tracer and the tests."""
    idx = check_index_set(S, problem.n)
    return block_step(X, idx[None], _dual_gradient(problem, state))


@dataclass(frozen=True)
class ErmRecord:
    iteration: int
    primal: float
    dual: float
    gap: float
    consistency: float
    elapsed: float


@dataclass
class ErmTrace(Trace):
    """Duality-gap trace of one dual run ending at alpha, with primal
    weights w."""

    alpha: np.ndarray
    w: np.ndarray
    COLUMNS: ClassVar[dict[str, str]] = {"primal": "primal", "dual": "dual", "gap": "gap"}


def run_erm(problem: ErmProblem, config: SolverConfig) -> ErmTrace:
    """Run the dual block-Newton iteration from alpha = config.x0
    (zero by default) until the duality gap P(w) - D(alpha) falls to
    config.tol.

    config.scheme samples over the n dual coordinates.  Every record
    carries primal, dual, gap and the abar consistency drift; the
    returned weights are the primal point of the final state.  A
    non-finite gap ends the run with status 'non-finite'.  A
    DivergenceError is raised if -D increases for 100 consecutive
    iterations, which indicates b below the admissible threshold.
    """
    check_config(config, problem.n)
    X = problem.smoothness_matrix()
    b, theta_used = resolve_damping(config, problem)
    state = DualState.initial(problem, _initial_point(config, problem.n))

    def monitor():
        average = problem.average_of(state.alpha)
        primal = problem.primal_value(state.alpha_bar)
        dual = problem._dual_from(state.conjugate, average)
        drift = state.consistency_error(problem, average)
        return (primal, dual, primal - dual, drift), primal - dual, -dual

    records, status = _iterate(
        config, X, monitor, _dual_gradient(problem, state),
        lambda k, sets, total: state.step(problem, total, b, np.unique(sets)), ErmRecord,
    )
    return ErmTrace(records, status, b, theta_used, state.alpha, state.alpha_bar)


def load_libsvm(path, n_features: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read a LIBSVM sparse text file.

    Each line is ``label index:value ...`` with 1-based feature indices.
    Returns (A, y) where A is d x n with one column per example.  The
    feature count is inferred from the largest index unless n_features
    is given.  Malformed lines, and a feature index repeated on one
    line, raise ValueError naming the line number.
    """
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad label {parts[0]!r}"
                ) from None
            entries: dict[int, float] = {}
            for token in parts[1:]:
                idx_text, colon, val_text = token.partition(":")
                if not colon:
                    raise ValueError(
                        f"{path}:{lineno}: expected index:value, got {token!r}"
                    )
                try:
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad feature token {token!r}"
                    ) from None
                if idx < 1:
                    raise ValueError(
                        f"{path}:{lineno}: feature indices are 1-based, got {idx}"
                    )
                if idx - 1 in entries:
                    raise ValueError(
                        f"{path}:{lineno}: feature index {idx} repeated"
                    )
                entries[idx - 1] = val
                max_index = max(max_index, idx)
            labels.append(label)
            rows.append(entries)
    if not labels:
        raise ValueError(f"{path}: no data lines")
    d = n_features if n_features is not None else max_index
    if max_index > d:
        raise ValueError(
            f"{path}: feature index {max_index} exceeds n_features={d}"
        )
    A = np.zeros((d, len(labels)))
    for col, entries in enumerate(rows):
        for idx, val in entries.items():
            A[idx, col] = val
    return A, np.asarray(labels)
