"""In-memory span tracing for the psn benchmark.

A traced run wraps psn's public functions at each layer boundary
(sampling, rates, solver, erm, linalg) from outside the package: the
wrappers replace module attributes and class methods while the
``instrument`` context is open and restore them on exit, so no code
under ``src/`` changes.  Each call becomes a span (name, start, end,
parent, workload, run) kept in memory; ``write_spans`` saves them when
the run ends and ``layer_totals`` turns them into per-layer call counts
and self times.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

import scipy.linalg

import psn
from psn import cli, erm, linalg, matrixio, rates, sampling, solver

PSN_MODULES = (psn, sampling, rates, solver, erm, linalg, matrixio, cli)

# Functions wrapped wherever psn binds them (the defining module, the
# package namespace and every module that imported the name).
FUNCTION_SPANS = {
    "sampling.draw": (sampling, "draw"),
    "sampling.expected_inverse": (sampling, "expected_lifted_inverse"),
    "linalg.lifted_inverse": (linalg, "lifted_inverse"),
    "linalg.sqrt_pd": (linalg, "sqrt_pd"),
    "linalg.invsqrt_pd": (linalg, "invsqrt_pd"),
    "linalg.eigen_extremes": (linalg, "eigen_extremes"),
    "linalg.psd_order_holds": (linalg, "psd_order_holds"),
    "linalg.solve_pd": (linalg, "solve_pd"),
    "linalg.make_heat_matrix": (linalg, "make_heat_matrix"),
    "rates.theta": (rates, "theta"),
    "rates.lambda_ratio": (rates, "lambda_ratio"),
    "rates.rate_report": (rates, "rate_report"),
    "rates.pcdm_constants": (rates, "pcdm_constants"),
    "rates.theta_cond_bound": (rates, "theta_cond_bound"),
    "solver.quadratic_objective": (solver, "quadratic_objective"),
    "solver.least_squares_objective": (solver, "least_squares_objective"),
    "solver.run": (solver, "run"),
    "erm.run": (erm, "run_erm"),
    "erm.block_subproblem": (erm, "block_subproblem"),
    "erm.load_libsvm": (erm, "load_libsvm"),
}

METHOD_SPANS = {
    "rates.curvature_check": (rates.CurvaturePair, "__post_init__"),
    "erm.primal_value": (erm.ErmProblem, "primal_value"),
    "erm.dual_value": (erm.ErmProblem, "dual_value"),
    "erm.psi_gradient": (erm.ErmProblem, "psi_gradient"),
    "erm.curvature": (erm.ErmProblem, "curvature"),
    "erm.smoothness_matrix": (erm.ErmProblem, "smoothness_matrix"),
    "erm.consistency": (erm.DualState, "consistency_error"),
}

# The block Cholesky calls of the primal loop are scipy's; they are
# traced only when their caller is the solver loop itself, so that the
# factorisations inside solve_pd and the dual block step stay in their
# callers' self time.
BLOCK_SPANS = {
    "solver.block_factor": "cho_factor",
    "solver.block_solve": "cho_solve",
}

# Closures of SmoothObjective, wrapped on every objective built while
# instrumented.
OBJECTIVE_SPANS = {"solver.gradient": "gradient", "solver.value": "value"}

SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS) + tuple(BLOCK_SPANS) + tuple(
    OBJECTIVE_SPANS
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    run: str


class Tracer:
    """Collects spans in memory.

    ``run`` labels the spans of the current unit of work (set it before
    each solve).  Spans opened on worker threads, which have no open
    span of their own, take the innermost span of the thread that
    created the tracer as parent.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.run = ""
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[tuple[int, str]] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> tuple[int, str] | None:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._owner and self._owner_stack:
            return self._owner_stack[-1]
        return None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(
                    sid, name, start, end, None if parent is None else parent[0],
                    self.workload, self.run,
                )
            )

    def wrap(self, name: str, fn, only_under: str | None = None):
        """fn wrapped in a span; with only_under, the span is recorded
        only when the caller's innermost span has that name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None:
                parent = self._parent(self._stack())
                if parent is None or parent[1] != only_under:
                    return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        traced.span_name = name
        return traced

    def traced_objective(self, objective):
        """Copy of a SmoothObjective whose value and gradient are
        traced (objectives already traced are returned as they are)."""
        if hasattr(objective.gradient, "span_name"):
            return objective
        return dataclasses.replace(
            objective,
            **{
                attr: self.wrap(name, getattr(objective, attr))
                for name, attr in OBJECTIVE_SPANS.items()
            },
        )


@contextmanager
def instrument(tracer: Tracer):
    """Wrap psn's layer-boundary functions in spans of tracer for the
    duration of the block; originals are restored on exit."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for name, (module, attr) in FUNCTION_SPANS.items():
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original)
            if attr.endswith("_objective"):
                wrapped = _objective_factory(tracer, wrapped)
            for mod in PSN_MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, wrapped)
        for name, (cls, attr) in METHOD_SPANS.items():
            patch(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
        for name, attr in BLOCK_SPANS.items():
            patch(
                scipy.linalg,
                attr,
                tracer.wrap(name, getattr(scipy.linalg, attr), only_under="solver.run"),
            )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _objective_factory(tracer: Tracer, factory):
    @functools.wraps(factory)
    def build(*args, **kwargs):
        return tracer.traced_objective(factory(*args, **kwargs))

    return build


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its children (overlapping children, as from a
    thread pool, are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, total self seconds) per span name."""
    own = self_times(spans)
    totals: dict[str, list] = {}
    for s in spans:
        entry = totals.setdefault(s.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own[s.id]
    return {name: (calls, secs) for name, (calls, secs) in totals.items()}


def write_spans(spans: list[Span], path) -> None:
    """Write spans as gzipped JSON lines, one span per line."""
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
