"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from psn import erm, rates, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]("tiny")


def test_traced_and_untraced_rounds_agree(workload, tmp_path):
    inputs = workload.inputs(5, tmp_path)
    plain = workload.run_round(workload.setup(inputs), 0)
    tracer = tracing.Tracer(workload.name)
    with tracing.instrument(tracer):
        traced = workload.run_round(workload.setup(inputs), 0, tracer)
    assert plain.errors == [] and traced.errors == []
    assert plain.outputs.keys() == traced.outputs.keys()
    for label, output in plain.outputs.items():
        assert run.same(output, traced.outputs[label]), label
    for c in (1, 4):
        if workload.solves:
            assert plain.outputs[f"c{c}"]["iterations"] == traced.outputs[f"c{c}"]["iterations"]
    assert tracer.spans


def test_traced_run_counts_repeat(workload, tmp_path):
    inputs = workload.inputs(7, tmp_path)
    first = run.traced_run(workload, inputs, tmp_path / "spans.jsonl.gz")
    second = run.traced_run(workload, inputs, None)
    assert first["errors"] == [] and second["errors"] == []
    assert first["metrics"].keys() == run.per_layer_metrics().keys()
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][name]["value"], name
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == first["metrics"]["trace.spans"]["value"]
    assert set(spans[0]) == {"id", "name", "start", "end", "parent", "workload", "run"}


def test_measured_run_reports_every_end_to_end_metric(workload, tmp_path):
    report = run.measured_run(workload, workload.inputs(3, tmp_path), 0.0)
    assert report["errors"] == []
    assert report["metrics"].keys() == run.END_TO_END.keys()
    assert all(m["value"] > 0 for m in report["metrics"].values())


def _snapshot(inputs: dict):
    return {
        key: value.read_bytes() if isinstance(value, Path) else value
        for key, value in inputs.items()
    }


def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _snapshot(workload.inputs(11, tmp_path / "a"))
    b = _snapshot(workload.inputs(11, tmp_path / "b"))
    assert run.same(a, b)
    other = _snapshot(workload.inputs(12, tmp_path / "a"))
    if workload.name != "rates-heat":  # the rate table has no random input
        assert not run.same(a, other)


def test_wrong_rate_table_is_a_failure():
    rates_heat = WORKLOADS["rates-heat"]("full")
    row = dict(next(r for r in rates_heat.reference["rows"] if r["c"] == 4))
    bound = rates_heat.reference["theta_cond_bound"]
    assert rates_heat.check_row(row, bound) == []
    row["sigma_p"] *= 1 + 1e-6
    assert rates_heat.check_row(row, bound)


def test_instrument_restores_originals():
    def current():
        return (solver.run, rates.eigen_extremes, erm.ErmProblem.dual_value, scipy.linalg.cho_factor)

    before = current()
    with tracing.instrument(tracing.Tracer("x")):
        assert all(now is not then for now, then in zip(current(), before))
    assert current() == before


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [
        S(0, "parent", 0.0, 10.0, None, "w", "r"),
        S(1, "a", 1.0, 4.0, 0, "w", "r"),
        S(2, "b", 2.0, 6.0, 0, "w", "r"),
        S(3, "c", 8.0, 9.0, 0, "w", "r"),
        S(4, "a", 2.0, 3.0, 2, "w", "r"),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    totals = tracing.layer_totals(spans)
    assert totals["a"] == (2, pytest.approx(4.0))


def test_worker_thread_spans_attach_to_the_owner_span():
    tracer = tracing.Tracer("w")
    factor = tracer.wrap("solver.block_factor", np.sum, only_under="solver.run")
    factor([1.0])  # outside the solver loop: not recorded
    with tracer.span("solver.run"):
        t = threading.Thread(target=factor, args=([1.0],))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    assert [s.name for s in tracer.spans] == ["solver.block_factor", "solver.run"]
    factor_span, run_span = tracer.spans
    assert factor_span.parent == run_span.id


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_metrics()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
