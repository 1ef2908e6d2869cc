"""Guards for the benchmark under perfbench/.

The benchmark wraps psn functions and methods by name to trace them and
builds SolverConfig with keywords of its own, but its own tests are not
part of this suite.  These checks make a change that renames or removes
any of those names fail here too.  One more check counts the private
linalg names that rates, sampling and solver import.
"""

import ast
import importlib
from pathlib import Path

import pytest
import scipy.linalg
import scipy.sparse

import psn.rates
import psn.sampling
import psn.solver
from psn.sampling import SamplingScheme
from psn.solver import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_traced_names_resolve(perfbench):
    tracing = perfbench("tracing")
    for name, (module, attr) in tracing.FUNCTION_SPANS.items():
        assert callable(getattr(module, attr, None)), name
    for name, (cls, attr) in tracing.METHOD_SPANS.items():
        assert attr in vars(cls), name
    for name, attr in tracing.BLOCK_SPANS.items():
        assert callable(getattr(scipy.linalg, attr, None)), name
    with tracing.instrument(tracing.Tracer("names")):
        pass


def test_workload_keywords_and_tiny_rounds(perfbench, tmp_path):
    SolverConfig(SamplingScheme("nice", 4, 2), threads=2, incremental_gradient=True)
    workloads = perfbench("workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls("tiny")
        problem = workload.setup(workload.inputs(1, tmp_path))
        result = workload.run_round(problem, 0)
        assert result.attempted > 0, name
        assert not result.errors, (name, result.errors)


def test_full_rate_table_matches_reference(perfbench, tmp_path):
    # The committed table of the full-size rates-heat workload, checked
    # row by row with the workload's own check (relative 1e-9).
    workloads = perfbench("workloads")
    workload = workloads.RatesHeat("full")
    assert workload.reference is not None
    result = workload.run_round(workload.setup(workload.inputs(1, tmp_path)), 0)
    assert not result.errors, result.errors
    E, bound = result.outputs["expected-inverse"]
    # M and E stay in band storage from their assembly to the rate table.
    assert scipy.sparse.issparse(E)
    assert scipy.sparse.issparse(workload.setup(workload.inputs(1, tmp_path))["pair"].M)
    for c in workload.c_grid:
        assert workload.check_row(result.outputs[f"c{c}"], bound) == [], c


def test_full_heat_objective_in_band_storage(perfbench, tmp_path):
    # The full-size heat-tau5 set-up holds M as a band, not n x n.
    workload = perfbench("workloads").HeatTau5("full")
    problem = workload.setup(workload.inputs(1, tmp_path))
    assert scipy.sparse.issparse(problem["objective"].M)


def test_traced_objective_keeps_the_band(perfbench, tmp_path):
    # traced_objective copies the objective with dataclasses.replace,
    # which stores M and G again (SmoothObjective.__post_init__): the
    # full-size heat-tau5 band must come back as the same object, and G
    # as M itself.
    workload = perfbench("workloads").HeatTau5("full")
    objective = workload.setup(workload.inputs(1, tmp_path))["objective"]
    traced = perfbench("tracing").Tracer("heat-tau5").traced_objective(objective)
    assert traced.gradient is not objective.gradient and traced.value is not objective.value
    assert traced.M is objective.M and traced.G is traced.M


def test_full_erm_round_passes_checks(perfbench, tmp_path):
    # One full-size erm-logistic round: the rate work (exact theta and
    # lambda), then c=1 and c=4 solved to tolerance and checked (final
    # gap, weak duality, abar drift), each with the rate work's b and
    # theta.
    workloads = perfbench("workloads")
    workload = workloads.ErmLogistic("full")
    result = workload.run_round(workload.setup(workload.inputs(1, tmp_path)), 0)
    assert not result.errors, result.errors
    assert set(result.outputs) == {"rates", "c1", "c4"}


@pytest.mark.parametrize("name", ["heat-tau5", "erm-logistic"])
def test_traced_round_matches_untraced(perfbench, tmp_path, name):
    # Tracing wraps sampling.draw and the solver layers; a wrapper that
    # changed a return value or consumed the stream would show here.
    tracing, same = perfbench("tracing"), perfbench("run").same
    workload = perfbench("workloads").WORKLOADS[name]("tiny")
    inputs = workload.inputs(1, tmp_path)
    plain = workload.run_round(workload.setup(inputs), 0)
    tracer = tracing.Tracer(name)
    with tracing.instrument(tracer):
        traced = workload.run_round(workload.setup(inputs), 0, tracer)
    assert not plain.errors and not traced.errors, (plain.errors, traced.errors)
    assert tracer.spans
    assert set(plain.outputs) == set(traced.outputs) == {"rates", "c1", "c4"}
    assert same(plain.outputs, traced.outputs)


def test_callers_import_few_private_linalg_names():
    # Storage is decided where a matrix enters linalg, so rates, sampling
    # and solver branch only on its type; a count above 9 private names
    # (19 before the storage rule) means routing helpers leaked back.
    names = []
    for module in (psn.rates, psn.sampling, psn.solver):
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg":
                names += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert len(names) <= 9, names
