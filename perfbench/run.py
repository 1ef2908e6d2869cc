"""psn benchmark: one workload per process, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload heat-tau5 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload sets up its problem several times and
then repeats rounds of solves for ``--seconds`` seconds; it reports the
median of every end-to-end metric.  With ``--trace 1`` it does a fixed
amount of work instead (one set-up and one round, first untraced and
then with every layer boundary wrapped in spans) and reports per-layer
call counts and self times, the tracing overhead, and derived solver
figures.  Either way every output is checked; the last line of stdout
is one JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# setup_s is the median of at least SETUP_MIN_REPS set-ups, repeated
# until SETUP_BUDGET_S seconds are spent (at most SETUP_MAX_REPS).
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 5, 40, 2.0
# Set before numpy loads: unpinned pools would oversubscribe the cores
# when the solver runs its own threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "time_to_tol_s.c1": "s",
    "time_to_tol_s.c4": "s",
    "rates_s": "s",
    "peak_rss_mb": "MB",
}

# Spans reported only by their self time, under these names.
LOOP_SPANS = {"solver.run": "solver.loop_self_s", "erm.run": "erm.loop_self_s"}
LAYERS = ("sampling", "rates", "solver", "erm", "linalg", "trace")


def _import_program():
    """Import psn from the checkout's src/ and the benchmark modules."""
    if not (ROOT / "src" / "psn" / "__init__.py").is_file():
        raise SystemExit(f"error: no psn sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import psn

    if Path(psn.__file__).resolve().parent != ROOT / "src" / "psn":
        raise SystemExit(f"error: imported psn from {psn.__file__}, not from {ROOT / 'src'}")


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    from tracing import SPAN_NAMES

    out = {}
    for name in SPAN_NAMES:
        if name in LOOP_SPANS:
            out[LOOP_SPANS[name]] = "s"
        else:
            out[f"{name}.calls"] = "count"
            out[f"{name}.self_s"] = "s"
    for c in (1, 4):
        out[f"solver.iters.c{c}"] = "count"
        out[f"solver.us_per_iter.c{c}"] = "us"
        out[f"erm.iters.c{c}"] = "count"
        out[f"erm.us_per_iter.c{c}"] = "us"
        out[f"solver.gap_contraction.c{c}"] = "1"
        out[f"rates.predicted_contraction.c{c}"] = "1"
    out["solver.speedup.c4"] = "1"
    out["solver.iter_speedup.c4"] = "1"
    out["trace.overhead_s"] = "s"
    out["trace.overhead_frac"] = "1"
    out["trace.spans"] = "count"
    order = sorted(out, key=lambda name: LAYERS.index(name.split(".")[0]))
    return {name: out[name] for name in order}


def blas_threads() -> dict[str, object]:
    """Thread count and configuration each loaded OpenBLAS reports."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    if get_threads is None or get_config is None:
                        continue
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    found[Path(path).name] = {
                        "threads": get_threads(),
                        "config": get_config().decode(),
                    }
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "openblas": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    }


def measured_run(workload, inputs, seconds: float) -> dict:
    """End-to-end metrics: medians over set-ups and over rounds."""
    from workloads import MAX_ROUNDS, timed

    samples: dict[str, list[float]] = {"setup_s": []}
    setups = samples["setup_s"]
    while len(setups) < SETUP_MIN_REPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPS
    ):
        problem, secs = timed(workload.setup, inputs)
        setups.append(secs)
    attempted, errors = 0, []
    start = time.perf_counter()
    index, last = 0, 0.0
    # Stop before a round that would overrun the time budget.
    while index == 0 or (time.perf_counter() - start) + last <= seconds:
        if index == MAX_ROUNDS:
            break
        result, last = timed(workload.run_round, problem, index)
        for name, secs in result.times.items():
            samples.setdefault(name, []).append(secs)
        attempted += result.attempted
        errors += result.errors
        index += 1
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics = {}
    counts = {}
    for name, unit in END_TO_END.items():
        values = samples.get(name, [])
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        counts[name] = len(values)
    return {
        "metrics": metrics,
        "samples": counts,
        "attempted": attempted,
        "errors": errors,
    }


def same(a, b) -> bool:
    """Exact equality of nested outputs (arrays compared bitwise)."""
    import numpy as np

    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def traced_run(workload, inputs, spans_path: Path | None) -> dict:
    """Per-layer metrics from one untraced and one traced set-up and
    round; the two must give identical outputs."""
    from tracing import Tracer, instrument, layer_totals, write_spans
    from workloads import gap_contraction, timed

    problem, setup_u = timed(workload.setup, inputs)
    plain, wall_u = timed(workload.run_round, problem, 0)
    tracer = Tracer(workload.name)
    with instrument(tracer):
        tracer.run = "setup"
        problem_t, setup_t = timed(workload.setup, inputs)
        traced, wall_t = timed(workload.run_round, problem_t, 0, tracer)

    attempted = plain.attempted + traced.attempted
    errors = plain.errors + traced.errors
    for label, output in plain.outputs.items():
        attempted += 1
        if label not in traced.outputs or not same(output, traced.outputs[label]):
            errors.append(f"{label}: traced and untraced outputs differ")

    units = per_layer_metrics()
    values = dict.fromkeys(units, 0)
    for name, (calls, self_s) in layer_totals(tracer.spans).items():
        if name in LOOP_SPANS:
            values[LOOP_SPANS[name]] = self_s
        else:
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
    comparison = {}
    if workload.solves:
        iters = {}
        for c in (1, 4):
            out = plain.outputs.get(f"c{c}")
            if out is None:
                continue
            iters[c] = out["iterations"]
            values[f"{workload.layer}.iters.c{c}"] = out["iterations"]
            values[f"{workload.layer}.us_per_iter.c{c}"] = (
                1e6 * plain.times[f"loop_s.c{c}"] / max(1, out["iterations"])
            )
            values[f"solver.gap_contraction.c{c}"] = gap_contraction(out["gaps"])
        if len(iters) == 2:
            values["solver.speedup.c4"] = (
                plain.times["time_to_tol_s.c1"] / plain.times["time_to_tol_s.c4"]
            )
            values["solver.iter_speedup.c4"] = iters[1] / iters[4]
    for c, sp in workload.predicted_sigma_p(plain.outputs).items():
        values[f"rates.predicted_contraction.c{c}"] = 1.0 - sp
        if workload.solves:
            comparison[f"c{c}"] = {
                "observed": values[f"solver.gap_contraction.c{c}"],
                "predicted_1_minus_sigma_p": 1.0 - sp,
            }
    untraced = setup_u + wall_u
    values["trace.overhead_s"] = (setup_t + wall_t) - untraced
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
    values["trace.spans"] = len(tracer.spans)
    if spans_path is not None:
        write_spans(tracer.spans, spans_path)
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "contraction": comparison,
        "attempted": attempted,
        "errors": errors,
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)
    sys.dont_write_bytecode = True
    _import_program()
    from workloads import WORKLOADS

    args = parse_args(argv)
    env = environment()
    pools = {lib: info["threads"] for lib, info in env["openblas"].items()}
    if any(n != 1 for n in pools.values()):
        raise SystemExit(f"error: BLAS pools are not pinned to one thread: {pools}")
    workload = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        inputs = workload.inputs(args.seed, Path(workdir))
        if args.trace:
            spans_path = OUT_DIR / f"spans-{workload.name}.jsonl.gz"
            report = traced_run(workload, inputs, spans_path)
        else:
            report = measured_run(workload, inputs, args.seconds)

    attempted, failed = report["attempted"], len(report["errors"])
    print("env " + json.dumps(env))
    for name, metric in report["metrics"].items():
        n = report.get("samples", {}).get(name)
        suffix = f"  (median of {n})" if n else ""
        print(f"{name:40s} {metric['value']!r:>24} {metric['unit']}{suffix}")
    print(f"{'failed_frac':40s} {failed / max(1, attempted)!r:>24} 1  ({failed} of {attempted})")
    if report.get("contraction"):
        print("contraction " + json.dumps(report["contraction"]))
    for message in report["errors"]:
        print("FAILED " + message, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
