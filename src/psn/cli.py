"""Benchmark command line.

Subcommands:

* solve         -- run the parallel solver on a quadratic problem and
                   emit per-iteration traces across a grid of worker
                   counts.
* rates         -- tabulate sigma1/theta/lambda/b_min/sigma_p together
                   with the PCDM baselines sigma3/sigma_b.
* compare-pcdm  -- alias of rates.
* rho           -- closed-form rate curves for the constant-correlation
                   matrix family.
* tridiag       -- exact 2-list theta against its closed bound on the
                   tridiagonal family.
* heat          -- alias of solve wired to the implicit heat-step
                   generator.
* erm           -- dual solver on a LIBSVM dataset.

All CSV output is deterministic for a fixed seed and flag set: rows
carry no timing, and every run takes its draws from one seeded stream
in the calling thread (--threads is accepted but selects nothing).
Exit codes: 0 success, 1 bad input, 2 did not converge (budget
exhausted, or diverged in solve, heat or erm).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .erm import ErmProblem, LogisticLoss, SquaredLoss, load_libsvm, run_erm
from .linalg import make_heat_matrix, make_rho_matrix, make_tridiagonal
from .matrixio import read_matrix, read_vector, write_csv
from .rates import (
    CurvaturePair,
    b_threshold,
    pcdm_constants,
    rate_report,
    rho_closed_forms,
    sigma_p,
    tridiag_theta_bound,
)
from .sampling import SamplingScheme, expected_lifted_inverse, parse_scheme
from .solver import (
    DivergenceError,
    SolverConfig,
    least_squares_objective,
    quadratic_objective,
    run,
)

__all__ = ["main"]

_GEN_PARAMS = {
    "dense": ("n", "m"),
    "rho": ("n", "rho"),
    "tridiag": ("n", "alpha"),
    "heat": ("n", "r"),
}


def _parse_gen(text: str) -> dict:
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _GEN_PARAMS:
        raise ValueError(
            f"unknown generator {kind!r}; expected one of {sorted(_GEN_PARAMS)}"
        )
    names = _GEN_PARAMS[kind]
    parts = [p.strip() for p in rest.split(",") if p.strip()] if rest else []
    if len(parts) != len(names):
        raise ValueError(
            f"generator {kind!r} needs parameters {','.join(names)} "
            f"(e.g. --gen {kind}:{','.join(names)})"
        )
    out: dict = {"kind": kind}
    try:
        out["n"] = int(parts[0])
        for name, part in zip(names[1:], parts[1:]):
            out[name] = int(part) if name == "m" else float(part)
    except ValueError:
        raise ValueError(f"bad numeric value in generator spec {text!r}") from None
    return out


def _parse_list(text: str, flag: str, kind: type = int) -> list:
    """The comma-separated values of flag, each converted by kind."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects a comma-separated list of {noun}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _parse_b(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--b expects 'auto' or a number, got {text!r}") from None


def _parse_theta(text: str | None):
    if text is None:
        return None
    if text in ("exact", "bound"):
        return text
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"--theta expects 'exact', 'bound', or a number, got {text!r}"
        ) from None


def _data_rng(seed: int) -> np.random.Generator:
    # Input generation runs on its own stream so that problem data and
    # solver draws stay decoupled under one master seed.
    return np.random.default_rng([seed, 1])


def _heat_rhs(n: int) -> np.ndarray:
    x = np.linspace(-1.0, 1.0, n)
    return np.cos(0.5 * np.pi * x)


def _build_objective(args) -> tuple:
    """Returns (objective, decomposition_or_None)."""
    if getattr(args, "matrix", None) and getattr(args, "gen", None):
        raise ValueError("give either --matrix or --gen, not both")
    if getattr(args, "matrix", None):
        M = read_matrix(args.matrix)
        if getattr(args, "rhs", None):
            q = read_vector(args.rhs)
            if q.shape != (M.shape[0],):
                raise ValueError(
                    f"rhs length {q.shape[0]} does not match matrix size {M.shape[0]}"
                )
        else:
            q = _data_rng(args.seed).standard_normal(M.shape[0])
        return quadratic_objective(M, q), None
    if not getattr(args, "gen", None):
        raise ValueError("need a problem source: --matrix FILE or --gen SPEC")
    gen = _parse_gen(args.gen)
    rng = _data_rng(args.seed)
    if gen["kind"] == "dense":
        A = rng.standard_normal((gen["m"], gen["n"]))
        y = rng.standard_normal(gen["m"])
        return least_squares_objective(A, y), A
    if gen["kind"] == "rho":
        M = make_rho_matrix(gen["n"], gen["rho"])
    elif gen["kind"] == "tridiag":
        M = make_tridiagonal(gen["n"], gen["alpha"])
    else:
        M = make_heat_matrix(gen["n"], gen["r"])
        return quadratic_objective(M, _heat_rhs(gen["n"])), None
    return quadratic_objective(M, rng.standard_normal(gen["n"])), None


def _fmt(x) -> str:
    return repr(float(x))


def _worker_grid(args, scheme: SamplingScheme) -> list[int]:
    if args.c is not None:
        return _parse_list(args.c, "--c")
    return [scheme.c]


def _solve_grid(args, scheme: SamplingScheme, solve) -> int:
    """Solve at every worker count of the grid with solve(config),
    print one status line per run to stderr and write the rows of all
    traces, each led by its c, to one CSV."""
    rows = []
    ok = True
    for c in _worker_grid(args, scheme):
        trace = solve(
            SolverConfig(
                scheme=scheme.with_workers(c),
                b=_parse_b(args.b),
                theta=_parse_theta(args.theta),
                tol=args.tol,
                max_iter=args.max_iter,
                seed=args.seed,
                threads=args.threads,
                incremental_gradient=True,
            )
        )
        ok = ok and trace.converged
        print(
            f"c={c}: {trace.status} after {trace.iterations} iterations "
            f"(b={trace.b:.6g})",
            file=sys.stderr,
        )
        rows.extend([c, *row] for row in trace.csv_rows())
    write_csv(args.out, ["c", "iteration", *trace.COLUMNS], rows)
    return 0 if ok else 2


def cmd_solve(args) -> int:
    objective, _ = _build_objective(args)
    return _solve_grid(
        args, parse_scheme(args.scheme, objective.n), lambda config: run(objective, config)
    )


def cmd_rates(args) -> int:
    objective, decomposition = _build_objective(args)
    scheme = parse_scheme(args.scheme, objective.n)
    pair = objective.curvature()
    # Without Monte Carlo the pair enumerates E once for every c.
    expected = None
    if args.mc_samples > 0:
        expected = expected_lifted_inverse(
            pair.M, scheme, mode="monte-carlo", samples=args.mc_samples, seed=args.seed
        ).matrix
    rows = []
    for c in _worker_grid(args, scheme):
        sch = scheme.with_workers(c)
        report = rate_report(pair, sch, expected_inverse=expected)
        tau_c = sch.tau * c
        if tau_c <= pair.n:
            pcdm = pcdm_constants(
                pair, tau_c, A=decomposition, assume_dense=decomposition is None
            )
            sigma3, sigma_b = _fmt(pcdm.sigma3), _fmt(pcdm.sigma_b)
        else:
            sigma3 = sigma_b = ""
        rows.append(
            [
                args.scheme,
                pair.n,
                sch.tau,
                c,
                tau_c,
                _fmt(report.sigma1),
                _fmt(report.theta),
                _fmt(report.lam),
                _fmt(report.b_min),
                _fmt(report.sigma_p),
                sigma3,
                sigma_b,
                _fmt(report.speedup),
                int(report.hypotheses_hold),
            ]
        )
    write_csv(
        args.out,
        [
            "scheme", "n", "tau", "c", "tau_c", "sigma1", "theta", "lam",
            "b_min", "sigma_p", "sigma3", "sigma_b", "speedup", "guaranteed",
        ],
        rows,
    )
    return 0


def cmd_rho(args) -> int:
    rows = []
    for rho in _parse_list(args.rho_grid, "--rho-grid", float):
        analysis = rho_closed_forms(args.n, args.tau, rho)
        for c in _parse_list(args.c, "--c"):
            b_min = b_threshold(c, 1.0, analysis.theta)
            sp = sigma_p(c, b_min, analysis.sigma1, b_min)
            rows.append(
                [
                    args.n,
                    args.tau,
                    _fmt(rho),
                    c,
                    _fmt(analysis.sigma1),
                    _fmt(analysis.theta),
                    _fmt(b_min),
                    _fmt(sp),
                    _fmt(c / b_min),
                ]
            )
    write_csv(
        args.out,
        ["n", "tau", "rho", "c", "sigma1", "theta", "b_min", "sigma_p", "speedup"],
        rows,
    )
    return 0


def cmd_tridiag(args) -> int:
    rows = []
    for n in _parse_list(args.n_grid, "--n-grid"):
        for alpha in _parse_list(args.alpha_grid, "--alpha-grid", float):
            pair = CurvaturePair.from_hessian(make_tridiagonal(n, alpha))
            report = rate_report(pair, SamplingScheme("list", n, 2))
            rows.append(
                [
                    n,
                    _fmt(alpha),
                    _fmt(report.sigma1),
                    _fmt(report.theta),
                    _fmt(tridiag_theta_bound(alpha, n)),
                ]
            )
    write_csv(args.out, ["n", "alpha", "sigma1", "theta", "bound"], rows)
    return 0


def cmd_heat(args) -> int:
    args.gen = f"heat:{args.n},{args.r}"
    args.matrix = None
    args.rhs = None
    return cmd_solve(args)


def _erm_labels(y: np.ndarray, loss_kind: str) -> np.ndarray:
    if loss_kind != "logistic":
        return y
    values = np.unique(y)
    if values.size != 2:
        raise ValueError(
            f"logistic loss needs exactly two label values, found {values.size}"
        )
    if set(values.tolist()) == {-1.0, 1.0}:
        return y
    return np.where(y == values[0], -1.0, 1.0)


def cmd_erm(args) -> int:
    A, y = load_libsvm(args.data)
    y = _erm_labels(y, args.loss)
    loss = LogisticLoss(args.epsilon) if args.loss == "logistic" else SquaredLoss()
    problem = ErmProblem(A, y, loss, args.reg)
    return _solve_grid(
        args, parse_scheme(args.scheme, problem.n), lambda config: run_erm(problem, config)
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")


def _add_solver_flags(sub: argparse.ArgumentParser, default_scheme: str) -> None:
    sub.add_argument("--scheme", default=default_scheme,
                     help="sampling nice, list or non-overlapping, e.g. 'list:tau=5,c=4'; "
                          "parallel-nice and parallel-list spell nice and list")
    sub.add_argument("--c", default=None,
                     help="comma-separated worker counts (overrides the scheme's c)")
    sub.add_argument("--b", default="auto", help="damping: 'auto' or a number")
    sub.add_argument("--theta", default=None,
                     help="theta source for auto damping: 'exact', 'bound' (any scheme) or a number")
    sub.add_argument("--tol", type=float, default=1e-8, help="stopping tolerance")
    sub.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility (at least 1); blocks are always "
                          "solved in the calling thread")


def _add_problem_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--matrix", default=None, help="Matrix Market file")
    sub.add_argument("--rhs", default=None, help="right-hand side vector file")
    sub.add_argument("--gen", default=None,
                     help="synthetic problem: dense:n,m | rho:n,rho | tridiag:n,alpha | heat:n,r")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psn",
        description="Parallel stochastic Newton benchmark tools",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="run the solver on a quadratic problem")
    _add_problem_source(p)
    _add_solver_flags(p, "nice:tau=2")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    for name in ("rates", "compare-pcdm"):
        p = subs.add_parser(name, help="tabulate rate constants and PCDM baselines")
        _add_problem_source(p)
        p.add_argument("--scheme", default="nice:tau=2")
        p.add_argument("--c", default=None, help="comma-separated worker counts")
        p.add_argument("--mc-samples", type=int, default=0, dest="mc_samples",
                       help="Monte Carlo sample count when enumeration is infeasible")
        _add_common(p)
        p.set_defaults(func=cmd_rates)

    p = subs.add_parser("rho", help="closed-form curves for the rho-matrix family")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--rho-grid", default="0.1,0.3,0.5,0.7,0.9", dest="rho_grid")
    p.add_argument("--c", default="1,2,4,8,16")
    _add_common(p)
    p.set_defaults(func=cmd_rho)

    p = subs.add_parser("tridiag", help="exact 2-list theta vs its closed bound")
    p.add_argument("--n-grid", default="5,8,16,32,64", dest="n_grid")
    p.add_argument("--alpha-grid", default="0,0.1,0.2,0.3,0.4,0.5", dest="alpha_grid")
    _add_common(p)
    p.set_defaults(func=cmd_tridiag)

    p = subs.add_parser("heat", help="solve the implicit heat-step system")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--r", type=float, default=0.1)
    _add_solver_flags(p, "list:tau=5")
    _add_common(p)
    p.set_defaults(func=cmd_heat)

    p = subs.add_parser("erm", help="dual solver on a LIBSVM dataset")
    p.add_argument("--data", required=True, help="LIBSVM text file")
    p.add_argument("--loss", choices=("squared", "logistic"), default="squared")
    p.add_argument("--reg", type=float, default=1.0, help="L2 regulariser weight")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="quadratic smoothing of the logistic loss")
    _add_solver_flags(p, "nice:tau=2")
    _add_common(p)
    p.set_defaults(func=cmd_erm)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError, DivergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, DivergenceError) else 1


if __name__ == "__main__":
    sys.exit(main())
