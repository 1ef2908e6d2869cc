"""Command-line interface tests.

Every test drives main(argv) in-process and checks exit codes, CSV
structure, and determinism of the emitted tables.
"""

import argparse
import csv
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psn.cli
import psn.rates
import psn.sampling
import psn.solver
from psn.cli import _build_parser, main
from psn.linalg import make_rho_matrix
from psn.matrixio import MAX_ORDER, write_matrix, write_vector
from psn.rates import rho_closed_forms
from psn.sampling import ExpectedInverse


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


def run_cli_process(*argv):
    """Run psn in a process of its own, for inputs that can kill one."""
    src = str(Path(psn.cli.__file__).resolve().parents[1])
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-m", "psn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestSolve:
    def test_serial_quadratic_converges(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--gen", "rho:8,0.3", "--scheme", "nice:tau=2",
                "--b", "1", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["c", "iteration", "f_gap", "grad_norm"]
        assert set(column(header, rows, "c")) == {"1"}
        gaps = [float(v) for v in column(header, rows, "f_gap")]
        assert gaps[-1] < 1e-12 or float(rows[-1][3]) <= 1e-8
        assert "converged" in capsys.readouterr().err

    def test_worker_grid_auto_damping(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--gen", "dense:8,12", "--scheme", "nice:tau=2",
                "--c", "1,2,4", "--b", "auto", "--theta", "exact",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        cs = sorted(set(column(header, rows, "c")), key=int)
        assert cs == ["1", "2", "4"]
        for c in cs:
            grads = [float(r[3]) for r in rows if r[0] == c]
            assert grads[-1] <= 1e-8

    def test_output_identical_across_runs_and_threads(self, tmp_path):
        args = [
            "solve", "--gen", "dense:10,14", "--scheme", "parallel-nice:tau=2,c=3",
            "--b", "1.5", "--seed", "7",
        ]
        paths = [tmp_path / f"t{i}.csv" for i in range(3)]
        assert main(args + ["--out", str(paths[0])]) == 0
        assert main(args + ["--out", str(paths[1])]) == 0
        assert main(args + ["--threads", "4", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_threads_flag_starts_no_thread(self, tmp_path, monkeypatch):
        # --threads is accepted and selects nothing: every block is
        # solved in the calling thread, so no pool can hide behind it.
        def refuse(thread):
            raise AssertionError(f"a thread was started: {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "trace.csv"
        argv = [
            "solve", "--gen", "dense:40,160", "--scheme", "nice:tau=8", "--c", "1,4",
            "--theta", "1", "--threads", "4", "--out", str(out),
        ]
        assert main(argv) == 0
        assert {row[0] for row in read_csv(out)[1]} == {"1", "4"}

    def test_parallel_spelling_writes_the_same_bytes(self, tmp_path):
        blobs = []
        for scheme in ("nice:tau=2,c=3", "parallel-nice:tau=2,c=3"):
            out = tmp_path / f"{scheme.partition(':')[0]}.csv"
            args = ["solve", "--gen", "dense:10,14", "--scheme", scheme, "--b", "1.5"]
            assert main(args + ["--seed", "7", "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_matrix_input_with_rhs(self, tmp_path):
        M = make_rho_matrix(6, 0.4)
        write_matrix(tmp_path / "m.mtx", M)
        write_vector(tmp_path / "q.txt", np.arange(1.0, 7.0))
        out = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--matrix", str(tmp_path / "m.mtx"),
                "--rhs", str(tmp_path / "q.txt"),
                "--scheme", "nice:tau=2", "--b", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_not_converged_exit_code(self, tmp_path):
        code = main(
            [
                "solve", "--gen", "rho:8,0.3", "--scheme", "nice:tau=2",
                "--b", "1", "--max-iter", "3", "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    def test_zero_tolerance_runs_out_of_iterations(self, tmp_path):
        code = main(
            [
                "solve", "--gen", "rho:8,0.3", "--scheme", "nice:tau=2",
                "--b", "1", "--tol", "0", "--max-iter", "10",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    def test_divergence_exit_code(self, tmp_path, capsys):
        # c=8 undamped blocks on a strongly coupled matrix overshoot.
        code = main(
            [
                "solve", "--gen", "rho:50,0.9", "--scheme", "nice:tau=10",
                "--c", "8", "--b", "1", "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: objective increased")
        assert len(err.splitlines()) == 1

    def test_negative_tolerance_rejected(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--gen", "rho:8,0.3", "--b", "1", "--tol", "-1",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert "non-negative" in capsys.readouterr().err

    def test_dense_iterations_improve_with_workers(self, tmp_path):
        # scaled-down benchmark: undamped aggregation of nearly disjoint
        # blocks pays off roughly linearly in c
        out = tmp_path / "grid.csv"
        code = main(
            [
                "solve", "--gen", "dense:100,100", "--scheme", "nice:tau=3",
                "--c", "1,2,4", "--b", "1", "--tol", "0.5", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        iters = {
            c: sum(1 for r in rows if r[0] == c) - 1 for c in ("1", "2", "4")
        }
        assert iters["1"] > iters["2"] > iters["4"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--gen", "rho:8,0.3", "--matrix", "x.mtx"],
            ["solve"],
            ["solve", "--gen", "frobnicate:8"],
            ["solve", "--gen", "rho:8,0.3", "--b", "0.5"],
            ["solve", "--gen", "rho:8,0.3", "--b", "auto"],  # theta missing
            ["solve", "--gen", "rho:8,0.3", "--scheme", "nice:tau=99"],
            ["solve", "--matrix", "does-not-exist.mtx"],
            ["solve", "--gen", "rho:8,0.3", "--b", "1", "--max-iter", "-1"],
            ["solve", "--gen", "rho:8,0.3", "--b", "1", "--threads", "0"],
        ],
    )
    def test_input_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["rho", "--c", "1,x"], "--c expects a comma-separated list of integers"),
            (["rho", "--rho-grid", "0.1,a"], "--rho-grid expects a comma-separated list of numbers"),
            (["tridiag", "--n-grid", ","], "--n-grid is empty"),
            (["tridiag", "--alpha-grid", "q"], "--alpha-grid expects a comma-separated list of numbers"),
            (["solve", "--gen", "rho:8,0.3", "--scheme", "nice:tau=2,tau=5"],
             "scheme 'nice:tau=2,tau=5' repeats parameter 'tau'"),
            (["solve", "--gen", "rho:6,0.3", "--b", "1", "--c", "1,1"], "--c repeats the value 1"),
            (["rates", "--gen", "rho:6,0.3", "--c", "2,1,2"], "--c repeats the value 2"),
            (["rho", "--rho-grid", "0.3,0.5,0.30"], "--rho-grid repeats the value 0.3"),
            (["tridiag", "--n-grid", "5,8,5"], "--n-grid repeats the value 5"),
            (["tridiag", "--alpha-grid", "0,0.1,0"], "--alpha-grid repeats the value 0.0"),
        ],
    )
    def test_list_flags_name_their_errors(self, argv, line, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_generator_values_are_positional(self, capsys):
        assert main(["solve", "--gen", "dense:n=10,m=14", "--b", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad numeric value in generator spec 'dense:n=10,m=14'\n"

    def test_bound_damping_with_nice_sampling(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--gen", "rho:8,0.3", "--scheme", "nice:tau=2", "--c", "1,2",
                "--b", "auto", "--theta", "bound", "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err.count("converged") == 2

    def test_rhs_length_mismatch(self, tmp_path, capsys):
        write_matrix(tmp_path / "m.mtx", np.eye(4))
        write_vector(tmp_path / "q.txt", np.ones(3))
        code = main(
            [
                "solve", "--matrix", str(tmp_path / "m.mtx"),
                "--rhs", str(tmp_path / "q.txt"), "--b", "1",
            ]
        )
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_rhs_needs_matrix(self, tmp_path, capsys):
        # A generated problem draws its own right-hand side, so an --rhs
        # beside --gen (here of the wrong length) would be ignored.
        write_vector(tmp_path / "q3.txt", np.ones(3))
        argv = ["solve", "--gen", "rho:6,0.3", "--b", "1", "--rhs", str(tmp_path / "q3.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --rhs needs --matrix\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_minimiser_fails_early(self, tmp_path, capsys):
        write_matrix(tmp_path / "m.mtx", np.array([[1e-300]]))
        write_vector(tmp_path / "q.txt", np.array([1e300]))
        argv = ["solve", "--matrix", str(tmp_path / "m.mtx"), "--rhs", str(tmp_path / "q.txt"),
                "--scheme", "nice:tau=1", "--b", "1", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_optimal_value_fails_early(self, tmp_path, capsys):
        # x_star = M^-1 q is finite, but x'Mx overflows in f_star.
        write_matrix(tmp_path / "m.mtx", np.array([[2.0, 1.0], [1.0, 2.0]]))
        write_vector(tmp_path / "q.txt", np.array([1e200, -3e200]))
        argv = ["solve", "--matrix", str(tmp_path / "m.mtx"), "--rhs", str(tmp_path / "q.txt"),
                "--scheme", "nice:tau=1", "--b", "1", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: the optimal value of x'Mx/2 - q'x overflows\n"
        assert not (tmp_path / "t.csv").exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "header,body",
        [
            ("array complex hermitian", "2 2\n2 0\n1 1\n3 0\n"),
            ("coordinate complex symmetric", "2 2 2\n1 1 2 1\n2 2 3 0\n"),
        ],
        ids=["hermitian", "complex"],
    )
    def test_complex_matrix_refused(self, tmp_path, capsys, header, body):
        # Casting would drop the imaginary part with only a ComplexWarning.
        path = tmp_path / "c.mtx"
        path.write_text(f"%%MatrixMarket matrix {header}\n{body}")
        assert main(["solve", "--matrix", str(path), "--b", "1"]) == 1
        assert capsys.readouterr().err == "error: matrix has complex entries\n"

    def test_matrix_order_capped_before_reading(self, tmp_path, capsys, monkeypatch):
        # A dense 100000 x 100000 array would take 80 GB: the header alone
        # must refuse it, so any mmread call fails this test.
        def no_read(*args, **kwargs):
            raise AssertionError("mmread called")

        monkeypatch.setattr(scipy.io, "mmread", no_read)
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n100000 100000 1\n1 1 1.0\n")
        assert MAX_ORDER < 100_000
        assert main(["solve", "--matrix", str(path), "--b", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read matrix from {path}: a 100000 x 100000 matrix "
            f"exceeds the dense limit {MAX_ORDER}\n"
        )

    @pytest.mark.parametrize("command", ["solve", "rates"])
    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3)])
    def test_matrix_with_zero_dimension_refused(self, tmp_path, command, rows, cols):
        # scipy's reader of an empty array-format body divides by zero and
        # kills its process (SIGFPE), so the CLI runs in a process of its own.
        path = tmp_path / "empty.mtx"
        path.write_text(f"%%MatrixMarket matrix array real general\n{rows} {cols}\n")
        done = run_cli_process(command, "--matrix", str(path))
        assert done.returncode == 1
        assert done.stderr == (
            f"error: cannot read matrix from {path}: a {rows} x {cols} matrix has no entries\n"
        )

    @pytest.mark.parametrize("command", ["solve", "rates"])
    @pytest.mark.parametrize(
        "header, shape",
        [
            ("array real symmetric", "1 2"),
            ("array real hermitian", "1 2"),
            ("array real skew-symmetric", "1 2"),
            ("array real skew-symmetric", "1 1"),
            ("coordinate real general", "2 3 1"),
        ],
    )
    def test_matrix_that_cannot_be_positive_definite_refused(self, tmp_path, command, header, shape):
        # scipy's array reader can corrupt the heap on the first four
        # (double free, SIGABRT or SIGSEGV after the error line), so the
        # header alone refuses them, in a process of their own.
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix {header}\n{shape}\n1\n2\n3\n")
        rows, cols = shape.split()[:2]
        symmetry = header.split()[-1]
        done = run_cli_process(command, "--matrix", str(path))
        assert done.returncode == 1
        assert done.stderr == (
            f"error: cannot read matrix from {path}: a {rows} x {cols} {symmetry} matrix "
            "cannot be positive definite\n"
        )

    @pytest.mark.parametrize(
        "argv, shape",
        [
            (["solve", "--gen", "rho:200000,0.5", "--b", "1"], "200000 x 200000"),
            (["solve", "--gen", "dense:200000,200000", "--b", "1"], "200000 x 200000"),
            (["rates", "--gen", "rho:200000,0.3"], "200000 x 200000"),
            (["rates", "--gen", "rho:10001,0.3"], "10001 x 10001"),
            (["solve", "--gen", "dense:8,200000", "--b", "1"], "200000 x 8"),
            (["rates", "--gen", "dense:200000,8"], "8 x 200000"),
            (["rates", "--gen", "dense:200000,200000"], "200000 x 200000"),
        ],
    )
    def test_generated_order_capped_before_building(self, capsys, monkeypatch, argv, shape):
        # A dense order above MAX_ORDER is refused from the flags alone:
        # any generator or draw that would allocate fails this test.
        # The heat and tridiagonal generators build bands and are not
        # capped (TestBandOrders).
        def no_build(*args, **kwargs):
            raise AssertionError("generator called")

        for name in ("make_heat_matrix", "make_rho_matrix", "make_tridiagonal"):
            monkeypatch.setattr(psn.cli, name, no_build)
        no_draws = type("NoDraws", (), {"standard_normal": no_build})()
        monkeypatch.setattr(psn.cli, "_data_rng", lambda seed: no_draws)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: a {shape} matrix exceeds the dense limit {MAX_ORDER}\n"

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_output_fails_before_solving(self, tmp_path, capsys, target):
        out = tmp_path / target
        argv = ["heat", "--n", "1500", "--theta", "bound", "--c", "1,4", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and len(err.splitlines()) == 1

    def test_existing_output_kept_until_written(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        out.write_text("previous\n")
        assert main(["solve", "--gen", "rho:6,0.3", "--b", "-1", "--out", str(out)]) == 1
        assert out.read_text() == "previous\n"

    def test_dangling_link_output_kept(self, tmp_path, capsys):
        out, target = tmp_path / "t.csv", tmp_path / "target.csv"
        out.symlink_to(target)
        assert main(["solve", "--gen", "rho:6,0.3", "--b", "-1", "--out", str(out)]) == 1
        assert out.is_symlink() and not target.exists()
        assert main(["solve", "--gen", "rho:6,0.3", "--b", "1", "--out", str(out)]) == 0
        assert out.is_symlink() and target.read_text().startswith("c,")

    def test_enumeration_limit_names_the_theta_bound(self, capsys):
        # solve takes no sample count, so the error names the remedy it
        # does take: theta 'bound'.
        argv = ["solve", "--gen", "rho:100,0.5", "--scheme", "nice:tau=5", "--theta", "exact"]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "bound" in lines[0]

    def test_default_scheme_caps_tau_at_n(self, tmp_path, capsys):
        # A 1 x 1 matrix takes the default nice:tau=2 as tau = 1, and a
        # heat grid of 3 points the default list:tau=5 as tau = 3; a tau
        # above n that the user gives is still refused.
        path, out = tmp_path / "one.mtx", tmp_path / "out.csv"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2\n")
        for argv in (["solve", "--matrix", str(path)], ["rates", "--matrix", str(path)],
                     ["heat", "--n", "3"]):
            flags = [] if argv[0] == "rates" else ["--theta", "bound"]
            assert main([*argv, *flags, "--out", str(out)]) == 0, capsys.readouterr().err
            header, rows = read_csv(out)
            if argv[0] == "rates":
                assert column(header, rows, "tau") == ["1"]
            else:
                assert column(header, rows, "iteration")[-1] == "1"
        capsys.readouterr()
        assert main(["solve", "--matrix", str(path), "--scheme", "nice:tau=2", "--theta",
                     "bound"]) == 1
        assert capsys.readouterr().err == "error: tau must lie in [1, n=1], got 2\n"


# Tokens that can replace an entry: non-finite spellings numpy reads,
# one that overflows, one that is not a number and one that is empty.
BAD_TOKENS = ["nan", "NaN", "inf", "-inf", "1e400", "x", ""]


@st.composite
def matrix_market_files(draw):
    """The text of a Matrix Market file of order at most 5: a header of
    any format, field and symmetry over the entries it asks for of a
    diagonally dominant symmetric integer matrix (so positive definite),
    then up to two faults: a size that is not square or has no rows, an
    entry count one or two off, a coordinate index one outside the
    matrix, an entry token replaced by a bad one, or an entry changed on
    one side of the diagonal only."""
    # Weighted towards the headers psn can solve, so that both exits show.
    layout = draw(st.sampled_from(["coordinate", "array"]))
    field = draw(st.sampled_from(["real", "real", "integer", "real", "complex", "pattern"]))
    symmetry = draw(
        st.sampled_from(["symmetric", "general", "hermitian", "symmetric", "skew-symmetric"])
    )
    n = draw(st.integers(1, 5))
    upper = draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
    M = np.triu(np.reshape(upper, (n, n)).astype(int), 1)
    M = M + M.T + (n + 1) * np.eye(n, dtype=int)
    faults = draw(
        st.lists(st.sampled_from(["shape", "empty", "count", "index", "token", "side"]), max_size=2)
    )
    if "side" in faults and n > 1:
        M[n - 1, 0] += 1
    # Column-major, as the format stores an array; the other symmetries
    # store the lower triangle, skew-symmetric without its diagonal.
    keep = {"general": -n, "skew-symmetric": 1}.get(symmetry, 0)
    cells = [(i, j) for j in range(n) for i in range(n) if i - j >= keep]
    if layout == "coordinate":
        cells = [(i, j) for i, j in cells if M[i, j]]
    values = {"complex": "{} 0", "pattern": ""}.get(field, "{}")
    entries = [[values.format(M[i, j])] for i, j in cells]
    if layout == "coordinate":
        entries = [[str(i + 1), str(j + 1), *values.format(M[i, j]).split()] for i, j in cells]
    if "token" in faults and entries and values:
        draw(st.sampled_from(entries))[-1] = draw(st.sampled_from(BAD_TOKENS))
    if "index" in faults and layout == "coordinate" and entries:
        index = str(draw(st.sampled_from([0, n + 1])))
        draw(st.sampled_from(entries))[draw(st.integers(0, 1))] = index
    rows, cols = (n, n + draw(st.sampled_from([-1, 1]))) if "shape" in faults else (n, n)
    if "empty" in faults:
        rows, cols = 0, draw(st.sampled_from([0, n]))
    count, body = len(entries), [" ".join(entry) for entry in entries]
    if "count" in faults:
        # A coordinate header declares the wrong count; an array body
        # loses or repeats entries.
        off = draw(st.sampled_from([-2, -1, 1, 2]))
        if layout == "coordinate":
            count = max(0, count + off)
        else:
            body = body[:off] if off < 0 else body + body[:off]
    size = f"{rows} {cols}" + (f" {count}" if layout == "coordinate" else "")
    header = f"%%MatrixMarket matrix {layout} {field} {symmetry}"
    return "\n".join([header, size, *body]) + "\n"


class TestHostileMatrixMarket:
    """psn solve on generated Matrix Market files, each in a process of
    its own (scipy's reader can kill one): it solves or refuses, with
    one error line and never a traceback or warning."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(text=matrix_market_files())
    @example(text="%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 3\n2 1 1\n2 2 3\n")
    def test_solves_or_refuses_in_one_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.mtx"
            path.write_text(text)
            done = run_cli_process("solve", "--matrix", str(path), "--b", "1", "--max-iter", "5")
        assert done.returncode in (0, 1, 2), (done.returncode, done.stderr)
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
        if done.returncode == 1:
            assert [line.startswith("error: ") for line in done.stderr.splitlines()] == [True]
        else:
            # A run that solved (0) or used its 5 iterations (2) writes its CSV.
            assert done.stdout.splitlines()[0] == "c,iteration,f_gap,grad_norm"


class TestBandOrders:
    """The heat and tridiagonal generators build bands, so their orders
    are not capped; a route that needs an n x n array still refuses an
    order above MAX_ORDER before it allocates one."""

    N = 2 * MAX_ORDER

    def test_band_rates_above_the_dense_limit(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        argv = ["rates", "--gen", f"heat:{self.N},0.1", "--scheme", "list:tau=5",
                "--c", "1,2", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert column(header, rows, "n") == [str(self.N)] * 2
        assert all(0.0 < float(v) for v in column(header, rows, "sigma3"))
        capsys.readouterr()
        # The rho matrix of the same order is dense and stays capped.
        assert main(["rates", "--gen", f"rho:{self.N},0.3", "--scheme", "list:tau=5"]) == 1
        assert capsys.readouterr().err == (
            f"error: a {self.N} x {self.N} matrix exceeds the dense limit {MAX_ORDER}\n"
        )

    def test_band_solve_and_tridiag_above_the_dense_limit(self, tmp_path, capsys):
        out = tmp_path / "heat.csv"
        argv = ["heat", "--n", str(self.N), "--c", "1,4", "--theta", "bound",
                "--max-iter", "3", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for c, line in zip((1, 4), err):
            assert line.startswith(f"c={c}: max-iterations after 3 iterations (b=")
        assert main(["tridiag", "--n-grid", str(self.N), "--alpha-grid", "0.3",
                     "--out", str(tmp_path / "t.csv")]) == 0

    @pytest.mark.parametrize(
        "argv, route",
        [
            (["rates", "--gen", "heat:{N},0.1", "--scheme", "nice:tau=1", "--c", "1,2",
              "--mc-samples", "10"], "the E of nice sampling"),
            (["rates", "--gen", "heat:{N},0.1", "--scheme", "nice:tau=1"],
             "the E of nice sampling"),
            # E is taken over one constituent set: a nice set here.
            (["rates", "--gen", "tridiag:{N},0.3", "--scheme", "non-overlapping:tau=1"],
             "the E of nice sampling"),
            (["rates", "--gen", "heat:{N},0.1", "--scheme", "list:tau=2000"],
             "the E of list sampling"),
            (["heat", "--n", "{N}", "--scheme", "nice:tau=1", "--theta", "exact"],
             "the E of nice sampling"),
            (["solve", "--gen", "tridiag:{N},0.3", "--scheme", "nice:tau=1", "--theta", "exact"],
             "the E of nice sampling"),
        ],
    )
    def test_dense_routes_refused_before_allocating(self, capsys, monkeypatch, argv, route):
        # expected_lifted_inverse refuses a dense E before it inverts a
        # block or allocates its n x n accumulator.
        def no_blocks(*args, **kwargs):
            raise AssertionError("block inverted")

        monkeypatch.setattr(psn.sampling, "_block_inverses", no_blocks)
        assert main([a.format(N=self.N) for a in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {route} needs a dense {self.N} x {self.N} array, "
            f"above the limit {MAX_ORDER}\n"
        )

    def test_dense_eigenvalue_route_refused_before_factoring(self, capsys, monkeypatch):
        # list:tau=1658 at n = 20000 keeps E a band (b_E = 1657 is
        # cheaper) but not L^T E L (b_G + b_E = 1659 is not).  E stands
        # in as three of its diagonals, which carry the same bandwidth.
        n, w = self.N, 1657
        E = scipy.sparse.dia_array((np.ones((3, n)), [-w, 0, w]), shape=(n, n))
        E.data.flags.writeable = False
        monkeypatch.setattr(
            psn.rates, "expected_lifted_inverse", lambda *args: ExpectedInverse(E)
        )

        def no_dense_factor(pair):
            raise AssertionError("dense factor made")

        monkeypatch.setattr(psn.rates.CurvaturePair, "_cholesky", no_dense_factor)
        argv = ["rates", "--gen", f"heat:{n},0.1", "--scheme", f"list:tau={w + 1}"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: the dense eigenvalue route needs a dense {n} x {n} array, "
            f"above the limit {MAX_ORDER}\n"
        )

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 36.4 TiB for an array with shape (5, 1000000000000) "
             "and data type float64", None),
            ("", "out of memory"),
        ],
    )
    def test_memory_error_is_one_line(self, capsys, monkeypatch, message, line):
        # A band order too large to allocate ends as bad input, not a
        # traceback; numpy's MemoryError names the allocation.
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(psn.cli, "make_heat_matrix", no_memory)
        assert main(["heat", "--n", "1000000000000"]) == 1
        assert capsys.readouterr().err == f"error: {line or message}\n"


class TestRates:
    def test_non_finite_matrix_entry(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nnan\nnan\n1\n")
        assert main(["rates", "--matrix", str(path), "--scheme", "nice:tau=1"]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_table_structure_and_closed_form(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(
            [
                "rates", "--gen", "rho:6,0.3", "--scheme", "nice:tau=2",
                "--c", "1,2,3,4", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "scheme", "n", "tau", "c", "tau_c", "sigma1", "theta", "lam",
            "b_min", "sigma_p", "sigma3", "sigma_b", "speedup", "guaranteed",
        ]
        closed = rho_closed_forms(6, 2, 0.3)
        sig1 = {float(v) for v in column(header, rows, "sigma1")}
        assert len(sig1) == 1
        assert sig1.pop() == pytest.approx(closed.sigma1, rel=1e-10)
        # speedup strictly increases with c while theta < 1
        speedups = [float(v) for v in column(header, rows, "speedup")]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        assert set(column(header, rows, "guaranteed")) == {"1"}
        # tau*c exceeds n on the last row, so the PCDM columns go blank
        assert column(header, rows, "sigma3")[-1] == ""
        assert column(header, rows, "sigma3")[0] != ""

    def test_scheme_column_is_the_kind(self, tmp_path):
        # tau and c have their own columns, so two spellings of one
        # scheme write the same table, and a row never shows another c.
        blobs = []
        for scheme in ("nice:tau=2", "parallel-nice:tau=2,c=4"):
            out = tmp_path / f"{scheme.partition(':')[0]}.csv"
            argv = ["rates", "--gen", "rho:8,0.3", "--scheme", scheme, "--c", "1,2"]
            assert main(argv + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        header, rows = read_csv(tmp_path / "nice.csv")
        assert column(header, rows, "scheme") == ["nice", "nice"]
        assert column(header, rows, "c") == ["1", "2"]

    def test_rates_solves_no_system(self, tmp_path, monkeypatch):
        # A rate table reads only the curvature pair: no minimiser is
        # solved for, so a failing solve cannot stop it.
        def refuse(M, q):
            raise np.linalg.LinAlgError("solve_pd was called")

        monkeypatch.setattr(psn.solver, "solve_pd", refuse)
        for source in (["--gen", "rho:6,0.3"], ["--gen", "dense:8,12"]):
            argv = ["rates", *source, "--c", "1,2", "--out", str(tmp_path / "r.csv")]
            assert main(argv) == 0
        assert main(["solve", "--gen", "rho:6,0.3", "--b", "1",
                     "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("samples", ["-5", "0", "1"])
    def test_monte_carlo_needs_two_samples(self, tmp_path, samples, capsys):
        argv = ["rates", "--gen", "rho:6,0.3", "--mc-samples", samples,
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: need at least 2 samples, got {samples}\n"

    def test_monte_carlo_leaving_coordinates_unsampled_is_refused(self, capsys):
        # 50 windows of 5 leave 67 of the 200 coordinates unsampled: that
        # E is singular, and sigma1 would be 0 up to round-off.
        argv = ["rates", "--gen", "heat:200,0.1", "--scheme", "list:tau=5", "--c", "1,2",
                "--mc-samples", "50"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 50 Monte Carlo draws never sampled 67 of the 200 coordinates; "
            "give a larger --mc-samples\n"
        )

    def test_non_overlapping_not_guaranteed(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(
            [
                "rates", "--gen", "rho:6,0.3",
                "--scheme", "non-overlapping:tau=2,c=3", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert set(column(header, rows, "guaranteed")) == {"0"}

    def test_monte_carlo_close_to_enumeration(self, tmp_path):
        exact_p, mc_p = tmp_path / "e.csv", tmp_path / "m.csv"
        base = ["rates", "--gen", "rho:6,0.3", "--scheme", "nice:tau=2"]
        assert main(base + ["--out", str(exact_p)]) == 0
        assert main(base + ["--mc-samples", "20000", "--out", str(mc_p)]) == 0
        he, re_ = read_csv(exact_p)
        hm, rm = read_csv(mc_p)
        exact = float(column(he, re_, "sigma1")[0])
        approx = float(column(hm, rm, "sigma1")[0])
        assert approx == pytest.approx(exact, abs=0.02)

    def test_matrix_input(self, tmp_path):
        write_matrix(tmp_path / "m.mtx", make_rho_matrix(5, 0.5))
        out = tmp_path / "rates.csv"
        code = main(
            ["rates", "--matrix", str(tmp_path / "m.mtx"), "--scheme",
             "nice:tau=2", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 1

    def test_identity_sigma_p_grows_toward_one(self, tmp_path):
        write_matrix(tmp_path / "eye.mtx", np.eye(4))
        out = tmp_path / "rates.csv"
        code = main(
            [
                "rates", "--matrix", str(tmp_path / "eye.mtx"),
                "--scheme", "nice:tau=2", "--c", "1,2,8,32", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        # sigma1 = theta = tau/n for the identity
        assert {float(v) for v in column(header, rows, "sigma1")} == {0.5}
        assert {float(v) for v in column(header, rows, "theta")} == {0.5}
        sps = [float(v) for v in column(header, rows, "sigma_p")]
        assert all(b > a for a, b in zip(sps, sps[1:]))
        assert sps[0] == pytest.approx(0.5) and sps[-1] > 0.9

    def test_dense_decomposition_keeps_sigma3_flat(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(
            [
                "rates", "--gen", "dense:8,12", "--scheme", "nice:tau=2",
                "--c", "1,2,3", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        sig3 = [float(v) for v in column(header, rows, "sigma3")]
        assert max(sig3) - min(sig3) <= 1e-12 * max(sig3)

    def test_enumeration_infeasible_needs_monte_carlo(self, tmp_path, capsys):
        argv = ["rates", "--gen", "rho:30,0.5", "--scheme", "nice:tau=10",
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert "monte-carlo" in capsys.readouterr().err
        assert main(argv[:-2] + ["--mc-samples", "2000", "--out",
                                 str(tmp_path / "r.csv")]) == 0


class TestClosedFormTables:
    def test_rho_command(self, tmp_path):
        out = tmp_path / "rho.csv"
        code = main(
            [
                "rho", "--n", "16", "--tau", "2", "--rho-grid", "0.3,0.5",
                "--c", "1,2", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "n", "tau", "rho", "c", "sigma1", "theta", "b_min", "sigma_p", "speedup",
        ]
        assert len(rows) == 4
        for row in rows:
            rho = float(row[header.index("rho")])
            c = int(row[header.index("c")])
            closed = rho_closed_forms(16, 2, rho)
            assert float(row[header.index("sigma1")]) == pytest.approx(closed.sigma1)
            assert float(row[header.index("b_min")]) == pytest.approx(
                (c - 1) * closed.theta + 1.0
            )

    def test_rho_extremes(self, tmp_path):
        out = tmp_path / "rho.csv"
        code = main(
            [
                "rho", "--n", "1024", "--tau", "2", "--rho-grid", "0.1,0.9",
                "--c", "1,16", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        speedup = {
            (row[header.index("rho")], row[header.index("c")]): float(
                row[header.index("speedup")]
            )
            for row in rows
        }
        # weaker coupling parallelises better, and c=1 never speeds up
        assert speedup[("0.1", "16")] > speedup[("0.9", "16")]
        assert speedup[("0.1", "1")] == 1.0
        assert speedup[("0.9", "1")] == 1.0

    def test_tridiag_command(self, tmp_path):
        out = tmp_path / "tri.csv"
        code = main(
            ["tridiag", "--n-grid", "5,8,32", "--alpha-grid", "0,0.3,0.45",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["n", "alpha", "sigma1", "theta", "bound"]
        assert len(rows) == 9
        for row in rows:
            theta = float(row[header.index("theta")])
            bound = float(row[header.index("bound")])
            assert theta <= bound + 1e-12
            if float(row[header.index("alpha")]) == 0.0:
                assert theta == pytest.approx(bound, abs=1e-12)

    def test_heat_command(self, tmp_path, capsys):
        out = tmp_path / "heat.csv"
        code = main(["heat", "--n", "50", "--b", "1", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["c", "iteration", "f_gap", "grad_norm"]
        assert float(rows[-1][3]) <= 1e-8
        assert "converged" in capsys.readouterr().err

    def test_heat_full_scale_with_bound_damping(self, tmp_path):
        out = tmp_path / "heat.csv"
        code = main(
            [
                "heat", "--n", "1000", "--b", "auto", "--theta", "bound",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[-1][3]) <= 1e-8


class TestErm:
    @staticmethod
    def write_dataset(path, seed=0, labels01=False):
        rng = np.random.default_rng(seed)
        lines = []
        for _ in range(12):
            y = rng.integers(0, 2)
            label = y if labels01 else (2 * y - 1)
            feats = " ".join(
                f"{j + 1}:{rng.standard_normal():.4f}" for j in range(4)
            )
            lines.append(f"{label} {feats}")
        path.write_text("\n".join(lines) + "\n")

    def test_squared_loss_run(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        self.write_dataset(data)
        out = tmp_path / "erm.csv"
        code = main(
            [
                "erm", "--data", str(data), "--scheme", "nice:tau=3",
                "--b", "1", "--tol", "1e-8", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["c", "iteration", "primal", "dual", "gap"]
        assert float(rows[-1][4]) <= 1e-8
        assert "converged" in capsys.readouterr().err

    def test_logistic_with_zero_one_labels(self, tmp_path):
        data = tmp_path / "train.txt"
        self.write_dataset(data, seed=1, labels01=True)
        out = tmp_path / "erm.csv"
        code = main(
            [
                "erm", "--data", str(data), "--loss", "logistic",
                "--epsilon", "0.01", "--scheme", "nice:tau=4",
                "--b", "1", "--tol", "1e-5", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[-1][4]) <= 1e-5

    def test_parallel_erm(self, tmp_path):
        data = tmp_path / "train.txt"
        self.write_dataset(data, seed=2)
        code = main(
            [
                "erm", "--data", str(data), "--scheme", "nice:tau=2",
                "--c", "1,2", "--b", "auto", "--theta", "exact",
                "--tol", "1e-8", "--out", str(tmp_path / "e.csv"),
            ]
        )
        assert code == 0

    def test_missing_file(self, capsys):
        assert main(["erm", "--data", "nope.txt", "--b", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        # 8 undamped blocks of 10 of the 20 dual coordinates overshoot;
        # the run stops on the divergence guard, with no overflow warning.
        rng = np.random.default_rng(0)
        data = tmp_path / "train.txt"
        data.write_text("".join(
            f"{float(rng.standard_normal())!r} "
            + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(rng.standard_normal(5)))
            + "\n"
            for _ in range(20)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "erm", "--data", str(data), "--loss", "squared", "--reg", "0.01",
                    "--scheme", "nice:tau=10", "--c", "8", "--b", "1",
                    "--out", str(tmp_path / "e.csv"),
                ]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: objective increased")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "value, flags, names",
        [
            ("1", ["--reg", "nan", "--b", "2"], "lam_reg"),
            ("nan", ["--b", "2"], "A and y"),
            ("1", ["--reg", "inf", "--theta", "bound"], "lam_reg"),
            ("1", ["--loss", "logistic", "--epsilon", "nan", "--b", "2"], "epsilon"),
            ("1", ["--loss", "logistic", "--epsilon", "inf", "--theta", "exact"], "epsilon"),
            ("1", ["--reg", "5e-324", "--b", "2"], "lam_reg=5e-324"),
        ],
        ids=["reg-nan", "data-nan", "reg-inf", "epsilon-nan", "epsilon-inf", "reg-tiny"],
    )
    def test_non_finite_input_fails_early(self, tmp_path, capsys, value, flags, names):
        data = tmp_path / "train.txt"
        data.write_text(f"1 1:{value} 2:0.5\n-1 1:0.25 2:-1\n1 1:2 2:1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["erm", "--data", str(data), *flags, "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and names in err
        assert len(err.splitlines()) == 1

    def test_empty_dataset(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("\n")
        assert main(["erm", "--data", str(data), "--b", "1"]) == 1
        assert "no data" in capsys.readouterr().err

    def test_too_many_label_values(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1 1:1\n2 1:2\n3 1:3\n")
        code = main(["erm", "--data", str(data), "--loss", "logistic", "--b", "1"])
        assert code == 1
        assert "two label values" in capsys.readouterr().err

    def test_repeated_feature_index(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("-1 1:0.5 2:1\n+1 1:2.0 1:3.0\n")
        assert main(["erm", "--data", str(data), "--b", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}:2: feature index 1 repeated\n"


class TestTopLevel:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (subs,) = [
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            name: sorted(
                option for action in sub._actions for option in action.option_strings
                if option not in ("-h", "--help")
            )
            for name, sub in subs.choices.items()
        }
        solver = ["--scheme", "--c", "--b", "--theta", "--tol", "--max-iter", "--threads"]
        assert flags == {
            "solve": sorted(["--matrix", "--gen", "--rhs", *solver, "--seed", "--out"]),
            "rates": sorted(["--matrix", "--gen", "--scheme", "--c", "--mc-samples",
                             "--seed", "--out"]),
            "rho": sorted(["--n", "--tau", "--rho-grid", "--c", "--out"]),
            "tridiag": sorted(["--n-grid", "--alpha-grid", "--out"]),
            "heat": sorted(["--n", "--r", *solver, "--seed", "--out"]),
            "erm": sorted(["--data", "--loss", "--reg", "--epsilon", *solver, "--seed", "--out"]),
        }
        assert sum(map(len, flags.values())) == 51

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-pcdm", "--gen", "rho:6,0.3"],
            ["rates", "--gen", "rho:6,0.3", "--rhs", "q.txt"],
            ["rho", "--seed", "9"],
            ["tridiag", "--seed", "9"],
        ],
        ids=["compare-pcdm", "rates-rhs", "rho-seed", "tridiag-seed"],
    )
    def test_unread_inputs_are_refused(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rates", "--seed", "inf"], "argument --seed: invalid int value: 'inf'"),
            (["solve", "--frobnicate"], "unrecognized arguments: --frobnicate"),
            ([], "the following arguments are required: command"),
        ],
        ids=["seed-inf", "unknown-flag", "no-subcommand"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--frobnicate"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_stdout_output(self, capsys):
        code = main(
            ["rho", "--n", "8", "--tau", "2", "--rho-grid", "0.5", "--c", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("n,tau,rho,c,sigma1")
