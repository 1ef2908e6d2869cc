"""Golden outputs of the command line.

Each case runs one small CLI command and compares the sha256 of its
CSV with a hash recorded when the case was added.  A change to the
random stream or to the round-off of any step shows up here; such a
change must be stated in CHANGES.md and the hash updated with it.
"""

import hashlib

import numpy as np
import pytest

from psn.cli import main


def write_libsvm(path, d=6, n=40, seed=0):
    """A dense LIBSVM file with +-1 labels, values written as
    repr(float(v)) so the file is the same on every platform."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    y = np.where(rng.standard_normal(n) > 0.0, 1.0, -1.0)
    lines = [
        f"{int(label)} " + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row))
        for label, row in zip(y, A)
    ]
    path.write_text("\n".join(lines) + "\n")


CASES = {
    "heat": (
        ["heat", "--n", "60", "--scheme", "list:tau=5", "--c", "1,4", "--theta", "bound"],
        "17441bce51aa5ab1dd8c847ea28d98d546b5e46cd6daaa5d29f507c2cdae58df",
    ),
    "solve-dense-threads": (
        [
            "solve", "--gen", "dense:40,160", "--scheme", "nice:tau=8", "--c", "1,4",
            "--theta", "1", "--threads", "2",
        ],
        "0d29685a285905d2ef4d7eec723404f5a0705709b214aa20281e48bb0fc9a8fe",
    ),
    "erm-logistic": (
        [
            "erm", "--loss", "logistic", "--epsilon", "0.01", "--reg", "0.1",
            "--scheme", "nice:tau=4", "--c", "1,3", "--theta", "exact", "--tol", "1e-5",
        ],
        "d742795ab7ff5caff15a5e422f1d42a94cd8d3c741132c7da821ffeef6e51f7b",
    ),
    "erm-logistic-bound": (
        [
            "erm", "--loss", "logistic", "--epsilon", "0.1", "--reg", "0.1",
            "--scheme", "nice:tau=4", "--c", "1,3", "--theta", "bound", "--tol", "1e-5",
        ],
        "b24cc1614347b1c54552e3ae1ab5fe403d100bc8183ace6fbffa2ba12e8a374a",
    ),
    "erm-squared": (
        [
            "erm", "--loss", "squared", "--reg", "0.1", "--scheme", "nice:tau=4",
            "--c", "1,3", "--theta", "exact", "--tol", "1e-9",
        ],
        "ba35e821858dcd756d42062325b1c60d163077fd18a8ad70902d698310785c6b",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_csv_hash(name, tmp_path):
    argv, expected = CASES[name]
    if argv[0] == "erm":
        data = tmp_path / "train.txt"
        write_libsvm(data)
        argv = argv + ["--data", str(data)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
