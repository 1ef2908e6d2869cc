"""Round trips for the matrix and vector file formats."""

import numpy as np
import pytest
import scipy.sparse

from psn.linalg import _Band, make_heat_matrix
from psn.matrixio import read_matrix, read_vector, write_matrix, write_vector


def test_array_format_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    M = 0.5 * (A + A.T)
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    back = read_matrix(path)
    assert np.abs(back - M).max() < 1e-12
    assert "MatrixMarket" in path.read_text().splitlines()[0]


def test_band_round_trip(tmp_path):
    # A band is written in array format and read back by the storage
    # rule, as a band again, bit for bit.
    M = make_heat_matrix(200)
    path = tmp_path / "heat.mtx"
    write_matrix(path, M)
    assert path.read_text().startswith("%%MatrixMarket matrix array real symmetric")
    back = read_matrix(path)
    assert isinstance(back, _Band)
    assert back.toarray().tobytes() == M.toarray().tobytes()


def test_coordinate_format_symmetric(tmp_path):
    # sparse coordinate file with symmetric storage (lower triangle only)
    path = tmp_path / "coo.mtx"
    M = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(M), symmetry="symmetric")
    back = read_matrix(path)
    assert np.abs(back - M).max() == 0.0


def test_rejects_asymmetric_when_required(tmp_path):
    path = tmp_path / "bad.mtx"
    scipy.io.mmwrite(path, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        read_matrix(path)


def test_missing_file_raises_value_error():
    with pytest.raises(ValueError):
        read_matrix("/nonexistent/m.mtx")


def test_vector_round_trip(tmp_path):
    v = np.array([1.5, -2.25, 3e-17, 1e10])
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert path.read_text().count("\n") == 4
    back = read_vector(path)
    assert np.abs(back - v).max() < 1e-25 + 1e-12 * np.abs(v).max()


def test_vector_malformed(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError):
        read_vector(path)
