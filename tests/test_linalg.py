"""Matrix primitive tests against independent oracles.

Slicing operations are checked entry by entry with explicit loops,
small inverses against the 2x2 adjugate formula, eigen extremes against
characteristic-polynomial roots, and the generators against their
closed-form spectra and, bit for bit, against sums of diagonal
matrices.  The band route of solve_pd is checked against the dense
factor of tests/reference.py.
"""

import contextlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import psn.linalg
from psn.linalg import (
    _Band,
    _band_extremes,
    _band_is_cheaper,
    _band_lowest,
    _bandwidth,
    check_index_set,
    check_symmetric,
    eigen_extremes,
    invsqrt_pd,
    lifted_inverse,
    make_heat_matrix,
    make_rho_matrix,
    make_tridiagonal,
    psd_order_holds,
    solve_pd,
    sqrt_pd,
)
from psn.rates import CurvaturePair, rate_report, theta_cond_bound
from psn.sampling import KINDS, SamplingScheme, draw
from psn.solver import quadratic_objective

from reference import (
    reference_band_extremes,
    reference_bandwidth,
    reference_check_symmetric,
    reference_eigen_extremes,
    reference_make_heat_matrix,
    reference_make_tridiagonal,
    reference_solve_pd,
)

EPS = np.finfo(float).eps


def random_symmetric(n, rng):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def random_pd(n, rng, shift=0.5):
    A = rng.standard_normal((n, n))
    return A @ A.T + shift * np.eye(n)


@contextlib.contextmanager
def counting(module, name, record=lambda *args, **kwargs: 1):
    """A list that gets record(*args) for every call of module.name
    made inside the block."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, counted)
        yield calls


def counting_band_probes():
    """A list that gets one entry per banded Cholesky probe of the band
    bisection (scipy.linalg.lapack.dpbtrf) made inside the block."""
    return counting(scipy.linalg.lapack, "dpbtrf")


def counting_band_solves():
    """A list that gets the band's shape for every call of the band
    route (psn.linalg._band_extremes) made inside the block."""
    return counting(psn.linalg, "_band_extremes", lambda band: band.shape)


def counting_band_factors():
    """A list that gets one entry per banded Cholesky factorization
    (scipy.linalg.cholesky_banded) made inside the block."""
    return counting(scipy.linalg, "cholesky_banded")


def random_band(n, b, rng):
    """Symmetric n x n matrix with random entries on offsets -b..b,
    strictly diagonally dominant and so positive definite."""
    A = np.zeros((n, n))
    for k in range(1, b + 1):
        off = rng.uniform(-1.0, 1.0, n - k)
        A += np.diag(off, -k) + np.diag(off, k)
    return A + np.diag(2.0 * b + 1.0 + rng.uniform(0.0, 1.0, n))


def random_lower_band(b, n, rng):
    """(b+1) x n lower band storage of a random symmetric matrix,
    indefinite or (with a shifted diagonal) definite, zero-padded."""
    band = rng.standard_normal((b + 1, n))
    band[0] += rng.uniform(-3.0, 3.0) * b
    for k in range(1, b + 1):
        band[k, max(n - k, 0) :] = 0.0
    return band


def band_tolerance(band):
    """8 (b+1) eps ||A||_inf for the matrix stored in band: a few times
    the backward error of a banded Cholesky factorization, which both
    the bisection and the band reduction reach."""
    b, n = band.shape[0] - 1, band.shape[1]
    rows = np.abs(band[0])
    for k in range(1, min(b + 1, n)):
        off = np.abs(band[k, : n - k])
        rows[: n - k] += off
        rows[k:] += off
    return 8 * (b + 1) * EPS * rows.max()


def widest_band(n):
    """The widest bandwidth the band route takes at order n, or -1."""
    return max((b for b in range(n) if _band_is_cheaper(b, n)), default=-1)


def charpoly_roots(M):
    """Eigenvalues via Faddeev-LeVerrier coefficients and np.roots,
    an independent path from eigvalsh."""
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = M @ Mk
        ck = -np.trace(Mk) / k
        Mk += ck * np.eye(n)
        coeffs.append(ck)
    return np.sort(np.roots(coeffs).real)


class TestIndexSets:
    def test_sorted_and_validated(self):
        assert check_index_set([3, 1, 2], 5).tolist() == [1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_index_set([], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_index_set([0, 5], 5)
        with pytest.raises(ValueError):
            check_index_set([-1], 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            check_index_set([1, 1, 2], 5)


class TestLiftedInverse:
    def test_two_by_two_adjugate(self):
        rng = np.random.default_rng(21)
        M = random_pd(5, rng)
        S = np.array([1, 4])
        Z = lifted_inverse(M, S)
        a, b, c, d = M[1, 1], M[1, 4], M[4, 1], M[4, 4]
        det = a * d - b * c
        assert Z[1, 1] == pytest.approx(d / det, rel=1e-13)
        assert Z[1, 4] == pytest.approx(-b / det, rel=1e-13)
        assert Z[4, 4] == pytest.approx(a / det, rel=1e-13)
        mask = np.ones((5, 5), bool)
        mask[np.ix_(S, S)] = False
        assert np.all(Z[mask] == 0.0)

    def test_block_product_is_identity(self):
        rng = np.random.default_rng(22)
        M = random_pd(7, rng)
        S = np.array([0, 2, 5, 6])
        Z = lifted_inverse(M, S)
        block = Z[np.ix_(S, S)] @ M[np.ix_(S, S)]
        assert np.abs(block - np.eye(4)).max() < 1e-12

    def test_full_set_is_inverse(self):
        rng = np.random.default_rng(23)
        M = random_pd(4, rng)
        Z = lifted_inverse(M, np.arange(4))
        assert np.abs(Z @ M - np.eye(4)).max() < 1e-10

    def test_singular_block_raises(self):
        M = np.ones((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            lifted_inverse(M, [0, 1])


class TestGenerators:
    def test_rho_matrix_entries(self):
        M = make_rho_matrix(4, 0.3)
        assert np.all(np.diag(M) == 1.0)
        off = M[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.3)

    def test_rho_matrix_spectrum_closed_form(self):
        for n, rho in [(4, 0.5), (7, 0.2), (10, 0.9)]:
            w = np.linalg.eigvalsh(make_rho_matrix(n, rho))
            expect = np.sort([1.0 - rho] * (n - 1) + [n * rho - rho + 1.0])
            assert np.abs(w - expect).max() < 1e-12

    def test_rho_matrix_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                make_rho_matrix(4, bad)

    def test_tridiagonal_spectrum_closed_form(self):
        for n, alpha in [(5, 0.3), (8, 0.5), (12, 0.0)]:
            w = np.linalg.eigvalsh(make_tridiagonal(n, alpha).toarray())
            k = np.arange(1, n + 1)
            expect = np.sort(1.0 + 2.0 * alpha * np.cos(k * np.pi / (n + 1)))
            assert np.abs(w - expect).max() < 1e-12

    def test_tridiagonal_boundary_alpha_is_pd(self):
        # alpha = 0.5 keeps lambda_min = 1 + cos(n pi/(n+1)) > 0 for finite n
        for n in (5, 30):
            lo, _ = eigen_extremes(make_tridiagonal(n, 0.5))
            assert lo > 0.0

    def test_tridiagonal_domain(self):
        with pytest.raises(ValueError):
            make_tridiagonal(5, 0.50001)
        with pytest.raises(ValueError):
            make_tridiagonal(5, -0.1)

    def test_heat_matrix_stencil_entries(self):
        M = make_heat_matrix(5, 0.1).toarray()
        assert abs(M[2, 2] - 1.25) < 1e-15
        assert abs(M[2, 1] + 0.1 * 4.0 / 3.0) < 1e-15
        assert abs(M[2, 0] - 0.1 / 12.0) < 1e-15
        assert M[0, 3] == 0.0 and M[0, 4] == 0.0

    def test_heat_matrix_boundary_truncation(self):
        # Dirichlet truncation: boundary rows lose out-of-range stencil
        # entries but keep the full diagonal.
        M = make_heat_matrix(6, 0.1).toarray()
        assert np.count_nonzero(M[0]) == 3
        assert np.count_nonzero(M[1]) == 4
        assert np.count_nonzero(M[2]) == 5
        assert np.all(np.diag(M) == M[2, 2])

    def test_heat_matrix_gershgorin_condition(self):
        # default r keeps the Gershgorin condition estimate under 1.68:
        # every eigenvalue lies in [min(M_ii - R_i), max(M_ii + R_i)],
        # R_i the absolute off-diagonal sum of row i.
        for n in (10, 200):
            M = make_heat_matrix(n).toarray()
            radii = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
            lo, hi = (np.diag(M) - radii).min(), (np.diag(M) + radii).max()
            assert lo > 0.0
            assert hi / lo < 1.68

    def test_heat_matrix_domain(self):
        # NaN fails every comparison, so a check of r <= 0 alone lets it through.
        for r in (0.0, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="r must be positive and finite"):
                make_heat_matrix(5, r)
        with pytest.raises(ValueError):
            make_heat_matrix(0, 0.1)

    @pytest.mark.parametrize("n", [*range(1, 13), 1500])
    def test_banded_generators_match_sums_of_diagonals(self, n):
        # Bit for bit, signed zeros included: the sums of diagonal
        # matrices only add exact zeros.  The band is read-only and
        # stores exactly the diagonals that hold a nonzero.
        def same_bits(band, B):
            A = band.toarray()
            assert isinstance(band, scipy.sparse.dia_array)
            assert not band.data.flags.writeable
            assert _bandwidth(band) == reference_bandwidth(B)
            return A.shape == B.shape and A.dtype == B.dtype and A.tobytes() == B.tobytes()

        for r in (1e-300, 0.1, 1.0, 7.5e3):
            assert same_bits(make_heat_matrix(n, r), reference_make_heat_matrix(n, r))
        for alpha in (0.0, -0.0, 0.3, 0.5):
            assert same_bits(make_tridiagonal(n, alpha), reference_make_tridiagonal(n, alpha))

    @pytest.mark.parametrize(
        "make, reference, args",
        [
            *[(make_heat_matrix, reference_make_heat_matrix, (5, r))
              for r in (0.0, -0.1, np.nan, np.inf, -np.inf)],
            (make_heat_matrix, reference_make_heat_matrix, (0, 0.1)),
            *[(make_tridiagonal, reference_make_tridiagonal, (5, alpha))
              for alpha in (0.50001, -0.1, np.nan)],
            (make_tridiagonal, reference_make_tridiagonal, (0, 0.3)),
        ],
    )
    def test_banded_generators_refuse_as_sums_of_diagonals(self, make, reference, args):
        with pytest.raises(ValueError) as expected:
            reference(*args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            make(*args)


def traced_peak(build, n):
    """Peak memory traced while build() runs, in n x n float64 arrays."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / (8 * n * n)
    finally:
        tracemalloc.stop()


class TestSetUpMemory:
    """A banded quadratic is held in band storage from its generator to
    its rate constants: each step peaks below 0.02 of one n x n array
    (1.4 MB at n = 3000)."""

    N = 3000

    @pytest.mark.parametrize("make, arg", [(make_heat_matrix, 0.1), (make_tridiagonal, 0.3)])
    def test_generator_writes_one_array(self, make, arg):
        # One (2b + 1) x n array of diagonals, not n x n.
        assert traced_peak(lambda: make(self.N, arg), self.N) < 0.02

    def test_banded_objective_forms_no_dense_factor(self):
        M = make_heat_matrix(self.N)
        q = np.ones(self.N)
        assert traced_peak(lambda: quadratic_objective(M, q), self.N) < 0.02

    def test_bound_and_rate_row_in_band_memory(self):
        # A fresh pair, so that its check and extremes are traced too.
        objective = quadratic_objective(make_heat_matrix(self.N), np.ones(self.N))
        bound = traced_peak(lambda: CurvaturePair(objective.M, objective.M).cond_bound(5), self.N)
        scheme = SamplingScheme("list", self.N, 5, 4)
        row = traced_peak(lambda: rate_report(objective.curvature(), scheme), self.N)
        assert bound < 0.02 and row < 0.02


class TestBlockGather:
    """A _Band's fancy index reads its blocks bit for bit as a fancy
    index reads the array."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_band_blocks_equal_dense_blocks(self, data):
        # Bands of any width, symmetric or not (an expected inverse need
        # not be), with inner diagonals all zero (so not stored) and
        # offsets in any order, built from the diagonals of an array, a
        # dia_array and a csr_array, under draws of every sampling kind.
        # The other two readers of the stored diagonals, lower() and the
        # band check of check_symmetric, are checked on the same bands.
        n = data.draw(st.integers(1, 60), label="n")
        b = data.draw(st.integers(0, n - 1), label="b")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        M = np.triu(np.tril(rng.standard_normal((n, n)), b), -b)
        if data.draw(st.booleans(), label="symmetric"):
            M = M + M.T
        for k in data.draw(st.sets(st.integers(-b, b)), label="zero diagonals"):
            M[np.eye(n, k=k, dtype=bool)] = 0.0
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        tau = data.draw(st.integers(1, n), label="tau")
        c = data.draw(st.integers(1, max(1, n // tau) if kind == "non-overlapping" else 4), label="c")
        sets = draw(SamplingScheme(kind, n, tau, c), rng)
        rows, cols = sets[:, :, None], sets[:, None, :]
        want = M[rows, cols]
        width = reference_bandwidth(np.abs(M) + np.abs(M.T))
        order = data.draw(st.permutations(range(-width, width + 1)), label="offset order")
        lower = np.zeros((width + 1, n))
        for k in range(width + 1):
            lower[k, : n - k] = M.diagonal(-k)
        checked = check_outcome(reference_check_symmetric, M)
        for source in (M, scipy.sparse.dia_array(M), scipy.sparse.csr_array(M)):
            diagonals = {k: source.diagonal(k) for k in order}
            band = _Band.from_diagonals(n, diagonals)
            got = band[rows, cols]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert band.lower().tobytes() == lower.tobytes()
            # The switch is forced so that every band takes the band check.
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(psn.linalg, "_band_is_cheaper", lambda b, n: True)
                got = check_outcome(check_symmetric, band)
            if isinstance(checked, str):
                assert got == checked
            else:
                assert got.toarray().tobytes() == checked.tobytes()
                assert (got is band) == (checked is M)

    def test_layout_built_once_per_band(self):
        M = make_heat_matrix(300)
        sets = np.array([[0, 1, 2], [297, 298, 299]])
        rows, cols = sets[:, :, None], sets[:, None, :]
        first = M[rows, cols]
        padded = M._padded
        assert M[rows, cols].tobytes() == first.tobytes()
        assert M._padded is padded and padded[0].shape == (len(M.offsets) + 1, 300)


class TestSpectra:
    def test_eigen_extremes_against_charpoly(self):
        rng = np.random.default_rng(31)
        for n in (3, 4):
            for _ in range(5):
                M = random_symmetric(n, rng)
                roots = charpoly_roots(M)
                lo, hi = eigen_extremes(M)
                assert lo == pytest.approx(roots[0], abs=1e-8)
                assert hi == pytest.approx(roots[-1], abs=1e-8)

    def test_eigen_extremes_diagonal(self):
        lo, hi = eigen_extremes(np.diag([3.0, -1.0, 2.0]))
        assert (lo, hi) == (-1.0, 3.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_banded_route_matches_dense_reference(self, data):
        # Random symmetric (indefinite) matrices of every bandwidth, with
        # bandwidths just either side of the switch, a zero corner over a
        # full interior, and an all-zero row.  Both routes are backward
        # stable, so the extremes agree within a few n eps ||M||.
        n = data.draw(st.integers(1, 240), label="n")
        switch = widest_band(n)
        shape = data.draw(st.sampled_from(["band", "switch", "zero-corner"]), label="shape")
        if shape == "switch":
            b = min(n - 1, max(0, switch + data.draw(st.integers(-1, 2), label="offset")))
        else:
            b = data.draw(st.integers(0, n - 1), label="b")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e4]), label="scale")
        M = scale * rng.standard_normal((n, n))
        M = M + M.T
        if shape == "zero-corner":
            M[n - 1, 0] = M[0, n - 1] = 0.0
        else:
            M = np.triu(np.tril(M, b), -b)
        if data.draw(st.booleans(), label="zero row"):
            k = data.draw(st.integers(0, n - 1), label="row")
            M[k, :] = M[:, k] = 0.0
        width = reference_bandwidth(M)
        assert _bandwidth(M) == width
        with counting_band_solves() as solves:
            lo, hi = eigen_extremes(M)
        assert bool(solves) == _band_is_cheaper(width, n)
        ref_lo, ref_hi = reference_eigen_extremes(M)
        tol = 8 * n * np.finfo(float).eps * max(abs(ref_lo), abs(ref_hi))
        assert abs(lo - ref_lo) <= tol
        assert abs(hi - ref_hi) <= tol

    def test_switch_follows_the_bandwidth(self):
        # The measured crossover table of _band_is_cheaper's docstring.
        assert _band_is_cheaper(0, 105) and not _band_is_cheaper(0, 104)
        assert _band_is_cheaper(2, 129) and not _band_is_cheaper(2, 128)
        assert _band_is_cheaper(6, 1500) and _band_is_cheaper(64, 873)
        assert not _band_is_cheaper(64, 872)
        assert widest_band(60) == -1 and widest_band(1500) == 116

    @pytest.mark.parametrize("n", [25, 100, 400])
    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_banded_tridiagonal_closed_form(self, n, alpha):
        # Eigenvalues 1 + 2 alpha cos(k pi/(n+1)), k = 1..n.
        with counting_band_solves() as solves:
            lo, hi = eigen_extremes(make_tridiagonal(n, alpha))
        assert bool(solves) == _band_is_cheaper(1, n) == (n == 400)
        tol = 8 * n * np.finfo(float).eps * (1.0 + 2.0 * alpha)
        assert abs(lo - (1.0 + 2.0 * alpha * np.cos(n * np.pi / (n + 1)))) <= tol
        assert abs(hi - (1.0 + 2.0 * alpha * np.cos(np.pi / (n + 1)))) <= tol

    def test_dense_corner_reads_no_further(self):
        M = np.zeros((50, 50))
        M[49, 0] = M[0, 49] = 1.0
        assert _bandwidth(M) == 49
        with counting_band_solves() as solves:
            assert eigen_extremes(M) == reference_eigen_extremes(M)
        assert solves == []

    def test_condition_number_diagonal(self):
        # With tau = n the theta bound (tau/n) cond(M) is cond(M).
        assert theta_cond_bound(2, np.diag([2.0, 8.0])) == pytest.approx(4.0)

    def test_condition_number_requires_pd(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            theta_cond_bound(2, np.diag([1.0, -1.0]))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            theta_cond_bound(1, np.zeros((3, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigen_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_check_symmetric_returns_symmetric_part(self):
        rng = np.random.default_rng(33)
        M = random_symmetric(5, rng)
        assert check_symmetric(M) is M  # exactly symmetric: no copy
        near = M.copy()
        near[0, 3] += 1e-12
        out = check_symmetric(near)
        assert np.array_equal(out, out.T)
        assert np.array_equal(out, 0.5 * (near + near.T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_symmetric_rejects_non_finite(self, bad):
        # Symmetric placement: M - M.T is NaN there, and a NaN passes
        # every comparison-based tolerance test.
        M = np.eye(3)
        M[0, 1] = M[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(M)

    def test_check_symmetric_scale_is_largest_magnitude(self):
        # Every entry is near -1e6, so the largest entry is negative;
        # the tolerance is relative to the largest magnitude, 1e6.
        rng = np.random.default_rng(34)
        M = -1e6 - random_symmetric(4, rng) ** 2
        near = M.copy()
        near[0, 2] += 1e-5  # relative asymmetry 1e-11
        assert np.array_equal(check_symmetric(near), 0.5 * (near + near.T))
        far = M.copy()
        far[0, 2] += 1e-3  # relative asymmetry 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(far)

    def test_check_symmetric_rejects_only_negative_infinity(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(np.full((3, 3), -np.inf))


def check_outcome(check, M):
    """What check(M) gives: the returned array or the error text."""
    try:
        return check(M)
    except ValueError as err:
        return str(err)


class TestOnePassCheck:
    """check_symmetric against the full passes of
    reference_check_symmetric: the same error text or the same bits,
    stored by the one rule."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_full_passes(self, data):
        # Bandwidths up to the widest the band route takes at n and
        # beyond; a flaw inside the band or outside it (which widens it).
        n = data.draw(st.integers(1, 300), label="n")
        b = data.draw(
            st.integers(0, max(0, widest_band(n))) | st.integers(0, n - 1), label="b"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e6]), label="scale")
        M = scale * rng.standard_normal((n, n))
        M = np.triu(np.tril(M + M.T, b), -b)
        if n > 1 and data.draw(st.sampled_from([False, False, True]), label="corner"):
            M[n - 1, 0] = M[0, n - 1] = scale
        flaw = data.draw(
            st.sampled_from(["none", "nan", "inf", "-inf", "near", "far"]), label="flaw"
        )
        if flaw != "none":
            inside = b == n - 1 or data.draw(st.booleans(), label="inside")
            offset = data.draw(
                st.integers(0, b) if inside else st.integers(b + 1, n - 1), label="offset"
            )
            i = data.draw(st.integers(offset, n - 1), label="row")
            j = i - offset
            if data.draw(st.booleans(), label="upper"):
                i, j = j, i
            if flaw in ("near", "far"):
                # Relative asymmetry 1e-12 passes, 1e-8 fails.
                bump = (1e-12 if flaw == "near" else 1e-8) * max(1.0, np.abs(M).max())
                M[i, j] += bump if i != j else 0.0
            else:
                M[i, j] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[flaw]
        want = check_outcome(reference_check_symmetric, M)
        got = check_outcome(check_symmetric, M)
        # The same matrix in sparse storage, stored by the same rule: a
        # _Band past the switch, an array below it.
        got_sparse = check_outcome(check_symmetric, scipy.sparse.csr_array(M))
        if isinstance(want, str):
            assert got == want
            assert got_sparse == want
            return
        width = reference_bandwidth(want)
        banded = _band_is_cheaper(width, n)
        for A in (got, got_sparse):
            assert isinstance(A, _Band) == banded
            assert not banded or (A.b == width and not A.data.flags.writeable)
            dense = A.toarray() if banded else A
            assert dense.dtype == want.dtype and dense.tobytes() == want.tobytes()
        # An exactly symmetric array below the switch comes back as it is.
        assert (got is M) == (want is M and not banded)

    @pytest.mark.parametrize("shape", [(0, 0), (3,), (2, 3)])
    def test_shapes(self, shape):
        M = np.zeros(shape)
        want = check_outcome(reference_check_symmetric, M)
        got = check_outcome(check_symmetric, M)
        assert got is M if want is M else got == want

    def test_complex(self):
        M = np.eye(3, dtype=complex)
        assert check_outcome(check_symmetric, M) == "matrix has complex entries"
        band = scipy.sparse.dia_array(M)
        assert check_outcome(check_symmetric, band) == "matrix has complex entries"

    def test_band_is_returned_as_it_is(self):
        # A symmetric _Band passes unchanged, its bandwidth read from its
        # offsets; a sparse matrix of another shape is refused.
        M = make_heat_matrix(400)
        assert check_symmetric(M) is M and M.b == 2
        wide = scipy.sparse.dia_array((np.ones((1, 400)), [0]), shape=(400, 401))
        assert check_outcome(check_symmetric, wide) == "expected a square matrix, got shape (400, 401)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(5, 3), (3, 5), (7, 7), (399, 0), (0, 399)])
    def test_non_finite_entry(self, bad, where):
        # On the diagonals of the band route, in the corners of the dense one.
        M = make_heat_matrix(400).toarray()
        M[where] = bad
        assert _band_is_cheaper(_bandwidth(M), 400) == (max(where) < 10)
        want = check_outcome(reference_check_symmetric, M)
        assert want == "matrix has non-finite entries"
        assert check_outcome(check_symmetric, M) == want

    def test_band_reads_two_sides(self):
        # A pattern wider above the diagonal than below it: the band
        # covers the upper triangle's nonzero too.
        M = make_heat_matrix(400).toarray()
        M[10, 20] = 1e-12
        assert _bandwidth(M) == 10
        A = check_symmetric(M)
        assert isinstance(A, _Band) and A.b == 10
        assert A.toarray().tobytes() == reference_check_symmetric(M).tobytes()


class TestStorageRule:
    """Every checked matrix is a _Band exactly when banded storage is
    cheaper, and an array otherwise, whatever type it came as."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(105, 260),
        side=st.sampled_from(["band", "array"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_input_type_is_stored_and_solved_alike(self, n, side, seed):
        # The widest band the rule keeps at n, or one diagonal more.
        b = widest_band(n) + (side == "array")
        rng = np.random.default_rng(seed)
        A, q = random_band(n, b, rng), rng.standard_normal(n)
        inputs = {
            "array": A,
            "csr": scipy.sparse.csr_array(A),
            "coo": scipy.sparse.coo_array(A),
            "dia": scipy.sparse.dia_array(A),
            "band": _Band.from_diagonals(n, {k: A.diagonal(k) for k in range(-b, b + 1)}),
        }
        scheme = SamplingScheme("list", n, 3)
        results = []
        for name, M in inputs.items():
            pair = CurvaturePair.from_hessian(M)
            for stored in (check_symmetric(M), pair.M, quadratic_objective(M, q).M):
                assert isinstance(stored, _Band if side == "band" else np.ndarray), name
                dense = stored.toarray() if side == "band" else stored
                assert dense.tobytes() == A.tobytes(), name
            results.append(
                (eigen_extremes(M), solve_pd(M, q).tobytes(), pair.enumerated_extremes(scheme))
            )
        assert all(result == results[0] for result in results)


class TestBandBisection:
    """_band_extremes against LAPACK's band reduction and closed forms."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        b=st.integers(0, 8),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_band_reduction(self, b, n, seed):
        band = random_lower_band(b, n, np.random.default_rng(seed))
        got, ref = _band_extremes(band), reference_band_extremes(band)
        tol = band_tolerance(band)
        assert abs(got[0] - ref[0]) <= tol and abs(got[1] - ref[1]) <= tol

    def test_zero_band(self):
        with counting_band_probes() as probes:
            assert _band_extremes(np.zeros((3, 10))) == (0.0, 0.0)
        assert probes == []

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_every_scale_ends(self, scale):
        # Each extreme halves a bracket of at most ||A||_inf down to
        # 2 (b+1) eps ||A||_inf: at most 51 probes, whatever the scale.
        band = random_lower_band(3, 50, np.random.default_rng(71))
        with counting_band_probes() as probes:
            lo, hi = _band_extremes(scale * band)
        assert len(probes) <= 2 * 51
        ref_lo, ref_hi = reference_band_extremes(band)
        tol = band_tolerance(band) * scale
        assert abs(lo - scale * ref_lo) <= tol and abs(hi - scale * ref_hi) <= tol

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        band = random_lower_band(2, 20, np.random.default_rng(72))
        band[1, 7] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            _band_extremes(band)

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_tridiagonal_order_1e5(self, alpha):
        # Eigenvalues 1 + 2 alpha cos(k pi/(n+1)), k = 1..n, of a band
        # built as 2 x n storage, never as an n x n array.
        n = 100_000
        band = np.zeros((2, n))
        band[0] = 1.0
        band[1, :-1] = alpha
        lo, hi = _band_extremes(band)
        tol = band_tolerance(band)
        assert abs(lo - (1.0 + 2.0 * alpha * np.cos(n * np.pi / (n + 1)))) <= tol
        assert abs(hi - (1.0 + 2.0 * alpha * np.cos(np.pi / (n + 1)))) <= tol


class TestPsdOrder:
    def test_rank_one_bump(self):
        rng = np.random.default_rng(41)
        A = random_pd(5, rng)
        v = rng.standard_normal(5)
        assert psd_order_holds(A, A + np.outer(v, v))
        assert not psd_order_holds(A + np.outer(v, v), A)

    def test_banded_difference_takes_banded_route(self):
        # B - A is +-1e-3 times a tridiagonal matrix with spectrum in
        # (0.5, 1.5), up to round-off, so its lambda_min has either sign.
        # Only lambda_min is read, so each call makes the probes of one
        # bisection of the tridiagonal band, half those of both extremes.
        M = make_heat_matrix(200)
        bump = 1e-3 * make_tridiagonal(200, 0.25)
        for A, B, holds in [(M, M + bump, True), (M + bump, M, False)]:
            band = check_symmetric(B - A).lower()
            with counting_band_probes() as both:
                _band_extremes(band)
            with counting_band_probes() as lowest:
                _band_lowest(band)
            with counting_band_solves() as solves, counting_band_probes() as probes:
                assert psd_order_holds(A, B) == holds
            assert band.shape == (2, 200) and solves == []
            assert len(probes) == len(lowest) > 0
            assert abs(2 * len(probes) - len(both)) <= 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psd_order_holds(np.eye(2), np.eye(3))


class TestSolvePd:
    def test_recovers_known_solution(self):
        rng = np.random.default_rng(51)
        M = random_pd(8, rng)
        x_true = rng.standard_normal(8)
        q = M @ x_true
        x = solve_pd(M, q)
        assert np.linalg.norm(M @ x - q) <= 1e-10 * np.linalg.norm(q)
        assert np.abs(x - x_true).max() < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_pd(np.diag([1.0, -1.0]), np.ones(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "diagonal, q",
        [([1e-300], [1e300]), ([1.0, 1e-300], [1.0, 1e300])],
        ids=["1x1", "2x2"],
    )
    def test_rejects_overflowing_solution(self, diagonal, q):
        # x = q / 1e-300 overflows to inf and the refined residual is
        # NaN or inf, which no "norm > target" test catches; the
        # overflow raises one error and warns nothing.
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            solve_pd(np.diag(diagonal), np.array(q))

    @pytest.mark.filterwarnings("error")
    def test_huge_right_hand_side_still_solves(self):
        # ||q|| overflows to inf, but x and its residual are finite.
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = np.array([1e200, -3e200])
        x = solve_pd(M, q)
        assert np.allclose(M @ x, q, rtol=1e-12, atol=0.0)

    def test_huge_right_hand_side_still_checks_the_residual(self, monkeypatch):
        # The residual target 1e-10 ||q|| stays finite for ||q|| above
        # 1e154, so a solve that is off by 1e-3 (1e-6 after refinement)
        # is caught.
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = np.array([1e200, -3e200])
        cho_solve = scipy.linalg.cho_solve
        monkeypatch.setattr(
            scipy.linalg, "cho_solve", lambda *args, **kw: cho_solve(*args, **kw) * (1 + 1e-3)
        )
        with pytest.raises(np.linalg.LinAlgError, match="relative residual"):
            solve_pd(M, q)


def band_route_order(b):
    """The smallest order at which solve_pd factors a band of width b."""
    return next(m for m in itertools.count(1) if _band_is_cheaper(b, m))


class TestSolvePdBandRoute:
    """solve_pd on a band past _band_is_cheaper: a banded Cholesky
    factor, checked as the dense route is."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        b=st.integers(0, 8),
        offset=st.integers(-30, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, b, offset, seed):
        # Orders on both sides of the switch; a diagonally dominant band
        # has condition number at most 4b + 2.
        n = band_route_order(b) + offset
        rng = np.random.default_rng(seed)
        M, q = random_band(n, b, rng), rng.standard_normal(n)
        with counting_band_factors() as factors:
            x = solve_pd(M, q)
        assert len(factors) == (offset >= 0)
        assert np.linalg.norm(M @ x - q) <= 1e-10 * np.linalg.norm(q)
        ref = reference_solve_pd(M, q)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()
        # The same band in diagonal storage takes the same route and bits.
        assert solve_pd(scipy.sparse.dia_array(M), q).tobytes() == x.tobytes()

    def test_rejects_indefinite(self):
        n = band_route_order(1)
        M = make_tridiagonal(n, 0.5) - 0.5 * np.eye(n)
        with counting_band_factors() as factors:
            with pytest.raises(np.linalg.LinAlgError, match="^matrix is not positive definite: "):
                solve_pd(M, np.ones(n))
        assert len(factors) == 1

    @pytest.mark.filterwarnings("error")
    def test_rejects_overflowing_solution(self):
        n = band_route_order(0)
        diagonal, q = np.ones(n), np.ones(n)
        diagonal[7], q[7] = 1e-300, 1e300
        with counting_band_factors() as factors:
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                solve_pd(np.diag(diagonal), q)
        assert len(factors) == 1

    def test_checks_the_residual(self, monkeypatch):
        # A band solve that is off by 1e-3 (1e-6 after refinement) is
        # caught, here with ||q|| above 1e154 as well.
        n = band_route_order(2)
        M = make_heat_matrix(n)
        cho_solve_banded = scipy.linalg.cho_solve_banded
        monkeypatch.setattr(
            scipy.linalg,
            "cho_solve_banded",
            lambda *args, **kw: cho_solve_banded(*args, **kw) * (1 + 1e-3),
        )
        for scale in (1.0, 1e200):
            with pytest.raises(np.linalg.LinAlgError, match="relative residual"):
                solve_pd(M, scale * np.ones(n))


class TestMatrixRoots:
    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(61)
        G = random_pd(6, rng)
        W = sqrt_pd(G)
        assert np.abs(W @ W - G).max() < 1e-10

    def test_invsqrt_whitens(self):
        rng = np.random.default_rng(62)
        G = random_pd(6, rng)
        Wi = invsqrt_pd(G)
        assert np.abs(Wi @ G @ Wi - np.eye(6)).max() < 1e-9
