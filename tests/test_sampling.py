"""Sampling distribution and first-moment tests.

Probability matrices are cross-checked three ways: combinatorial
counting, the cyclic-gap formula for windows, and empirical draw
frequencies.  Expected lifted inverses are checked against hand-built
matrices, Monte Carlo agreement, and bit for bit against a loop over
per-set lifted inverses.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import psn.sampling
from psn.erm import ErmProblem, SquaredLoss
from psn.linalg import (
    MAX_ORDER,
    _Band,
    _band_is_cheaper,
    lifted_inverse,
    make_heat_matrix,
    make_rho_matrix,
    make_tridiagonal,
)
from psn.rates import CurvaturePair, rho_closed_forms, sigma1, theta
from psn.sampling import (
    KINDS,
    SamplingScheme,
    draw,
    draws,
    expected_lifted_inverse,
    parse_scheme,
)

from reference import lifted_submatrix, probability_matrix
from test_linalg import random_band


class TestSchemeValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SamplingScheme("fancy", 5, 2)

    def test_tau_range(self):
        with pytest.raises(ValueError):
            SamplingScheme("nice", 5, 0)
        with pytest.raises(ValueError):
            SamplingScheme("nice", 5, 6)

    def test_parallel_spelling_draws_the_same(self):
        for kind in ("nice", "list"):
            scheme = SamplingScheme(kind, 9, 2, c=3)
            spelled = parse_scheme(f"parallel-{kind}:tau=2,c=3", 9)
            assert spelled == scheme
            rng, ref = np.random.default_rng(4), np.random.default_rng(4)
            for _ in range(3):
                assert draw(scheme, rng).tobytes() == draw(spelled, ref).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_only_canonical_kinds(self):
        for kind in ("parallel-nice", "parallel-list"):
            with pytest.raises(ValueError, match="unknown sampling kind"):
                SamplingScheme(kind, 5, 2, c=2)
        with pytest.raises(ValueError, match="unknown sampling kind"):
            parse_scheme("parallel-non-overlapping:tau=2", 8)

    def test_non_overlapping_capacity(self):
        SamplingScheme("non-overlapping", 6, 2, c=3)
        with pytest.raises(ValueError):
            SamplingScheme("non-overlapping", 6, 2, c=4)

    def test_parse_round_trip(self):
        s = parse_scheme("list:tau=5,c=4", 20)
        assert (s.kind, s.n, s.tau, s.c) == ("list", 20, 5, 4)
        assert parse_scheme("parallel-list:tau=5,c=4", 20) == s
        s = parse_scheme("nice:tau=2", 7)
        assert (s.kind, s.tau, s.c) == ("nice", 2, 1)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_scheme("nice", 7)  # tau missing
        with pytest.raises(ValueError):
            parse_scheme("nice:tau=x", 7)
        with pytest.raises(ValueError):
            parse_scheme("nice:frobs=2", 7)
        # Keeping the last of a repeated parameter would hide a typo.
        for text, key in (("nice:tau=2,tau=5", "tau"), ("list:tau=2,c=3,c=1", "c"),
                          ("nice:tau=2, tau=2", "tau")):
            with pytest.raises(ValueError, match=f"repeats parameter '{key}'"):
                parse_scheme(text, 7)

    def test_with_workers_lifts_and_drops(self):
        s = parse_scheme("nice:tau=2", 8)
        assert s.with_workers(4) == SamplingScheme("nice", 8, 2, c=4)
        assert s.with_workers(4).with_workers(1) == s
        p = parse_scheme("parallel-list:tau=2,c=3", 8)
        assert p.with_workers(1) == SamplingScheme("list", 8, 2)
        no = SamplingScheme("non-overlapping", 8, 2, c=2)
        assert no.with_workers(4) == SamplingScheme("non-overlapping", 8, 2, c=4)
        with pytest.raises(ValueError):
            no.with_workers(5)


class TestDraws:
    def test_nice_full_tau_is_whole_set(self):
        scheme = SamplingScheme("nice", 6, 6)
        rng = np.random.default_rng(0)
        for _ in range(5):
            (S,) = draw(scheme, rng)
            assert S.tolist() == list(range(6))

    def test_nice_shape_and_range(self):
        scheme = SamplingScheme("nice", 9, 3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            (S,) = draw(scheme, rng)
            assert len(S) == 3
            assert len(set(S.tolist())) == 3
            assert np.all((0 <= S) & (S < 9))
            assert np.all(np.diff(S) > 0)

    def test_list_windows_are_cyclically_contiguous(self):
        n, tau = 7, 3
        windows = {
            tuple(sorted((s + k) % n for k in range(tau))) for s in range(n)
        }
        scheme = SamplingScheme("list", n, tau)
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(300):
            (S,) = draw(scheme, rng)
            key = tuple(S.tolist())
            assert key in windows
            seen.add(key)
        assert seen == windows  # all n windows occur

    def test_parallel_draw_structure(self):
        scheme = SamplingScheme("nice", 5, 2, c=2)
        rng = np.random.default_rng(3)
        sets = draw(scheme, rng)
        assert len(sets) == 2
        for S in sets:
            assert len(S) == 2 and np.all((0 <= S) & (S < 5))

    def test_parallel_draw_reproducible(self):
        scheme = SamplingScheme("list", 10, 3, c=4)
        a = draw(scheme, np.random.default_rng(42))
        b = draw(scheme, np.random.default_rng(42))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_non_overlapping_disjoint(self):
        scheme = SamplingScheme("non-overlapping", 10, 2, c=4)
        rng = np.random.default_rng(4)
        for _ in range(100):
            sets = draw(scheme, rng)
            assert len(sets) == 4
            union = np.concatenate(sets)
            assert len(np.unique(union)) == 8  # pairwise disjoint

    def test_non_overlapping_marginal_inclusion(self):
        # each chunk of the shuffled master set is a uniform tau-subset
        scheme = SamplingScheme("non-overlapping", 6, 2, c=2)
        rng = np.random.default_rng(5)
        trials = 20_000
        counts = np.zeros(6)
        for _ in range(trials):
            counts[draw(scheme, rng)[0]] += 1
        p = counts / trials
        se = np.sqrt((2 / 6) * (1 - 2 / 6) / trials)
        assert np.abs(p - 2 / 6).max() < 4 * se

    @pytest.mark.parametrize("kind", ["nice", "non-overlapping"])
    def test_stream_of_other_kinds_is_one_draw_each(self, kind):
        scheme = SamplingScheme(kind, 10, 2, c=3)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        stream = draws(scheme, rng)
        for _ in range(5):
            sets, starts = next(stream)
            assert starts is None and sets.tobytes() == draw(scheme, ref).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


def serial_draw(kind, n, tau, rng):
    """One draw of the serial scheme kind, written out from its
    definition: a sorted uniform tau-subset, or the sorted cyclic window
    at a uniform start."""
    if kind == "nice":
        return np.sort(rng.choice(n, size=tau, replace=False))
    return np.sort((int(rng.integers(n)) + np.arange(tau)) % n)


def draw_schemes(data, kinds, max_n):
    kind = data.draw(st.sampled_from(kinds), label="kind")
    n = data.draw(st.integers(1, max_n), label="n")
    tau = data.draw(st.integers(1, min(n, 8)), label="tau")
    c_max = n // tau if kind == "non-overlapping" else 6
    return SamplingScheme(kind, n, tau, data.draw(st.integers(1, c_max), label="c"))


class TestDrawProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_are_sorted_sets_in_range(self, data):
        scheme = draw_schemes(data, KINDS, 40)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        for _ in range(3):
            sets = draw(scheme, rng)
            assert sets.shape == (scheme.c, scheme.tau)
            assert sets.dtype == np.int64
            assert np.all(np.diff(sets, axis=1) > 0)  # sorted and distinct
            assert sets.min() >= 0 and sets.max() < scheme.n
            if scheme.kind == "non-overlapping":
                assert np.unique(sets).size == sets.size

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_are_successive_serial_draws(self, data):
        scheme = draw_schemes(data, ("nice", "list"), 10**6)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            expected = [
                serial_draw(scheme.constituent().kind, scheme.n, scheme.tau, ref)
                for _ in range(scheme.c)
            ]
            assert np.array_equal(draw(scheme, rng), expected)
            # Same state, so the next value of either stream is the same.
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_list_starts_drawn_ahead_are_successive_draws(self, data):
        # draws takes the starts of a chunk of list draws at once; its
        # rows are those of successive draw calls, across chunk ends and
        # at the default chunk too, and each row is its start's window.
        n = data.draw(st.one_of(st.integers(1, 64), st.integers(1, 2**31 + 11)), label="n")
        tau = data.draw(st.integers(1, min(n, 8)), label="tau")
        c = data.draw(st.integers(1, 16), label="c")
        entries = data.draw(
            st.one_of(st.integers(1, 4 * c * tau), st.just(psn.sampling._CHUNK_ENTRIES)),
            label="chunk entries",
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        scheme, ref = SamplingScheme("list", n, tau, c), np.random.default_rng(seed)
        with mock.patch.object(psn.sampling, "_CHUNK_ENTRIES", entries):
            stream = draws(scheme, np.random.default_rng(seed))
            per_chunk = max(1, entries // (c * tau))
            for k in range(per_chunk + 2 if per_chunk > 4 else 3 * per_chunk + 1):
                sets, starts = next(stream)
                want = draw(scheme, ref)
                assert sets.dtype == want.dtype and np.array_equal(sets, want), k
                assert starts.shape == (c,)
                windows = np.sort((starts[:, None] + np.arange(tau)) % n, axis=1)
                assert np.array_equal(sets, windows)


class TestProbabilityMatrix:
    def test_nice_against_subset_counting(self):
        n, tau = 5, 2
        P = probability_matrix(SamplingScheme("nice", n, tau))
        subsets = list(itertools.combinations(range(n), tau))
        for i in range(n):
            for j in range(n):
                hits = sum(1 for S in subsets if i in S and j in S)
                assert P[i, j] == pytest.approx(hits / len(subsets), abs=1e-15)

    def test_list_against_cyclic_gap_formula(self):
        for n, tau in [(6, 2), (7, 3), (5, 5)]:
            P = probability_matrix(SamplingScheme("list", n, tau))
            for i in range(n):
                for j in range(n):
                    if i == j:
                        assert P[i, j] == pytest.approx(tau / n, abs=1e-15)
                        continue
                    d = (j - i) % n
                    hits = max(0, tau - d) + max(0, tau - (n - d))
                    assert P[i, j] == pytest.approx(hits / n, abs=1e-15)

    def test_invariants_bounds_and_symmetry(self):
        for scheme in (
            SamplingScheme("nice", 8, 3),
            SamplingScheme("list", 8, 3),
            SamplingScheme("nice", 8, 3, c=2),
            SamplingScheme("non-overlapping", 8, 2, c=3),
        ):
            P = probability_matrix(scheme)
            p = np.diag(P)
            assert np.all(p > 0)
            assert np.abs(P - P.T).max() == 0.0
            cap = np.minimum.outer(p, p)
            assert np.all(P <= cap + 1e-15)
            assert np.all(P >= 0)

    @pytest.mark.parametrize("kind", ["nice", "list"])
    def test_matches_empirical_frequencies(self, kind):
        n, tau, trials = 5, 2, 100_000
        scheme = SamplingScheme(kind, n, tau)
        P = probability_matrix(scheme)
        rng = np.random.default_rng(6)
        counts = np.zeros((n, n))
        for _ in range(trials):
            (S,) = draw(scheme, rng)
            counts[np.ix_(S, S)] += 1
        emp = counts / trials
        se = np.sqrt(P * (1 - P) / trials)
        # entries with zero probability must never occur
        assert np.all(emp[P == 0] == 0)
        live = P > 0
        assert np.all(np.abs(emp - P)[live] <= 3 * se[live])


class TestExpectedInverse:
    def test_identity_nice(self):
        for n, tau in [(5, 2), (6, 4)]:
            E = expected_lifted_inverse(np.eye(n), SamplingScheme("nice", n, tau))
            assert np.abs(E.matrix - (tau / n) * np.eye(n)).max() < 1e-15

    def test_identity_list(self):
        E = expected_lifted_inverse(np.eye(6), SamplingScheme("list", 6, 2))
        assert np.abs(E.matrix - (2 / 6) * np.eye(6)).max() < 1e-15

    def test_rho_matrix_closed_form(self):
        M = make_rho_matrix(6, 0.4)
        E = expected_lifted_inverse(M, SamplingScheme("nice", 6, 3)).matrix
        assert np.abs(E - rho_closed_forms(6, 3, 0.4).expected_inverse()).max() < 1e-13

    def test_tridiagonal_two_list_hand_built(self):
        # n=4, alpha=0.3: windows {0,1},{1,2},{2,3} share the same 2x2
        # inverse with determinant 0.91; the wrap window {0,3} hits a
        # zero off-diagonal, so its block inverse is the identity.
        alpha, det = 0.3, 1 - 0.3**2
        T = make_tridiagonal(4, alpha)
        E = expected_lifted_inverse(T, SamplingScheme("list", 4, 2)).matrix
        d_in, off = 1 / det, -alpha / det
        expect = (
            np.array(
                [
                    [d_in + 1, off, 0, 0],
                    [off, 2 * d_in, off, 0],
                    [0, off, 2 * d_in, off],
                    [0, 0, off, d_in + 1],
                ]
            )
            / 4.0
        )
        assert np.abs(E - expect).max() < 1e-15

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6))
        M = A @ A.T + 0.5 * np.eye(6)
        for scheme in (SamplingScheme("nice", 6, 3), SamplingScheme("list", 6, 3)):
            E = expected_lifted_inverse(M, scheme).matrix
            assert np.abs(E - E.T).max() < 1e-14
            assert np.linalg.eigvalsh(E)[0] > 0

    def test_parallel_reduces_to_constituent(self):
        M = make_rho_matrix(5, 0.5)
        serial = expected_lifted_inverse(M, SamplingScheme("nice", 5, 2)).matrix
        par = expected_lifted_inverse(
            M, SamplingScheme("nice", 5, 2, c=3)
        ).matrix
        non = expected_lifted_inverse(
            M, SamplingScheme("non-overlapping", 5, 2, c=2)
        ).matrix
        assert np.array_equal(serial, par)
        assert np.array_equal(serial, non)

    def test_monte_carlo_agrees_with_enumeration(self):
        M = make_rho_matrix(5, 0.5)
        scheme = SamplingScheme("nice", 5, 2)
        exact = expected_lifted_inverse(M, scheme).matrix
        mc = expected_lifted_inverse(M, scheme, samples=100_000, seed=11).matrix
        # The Frobenius standard error of the mean, from the same draws.
        sets = draw(scheme.with_workers(100_000), np.random.default_rng(11))
        lifted = np.zeros((len(sets), 5, 5))
        lifted[np.arange(len(sets))[:, None, None], sets[:, :, None], sets[:, None, :]] = (
            np.linalg.inv(M[sets[:, :, None], sets[:, None, :]])
        )
        assert np.abs(lifted.mean(axis=0) - mc).max() < 1e-14
        se = math.sqrt(lifted.var(axis=0, ddof=1).sum() / len(sets))
        assert 0 < np.linalg.norm(mc - exact) <= 5 * se

    def test_enumeration_refused_beyond_limit(self):
        M = np.eye(30)
        with pytest.raises(ValueError, match="monte-carlo"):
            expected_lifted_inverse(M, SamplingScheme("nice", 30, 10))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expected_lifted_inverse(np.eye(4), SamplingScheme("nice", 5, 2))

    @pytest.mark.parametrize("samples", [-5, 0, 1])
    def test_sample_count_below_two_rejected(self, samples):
        # A count never falls back to enumeration: Monte Carlo runs
        # exactly when one is given.
        with pytest.raises(ValueError, match=f"need at least 2 samples, got {samples}"):
            expected_lifted_inverse(np.eye(4), SamplingScheme("nice", 4, 2), samples)


def loop_expected_inverse(M, scheme, samples=None, seed=0):
    """E[(M_S)^{-1}] summed one n x n lifted inverse at a time over the
    same sets, in the same order, as expected_lifted_inverse; a band M
    is read densely."""
    n, tau = scheme.n, scheme.tau
    if scipy.sparse.issparse(M):
        M = M.toarray()
    if samples is not None:
        rng = np.random.default_rng(seed)
        sets = [draw(scheme, rng)[0] for _ in range(samples)]
    elif scheme.kind == "list":
        sets = [np.sort((start + np.arange(tau)) % n) for start in range(n)]
    else:
        sets = [np.array(S) for S in itertools.combinations(range(n), tau)]
    acc = np.zeros((n, n))
    for S in sets:
        acc += lifted_inverse(M, S)
    return acc / len(sets)


def random_pd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n + 2, n))
    return B.T @ B + 0.5 * np.eye(n)


class TestBatchedAssembly:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bitwise_equal_to_loop(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        tau = data.draw(st.integers(1, n), label="tau")
        kind = data.draw(st.sampled_from(["nice", "list"]), label="kind")
        samples = data.draw(st.sampled_from([None, 60]), label="samples")
        seed = data.draw(st.integers(0, 2**31), label="seed")
        M = random_pd_matrix(n, seed)
        scheme = SamplingScheme(kind, n, tau)
        got = expected_lifted_inverse(M, scheme, samples, seed)
        want = loop_expected_inverse(M, scheme, samples, seed)
        assert got.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("samples", [None, 4845], ids=["enumerate", "monte-carlo"])
    def test_bitwise_across_chunks(self, samples):
        # C(20, 4) = 4845 subsets, and as many draws, span two batches
        # of 4096 sets at tau = 4.
        M = random_pd_matrix(20, 3)
        scheme = SamplingScheme("nice", 20, 4)
        got = expected_lifted_inverse(M, scheme, samples, seed=5)
        want = loop_expected_inverse(M, scheme, samples, seed=5)
        assert got.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("samples", [None, 10], ids=["enumerate", "monte-carlo"])
    def test_matrix_is_read_only(self, samples):
        E = expected_lifted_inverse(np.eye(4), SamplingScheme("nice", 4, 2), samples)
        assert not E.matrix.flags.writeable
        with pytest.raises(ValueError):
            E.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("corner", [1.0, 1.0 + 1e-15], ids=["singular", "ill-conditioned"])
    @pytest.mark.parametrize("samples", [None, 50], ids=["enumerate", "monte-carlo"])
    def test_bad_block_names_its_set(self, corner, samples):
        # Only the window {1, 2} has a bad block: [[1, 1], [1, corner]].
        M = np.eye(4)
        M[1, 2] = M[2, 1] = 1.0
        M[2, 2] = corner
        scheme = SamplingScheme("list", 4, 2)
        with pytest.raises(np.linalg.LinAlgError, match=r"\[1, 2\]"):
            expected_lifted_inverse(M, scheme, samples)


class TestBandStorage:
    """List-sampling E of a narrow band M, kept as its diagonals."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_band_equals_loop_bit_for_bit(self, data):
        # n from just below the switch at tau - 1 to past it.
        tau = data.draw(st.integers(1, 8), label="tau")
        switch = next(m for m in itertools.count(1) if _band_is_cheaper(tau - 1, m))
        n = data.draw(st.integers(max(tau, switch - 8), switch + 40), label="n")
        kind = data.draw(st.sampled_from(["heat", "tridiagonal", "band"]), label="matrix")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
        if kind == "heat":
            M = make_heat_matrix(n, data.draw(st.sampled_from([0.1, 1.0]), label="r"))
        elif kind == "tridiagonal":
            M = make_tridiagonal(n, data.draw(st.sampled_from([0.0, 0.3, 0.5]), label="alpha"))
        else:
            M = random_band(n, data.draw(st.integers(0, 4), label="b"), rng)
        scheme = SamplingScheme("list", n, tau)
        E = expected_lifted_inverse(M, scheme).matrix
        want = loop_expected_inverse(M, scheme)
        assert scipy.sparse.issparse(E) == _band_is_cheaper(tau - 1, n)
        dense = E.toarray() if scipy.sparse.issparse(E) else E
        assert dense.tobytes() == want.tobytes()
        if scipy.sparse.issparse(E):
            # Offsets -b..b with b read from the exact zeros of E.
            b = int(np.abs(np.subtract.outer(np.arange(n), np.arange(n))[want != 0]).max())
            assert E.offsets.tolist() == list(range(-b, b + 1))
            assert not E.data.flags.writeable
            # The rate constants read the band as they read the array.
            pair = CurvaturePair.from_hessian(M)
            assert (sigma1(pair, E), theta(pair, E)) == (sigma1(pair, dense), theta(pair, dense))

    def test_diagonal_matrix_keeps_one_diagonal(self):
        M = np.diag(np.arange(1.0, 201.0))
        E = expected_lifted_inverse(M, SamplingScheme("list", 200, 5)).matrix
        assert E.offsets.tolist() == [0]
        assert E.toarray().tobytes() == loop_expected_inverse(M, SamplingScheme("list", 200, 5)).tobytes()

    @pytest.mark.parametrize("entry", ["periodic", "lower corner", "upper corner"])
    def test_wrapped_entry_keeps_the_dense_route(self, entry):
        # A nonzero entry that a wrapped window reads makes E dense; the
        # corners are the outermost such entries, i - j = n - tau + 1.
        n, tau = 200, 5
        M = make_heat_matrix(n).toarray()
        i, j = {"periodic": (0, n - 1), "lower corner": (n - 1, 3), "upper corner": (1, n - 3)}[entry]
        M[i, j] = 1e-3
        if entry == "periodic":
            M[j, i] = 1e-3
        scheme = SamplingScheme("list", n, tau)
        E = expected_lifted_inverse(M, scheme).matrix
        assert isinstance(E, np.ndarray) and not E.flags.writeable
        assert E.tobytes() == loop_expected_inverse(M, scheme).tobytes()

    def test_entry_no_window_reads_keeps_the_band(self):
        # M[n - tau, 0] lies in no window, so E stays banded.
        n, tau = 200, 5
        M = make_heat_matrix(n).toarray()
        M[n - tau, 0] = M[0, n - tau] = 1e-3
        scheme = SamplingScheme("list", n, tau)
        E = expected_lifted_inverse(M, scheme).matrix
        assert scipy.sparse.issparse(E)
        assert E.toarray().tobytes() == loop_expected_inverse(M, scheme).tobytes()

    def test_dense_matrix_and_other_samplings_stay_dense(self):
        # The ERM smoothness matrix X of a dense data matrix, and heat
        # under a nice sampling, enumerated and drawn.
        rng = np.random.default_rng(12)
        A = rng.standard_normal((10, 150))
        X = ErmProblem(A, np.sign(A[0]) + (A[0] == 0), SquaredLoss(), 0.1).smoothness_matrix()
        heat = make_heat_matrix(150)
        for M, scheme, samples in (
            (X, SamplingScheme("list", 150, 3), None),
            (heat, SamplingScheme("nice", 150, 1), None),
            (heat, SamplingScheme("nice", 150, 1), 20),
        ):
            assert isinstance(expected_lifted_inverse(M, scheme, samples).matrix, np.ndarray)

    @pytest.mark.parametrize(
        "kind, n, tau, samples",
        [("heat", 300, 4, 2000), ("heat", 300, 5, 2000), ("tridiagonal", 200, 3, 4000)],
    )
    def test_drawn_band_equals_loop_bit_for_bit(self, kind, n, tau, samples):
        # 4000 draws at tau = 3 span three batches of 1820 sets.
        M = make_heat_matrix(n) if kind == "heat" else make_tridiagonal(n, 0.3)
        scheme = SamplingScheme("list", n, tau)
        E = expected_lifted_inverse(M, scheme, samples, seed=9).matrix
        assert isinstance(E, _Band) and E.offsets.tolist() == list(range(1 - tau, tau))
        assert E.toarray().tobytes() == loop_expected_inverse(M, scheme, samples, seed=9).tobytes()

    def test_drawn_band_above_the_dense_limit(self):
        # A dense route refuses this order; the band route holds
        # 2 tau - 1 diagonals and batch temporaries, far from n x n.
        n = MAX_ORDER + 1
        tracemalloc.start()
        try:
            E = expected_lifted_inverse(make_heat_matrix(n), SamplingScheme("list", n, 5), 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(E.matrix, _Band) and E.matrix.shape == (n, n)
        assert peak < n * n

    def test_band_compares_as_a_value(self):
        M = make_heat_matrix(300)
        scheme = SamplingScheme("list", 300, 4)
        a = expected_lifted_inverse(M, scheme).matrix
        b = expected_lifted_inverse(M.copy(), scheme).matrix
        assert a is not b and (a == b) is True and (a == a.tocsr()) is True
        c = expected_lifted_inverse(make_heat_matrix(300, 0.2), scheme).matrix
        assert (a == c) is False
        top = a.data.max()
        assert np.array_equal((a == top).toarray(), a.toarray() == top)  # elementwise
        with pytest.raises(ValueError):
            a.data[0, 0] = 1.0


class TestTowerProperty:
    def test_independent_pairs_factorize(self):
        # E[<A A_{S1} x, A_{S2} x>] == <A E[A_S] x, E[A_S] x> for i.i.d.
        # S1, S2; E[A_S] is the elementwise product of P and A.
        n, tau = 5, 2
        scheme = SamplingScheme("nice", n, tau)
        P = probability_matrix(scheme)
        subsets = list(itertools.combinations(range(n), tau))
        rng = np.random.default_rng(8)
        for _ in range(3):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            x = rng.standard_normal(n)
            lifted = [lifted_submatrix(A, np.array(S)) for S in subsets]
            lhs = np.mean(
                [(A @ (L1 @ x)) @ (L2 @ x) for L1 in lifted for L2 in lifted]
            )
            mean_lift = (P * A) @ x
            rhs = (A @ mean_lift) @ mean_lift
            assert abs(lhs - rhs) < 1e-12
