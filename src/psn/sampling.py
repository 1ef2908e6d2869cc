"""Random index-set samplings and their first-moment statistics.

A sampling scheme is a kind, a dimension n, a block size tau and a
worker count c.  Each iteration every worker gets one index set:

* ``nice``  -- a uniform subset of size tau, drawn by each worker
               independently (spelled ``parallel-nice`` too).
* ``list``  -- one of the n cyclic windows of length tau, uniform over
               windows, drawn by each worker independently (spelled
               ``parallel-list`` too).
* ``non-overlapping``
            -- one uniform subset of size c*tau in random order, cut
               into c pairwise disjoint sets of size tau.

Every draw comes from the generator it is given, as one (c, tau) array
of sorted index sets.  For nice and list the c rows are c successive
one-worker draws, so c=1 is the serial scheme.

draws is the stream of draws a run takes, equal to successive draw
calls bit for bit; list draws its window starts ahead, in chunks.

Expected lifted inverses refer to one constituent set: for nice and
list each worker's set has the one-worker distribution, and for
``non-overlapping`` each chunk of a uniform (c*tau)-subset is itself a
uniform tau-subset.  The list E of a banded M, enumerated or drawn, is
banded too; where that band is cheaper it is assembled in diagonal
storage and returned as a linalg._Band, never as n x n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse

from .linalg import _band_is_cheaper, _refuse_dense, _stored

__all__ = [
    "KINDS",
    "SamplingScheme",
    "parse_scheme",
    "draw",
    "draws",
    "ExpectedInverse",
    "expected_lifted_inverse",
]

KINDS = ("nice", "list", "non-overlapping")
_ALIASES = {"parallel-nice": "nice", "parallel-list": "list"}

# Refuse exact enumeration beyond this many subsets.
ENUMERATION_LIMIT = 10**6
# Block entries inverted per batch: 1,024 sets at tau=4 and fewer for
# larger blocks, so that assembling E takes bounded memory at any count
# (about 1 MB of temporaries); the batch size changes no bit of E.  A
# chunk of pre-drawn list windows (draws) holds this many indices.
_CHUNK_ENTRIES = 4096 * 4


@dataclass(frozen=True)
class SamplingScheme:
    """Immutable description of a sampling: kind, dimension n, block size
    tau, and worker count c."""

    kind: str
    n: int
    tau: int
    c: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampling kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 1 <= self.tau <= self.n:
            raise ValueError(f"tau must lie in [1, n={self.n}], got {self.tau}")
        if self.c < 1:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.kind == "non-overlapping" and self.c * self.tau > self.n:
            raise ValueError(
                f"non-overlapping sampling needs c*tau <= n, got "
                f"{self.c}*{self.tau} > {self.n}"
            )

    def constituent(self) -> "SamplingScheme":
        """One-worker scheme with the distribution of one constituent set."""
        return SamplingScheme("list" if self.kind == "list" else "nice", self.n, self.tau)

    def with_workers(self, c: int) -> "SamplingScheme":
        """The same sampling at worker count c."""
        return replace(self, c=c)


def parse_scheme(text: str, n: int) -> SamplingScheme:
    """Parse a scheme string such as 'nice:tau=2' or 'list:tau=5,c=4'
    against dimension n; 'parallel-nice' and 'parallel-list' spell
    'nice' and 'list'.  A repeated parameter raises ValueError."""
    kind, _, params = text.strip().partition(":")
    kind = kind.strip()
    opts: dict[str, int] = {}
    if params:
        for item in params.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in ("tau", "c"):
                raise ValueError(
                    f"bad scheme parameter {item!r}; expected tau=INT or c=INT"
                )
            if key in opts:
                raise ValueError(f"scheme {text!r} repeats parameter {key!r}")
            try:
                opts[key] = int(value)
            except ValueError:
                raise ValueError(f"bad integer in scheme parameter {item!r}") from None
    if "tau" not in opts:
        raise ValueError(f"scheme {text!r} does not specify tau")
    return SamplingScheme(_ALIASES.get(kind, kind), n, opts["tau"], opts.get("c", 1))


def _windows(starts, tau: int, n: int) -> np.ndarray:
    """The cyclic windows {s, ..., s+tau-1} mod n of the given starts,
    one sorted row each."""
    windows = (np.asarray(starts)[:, None] + np.arange(tau)) % n
    windows.sort(axis=1)
    return windows


def draw(scheme: SamplingScheme, rng: np.random.Generator) -> np.ndarray:
    """Draw one realisation: a (c, tau) int64 array whose row i is
    worker i's index set, sorted.

    All sets come from rng.  For nice and list the c rows are c
    successive one-worker draws, so the sets are independent and the
    stream is consumed as by c one-worker draws.  Non-overlapping cuts
    one uniform (c*tau)-subset, which choice returns in random order,
    into c rows.
    """
    n, tau, c = scheme.n, scheme.tau, scheme.c
    if scheme.kind == "non-overlapping":
        sets = rng.choice(n, size=c * tau, replace=False).reshape(c, tau)
    elif scheme.kind == "nice":
        sets = np.array([rng.choice(n, size=tau, replace=False) for _ in range(c)])
    else:
        # A scalar draw costs a third of a size-1 array draw and leaves
        # the generator in the same state.
        return _windows([rng.integers(n)] if c == 1 else rng.integers(n, size=c), tau, n)
    sets.sort(axis=1)
    return sets


def draws(scheme: SamplingScheme, rng: np.random.Generator):
    """Endless iterator of (sets, starts): sets as successive
    draw(scheme, rng) calls return them, bit for bit, and for list the
    (c,) window starts of its rows (None for the other kinds).

    List draws the starts of K = _CHUNK_ENTRIES // (c tau) draws at once,
    rng.integers(n, size=(K, c)), the values of K successive draw calls
    (of K scalar draws when c = 1), and cuts their windows (_windows)
    into K (c, tau) rows; rng is consumed a chunk ahead of the draws
    taken from it.
    """
    if scheme.kind != "list":
        while True:
            yield draw(scheme, rng), None
    n, tau, c = scheme.n, scheme.tau, scheme.c
    size = max(1, _CHUNK_ENTRIES // (c * tau))
    while True:
        starts = rng.integers(n, size=(size, c))
        yield from zip(_windows(starts.ravel(), tau, n).reshape(size, c, tau), starts)


@dataclass(frozen=True)
class ExpectedInverse:
    """E[(M_S)^{-1}] over one constituent set.

    ``matrix`` is an n x n ndarray, or for a list sampling of a narrow
    band M, enumerated or drawn, a linalg._Band holding E's diagonals;
    either way its values are read-only, so rate functions may memoize
    values derived from it.
    """

    matrix: np.ndarray | scipy.sparse.dia_array = field(repr=False)


def _enumerated_chunks(scheme: SamplingScheme, size: int):
    """The whole support of a serial scheme as (k, tau) stacks of sorted
    index sets, at most size sets each, in enumeration order."""
    n, tau = scheme.n, scheme.tau
    if scheme.kind == "list":
        windows = _windows(np.arange(n), tau, n)
        for start in range(0, n, size):
            yield windows[start : start + size]
    else:
        combos = itertools.combinations(range(n), tau)
        while chunk := list(itertools.islice(combos, size)):
            yield np.array(chunk, dtype=np.int64)


def _block_inverses(M, sets) -> np.ndarray:
    """inv(M[S, S]) for every row S of the (k, tau) stack sets.

    Raises numpy.linalg.LinAlgError naming the first set whose block is
    singular or has condition number above 1e14.
    """
    blocks = M[sets[:, :, None], sets[:, None, :]]
    cond = np.linalg.cond(blocks)
    bad = np.flatnonzero(~(cond <= 1e14))  # also catches inf and NaN
    if bad.size:
        k = bad[0]
        raise np.linalg.LinAlgError(
            f"submatrix on {sets[k].tolist()} is numerically singular "
            f"(condition estimate {cond[k]:.3e})"
        )
    return np.linalg.inv(blocks)


def _banded_list(M, scheme: SamplingScheme) -> bool:
    """Whether the list-sampling E of M, an array or a _Band, is banded
    and is cheaper to keep as a band: banded storage is cheaper for
    bandwidth tau - 1 (_band_is_cheaper), and the tau - 1 windows that
    wrap around have exactly zero cross blocks, M[i, j] = M[j, i] = 0
    for i - j >= n - tau + 1 (read in O(tau^2) from an array, and from a
    band as a bandwidth below n - tau + 1).  Then each window's inverse
    is zero outside offsets -(tau-1)..tau-1, and so is E."""
    n, w = scheme.n, scheme.tau - 1
    if not (scheme.kind == "list" and _band_is_cheaper(w, n)):
        return False
    if isinstance(M, np.ndarray):
        return not np.tril(M[n - w :, :w]).any() and not np.triu(M[:w, n - w :]).any()
    return M.b < n - w


def expected_lifted_inverse(
    M: np.ndarray,
    scheme: SamplingScheme,
    samples: int | None = None,
    seed: int = 0,
) -> ExpectedInverse:
    """Expected lifted inverse E[(M_S)^{-1}] of one constituent set.

    Without ``samples`` it averages over the whole support: all
    C(n, tau) subsets for nice-type schemes (refused above 10^6
    subsets) or the n windows for list-type schemes.  Given ``samples``
    (at least 2) it is a Monte Carlo mean over that many independent
    draws seeded by ``seed``.  The two differ only in where the sets
    come from: either way the tau x tau blocks are inverted in batches
    and only their S x S entries are accumulated.  A block that is
    singular or has condition number above 1e14 raises
    numpy.linalg.LinAlgError naming its index set.

    M is any matrix, stored as a checked one is (linalg._stored) but not
    checked.  A list sampling of a banded M (_banded_list, decided
    before any block is inverted) accumulates into the 2 tau - 1
    diagonals of E instead of an n x n array, adding the same terms in
    the same order, and returns E stored by the same rule: a _Band
    equal to the n x n result bit for bit.  Every other E is an n x n
    array, refused above linalg.MAX_ORDER before any block is inverted.
    """
    M = _stored(M)
    n = M.shape[0]
    if n != scheme.n:
        raise ValueError(f"matrix dimension {n} does not match scheme n={scheme.n}")
    serial = scheme.constituent()
    size = max(1, _CHUNK_ENTRIES // (scheme.tau * scheme.tau))
    if samples is None:
        if serial.kind == "nice":
            count = math.comb(n, scheme.tau)
            if count > ENUMERATION_LIMIT:
                raise ValueError(
                    f"enumeration over C({n}, {scheme.tau}) = {count} subsets "
                    f"exceeds the limit {ENUMERATION_LIMIT}; give a sample count "
                    "for a monte-carlo estimate, or use theta 'bound'"
                )
        else:
            count = n
        chunks = _enumerated_chunks(serial, size)
    else:
        if samples < 2:
            raise ValueError(f"need at least 2 samples, got {samples}")
        count = samples
        rng = np.random.default_rng(seed)
        chunks = (
            draw(serial.with_workers(min(size, samples - start)), rng)
            for start in range(0, samples, size)
        )

    band = _banded_list(M, serial)
    if not band:
        _refuse_dense(n, f"the E of {scheme.kind} sampling")
    acc = np.zeros((2 * scheme.tau - 1, n) if band else (n, n))
    # Each entry sums its terms in the order of a per-set loop.
    for sets in chunks:
        inv = _block_inverses(M, sets)
        rows, cols = sets[:, :, None], sets[:, None, :]
        if band:
            # Diagonal storage: E[i, j] at [j - i + tau - 1, j].  The
            # zero cross blocks of wrapped windows lie outside the band.
            offsets = cols - rows
            kept = np.abs(offsets) < scheme.tau
            columns = np.broadcast_to(cols, inv.shape)
            np.add.at(acc, ((offsets + scheme.tau - 1)[kept], columns[kept]), inv[kept])
        else:
            np.add.at(acc, (rows, cols), inv)
    mean = acc / count
    if band:
        offsets = np.arange(1 - scheme.tau, scheme.tau)
        return ExpectedInverse(_stored(scipy.sparse.dia_array((mean, offsets), shape=(n, n))))
    mean.setflags(write=False)
    return ExpectedInverse(mean)
