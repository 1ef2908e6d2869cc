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

Expected lifted inverses refer to one constituent set: for nice and
list each worker's set has the one-worker distribution, and for
``non-overlapping`` each chunk of a uniform (c*tau)-subset is itself a
uniform tau-subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "KINDS",
    "SamplingScheme",
    "parse_scheme",
    "draw",
    "ExpectedInverse",
    "expected_lifted_inverse",
]

KINDS = ("nice", "list", "non-overlapping")
_ALIASES = {"parallel-nice": "nice", "parallel-list": "list"}

# Refuse exact enumeration beyond this many subsets.
ENUMERATION_LIMIT = 10**6
# Block entries inverted per batch: 4,096 sets at tau=4 and fewer for
# larger blocks, so that assembling E takes bounded memory at any count.
_CHUNK_ENTRIES = 4096 * 16


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


@dataclass(frozen=True)
class ExpectedInverse:
    """E[(M_S)^{-1}] over one constituent set, with provenance.

    ``matrix`` is read-only, so rate functions may memoize values
    derived from it.  ``samples`` is the Monte Carlo sample count and
    ``standard_error`` the Frobenius-norm standard error of the mean;
    both are None when the whole support was enumerated.
    """

    matrix: np.ndarray = field(repr=False)
    samples: int | None = None
    standard_error: float | None = None


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


def _add_block_inverses(M, sets, acc, acc_sq=None) -> None:
    """Add inv(M[S, S]) into acc[S, S] (and its entrywise square into
    acc_sq[S, S]) for every row S of the (k, tau) stack sets, in row
    order, so each entry sums its terms in the order of a per-set loop.

    Raises numpy.linalg.LinAlgError naming the first set whose block is
    singular or has condition number above 1e14.
    """
    rows, cols = sets[:, :, None], sets[:, None, :]
    blocks = M[rows, cols]
    cond = np.linalg.cond(blocks)
    bad = np.flatnonzero(~(cond <= 1e14))  # also catches inf and NaN
    if bad.size:
        k = bad[0]
        raise np.linalg.LinAlgError(
            f"submatrix on {sets[k].tolist()} is numerically singular "
            f"(condition estimate {cond[k]:.3e})"
        )
    inv = np.linalg.inv(blocks)
    np.add.at(acc, (rows, cols), inv)
    if acc_sq is not None:
        np.add.at(acc_sq, (rows, cols), inv * inv)


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
    draws seeded by ``seed``, with the Frobenius standard error of the
    mean.  Either way the tau x tau blocks are inverted in batches and
    only their S x S entries are accumulated.  A block that is singular
    or has condition number above 1e14 raises numpy.linalg.LinAlgError
    naming its index set.
    """
    M = np.asarray(M, dtype=np.float64)
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
                    "for a monte-carlo estimate"
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

    acc = np.zeros_like(M)
    acc_sq = None if samples is None else np.zeros_like(M)
    for sets in chunks:
        _add_block_inverses(M, sets, acc, acc_sq)
    mean = acc / count
    mean.setflags(write=False)
    if samples is None:
        return ExpectedInverse(mean)
    var = (acc_sq - count * mean * mean) / (count - 1)
    se = math.sqrt(float(np.clip(var, 0.0, None).sum()) / count)
    return ExpectedInverse(mean, count, se)
