"""Randomized construction of constant-weight codes with bounded pairwise
nonzero agreement, via Moser-Tardos style resampling.

Every column is drawn uniformly among the q-ary vectors of weight exactly w.
A pair of columns is "violated" when they agree, with a nonzero symbol, in
more than `lam` rows.  While violated pairs exist, the lexicographically
first one is redrawn from its per-column streams.  When the parameters
satisfy the local-lemma criterion (see `lll_satisfiability_check`) the
expected number of resampling events is at most n(n-1)/(2*(2n-4)), which
is under n/3 from n = 6 on (1.5 at n = 4), and the loop terminates with a
matrix in which any column pair shares at most `lam` nonzero agreements.

The initial draw (`_draw_columns`) replays, in numpy and bit for bit, the
`sample_column` call of every column on its stream `substream(seed, "col",
j)`: it takes each stream's raw 32-bit words and consumes them as CPython's
`randrange` does, DRAW_BLOCK columns at a time, and replays a column that
runs short with more words, and returns only the columns.  A column that is
resampled gets its stream back on its first event: re-derived, and taken
past its initial draw by one `sample_column` call, which then redraws it.

Violated pairs are kept in a set, filled once by `core.agreement_pairs`
(read off the B^T B slabs of `core.agreement_slabs`; shared with
`verify.is_lambda_matrix`); an event drops the pairs that touch the two
redrawn columns and re-adds those still violated, found in O(w n) by
`core.agreements_with` on the columns' support rows.  At admissible
parameters the set holds a few dozen pairs at most, so memory stays O(t n).

The parameter chain w, lam, t (`lll_chain`) and the threshold on t it
admits (`lll_threshold`) are numpy-free arithmetic that lives in
`bounds`; they are imported here, and the chain's steps re-exported.

Such a matrix is a strongly selective code for k when lam = floor((w-1)/(k-1)):
in any k columns, some member has more nonzero rows than its k-1 partners
can cover, so it owns a row where it is nonzero and the others differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import ceil_tol, check_k, substream
from .bounds import derive_lambda, derive_length, derive_weight, lll_chain, lll_threshold
from .core import (
    CodeMatrix,
    ConstructionError,
    ParameterError,
    _check_alphabet,
    _check_shape,
    agreement_pairs,
    agreements_with,
    stream_words,
)

# columns per block of the initial draw, whose working memory is O(DRAW_BLOCK t)
DRAW_BLOCK = 2048
# spare words per column of the initial draw, in (standard deviations + 1) of
# the count it needs; a column that still runs short is replayed with twice
# the words.  At 6, no column of 10^5 over five parameter sets ran short
DRAW_SURPLUS = 6
# words each vector step of the initial draw tests per column: a randrange
# try is rejected with probability below 1/2, so a step misses below 2^-16
DRAW_WINDOW = 16


@dataclass(frozen=True)
class ConstructionParams:
    """Resolved parameter set for one lambda-matrix build.

    `lam` bounds the pairwise nonzero agreement, `w` is the exact column
    weight, `t` the number of rows.  `k` records the selectivity target
    the parameters were derived for (kept for reporting; the builder only
    reads lam, w, t, q, n).
    """

    k: int
    q: int
    n: int
    w: int
    lam: int
    t: int
    seed: int

    def __post_init__(self):
        check_k(self.k)
        _check_alphabet(self.q)
        if self.n < 1:
            raise ParameterError(f"n={self.n} must be positive")
        if self.w < 1:
            raise ParameterError(f"w={self.w} must be positive")
        if self.lam < 0:
            raise ParameterError(f"lam={self.lam} must be nonnegative")
        if self.t < self.w:
            raise ParameterError(f"t={self.t} cannot be below the column weight w={self.w}")
        _check_shape(self.t, self.n)


@dataclass(frozen=True)
class ResampleLog:
    """Progress record of one build.

    history[i] = (events so far, violated pairs remaining), one snapshot
    per event, with history[0] the state right after the initial draw.
    """

    history: tuple[tuple[int, int], ...]

    @property
    def total_resamples(self) -> int:
        """Pair-resampling events; each redraws both columns of one violated pair."""
        return len(self.history) - 1


def derived_params(k: int, q: int, n: int, seed: int) -> ConstructionParams:
    """Standard chain, `lll_chain`: w from (k, n), lam from (w, k), t from (lam, w, n, q)."""
    w, lam, t = lll_chain(q, k, n)
    return ConstructionParams(k=k, q=q, n=n, w=w, lam=lam, t=t, seed=seed)


def lll_satisfiability_check(params: ConstructionParams) -> bool:
    """True when e * P * D <= 1 for P the pair violation bound and D = 2n-4:
    when t reaches the ceiling of `lll_threshold`, as `derive_length`'s t does.

    D <= 0 (n <= 2) means the dependency graph is empty and any positive
    success probability suffices, and with lam >= w no pair can be
    violated; either way the check passes vacuously.
    """
    if params.n <= 2 or params.lam >= params.w:
        return True
    return params.t >= ceil_tol(lll_threshold(params.lam, params.w, params.n, params.q))


def resample_budget(n: int) -> int:
    """Hard cap on resampling events: 100x the worst of n and the expected
    count n(n-1) / (2 (2n-4)), which stays below n."""
    return 100 * n


def sample_column(t: int, w: int, q: int, rng) -> np.ndarray:
    """Uniform q-ary column of length t with exactly w nonzero entries.

    The support is a uniform w-subset of the rows (partial Fisher-Yates:
    only the first w positions of the index array are settled), and each
    support row gets an independent uniform symbol from {1, ..., q-1}.
    """
    _check_alphabet(q)
    if not 0 <= w <= t:
        raise ParameterError(f"need 0 <= w <= t, got w={w}, t={t}")
    idx = list(range(t))
    for i in range(w):
        j = rng.randrange(i, t)
        idx[i], idx[j] = idx[j], idx[i]
    col = np.zeros(t, dtype=np.uint16)
    for i in idx[:w]:
        col[i] = rng.randrange(1, q)
    return col


def _word_budget(t: int, w: int, q: int) -> int:
    """Words the replay in `_draw_columns` takes per column: the mean count
    its 2w `randrange` calls use plus DRAW_SURPLUS (standard deviations + 1).

    A call randrange(m) tries words until one is accepted, each with
    probability p = m / 2^bit_length(m): 1/p tries on average, variance
    (1-p)/p^2.
    """
    accept = [m / (1 << m.bit_length()) for m in [*range(t, t - w, -1), *[q - 1] * w]]
    mean = sum(1 / p for p in accept)
    sd = math.sqrt(sum((1 - p) / p**2 for p in accept))
    return math.ceil(mean + DRAW_SURPLUS * (sd + 1))


def _draw_columns(params: ConstructionParams):
    """The initial columns, bit for bit `sample_column(t, w, q,
    substream(seed, "col", j))` for every j, replayed in numpy.

    Columns go in blocks of DRAW_BLOCK.  A block takes `_word_budget` words
    from the stream of each of its columns.  Each of the w Fisher-Yates
    steps is one vector pass with one word pointer per column: it takes the
    first accepted word among the DRAW_WINDOW words at the pointer.  The
    symbols are the first w accepted words after the pointer.  A column that
    misses its window or runs out of words is short; the block replays its
    short columns from their streams with twice the words and twice the
    window, until none is short.  It returns the columns alone.
    """
    n, t, w, q, seed = params.n, params.t, params.w, params.q, params.seed
    cols = np.zeros((t, n), dtype=np.uint16)
    for j0 in range(0, n, DRAW_BLOCK):
        block = np.arange(j0, min(j0 + DRAW_BLOCK, n))
        budget, window = _word_budget(t, w, q), DRAW_WINDOW
        while block.size:
            m, stride = block.size, budget + window
            # past the budget, all-ones words: every randrange try rejects them
            words = np.full((m, stride), 0xFFFFFFFF, dtype=np.uint32)
            words[:, :budget] = stream_words((substream(seed, "col", j) for j in block.tolist()), budget)
            tries = sliding_window_view(words, window, axis=1)
            lanes = np.arange(m)
            ptr = np.zeros(m, dtype=np.intp)
            idx = np.tile(np.arange(t, dtype=np.intp), m)  # lane a's Fisher-Yates array is idx[a t : (a+1) t]
            for i in range(w):
                # randrange(i, t) is i + r for the first word whose top bits r
                # are below t - i; a lane that misses parks its pointer at the
                # budget, where it finds no accepted word again
                width = t - i
                r = tries[lanes, ptr] >> (32 - width.bit_length())
                ok = r < width
                first = ok.argmax(axis=1)
                hit = ok[lanes, first]
                ptr = np.where(hit, ptr + first + 1, budget)
                here = lanes * t + i
                there = here + np.where(hit, r[lanes, first], 0)
                idx[here], idx[there] = idx[there], idx[here]
            # each randrange(1, q) symbol: the first w accepted words from the pointer on
            symbols = words >> (32 - (q - 1).bit_length())
            accepted = np.flatnonzero((symbols < q - 1) & (np.arange(stride) >= ptr[:, None]))
            first = np.searchsorted(accepted, lanes * stride)
            short = np.diff(first, append=accepted.size) < w
            full = lanes[~short]
            at = accepted[first[full, None] + np.arange(w)]
            support = idx.reshape(m, t)[full, :w]
            cols[support, block[full, None]] = symbols.ravel()[at] + 1
            block = block[short]
            budget, window = 2 * budget, 2 * window
    return cols


def build_lambda_matrix(params: ConstructionParams) -> tuple[CodeMatrix, ResampleLog]:
    """Run the resampling loop until no column pair exceeds the agreement bound.

    Raises ParameterError when the satisfiability criterion fails for the
    given parameters, and ConstructionError (with the partial log attached)
    if the event budget is exhausted; the budget is 100x the expected event
    count, so for admissible parameters that is a <= 1% tail event.
    """
    if not lll_satisfiability_check(params):
        raise ParameterError(
            f"resampling criterion fails for lam={params.lam}, w={params.w}, "
            f"t={params.t}, q={params.q}, n={params.n}; "
            f"derive_length gives the smallest admissible t"
        )
    n, t, w, q, lam = params.n, params.t, params.w, params.q, params.lam
    cols = _draw_columns(params)
    streams = {}  # the columns resampled so far, each on its stream

    bad = set(agreement_pairs(cols, lam))
    history = [(0, len(bad))]
    budget = resample_budget(n)
    while bad:
        if len(history) - 1 >= budget:  # one snapshot per event after the first
            log = ResampleLog(tuple(history))
            raise ConstructionError(f"resample budget of {budget} events exhausted", log=log)
        a, b = min(bad)  # lexicographically first violated pair
        for x in (a, b):
            if x not in streams:
                # the column's stream, past its initial draw
                streams[x] = substream(params.seed, "col", x)
                sample_column(t, w, q, streams[x])
            cols[:, x] = sample_column(t, w, q, streams[x])
        bad = {p for p in bad if a not in p and b not in p}
        for x in (a, b):
            for y in np.flatnonzero(agreements_with(cols, x) > lam).tolist():
                if y != x:
                    bad.add((min(x, y), max(x, y)))
        history.append((len(history), len(bad)))

    return CodeMatrix(q, cols), ResampleLog(tuple(history))


def build_strongly_selective(k: int, q: int, n: int, seed: int = 0):
    """(k, w, n) strongly selective code via the derived-parameter chain.

    Returns (matrix, params, log).
    """
    params = derived_params(k, q, n, seed)
    matrix, log = build_lambda_matrix(params)
    return matrix, params, log


def build_frameproof(k: int, q: int, n: int, seed: int = 0):
    """k-frameproof code obtained as a (k+1)-strongly-selective one.

    Returns (matrix, params, log); params.k is k+1, the selectivity the
    build actually targets.
    """
    check_k(k)
    if n <= k + 1:
        raise ParameterError(f"need n > k+1, got n={n}, k={k}")
    return build_strongly_selective(k + 1, q, n, seed)
