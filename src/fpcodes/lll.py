"""Randomized construction of constant-weight codes with bounded pairwise
nonzero agreement, via Moser-Tardos style resampling.

Every column is drawn uniformly among the q-ary vectors of weight exactly w.
A pair of columns is "violated" when they agree, with a nonzero symbol, in
more than `lam` rows.  While violated pairs exist, the lexicographically
first one is redrawn from its per-column streams.  When the parameters
satisfy the local-lemma criterion (see `lll_satisfiability_check`) the
expected number of resampling events is at most n(n-1)/(2*(2n-4)), which
is under n/3, and the loop terminates with a matrix in which any column
pair shares at most `lam` nonzero agreements.

Violated pairs are kept in a set, filled once by the agreement kernel
`core.agreement_pairs` (a blocked B^T B product, shared with
`verify.is_lambda_matrix`); an event drops the pairs that touch the two
redrawn columns and re-adds those still violated, found in O(w n) from the
columns' support rows.  At admissible parameters the set holds a few dozen
pairs at most, so memory stays O(t n).

Such a matrix is a strongly selective code for k when lam = floor((w-1)/(k-1)):
in any k columns, some member has more nonzero rows than its k-1 partners
can cover, so it owns a row where it is nonzero and the others differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ceil_tol, substream
from .core import CodeMatrix, ConstructionError, ParameterError, agreement_pairs


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
        if self.k < 2:
            raise ParameterError(f"k={self.k} must be at least 2")
        if self.q < 2:
            raise ParameterError(f"q={self.q} must be at least 2")
        if self.n < 1:
            raise ParameterError(f"n={self.n} must be positive")
        if self.w < 1:
            raise ParameterError(f"w={self.w} must be positive")
        if self.lam < 0:
            raise ParameterError(f"lam={self.lam} must be nonnegative")
        if self.t < self.w:
            raise ParameterError(f"t={self.t} cannot be below the column weight w={self.w}")


@dataclass(frozen=True)
class ResampleLog:
    """Progress record of one build.

    total_resamples counts pair-resampling events (each event redraws both
    columns of one violated pair).  rounds = total_resamples + 1 snapshots
    were taken; history[i] = (events so far, violated pairs remaining) with
    history[0] the state right after the initial draw.
    """

    total_resamples: int
    rounds: int
    history: tuple[tuple[int, int], ...]


def derive_lambda(w: int, k: int) -> int:
    """Largest agreement bound that still forces selectivity: floor((w-1)/(k-1))."""
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if w < 1:
        raise ParameterError(f"w={w} must be positive")
    return (w - 1) // (k - 1)


def derive_weight(k: int, n: int) -> int:
    """Column weight ceil(1 + (k-1) ln(2 e n)) used by the standard chain."""
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if n <= k:
        raise ParameterError(f"need n > k, got n={n}, k={k}")
    return ceil_tol(1 + (k - 1) * math.log(2 * math.e * n))


def derive_length(lam: int, w: int, n: int, q: int) -> int:
    """Smallest row count for which the resampling criterion holds.

    Returns max of 2w-(lam+1) and the ceiling of
      lam/2 + (1/(q-1)) (e w/(lam+1)) (w - lam/2) (e(2n-4))^(1/(lam+1)).
    """
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    if n < 3:
        raise ParameterError(f"n={n} must be at least 3")
    if not 0 <= lam < w:
        raise ParameterError(f"need 0 <= lam < w, got lam={lam}, w={w}")
    first = 2 * w - (lam + 1)
    root = (math.e * (2 * n - 4)) ** (1.0 / (lam + 1))
    second = lam / 2 + (math.e * w / (lam + 1)) * (w - lam / 2) * root / (q - 1)
    if not math.isfinite(second):
        raise ParameterError("length formula overflows for these parameters")
    return max(first, ceil_tol(second))


def derived_params(k: int, q: int, n: int, seed: int) -> ConstructionParams:
    """Standard chain: w from (k, n), lam from (w, k), t from (lam, w, n, q)."""
    w = derive_weight(k, n)
    lam = derive_lambda(w, k)
    t = derive_length(lam, w, n, q)
    return ConstructionParams(k=k, q=q, n=n, w=w, lam=lam, t=t, seed=seed)


def _log_violation_probability(params: ConstructionParams) -> float:
    # log space: the (lam+1)-th powers overflow doubles for large lam
    lam, w, t, q = params.lam, params.w, params.t, params.q
    return (lam + 1) * (
        math.log(math.e * w / (lam + 1))
        - math.log(q - 1)
        + math.log((w - lam / 2) / (t - lam / 2))
    )


def violation_probability(params: ConstructionParams) -> float:
    """Upper bound on the probability that a fixed column pair is violated."""
    if params.lam >= params.w:
        return 0.0
    return math.exp(_log_violation_probability(params))


def lll_satisfiability_check(params: ConstructionParams) -> bool:
    """True when e * P * D <= 1 for P the pair violation bound and D = 2n-4.

    D <= 0 (n <= 2) means the dependency graph is empty and any positive
    success probability suffices, so the check passes vacuously.
    """
    d = 2 * params.n - 4
    if d <= 0:
        return True
    if params.lam >= params.w:
        return True
    return 1 + _log_violation_probability(params) + math.log(d) <= 0


def resample_budget(n: int) -> int:
    """Hard cap on resampling events: 100x the worst of n and the expected count."""
    pairs = n * (n - 1) // 2
    d = 2 * n - 4
    expected = pairs / d if d > 0 else 0.0
    return int(100 * max(n, expected))


def sample_column(t: int, w: int, q: int, rng) -> np.ndarray:
    """Uniform q-ary column of length t with exactly w nonzero entries.

    The support is a uniform w-subset of the rows (partial Fisher-Yates:
    only the first w positions of the index array are settled), and each
    support row gets an independent uniform symbol from {1, ..., q-1}.
    """
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
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


def _agreements_against(cols: np.ndarray, j: int) -> np.ndarray:
    # nonzero agreements with column j can only sit on its w support rows
    sub = cols[np.flatnonzero(cols[:, j])]
    return np.count_nonzero(sub == sub[:, j : j + 1], axis=0)


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
    streams = [substream(params.seed, "col", j) for j in range(n)]
    cols = np.zeros((t, n), dtype=np.uint16)
    for j in range(n):
        cols[:, j] = sample_column(t, w, q, streams[j])

    bad = set(agreement_pairs(cols, lam))
    history = [(0, len(bad))]
    budget = resample_budget(n)
    events = 0
    while bad:
        if events >= budget:
            log = ResampleLog(events, len(history), tuple(history))
            raise ConstructionError(f"resample budget of {budget} events exhausted", log=log)
        a, b = min(bad)  # lexicographically first violated pair
        cols[:, a] = sample_column(t, w, q, streams[a])
        cols[:, b] = sample_column(t, w, q, streams[b])
        events += 1
        bad = {p for p in bad if a not in p and b not in p}
        for x in (a, b):
            for y in np.flatnonzero(_agreements_against(cols, x) > lam).tolist():
                if y != x:
                    bad.add((min(x, y), max(x, y)))
        history.append((events, len(bad)))

    log = ResampleLog(events, len(history), tuple(history))
    return CodeMatrix(q, cols), log


def build_strongly_selective(k: int, q: int, n: int, seed: int = 0):
    """(k, w, n) strongly selective code via the derived-parameter chain.

    Returns (matrix, params, log).
    """
    if n < 3:
        raise ParameterError(f"n={n} must be at least 3")
    params = derived_params(k, q, n, seed)
    matrix, log = build_lambda_matrix(params)
    return matrix, params, log


def build_frameproof(k: int, q: int, n: int, seed: int = 0):
    """k-frameproof code obtained as a (k+1)-strongly-selective one.

    Returns (matrix, params, log); params.k is k+1, the selectivity the
    build actually targets.
    """
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if n <= k + 1:
        raise ParameterError(f"need n > k+1, got n={n}, k={k}")
    return build_strongly_selective(k + 1, q, n, seed)
