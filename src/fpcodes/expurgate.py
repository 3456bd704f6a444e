"""Frameproof codes by random draw plus expurgation.

Draw a t x (n + ell) matrix of i.i.d. symbols, ell = floor(n/k), with t
chosen so the expected number of "bad events" (a column framed by k others)
is below 1.  A draw is decided after at most ell + 1 bad events, and by
Markov's inequality one with at most ell appears quickly; deleting one
involved column per bad event leaves n columns or more: a k-frameproof code.

The symbol distribution mu is `bounds.draw_law`: uniform when q > k, and
when q <= k, where a uniform draw is too collision-prone, biased toward
symbol 0 so as to maximize the per-row survival probability p of a fixed
column against k fixed others.  The length t (`expurgation_length`), its
closed-form estimate and p are numpy-free formulas of `bounds` over that
law, imported here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from ._util import check_k
# the law and the length formulas live in the numpy-free `bounds`; expurgate re-exports the formulas
from .bounds import corollary_length, draw_law, expurgation_length, p_qk
from .core import MAX_WORDS, CodeMatrix, ConstructionError, ParameterError, _check_alphabet, stream_words
from .verify import _framings

MAX_REDRAWS = 50


@dataclass(frozen=True)
class ExpurgationParams:
    """Resolved parameters of one expurgation run: t is the length drawn.

    The column surplus `ell` and the symbol distribution `mu` (index =
    symbol) follow from (q, k, n) and are derived, not stored.
    """

    k: int
    q: int
    n: int
    t: int
    seed: int

    def __post_init__(self):
        check_k(self.k)
        _check_alphabet(self.q)
        if self.n < self.k:
            raise ParameterError(f"need n >= k, got n={self.n}, k={self.k}")
        # the draw takes two words of one stream per symbol: past MAX_WORDS,
        # far below MAX_N symbols, it is refused before any array is sized
        cells = self.t * (self.n + self.ell)
        if 2 * cells > MAX_WORDS:
            raise ParameterError(
                f"a draw of {self.t} rows and {self.n + self.ell} columns takes {2 * cells} random words, "
                f"over the {MAX_WORDS} one stream yields"
            )

    @property
    def ell(self) -> int:
        """Column surplus floor(n/k)."""
        return self.n // self.k

    @property
    def mu(self) -> tuple[float, ...]:
        """Draw distribution, `symbol_distribution(q, k)`."""
        return symbol_distribution(self.q, self.k)


def symbol_distribution(q: int, k: int) -> tuple[float, ...]:
    """Draw distribution mu over {0, ..., q-1}, `draw_law` as floats: 1/d
    each nonzero symbol, and symbol 0 too in the uniform law, else the rest,
    1 - (q-1)/d (not h/d, which rounds differently; every draw's CDF is
    built from these floats)."""
    d, h = draw_law(q, k)
    rest = 1.0 / d
    return (rest if h == 1 else 1.0 - (q - 1) / d,) + (rest,) * (q - 1)


def expurgation_params(q: int, k: int, n: int, seed: int = 0) -> ExpurgationParams:
    """Resolve (q, k, n, seed) into a full parameter record."""
    return ExpurgationParams(k=k, q=q, n=n, t=expurgation_length(q, k, n), seed=seed)


def draw_matrix(params: ExpurgationParams, attempt: int = 0) -> np.ndarray:
    """i.i.d. t x (n+ell) symbol matrix for the given attempt number.

    Symbols are drawn row-major by inverse CDF, so the matrix for
    (seed, attempt) is reproducible and distinct attempts are fresh draws.
    """
    if attempt < 0:
        raise ParameterError(f"attempt={attempt} must be nonnegative")
    cum = np.array(list(itertools.accumulate(params.mu)))
    cum[-1] = 1.0
    width = params.n + params.ell
    cells = params.t * width
    # the floats of cells successive rng.random() calls, two words each
    a, b = stream_words([random.Random(params.seed + attempt)], 2 * cells).reshape(cells, 2).T
    u = ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
    # side="right" is bisect_right: symbol s covers [cum[s-1], cum[s])
    return np.searchsorted(cum, u, side="right").astype(np.uint16).reshape(params.t, width)


def enumerate_bad_events(entries: np.ndarray, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (i, B): column i agrees with some member of B in every row, |B| = k.

    Zero symbols count as agreement here, matching the framing notion.
    Pairs are reported with B in lexicographic order for each i.
    """
    return list(_framings(entries, k, "bad-event"))


def expurgate_run(q: int, k: int, n: int, seed: int = 0):
    """Full pipeline with diagnostics: (matrix, params, info).

    info records the accepted attempt number, its bad-event count, and how
    many columns the events removed.  A draw's scan stops at its ell + 1st
    bad event, and the draw is redrawn with the next attempt number, up to
    MAX_REDRAWS attempts; the derived t keeps the expected event count
    below ell + 1, so acceptable draws recur.
    """
    params = expurgation_params(q, k, n, seed)
    m = n + params.ell
    for attempt in range(MAX_REDRAWS):
        drawn = draw_matrix(params, attempt)
        bad = list(itertools.islice(_framings(drawn, k, "bad-event"), params.ell + 1))
        if len(bad) > params.ell:
            continue
        doomed = {i for i, _ in bad}
        keep = [j for j in range(m) if j not in doomed][:n]
        info = {"attempt": attempt, "bad_events": len(bad), "deleted_columns": len(doomed)}
        return CodeMatrix(q, drawn[:, keep]), params, info
    raise ConstructionError(
        f"no draw with at most {params.ell} bad events in {MAX_REDRAWS} attempts"
    )
