"""Frameproof codes by random draw plus expurgation.

Draw a t x (n + ell) matrix of i.i.d. symbols, ell = floor(n/k), with t
chosen so the expected number of "bad events" (a column framed by k others)
is below 1.  By Markov's inequality a draw with at most ell bad events
appears quickly; deleting one involved column per bad event leaves at
least n columns forming a k-frameproof code.

The symbol distribution mu is uniform when q > k.  When q <= k a uniform
draw is too collision-prone, so symbol 0 gets probability 1-(q-1)/(k+1)
and each nonzero symbol 1/(k+1), which maximizes the per-row survival
probability p of a fixed column against k fixed others.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import check_float_n, check_float_q, stream_words
from .core import CodeMatrix, ConstructionError, ParameterError, _check_alphabet
from .verify import _framings

MAX_REDRAWS = 50
# relative error allowed for the float length in `expurgation_length`: 3x its 10 * 2^-53 bound
LENGTH_REL_ERR = 2.0**-48


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
        if self.k < 2:
            raise ParameterError(f"k={self.k} must be at least 2")
        if self.q < 2:
            raise ParameterError(f"q={self.q} must be at least 2")
        _check_alphabet(self.q)
        if self.n < self.k:
            raise ParameterError(f"need n >= k, got n={self.n}, k={self.k}")

    @property
    def ell(self) -> int:
        """Column surplus floor(n/k)."""
        return self.n // self.k

    @property
    def mu(self) -> tuple[float, ...]:
        """Draw distribution, `symbol_distribution(q, k)`."""
        return symbol_distribution(self.q, self.k)


def _p_fraction(q: int, k: int) -> Fraction:
    if q > k:
        return (Fraction(q - 1, q)) ** k
    a = Fraction(q - 1, k + 1)  # total nonzero mass
    return (1 - a) * a**k + a * (1 - Fraction(1, k + 1)) ** k


def p_qk(q: int, k: int) -> float:
    """Per-row probability that a fixed column separates from k fixed others.

    For q > k this is (1-1/q)^k under the uniform draw; for q <= k it is
    the biased-draw value
      (1 - (q-1)/(k+1)) ((q-1)/(k+1))^k + ((q-1)/(k+1)) (1 - 1/(k+1))^k,
    evaluated exactly in rationals before conversion to float.
    """
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    return float(_p_fraction(q, k))


def symbol_distribution(q: int, k: int) -> tuple[float, ...]:
    """Draw distribution mu over {0, ..., q-1}: uniform iff q > k."""
    if k < 2 or q < 2:
        raise ParameterError(f"need k >= 2 and q >= 2, got k={k}, q={q}")
    if q > k:
        return tuple([1.0 / q] * q)
    head = 1.0 - (q - 1) / (k + 1)
    return (head,) + tuple([1.0 / (k + 1)] * (q - 1))


def expurgation_length(q: int, k: int, n: int) -> int:
    """Smallest t with (k+1) C(n+ell, k) (1-p)^t <= 1, ell = floor(n/k).

    That t is max(1, ceil(x)) for x = ln(count) / -ln(1-p).  The float x is
    within 10 units of 2^-53 of the real one, relative (an ulp or two from
    each logarithm, the rounding of p or 1-p, the division), so where no
    integer lies within LENGTH_REL_ERR x of it the ceiling is exact; else
    the exact rational test picks t among the candidates in that range.
    """
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    ell = n // k
    count = (k + 1) * math.comb(n + ell, k)
    p = _p_fraction(q, k)
    base = 1 - p
    if not 0 < base < 1:
        raise ParameterError(f"degenerate survival probability for q={q}, k={k}")
    if p <= 0.5:
        rate = -math.log1p(-float(p))
    else:  # 1-p <= 1/2, scaled by 2^e into (1/2, 2) so that no q underflows it
        e = base.denominator.bit_length() - base.numerator.bit_length()
        rate = e * math.log(2) - math.log(base * 2**e)
    x = math.log(count) / rate
    err = x * LENGTH_REL_ERR
    t, hi = (max(1, math.ceil(v)) for v in (x - err, x + err))
    while t < hi and count * base.numerator**t > base.denominator**t:
        t += 1
    return t


def corollary_length(q: int, k: int, n: int) -> float:
    """Closed-form length estimate ln(n^k (k+1)/k! * ((k+1)/k)^k) / -ln(1-p).

    Real-valued; callers that need an integer length take the ceiling.
    """
    p = p_qk(q, k)
    check_float_q(q)
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    check_float_n(n)
    log_count = k * math.log(n * (k + 1) / k) + math.log(k + 1) - math.lgamma(k + 1)
    return log_count / -math.log1p(-p)


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
    m = entries.shape[1]
    if not 1 <= k <= m - 1:
        raise ParameterError(f"need 1 <= k <= {m - 1}, got k={k}")
    return list(_framings(entries, k, "bad-event"))


def expurgate_run(q: int, k: int, n: int, seed: int = 0):
    """Full pipeline with diagnostics: (matrix, params, info).

    info records the accepted attempt number, its bad-event count, and how
    many columns the events removed.  Redraws with the next attempt number
    when more than ell bad events occur, up to MAX_REDRAWS attempts; the
    derived t keeps the expected event count below ell + 1, so acceptable
    draws recur.
    """
    params = expurgation_params(q, k, n, seed)
    m = n + params.ell
    for attempt in range(MAX_REDRAWS):
        drawn = draw_matrix(params, attempt)
        bad = enumerate_bad_events(drawn, k)
        if len(bad) > params.ell:
            continue
        doomed = {i for i, _ in bad}
        keep = [j for j in range(m) if j not in doomed][:n]
        info = {"attempt": attempt, "bad_events": len(bad), "deleted_columns": len(doomed)}
        return CodeMatrix(q, drawn[:, keep]), params, info
    raise ConstructionError(
        f"no draw with at most {params.ell} bad events in {MAX_REDRAWS} attempts"
    )
