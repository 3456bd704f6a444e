"""Closed-form length bounds and their numeric comparison.

Every bound maps a (q, k, n) triple to a code length (real unless noted).
`bound_report` evaluates the whole family at once, marking entries whose
regime does not apply instead of guessing a value.  Identifier names in
the report are stable strings used by the text serialization:

  ss_debonis_order   order-level reference k^2/v ln(n/k), v = min(k, q-1)
  lll_lambda_length  integer length of the resampling construction
  ss_theorem35       weight-constrained selective-code length (real)
  ss_corollary37     weight-optimized version, constant-free (real)
  fp_theorem38       frameproof version, constant-free (real)
  fp_upper_diag      ceil(n/(q-1)), length of the diagonal construction
  fp_lower_shann     ceil(min(n, 0.86436 k^2)/q) lower bound
  stinson_41         classical probabilistic frameproof bound (real)
  shangguan_42       biased-draw frameproof bound, needs q <= k (real)
  expurgation_43     integer length of the expurgation construction
  expurgation_cor44  closed-form estimate of the same (real)
  compare_45         expurgation_cor44 < stinson_41, read off both (bool, q > k)
  compare_46         expurgation_cor44 < shangguan_42, read off both (bool, q <= k)

The module also holds the formulas the builders derive their parameters
from: the local-lemma chain `lll_chain` (`derive_weight`, `derive_lambda`,
`derive_length`) that `lll` runs, with `lll_threshold`, the criterion's
one statement, and the expurgation's draw law `draw_law` with the
survival probability and length over it (`p_qk`, `expurgation_length`,
`corollary_length`) that `expurgate` draws from and at.  It is plain
integer and float arithmetic and imports no numpy, so a process that
only evaluates bounds never loads it.
The shared input rules are `_util`'s checks; a formula states only its
own regime.  Each formula with float arithmetic of its own carries the
one overflow refusal, `_guarded`, and the formulas that combine others
pass their refusals on.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from ._util import ParameterError, ceil_tol, check_exact_k, check_float_n, check_float_q, check_k, check_q

DIAG_LOWER_COEFF = (15 + math.sqrt(33)) / 24  # ~0.86436
# relative error allowed for the float length in `expurgation_length`: 3x its 10 * 2^-53 bound
LENGTH_REL_ERR = 2.0**-48


class ApplicabilityError(ParameterError):
    """A bound was evaluated outside its stated regime."""


def _guarded(fn):
    """fn refusing a float overflow inside it, or a non-finite float result,
    with ParameterError("<fn's name> overflows for these parameters")."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError:
            value = math.inf  # refused below, as a non-finite result
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{fn.__name__} overflows for these parameters")
        return value

    return guarded


def _check_triple(q: int, k: int, n: int):
    check_q(q)
    check_k(k)
    if n <= k:
        raise ParameterError(f"need n > k, got n={n}, k={k}")
    check_float_q(q)
    check_float_n(n)


def derive_lambda(w: int, k: int) -> int:
    """Largest agreement bound that still forces selectivity: floor((w-1)/(k-1))."""
    check_k(k)
    if w < 1:
        raise ParameterError(f"w={w} must be positive")
    return (w - 1) // (k - 1)


@_guarded
def derive_weight(k: int, n: int) -> int:
    """Column weight ceil(1 + (k-1) ln(2 e n)) used by the standard chain."""
    check_k(k)
    if n <= k:
        raise ParameterError(f"need n > k, got n={n}, k={k}")
    check_float_n(n)
    return ceil_tol(1 + (k - 1) * math.log(2 * math.e * n))


@_guarded
def lll_threshold(lam: float, w: int, n: int, q: int) -> float:
    """Real t from which the resampling criterion e P (2n-4) <= 1 holds, P =
    (e w (w - lam/2) / ((lam+1) (q-1) (t - lam/2)))^(lam+1) the paper's bound
    on a pair's violation probability (lam may be real):
      lam/2 + (1/(q-1)) (e w/(lam+1)) (w - lam/2) (e(2n-4))^(1/(lam+1)).
    """
    check_q(q)
    check_float_q(q)
    if n < 3:
        raise ParameterError(f"n={n} must be at least 3")
    check_float_n(n)
    if not 0 <= lam < w:
        raise ParameterError(f"need 0 <= lam < w, got lam={lam}, w={w}")
    root = (math.e * (2 * n - 4)) ** (1.0 / (lam + 1))
    return lam / 2 + (math.e * w / (lam + 1)) * (w - lam / 2) * root / (q - 1)


def derive_length(lam: int, w: int, n: int, q: int) -> int:
    """Smallest row count of at least 2w-(lam+1) that `lll_threshold` admits."""
    return max(2 * w - (lam + 1), ceil_tol(lll_threshold(lam, w, n, q)))


def lll_chain(q: int, k: int, n: int) -> tuple[int, int, int]:
    """The local-lemma chain (w, lam, t) for target k: w = derive_weight(k, n),
    lam = derive_lambda(w, k), t = derive_length(lam, w, n, q)."""
    w = derive_weight(k, n)
    lam = derive_lambda(w, k)
    return w, lam, derive_length(lam, w, n, q)


def draw_law(q: int, k: int) -> tuple[int, int]:
    """The expurgation's draw law mu as integers (d, h): symbol 0 weighs h
    and each other symbol 1, out of d.  Uniform, (q, 1), when q > k; when
    q <= k, (k+1, k+2-q), the biased law that maximizes p."""
    check_k(k)
    check_q(q)
    return (q, 1) if q > k else (k + 1, k + 2 - q)


def _p_ratio(q: int, k: int) -> tuple[int, int]:
    """`p_qk` as an exact, unreduced ratio (num, den): the sum over the
    draw law of mu_s (1-mu_s)^k, over the one denominator d^(k+1)."""
    check_exact_k(k)
    d, h = draw_law(q, k)
    return h * (d - h) ** k + (q - 1) * (d - 1) ** k, d ** (k + 1)


@_guarded
def p_qk(q: int, k: int) -> float:
    """Per-row probability that a fixed column separates from k fixed others:
    the one sum p = sum_s mu_s (1-mu_s)^k over `draw_law`, exact as an
    integer ratio, then divided once, correctly rounded."""
    num, den = _p_ratio(q, k)
    return num / den


@_guarded
def expurgation_length(q: int, k: int, n: int) -> int:
    """Smallest t with (k+1) C(n+ell, k) (1-p)^t <= 1, ell = floor(n/k).

    That t is max(1, ceil(x)) for x = ln(count) / -ln(1-p).  The float x is
    within 10 units of 2^-53 of the real one, relative (an ulp or two from
    each logarithm, the rounding of p or 1-p, the division), so where no
    integer lies within LENGTH_REL_ERR x of it the ceiling is exact; else
    the exact integer test picks t among the candidates in that range.
    """
    num, den = _p_ratio(q, k)
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    count = (k + 1) * math.comb(n + n // k, k)
    base = den - num  # 1 - p = base/den
    if 2 * num <= den:
        rate = -math.log1p(-(num / den))
    else:  # 1-p < 1/2, scaled by 2^e into (1/2, 2) so that no q underflows it
        e = den.bit_length() - base.bit_length()
        rate = e * math.log(2) - math.log((base << e) / den)
    x = math.log(count) / rate
    err = x * LENGTH_REL_ERR
    t, hi = (max(1, math.ceil(v)) for v in (x - err, x + err))
    while t < hi and count * base**t > den**t:
        t += 1
    return t


@_guarded
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


@_guarded
def ss_debonis_order(q: int, k: int, n: int) -> float:
    """Reference value k^2/v * ln(n/k) with v = min(k, q-1).

    Order-level only (no constant is known); never used in comparisons.
    """
    _check_triple(q, k, n)
    return k * k / min(k, q - 1) * math.log(n / k)


def lll_lambda_length(q: int, k: int, n: int) -> int:
    """Integer length of the resampling construction for target k."""
    _check_triple(q, k, n)
    return lll_chain(q, k, n)[2]


@_guarded
def ss_theorem35(q: int, k: int, n: int) -> float:
    """Length of the weight-w selective construction at w = derive_weight(k, n).

    1 + max(2w - r, r/2 + (e w (k-1)/((q-1)(w-1))) (w - r/2 + 1/2) (e(2n-4))^((k-1)/(w-1)))
    with r = (w-1)/(k-1); the second term is lll_threshold(r - 1, w, n, q) + 1/2.
    """
    _check_triple(q, k, n)
    w = derive_weight(k, n)
    r = (w - 1) / (k - 1)
    return 1 + max(2 * w - r, lll_threshold(r - 1, w, n, q) + 0.5)


def _weight_optimized_length(q: int, r: int, n: int) -> float:
    """Corollary 3.7's length with r = k-1; Theorem 3.8 is the same at r = k."""
    log2en = math.log(2 * math.e * n)
    first = 2 * r * log2en - math.log(n)
    second = math.log(n) / 2 + math.e**2 * r**2 / (q - 1) * log2en + 7 * math.e**2 * r / (2 * (q - 1))
    return max(first, second)


@_guarded
def ss_corollary37(q: int, k: int, n: int) -> float:
    """Weight-optimized selective length, additive constant dropped.

    max(2(k-1) ln(2en) - ln n, ln(n)/2 + e^2 (k-1)^2/(q-1) ln(2en) + 7 e^2 (k-1)/(2(q-1)))
    """
    _check_triple(q, k, n)
    return _weight_optimized_length(q, k - 1, n)


@_guarded
def fp_theorem38(q: int, k: int, n: int) -> float:
    """Frameproof length via the selective construction, constant dropped.

    max(2k ln(2en) - ln n, ln(n)/2 + e^2 k^2/(q-1) ln(2en) + 7 e^2 k/(2(q-1)))
    """
    _check_triple(q, k, n)
    return _weight_optimized_length(q, k, n)


@_guarded
def fp_bounds_theorem310(q: int, k: int, n: int) -> tuple[int, int]:
    """(upper, lower) pair: ceil(n/(q-1)) and ceil(min(n, 0.86436 k^2)/q)."""
    check_q(q)
    check_k(k)
    if n < 1:
        raise ParameterError(f"n={n} must be positive")
    check_float_q(q)
    return -(-n // (q - 1)), ceil_tol(min(n, DIAG_LOWER_COEFF * k * k) / q)


@_guarded
def stinson_41(q: int, k: int, n: int) -> float:
    """Classical bound -k ln(n k!/(k!-1)) / ln(1 - (1-1/q)^k).

    ln(k!/(k!-1)) is computed as -log1p(-1/k!) with 1/k! = exp(-lgamma(k+1)),
    which underflows to 0 for k around 170 and beyond; the term then
    contributes 0, the correct limit.  ((q-1)/q)^k underflows too at large
    k, and then the bound is not representable: the guard refuses it.
    """
    check_q(q)
    check_k(k)
    if n < 2:
        raise ParameterError(f"n={n} must be at least 2")
    check_float_q(q)
    inv_fact = math.exp(-math.lgamma(k + 1))
    tail = -math.log1p(-inv_fact) if inv_fact > 0 else 0.0
    numerator = -k * (math.log(n) + tail)
    denominator = math.log1p(-((q - 1) / q) ** k)
    return numerator / denominator if denominator else math.inf


@_guarded
def shangguan_42(q: int, k: int, n: int) -> float:
    """Biased-draw bound (-k ln n - (k+1) ln 2) / ln(1 - p_qk); regime q <= k."""
    check_q(q)
    check_k(k)
    if n < 2:
        raise ParameterError(f"n={n} must be at least 2")
    if q > k:
        raise ApplicabilityError(f"stated only for q <= k, got q={q}, k={k}")
    numerator = -k * math.log(n) - (k + 1) * math.log(2)
    denominator = math.log1p(-p_qk(q, k))
    return numerator / denominator


class BoundReport(namedtuple("BoundReport", "q k n entries flags")):
    """All bounds evaluated at one (q, k, n).

    entries maps identifier to value (float, int, or bool); an entry whose
    regime does not apply holds None and carries a reason in flags.
    Entries flagged order-level or constant-free are reference values with
    an unspecified additive or multiplicative constant.  Fields are read-only.
    """

    __slots__ = ()

    def serialize(self, ceil_reals: bool = False) -> str:
        """Stable text form: q/k/n, then entries in alphabetical key order.

        Reals print with 6 significant digits, or ceilinged to an integer
        when ceil_reals is set; inapplicable entries print as the word
        `inapplicable`.
        """
        lines = [f"q {self.q}", f"k {self.k}", f"n {self.n}"]
        for key in sorted(self.entries):
            value = self.entries[key]
            if value is None:
                lines.append(f"{key} inapplicable")
            elif isinstance(value, bool):
                lines.append(f"{key} {'true' if value else 'false'}")
            elif isinstance(value, int):
                lines.append(f"{key} {value}")
            else:
                lines.append(f"{key} {ceil_tol(value) if ceil_reals else format(value, '.6g')}")
        return "\n".join(lines) + "\n"


def bound_report(q: int, k: int, n: int) -> BoundReport:
    """Evaluate every bound at (q, k, n), flagging inapplicable regimes."""
    entries: dict = {}
    flags = {"ss_debonis_order": "order-level", "ss_corollary37": "constant-free", "fp_theorem38": "constant-free"}

    entries["ss_debonis_order"] = ss_debonis_order(q, k, n)
    entries["lll_lambda_length"] = lll_lambda_length(q, k, n)
    entries["ss_theorem35"] = ss_theorem35(q, k, n)
    entries["ss_corollary37"] = ss_corollary37(q, k, n)
    entries["fp_theorem38"] = fp_theorem38(q, k, n)
    entries["fp_upper_diag"], entries["fp_lower_shann"] = fp_bounds_theorem310(q, k, n)
    entries["stinson_41"] = stinson_41(q, k, n)
    entries["expurgation_43"] = expurgation_length(q, k, n)
    entries["expurgation_cor44"] = corollary_length(q, k, n)

    try:
        entries["shangguan_42"] = shangguan_42(q, k, n)
    except ApplicabilityError as exc:
        entries["shangguan_42"] = None
        flags["shangguan_42"] = f"inapplicable: {exc}"
    rival, other, regime = ("stinson_41", "compare_46", "q <= k") if q > k else ("shangguan_42", "compare_45", "q > k")
    beats = entries["expurgation_cor44"] < entries[rival]
    entries["compare_45"], entries["compare_46"] = (beats, None) if q > k else (None, beats)
    flags[other] = f"inapplicable: comparison stated for {regime}, got q={q}, k={k}"
    return BoundReport(q=q, k=k, n=n, entries=entries, flags=flags)
