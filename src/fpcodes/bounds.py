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
  compare_45         expurgation beats stinson_41 here (bool, q > k)
  compare_46         expurgation beats shangguan_42 here (bool, q <= k)

The module also holds the formulas the builders derive their parameters
from: the local-lemma chain (`derive_weight`, `derive_lambda`,
`derive_length`) that `lll` runs, with `lll_threshold`, the criterion's
one statement, and the expurgation length with its survival probability
(`p_qk`, `expurgation_length`, `corollary_length`) that `expurgate`
draws at.  It is plain integer, float and rational arithmetic and
imports no numpy, so a process that only evaluates bounds never loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from ._util import ParameterError, ceil_tol, check_exact_k, check_float_n, check_float_q

DIAG_LOWER_COEFF = (15 + math.sqrt(33)) / 24  # ~0.86436
# relative error allowed for the float length in `expurgation_length`: 3x its 10 * 2^-53 bound
LENGTH_REL_ERR = 2.0**-48


class ApplicabilityError(ParameterError):
    """A bound was evaluated outside its stated regime."""


def _check_triple(q: int, k: int, n: int):
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if n <= k:
        raise ParameterError(f"need n > k, got n={n}, k={k}")
    check_float_q(q)
    check_float_n(n)


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
    check_float_n(n)
    weight = 1 + (k - 1) * math.log(2 * math.e * n)
    if not math.isfinite(weight):
        raise ParameterError("derive_weight overflows for these parameters")
    return ceil_tol(weight)


def lll_threshold(lam: float, w: int, n: int, q: int) -> float:
    """Real t from which the resampling criterion e P (2n-4) <= 1 holds, P =
    (e w (w - lam/2) / ((lam+1) (q-1) (t - lam/2)))^(lam+1) the paper's bound
    on a pair's violation probability (lam may be real):
      lam/2 + (1/(q-1)) (e w/(lam+1)) (w - lam/2) (e(2n-4))^(1/(lam+1)).
    """
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    check_float_q(q)
    if n < 3:
        raise ParameterError(f"n={n} must be at least 3")
    check_float_n(n)
    if not 0 <= lam < w:
        raise ParameterError(f"need 0 <= lam < w, got lam={lam}, w={w}")
    root = (math.e * (2 * n - 4)) ** (1.0 / (lam + 1))
    theta = lam / 2 + (math.e * w / (lam + 1)) * (w - lam / 2) * root / (q - 1)
    if not math.isfinite(theta):
        raise ParameterError("length formula overflows for these parameters")
    return theta


def derive_length(lam: int, w: int, n: int, q: int) -> int:
    """Smallest row count of at least 2w-(lam+1) that `lll_threshold` admits."""
    return max(2 * w - (lam + 1), ceil_tol(lll_threshold(lam, w, n, q)))


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
    check_exact_k(k)
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    return float(_p_fraction(q, k))


def expurgation_length(q: int, k: int, n: int) -> int:
    """Smallest t with (k+1) C(n+ell, k) (1-p)^t <= 1, ell = floor(n/k).

    That t is max(1, ceil(x)) for x = ln(count) / -ln(1-p).  The float x is
    within 10 units of 2^-53 of the real one, relative (an ulp or two from
    each logarithm, the rounding of p or 1-p, the division), so where no
    integer lies within LENGTH_REL_ERR x of it the ceiling is exact; else
    the exact rational test picks t among the candidates in that range.
    """
    check_exact_k(k)
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


def ss_debonis_order(q: int, k: int, n: int) -> float:
    """Reference value k^2/v * ln(n/k) with v = min(k, q-1).

    Order-level only (no constant is known); never used in comparisons.
    """
    _check_triple(q, k, n)
    v = min(k, q - 1)
    try:
        return k * k / v * math.log(n / k)
    except OverflowError:
        raise ParameterError("ss_debonis_order overflows for these parameters") from None


def lll_lambda_length(q: int, k: int, n: int) -> int:
    """Integer length of the resampling construction for target k."""
    _check_triple(q, k, n)
    w = derive_weight(k, n)
    return derive_length(derive_lambda(w, k), w, n, q)


def ss_theorem35(q: int, k: int, n: int) -> float:
    """Length of the weight-w selective construction at w = derive_weight(k, n).

    1 + max(2w - r, r/2 + (e w (k-1)/((q-1)(w-1))) (w - r/2 + 1/2) (e(2n-4))^((k-1)/(w-1)))
    with r = (w-1)/(k-1); the second term is lll_threshold(r - 1, w, n, q) + 1/2.
    """
    _check_triple(q, k, n)
    w = derive_weight(k, n)
    r = (w - 1) / (k - 1)
    try:
        return 1 + max(2 * w - r, lll_threshold(r - 1, w, n, q) + 0.5)
    except OverflowError:  # 2w past the float range
        raise ParameterError("ss_theorem35 overflows for these parameters") from None


def _weight_optimized_length(q: int, r: int, n: int) -> float:
    """Corollary 3.7's length with r = k-1; Theorem 3.8 is the same at r = k."""
    log2en = math.log(2 * math.e * n)
    first = 2 * r * log2en - math.log(n)
    try:
        second = (
            math.log(n) / 2
            + math.e**2 * r**2 / (q - 1) * log2en
            + 7 * math.e**2 * r / (2 * (q - 1))
        )
    except OverflowError:  # r^2 past the float range
        raise ParameterError("weight-optimized length overflows for these parameters") from None
    return max(first, second)


def ss_corollary37(q: int, k: int, n: int) -> float:
    """Weight-optimized selective length, additive constant dropped.

    max(2(k-1) ln(2en) - ln n, ln(n)/2 + e^2 (k-1)^2/(q-1) ln(2en) + 7 e^2 (k-1)/(2(q-1)))
    """
    _check_triple(q, k, n)
    return _weight_optimized_length(q, k - 1, n)


def fp_theorem38(q: int, k: int, n: int) -> float:
    """Frameproof length via the selective construction, constant dropped.

    max(2k ln(2en) - ln n, ln(n)/2 + e^2 k^2/(q-1) ln(2en) + 7 e^2 k/(2(q-1)))
    """
    _check_triple(q, k, n)
    return _weight_optimized_length(q, k, n)


def fp_bounds_theorem310(q: int, k: int, n: int) -> tuple[int, int]:
    """(upper, lower) pair: ceil(n/(q-1)) and ceil(min(n, 0.86436 k^2)/q)."""
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    if k < 1 or n < 1:
        raise ParameterError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    check_float_q(q)
    upper = -(-n // (q - 1))
    lower = ceil_tol(min(n, DIAG_LOWER_COEFF * k * k) / q)
    return upper, lower


def stinson_41(q: int, k: int, n: int) -> float:
    """Classical bound -k ln(n k!/(k!-1)) / ln(1 - (1-1/q)^k).

    ln(k!/(k!-1)) is computed as -log1p(-1/k!) with 1/k! = exp(-lgamma(k+1)),
    which underflows to 0 for k around 170 and beyond; the term then
    contributes 0, the correct limit.  ((q-1)/q)^k underflows too at large
    k, and then the bound is not representable: that is a ParameterError.
    """
    if q < 2 or k < 2 or n < 2:
        raise ParameterError(f"need q >= 2, k >= 2, n >= 2, got q={q}, k={k}, n={n}")
    check_float_q(q)
    try:
        inv_fact = math.exp(-math.lgamma(k + 1))
    except OverflowError:  # ln k! past the float range
        raise ParameterError("stinson_41 overflows for these parameters") from None
    tail = -math.log1p(-inv_fact) if inv_fact > 0 else 0.0
    numerator = -k * (math.log(n) + tail)
    denominator = math.log1p(-((q - 1) / q) ** k)
    value = numerator / denominator if denominator else math.inf
    if not math.isfinite(value):
        raise ParameterError("stinson_41 overflows for these parameters")
    return value


def shangguan_42(q: int, k: int, n: int) -> float:
    """Biased-draw bound (-k ln n - (k+1) ln 2) / ln(1 - p_qk); regime q <= k."""
    if k < 2 or n < 2:
        raise ParameterError(f"need k >= 2 and n >= 2, got k={k}, n={n}")
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    if q > k:
        raise ApplicabilityError(f"stated only for q <= k, got q={q}, k={k}")
    numerator = -k * math.log(n) - (k + 1) * math.log(2)
    denominator = math.log1p(-p_qk(q, k))
    return numerator / denominator


def compare_45(q: int, k: int, n: int) -> bool:
    """True iff the expurgation estimate beats stinson_41 at (q, k, n); q > k only."""
    _check_triple(q, k, n)
    if q <= k:
        raise ApplicabilityError(f"comparison stated for q > k, got q={q}, k={k}")
    return corollary_length(q, k, n) < stinson_41(q, k, n)


def compare_46(q: int, k: int, n: int) -> bool:
    """True iff the expurgation estimate beats shangguan_42 at (q, k, n); q <= k only."""
    _check_triple(q, k, n)
    if q > k:
        raise ApplicabilityError(f"comparison stated for q <= k, got q={q}, k={k}")
    return corollary_length(q, k, n) < shangguan_42(q, k, n)


def core_inequality_45(k: int) -> bool:
    """Exact check of ((k+1)/k)^k (k+1)/k! < (k!/(k!-1))^k."""
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    f = math.factorial(k)
    lhs = Fraction(k + 1, k) ** k * Fraction(k + 1, f)
    rhs = Fraction(f, f - 1) ** k
    return lhs < rhs


def core_inequality_46(k: int) -> bool:
    """Exact check of ((k+1)/k)^k (k+1)/k! < 2^(k+1)."""
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    lhs = Fraction(k + 1, k) ** k * Fraction(k + 1, math.factorial(k))
    return lhs < 2 ** (k + 1)


def relaxed_inequality_45(k: int) -> bool:
    """Check of (e/k)^k (k+1) < 1 in log space; first true at k = 5."""
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")
    return k * (1 - math.log(k)) + math.log(k + 1) < 0


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
                if ceil_reals:
                    lines.append(f"{key} {ceil_tol(value)}")
                else:
                    lines.append(f"{key} {value:.6g}")
        return "\n".join(lines) + "\n"


def bound_report(q: int, k: int, n: int) -> BoundReport:
    """Evaluate every bound at (q, k, n), flagging inapplicable regimes."""
    entries: dict = {}
    flags: dict = {}

    entries["ss_debonis_order"] = ss_debonis_order(q, k, n)
    flags["ss_debonis_order"] = "order-level"
    entries["lll_lambda_length"] = lll_lambda_length(q, k, n)
    entries["ss_theorem35"] = ss_theorem35(q, k, n)
    entries["ss_corollary37"] = ss_corollary37(q, k, n)
    flags["ss_corollary37"] = "constant-free"
    entries["fp_theorem38"] = fp_theorem38(q, k, n)
    flags["fp_theorem38"] = "constant-free"
    upper, lower = fp_bounds_theorem310(q, k, n)
    entries["fp_upper_diag"] = upper
    entries["fp_lower_shann"] = lower
    entries["stinson_41"] = stinson_41(q, k, n)
    entries["expurgation_43"] = expurgation_length(q, k, n)
    entries["expurgation_cor44"] = corollary_length(q, k, n)

    for name, fn in (("shangguan_42", shangguan_42), ("compare_45", compare_45), ("compare_46", compare_46)):
        try:
            entries[name] = fn(q, k, n)
        except ApplicabilityError as exc:
            entries[name] = None
            flags[name] = f"inapplicable: {exc}"
    return BoundReport(q=q, k=k, n=n, entries=entries, flags=flags)
