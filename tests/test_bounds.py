import collections
import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fpcodes.bounds
from fpcodes._util import ceil_tol
from fpcodes.bounds import (
    ApplicabilityError,
    BoundReport,
    DIAG_LOWER_COEFF,
    bound_report,
    fp_bounds_theorem310,
    fp_theorem38,
    lll_lambda_length,
    lll_threshold,
    shangguan_42,
    ss_corollary37,
    ss_debonis_order,
    ss_theorem35,
    stinson_41,
)
from fpcodes.core import ParameterError
from fpcodes.expurgate import corollary_length, expurgation_length
from fpcodes.lll import derive_lambda, derive_length, derive_weight
from paper_checks import core_inequality_45, core_inequality_46, relaxed_inequality_45
from test_bound_golden import CELLS as GOLDEN_CELLS

mp.mp.dps = 50


def mp_p(q, k):
    if q > k:
        return (1 - mp.mpf(1) / q) ** k
    a = mp.mpf(q - 1) / (k + 1)
    return (1 - a) * a**k + a * (1 - mp.mpf(1) / (k + 1)) ** k


def mp_stinson(q, k, n):
    num = -k * mp.log(n * mp.factorial(k) / (mp.factorial(k) - 1))
    return num / mp.log(1 - (1 - mp.mpf(1) / q) ** k)


def mp_shangguan(q, k, n):
    num = -k * mp.log(n) - (k + 1) * mp.log(2)
    return num / mp.log(1 - mp_p(q, k))


def mp_fp38(q, k, n):
    l2en = mp.log(2 * mp.e * n)
    first = 2 * k * l2en - mp.log(n)
    second = mp.log(n) / 2 + mp.e**2 * k**2 / (q - 1) * l2en + 7 * mp.e**2 * k / (2 * (q - 1))
    return max(first, second)


def mp_ss37(q, k, n):
    l2en = mp.log(2 * mp.e * n)
    first = 2 * (k - 1) * l2en - mp.log(n)
    second = mp.log(n) / 2 + mp.e**2 * (k - 1) ** 2 / (q - 1) * l2en + 7 * mp.e**2 * (k - 1) / (2 * (q - 1))
    return max(first, second)


def mp_ss35(q, k, n, w):
    r = mp.mpf(w - 1) / (k - 1)
    first = 2 * w - r
    second = (
        r / 2
        + (mp.e * w * (k - 1)) / ((q - 1) * (w - 1)) * (w - r / 2 + mp.mpf(1) / 2) * (mp.e * (2 * n - 4)) ** (mp.mpf(k - 1) / (w - 1))
    )
    return 1 + max(first, second)


class TestFrozenValues:
    def test_stinson(self):
        assert stinson_41(4, 2, 100) == pytest.approx(12.818325134854, rel=1e-11)
        assert stinson_41(2, 2, 100) == pytest.approx(36.834532797911, rel=1e-11)

    def test_shangguan(self):
        assert shangguan_42(2, 2, 100) == pytest.approx(44.922935745802, rel=1e-11)
        assert shangguan_42(2, 3, 100) == pytest.approx(133.085477042901, rel=1e-11)

    def test_fp_theorem38(self):
        assert fp_theorem38(3, 2, 100) == pytest.approx(121.241522139837, rel=1e-11)

    def test_theorem310_pairs(self):
        assert fp_bounds_theorem310(2, 2, 100) == (100, 2)
        assert fp_bounds_theorem310(2, 20, 100) == (100, 50)
        assert fp_bounds_theorem310(3, 2, 10) == (5, 2)

    def test_diag_coefficient(self):
        assert DIAG_LOWER_COEFF == pytest.approx((15 + math.sqrt(33)) / 24, rel=0)
        assert DIAG_LOWER_COEFF == pytest.approx(0.864356776939085, rel=1e-12)


class TestHighPrecisionAgreement:
    GRID = [(2, 2, 100), (4, 2, 100), (3, 3, 50), (2, 5, 1000), (8, 4, 333), (5, 2, 12)]

    def test_stinson(self):
        for q, k, n in self.GRID:
            assert stinson_41(q, k, n) == pytest.approx(float(mp_stinson(q, k, n)), rel=1e-12)

    def test_stinson_large_k_stable(self):
        # k! overflows doubles near k=171; the log1p form must stay finite
        for k in (25, 60, 150, 171, 400):
            val = stinson_41(3, k, 1000)
            want = float(-k * (mp.log(1000) + mp.log(mp.factorial(k) / (mp.factorial(k) - 1))) / mp.log1p(-((1 - mp.mpf(1) / 3) ** k)))
            assert math.isfinite(val) and val > 0
            assert val == pytest.approx(want, rel=1e-9)

    def test_stinson_unrepresentable_raises(self):
        # ((q-1)/q)^k underflows: the quotient is inf at k=1074, a division by zero at 1075
        for k in (1074, 1075):
            with pytest.raises(ParameterError, match="stinson_41 overflows"):
                stinson_41(2, k, 2000)

    def test_shangguan(self):
        for q, k, n in self.GRID:
            if q > k:
                continue
            assert shangguan_42(q, k, n) == pytest.approx(float(mp_shangguan(q, k, n)), rel=1e-12)

    def test_fp38_and_ss37(self):
        for q, k, n in self.GRID:
            assert fp_theorem38(q, k, n) == pytest.approx(float(mp_fp38(q, k, n)), rel=1e-12)
            assert ss_corollary37(q, k, n) == pytest.approx(float(mp_ss37(q, k, n)), rel=1e-12)

    def test_ss35(self):
        for q, k, n in self.GRID:
            w = derive_weight(k, n)
            assert ss_theorem35(q, k, n) == pytest.approx(float(mp_ss35(q, k, n, w)), rel=1e-12)

    @given(st.integers(2, 65536), st.integers(2, 100), st.integers(1, 10**12))
    def test_ss35_random(self, q, k, above):
        n = k + above
        w = derive_weight(k, n)
        assert ss_theorem35(q, k, n) == pytest.approx(float(mp_ss35(q, k, n, w)), rel=1e-12)

    def test_debonis_order(self):
        assert ss_debonis_order(2, 2, 100) == pytest.approx(4 * math.log(50), rel=1e-12)
        assert ss_debonis_order(9, 4, 36) == pytest.approx(4 * math.log(9), rel=1e-12)  # v=k=4
        assert ss_debonis_order(3, 5, 10) == pytest.approx(25 / 2 * math.log(2), rel=1e-12)  # v=q-1=2


class TestShapeProperties:
    def test_stinson_decreasing_in_q(self):
        values = [stinson_41(q, 3, 100) for q in range(2, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_fp38_nondecreasing_in_n(self):
        values = [fp_theorem38(3, 2, n) for n in range(10, 10001, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_upper_at_least_lower(self):
        for q in range(2, 11):
            for k in range(2, 11):
                for n in range(k + 1, 201, 3):
                    upper, lower = fp_bounds_theorem310(q, k, n)
                    assert upper >= lower, (q, k, n)

    def test_denominator_identity_q_le_k(self):
        # shangguan_42 and corollary_length share ln(1 - p_qk) exactly
        for q, k in [(2, 2), (2, 3), (3, 3), (4, 6)]:
            exact = float(mp.log(1 - mp_p(q, k)))
            from fpcodes.expurgate import p_qk

            assert math.log1p(-p_qk(q, k)) == pytest.approx(exact, rel=1e-12)


def reference_comparison(q, k, n):
    """(4.5) when q > k, (4.6) when q <= k: the expurgation estimate against
    the regime's rival bound, each evaluated afresh."""
    rival = stinson_41 if q > k else shangguan_42
    return corollary_length(q, k, n) < rival(q, k, n)


def comparison_cells():
    """Every golden cell, then 300 seeded random cells up to q = 2^40,
    k = 2000 and n = 10^30 (those refused included)."""
    rng = random.Random(2027)
    cells = list(GOLDEN_CELLS)
    for _ in range(300):
        q, k = max(2, round(2 ** rng.uniform(1, 40))), max(2, round(2000 ** rng.uniform(0, 1)))
        cells.append((q, k, k + 1 + round(10 ** rng.uniform(0, 30))))
    return cells


class TestComparisons:
    def test_compare_45_all_applicable_points(self):
        for q in range(2, 9):
            for k in range(2, q):
                for n in (10, 100, 1000):
                    assert bound_report(q, k, n).entries["compare_45"] is True, (q, k, n)

    def test_compare_46_all_applicable_points(self):
        for q in range(2, 9):
            for k in range(q, 9):
                for n in (10, 100, 1000):
                    assert bound_report(q, k, n).entries["compare_46"] is True, (q, k, n)

    def test_regime_errors(self):
        # outside its regime a comparison is an inapplicable entry with its
        # flag; shangguan_42, a function of its own, raises outside its regime
        report = bound_report(2, 3, 100)
        assert report.entries["compare_45"] is None
        assert report.flags["compare_45"] == "inapplicable: comparison stated for q > k, got q=2, k=3"
        report = bound_report(5, 3, 100)
        assert report.entries["compare_46"] is None
        assert report.flags["compare_46"] == "inapplicable: comparison stated for q <= k, got q=5, k=3"
        with pytest.raises(ApplicabilityError):
            shangguan_42(3, 2, 100)

    def test_entries_match_reference(self):
        checked = 0
        for q, k, n in comparison_cells():
            try:
                entries = bound_report(q, k, n).entries
            except ParameterError:
                continue
            own, other = ("compare_45", "compare_46") if q > k else ("compare_46", "compare_45")
            assert entries[own] is reference_comparison(q, k, n), (q, k, n)
            assert entries[other] is None, (q, k, n)
            checked += 1
        assert checked >= 300

    @pytest.mark.parametrize("q,k,n", [(5, 3, 1000), (3, 3, 1000), (2, 8, 10**6)])
    def test_report_evaluates_each_rival_once(self, monkeypatch, q, k, n):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("corollary_length", "stinson_41", "shangguan_42"):
            monkeypatch.setattr(fpcodes.bounds, name, counted(name, getattr(fpcodes.bounds, name)))
        bound_report(q, k, n)
        assert calls == {"corollary_length": 1, "stinson_41": 1, "shangguan_42": 1}

    def test_core_inequalities_exact_at_k2(self):
        # LHS = (3/2)^2 * 3/2 = 27/8; compare against 4 and 8
        lhs = Fraction(3, 2) ** 2 * Fraction(3, 2)
        assert lhs == Fraction(27, 8)
        assert core_inequality_45(2) == (lhs < Fraction(2, 1) ** 2)
        assert core_inequality_46(2) == (lhs < 8)
        assert core_inequality_45(2) and core_inequality_46(2)

    def test_core_inequalities_hold_on_scan(self):
        # decided in log space: each verdict is true, as in exact rationals
        for k in range(2, 101):
            f = math.factorial(k)
            lhs = Fraction(k + 1, k) ** k * Fraction(k + 1, f)
            assert core_inequality_45(k) and lhs < Fraction(f, f - 1) ** k, k
            assert core_inequality_46(k) and lhs < 2 ** (k + 1), k

    def test_core_inequalities_at_large_k(self):
        # no k-digit rational is formed, so k = 3000 answers at once and k
        # past 2^63, where k! cannot be formed, is answered too
        start = time.perf_counter()
        assert core_inequality_45(3000) and core_inequality_46(3000)
        assert time.perf_counter() - start < 0.1
        assert core_inequality_45(2**63) and core_inequality_46(2**600)

    def test_relaxed_inequality_onset_at_5(self):
        verdicts = {k: relaxed_inequality_45(k) for k in range(2, 51)}
        assert all(not verdicts[k] for k in (2, 3, 4))
        assert all(verdicts[k] for k in range(5, 51))

    def test_comp46_sides_monotone(self):
        lhs = [float(Fraction(k + 1, k) ** k * Fraction(k + 1, math.factorial(k))) for k in range(2, 51)]
        rhs = [2.0 ** (k + 1) for k in range(2, 51)]
        assert all(a > b for a, b in zip(lhs, lhs[1:]))
        assert all(a < b for a, b in zip(rhs, rhs[1:]))


class TestReport:
    def test_entries_and_flags(self):
        report = bound_report(3, 2, 10)
        assert report.entries["expurgation_43"] == 10
        assert report.entries["shangguan_42"] is None
        assert report.flags["shangguan_42"].startswith("inapplicable")
        assert report.entries["compare_45"] is True
        assert report.entries["compare_46"] is None
        assert report.flags["ss_debonis_order"] == "order-level"
        assert report.flags["fp_theorem38"] == "constant-free"

    def test_applicable_entries_finite_positive(self):
        for q, k, n in [(2, 2, 10), (3, 4, 40), (6, 2, 300), (2, 7, 50)]:
            report = bound_report(q, k, n)
            for key, value in report.entries.items():
                if value is None or isinstance(value, bool):
                    continue
                assert math.isfinite(value) and value > 0, (q, k, n, key)

    def test_flag_matches_none_entries(self):
        for q, k, n in [(2, 2, 10), (5, 2, 30), (2, 5, 30)]:
            report = bound_report(q, k, n)
            for key, value in report.entries.items():
                if value is None:
                    assert report.flags[key].startswith("inapplicable"), key

    def test_serialization_golden(self):
        got = bound_report(2, 2, 100).serialize()
        assert got == (
            "q 2\n"
            "k 2\n"
            "n 100\n"
            "compare_45 inapplicable\n"
            "compare_46 true\n"
            "expurgation_43 42\n"
            "expurgation_cor44 41.4888\n"
            "fp_lower_shann 2\n"
            "fp_theorem38 240.18\n"
            "fp_upper_diag 100\n"
            "lll_lambda_length 31\n"
            "shangguan_42 44.9229\n"
            "ss_corollary37 74.7029\n"
            "ss_debonis_order 15.6481\n"
            "ss_theorem35 42.5859\n"
            "stinson_41 36.8345\n"
        )

    def test_serialization_alphabetical_and_ceil(self):
        report = bound_report(4, 2, 100)
        text = report.serialize()
        keys = [line.split()[0] for line in text.strip().split("\n")[3:]]
        assert keys == sorted(keys)
        ceiled = report.serialize(ceil_reals=True)
        assert "expurgation_cor44 13\n" in ceiled
        assert "stinson_41 13\n" in ceiled

    def test_lower_below_every_upper_entry(self):
        # consistency of the lower bound against all upper-style entries
        skip = {"ss_debonis_order", "fp_lower_shann", "compare_45", "compare_46"}
        for q in range(2, 7):
            for k in range(2, 7):
                for n in (10, 50, 100):
                    report = bound_report(q, k, n)
                    lower = report.entries["fp_lower_shann"]
                    for key, value in report.entries.items():
                        if key in skip or value is None:
                            continue
                        assert lower <= math.ceil(value), (q, k, n, key)

    def test_report_precondition(self):
        with pytest.raises(ParameterError):
            bound_report(3, 2, 2)
        with pytest.raises(ParameterError):
            bound_report(1, 2, 10)

    @pytest.mark.parametrize(
        "q", [100000, 2**53, 2**53 + 1, 2 * 10**16, 10**17, 2**1023, 10**400],
        ids=["1e5", "2^53", "2^53+1", "2e16", "1e17", "2^1023", "1e400"],
    )
    def test_huge_alphabet_finite_or_parameter_error(self, q):
        # bounds are not limited to the alphabets a code stores (q <= 65536), but
        # past 2^53 floats lose 1 - 1/q: every bound returns a finite value or refuses
        fns = [ss_debonis_order, lll_lambda_length, ss_theorem35, ss_corollary37, fp_theorem38,
               fp_bounds_theorem310, stinson_41, shangguan_42, corollary_length, expurgation_length]
        for fn in fns:
            try:
                value = fn(q, 3, 100)
            except ParameterError:
                assert q > 2**53 or fn is shangguan_42, fn.__name__
                continue
            for v in value if isinstance(value, tuple) else (value,):
                assert isinstance(v, bool) or math.isfinite(v), fn.__name__
        if q > 2**53:
            with pytest.raises(ParameterError, match="2\\^53"):
                bound_report(q, 3, 100)
        else:
            assert bound_report(q, 3, 100).entries["expurgation_43"] >= 1

    @pytest.mark.parametrize("n", [10**20, 2**1021 - 1, 2**1021, 10**400], ids=["1e20", "2^1021-1", "2^1021", "1e400"])
    def test_huge_n_finite_or_parameter_error(self, n):
        # from 2^1021 on, 2 e n overflows a float: the formulas that take n
        # into floats refuse it, the others (exact or log-only) still answer
        fns = [ss_debonis_order, lll_lambda_length, ss_theorem35, ss_corollary37, fp_theorem38,
               fp_bounds_theorem310, stinson_41, shangguan_42, corollary_length, expurgation_length,
               derive_weight]
        float_n = {ss_debonis_order, lll_lambda_length, ss_theorem35, ss_corollary37, fp_theorem38,
                   corollary_length, derive_weight}
        for q in (3, 5):  # both regimes, q <= k and q > k
            for fn in fns:
                try:
                    value = fn(q, 3, n) if fn is not derive_weight else fn(3, n)
                except ApplicabilityError:
                    continue
                except ParameterError as exc:
                    assert n >= 2**1021 and fn in float_n, fn.__name__
                    assert "2^1021" in str(exc)
                    continue
                assert n < 2**1021 or fn not in float_n, fn.__name__
                for v in value if isinstance(value, tuple) else (value,):
                    assert isinstance(v, int) or math.isfinite(v), fn.__name__  # exact ints may pass 2^1024
        if n >= 2**1021:
            with pytest.raises(ParameterError, match="2\\^1021"):
                derive_length(4, 9, n, 3)
            with pytest.raises(ParameterError, match="2\\^1021"):
                bound_report(3, 3, n)
        else:
            assert derive_length(4, 9, n, 3) >= 1
            assert bound_report(3, 3, n).entries["expurgation_43"] >= 1

    @pytest.mark.parametrize("q,k", [(3, 2**512), (3, 2**513), (3, 2**1000), (2**53, 2**600), (3, 2**1014), (3, 2**1015)])
    def test_huge_k_parameter_error(self, q, k):
        # k^2 past the float range: every function that squares k refuses it
        with pytest.raises(ParameterError, match="overflows"):
            ss_corollary37(q, k, k + 1)
        with pytest.raises(ParameterError, match="overflows"):
            fp_theorem38(q, k, k + 1)
        if k > 2**512:  # k^2/2 is still a float at 2^512
            with pytest.raises(ParameterError, match="ss_debonis_order overflows"):
                ss_debonis_order(q, k, k + 1)
        with pytest.raises(ParameterError, match="overflows"):
            bound_report(q, k, k + 1)
        if k >= 2**1014:  # terms in w, and from 2^1015 (k - 1) ln(2en) and ln k!, past the float range
            for fn in (lll_lambda_length, ss_theorem35, stinson_41):
                with pytest.raises(ParameterError, match="overflows"):
                    fn(q, k, k + 1)
        if k >= 2**1015:
            with pytest.raises(ParameterError, match="derive_weight overflows"):
                derive_weight(k, k + 1)

    @pytest.mark.parametrize("call,error,message", [
        (lambda: ss_debonis_order(3, 1, 10), ParameterError, "k=1 must be at least 2"),
        (lambda: derive_lambda(0, 2), ParameterError, "w=0 must be positive"),
        (lambda: derive_length(0, 2**600, 10, 3), ParameterError, "lll_threshold overflows"),
        (lambda: expurgation_length(1, 2, 10), ParameterError, "q=1 must be at least 2"),
        (lambda: corollary_length(3, 3, 2), ParameterError, "need n >= k, got n=2, k=3"),
        (lambda: fp_bounds_theorem310(1, 2, 10), ParameterError, "q=1 must be at least 2"),
        (lambda: fp_bounds_theorem310(3, 0, 10), ParameterError, "k=0 must be at least 2"),
        (lambda: fp_bounds_theorem310(3, 1, 10), ParameterError, "k=1 must be at least 2"),
        (lambda: fp_bounds_theorem310(3, 2, 0), ParameterError, "n=0 must be positive"),
        (lambda: stinson_41(3, 2, 1), ParameterError, "n=1 must be at least 2"),
        (lambda: shangguan_42(2, 1, 10), ParameterError, "k=1 must be at least 2"),
        (lambda: shangguan_42(1, 3, 10), ParameterError, "q=1 must be at least 2"),
        (lambda: shangguan_42(2, 3, 1), ParameterError, "n=1 must be at least 2"),
        (lambda: core_inequality_45(1), ParameterError, "k=1 must be at least 2"),
        (lambda: core_inequality_46(1), ParameterError, "k=1 must be at least 2"),
        (lambda: relaxed_inequality_45(1), ParameterError, "k=1 must be at least 2"),
        (lambda: ceil_tol(math.inf), OverflowError, "cannot take ceiling of inf"),
        (lambda: ceil_tol(math.nan), OverflowError, "cannot take ceiling of nan"),
        (lambda: expurgation_length(3, 2**14 + 1, 2**15), ParameterError, "k=16385 exceeds 2\\^14"),
        (lambda: corollary_length(2**20, 2**14 + 1, 2**15), ParameterError, "k=16385 exceeds 2\\^14"),
        (lambda: derive_length(0, 2**1100, 10, 3), ParameterError, "lll_threshold overflows"),
        (lambda: fp_bounds_theorem310(3, 2**1100, 10), ParameterError, "fp_bounds_theorem310 overflows"),
        (lambda: shangguan_42(2**1100, 2**1100, 10), ParameterError, "shangguan_42 overflows"),
    ], ids=["triple k<2", "lambda w<1", "length overflow", "expurgation q<2", "corollary n<k",
            "diag q<2", "diag k<1", "diag k=1", "diag n<1", "stinson n<2", "shangguan k<2", "shangguan q<2", "shangguan n<2",
            "core45", "core46", "relaxed45", "ceil inf", "ceil nan", "expurgation k>2^14",
            "corollary k>2^14", "length w=2^1100", "diag k=2^1100", "shangguan q=k=2^1100"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("huge", [2**600, 2**1100], ids=["2^600", "2^1100"])
    def test_overflow_guard_grid(self, huge):
        # every public formula, each nonempty set of its arguments q, k, n, w
        # at `huge` (n one above, so that n > k holds) and the others small,
        # returns finite values or refuses with ParameterError, never
        # OverflowError
        small = {"q": 3, "k": 3, "n": 100, "w": 9, "lam": 2}
        formulas = [fn for name, fn in vars(fpcodes.bounds).items()
                    if inspect.isfunction(fn) and fn.__module__ == "fpcodes.bounds" and not name.startswith("_")]
        assert {lll_threshold, derive_length, bound_report} <= set(formulas) and len(formulas) >= 18
        for fn in formulas:
            names = list(inspect.signature(fn).parameters)
            free = [x for x in names if x in "qknw"]
            for chosen in itertools.chain.from_iterable(itertools.combinations(free, r) for r in range(1, 5)):
                args = [huge + (x == "n") if x in chosen else small[x] for x in names]
                try:
                    value = fn(*args)
                except ParameterError:
                    continue
                if isinstance(value, BoundReport):
                    value = [v for v in value.entries.values() if v is not None]
                for v in value if isinstance(value, (tuple, list)) else (value,):
                    assert isinstance(v, int) or math.isfinite(v), (fn.__name__, chosen)

    def test_lll_entry_matches_chain(self):
        assert lll_lambda_length(2, 2, 100) == 31
        assert lll_lambda_length(3, 3, 20) == 48
