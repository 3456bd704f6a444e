import bisect
import itertools
import math
import random
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpcodes.bounds
import fpcodes.verify
from fpcodes.core import MAX_N, MAX_WORDS, CapacityError, ConstructionError, ParameterError
from fpcodes.expurgate import (
    ExpurgationParams,
    corollary_length,
    draw_matrix,
    enumerate_bad_events,
    expurgate_run,
    expurgation_length,
    expurgation_params,
    p_qk,
    symbol_distribution,
)
from fpcodes.verify import is_frameproof
from strategies import code_matrices, wide_codes

mp.mp.dps = 50


def exact_p(q, k):
    if q > k:
        return Fraction(q - 1, q) ** k
    a = Fraction(q - 1, k + 1)
    return (1 - a) * a**k + a * (1 - Fraction(1, k + 1)) ** k


def assert_exact_p(q, k):
    """`_p_ratio` is exact_p over the draw law's denominator d^(k+1), and
    `p_qk` one correctly rounded division of it: bit for bit
    float(Fraction), no double rounding."""
    p = exact_p(q, k)
    num, den = fpcodes.bounds._p_ratio(q, k)
    d = q if q > k else k + 1
    assert Fraction(num, den) == p
    assert den == d ** (k + 1)
    assert p_qk(q, k).hex() == float(p).hex()


# q = k (biased branch) and q = k + 1 (uniform), k = 2^14 at both, and
# q = 2^53 against small and largest k
RATIO_CELLS = [(k, k) for k in (2, 3, 8, 2**14)] + [(k + 1, k) for k in (2, 3, 8, 2**14)] + [
    (2**53, 2), (2**53, 8), (2**53, 2**14), (2, 2**14), (3, 2**14), (2, 100), (50, 100),
]


class TestPqk:
    def test_exact_values(self):
        assert p_qk(3, 2) == float(Fraction(4, 9))
        assert p_qk(2, 2) == float(Fraction(2, 9))
        assert p_qk(2, 3) == float(Fraction(15, 128))
        assert p_qk(4, 2) == float(Fraction(9, 16))

    @given(st.integers(2, 12) | st.integers(2, 2**53), st.integers(2, 12) | st.integers(2, 300))
    def test_matches_exact_rational(self, q, k):
        assert_exact_p(q, k)

    @pytest.mark.parametrize("q, k", RATIO_CELLS)
    def test_matches_exact_rational_at_edges(self, q, k):
        assert_exact_p(q, k)

    def test_branch_boundary(self):
        # q = k uses the biased branch, q = k+1 the uniform one
        assert p_qk(3, 3) == float((Fraction(1, 2)) * Fraction(2, 4) ** 3 + Fraction(2, 4) * Fraction(3, 4) ** 3)
        assert p_qk(4, 3) == float(Fraction(3, 4) ** 3)

    def test_rejects_small_parameters(self):
        with pytest.raises(ParameterError):
            p_qk(1, 2)
        with pytest.raises(ParameterError):
            p_qk(3, 1)


def reference_length(q, k, n):
    """The exact search `expurgation_length` used before its float fast path:
    walk from a float guess with the rational test, one t at a time."""
    ell = n // k
    count = (k + 1) * math.comb(n + ell, k)
    base = 1 - exact_p(q, k)
    num, den = base.numerator, base.denominator

    def holds(t):
        return count * num**t <= den**t

    guess = max(1, math.ceil(math.log(count) / -(math.log(num) - math.log(den))))
    t = max(1, guess - 2)
    while not holds(t):
        t += 1
    while t > 1 and holds(t - 1):
        t -= 1
    return t


# (q, k, n) whose real-valued length ln(count) / -ln(1-p) lies within 1e-4 of
# an integer (78.0000035, 151.000029, 576.00004, 33.999936, 69.999926)
NEAR_INTEGER = [(4, 5, 70), (6, 8, 284), (2, 7, 141), (6, 5, 52), (8, 7, 325)]
LENGTH_GRID = [
    (q, k, n) for q in (2, 3, 4, 9, 256) for k in (2, 3, 5, 8) for n in (k, k + 1, 10, 37, 300)
] + NEAR_INTEGER


class TestExpurgationLength:
    def test_frozen_values(self):
        assert expurgation_length(3, 2, 10) == 10
        assert expurgation_length(4, 2, 10) == 7
        assert expurgation_length(2, 2, 6) == 19
        assert expurgation_length(2, 3, 9) == 55
        assert expurgation_length(2, 2, 10) == 23

    @given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 40))
    def test_exact_minimality(self, q, k, extra):
        n = k + extra
        t = expurgation_length(q, k, n)
        ell = n // k
        count = (k + 1) * math.comb(n + ell, k)
        base = 1 - exact_p(q, k)
        assert count * base**t <= 1
        if t > 1:
            assert count * base ** (t - 1) > 1

    def test_large_alphabet_point_is_minimal(self):
        # q=256, k=8: p is close to 1, so (1-p)^t falls fast and t is small
        q, k, n = 256, 8, 10**6
        t = expurgation_length(q, k, n)
        assert t == 30
        count = (k + 1) * math.comb(n + n // k, k)
        base = 1 - exact_p(q, k)
        assert count * base**t <= 1 < count * base ** (t - 1)

    def test_matches_exact_search_on_grid(self):
        for q, k, n in LENGTH_GRID:
            assert expurgation_length(q, k, n) == reference_length(q, k, n), (q, k, n)

    @pytest.mark.parametrize("q", [65536, 2**20, 2**40])
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_matches_exact_search_where_p_exceeds_half(self, q, k):
        # 1 - p < 1/2: the scaled logarithm, and the walk on the same ints
        assert exact_p(q, k) > Fraction(1, 2)
        for n in (k, k + 1, 1000, 10**6):
            assert expurgation_length(q, k, n) == reference_length(q, k, n), (q, k, n)

    def test_exact_walk_inside_a_wide_bound(self, monkeypatch):
        # a 3% bound puts several candidates in reach of every estimate, so
        # the rational test, not the float ceiling, picks each answer
        monkeypatch.setattr(fpcodes.bounds, "LENGTH_REL_ERR", 0.03)
        assert expurgation_length.__globals__["LENGTH_REL_ERR"] == 0.03  # the patch reached it
        for q, k, n in LENGTH_GRID:
            assert expurgation_length(q, k, n) == reference_length(q, k, n), (q, k, n)

    def test_large_k_binary_matches_high_precision(self):
        # the exact search takes seconds to minutes here (multi-megabit powers)
        for q, k, n in [(2, 60, 2000), (2, 200, 2000)]:
            count = (k + 1) * math.comb(n + n // k, k)
            p = exact_p(q, k)
            x = mp.log(count) / -mp.log(1 - mp.mpf(p.numerator) / p.denominator)
            assert expurgation_length(q, k, n) == int(mp.ceil(x)), (q, k, n)

    def test_monotone_in_n(self):
        prev = 0
        for n in range(2, 60):
            t = expurgation_length(3, 2, n)
            assert t >= prev
            prev = t

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            expurgation_length(3, 2, 1)
        with pytest.raises(ParameterError):
            expurgation_length(3, 1, 10)


class TestCorollaryLength:
    def test_high_precision_values(self):
        def mp_val(q, k, n):
            p = mp.mpf(exact_p(q, k).numerator) / exact_p(q, k).denominator
            num = -k * mp.log(n * mp.mpf(k + 1) / k) - mp.log(mp.mpf(k + 1) / mp.factorial(k))
            return num / mp.log(1 - p)

        for q, k, n in [(2, 2, 100), (4, 2, 100), (3, 2, 10), (2, 3, 50), (6, 3, 200)]:
            assert corollary_length(q, k, n) == pytest.approx(float(mp_val(q, k, n)), rel=1e-12)

    def test_frozen_values(self):
        assert corollary_length(2, 2, 100) == pytest.approx(41.488806542560, rel=1e-11)
        assert corollary_length(4, 2, 100) == pytest.approx(12.612805066588, rel=1e-11)
        assert corollary_length(3, 2, 10) == pytest.approx(9.904215011890, rel=1e-11)

    def test_dominates_exact_length_on_grid(self):
        for q in range(2, 7):
            for k in range(2, 7):
                for n in (10, 100):
                    assert expurgation_length(q, k, n) <= math.ceil(corollary_length(q, k, n)), (q, k, n)


class TestSymbolDistribution:
    def test_uniform_branch(self):
        assert symbol_distribution(5, 2) == (0.2,) * 5

    def test_biased_branch(self):
        mu = symbol_distribution(2, 3)
        assert mu == (0.75, 0.25)
        mu = symbol_distribution(3, 4)
        assert mu[1] == mu[2] == 1 / 5
        assert mu[0] == pytest.approx(1 - 2 / 5)

    @pytest.mark.parametrize("q", [*range(2, 65), 65536])
    def test_floats_as_the_two_expressions(self, q):
        # every expurgation draw's CDF is built from these floats, bit for bit
        for k in range(2, 65):
            if q > k:
                want = tuple([1.0 / q] * q)
            else:
                want = (1.0 - (q - 1) / (k + 1),) + tuple([1.0 / (k + 1)] * (q - 1))
            # every entry is a positive finite float, and for those == is bit
            # identity (no NaN, no signed zero), so no hex strings are needed
            assert symbol_distribution(q, k) == want, (q, k)

    @given(st.integers(2, 10), st.integers(2, 10))
    def test_sums_to_one(self, q, k):
        assert sum(symbol_distribution(q, k)) == pytest.approx(1.0, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            ExpurgationParams(k=2, q=2, n=1, t=10, seed=0)  # n < k
        with pytest.raises(ParameterError, match="exceeds 65536"):
            ExpurgationParams(k=2, q=70000, n=10, t=10, seed=0)
        with pytest.raises(ParameterError, match="exceeds 65536"):
            expurgate_run(70000, 2, 10)

    def test_refuses_draws_past_one_stream_call(self):
        # the draw takes two words per symbol of its t x (n + ell) matrix
        # from one getrandbits call: past MAX_WORDS it is refused before it
        # is sized, as is everything up to MAX_N symbols and past it
        n = 10**6
        width = n + n // 2
        t = MAX_WORDS // (2 * width)
        ExpurgationParams(k=2, q=3, n=n, t=t, seed=0)
        with pytest.raises(ParameterError, match=f"a draw of {t + 1} rows and {width} columns takes "
                                                 f"{2 * (t + 1) * width} random words, over the {MAX_WORDS}"):
            ExpurgationParams(k=2, q=3, n=n, t=t + 1, seed=0)
        for n in (10**6, MAX_N, 10**30):
            with pytest.raises(ParameterError, match=f"over the {MAX_WORDS} one stream yields"):
                expurgate_run(3, 3, n)

    @pytest.mark.parametrize("call,message", [
        (lambda: ExpurgationParams(k=1, q=3, n=10, t=5, seed=0), "k=1 must be at least 2"),
        (lambda: ExpurgationParams(k=2, q=1, n=10, t=5, seed=0), "q=1 must be at least 2"),
        (lambda: symbol_distribution(3, 1), "k=1 must be at least 2"),
        (lambda: symbol_distribution(1, 3), "q=1 must be at least 2"),
        (lambda: draw_matrix(expurgation_params(3, 2, 10), attempt=-1), "attempt=-1 must be nonnegative"),
    ], ids=["k<2", "q<2", "mu k<2", "mu q<2", "attempt<0"])
    def test_refusals(self, call, message):
        with pytest.raises(ParameterError, match=message):
            call()

    @pytest.mark.parametrize("q,k,n,seed", [(3, 2, 10, 4), (2, 3, 9, 7), (16, 3, 20, 1)])
    def test_derived_fields(self, q, k, n, seed):
        # ell and mu follow from (q, k, n): a hand-built record draws what the resolved one does
        resolved = expurgation_params(q, k, n, seed)
        hand = ExpurgationParams(k, q, n, resolved.t, seed)
        assert hand == resolved
        assert (hand.ell, hand.mu) == (n // k, symbol_distribution(q, k))
        for attempt in (0, 1):
            assert np.array_equal(draw_matrix(hand, attempt), draw_matrix(resolved, attempt))


def reference_draw_matrix(params, attempt):
    """`draw_matrix` as a loop of `random()` and `bisect_right` per symbol: the
    reference the word replay must match bit for bit."""
    rng = random.Random(params.seed + attempt)
    cum = list(itertools.accumulate(params.mu))
    cum[-1] = 1.0
    width = params.n + params.ell
    flat = [bisect.bisect_right(cum, rng.random()) for _ in range(params.t * width)]
    return np.array(flat, dtype=np.uint16).reshape(params.t, width)


class TestDrawMatrix:
    # q <= k draws the biased mu, q > k the uniform one
    @pytest.mark.parametrize("q,k,n", [(3, 2, 100), (5, 3, 40), (2, 2, 60), (16, 3, 60), (2, 5, 50), (4, 4, 30), (256, 2, 30)])
    def test_matches_reference_loop(self, q, k, n):
        for seed in (0, 1):
            params = expurgation_params(q, k, n, seed)
            for attempt in range(4):
                assert np.array_equal(draw_matrix(params, attempt), reference_draw_matrix(params, attempt)), (seed, attempt)

    def test_shape_and_determinism(self):
        params = expurgation_params(3, 2, 10, seed=4)
        a = draw_matrix(params, attempt=0)
        b = draw_matrix(params, attempt=0)
        c = draw_matrix(params, attempt=1)
        assert a.shape == (params.t, params.n + params.ell)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_frequencies(self):
        params = expurgation_params(3, 2, 10, seed=99)
        total = np.zeros(3)
        draws = 400
        for attempt in range(draws):
            m = draw_matrix(params, attempt)
            for s in range(3):
                total[s] += int((m == s).sum())
        count = total.sum()
        for s in range(3):
            p_hat = total[s] / count
            sigma = math.sqrt((1 / 3) * (2 / 3) / count)
            assert abs(p_hat - 1 / 3) <= 4 * sigma, s

    def test_biased_frequencies(self):
        params = expurgation_params(2, 3, 9, seed=7)
        ones = 0
        count = 0
        for attempt in range(200):
            m = draw_matrix(params, attempt)
            ones += int((m == 1).sum())
            count += m.size
        p_hat = ones / count
        sigma = math.sqrt(0.25 * 0.75 / count)
        assert abs(p_hat - 0.25) <= 4 * sigma


def naive_bad_events(entries, k):
    t, m = entries.shape
    out = []
    for i in range(m):
        for group in itertools.combinations([j for j in range(m) if j != i], k):
            if all(any(entries[r, j] == entries[r, i] for j in group) for r in range(t)):
                out.append((i, group))
    return out


class TestEnumerateBadEvents:
    @given(st.data())
    @settings(max_examples=150)
    def test_matches_naive(self, data):
        entries = data.draw(st.one_of(code_matrices(max_n=8), wide_codes())).entries
        k = data.draw(st.integers(1, entries.shape[1] - 1))
        assert enumerate_bad_events(entries, k) == naive_bad_events(entries, k)

    def test_duplicate_columns_always_bad(self):
        entries = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint16)
        events = enumerate_bad_events(entries, 1)
        assert (0, (1,)) in events and (1, (0,)) in events

    def test_k_range_checked(self):
        # the range rule and message of is_frameproof, stated once
        entries = np.zeros((2, 3), dtype=np.uint16)
        for k in (0, 3):
            with pytest.raises(ParameterError, match=f"need 1 <= k <= n-1, got k={k}, n=3"):
                enumerate_bad_events(entries, k)


class TestBuild:
    @pytest.mark.parametrize("q,k,n", [(3, 2, 10), (2, 2, 6), (2, 3, 9)])
    def test_output_frameproof(self, q, k, n):
        for seed in (0, 1, 2):
            matrix, params, info = expurgate_run(q, k, n, seed)
            assert (matrix.q, matrix.t, matrix.n) == (q, params.t, n)
            assert info["deleted_columns"] <= params.ell
            assert is_frameproof(matrix, k).passed
            # survivors carry no residual bad event
            assert enumerate_bad_events(matrix.entries, k) == []

    def test_signature_returns_matrix_only(self):
        matrix = expurgate_run(3, 2, 10, seed=5)[0]
        assert (matrix.t, matrix.n) == (10, 10)

    def test_deterministic(self):
        a = expurgate_run(3, 2, 10, seed=8)[0]
        b = expurgate_run(3, 2, 10, seed=8)[0]
        assert a == b

    def test_expected_bad_events_within_band(self):
        # mean bad-event count over many draws must respect the
        # first-moment bound (n+ell) C(n+ell-1, k) (1-p)^t, up to 3 sigma
        q, k, n = 2, 2, 6
        params = expurgation_params(q, k, n, seed=0)
        m = n + params.ell
        bound = float(m * math.comb(m - 1, k) * (1 - exact_p(q, k)) ** params.t)
        counts = []
        for seed in range(150):
            drawn = draw_matrix(expurgation_params(q, k, n, seed=seed), attempt=0)
            counts.append(len(enumerate_bad_events(drawn, k)))
        mean = sum(counts) / len(counts)
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        stderr = math.sqrt(var / len(counts))
        assert mean <= bound + 3 * stderr
        assert bound < params.ell + 1  # the feasibility margin itself

    def test_capacity_guard(self, monkeypatch):
        # the bad-event scan of each draw is one call against the budget;
        # each node of the cover search tests the 44 other columns of the
        # 45-column draw, so the count passes the budget by at most 44
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 1000)
        with pytest.raises(CapacityError) as excinfo:
            expurgate_run(3, 2, 30, seed=0)
        match = re.search(r"bad-event check refused after (\d+) coalition checks, over the 1000 budget, "
                          r"at column (\d+), coalition prefix \(([\d, ]*)\)", str(excinfo.value))
        assert match, str(excinfo.value)
        assert 1000 < int(match[1]) <= 1000 + 44
        column, prefix = int(match[2]), [int(x) for x in match[3].split(",") if x.strip()]
        assert len(prefix) < 2 and column not in prefix and all(0 <= j < 45 for j in [column, *prefix])

    def test_q_above_k_at_real_size(self):
        # m = 400 columns: 400 C(399, 3) = 4.2e9 coalitions a draw, scanned
        # in a few million checks since the cut ends most prefixes early
        matrix, params, info = expurgate_run(16, 3, 300, seed=0)
        assert (matrix.q, matrix.t, matrix.n) == (16, params.t, 300)
        assert info["bad_events"] <= params.ell
        assert is_frameproof(matrix, 3).passed

    def test_redraw_cap(self, monkeypatch):
        import fpcodes.expurgate as ex

        calls = {"n": 0}

        def always_bad(entries, k, what):
            calls["n"] += 1
            return [(i, tuple(range(1, k + 1))) for i in range(20)]

        monkeypatch.setattr(ex, "_framings", always_bad)
        with pytest.raises(ConstructionError):
            ex.expurgate_run(3, 2, 10, seed=0)
        assert calls["n"] == ex.MAX_REDRAWS

    def test_rejected_draw_scan_stops_after_ell_plus_one(self, monkeypatch):
        import fpcodes.expurgate as ex

        # an all-zero draw frames every column by every k others: 15 C(14, 2)
        # events at (q, k, n) = (3, 2, 10), ell = 5; each draw's scan yields 6
        zeros = np.zeros((10, 15), dtype=np.uint16)
        assert len(enumerate_bad_events(zeros, 2)) == 15 * math.comb(14, 2)
        monkeypatch.setattr(ex, "draw_matrix", lambda params, attempt: zeros)
        pulled = []

        def counted(entries, k, what):
            pulled.append(0)
            for event in fpcodes.verify._framings(entries, k, what):
                pulled[-1] += 1
                yield event

        monkeypatch.setattr(ex, "_framings", counted)
        with pytest.raises(ConstructionError):
            ex.expurgate_run(3, 2, 10, seed=0)
        assert pulled == [5 + 1] * ex.MAX_REDRAWS
