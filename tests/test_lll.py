import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fpcodes._util import substream
from fpcodes.bounds import lll_lambda_length, lll_threshold
from fpcodes.core import MAX_N, MAX_Q, CodeMatrix, ConstructionError, ParameterError
import fpcodes.lll
from fpcodes.lll import (
    ConstructionParams,
    ResampleLog,
    _draw_columns,
    _word_budget,
    build_frameproof,
    build_lambda_matrix,
    build_strongly_selective,
    derive_lambda,
    derive_length,
    derive_weight,
    derived_params,
    lll_satisfiability_check,
    resample_budget,
    sample_column,
)
from fpcodes.verify import is_frameproof, is_lambda_matrix, is_strongly_selective

mp.mp.dps = 50


def reference_columns(params):
    """The initial draw as a loop of `sample_column` over fresh streams:
    the columns and each stream, left where the loop leaves it."""
    streams = [substream(params.seed, "col", j) for j in range(params.n)]
    cols = np.zeros((params.t, params.n), dtype=np.uint16)
    for j, rng in enumerate(streams):
        cols[:, j] = sample_column(params.t, params.w, params.q, rng)
    return cols, streams


def reference_build(params):
    """The builder as a Python pair loop over a set of violated pairs: the
    reference the kernel-based `build_lambda_matrix` must match bit for bit."""
    n, t, w, q, lam = params.n, params.t, params.w, params.q, params.lam
    cols, streams = reference_columns(params)

    def agreements(j):
        ref = cols[:, j : j + 1]
        return np.count_nonzero((cols == ref) & (ref != 0), axis=0)

    violated = set()
    for a in range(n):
        counts = agreements(a)
        for b in range(a + 1, n):
            if counts[b] > lam:
                violated.add((a, b))
    history = [(0, len(violated))]
    events = 0
    while violated:
        a, b = min(violated)
        cols[:, a] = sample_column(t, w, q, streams[a])
        cols[:, b] = sample_column(t, w, q, streams[b])
        events += 1
        for x in (a, b):
            counts = agreements(x)
            for y in range(n):
                if y == x:
                    continue
                pair = (x, y) if x < y else (y, x)
                if counts[y] > lam:
                    violated.add(pair)
                else:
                    violated.discard(pair)
        history.append((events, len(violated)))
    return CodeMatrix(q, cols), ResampleLog(tuple(history))


def mp_weight(k, n):
    return int(mp.ceil(1 + (k - 1) * mp.log(2 * mp.e * n) - mp.mpf("1e-9")))


def mp_length(lam, w, n, q):
    second = (
        mp.mpf(lam) / 2
        + (mp.e * w / (lam + 1)) * (w - mp.mpf(lam) / 2) * (mp.e * (2 * n - 4)) ** (mp.mpf(1) / (lam + 1)) / (q - 1)
    )
    return max(2 * w - (lam + 1), int(mp.ceil(second - mp.mpf("1e-9"))))


class TestDeriveFormulas:
    def test_weight_frozen_values(self):
        assert derive_weight(2, 10) == 5
        assert derive_weight(3, 10) == 9
        assert derive_weight(2, 100) == 8
        assert derive_weight(4, 50) == 18

    def test_length_frozen_values(self):
        assert derive_length(4, 5, 10, 3) == 11
        assert derive_length(2, 9, 10, 3) == 116

    def test_weight_matches_high_precision(self):
        for k in range(2, 8):
            for n in (k + 1, 10, 37, 100, 1000):
                if n <= k:
                    continue
                assert derive_weight(k, n) == mp_weight(k, n), (k, n)

    def test_length_matches_high_precision(self):
        cases = [(4, 5, 10, 3), (2, 9, 10, 3), (5, 11, 20, 3), (4, 9, 8, 2), (6, 13, 50, 3), (1, 3, 5, 4)]
        for lam, w, n, q in cases:
            assert derive_length(lam, w, n, q) == mp_length(lam, w, n, q), (lam, w, n, q)

    def test_lambda_floor(self):
        assert derive_lambda(5, 2) == 4
        assert derive_lambda(9, 3) == 4
        assert derive_lambda(1, 2) == 0
        assert derive_lambda(11, 3) == 5

    def test_derived_chains_frozen(self):
        # (k, q, n) -> (w, lam, t), all pre-verified at 50-digit precision
        chains = {
            (2, 3, 8): (5, 4, 11),
            (3, 3, 20): (11, 5, 48),
            (3, 2, 8): (9, 4, 71),
            (2, 2, 5): (5, 4, 17),
            (3, 2, 10): (9, 4, 75),
            (4, 3, 50): (18, 5, 163),
            (3, 3, 50): (13, 6, 59),
        }
        for (k, q, n), (w, lam, t) in chains.items():
            p = derived_params(k, q, n, seed=0)
            assert (p.w, p.lam, p.t) == (w, lam, t), (k, q, n)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            derive_weight(1, 10)
        with pytest.raises(ParameterError):
            derive_weight(3, 3)  # needs n > k
        with pytest.raises(ParameterError):
            derive_length(4, 5, 2, 3)  # n >= 3
        with pytest.raises(ParameterError):
            derive_length(5, 5, 10, 3)  # lam < w
        with pytest.raises(ParameterError, match="2\\^53"):
            derive_length(2, 5, 10, 10**400)  # q past exact floats
        with pytest.raises(ParameterError):
            derive_lambda(5, 1)

    @given(st.integers(2, 6), st.integers(2, 8), st.integers(7, 60))
    def test_length_nonincreasing_in_q(self, k, q, n):
        w = derive_weight(k, n)
        lam = derive_lambda(w, k)
        assert derive_length(lam, w, n, q + 1) <= derive_length(lam, w, n, q)


class TestSatisfiability:
    def test_true_at_derived_length(self):
        for k, q, n in [(2, 3, 8), (3, 3, 20), (2, 2, 5), (4, 3, 50)]:
            assert lll_satisfiability_check(derived_params(k, q, n, seed=0))

    def test_false_just_below_when_second_term_governs(self):
        # at these points the probabilistic term exceeds 2w-(lam+1), so
        # t-1 must fail the criterion (the length is the exact threshold)
        for lam, w, n, q in [(4, 5, 10, 3), (2, 9, 10, 3), (6, 13, 50, 3)]:
            t = derive_length(lam, w, n, q)
            assert t - 1 >= 2 * w - (lam + 1)
            good = ConstructionParams(k=2, q=q, n=n, w=w, lam=lam, t=t, seed=0)
            bad = ConstructionParams(k=2, q=q, n=n, w=w, lam=lam, t=t - 1, seed=0)
            assert lll_satisfiability_check(good)
            assert not lll_satisfiability_check(bad)

    def test_derived_length_is_first_admissible_on_grid(self):
        # admissible: at least 2w-(lam+1) rows and the local-lemma criterion
        # holds; the derived t is admissible and t-1 is not
        for k in range(2, 9):
            for q in (2, 3, 4, 5, 7, 16, 17, 64, 255, 256):
                for n in (k + 2, 10, 50, 100, 1000, 10**4, 10**5, 10**6):
                    p = derived_params(k, q, n, seed=0)
                    first = 2 * p.w - (p.lam + 1)
                    assert p.t >= first and lll_satisfiability_check(p), (k, q, n)
                    if p.t - 1 >= first:
                        below = ConstructionParams(k=k, q=q, n=n, w=p.w, lam=p.lam, t=p.t - 1, seed=0)
                        assert not lll_satisfiability_check(below), (k, q, n)

    @given(st.integers(1, 400), st.data(), st.integers(3, 10**13), st.integers(2, MAX_Q))
    def test_derived_length_is_first_admissible(self, w, data, n, q):
        # the grid test above at random points, lam < w <= 400
        lam = data.draw(st.integers(0, w - 1))
        t = derive_length(lam, w, n, q)
        assume(t * n <= MAX_N)
        assert lll_satisfiability_check(ConstructionParams(k=2, q=q, n=n, w=w, lam=lam, t=t, seed=0))
        if t - 1 >= max(w, 2 * w - (lam + 1)):
            below = ConstructionParams(k=2, q=q, n=n, w=w, lam=lam, t=t - 1, seed=0)
            assert not lll_satisfiability_check(below)

    @given(st.integers(1, 400), st.data(), st.integers(3, 10**6), st.integers(2, MAX_Q))
    def test_admission_is_the_criterion_at_the_threshold(self, w, data, n, q):
        # at each t next to the threshold, admission is e P (2n-4) <= 1 for
        # P the pair violation bound, evaluated directly in mpmath.  Where the
        # threshold lies within 1e-9 of an integer (relative past 1, the float
        # formula's own error) the tolerant ceiling decides, so it is skipped
        lam = data.draw(st.integers(0, w - 1))
        theta = lll_threshold(lam, w, n, q)
        assume(abs(theta - round(theta)) > 1e-9 * max(1.0, theta))
        for t in {math.floor(theta), math.ceil(theta), math.ceil(theta) - 1, math.ceil(theta) + 1}:
            if w <= t and t * n <= MAX_N:
                half = mp.mpf(lam) / 2
                p_hat = (mp.e * w * (w - half) / ((lam + 1) * (q - 1) * (t - half))) ** (lam + 1)
                p = ConstructionParams(k=2, q=q, n=n, w=w, lam=lam, t=t, seed=0)
                assert (mp.e * p_hat * (2 * n - 4) <= 1) == lll_satisfiability_check(p), t

    def test_vacuous_for_tiny_n(self):
        p = ConstructionParams(k=2, q=2, n=2, w=3, lam=0, t=3, seed=0)
        assert lll_satisfiability_check(p)

    def test_zero_probability_when_lam_at_least_w(self):
        # no pair can exceed lam >= w agreements, so the criterion holds at any t
        p = ConstructionParams(k=2, q=2, n=10, w=2, lam=2, t=4, seed=0)
        assert lll_satisfiability_check(p)

    def test_matches_direct_probability_formula(self):
        p = derived_params(2, 3, 8, seed=0)
        direct = (
            (1 / (p.q - 1)) ** (p.lam + 1)
            * (math.e * p.w / (p.lam + 1)) ** (p.lam + 1)
            * ((p.w - p.lam / 2) / (p.t - p.lam / 2)) ** (p.lam + 1)
        )
        assert (math.e * direct * (2 * p.n - 4) <= 1) == lll_satisfiability_check(p)


class TestSampleColumn:
    def test_exact_weight_and_range(self):
        rng = substream(7, "col", 0)
        for _ in range(200):
            col = sample_column(11, 5, 3, rng)
            assert int(np.count_nonzero(col)) == 5
            assert col.max() <= 2

    def test_rejects_bad_args(self):
        rng = substream(0)
        with pytest.raises(ParameterError):
            sample_column(3, 4, 2, rng)
        with pytest.raises(ParameterError):
            sample_column(3, 1, 1, rng)
        with pytest.raises(ParameterError, match="exceeds 65536"):
            sample_column(3, 1, MAX_Q + 1, rng)
        assert sample_column(3, 3, MAX_Q, rng).max() <= MAX_Q - 1

    def test_deterministic_per_stream(self):
        a = sample_column(9, 4, 3, substream(5, "col", 2))
        b = sample_column(9, 4, 3, substream(5, "col", 2))
        assert np.array_equal(a, b)

    def test_weight1_support_uniform(self):
        # t=2, w=1, q=2: two equally likely columns; 3 sigma band
        rng = substream(123, "unif")
        draws = 100_000
        hits = 0
        for _ in range(draws):
            col = sample_column(2, 1, 2, rng)
            hits += int(col[0] == 1)
        p_hat = hits / draws
        sigma = math.sqrt(0.25 / draws)
        assert abs(p_hat - 0.5) <= 3 * sigma

    def test_joint_distribution_chi_square(self):
        # t=4, w=2, q=3: 6 supports x 4 symbol pairs = 24 equally likely
        # outcomes; chi-square at alpha=0.001, df=23
        from scipy.stats import chi2

        rng = substream(2024, "chisq")
        draws = 100_000
        counts: dict[bytes, int] = {}
        for _ in range(draws):
            key = sample_column(4, 2, 3, rng).tobytes()
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expected = draws / 24
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.999, 23)


class TestBuild:
    def test_output_is_lambda_matrix_and_selective(self):
        matrix, params, log = build_strongly_selective(2, 3, 8, seed=3)
        assert (matrix.q, matrix.t, matrix.n) == (3, 11, 8)
        assert is_lambda_matrix(matrix, params.lam, params.w).passed
        assert is_strongly_selective(matrix, 2).passed
        assert log.history[-1][1] == 0

    def test_frameproof_wrapper(self):
        matrix, params, _ = build_frameproof(2, 3, 12, seed=5)
        assert params.k == 3  # builds selectivity k+1
        assert is_frameproof(matrix, 2).passed

    def test_deterministic_in_seed(self):
        a, _, la = build_strongly_selective(3, 3, 20, seed=11)
        b, _, lb = build_strongly_selective(3, 3, 20, seed=11)
        c, _, _ = build_strongly_selective(3, 3, 20, seed=12)
        assert a == b
        assert la == lb
        assert a != c

    def test_log_shape(self):
        _, _, log = build_strongly_selective(2, 2, 12, seed=9)
        assert len(log.history) == log.total_resamples + 1
        assert [e for e, _ in log.history] == list(range(len(log.history)))
        assert log.history[-1][1] == 0

    def test_rejects_alphabet_above_max_q(self):
        # the chain resolves (the bounds use it at any q); the parameter
        # record, and so every build, is refused
        assert lll_lambda_length(MAX_Q + 1, 2, 10) >= 1
        with pytest.raises(ParameterError, match="exceeds 65536"):
            derived_params(2, MAX_Q + 1, 10, seed=0)
        with pytest.raises(ParameterError, match="exceeds 65536"):
            build_strongly_selective(2, 70000, 10)

    def test_too_few_columns_message(self):
        # derive_weight makes the n > k check for the builder
        with pytest.raises(ParameterError, match="need n > k, got n=2, k=2"):
            build_strongly_selective(2, 3, 2)

    def test_rejects_unsatisfiable_params(self):
        p = derived_params(2, 3, 10, seed=0)
        too_short = ConstructionParams(k=p.k, q=p.q, n=p.n, w=p.w, lam=p.lam, t=p.t - 1, seed=0)
        with pytest.raises(ParameterError):
            build_lambda_matrix(too_short)

    def test_budget_exhaustion_reports_log(self):
        # n=2 bypasses the criterion; two all-ones binary columns always
        # collide in every row, so the loop must hit its budget
        p = ConstructionParams(k=2, q=2, n=2, w=3, lam=0, t=3, seed=1)
        with pytest.raises(ConstructionError) as err:
            build_lambda_matrix(p)
        assert err.value.log is not None
        assert err.value.log.total_resamples == resample_budget(2)

    def test_trivial_instances(self):
        # lam >= w: no pair can exceed the bound, first draw wins
        p = ConstructionParams(k=2, q=2, n=2, w=2, lam=2, t=3, seed=0)
        matrix, log = build_lambda_matrix(p)
        assert log.total_resamples == 0
        assert matrix.n == 2
        # single column: no pairs at all
        p1 = ConstructionParams(k=2, q=3, n=1, w=2, lam=0, t=4, seed=0)
        matrix1, log1 = build_lambda_matrix(p1)
        assert matrix1.n == 1 and log1.total_resamples == 0

    def test_resample_loop_fires_and_converges(self):
        # weight-1 binary columns at the admissibility threshold t=119:
        # same-support pairs collide often enough that these seeds resample
        for seed, events in [(15, 3), (30, 2)]:
            p = ConstructionParams(k=2, q=2, n=10, w=1, lam=0, t=119, seed=seed)
            matrix, log = build_lambda_matrix(p)
            assert log.total_resamples == events
            assert is_lambda_matrix(matrix, 0, 1).passed
        assert not lll_satisfiability_check(
            ConstructionParams(k=2, q=2, n=10, w=1, lam=0, t=118, seed=0)
        )

    def test_budget_value(self):
        assert resample_budget(2) == 200
        assert resample_budget(50) == 5000
        # expected-resample bound n(n-1)/2 / (2n-4) stays below n for n >= 3
        for n in range(3, 200):
            assert n * (n - 1) / 2 / (2 * n - 4) <= n

    @pytest.mark.parametrize("field,value,message", [
        ("k", 1, "k=1 must be at least 2"),
        ("q", 1, "q=1 must be at least 2"),
        ("n", 0, "n=0 must be positive"),
        ("w", 0, "w=0 must be positive"),
        ("lam", -1, "lam=-1 must be nonnegative"),
        ("t", 2, "t=2 cannot be below the column weight w=3"),
    ])
    def test_params_refusals(self, field, value, message):
        fields = dict(k=2, q=3, n=10, w=3, lam=1, t=5, seed=0)
        ConstructionParams(**fields)
        with pytest.raises(ParameterError, match=message):
            ConstructionParams(**{**fields, field: value})

    def test_refuses_codes_numpy_cannot_shape(self):
        # t * n above MAX_N symbols is refused by the parameters, as the
        # reader refuses it, before the draw sizes an array
        fields = dict(k=2, q=3, w=3, lam=1, t=5, seed=0)
        ConstructionParams(**fields, n=MAX_N // 5)
        with pytest.raises(ParameterError, match="a code of 5 rows and"):
            ConstructionParams(**fields, n=MAX_N // 5 + 1)
        with pytest.raises(ParameterError, match=f"exceeds {MAX_N} symbols"):
            build_strongly_selective(3, 3, 10**30, seed=0)
        with pytest.raises(ParameterError, match=f"exceeds {MAX_N} symbols"):
            build_frameproof(3, 3, 10**30, seed=0)

    def test_guard_arguments(self):
        with pytest.raises(ParameterError):
            build_strongly_selective(2, 3, 2, seed=0)  # n >= 3
        with pytest.raises(ParameterError):
            build_frameproof(2, 3, 3, seed=0)  # n > k+1
        with pytest.raises(ParameterError):
            build_frameproof(1, 3, 10, seed=0)


class TestBitIdentity:
    @pytest.mark.parametrize("k,q,n", [(2, 3, 8), (3, 3, 20), (2, 2, 12), (3, 2, 40), (4, 3, 50)])
    def test_derived_parameters_match_reference(self, k, q, n):
        for seed in range(6):
            params = derived_params(k, q, n, seed)
            assert build_lambda_matrix(params) == reference_build(params), (k, q, n, seed)

    @pytest.mark.parametrize("w,lam,n,q", [(3, 1, 200, 2), (4, 1, 300, 3), (5, 2, 300, 2)])
    def test_threshold_length_matches_reference(self, w, lam, n, q):
        # hand-built parameters at the admissibility threshold, where every
        # seed below resamples at least once
        t = derive_length(lam, w, n, q)
        for seed in range(5):
            params = ConstructionParams(k=2, q=q, n=n, w=w, lam=lam, t=t, seed=seed)
            assert build_lambda_matrix(params) == reference_build(params), seed

    def test_resampling_case_matches_reference(self):
        # weight-1 columns over q=256 at the admissibility threshold: every
        # pair sharing a (row, symbol) is violated, so the loop runs 30-50
        # events at n=1000
        t = derive_length(0, 1, 1000, 256)
        params = ConstructionParams(k=2, q=256, n=1000, w=1, lam=0, t=t, seed=2002)
        matrix, log = build_lambda_matrix(params)
        ref_matrix, ref_log = reference_build(params)
        assert 30 <= log.total_resamples <= 50
        assert matrix == ref_matrix
        assert log == ref_log


class TestInitialDraw:
    # lam >= w passes the criterion vacuously and never resamples, so any
    # (t, w, q) can be drawn; "threshold" resamples (7 events)
    CASES = {
        "w=t": ConstructionParams(k=2, q=3, n=60, w=9, lam=9, t=9, seed=1),
        "q=2": ConstructionParams(k=2, q=2, n=60, w=7, lam=7, t=20, seed=2),
        "q=MAX_Q": ConstructionParams(k=2, q=MAX_Q, n=60, w=12, lam=12, t=40, seed=3),
        "t>255": ConstructionParams(k=2, q=3, n=40, w=40, lam=40, t=300, seed=4),
        "n=1": ConstructionParams(k=2, q=3, n=1, w=5, lam=0, t=12, seed=5),
        "derived": derived_params(3, 3, 300, 6),
        "threshold": ConstructionParams(k=2, q=2, n=300, w=3, lam=1, t=derive_length(1, 3, 300, 2), seed=7),
    }

    def check_draw(self, params):
        """Columns, and every stream's position after the draw, against the scalar loop."""
        cols, used = _draw_columns(params)
        ref, ref_streams = reference_columns(params)
        for j in range(params.n):
            assert np.array_equal(cols[:, j], ref[:, j]), j
            rng = substream(params.seed, "col", j)
            rng.getrandbits(32 * int(used[j]))
            assert [rng.random() for _ in range(10)] == [ref_streams[j].random() for _ in range(10)], j
        return cols, used

    @pytest.mark.parametrize("name", CASES)
    def test_matches_scalar_loop(self, name):
        params = self.CASES[name]
        self.check_draw(params)
        assert build_lambda_matrix(params) == reference_build(params)

    @pytest.mark.parametrize("block", range(1, 8))
    def test_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(fpcodes.lll, "DRAW_BLOCK", block)
        params = derived_params(3, 3, 23, block)
        self.check_draw(params)
        assert build_lambda_matrix(params) == reference_build(params)

    def test_last_block_partial(self):
        n = fpcodes.lll.DRAW_BLOCK + 5
        self.check_draw(ConstructionParams(k=2, q=3, n=n, w=4, lam=4, t=10, seed=8))

    def test_word_shortfall_falls_back(self, monkeypatch):
        # a budget of the mean word count alone: columns run short and are
        # replayed with twice the words; one of those is resampled later, from
        # its stream advanced past the words the draw took
        monkeypatch.setattr(fpcodes.lll, "DRAW_SURPLUS", 0)
        t = derive_length(0, 1, 1000, 256)
        params = ConstructionParams(k=2, q=256, n=1000, w=1, lam=0, t=t, seed=2002)
        cols, used = self.check_draw(params)
        over = set(np.flatnonzero(used > _word_budget(t, 1, 256)).tolist())
        matrix, log = build_lambda_matrix(params)
        redrawn = set(np.flatnonzero((matrix.entries != cols).any(axis=0)).tolist())
        assert len(over) >= 5 and redrawn & over
        assert (matrix, log) == reference_build(params)
        for name in ("q=2", "t>255", "derived"):
            self.check_draw(self.CASES[name])

    @pytest.mark.parametrize("name", CASES)
    def test_window_of_one(self, monkeypatch, name):
        # every rejected word is a window miss, so most columns are replayed,
        # some several times, with windows of 2, 4, 8, ... words; blocks of 16
        # columns put block edges, and a partial last block, in most cases
        monkeypatch.setattr(fpcodes.lll, "DRAW_WINDOW", 1)
        monkeypatch.setattr(fpcodes.lll, "DRAW_BLOCK", 16)
        params = self.CASES[name]
        self.check_draw(params)
        assert build_lambda_matrix(params) == reference_build(params)

    def test_memory_stays_below_column_streams(self):
        # with one stream per column held for the whole build the peak was 34 MB
        params = derived_params(3, 3, 6000, 0)
        tracemalloc.start()
        try:
            build_lambda_matrix(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24_000_000, peak
