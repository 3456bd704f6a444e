import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcodes import conflict
from fpcodes._util import substream
from fpcodes.conflict import exhaustive_guarantee, guarantee_check, simulate, trace_lines
from fpcodes.core import CapacityError, CodeMatrix, ParameterError, column_weight
from fpcodes.diagonal import build_diagonal
from fpcodes.lll import build_strongly_selective
from fpcodes.verify import is_lambda_matrix, is_strongly_selective, selective_row_exists
from strategies import code_matrices, kautz_singleton, wide_codes


def mat(q, rows):
    return CodeMatrix(q, np.array(rows, dtype=np.uint16))


def simulated_guarantee(m, k):
    """Reference for exhaustive_guarantee: simulate every k-set in
    lexicographic order and report the first one where a station fails."""
    for group in itertools.combinations(range(m.n), k):
        if not simulate(m, group).all_succeed:
            return False, group
    return True, None


def simulated_guarantee_check(m, k, trials, seed):
    """Reference for guarantee_check: the loop it replaced, `simulate` on
    each trial's set, drawn from the same substreams in the same order."""
    for trial in range(trials):
        rng = substream(seed, "trial", trial)
        size = rng.randint(1, k)
        if not simulate(m, rng.sample(range(m.n), size)).all_succeed:
            return False
    return True


def with_duplicate(m, src, dst):
    """`m` with column dst overwritten by a copy of column src."""
    entries = m.entries.copy()
    entries[:, dst] = entries[:, src]
    return CodeMatrix(m.q, entries)


# codes over q = 65535 with few distinct symbols, so that sets collide
near_uint16_codes = st.integers(1, 6).flatmap(lambda t: st.integers(2, 6).flatmap(
    lambda n: st.lists(st.sampled_from([0, 1, 65533, 65534]), min_size=t * n, max_size=t * n).map(
        lambda flat: CodeMatrix(65535, np.array(flat, dtype=np.uint16).reshape(t, n)))))

any_code = st.one_of(code_matrices(max_n=8), code_matrices(min_t=0, max_t=3, max_n=4), wide_codes(),
                     near_uint16_codes)


class TestSimulate:
    def test_diagonal_two_stations(self):
        out = simulate(build_diagonal(3, 4), {0, 2})
        assert out.success_slot == {0: 0, 2: 0}
        assert out.attempts_per_station == {0: 1, 2: 1}
        assert out.total_slots == 2
        assert out.all_succeed

    def test_singleton_first_nonzero_slot(self):
        m = mat(3, [[0], [0], [2], [1]])
        out = simulate(m, [0])
        assert out.success_slot == {0: 2}

    def test_identical_columns_collide(self):
        m = mat(2, [[1, 1], [1, 0]])
        out = simulate(m, [0, 1])
        # slot 0 collides on channel 1; slot 1 station 0 is alone
        assert out.success_slot == {0: 1, 1: None}
        assert not out.all_succeed

    def test_different_channels_share_slot(self):
        m = mat(3, [[1, 2]])
        out = simulate(m, [0, 1])
        assert out.success_slot == {0: 0, 1: 0}

    def test_empty_active_set(self):
        out = simulate(build_diagonal(3, 4), set())
        assert out.success_slot == {}
        assert out.active_set == frozenset()

    def test_station_out_of_range(self):
        with pytest.raises(ParameterError):
            simulate(build_diagonal(3, 4), {4})

    @given(code_matrices(), st.data())
    @settings(max_examples=60)
    def test_attempts_equal_column_weight(self, m, data):
        active = data.draw(st.sets(st.integers(0, m.n - 1), max_size=m.n))
        out = simulate(m, active)
        for s in active:
            assert out.attempts_per_station[s] == column_weight(m, s)

    @given(code_matrices(), st.data())
    @settings(max_examples=60)
    def test_success_slots_in_range(self, m, data):
        active = data.draw(st.sets(st.integers(0, m.n - 1), max_size=m.n))
        out = simulate(m, active)
        for slot in out.success_slot.values():
            assert slot is None or 0 <= slot < m.t


class TestGuarantee:
    def test_built_code_always_succeeds(self):
        matrix, _, _ = build_strongly_selective(3, 3, 20, seed=6)
        assert guarantee_check(matrix, 3, trials=300, seed=42)

    def test_failing_code_detected(self):
        m = mat(2, [[0, 1]])
        assert not guarantee_check(m, 2, trials=50, seed=0)

    def test_deterministic(self):
        matrix, _, _ = build_strongly_selective(2, 3, 12, seed=1)
        a = guarantee_check(matrix, 2, trials=100, seed=5)
        b = guarantee_check(matrix, 2, trials=100, seed=5)
        assert a == b

    def test_argument_validation(self):
        m = build_diagonal(3, 4)
        with pytest.raises(ParameterError):
            guarantee_check(m, 0, trials=10, seed=0)
        with pytest.raises(ParameterError):
            guarantee_check(m, 2, trials=0, seed=0)

    @given(any_code, st.data(), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_matches_simulate(self, m, data, trials, seed):
        # any k, and often n <= k + 1: sets up to the whole code
        k = data.draw(st.one_of(st.integers(1, m.n), st.sampled_from([m.n, max(1, m.n - 1)])))
        assert guarantee_check(m, k, trials, seed) == simulated_guarantee_check(m, k, trials, seed)

    @given(any_code, st.integers(1, 8), st.integers(1, 40), st.integers(0, 99), st.integers(1, 12))
    @settings(max_examples=100)
    def test_matches_simulate_small_blocks(self, m, k, trials, seed, block):
        # a few symbols per gathered block: one-trial chunks, wider than the block
        k = 1 + (k - 1) % m.n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conflict, "GATHER_BLOCK", block)
            assert guarantee_check(m, k, trials, seed) == simulated_guarantee_check(m, k, trials, seed)

    @pytest.mark.parametrize("k,duplicate", [(2, False), (3, False), (3, True), (2, True)])
    def test_matches_simulate_on_built_code(self, k, duplicate):
        matrix, _, _ = build_strongly_selective(3, 3, 12, seed=4)
        if duplicate:
            matrix = with_duplicate(matrix, 0, 5)
        want = simulated_guarantee_check(matrix, k, 400, 9)
        assert want is not duplicate
        assert guarantee_check(matrix, k, 400, 9) == want


class TestExhaustive:
    def test_selective_code_all_sets_succeed(self):
        matrix, _, _ = build_strongly_selective(2, 3, 10, seed=3)
        ok, failing = exhaustive_guarantee(matrix, 2)
        assert ok and failing is None

    def test_failing_set_reported(self):
        m = mat(2, [[1, 1], [0, 0]])
        ok, failing = exhaustive_guarantee(m, 2)
        assert not ok and failing == (0, 1)

    def test_capacity_guard(self):
        # the selectivity oracle's guard: 90 C(89, 44) coalition checks
        with pytest.raises(CapacityError):
            exhaustive_guarantee(CodeMatrix(2, np.zeros((2, 90), dtype=np.uint16)), 45)

    @given(code_matrices(min_n=2, max_n=6, max_t=4), st.integers(1, 6))
    @settings(max_examples=80)
    def test_agrees_with_oracle(self, m, k):
        # exhaustive_guarantee runs on the selectivity oracle; the reference
        # here is the schedule itself, simulated on every k-set
        k = 1 + (k - 1) % m.n
        assert exhaustive_guarantee(m, k) == simulated_guarantee(m, k)

    @given(code_matrices(min_n=2, max_n=5, max_t=4), st.integers(2, 3))
    @settings(max_examples=60)
    def test_per_set_equivalence(self, m, k):
        if k > m.n:
            k = m.n
        for group in itertools.combinations(range(m.n), k):
            sim_ok = simulate(m, group).all_succeed
            def_ok = all(
                selective_row_exists(m, c, [j for j in group if j != c]) for c in group
            )
            assert sim_ok == def_ok, group


class TestTrace:
    def test_diagonal_trace(self):
        lines = trace_lines(build_diagonal(3, 4), {0, 2})
        assert lines == [
            "0\t1\t0\tsuccess",
            "0\t2\t2\tsuccess",
            "1\t1\t-\tidle",
            "1\t2\t-\tidle",
        ]

    def test_collision_line(self):
        m = mat(2, [[1, 1]])
        assert trace_lines(m, {0, 1}) == ["0\t1\t0,1\tcollision"]


class TestKautzSingleton:
    """Known answers (Kautz and Singleton 1964): the polynomial codes of
    `strategies.kautz_singleton` are (m-1, L) lambda matrices, strongly
    k-selective for every k with (m-1)(k-1) <= L-1; up to 961 columns,
    past what the naive helpers reach."""

    @pytest.mark.parametrize("p,m,points", [(31, 2, 31), (31, 2, 12), (7, 3, 7), (5, 2, 5)])
    def test_known_answers(self, p, m, points):
        code = kautz_singleton(p, m, points)
        assert (code.q, code.t, code.n) == (p + 1, points, p**m)
        assert is_lambda_matrix(code, m - 1, points).passed
        assert is_strongly_selective(code, 2).passed
        top = (points - 1) // (m - 1) + 1
        for k in range(1, top + 1):
            assert guarantee_check(code, k, trials=100, seed=k)
        assert simulated_guarantee_check(code, top, 100, top)

    def test_planted_duplicate_fails(self):
        code = kautz_singleton(7, 2, 7)
        dup = with_duplicate(code, 0, 1)
        assert not is_lambda_matrix(dup, 1, 7).passed
        assert guarantee_check(code, 7, trials=2000, seed=3)
        assert not guarantee_check(dup, 7, trials=2000, seed=3)
        assert not simulated_guarantee_check(dup, 7, 2000, 3)
