import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpcodes.core
import fpcodes.verify
from fpcodes._util import substream
from fpcodes.core import CapacityError, CodeMatrix, ParameterError, _onehot, agreement_pairs, agreements_with, complement
from fpcodes.diagonal import build_diagonal
from fpcodes.expurgate import draw_matrix, enumerate_bad_events, expurgation_params
from fpcodes.lll import build_frameproof, build_strongly_selective, sample_column
from fpcodes.verify import (
    Witness,
    check_binary_expansion,
    check_reduction_fp_to_ss,
    check_reduction_ss_to_fp,
    coalition_covers,
    is_frameproof,
    is_lambda_matrix,
    is_strongly_selective,
    nonzero_agreement_rows,
    selective_row_exists,
)
from strategies import code_matrices, fan, kautz_singleton, wide_codes


def mat(q, rows):
    return CodeMatrix(q, np.array(rows, dtype=np.uint16))


def identity(n):
    return CodeMatrix(2, np.eye(n, dtype=np.uint16))


def zero_last(n):
    """Identity on n-1 columns, then a zero column.  Only sets holding column
    n-1 fail, so the first failing k-set is (0, ..., k-2, n-1); for k >= 2
    it turns up while the sets whose smallest member is 0 are scanned."""
    return CodeMatrix(2, np.eye(n - 1, n, dtype=np.uint16))


def naive_frameproof(m, k):
    for c in range(m.n):
        others = [j for j in range(m.n) if j != c]
        for group in itertools.combinations(others, k):
            if coalition_covers(m, c, group):
                return False, (c, group)
    return True, None


def naive_selective(m, k):
    for group in itertools.combinations(range(m.n), k):
        for c in group:
            if not selective_row_exists(m, c, [j for j in group if j != c]):
                return False, (c, group)
    return True, None


def reference_covers(masks, need, k, start=0, acc=0):
    """The cover kernel without the cut, every prefix visited: each
    increasing k-tuple of indices >= start into masks whose OR with acc
    equals need, in lexicographic order."""
    if acc == need:
        yield from itertools.combinations(range(start, len(masks)), k)
    elif k == 1:
        for i in range(start, len(masks)):
            if acc | masks[i] == need:
                yield (i,)
    elif k > 1:
        for i in range(start, len(masks) - k + 1):
            for rest in reference_covers(masks, need, k - 1, i + 1, acc | masks[i]):
                yield (i, *rest)


def reference_masks(bits):
    """Columns of a bool array as ints, one bit at a time."""
    return [sum(1 << int(i) for i in np.flatnonzero(bits[:, j])) for j in range(bits.shape[1])]


def reference_framings(entries, k):
    """Every (c, G) where G frames c, from `reference_covers`."""
    t, n = entries.shape
    for c in range(n):
        masks = reference_masks(entries == entries[:, c : c + 1])
        del masks[c]
        for hit in reference_covers(masks, (1 << t) - 1, k):
            yield c, tuple(i + (i >= c) for i in hit)


def reference_selective(entries, k):
    """The first (set, member) that fails selectivity, or None: sets taken
    by their least member g, and every member c >= g checked against its
    nonzero rows with `reference_covers`."""
    n = entries.shape[1]
    cols = []
    for c in range(n):
        ref = entries[:, c : c + 1]
        masks = reference_masks((entries == ref) & (ref != 0))
        need = masks.pop(c)
        cols.append((masks, need))
    for g in range(n - k + 1):
        failures = []
        for c in range(g, n if k > 1 else g + 1):
            masks, need = cols[c]
            if c == g:
                hit = next(reference_covers(masks, need, k - 1, g), None)
            else:
                rest = next(reference_covers(masks, need, k - 2, g + 1, masks[g]), None)
                hit = None if rest is None else (g, *rest)
            if hit is not None:
                failures.append((tuple(sorted([c, *(i + (i >= c) for i in hit)])), c))
        if failures:
            return min(failures)
    return None


def assert_cut_matches_reference(q, entries, ks):
    """Bad events, both witnesses and both verdicts of the pruned kernel
    against the uncut reference, at each k in ks."""
    m = CodeMatrix(q, entries)
    for k in ks:
        if k <= m.n - 1:
            events = list(reference_framings(entries, k))
            assert enumerate_bad_events(entries, k) == events
            report = is_frameproof(m, k)
            assert report.passed == (not events)
            if events:
                assert (report.witness.column, report.witness.coalition) == events[0]
        if k <= m.n:
            first = reference_selective(entries, k)
            report = is_strongly_selective(m, k)
            assert report.passed == (first is None)
            if first is not None:
                assert (report.witness.coalition, report.witness.column) == first


def plant_mix(entries, c, a, b, seed):
    """Column c row by row from column a or b: {a, b} frames c and blocks it."""
    e = entries.copy()
    pick = np.random.default_rng(seed).random(e.shape[0]) < 0.5
    e[:, c] = np.where(pick, e[:, a], e[:, b])
    return e


class TestCoverCut:
    """The popcount cut skips only prefixes that cannot cover: every output
    is that of the uncut kernel, kept here as `reference_covers`."""

    @pytest.mark.parametrize("k,q,n,seed", [(3, 3, 30, 0), (4, 3, 20, 1), (2, 3, 12, 2)])
    def test_lambda_codes_with_planted_failures(self, k, q, n, seed):
        # (4, 3, 20) has t = 108 rows: masks of two 64-bit words
        code, params, _ = build_strongly_selective(k, q, n, seed)
        e = code.entries
        assert_cut_matches_reference(q, e, (1, 2, 3))
        for c, a, b in ((n - 1, n - 3, n - 2), (0, 5, 9), (7, 2, 11)):
            assert_cut_matches_reference(q, plant_mix(e, c, a, b, seed), (1, 2, 3))
        dup = e.copy()
        dup[:, 4] = dup[:, 10]
        assert_cut_matches_reference(q, dup, (1, 2))

    @pytest.mark.parametrize(
        "q,k,n",
        [(16, 3, 30), (5, 3, 20), (3, 2, 30), (2, 2, 20), (2, 3, 15)],  # q > k, then q <= k
    )
    def test_expurgation_draws(self, q, k, n):
        # (2, 3, 15) draws t = 68 rows
        for seed in (0, 1):
            drawn = draw_matrix(expurgation_params(q, k, n, seed), attempt=seed)
            assert_cut_matches_reference(q, drawn, sorted({1, 2, k}))

    @pytest.mark.parametrize("build,k,q,n", [(build_frameproof, 2, 3, 60), (build_strongly_selective, 4, 3, 40)])
    def test_lambda_codes_settle_without_budget(self, monkeypatch, build, k, q, n):
        # (s - 1) lam <= w - 1 at the build's selectivity s = params.k, so
        # every column settles at the root: no mask is packed, nothing counted
        code, params, _ = build(k, q, n, 1)
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 0)
        assert is_frameproof(code, params.k - 1).passed
        assert is_strongly_selective(code, params.k).passed

    @pytest.mark.parametrize("c", [0, 127, 128, 129, 1999])
    def test_planted_column_among_settled_ones(self, c):
        # {700, 1300} frames column c of an lll-fp code at n = 2000; every
        # column but c and its sources settles, and the witness is still
        # the first cover of c in the uncut kernel's order.  127 | 128 is
        # the default edge of the B^T B column blocks the settle test reads
        code, _, _ = build_frameproof(2, 3, 2000, 1)
        e = plant_mix(code.entries, c, 700, 1300, c)
        masks = reference_masks(e == e[:, c : c + 1])
        del masks[c]
        hit = next(reference_covers(masks, (1 << e.shape[0]) - 1, 2))
        assert is_frameproof(CodeMatrix(3, e), 2).witness == Witness(c, tuple(i + (i >= c) for i in hit))

    def test_all_zero_column(self):
        # S is empty for the zero column: nothing bounds its cover, every set frames it
        code, _, _ = build_strongly_selective(3, 3, 16, 3)
        e = code.entries.copy()
        e[:, 6] = 0
        assert_cut_matches_reference(3, e, (1, 2, 3))
        drawn = draw_matrix(expurgation_params(16, 3, 20, 0))
        drawn[:, 0] = 0
        assert_cut_matches_reference(16, drawn, (1, 2, 3))

    def test_tight_bound_still_covers(self):
        # column 0 has 4 nonzero rows; columns 1 and 2 each agree with it on
        # 2 of them, disjoint, and column 3 on none: at the root the missing
        # rows equal j * suffixmax = 2 * 2 and {1, 2} covers, for framing
        # (k = 2) and blocking (k = 3) alike.  A cut taken at equality
        # (>= for >) loses these sets.
        e = np.array([[1, 1, 2, 0], [1, 1, 2, 0], [1, 2, 1, 0], [1, 2, 1, 0]], dtype=np.uint16)
        full = (1 << 4) - 1
        masks = reference_masks(e[:, 1:] == e[:, :1])
        assert full.bit_count() == 2 * max(mk.bit_count() for mk in masks)
        assert next(reference_covers(masks, full, 2)) == (0, 1)
        assert_cut_matches_reference(3, e, (1, 2, 3))
        assert is_frameproof(CodeMatrix(3, e), 2).witness == Witness(0, (1, 2))
        report = is_strongly_selective(CodeMatrix(3, e), 3)
        assert (report.witness.column, report.witness.coalition) == (0, (0, 1, 2))


def refusal(excinfo):
    """(count, budget, column, prefix) of a CapacityError message."""
    match = re.search(
        r"after (\d+) coalition checks, over the (\d+) budget, at column (\d+), "
        r"coalition prefix \(([\d, ]*)\)",
        str(excinfo.value),
    )
    assert match, str(excinfo.value)
    count, budget, column, prefix = match.groups()
    return int(count), int(budget), int(column), tuple(int(x) for x in prefix.split(",") if x.strip())


class TestFrameproof:
    def test_identity_passes(self):
        m = identity(5)
        for k in range(1, 5):
            assert is_frameproof(m, k).passed

    def test_duplicate_columns_fail_with_witness(self):
        m = mat(2, [[1, 1, 0], [0, 0, 1]])
        report = is_frameproof(m, 1)
        assert not report.passed
        w = report.witness
        assert w.column == 0 and w.coalition == (1,)
        assert coalition_covers(m, w.column, w.coalition)

    def test_all_zero_fails(self):
        report = is_frameproof(mat(2, [[0, 0, 0]]), 1)
        assert not report.passed

    def test_k_bounds(self):
        m = identity(4)
        with pytest.raises(ParameterError):
            is_frameproof(m, 0)
        with pytest.raises(ParameterError):
            is_frameproof(m, 4)

    def test_all_zero_wide_fails_at_once(self):
        # C(119, 60) coalitions per column: the first prefix covers, so the
        # first set is the witness after 119 + 60 checks
        big = CodeMatrix(2, np.zeros((1, 120), dtype=np.uint16))
        report = is_frameproof(big, 60)
        assert not report.passed
        assert report.witness == Witness(0, tuple(range(1, 61)))

    def test_capacity_guard(self, monkeypatch):
        # fan(6), column 0: 5 masks, 4 root ORs, then 4 ORs after member 1
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 12)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 2)
        assert "frameproof check refused" in str(excinfo.value)
        assert refusal(excinfo) == (13, 12, 0, (1,))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 8)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 2)
        assert refusal(excinfo) == (9, 8, 0, ())

    def test_budget_counts_the_whole_call(self, monkeypatch):
        # fan(6): column 0 costs 5 masks, 4 root ORs and 4 + 3 + 2 + 1
        # last-member ORs; column 1 costs 5 masks, 4 root ORs and 4 ORs
        # after member 0, which frame it with {0, 2}: 19 + 13 checks
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 32)
        assert is_frameproof(fan(6), 2).witness == Witness(1, (0, 2))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 31)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 2)
        assert refusal(excinfo) == (32, 31, 1, (0,))

    def test_no_rows(self):
        # t = 0: every coalition agrees with every column in all (no) rows
        m = CodeMatrix(2, np.zeros((0, 3), dtype=np.uint16))
        assert is_frameproof(m, 1).witness == Witness(0, (1,))
        assert is_strongly_selective(m, 2).witness == Witness(0, (0, 1))

    @given(st.one_of(code_matrices(max_n=8), wide_codes()), st.integers(1, 8))
    @settings(max_examples=200)
    def test_matches_naive(self, m, k):
        k = 1 + (k - 1) % (m.n - 1)  # any k from 1 to n-1
        report = is_frameproof(m, k)
        ok, witness = naive_frameproof(m, k)
        assert report.passed == ok
        if not ok:
            assert (report.witness.column, report.witness.coalition) == witness


class TestStronglySelective:
    def test_identity_full_k(self):
        assert is_strongly_selective(identity(5), 5).passed

    def test_zero_column_fails(self):
        report = is_strongly_selective(mat(2, [[0, 1]]), 2)
        assert not report.passed
        assert report.witness.column == 0
        assert report.witness.coalition == (0, 1)

    def test_diagonal_passes(self):
        assert is_strongly_selective(build_diagonal(3, 4), 2).passed

    def test_k1_needs_nonzero_columns(self):
        assert is_strongly_selective(mat(2, [[1, 1]]), 1).passed
        assert not is_strongly_selective(mat(2, [[0, 1]]), 1).passed

    def test_k_bounds(self):
        with pytest.raises(ParameterError):
            is_strongly_selective(identity(3), 4)

    def test_all_zero_wide_fails_at_once(self):
        # column 0 has no nonzero row, so the first set blocks it
        big = CodeMatrix(2, np.zeros((2, 90), dtype=np.uint16))
        report = is_strongly_selective(big, 45)
        assert not report.passed
        assert report.witness == Witness(0, tuple(range(45)))

    def test_capacity_guard(self, monkeypatch):
        # as for framing: column 0 of fan(6) needs 2 others to block it
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 12)
        with pytest.raises(CapacityError) as excinfo:
            is_strongly_selective(fan(6), 3)
        assert "selectivity check refused" in str(excinfo.value)
        assert refusal(excinfo) == (13, 12, 0, (1,))
        # the whole call: 19 checks for column 0, 5 masks + 4 + 4 ORs for
        # column 1, blocked by {0, 2}, then 5 masks + 1 + 4 ORs for each
        # later column, whose scan stops at sets led by 0: 19 + 13 + 4 * 10
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 72)
        report = is_strongly_selective(fan(6), 3)
        assert (report.witness.column, report.witness.coalition) == (1, (0, 1, 2))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 71)
        with pytest.raises(CapacityError) as excinfo:
            is_strongly_selective(fan(6), 3)
        assert refusal(excinfo) == (72, 71, 5, (0,))

    def test_kautz_singleton_at_961_columns(self):
        # the (1, 31) lambda code over GF(31) is strongly 31-selective, hence
        # 30-frameproof (Kautz and Singleton 1964); C(960, 30) sets per column
        code = kautz_singleton(31, 2, 31)
        assert code.n == 961
        assert is_strongly_selective(code, 31).passed
        assert is_frameproof(code, 30).passed

    @given(st.one_of(code_matrices(max_n=8), wide_codes()), st.integers(1, 8))
    @example(zero_last(6), 4)
    @example(zero_last(6), 2)
    @example(zero_last(3), 1)
    @settings(max_examples=200)
    def test_matches_naive(self, m, k):
        k = 1 + (k - 1) % m.n  # any k from 1 to n
        report = is_strongly_selective(m, k)
        ok, witness = naive_selective(m, k)
        assert report.passed == ok
        if not ok:
            assert (report.witness.column, report.witness.coalition) == witness


@st.composite
def agreement_codes(draw):
    """Codes past one 64-bit word (t up to 130), alphabets up to the uint16
    limit, n down to 1, and some columns forced to all zeros.  Symbols come
    mostly from a small palette so that large alphabets still agree."""
    q = draw(st.sampled_from([2, 3, 5, 256, 65535]))
    t = draw(st.sampled_from([1, 2, 7, 64, 65, 130]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = rng.choice(sorted({0, 1, q - 1}), size=(t, n))
    entries = np.where(rng.random((t, n)) < 0.8, palette, rng.integers(0, q, size=(t, n))).astype(np.uint16)
    entries[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    return CodeMatrix(q, entries)


def naive_lambda_witness(m, lam, w):
    """Lexicographic scan: first column of wrong weight, else first pair."""
    for c in range(m.n):
        if int(np.count_nonzero(m.entries[:, c])) != w:
            return (c, (), ())
    for a in range(m.n):
        for b in range(a + 1, m.n):
            rows = nonzero_agreement_rows(m, a, b)
            if len(rows) > lam:
                return (a, (b,), tuple(rows))
    return None


class TestLambdaMatrix:
    def test_identity_is_0_1_matrix(self):
        assert is_lambda_matrix(identity(4), 0, 1).passed

    def test_weight_failure_witness(self):
        m = mat(2, [[1, 1], [1, 0]])
        report = is_lambda_matrix(m, 1, 2)
        assert not report.passed
        assert report.witness.column == 1
        assert report.witness.rows == ()

    def test_agreement_failure_lists_rows(self):
        m = mat(2, [[1, 1], [1, 1], [0, 0]])
        report = is_lambda_matrix(m, 1, 2)
        assert not report.passed
        w = report.witness
        assert (w.column, w.coalition, w.rows) == (0, (1,), (0, 1))
        assert nonzero_agreement_rows(m, 0, 1) == [0, 1]

    def test_zero_agreements_dont_count(self):
        m = mat(3, [[1, 2], [0, 0], [2, 1]])
        assert is_lambda_matrix(m, 0, 2).passed

    def test_complement_not_invariant(self):
        m = mat(2, [[0, 0]])
        assert is_lambda_matrix(m, 0, 0).passed
        assert not is_lambda_matrix(complement(m), 0, 0).passed

    def test_built_matrix_passes_own_parameters(self):
        matrix, params, _ = build_strongly_selective(2, 3, 10, seed=2)
        assert is_lambda_matrix(matrix, params.lam, params.w).passed

    def test_check_stays_below_n_squared_bytes(self):
        # n = 6000 (t = 124): an n x n bool array alone would be 36 MB; the
        # blocked kernel keeps B and one (block, n) slab, about 15 MB
        matrix, params, _ = build_strongly_selective(3, 3, 6000, seed=0)
        tracemalloc.start()
        try:
            assert is_lambda_matrix(matrix, params.lam, params.w).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6000**2 // 2

    @given(code_matrices(min_n=1), st.integers(0, 3), st.integers(0, 4))
    @settings(max_examples=80)
    def test_matches_naive(self, m, lam, w):
        report = is_lambda_matrix(m, lam, w)
        expect = naive_lambda_witness(m, lam, w)
        assert report.passed == (expect is None)
        if expect is not None:
            assert (report.witness.column, report.witness.coalition, report.witness.rows) == expect


def naive_pairs(m, lam):
    """Every pair a < b with more than lam nonzero agreements, lexicographically."""
    return [
        (a, b)
        for a in range(m.n)
        for b in range(a + 1, m.n)
        if len(nonzero_agreement_rows(m, a, b)) > lam
    ]


class TestAgreementKernel:
    @given(agreement_codes(), st.integers(0, 130))
    @example(CodeMatrix(2, np.zeros((3, 1), dtype=np.uint16)), 0)
    @example(CodeMatrix(65535, np.full((70, 2), 65534, dtype=np.uint16)), 69)
    @example(CodeMatrix(65535, np.array([[65534, 0, 65534]] * 65, dtype=np.uint16)), 0)
    @settings(max_examples=150)
    def test_matches_naive(self, m, lam):
        assert list(agreement_pairs(m.entries, lam)) == naive_pairs(m, lam)

    @given(agreement_codes(), st.integers(0, 3), st.integers(1, 7))
    @settings(max_examples=150)
    def test_matches_naive_at_block_edges(self, m, lam, block):
        # blocks of 1-7 columns put block edges inside n <= 6, so the flat
        # index of each block's upper triangle is split at every offset
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            assert list(agreement_pairs(m.entries, lam)) == naive_pairs(m, lam)

    def test_spans_several_column_blocks(self):
        # 300 columns cross two block edges; duplicate pairs straddle them
        rng = np.random.default_rng(5)
        entries = rng.integers(0, 4, size=(20, 300), dtype=np.uint16)
        entries[:, 200] = entries[:, 100]
        entries[:, 299] = entries[:, 0]
        m = CodeMatrix(4, entries)
        pairs = list(agreement_pairs(entries, 12))
        assert (0, 299) in pairs and (100, 200) in pairs
        assert pairs == naive_pairs(m, 12)

    def test_most_pairs_violate(self, monkeypatch):
        # 40 copies of one weight-6 column around two columns that agree with
        # it in at most lam = 2 rows: 780 of the 861 pairs violate, the first
        # is (1, 3), and blocks of 5 columns split the copies at every offset
        monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", 5)
        entries = np.zeros((12, 42), dtype=np.uint16)
        entries[:6] = 1
        entries[:, 0] = [0] * 6 + [1] * 6
        entries[:, 2] = [1, 1, 2, 2, 2, 2] + [0] * 6
        m = CodeMatrix(3, entries)
        expect = naive_pairs(m, 2)
        assert len(expect) == 780 and expect[0] == (1, 3)
        assert list(agreement_pairs(entries, 2)) == expect
        wit = is_lambda_matrix(m, 2, 6).witness
        assert (wit.column, wit.coalition, wit.rows) == naive_lambda_witness(m, 2, 6) == (1, (3,), tuple(range(6)))

    @given(
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(2, 8),
        st.sampled_from([2, 3, 256, 65535]),
        st.integers(0, 2**16),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=3),
    )
    @settings(max_examples=100)
    def test_lambda_witness_matches_lexicographic_scan(self, w, extra, n, q, seed, planted):
        # constant-weight columns with copied columns planted: the weights
        # pass, so the witness is the first over-agreeing pair and its rows
        t = w + extra + 1
        rng = substream(seed, "plant")
        entries = np.stack([sample_column(t, w, q, rng) for _ in range(n)], axis=1)
        for src, dst in planted:
            if src % n != dst % n:
                entries[:, dst % n] = entries[:, src % n]
        m = CodeMatrix(q, entries)
        for lam in range(w + 1):
            report = is_lambda_matrix(m, lam, w)
            expect = naive_lambda_witness(m, lam, w)
            assert report.passed == (expect is None)
            if expect is not None:
                wit = report.witness
                assert (wit.column, wit.coalition, wit.rows) == expect


def per_column_unsettled(entries, j):
    """The columns c with weight <= j * max(agreements_with(entries, c)
    without c's own entry), one column at a time."""
    out = []
    for c in range(entries.shape[1]):
        counts = agreements_with(entries, c)
        weight, counts[c] = counts[c], 0
        if weight <= j * counts.max():
            out.append(c)
    return out


settle_codes = st.one_of(code_matrices(min_t=0, max_t=8, min_n=1, max_n=9), agreement_codes())
block_sizes = st.sampled_from([1, 3, 7, fpcodes.core.AGREEMENT_BLOCK])


class TestBlockSettle:
    """The root test read off blocked B^T B slabs hands the cover kernel
    exactly the columns the per-column rule leaves unsettled, with their
    agreement rows, at any block size."""

    @given(settle_codes, block_sizes)
    @example(CodeMatrix(2, np.zeros((0, 3), dtype=np.uint16)), 1)  # t = 0
    @example(CodeMatrix(3, np.array([[2], [1]], dtype=np.uint16)), 1)  # n = 1
    @example(CodeMatrix(2, np.array([[1, 0], [1, 0]], dtype=np.uint16)), 1)  # n = 2, a zero column
    @example(CodeMatrix(3, np.array([[1, 1], [2, 1]], dtype=np.uint16)), 3)
    @settings(max_examples=150)
    def test_unsettled_matches_per_column_rule(self, m, block):
        e = m.entries
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            for j in range(4):
                found = list(fpcodes.verify._unsettled(e, j))
                assert [c for c, _ in found] == per_column_unsettled(e, j)
                for c, counts in found:
                    expect = agreements_with(e, c)
                    expect[c] = 0
                    assert counts.tolist() == expect.tolist()

    @given(settle_codes, block_sizes)
    @example(CodeMatrix(2, np.zeros((0, 3), dtype=np.uint16)), 3)
    @settings(max_examples=100)
    def test_oracles_search_only_unsettled_columns(self, m, block):
        # enumerate_bad_events and a selectivity call at k >= 2 scan every
        # column, so the columns reaching the kernel are all that the rule
        # leaves unsettled, in order
        e = m.entries
        searched = []
        covers = fpcodes.verify._covers

        def spy(entries, c, *args):
            searched.append(c)
            return covers(entries, c, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            mp.setattr(fpcodes.verify, "_covers", spy)
            for k in range(1, m.n):
                searched.clear()
                enumerate_bad_events(e, k)
                assert searched == per_column_unsettled(e, k)
            for k in range(2, m.n + 1):
                searched.clear()
                is_strongly_selective(m, k)
                assert searched == per_column_unsettled(e, k - 1)

    @given(st.one_of(code_matrices(max_n=8), wide_codes()), st.integers(1, 8), st.sampled_from([1, 3, 7]))
    @example(zero_last(6), 2, 3)
    @settings(max_examples=150)
    def test_oracles_match_naive_at_block_edges(self, m, k, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            fp = is_frameproof(m, 1 + (k - 1) % (m.n - 1))
            ss = is_strongly_selective(m, 1 + (k - 1) % m.n)
        ok, witness = naive_frameproof(m, 1 + (k - 1) % (m.n - 1))
        assert fp.passed == ok
        if not ok:
            assert (fp.witness.column, fp.witness.coalition) == witness
        ok, witness = naive_selective(m, 1 + (k - 1) % m.n)
        assert ss.passed == ok
        if not ok:
            assert (ss.witness.column, ss.witness.coalition) == witness

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_unsettled_by_an_earlier_block_only(self, block):
        # ten weight-2 columns on disjoint rows, but column 8 repeats column
        # 0 and column 9 shares one row with both.  Column 8 agrees in one
        # row with column 9, in its own block or a later one, and in two
        # with column 0, in an earlier block: only the running maximum over
        # the slabs above unsettles it at j = 1
        e = np.zeros((20, 10), dtype=np.uint16)
        for i in range(10):
            e[[2 * i, 2 * i + 1], i] = 1
        e[:, 8] = e[:, 0]
        e[:, 9] = 0
        e[[0, 19], 9] = 1
        assert 8 // block > 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            for j in range(3):
                found = list(fpcodes.verify._unsettled(e, j))
                assert [c for c, _ in found] == per_column_unsettled(e, j) == [[], [0, 8], [0, 8, 9]][j]
                for c, counts in found:
                    expect = agreements_with(e, c)
                    expect[c] = 0
                    assert counts.tolist() == expect.tolist()
            report = is_frameproof(CodeMatrix(2, e), 1)
        assert (report.witness.column, report.witness.coalition) == naive_frameproof(CodeMatrix(2, e), 1)[1] == (0, (8,))

    def test_unshared_symbols_settle_without_budget(self, monkeypatch):
        # the last column holds symbol 3 in every row and no other column
        # holds 3, so B has no row for it and its diagonal entry of B^T B is
        # 0, not its weight t.  Read from there, the weight would leave it
        # unsettled and the scan would pack its masks; read from the entries
        # it settles like every other column, and nothing is counted
        code, params, _ = build_frameproof(2, 3, 60, 1)
        e = np.hstack([code.entries, np.full((code.t, 1), 3, dtype=np.uint16)])
        assert not _onehot(e)[:, -1].any()
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 0)
        # params.k is the build's selectivity, one above its framing offset
        assert is_frameproof(CodeMatrix(4, e), params.k - 1).passed
        assert is_strongly_selective(CodeMatrix(4, e), params.k).passed
        assert is_frameproof(identity(6), 5).passed  # B has no rows at all


class TestOracleSymmetry:
    @given(code_matrices(min_n=3, max_n=5), st.integers(1, 2), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_column_permutation_preserves_verdicts(self, m, k, rnd):
        perm = list(range(m.n))
        rnd.shuffle(perm)
        pm = CodeMatrix(m.q, m.entries[:, perm])
        assert is_frameproof(m, k).passed == is_frameproof(pm, k).passed
        assert is_strongly_selective(m, k).passed == is_strongly_selective(pm, k).passed


class TestReductions:
    def test_ss_to_fp_on_built_code(self):
        matrix, _, _ = build_strongly_selective(3, 2, 8, seed=1)
        assert is_strongly_selective(matrix, 3).passed
        assert check_reduction_ss_to_fp(matrix, 2)

    def test_fp_to_ss_on_diagonal(self):
        assert check_reduction_fp_to_ss(build_diagonal(3, 6), 2)

    def test_vacuous_when_hypothesis_fails(self):
        m = mat(2, [[1, 1, 0], [1, 1, 1]])  # duplicate columns: not frameproof
        assert not is_frameproof(m, 1).passed
        assert check_reduction_fp_to_ss(m, 1)
        assert not is_strongly_selective(m, 2).passed
        assert check_reduction_ss_to_fp(m, 1)

    @given(code_matrices(min_n=3, max_n=5, max_t=4), st.integers(1, 2))
    @settings(max_examples=60)
    def test_reductions_always_hold(self, m, k):
        if k + 1 > m.n:
            k = m.n - 1
        assert check_reduction_ss_to_fp(m, k)
        assert check_reduction_fp_to_ss(m, k)

    def test_binary_expansion_examples(self):
        assert check_binary_expansion(build_diagonal(3, 5), 2)
        matrix, _, _ = build_frameproof(2, 2, 8, seed=4)
        assert check_binary_expansion(matrix, 2)

    @given(code_matrices(min_n=3, max_n=5, max_t=4), st.integers(1, 2))
    @settings(max_examples=60)
    def test_binary_expansion_always_holds(self, m, k):
        if k > m.n - 1:
            k = m.n - 1
        assert check_binary_expansion(m, k)


class TestWitnessRevalidation:
    @given(code_matrices(), st.integers(1, 3))
    @settings(max_examples=80)
    def test_fp_witness_revalidates(self, m, k):
        if k > m.n - 1:
            k = m.n - 1
        report = is_frameproof(m, k)
        if report.witness is not None:
            assert coalition_covers(m, report.witness.column, report.witness.coalition)

    @given(code_matrices(), st.integers(2, 3))
    @settings(max_examples=80)
    def test_ss_witness_revalidates(self, m, k):
        if k > m.n:
            k = m.n
        report = is_strongly_selective(m, k)
        if report.witness is not None:
            c = report.witness.column
            others = [j for j in report.witness.coalition if j != c]
            assert not selective_row_exists(m, c, others)
