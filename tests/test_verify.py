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
from fpcodes.core import (
    CapacityError,
    CodeMatrix,
    ParameterError,
    _onehot,
    agreement_pairs,
    agreement_slabs,
    agreements_with,
    complement,
    stack_rows,
)
from fpcodes.diagonal import build_diagonal
from fpcodes.expurgate import draw_matrix, enumerate_bad_events, expurgation_params
from fpcodes.lll import build_frameproof, build_strongly_selective, sample_column
from fpcodes.verify import (
    Witness,
    _bit_planes,
    check_binary_expansion,
    check_reduction_fp_to_ss,
    coalition_covers,
    is_frameproof,
    is_lambda_matrix,
    is_strongly_selective,
    nonzero_agreement_rows,
    selective_row_exists,
)
from paper_checks import check_reduction_ss_to_fp
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


def kernel_covers(entries, c, j, selective, end=None):
    """Every j-tuple of mask indices (column i is mask i - (i > c)) the
    cover kernel yields for column c alone, the first below end.  Given
    end, the kernel is bounded by the column of mask end - 1, and all it
    yields is in order and a cover."""
    work = fpcodes.verify._Work("test", entries.shape[1])
    bound = None if end is None else end - 1 + (end - 1 >= c)
    [(column, covers)] = fpcodes.verify._covers(_bit_planes(entries), [c], j, selective, work, bound)
    assert column == c
    hits = [tuple(i - (i > c) for i in hit) for hit in covers]
    if end is not None:
        assert hits == sorted(hits) and set(hits) <= set(kernel_covers(entries, c, j, selective))
    return [h for h in hits if end is None or not h or h[0] < end]


def reference_kernel(entries, c, j, selective, end=None):
    """The same from `reference_covers`, end bounding the first member.
    Column c's own mask is need: it equals itself in every row, and on its
    nonzero rows to block it."""
    ref = entries[:, c : c + 1]
    bits = entries == ref
    if selective:
        bits &= ref != 0
    masks = reference_masks(bits)
    need = masks.pop(c)
    return [h for h in reference_covers(masks, need, j) if end is None or not h or h[0] < end]


def assert_kernel_matches_reference(entries, columns, js, ends=(None,)):
    for c in columns:
        for j in js:
            for selective in (False, True):
                for end in ends:
                    expect = reference_kernel(entries, c, j, selective, end)
                    assert kernel_covers(entries, c, j, selective, end) == expect, (c, j, selective, end)


class TestCoverCut:
    """The pigeonhole search skips only members that cannot lead a cover:
    every output is that of the exhaustive kernel, kept here as
    `reference_covers`."""

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
        # 2 of them, disjoint, and column 3 on none: at the root each of 1
        # and 2 covers exactly ceil(4 / 2) rows, so is heavy, and {1, 2}
        # covers, for framing (k = 2) and blocking (k = 3) alike.  A heavy
        # test taken strictly (> for >=) loses these sets.
        e = np.array([[1, 1, 2, 0], [1, 1, 2, 0], [1, 2, 1, 0], [1, 2, 1, 0]], dtype=np.uint16)
        full = (1 << 4) - 1
        masks = reference_masks(e[:, 1:] == e[:, :1])
        assert full.bit_count() == 2 * max(mk.bit_count() for mk in masks)
        assert next(reference_covers(masks, full, 2)) == (0, 1)
        assert_cut_matches_reference(3, e, (1, 2, 3))
        assert is_frameproof(CodeMatrix(3, e), 2).witness == Witness(0, (1, 2))
        report = is_strongly_selective(CodeMatrix(3, e), 3)
        assert (report.witness.column, report.witness.coalition) == (0, (0, 1, 2))

    def test_cut_before_the_column_is_charged(self):
        # column 5 is nonzero in all 4 rows; column 0 agrees with it in 3,
        # columns 1 to 4 in the last row only.  Of two members, one covers at
        # least 2 rows, so only column 0 is heavy: the root and the node
        # through column 0 each test the 5 other columns.  Column 5 itself,
        # which covers every row, must not be a candidate, or it would lead
        # a second node and join the covers
        e = np.array([[1, 0, 0, 0, 0, 1]] * 3 + [[0, 1, 1, 1, 1, 1]], dtype=np.uint16)
        work = fpcodes.verify._Work("test", e.shape[1])
        [(column, covers)] = fpcodes.verify._covers(_bit_planes(e), [5], 2, False, work)
        assert (column, list(covers)) == (5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert work.done == 10

    @pytest.mark.parametrize("t", [63, 64, 65, 128, 129])
    def test_word_edges(self, t):
        # masks 4 and 8 (columns 5 and 9) cover column 0 through its last
        # row, the last word's top bit at t = 64 and 128: changed there,
        # the pair covers no more.  Column 13 mixes three columns, column
        # 11 is zero, and end = 3 bounds the first member
        rng = np.random.default_rng(t)
        e = plant_mix(rng.integers(0, 3, size=(t, 14)).astype(np.uint16), 0, 5, 9, t)
        e[:, 13] = e[np.arange(t), np.array([2, 3, 10])[rng.integers(0, 3, size=t)]]
        e[:, 11] = 0
        broken = e.copy()
        broken[-1, 0] = min({0, 1, 2} - {e[-1, 5], e[-1, 9]})
        assert (4, 8) in kernel_covers(e, 0, 2, False)
        assert (4, 8) not in kernel_covers(broken, 0, 2, False)
        for m in (e, broken):
            assert_kernel_matches_reference(m, (0, 11, 13), range(1, 5), ends=(None, 3))

    def test_member_that_covers_alone(self):
        # column 6 repeats column 2, so mask 2 alone frames it (and blocks
        # it): every prefix through mask 2 covers, and so does each of its
        # extensions.  Column 3 is zero: there is nothing to block, so the
        # empty prefix covers already
        code, _, _ = build_strongly_selective(3, 3, 16, 3)
        e = code.entries.copy()
        e[:, 6] = e[:, 2]
        e[:, 3] = 0
        assert kernel_covers(e, 6, 1, False) == [(2,)]
        assert_kernel_matches_reference(e, (2, 3, 6), range(1, 5), ends=(None, 4))

    @pytest.mark.parametrize("q,k,n,deep", [(2, 2, 40, (0, 29, 59)), (2, 3, 15, range(20))])
    def test_dense_draws_column_by_column(self, q, k, n, deep):
        # q <= k: most partners are heavy and the cut rarely bites; the
        # (2, 3, 15) draw has t = 68 rows, two words
        drawn = draw_matrix(expurgation_params(q, k, n, 0))
        assert_kernel_matches_reference(drawn, range(drawn.shape[1]), (1, 2))
        assert_kernel_matches_reference(drawn, deep, (3,) if k == 2 else (3, 4))


@st.composite
def cover_codes(draw):
    """(entries, q): codes of 63, 64, 65 or 129 rows whose columns take each
    row from one of three base columns, so that sets of them cover, with
    some columns forced to zero and some repeating another."""
    q = draw(st.sampled_from([2, 3, 5]))
    t = draw(st.sampled_from([63, 64, 65, 129]))
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, q, size=(t, 3))
    mixed = base[np.arange(t)[:, None], rng.integers(0, 3, size=(t, n))]
    noise = rng.random((t, n)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    entries = np.where(noise, rng.integers(0, q, size=(t, n)), mixed).astype(np.uint16)
    entries[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
        entries[:, a] = entries[:, b]
    return entries, q


class TestPigeonhole:
    """The pigeonhole kernel against `reference_covers`: each cover once,
    in order, through members at exactly the bound ceil(|R| / j)."""

    @given(cover_codes(), st.integers(1, 4), st.sampled_from([1, 3, fpcodes.core.AGREEMENT_BLOCK]), st.integers(-1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_in_both_modes(self, code, j, block, end):
        # bounded by end, the kernel yields, in order, only covers, and
        # every cover whose least member is at most end
        entries, q = code
        n = entries.shape[1]
        j = min(j, n - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            for selective in (False, True):
                expect = {
                    c: [tuple(i + (i >= c) for i in hit) for hit in reference_kernel(entries, c, j, selective)]
                    for c in range(n)
                }
                for bound in (None, end):
                    work = fpcodes.verify._Work("test", n)
                    found = dict(fpcodes.verify._covers(_bit_planes(entries), range(n), j, selective, work, bound))
                    found = {c: list(covers) for c, covers in found.items()}
                    if bound is None:
                        assert found == expect
                    for c, covers in found.items():
                        assert covers == sorted(covers) and set(covers) <= set(expect[c])
                        assert [x for x in covers if x[0] <= end] == [x for x in expect[c] if x[0] <= end]
            assert_cut_matches_reference(q, entries, (j, j + 1))

    @pytest.mark.parametrize("runs", [(3, 2), (2, 2), (3, 2, 2), (2, 2, 2)])
    def test_member_at_the_bound(self, runs):
        # column 0 is 1 in every row, member i is 1 on its own run of
        # runs[i - 1] rows and 2 elsewhere, and the last column is all 2s.
        # The j = len(runs) members cover column 0, and the first holds
        # exactly ceil(t / j) of its rows: a member at the bound must be
        # heavy, at the root and, for j = 3, at the node below it
        j, t = len(runs), sum(runs)
        e = np.full((t, j + 2), 2, dtype=np.uint16)
        e[:, 0] = 1
        for i, (lo, size) in enumerate(zip(np.cumsum((0,) + runs), runs), start=1):
            e[lo : lo + size, i] = 1
        assert runs[0] == -(-t // j)
        for selective in (False, True):
            assert kernel_covers(e, 0, j, selective) == [tuple(range(j))]
        assert is_frameproof(CodeMatrix(3, e), j).witness == Witness(0, tuple(range(1, j + 1)))
        assert_cut_matches_reference(3, e, (j, j + 1))

    def test_cover_of_two_heavy_members_once(self):
        # column 0 is 1 in 4 rows; columns 1 and 2 each agree with it on 3 of
        # them and together on all 4, so both are heavy at the root.  The
        # pair is found through column 1 only: the node through column 2 no
        # longer allows column 1.  3 nodes test 3 candidates each
        e = np.array([[1, 1, 2, 2], [1, 1, 1, 2], [1, 1, 1, 2], [1, 2, 1, 2]], dtype=np.uint16)
        for selective in (False, True):
            work = fpcodes.verify._Work("test", e.shape[1])
            [(column, covers)] = fpcodes.verify._covers(_bit_planes(e), [0], 2, selective, work)
            assert list(covers) == [(1, 2)]
            assert work.done == 9
        assert [event for event in enumerate_bad_events(e, 2) if event[0] == 0] == [(0, (1, 2))]

    def test_families_at_width(self):
        # every column of a one-row zero code covers every other: each node
        # through one member leaves a family, whose completions come out
        # lazily, so the first set of each column costs one batch
        big = CodeMatrix(2, np.zeros((1, 1200), dtype=np.uint16))
        assert is_frameproof(big, 2).witness == Witness(0, (1, 2))
        assert is_strongly_selective(big, 3).witness == Witness(0, (0, 1, 2))

    def test_families_of_hundreds_of_members(self):
        # a family's completions are walked on a stack, not by recursion per
        # member: 600 identical columns frame each other at k = 520, and 600
        # zero columns block each other at k = 550
        same = CodeMatrix(3, np.tile(np.array([[1], [2], [0]], dtype=np.uint16), 600))
        assert is_frameproof(same, 520).witness == Witness(0, tuple(range(1, 521)))
        zero = CodeMatrix(2, np.zeros((2, 600), dtype=np.uint16))
        assert is_strongly_selective(zero, 550).witness == Witness(0, tuple(range(550)))

    @given(st.lists(st.sampled_from(["out", "light", "heavy", "end"]), max_size=9),
           st.integers(1, 5), st.lists(st.integers(20, 29), max_size=3, unique=True), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_completions_match_reference(self, kinds, size, prefix, take):
        # every size-set of allowed columns whose least heavy member is an
        # end, in lexicographic order, each charged as it is emitted
        allowed, heavy, ends = (np.array([kind in names for kind in kinds], dtype=bool)
                                for names in (("light", "heavy", "end"), ("heavy", "end"), ("end",)))
        expect = [
            tuple(sorted(prefix + list(x)))
            for x in itertools.combinations(np.flatnonzero(allowed).tolist(), size)
            if heavy[list(x)].any() and ends[next(m for m in x if heavy[m])]
        ]
        work = fpcodes.verify._Work("test", len(kinds))
        found = fpcodes.verify._completions(tuple(prefix), allowed, heavy, ends, size, work, 0)
        head = list(itertools.islice(found, take))
        assert head == expect[:take] and work.done == len(head)
        assert head + list(found) == expect and work.done == len(expect)


def packed_masks(entries, cols):
    """(masks, S) of columns cols the byte-packed way: one bool row per
    (column, other column) pair, and one for S, padded to whole 64-bit
    words, through np.equal and np.packbits."""
    t, n = entries.shape
    cs = np.asarray(cols, dtype=np.int64)
    bits = np.zeros((cs.size, n + 1, 64 * max(1, -(-t // 64))), dtype=bool)
    ref = entries[:, cs].T
    np.equal(entries.T, ref[:, None], out=bits[:, :n, :t])
    bits[:, n, :t] = ref != 0
    words = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64).transpose(2, 0, 1)
    return words[:, :, :n], words[:, :, n]


@st.composite
def plane_codes(draw):
    """Codes across the word edges (t from 0 to 130 rows) and the alphabets
    up to 65536, whose symbol 65535 sets all 16 bit planes; some columns
    zero, some all 65535 or q - 1."""
    q = draw(st.sampled_from([2, 3, 11, 256, 65536]))
    t = draw(st.sampled_from([0, 1, 63, 64, 65, 130]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = rng.choice(sorted({0, 1, q // 2, q - 1}), size=(t, n))
    entries = np.where(rng.random((t, n)) < 0.7, palette, rng.integers(0, q, size=(t, n))).astype(np.uint16)
    entries[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    entries[:, draw(st.lists(st.integers(0, n - 1), max_size=1))] = q - 1
    return entries


class TestBitPlanes:
    """The masks from bit planes are those of the byte-packed kernel, and
    the one-call popcount counts what int.bit_count does."""

    @given(plane_codes(), st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    @example(np.array([[65535, 0, 65535, 1]] * 65, dtype=np.uint16), [2, 0, 1, 3])
    @example(np.zeros((130, 3), dtype=np.uint16), [0, 2])
    @example(np.zeros((0, 2), dtype=np.uint16), [1])
    @settings(max_examples=150)
    def test_masks_match_packed_reference(self, entries, picks):
        # any columns of the block, in any order
        cols = list(dict.fromkeys(c % entries.shape[1] for c in picks))
        masks, support = fpcodes.verify._agreement_masks(_bit_planes(entries), np.array(cols))
        expect_masks, expect_support = packed_masks(entries, cols)
        assert masks.dtype == support.dtype == np.uint64
        assert masks.tolist() == expect_masks.tolist()
        assert support.tolist() == expect_support.tolist()

    @pytest.mark.parametrize("t", [0, 1, 63, 64, 65, 130])
    def test_planes_of_the_widest_symbol(self, t):
        # symbol 65535 fills all 16 planes over the t rows and no padding
        # bit; a zero column is clear in every plane
        entries = np.zeros((t, 2), dtype=np.uint16)
        entries[:, 1] = 65535
        planes, rows = _bit_planes(entries)
        words = max(1, -(-t // 64))
        assert planes.shape == (16 if t else 0, words, 2) and rows.shape == (words,)
        assert sum(int(w).bit_count() for w in rows) == t
        assert not planes[:, :, 0].any() and (planes[:, :, 1] == rows).all()

    @pytest.mark.parametrize("shape", [(1, 7), (1, 3, 5), (3, 4), (2, 3, 5)])
    def test_popcount_matches_bit_count(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        masks = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        masks.reshape(-1)[: edges.size] = edges
        counts = fpcodes.verify._popcount(masks)
        expect = [sum(int(w).bit_count() for w in column) for column in masks.reshape(shape[0], -1).T]
        assert counts.dtype == np.int64 and counts.shape == shape[1:]
        assert counts.ravel().tolist() == expect


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
        # C(119, 60) coalitions per column: the root leaves no row to cover,
        # so its 119 checks leave a family whose first completion, 1 more
        # check, is the witness: 119 + 1 checks
        big = CodeMatrix(2, np.zeros((1, 120), dtype=np.uint16))
        report = is_frameproof(big, 60)
        assert not report.passed
        assert report.witness == Witness(0, tuple(range(1, 61)))

    def test_capacity_guard(self, monkeypatch):
        # fan(6), column 0: its root tests the 5 other columns, then one
        # batch holds its nodes through members 1 to 5, 5 tests each
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 12)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 2)
        assert "frameproof check refused" in str(excinfo.value)
        assert refusal(excinfo) == (15, 12, 0, (2,))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 4)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 2)
        assert refusal(excinfo) == (5, 4, 0, ())

    def test_budget_counts_the_whole_call(self, monkeypatch):
        # fan(6) in blocks of 1 and 5 columns, 5 checks a node.  Column 0
        # costs its root and its nodes through members 1 to 5, which find
        # nothing (30 checks); the block of columns 1 to 5 costs their roots
        # and a node each through member 0 (50).  Columns 2 to 5 alone cover
        # column 1, so its root leaves a family, and the first completion,
        # primed to merge with the cover {0, 2}, costs 1: 30 + 50 + 1
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 81)
        assert is_frameproof(fan(6), 2).witness == Witness(1, (0, 2))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 80)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 2)
        assert refusal(excinfo) == (81, 80, 1, ())

    def test_refusal_extrapolates_the_whole_call(self, monkeypatch):
        # the estimate is the checks done times n over the columns reached:
        # 15 checks at column 0 of fan(6) give 90, 81 at column 1 give 243
        for budget, estimate in ((12, 90), (80, 243)):
            monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", budget)
            with pytest.raises(CapacityError) as excinfo:
                is_frameproof(fan(6), 2)
            assert str(excinfo.value).endswith(f"; extrapolated to all 6 columns, about {estimate} checks")

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

    @given(code_matrices(max_n=8), st.integers(0, 7), st.booleans())
    @settings(max_examples=100)
    def test_k1_matches_naive(self, m, zero, plant):
        # a lone member is blocked exactly when its column is zero: the
        # witness is the first zero column, with or without one planted,
        # and the call makes no coalition check
        e = m.entries.copy()
        if plant:
            e[:, zero % m.n] = 0
        m = CodeMatrix(m.q, e)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.verify, "LEAF_BUDGET", 0)
            report = is_strongly_selective(m, 1)
        ok, witness = naive_selective(m, 1)
        assert report.passed == ok == e.any(axis=0).all()
        if not ok:
            assert (report.witness.column, report.witness.coalition) == witness

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
        assert refusal(excinfo) == (15, 12, 0, (2,))
        # the whole call: column 0 costs 30 checks.  Every other column is
        # blocked by any one other on its one nonzero row, so its root node
        # (5 checks) leaves a family, whose first completion, 1 more, is its
        # first cover: 30 + 5 * 6
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 60)
        report = is_strongly_selective(fan(6), 3)
        assert (report.witness.column, report.witness.coalition) == (1, (0, 1, 2))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 59)
        with pytest.raises(CapacityError) as excinfo:
            is_strongly_selective(fan(6), 3)
        assert refusal(excinfo) == (60, 59, 5, ())

    def test_kautz_singleton_at_961_columns(self):
        # the (1, 31) lambda code over GF(31) is strongly 31-selective, hence
        # 30-frameproof (Kautz and Singleton 1964); C(960, 30) sets per column
        code = kautz_singleton(31, 2, 31)
        assert code.n == 961
        assert is_strongly_selective(code, 31).passed
        assert is_frameproof(code, 30).passed

    def test_later_blocks_search_below_the_known_failure(self, monkeypatch):
        # an unexpurgated draw stacked over its complement fails at column
        # 41 with the set (0, 24, 41, 44); once a block has found a failure,
        # later blocks take only covers whose least member is at most the
        # known set's, which gives the same witness for fewer checks.  At
        # the default block the 52 columns after the first share one block,
        # so a smaller one splits them into blocks of 4, 8, 16, 19 and 5
        monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", 32)
        drawn = CodeMatrix(5, draw_matrix(expurgation_params(5, 3, 40, 0)))
        stacked = stack_rows(drawn, complement(drawn))
        calls, works = [], []
        kernel, init = fpcodes.verify._covers, fpcodes.verify._Work.__init__

        def spy(code, cols, j, selective, work, end=None):
            calls.append(end)
            return kernel(code, cols, j, selective, work, end if bounded else None)

        monkeypatch.setattr(fpcodes.verify, "_covers", spy)
        monkeypatch.setattr(fpcodes.verify._Work, "__init__", lambda self, *args: (init(self, *args), works.append(self))[0])
        for bounded in (True, False):
            assert is_strongly_selective(stacked, 4).witness == Witness(41, (0, 24, 41, 44))
        assert calls[0] is None and any(end is not None for end in calls)
        assert works[0].done < works[1].done

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


class TestBlockGuard:
    """A budget crossed inside a batch of nodes: the refusal names the first
    node whose charge crosses it, with the count, column and prefix, and
    comes after the covers of the blocks whose search has finished, at any
    block size: a block's covers come back after its whole search.

    fan(6) framed by 3, 5 checks a node.  Column 0 has its root and, as
    every other column covers its row 0, a node through each of members 1
    to 5, which find nothing: 30 checks.  Column 1 has its root and a node
    through member 0; columns 2 to 5 cover it alone, so both leave a
    family, whose first completions are primed, 1 check each, before its
    first cover (0, 2, 3) is yielded.  The first block holds one column;
    each later one at least AGREEMENT_BLOCK^2 / (4 n) columns, then twice
    the last, up to AGREEMENT_BLOCK columns and AGREEMENT_BLOCK^2 masks:
    with the default block, columns 1 to 5 share the second, and their
    roots and nodes (50 checks) are charged before column 1's covers are
    yielded; at 1 and 2, a block holds one column of 6 masks.

    The ids name each case by the budget, column, prefix and count it had
    when the guard charged a pair-at-a-time scan."""

    @pytest.mark.parametrize("block", [1, 2, fpcodes.core.AGREEMENT_BLOCK])
    @pytest.mark.parametrize(
        "budget,expect",
        [
            # among column 0's nodes, in one batch or in several
            (8, {1: (10, 0, (1,)), 2: (10, 0, (1,)), 128: (10, 0, (1,))}),
            (15, {1: (20, 0, (3,)), 2: (20, 0, (3,)), 128: (20, 0, (3,))}),
            (20, {1: (25, 0, (4,)), 2: (25, 0, (4,)), 128: (25, 0, (4,))}),
            # column 1's node, or column 2's root in the same batch as 1's
            (37, {1: (40, 1, (0,)), 2: (40, 1, (0,)), 128: (40, 2, ())}),
        ],
        ids=["8-0-prefix0-11", "15-0-prefix1-16", "20-0-prefix2-21", "37-1-prefix3-38"],
    )
    def test_refusal_inside_block(self, monkeypatch, block, budget, expect):
        monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", budget)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 3)
        count, column, prefix = expect[block]
        assert refusal(excinfo) == (count, budget, column, prefix)

    @pytest.mark.parametrize("block", [1, 2, fpcodes.core.AGREEMENT_BLOCK])
    def test_cover_before_crossing_is_returned(self, monkeypatch, block):
        # the witness is returned once column 1's nodes and its two primed
        # completions are paid for, and those of columns 2 to 5 with them if
        # they share a block; alone, columns 2 to 5 are never searched
        monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
        paid = {1: 42, 2: 42, 128: 82}[block]
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", paid)
        assert is_frameproof(fan(6), 3).witness == Witness(1, (0, 2, 3))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", paid - 1)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(fan(6), 3)
        assert refusal(excinfo) == (paid, paid - 1, 1, (0,))

    @pytest.mark.parametrize("block", [1, 2, fpcodes.core.AGREEMENT_BLOCK])
    def test_covers_yielded_up_to_the_crossing(self, monkeypatch, block):
        # a caller that takes every cover gets those yielded before the
        # crossing, then the refusal.  Each completion is charged as the
        # merge draws it, one ahead of the cover yielded: (0, 2, 3) to (0,
        # 4, 5) come from the family of column 1's node through member 0,
        # the rest from its root's.  Sharing a block with columns 2 to 5 adds
        # their 40 checks before column 1's covers; the last crossing is
        # column 2's root, or, already paid for, the first completion of its
        # root's family
        monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
        firsts = [(1, (0, 2, 3)), (1, (0, 2, 4)), (1, (0, 2, 5))]
        lasts = [(1, (0, 3, 4)), (1, (0, 3, 5)), (1, (0, 4, 5))]
        alone = [(1, (2, 3, 4)), (1, (2, 3, 5)), (1, (2, 4, 5)), (1, (3, 4, 5))]
        cases = [
            (44, firsts, (45, 1, (0,))),
            (47, firsts + lasts + alone[:1], (48, 1, ())),
            (52, firsts + lasts + alone, (55, 2, ())),
        ] if block <= 2 else [
            (84, firsts, (85, 1, (0,))),
            (87, firsts + lasts + alone[:1], (88, 1, ())),
            (90, firsts + lasts + alone, (91, 2, ())),
        ]
        for budget, events, expect in cases:
            monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", budget)
            found = []
            with pytest.raises(CapacityError) as excinfo:
                for event in fpcodes.verify._framings(fan(6).entries, 3, "bad-event"):
                    found.append(event)
            assert found == events
            count, column, prefix = expect
            assert refusal(excinfo) == (count, budget, column, prefix)

    @pytest.mark.parametrize("n,sizes", [(100, [1, 40, 59]), (2000, [1, 2, 4] + [8] * 249 + [1])])
    def test_block_schedule(self, monkeypatch, n, sizes):
        # every column of a zero code is unsettled.  After one column a
        # block takes at least 128^2 / (4 n) columns, 40 at n = 100, then
        # twice the last, up to 128^2 / n, 8 at n = 2000
        blocks = []

        def spy(code, cols, *args):
            blocks.append(len(cols))
            return iter(())

        monkeypatch.setattr(fpcodes.verify, "_covers", spy)
        entries = np.zeros((1, n), dtype=np.uint16)
        assert list(fpcodes.verify._search(entries, 1, False, fpcodes.verify._Work("test", n))) == []
        assert blocks == sizes and sum(sizes) == n

    def test_blocks_of_covering_prefixes_cost_nothing(self, monkeypatch):
        # blocking by 3 others: column 0 costs 30 as for framing.  Column
        # 1's one nonzero row is covered by each other column alone, so its
        # root leaves a family and no node below it is evaluated; the first
        # completion costs 1, and so on for columns 2 to 5: 30 + 5 * 6
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 59)
        with pytest.raises(CapacityError) as excinfo:
            is_strongly_selective(fan(6), 4)
        assert refusal(excinfo) == (60, 59, 5, ())
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 60)
        assert is_strongly_selective(fan(6), 4).witness == Witness(1, (0, 1, 2, 3))

    def test_results_do_not_depend_on_the_block_split(self, monkeypatch):
        # the early-stopping callers across block boundaries.  At blocks of
        # 1 to 3 every block past the first holds at most 3 columns; at the
        # default one holds the rest of a code of n <= 40.  Columns below a
        # random cut each hold a (row, symbol) no other column holds, so no
        # one frames them, and the first failure often falls inside that block
        rng = np.random.default_rng(29)
        inside = 0
        for _ in range(25):
            q, t, n, k = (int(rng.integers(*span)) for span in ((2, 5), (3, 7), (4, 41), (1, 4)))
            e = rng.integers(0, q, size=(t, n)).astype(np.uint16)
            for c in range(int(rng.integers(0, min(n - 1, t * (q - 1)) + 1))):
                r, s = c % t, 1 + c // t
                e[r, e[r] == s] = 0
                e[r, c] = s
            m = CodeMatrix(q, e)
            results = set()
            for block in (fpcodes.core.AGREEMENT_BLOCK, 1, 2, 3):
                monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
                fp, ss = is_frameproof(m, k), is_strongly_selective(m, k)
                results.add(repr((fp.witness, ss.witness, enumerate_bad_events(e, k))))
            assert len(results) == 1
            cols = list(fpcodes.verify._unsettled(e, k))
            inside += fp.witness is not None and cols[0] < fp.witness.column < cols[-1]
        assert inside >= 5


class TestOneLoop:
    """Every node is a batch of the one loop: one with a member left is an
    equality test charged n - 1 checks and nothing per cover, and a root
    with no row to cover is a node of n - 1 checks like any other."""

    def test_last_member_covers_are_not_charged(self, monkeypatch):
        # columns 0 and 1 are equal and columns 2 and 3 settle: column 0's
        # root, 3 checks, finds the cover (1,), which costs nothing more
        m = mat(3, [[1, 1, 2, 0], [2, 2, 0, 1]])
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 3)
        assert is_frameproof(m, 1).witness == Witness(0, (1,))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 2)
        with pytest.raises(CapacityError) as excinfo:
            is_frameproof(m, 1)
        assert refusal(excinfo) == (3, 2, 0, ())

    @pytest.mark.parametrize(
        "k,paid,refused",
        [
            # column 0 is zero: its root, 3 checks, covers at once, and
            # every other column settles
            (2, 3, (3, 2, 0, ())),
            # column 0's root, 3 checks, leaves a family whose first
            # completion costs 1; the witness is then known.  Columns 1 and
            # 2 share a block: roots and nodes through member 3, 12 checks;
            # column 3 takes member 0 (end = 0), a root and a node, 6
            (3, 22, (22, 21, 3, (0,))),
        ],
    )
    def test_root_with_no_row_to_cover(self, monkeypatch, k, paid, refused):
        m = mat(3, [[0, 1, 2, 1], [0, 2, 1, 1]])
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", paid)
        assert is_strongly_selective(m, k).witness == Witness(0, tuple(range(k)))
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", paid - 1)
        with pytest.raises(CapacityError) as excinfo:
            is_strongly_selective(m, k)
        assert refusal(excinfo) == refused

    @pytest.mark.parametrize("block", [1, 3, fpcodes.core.AGREEMENT_BLOCK])
    def test_heavy_parent_member_that_covers_alone(self, monkeypatch, block):
        # column 0 is 1 in its 4 rows; columns 1 to 5 agree with it on 2 or 3
        # of them, so are heavy, and 6 and 7 on one.  Under the node through
        # member 2, 4 or 5 the rows left are covered alone by a heavy member
        # below it, so the cover is found through that member only, even when
        # the nodes span several batches
        e = np.array(
            [
                [1, 1, 2, 1, 2, 1, 2, 1],
                [1, 1, 1, 1, 2, 2, 1, 2],
                [1, 1, 1, 2, 1, 2, 2, 2],
                [1, 2, 1, 2, 1, 1, 2, 2],
            ],
            dtype=np.uint16,
        )
        monkeypatch.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
        covers = [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (2, 7), (3, 4)]
        for selective in (False, True):
            work = fpcodes.verify._Work("test", e.shape[1])
            found = {c: list(hits) for c, hits in fpcodes.verify._covers(_bit_planes(e), range(8), 2, selective, work)}
            assert found[0] == covers
            for c in range(8):
                expect = [tuple(i + (i >= c) for i in hit) for hit in reference_kernel(e, c, 2, selective)]
                assert found[c] == expect
        assert_cut_matches_reference(3, e, (1, 2, 3))


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

    @pytest.mark.parametrize("lam,w", [(-1, 2), (0, -1)])
    def test_refuses_negative_bounds(self, lam, w):
        with pytest.raises(ParameterError, match=f"need lam >= 0 and w >= 0, got lam={lam}, w={w}"):
            is_lambda_matrix(identity(3), lam, w)

    def test_report_truth_is_passed(self):
        assert is_lambda_matrix(identity(3), 0, 1)
        assert not is_lambda_matrix(identity(3), 0, 2)

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

    def test_refuses_counts_past_float32(self):
        # two all-ones columns of 2^24 + 1 rows agree in every row, a count
        # float32 cannot hold, and each oracle that reads the agreement
        # kernel refuses the code; as tall a code of light columns answers
        t = 2**24 + 1
        heavy = CodeMatrix(2, np.ones((t, 2), dtype=np.uint16))
        for check in (lambda m: is_lambda_matrix(m, t - 1, t), lambda m: is_frameproof(m, 1),
                      lambda m: is_strongly_selective(m, 2)):
            with pytest.raises(ParameterError, match="more than 2\\^24 nonzero symbols"):
                check(heavy)
        del heavy
        light = np.zeros((t, 2), dtype=np.uint16)
        light[:3, 0] = light[1:3, 1] = light[-1, 1] = 1
        light = CodeMatrix(2, light)
        assert is_lambda_matrix(light, 1, 3).witness == Witness(0, (1,), (1, 2))
        assert is_frameproof(light, 1).passed
        assert is_strongly_selective(light, 2).passed

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


class TestAgreementSlabs:
    @given(st.one_of(code_matrices(min_t=0, max_t=8, min_n=1, max_n=9), agreement_codes()),
           st.sampled_from([1, 3, 7, 128]))
    @example(CodeMatrix(2, np.zeros((0, 3), dtype=np.uint16)), 1)  # t = 0
    @example(CodeMatrix(3, np.array([[2], [1]], dtype=np.uint16)), 1)  # n = 1
    @example(CodeMatrix(3, np.array([[2], [1]], dtype=np.uint16)), 128)
    @settings(max_examples=150)
    def test_slabs_match_dense_product(self, m, block):
        # each slab is its block's rows of the dense agreement matrix from
        # the block's first column on, with every column's own entry zeroed
        e = m.entries.astype(np.int64)
        dense = ((e[:, :, None] == e[:, None, :]) & (e[:, :, None] != 0)).sum(axis=0)
        np.fill_diagonal(dense, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpcodes.core, "AGREEMENT_BLOCK", block)
            starts = []
            for a0, slab in agreement_slabs(m.entries):
                starts.append(a0)
                assert slab.shape == (min(block, m.n - a0), m.n - a0)
                assert slab.tolist() == dense[a0 : a0 + block, a0:].tolist()
        assert starts == list(range(0, m.n, block))


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
    exactly the columns the per-column rule leaves unsettled, at any block
    size."""

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
                assert list(fpcodes.verify._unsettled(e, j)) == per_column_unsettled(e, j)

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

        def spy(code, cols, *args):
            searched.extend(cols)
            return covers(code, cols, *args)

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
                assert found == per_column_unsettled(e, j) == [[], [0, 8], [0, 8, 9]][j]
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
