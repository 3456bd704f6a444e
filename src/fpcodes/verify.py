"""Exhaustive property oracles.

Frameproof, for offset k: for every column c and every set G of k other
columns there is a row where all of G differs from c (symbol 0 included).
Strongly selective, for size k: for every k-set G and every c in G there
is a row where c is nonzero and the other members all differ from it.

Both are one cover condition.  Pack, for column c, the rows where column
j agrees with c into a row mask (for selectivity, only c's nonzero rows),
one row of a (columns, words) uint64 array, 64 rows to a word; G frames
c, or blocks c, exactly when the OR of its members' masks covers every
row that counts.  One kernel, `_covers`, enumerates the covering
coalitions for all the oracles and for the expurgation's bad events.  It
is a branch and bound: a prefix is cut with its whole subtree when the
members left cannot cover the rows of c's support still missing, each
covering at most the largest agreement with c of any column left.  At the
root that test needs no mask: a column that no j others can cover is
settled by one comparison against its largest agreement, read off the
upper-triangle slabs of the one-hot B^T B (`core.agreement_slabs`), and
never reaches `_covers`.  In a lambda code with j lambda < w that is
every column, so the scan costs half of one blocked product.  Below the
root the kernel counts its own agreements, and the search is depth first
down to two members left; those last two levels run as array operations,
a block of (first member, last member) pairs tested at once.  The cut
drops no cover and keeps the order.  Runtime is combinatorial, so a
capacity guard counts the work each call actually does (masks packed and
mask ORs evaluated, exactly as a pair-at-a-time scan would count them)
and refuses the call once it passes LEAF_BUDGET, naming where it
stopped; it never returns a partial answer or subsamples.  The
lambda-matrix check needs only column pairs and uses the agreement
kernel shared with the local-lemma builder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    CapacityError,
    CodeMatrix,
    ParameterError,
    agreement_pairs,
    agreement_slabs,
    binary_expand,
    complement,
    stack_rows,
)

LEAF_BUDGET = 100_000_000


@dataclass(frozen=True)
class Witness:
    """Counterexample location.

    For coverage-style failures `column` is the framed column and
    `coalition` the covering set; for agreement failures `rows` lists the
    offending rows.  Unused fields stay empty.
    """

    column: int
    coalition: tuple[int, ...] = ()
    rows: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one exhaustive check."""

    property_name: str
    parameters: dict
    passed: bool
    witness: Witness | None

    def __bool__(self) -> bool:
        return self.passed


def coalition_covers(matrix: CodeMatrix, column: int, coalition) -> bool:
    """True when in every row some coalition member equals `column`'s symbol."""
    e = matrix.entries
    return all(any(e[i, j] == e[i, column] for j in coalition) for i in range(matrix.t))


def selective_row_exists(matrix: CodeMatrix, column: int, others) -> bool:
    """True when some row has `column` nonzero and all of `others` different."""
    e = matrix.entries
    return any(
        e[i, column] != 0 and all(e[i, j] != e[i, column] for j in others)
        for i in range(matrix.t)
    )


def nonzero_agreement_rows(matrix: CodeMatrix, a: int, b: int):
    """Rows where columns a and b hold the same nonzero symbol."""
    e = matrix.entries
    return [i for i in range(matrix.t) if e[i, a] == e[i, b] and e[i, a] != 0]


# set bits of every byte value; a mask's popcount sums those of its bytes
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Rows set in each mask of a (..., words) uint64 array."""
    # one multiply sums a word's eight byte counts into its top byte
    per_word = _BYTE_BITS.take(masks.view(np.uint8)).view(np.uint64) * np.uint64(0x0101010101010101)
    return (per_word >> np.uint64(56)).sum(axis=-1, dtype=np.int64)


class _Work:
    """Coalition checks of one oracle call, against LEAF_BUDGET: the masks
    `_covers` packs and the mask ORs it evaluates, charged in the order of a
    pair-at-a-time scan.  A vectorized block is charged member by member as
    its covers are reached (`add_run`), so a refusal inside it names the
    count, column and prefix where that scan would have stopped."""

    def __init__(self, what: str):
        self.what = what
        self.done = 0

    def add(self, count: int, column: int, prefix: tuple) -> None:
        """Charge `count` checks made at `column` under the coalition prefix
        `prefix` (mask indices); past the budget, refuse the call."""
        self.done += count
        if self.done > LEAF_BUDGET:
            members = tuple(i + (i >= column) for i in prefix)
            raise CapacityError(
                f"{self.what} check refused after {self.done} coalition checks, over the "
                f"{LEAF_BUDGET} budget, at column {column}, coalition prefix {members}"
            )

    def add_run(self, counts: np.ndarray, lo: int, hi: int, column: int, prefix_of) -> None:
        """Charge counts[x] under the prefix prefix_of(x) for each x from lo
        below hi in turn, as one `add` per charge would: a refusal names the
        first charge that crosses the budget and the count there."""
        run = counts[lo:hi]
        total = int(run.sum())
        if self.done + total > LEAF_BUDGET:
            cum = np.cumsum(run)
            over = int(np.searchsorted(cum, LEAF_BUDGET - self.done, side="right"))
            self.add(int(cum[over]), column, prefix_of(lo + over))
        self.done += total


def _unsettled(entries: np.ndarray, j: int):
    """Every column c that j others might cover, in order: those whose
    weight is at most j times their largest nonzero agreement with another
    column, a running maximum over the slabs of `agreement_slabs`.  Every
    other column is settled.  Weights are counted on the entries: B^T B's
    diagonal drops the (row, symbol) pairs no other column holds."""
    weights = np.count_nonzero(entries, axis=0)
    above = np.zeros(weights.size, dtype=np.float32)  # largest agreement with a column of an earlier block
    for a0, slab in agreement_slabs(entries):
        m = slab.shape[0]
        peaks = np.maximum(slab.max(axis=1), above[a0 : a0 + m])
        np.maximum(above[a0 + m :], slab[:, m:].max(axis=0, initial=0), out=above[a0 + m :])
        del slab
        yield from (a0 + np.flatnonzero(weights[a0 : a0 + m] <= j * peaks.astype(np.int64))).tolist()


def _covers(entries: np.ndarray, c: int, k: int, selective: bool, work: _Work, end=None):
    """Cover kernel of column c: every increasing k-tuple of mask indices,
    the first below `end`, whose masks' OR equals need, in lexicographic
    order.

    Mask i holds the rows where column i (i < c) or i + 1 (i >= c) covers
    c: equals it (symbol 0 included) to frame it, or, with `selective`,
    holds its nonzero symbol.  need is every row to frame c, c's nonzero
    rows to block it.  The masks are the rows of one (n - 1, words) uint64
    array, 64 rows to a word, and every OR and compare takes all words.

    Branch and bound on S, c's nonzero rows.  popcount(mask h & S), the
    nonzero agreement of column h with c, is one float32 mat-vec of the
    bool rows the masks are packed from and S (exact below 2^24 rows); c's
    own is its weight.  j members from index i on cover at most
    j * suffixmax[i] rows of S, suffixmax[i] the largest agreement from i
    on.  Where more rows of S are missing no extension covers, and as
    suffixmax never increases a level's candidates end at the first such
    i, found by bisection.  The root test is `_unsettled`'s: only a column
    it leaves unsettled gets here.  The search is depth first, carrying the
    prefix OR and its missing rows down; once a prefix covers need, every
    extension does.

    A level with three or more members left forms its candidates' ORs and
    popcounts as one array operation.  The last two levels are blocks: a
    prefix with two members left, or the surviving prefixes of a level
    with three left, as many as keep the block within AGREEMENT_BLOCK^2
    rows (plus one prefix's), become one row per (prefix, first member f),
    whose last members run from f + 1 to the cut of f's own missing rows.
    The pairs of AGREEMENT_BLOCK rows at a time are tested at once against
    need and read row-major, so they come out in order; memory stays
    O(AGREEMENT_BLOCK n) however many coalitions there are.  The cut skips
    no cover, so the tuples and their order are those of the full scan.

    The masks packed and the ORs of each level and range are charged to
    `work` in the order of a pair-at-a-time scan: a level's candidates as
    it is entered, a block's rows (each prefix's cut, then its members'
    ranges) up to a row as that row's covers are reached.  A caller that
    stops at a cover has paid exactly what that scan would, and a refusal
    inside a block comes after the covers of the rows before the one
    whose charge crosses the budget, naming that row's count and prefix.
    """
    t, m = entries.shape
    # a bool row per column, then one for S, padded to whole 64-bit words:
    # column c's own row is need, as c equals itself in every row and, to
    # block it, on S
    bits = np.zeros((m + 1, 64 * max(1, -(-t // 64))), dtype=bool)
    np.equal(entries.T, entries[:, c], out=bits[:m, :t])
    bits[m, :t] = entries[:, c] != 0
    if selective:
        bits[:m] &= bits[m]
    counts = (bits[:m, :t] @ bits[m, :t].astype(np.float32)).astype(np.int64)
    words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    need, rows = words[c], words[m]
    weight, counts[c] = int(counts[c]), 0
    del bits
    masks = np.concatenate((words[:c], words[c + 1 : m]))
    n = len(masks)
    work.add(n, c, ())
    # caps = -suffixmax rises, so bisection finds the cut; c's own count is
    # 0 in the maxima and its index dropped after
    suffix = np.maximum.accumulate(counts[::-1])[::-1]
    caps = -np.concatenate((suffix[:c], suffix[c + 1 :]))
    chunk = core.AGREEMENT_BLOCK  # rows per pair test

    def cut(j, start, end, missing, prefix):
        """End of the indices from start on, below end, that may take the
        next of j members with `missing` rows of S uncovered, charged as
        the ORs the caller evaluates."""
        # missing > j * suffixmax[i] exactly when suffixmax[i] <= (missing - 1) // j
        edge = int(np.searchsorted(caps, -((missing - 1) // j)))
        stop = max(start, min(edge, end, n - j + 1))
        work.add(stop - start, c, prefix)
        return stop

    def block(heads, acc, missing, start, end):
        """The covers of the prefixes `heads`, in order, each with two
        members left; acc, missing and start are theirs, one per prefix,
        and end bounds every first member."""
        stop = np.maximum(start, np.minimum(np.searchsorted(caps, -((missing - 1) // 2)), min(end, n - 1)))
        # per prefix a row for its cut, then a row per first member f from
        # start to stop.  A row's span is what it charges: the cut's first
        # members, or f's last members, from f + 1 to the cut of f's own
        # missing rows.  A prefix that covers need, as all its pairs do, is
        # charged nothing
        size = stop - start + 1
        ends = np.cumsum(size)
        owner = np.repeat(np.arange(len(heads)), size)
        first = np.arange(ends[-1]) - np.repeat(ends - stop, size)
        cut_row = first < start[owner]
        a = acc[owner] | masks[first]  # a cut row's f is start - 1 and its OR unused
        top = np.maximum(np.searchsorted(caps, 1 - _popcount(rows & ~a)), first + 1)
        span = np.where(cut_row, stop[owner], top) - first - 1
        live = np.flatnonzero(np.where(cut_row, 0, span))
        full = (acc == need).all(axis=1)
        if full.any():
            span[full[owner]] = 0

        def prefix_of(x):
            return heads[owner[x]] + (() if cut_row[x] else (int(first[x]),))

        paid = 0  # rows charged so far
        for lo in range(0, live.size, chunk):
            r = live[lo : lo + chunk]
            # every pair of the chunk's rows, from the first row's prefix on,
            # is tested; the hits, row-major and so in the pairs' order, are
            # kept where h is past f (the cut never drops a cover)
            h0, h1 = int(start[owner[r[0]]]) + 1, int(top[r].max())
            ok = (a[r, 0, None] | masks[h0:h1, 0]) == need[0]
            for w in range(1, need.size):
                ok &= (a[r, w, None] | masks[h0:h1, w]) == need[w]
            i, h = np.divmod(np.flatnonzero(ok), h1 - h0)
            row, last = r[i], h + h0
            after = last > first[row]
            for x, y in zip(row[after].tolist(), last[after].tolist()):
                if x >= paid:
                    work.add_run(span, paid, x + 1, c, prefix_of)
                    paid = x + 1
                yield heads[owner[x]] + (int(first[x]), y)
        work.add_run(span, paid, span.size, c, prefix_of)

    def covers(j, end, start, acc, missing, prefix, covers):
        if (acc == need).all():
            for rest in itertools.combinations(range(start, n), j):
                if rest and rest[0] >= end:
                    return
                yield prefix + rest
        elif j == 1:
            # the range and its charge do not stop at end; the covers do
            stop = cut(1, start, n, missing, prefix)
            hits = ((acc | masks[start:stop]) == need).all(axis=1)
            for i in np.flatnonzero(hits[: max(end - start, 0)]).tolist():
                yield prefix + (start + i,)
        elif j == 2:
            yield from block([prefix], acc[None], np.array([missing]), np.array([start]), end)
        elif j > 2:
            stop = cut(j, start, end, missing, prefix)
            a = acc | masks[start:stop]
            left = _popcount(rows & ~a)
            # a member whose extension's own cut falls at its first index is
            # skipped: more rows missing than j - 1 members after it cover
            keep = np.flatnonzero(left <= (1 - j) * caps[start + 1 : stop + 1])
            if j > 3:
                for x in keep.tolist():
                    yield from covers(j - 1, n, start + x + 1, a[x], int(left[x]), prefix + (start + x,), covers)
            elif keep.size:
                # whole prefixes per block, split where the rows they may
                # bring (n - 1 - i for prefix i) pass a multiple of chunk^2
                total = np.cumsum(n - 1 - start - keep) // (chunk * chunk)
                for x in np.split(keep, np.flatnonzero(np.diff(total)) + 1):
                    heads = [prefix + (start + i,) for i in x.tolist()]
                    yield from block(heads, a[x], left[x], start + x + 1, n)

    # covers is handed itself, so no closure refers to itself and a column's
    # masks are freed with its last reference, not by the cycle collector
    root = np.zeros_like(rows)
    yield from covers(k, n if end is None else end, 0, root, weight, (), covers)


def _framings(entries: np.ndarray, k: int, what: str):
    """Every (c, G), |G| = k, c not in G, where some member of G equals
    column c in every row (symbol 0 included), in lexicographic order; the
    scan is one call of `what` against the budget."""
    work = _Work(what)
    for c in _unsettled(entries, k):
        for hit in _covers(entries, c, k, False, work):
            yield c, tuple(i + (i >= c) for i in hit)


def is_frameproof(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-frameproof check; the witness is the first failure in
    lexicographic (column, coalition) order."""
    n = matrix.n
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    params = {"k": k}
    for c, group in _framings(matrix.entries, k, "frameproof"):
        return VerificationReport("frameproof", params, False, Witness(c, group))
    return VerificationReport("frameproof", params, True, None)


def is_strongly_selective(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-strongly-selective check.

    The witness reports the first failing (coalition, member): coalition
    sets are scanned in lexicographic order and members in index order
    within each set.  Column by column, the first k-1 others that block c
    on its nonzero rows give the least failing set holding c (inserting c
    keeps the order of the sets), and the least (set, c) over the columns
    is the first failure.  Once one is known, a later column can beat it
    only with a set whose least member, one of the others, is at most the
    known set's, so the scan of the others stops there.  One column's
    masks are held at a time.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    params = {"k": k}
    work = _Work("selectivity")
    best = None  # (set, member) of the least failure so far
    for c in _unsettled(matrix.entries, k - 1):
        end = n if best is None else best[0][0] + 1
        hit = next(_covers(matrix.entries, c, k - 1, True, work, end), None)
        if hit is not None:
            failure = (tuple(sorted([c, *(i + (i >= c) for i in hit)])), c)
            best = failure if best is None else min(best, failure)
            if k == 1:
                break  # a lone member's set is itself: later ones come after
    if best is None:
        return VerificationReport("strongly_selective", params, True, None)
    group, c = best
    return VerificationReport("strongly_selective", params, False, Witness(c, group))


def is_lambda_matrix(matrix: CodeMatrix, lam: int, w: int) -> VerificationReport:
    """Check constant column weight w and pairwise nonzero agreement <= lam.

    A weight failure is witnessed by the column alone; an agreement
    failure carries both columns and the agreeing rows.  Both witnesses are
    the first failure: the lowest-index column of wrong weight, else the
    lexicographically first pair (a, b), a < b.  Agreements come from
    `core.agreement_pairs` on the slabs of `core.agreement_slabs`,
    which stops at the first block of columns that holds a violated pair,
    not from a pair loop.
    """
    if lam < 0 or w < 0:
        raise ParameterError(f"need lam >= 0 and w >= 0, got lam={lam}, w={w}")
    params = {"lam": lam, "w": w}
    entries = matrix.entries
    counts = np.count_nonzero(entries, axis=0)
    wrong = np.flatnonzero(counts != w)
    if wrong.size:
        return VerificationReport("lambda_matrix", params, False, Witness(int(wrong[0])))
    pair = next(agreement_pairs(entries, lam), None)
    if pair is not None:
        a, b = pair
        ref = entries[:, a]
        rows = tuple(int(i) for i in np.flatnonzero((ref == entries[:, b]) & (ref != 0)))
        return VerificationReport("lambda_matrix", params, False, Witness(a, (b,), rows))
    return VerificationReport("lambda_matrix", params, True, None)


def check_reduction_ss_to_fp(matrix: CodeMatrix, k: int) -> bool:
    """(k+1)-strong-selectivity forces k-frameproofness on the same matrix.

    Vacuously true when the matrix is not (k+1)-strongly selective.
    """
    if not is_strongly_selective(matrix, k + 1).passed:
        return True
    return is_frameproof(matrix, k).passed


def check_reduction_fp_to_ss(matrix: CodeMatrix, k: int) -> bool:
    """A k-frameproof matrix stacked over its complement is (k+1)-strongly
    selective.  Vacuously true when the matrix is not k-frameproof."""
    if not is_frameproof(matrix, k).passed:
        return True
    doubled = stack_rows(matrix, complement(matrix))
    return is_strongly_selective(doubled, k + 1).passed


def check_binary_expansion(matrix: CodeMatrix, k: int) -> bool:
    """The unit-vector expansion of a k-frameproof code is k-strongly
    selective (and binary).  Vacuously true when not k-frameproof."""
    if not is_frameproof(matrix, k).passed:
        return True
    return is_strongly_selective(binary_expand(matrix), k).passed
