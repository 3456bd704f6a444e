"""Exhaustive property oracles.

Frameproof, for offset k: for every column c and every set G of k other
columns there is a row where all of G differs from c (symbol 0 included).
Strongly selective, for size k: for every k-set G and every c in G there
is a row where c is nonzero and the other members all differ from it.

Both are one cover condition.  Pack, for column c, the rows where column
j agrees with c into an int mask (for selectivity, only c's nonzero
rows); G frames c, or blocks c, exactly when the OR of its members'
masks covers every row that counts.  One kernel, `_covers`, enumerates
the covering coalitions for all the oracles and for the expurgation's
bad events.  It is a branch and bound: a prefix is cut with its whole
subtree when the members left cannot cover the rows of c's support still
missing, each covering at most the largest agreement with c of any
column left.  At the root that test needs no mask: a column that no j
others can cover is settled by one comparison against the largest entry
of its row of the blocked one-hot B^T B (`core.agreement_rows`), read off
the upper triangle a block of columns at a time, and never reaches
`_covers`.  In a lambda code with j lambda < w that is every column, so
the scan costs half of one blocked product.  The cut drops no cover and
keeps the order.  Runtime is combinatorial, so a capacity guard counts
the work each call actually does (masks packed and mask ORs evaluated)
and refuses the call once it passes LEAF_BUDGET, naming where it
stopped; it never returns a partial answer or subsamples.  The lambda-matrix check needs only column pairs
and uses the agreement kernel shared with the local-lemma builder.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    CapacityError,
    CodeMatrix,
    ParameterError,
    agreement_pairs,
    agreement_rows,
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


def _pack(bits: np.ndarray) -> list[int]:
    """Columns of a (t, n) bool array as ints, bit i set where row i is."""
    packed = np.packbits(bits, axis=0, bitorder="little")
    words = max(1, -(-packed.shape[0] // 8))  # t = 0 packs as zeros
    padded = np.zeros((bits.shape[1], 8 * words), dtype=np.uint8)
    padded[:, : packed.shape[0]] = packed.T
    # one little-endian 64-bit word list per 64 rows, joined at Python speed
    chunks = padded.view("<u8")
    out = chunks[:, 0].tolist()
    for j in range(1, words):
        out = [a | b << (64 * j) for a, b in zip(out, chunks[:, j].tolist())]
    return out


class _Work:
    """Coalition checks of one oracle call, against LEAF_BUDGET: the masks
    `_covers` packs and the mask ORs it evaluates."""

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


def _unsettled(entries: np.ndarray, j: int):
    """(c, counts) for every column c that j others might cover, in order:
    those whose weight is at most j times their largest nonzero agreement
    with another column; counts is c's agreement row, 0 at c.  Every other
    column is settled, j members covering fewer rows of its support than it
    has.  Weights are counted on the entries: B^T B's diagonal drops the
    (row, symbol) pairs no other column holds."""
    weights = np.count_nonzero(entries, axis=0)

    def pick(a0, peaks):
        return np.flatnonzero(weights[a0 : a0 + len(peaks)] <= j * peaks.astype(np.int64))

    for c, row in agreement_rows(entries, pick):
        yield c, row.astype(np.int64)


def _covers(entries: np.ndarray, c: int, k: int, selective: bool, work: _Work, counts, end=None):
    """Cover kernel of column c: every increasing k-tuple of mask indices,
    the first below `end`, whose masks' OR equals need, in lexicographic
    order.

    Mask i holds the rows where column i (i < c) or i + 1 (i >= c) covers
    c: equals it (symbol 0 included) to frame it, or, with `selective`,
    holds its nonzero symbol.  need is every row to frame c, c's nonzero
    rows to block it.

    Branch and bound on S, c's nonzero rows.  popcount(mask h & S) is
    counts[h], the nonzero agreement of column h with c (counts[c] = 0),
    which the caller reads off its row of B^T B; j members from index i on
    cover at most j * suffixmax[i] rows of S, suffixmax[i] the largest of
    those counts from i on.  Where more rows of S are missing no extension
    covers, and as suffixmax never increases the level's loop stops at the
    first such i.  The root test is the caller's, `_unsettled`: only a
    column it leaves unsettled gets here.  The search is depth first,
    carrying the prefix OR down; once a prefix covers need, every
    extension does.  The cut skips no cover, so the tuples and their order
    are those of the full scan.  The masks packed and each mask OR
    evaluated are charged to `work`.
    """
    support = entries[:, c] != 0
    bits = entries == entries[:, c : c + 1]
    if selective:
        bits &= support[:, None]
    bits[:, c] = support  # c's own mask is S
    masks = _pack(bits)
    rows = masks.pop(c)
    n = len(masks)
    work.add(n, c, ())
    need = rows if selective else (1 << entries.shape[0]) - 1
    # caps = -suffixmax rises, so bisection finds the cut; c's own count is
    # 0 in the maxima and its index dropped after
    caps = (-np.maximum.accumulate(counts[::-1])[::-1]).tolist()
    del caps[c]

    def cut(j, start, end, missing, prefix):
        """End of the indices from start on, below end, that may take the
        next of j members with `missing` rows of S uncovered, charged as
        the ORs the caller evaluates."""
        # missing > j * suffixmax[i] exactly when suffixmax[i] <= (missing - 1) // j
        stop = bisect.bisect_left(caps, -((missing - 1) // j), start, min(end, n - j + 1))
        work.add(stop - start, c, prefix)
        return stop

    def last(start, acc, missing, prefix):
        """Indices from start on whose mask completes acc to need."""
        stop = cut(1, start, n, missing, prefix)
        return [i for i in range(start, stop) if acc | masks[i] == need]

    def covers(j, end, start, acc, prefix, covers):
        if acc == need:
            for rest in itertools.combinations(range(start, n), j):
                if rest and rest[0] >= end:
                    return
                yield prefix + rest
        elif j == 1:
            for i in last(start, acc, (rows & ~acc).bit_count(), prefix):
                yield prefix + (i,)
        elif j > 1:
            stop = cut(j, start, end, (rows & ~acc).bit_count(), prefix)
            for i, a in enumerate([acc | m for m in masks[start:stop]], start):
                missing = (rows & ~a).bit_count()
                if missing > (1 - j) * caps[i + 1]:
                    continue  # the extension's own cut falls at its first index
                if j > 2:
                    yield from covers(j - 1, n, i + 1, a, prefix + (i,), covers)
                else:  # the last member inline, without a generator per prefix
                    for h in last(i + 1, a, missing, prefix + (i,)):
                        yield prefix + (i, h)

    # covers is handed itself, so no closure refers to itself and a column's
    # masks are freed with its last reference, not by the cycle collector
    yield from covers(k, n if end is None else end, 0, 0, (), covers)


def _framings(entries: np.ndarray, k: int, what: str):
    """Every (c, G), |G| = k, c not in G, where some member of G equals
    column c in every row (symbol 0 included), in lexicographic order; the
    scan is one call of `what` against the budget."""
    work = _Work(what)
    for c, counts in _unsettled(entries, k):
        for hit in _covers(entries, c, k, False, work, counts):
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
    for c, counts in _unsettled(matrix.entries, k - 1):
        end = n if best is None else best[0][0] + 1
        hit = next(_covers(matrix.entries, c, k - 1, True, work, counts, end), None)
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
    `core.agreement_pairs` on the shared kernel `core.agreement_rows`,
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
