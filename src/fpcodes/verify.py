"""Exhaustive property oracles.

Frameproof, for offset k: for every column c and every set G of k other
columns there is a row where all of G differs from c (symbol 0 included).
Strongly selective, for size k: for every k-set G and every c in G there
is a row where c is nonzero and the other members all differ from it.

Both are one cover condition.  Pack, for column c, the rows where column
h agrees with c into a mask, 64 rows to a uint64 word, off bit planes of
the code packed once a call: h agrees with c where no plane differs.  G
frames c exactly when the OR of its members' masks covers every row, and
blocks it when it covers S, c's nonzero rows, the OR of c's planes:
selectivity is framing on S.  One kernel, `_covers`, enumerates the
covers of j >= 1 members for all the oracles and the expurgation's bad
events (k = 1 selectivity needs none: a lone member fails exactly when
its column is zero).  It is a pigeonhole search: of j members that cover
R rows one covers at least ceil(R / j) of them, so only such heavy
members are tried, and each cover is found once, through its least heavy
member, in one batch loop down to the last member, an equality test
filtered through its parent's columns.  A column that no j others can
cover is settled before any plane is packed, by its largest agreement
with another column, off the upper-triangle slabs of the one-hot B^T B
(`core.agreement_slabs`); in a lambda code with j lambda < w that is
every column.  Runtime is combinatorial, so a capacity guard with one
charge, n - 1 checks a node and a completion a node of one, refuses the
call past LEAF_BUDGET, naming where it stopped and estimating the whole
call's checks; it never returns a partial answer or subsamples.  The
lambda-matrix check needs only column pairs, on the agreement kernel of
the local-lemma builder.
"""

from __future__ import annotations

import heapq
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


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Rows set in each mask of a (words, ...) uint64 array."""
    return np.bitwise_count(masks).sum(axis=0, dtype=np.int64)


def _bit_planes(entries: np.ndarray):
    """(planes, rows) of a code, the masks' input: planes[p, w, h] holds bit
    p of column h's symbols, row 64 w + i at bit i, for each bit a symbol
    uses, and rows has every one of the t rows set, padded to whole words."""
    t, n = entries.shape
    words = max(1, -(-t // 64))
    width = int(entries.max(initial=0)).bit_length()
    planes = np.empty((width, words, n), dtype=np.uint64)
    bits = np.zeros((n, 64 * words), dtype=np.uint8)  # one plane's bits at a time
    for p in range(width):
        # the low byte of symbol >> p holds bit p at its bit 0
        np.right_shift(entries.T, p, out=bits[:, :t], casting="unsafe")
        bits &= 1
        planes[p] = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64).T
    rows = np.full(words, 2**64 - 1, dtype=np.uint64)
    rows[t // 64 :] = (1 << t % 64) - 1  # no row past t is set
    return planes, rows


def _agreement_masks(code, cs: np.ndarray):
    """(masks, S) of columns cs from `_bit_planes`' (planes, rows):
    masks[w, i, h] has the rows where column h equals column cs[i], and
    S[w, i] column cs[i]'s nonzero rows.  Column h agrees with c where no
    bit plane differs, so column c's own mask is every row."""
    planes, rows = code
    masks = np.zeros((rows.size, cs.size, planes.shape[2]), dtype=np.uint64)
    differ = np.empty_like(masks)
    for plane in planes:
        masks |= np.bitwise_xor(plane[:, None, :], plane[:, cs, None], out=differ)
    np.invert(masks, out=masks)
    masks &= rows[:, None, None]
    return masks, np.bitwise_or.reduce(planes[:, :, cs], axis=0)


class _Work:
    """Coalition checks of one oracle call, against LEAF_BUDGET: the member
    tests the cover kernel evaluates, n - 1 candidates per node, charged
    before each batch of nodes, and each completion of a family, a node of
    one check, charged as it is emitted.  A refusal estimates the whole
    call's checks as those done, scaled from the columns reached to all n."""

    def __init__(self, what: str, n: int):
        self.what = what
        self.n = n
        self.done = 0

    def add(self, per: int, count: int, node) -> None:
        """Charge `per` checks for each of `count` nodes, in order; past the
        budget, refuse the call at the first node whose charge crosses it,
        naming node(x) = (column, coalition prefix) of that node x."""
        room = LEAF_BUDGET - self.done
        if per * count > room:
            x = room // per
            self.done += (x + 1) * per
            column, prefix = node(x)
            raise CapacityError(
                f"{self.what} check refused after {self.done} coalition checks, over the "
                f"{LEAF_BUDGET} budget, at column {column}, coalition prefix {tuple(sorted(prefix))}; "
                f"extrapolated to all {self.n} columns, about {self.done * self.n // (column + 1)} checks"
            )
        self.done += per * count


def _unsettled(entries: np.ndarray, j: int):
    """Every column c that j others might cover, in order: those whose
    weight is at most j times their largest nonzero agreement with another
    column, a running maximum over the slabs of `agreement_slabs`.  Every
    other column is settled.  Weights are counted on the entries: B^T B's
    diagonal drops the (row, symbol) pairs no other column holds."""
    weights = (entries != 0).sum(axis=0)
    above = np.zeros(weights.size, dtype=np.float32)  # largest agreement with a column of an earlier block
    for a0, slab in agreement_slabs(entries):
        m = slab.shape[0]
        peaks = np.maximum(slab.max(axis=1), above[a0 : a0 + m])
        np.maximum(above[a0 + m :], slab[:, m:].max(axis=0, initial=0), out=above[a0 + m :])
        del slab
        yield from (a0 + np.flatnonzero(weights[a0 : a0 + m] <= j * peaks.astype(np.int64))).tolist()


def _heavy(hits: np.ndarray, rows: np.ndarray, left: int) -> np.ndarray:
    """The candidates of each node that cover at least ceil(|rows| / left)
    of its rows: hits[:, ..., x, h] is candidate h's mask ANDed with
    rows[:, ..., x]."""
    return _popcount(hits) >= ((_popcount(rows).astype(np.int64) + left - 1) // left)[..., None]


def _completions(prefix: tuple, allowed, heavy, ends, size: int, work: _Work, column: int):
    """Every sorted prefix + X, X a size-set of allowed columns whose least
    heavy member is one of ends, in lexicographic order (prefix and X are
    disjoint, so the order of the Xs is kept), each charged as it is
    emitted.  X grows on a stack of places, so no size recurses."""
    pool = np.flatnonzero(allowed)
    heavy, ends, pool = heavy[pool].tolist(), ends[pool].tolist(), pool.tolist()
    last = len(ends) - 1 - ends[::-1].index(True) if True in ends else -1  # the last end's place
    taken = []  # (place, whether a heavy member is taken up to it) of X's first members
    i = 0  # the next place to try
    while True:
        seen = bool(taken) and taken[-1][1]
        stop = len(pool) if seen else last + 1  # from it on, no end is left to take
        if len(taken) == size - 1:
            # the last member: each place from i on that completes X
            head = prefix + tuple(pool[x] for x, _ in taken)
            for x in range(i, stop):
                if seen or heavy[x] and ends[x]:
                    work.add(1, 1, lambda _: (column, prefix))
                    yield tuple(sorted(head + (pool[x],)))
        elif i < min(stop, len(pool) - size + len(taken) + 1):
            if seen or not heavy[i] or ends[i]:  # X's least heavy member must be an end
                taken.append((i, seen or heavy[i]))
            i += 1
            continue
        if not taken:
            return
        i = taken.pop()[0] + 1


def _in_order(parts: list):
    """The covers of a column, arrays of sorted rows, as tuples in
    lexicographic order, converted a slice at a time as they are taken."""
    rows = np.concatenate(parts)
    rows = rows[np.lexsort(rows.T[::-1])]
    for lo in range(0, len(rows), 64):
        yield from map(tuple, rows[lo : lo + 64].tolist())


def _covers(code, cols, j: int, selective: bool, work: _Work, end=None):
    """Cover kernel of a block of columns: (c, covers) for each column c of
    `cols`, ascending, covers iterating over the j-sets of other columns
    that cover c, as sorted tuples, in lexicographic order.

    Column h covers c in the rows where it equals c (symbol 0 included);
    need is every row to frame c, S, c's nonzero rows, to block it.  The
    masks are one (words, columns, n) uint64 array, built from `code`, the
    (planes, rows) of `_bit_planes`, by `_agreement_masks`; a node's rows R
    lie within need, so none needs S masked in.  A node, a root with no row to
    cover too, holds its column, members and the rows R of need they leave;
    its children are its allowed heavy members, by the rule that admits
    fewer: those covering at least ceil(|R| / left) rows of R or, to frame
    c, of R & S, or at a root, given `end`, the columns up to it (then only
    the covers with such a least member are found).  A child allows what
    its parent does but the parent's heavy members up to its own, so a
    cover is found through its least heavy member only.  A child whose R is
    empty leaves a family, which `_completions` emits lazily; one with one
    member left is an equality test over every column, its hits filtered
    through its parent's allowed and heavy columns.

    One loop evaluates every level's nodes AGREEMENT_BLOCK at a time, one
    masked AND and `np.bitwise_count` over (nodes x n), a batch's children
    depth first before its next batch: memory stays O(AGREEMENT_BLOCK n
    words), and a column's covers are yielded once the search has left it.
    Each batch is charged n - 1 checks a node to `work` before it is
    evaluated.
    """
    cs = np.asarray(cols, dtype=np.int64)
    masks, support = _agreement_masks(code, cs)
    n = masks.shape[2]
    block = core.AGREEMENT_BLOCK
    index = np.arange(n)
    found = [[] for _ in range(cs.size)]  # arrays of the covers completed by a last member
    families = [[] for _ in range(cs.size)]  # _completions' arguments
    # the batch to evaluate: each node's column (its row of the block), members and uncovered
    # rows, its parent's allowed and heavy columns ok[p] and strong[p], and its last member h
    col = p = np.arange(cs.size)
    chosen = np.zeros((cs.size, 0), dtype=np.int64)
    resid = support if selective else masks[:, col, cs]
    ok = strong = index != cs[:, None]
    h = np.full(cs.size, -1)
    stack = []  # per batch with 2 or more members left: its nodes, children and child batches
    emitted = 0
    while True:
        left = j - chosen.shape[1]
        work.add(n - 1, col.size, lambda x: (int(cs[col[x]]), chosen[x].tolist()))
        if left == 1:
            # the last member covers R alone, leaving none of its rows, where the
            # node allows it; in place, as the batch's one (words, nodes, n) array
            miss = masks[:, col]
            np.invert(miss, out=miss)
            miss &= resid[:, :, None]
            x, g = divmod(np.flatnonzero(~miss.any(axis=0)), n)
            keep = ok[p[x], g] & ~(strong[p[x], g] & (g <= h[x]))
            x, g = x[keep], g[keep]
            rows = np.sort(np.concatenate((chosen[x], g[:, None]), axis=1), axis=1)
            owner = col[x]
            for b in np.flatnonzero(np.bincount(owner)).tolist():  # np.unique loads numpy.ma
                found[b].append(rows[owner == b])
        else:
            allowed = ok[p] & ~(strong[p] & (index <= h[:, None]))
            # per node, the heavy members of the rule that admits fewer: under R,
            # to frame c under R & S, at a root given end the columns up to it
            rules = resid[:, None]
            if not selective:
                rules = np.concatenate((rules, (resid & support[:, col])[:, None]), axis=1)
            heavy = _heavy(masks[:, col][:, None] & rules[..., None], rules, left) & allowed
            if end is not None and left == j:
                heavy = np.concatenate((heavy, (allowed & (index <= end))[None]))
            heavy = heavy[heavy.sum(axis=2).argmin(axis=0), np.arange(col.size)]
            p, h = divmod(np.flatnonzero(heavy), n)  # a 2-d np.nonzero is several times slower
            rest = resid[:, p] & ~masks[:, col[p], h]
            live = rest.any(axis=0)
            if not live.all():
                ends = np.zeros_like(heavy)
                ends[p[~live], h[~live]] = True
                for x in np.flatnonzero(ends.any(axis=1)).tolist():
                    families[col[x]].append((tuple(chosen[x].tolist()), allowed[x], heavy[x], ends[x], left))
                p, h, rest = p[live], h[live], rest[:, live]
            stack.append((col, chosen, allowed, heavy, p, h, rest, iter(range(0, p.size, block))))
        # the next batch: the first children left of the deepest batch
        while stack and (at := next(stack[-1][7], None)) is None:
            stack.pop()
        if stack:
            parent, members, ok, strong, p, h, rest, _ = stack[-1]
            p, h = p[at : at + block], h[at : at + block]
            col, resid = parent[p], rest[:, at : at + block]
            chosen = np.concatenate((members[p], h[:, None]), axis=1)
        # no node of a column before the next batch's is left
        upto = int(col[0]) if stack else cs.size
        for b in range(emitted, upto):
            c = int(cs[b])
            runs = [_in_order(found[b])] if found[b] else []
            runs += [_completions(*f, work, c) for f in families[b]]
            yield c, heapq.merge(*runs)
            found[b] = families[b] = None
        emitted = upto
        if not stack:
            return


def _search(entries: np.ndarray, j: int, selective: bool, work: _Work, end=lambda: None):
    """`_covers` over every column `_unsettled` leaves, end() giving each
    block's `end`, on bit planes packed at the first such column.  The first
    block is one column, so that a caller that stops at a first cover there
    searches no further; each later one takes at least AGREEMENT_BLOCK^2 /
    (4 n) columns, 4096 masks, or twice the last block, so that few blocks
    pay each block's fixed cost, up to AGREEMENT_BLOCK columns and
    AGREEMENT_BLOCK^2 masks, but at least one."""
    columns, size, n, code = _unsettled(entries, j), 1, entries.shape[1], None
    block = core.AGREEMENT_BLOCK
    while cols := list(itertools.islice(columns, size)):
        code = code or _bit_planes(entries)
        yield from _covers(code, cols, j, selective, work, end())
        size = min(max(2 * size, block**2 // (4 * n)), block, max(1, block**2 // n))


def _framings(entries: np.ndarray, k: int, what: str):
    """Every (c, G), |G| = k, c not in G, where some member of G equals
    column c in every row (symbol 0 included), in lexicographic order; the
    scan is one call of `what` against the budget, for 1 <= k <= n - 1."""
    n = entries.shape[1]
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    work = _Work(what, n)
    return ((c, group) for c, covers in _search(entries, k, False, work) for group in covers)


def is_frameproof(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-frameproof check; the witness is the first failure in
    lexicographic (column, coalition) order."""
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
    is the first failure.  Once one is known, a later column beats it only
    with a set whose least member, one of the others, is at most its own.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    params = {"k": k}
    best = None  # (set, member) of the least failure so far
    if k == 1:  # a lone member is blocked exactly when its column is zero
        zero = np.flatnonzero(~matrix.entries.any(axis=0)).tolist()
        best = ((zero[0],), zero[0]) if zero else None
    else:
        work = _Work("selectivity", n)
        for c, covers in _search(matrix.entries, k - 1, True, work, lambda: best and best[0][0]):
            hit = next(covers, None)
            if hit is not None:
                failure = (tuple(sorted((c, *hit))), c)
                best = failure if best is None else min(best, failure)
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
