"""Exhaustive property oracles.

Frameproof, for offset k: for every column c and every set G of k other
columns there is a row where all of G differs from c (symbol 0 included).
Strongly selective, for size k: for every k-set G and every c in G there
is a row where c is nonzero and the other members all differ from it.

Both are one cover condition.  Pack, for column c, the rows where column
h agrees with c into a mask, 64 rows to a uint64 word; G frames c exactly
when the OR of its members' masks covers every row, and blocks it when it
covers S, c's nonzero rows: selectivity is framing on S.  One kernel,
`_covers`, enumerates the covering coalitions for all the oracles and for
the expurgation's bad events.  It is a pigeonhole search: of j members
that cover R rows one covers at least ceil(R / j) of them, so only such
heavy members are tried, and each cover is found once, through its least
heavy member.  At the root that test needs no mask: a column that no j others
can cover is settled by its largest agreement with another column, read
off the upper-triangle slabs of the one-hot B^T B (`core.agreement_slabs`),
and never reaches the kernel; in a lambda code with j lambda < w that is
every column.  Runtime is combinatorial, so a capacity guard counts the
member tests the kernel makes and refuses the call once they pass
LEAF_BUDGET, naming where it stopped; it never returns a partial answer or
subsamples.  The lambda-matrix check needs only column pairs and uses the
agreement kernel shared with the local-lemma builder.
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


# set bits of every byte value
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Rows set in each mask of a (words, ...) uint64 array."""
    # one multiply sums a word's eight byte counts into its top byte
    per_word = _BYTE_BITS.take(np.ascontiguousarray(masks).view(np.uint8)).view(np.uint64)
    per_word *= np.uint64(0x0101010101010101)
    return (per_word >> np.uint64(56)).sum(axis=0, dtype=np.int64)


class _Work:
    """Coalition checks of one oracle call, against LEAF_BUDGET: the member
    tests the cover kernel evaluates, n - 1 candidates per node, charged
    before each batch of nodes, and each completion of a family, charged as
    it is emitted."""

    def __init__(self, what: str):
        self.what = what
        self.done = 0

    def add(self, count: int, column: int, prefix) -> None:
        """Charge `count` checks made at `column` under the coalition prefix
        `prefix` (columns); past the budget, refuse the call."""
        self.done += count
        if self.done > LEAF_BUDGET:
            raise CapacityError(
                f"{self.what} check refused after {self.done} coalition checks, over the "
                f"{LEAF_BUDGET} budget, at column {column}, coalition prefix {tuple(sorted(prefix))}"
            )

    def add_nodes(self, per: int, count: int, node) -> None:
        """Charge `per` checks for each of `count` nodes of a batch as one `add`
        per node would, naming node(x) = (column, prefix) of the first past it."""
        fits = (LEAF_BUDGET - self.done) // max(per, 1)
        if fits < count:
            self.add((fits + 1) * per, *node(fits))
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
    if not size:
        work.add(1, column, prefix)
        yield tuple(sorted(prefix))
        return
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
                    work.add(1, column, prefix)
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


def _covers(entries: np.ndarray, cols, j: int, selective: bool, work: _Work, end=None):
    """Cover kernel of a block of columns: (c, covers) for each column c of
    `cols`, ascending, covers iterating over the j-sets of other columns
    that cover c, as sorted tuples, in lexicographic order.

    Column h covers c in the rows where it equals c (symbol 0 included);
    need is every row to frame c, S, c's nonzero rows, to block it.  The
    masks are one (words, columns, n) uint64 array; a node's rows R lie
    within need, so none needs S masked in.  A node holds its column,
    members, the rows R of need they leave and the columns it allows; its
    children are its allowed heavy members, by the rule that admits fewer:
    those covering at least ceil(|R| / left) rows of R or, to frame c, of
    R & S, or at a root, given `end`, the columns up to it (then only the
    covers with such a least member are found).  A child no longer allows
    its parent's heavy members up to its own, so a cover is found through
    its least heavy member only.  The last member covers R alone, an
    equality test; a child whose R is empty leaves a family, which
    `_completions` emits lazily.

    Nodes are evaluated AGREEMENT_BLOCK at a time, one masked AND and
    popcount over (nodes x n), and a batch's children depth first before
    its next batch: memory stays O(AGREEMENT_BLOCK n words), and a column's
    covers are yielded as soon as the search has left it.  Each batch is
    charged n - 1 checks per node to `work` before it is evaluated.
    """
    t, n = entries.shape
    cs = np.asarray(cols, dtype=np.int64)
    block = core.AGREEMENT_BLOCK
    # a bool row per column, then one for S, padded to whole 64-bit words;
    # column c's own row is every row, as c equals itself
    bits = np.zeros((cs.size, n + 1, 64 * max(1, -(-t // 64))), dtype=bool)
    ref = entries[:, cs].T
    np.equal(entries.T, ref[:, None], out=bits[:, :n, :t])
    bits[:, n, :t] = ref != 0
    words = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64).transpose(2, 0, 1).copy()
    del bits
    masks, support = words[:, :, :n], words[:, :, n]
    index = np.arange(n)
    found = [[] for _ in range(cs.size)]  # arrays of the covers completed by a last member
    families = [[] for _ in range(cs.size)]  # _completions' arguments
    # the batch to evaluate: each node's column (its row of the block), its
    # members, its uncovered rows and the columns it allows
    col = np.arange(cs.size)
    chosen = np.zeros((cs.size, 0), dtype=np.int64)
    resid = support if selective else masks[:, col, cs]
    allowed = index != cs[:, None]
    live = resid.any(axis=0)
    if not (j and live.all()):
        for b in np.flatnonzero(~live).tolist():
            families[b].append(((), allowed[b], allowed[b], allowed[b], j))
        live &= j > 0
        col, chosen, resid, allowed = col[live], chosen[live], resid[:, live], allowed[live]
    stack = []  # per batch with 3 or more members left: its nodes, children and child batches
    emitted = 0
    while True:
        if col.size:
            left = j - chosen.shape[1]
            work.add_nodes(n - 1, col.size, lambda x: (int(cs[col[x]]), chosen[x].tolist()))
            # per node, the heavy members of the rule that admits fewer: under R,
            # to frame c under R & S, at a root given end the columns up to it
            rules = resid[:, None]
            if not selective:
                rules = np.concatenate((rules, (resid & support[:, col])[:, None]), axis=1)
            heavy = _heavy(masks[:, col][:, None] & rules[..., None], rules, left) & allowed
            if end is not None and left == j:
                heavy = np.concatenate((heavy, (allowed & (index <= end))[None]))
            heavy = heavy[heavy.sum(axis=2).argmin(axis=0), np.arange(col.size)]
            p, h = np.nonzero(heavy)
            rest = resid[:, p] & ~masks[:, col[p], h]
            live = rest.any(axis=0)
            if not live.all():
                ends = np.zeros_like(heavy)
                ends[p[~live], h[~live]] = True
                for x in np.flatnonzero(ends.any(axis=1)).tolist():
                    families[col[x]].append((tuple(chosen[x].tolist()), allowed[x], heavy[x], ends[x], left))
                p, h, rest = p[live], h[live], rest[:, live]
            if left > 2:
                stack.append((col, chosen, allowed, heavy, p, h, rest, iter(range(0, p.size, block))))
            for at in range(0, p.size if left == 2 else 0, block):
                # children with one member left, which covers their rows alone where the
                # child allows it: its parent does, and it is no heavy parent member up to h
                q, hq, rq = p[at : at + block], h[at : at + block], rest[:, at : at + block]
                work.add_nodes(n - 1, q.size, lambda x: (int(cs[col[q[x]]]), chosen[q[x]].tolist() + [int(hq[x])]))
                x, g = np.nonzero(((masks[:, col[q]] & rq[:, :, None]) == rq[:, :, None]).all(axis=0))
                if x.size:
                    qx = q[x]
                    keep = allowed[qx, g] & ~(heavy[qx, g] & (g <= hq[x]))
                    x, qx = x[keep], qx[keep]
                    rows = np.sort(np.concatenate((chosen[qx], hq[x, None], g[keep, None]), axis=1), axis=1)
                    owner = col[qx]
                    for b in np.flatnonzero(np.bincount(owner)).tolist():  # np.unique loads numpy.ma
                        found[b].append(rows[owner == b])
        # the next batch: the first children left of the deepest batch
        while stack and (at := next(stack[-1][7], None)) is None:
            stack.pop()
        if stack:
            parent, members, ok, strong, p, h, rest, _ = stack[-1]
            p, h = p[at : at + block], h[at : at + block]
            col, resid = parent[p], rest[:, at : at + block]
            chosen = np.concatenate((members[p], h[:, None]), axis=1)
            allowed = ok[p] & ~(strong[p] & (index <= h[:, None]))
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
    block's `end`, in blocks that double from one column, so that a caller
    that stops at the first cover searches little past its column, up to
    AGREEMENT_BLOCK columns and AGREEMENT_BLOCK^2 masks, but at least one."""
    columns, size, n = _unsettled(entries, j), 1, entries.shape[1]
    while block := list(itertools.islice(columns, size)):
        yield from _covers(entries, block, j, selective, work, end())
        size = min(2 * size, core.AGREEMENT_BLOCK, max(1, core.AGREEMENT_BLOCK**2 // n))


def _framings(entries: np.ndarray, k: int, what: str):
    """Every (c, G), |G| = k, c not in G, where some member of G equals
    column c in every row (symbol 0 included), in lexicographic order; the
    scan is one call of `what` against the budget."""
    work = _Work(what)
    for c, covers in _search(entries, k, False, work):
        for group in covers:
            yield c, group


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
    is the first failure.  Once one is known, a later column beats it only
    with a set whose least member, one of the others, is at most its own.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    params = {"k": k}
    work = _Work("selectivity")
    best = None  # (set, member) of the least failure so far
    for c, covers in _search(matrix.entries, k - 1, True, work, lambda: best and best[0][0]):
        hit = next(covers, None)
        if hit is not None:
            failure = (tuple(sorted((c, *hit))), c)
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
