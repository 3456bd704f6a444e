"""Exhaustive property oracles.

Frameproof, for offset k: for every column c and every set G of k other
columns there is a row where all of G differs from c (symbol 0 included).
Strongly selective, for size k: for every k-set G and every c in G there
is a row where c is nonzero and the other members all differ from it.

Both are one cover condition.  Pack, for column c, the rows where column j
agrees with c into an int mask (for selectivity, only c's nonzero rows);
G frames c, or blocks c, exactly when the OR of its members' masks covers
every row that counts.  One generator, `_covers`, enumerates the covering
coalitions for all the oracles and for the expurgation's bad events.
Runtime is combinatorial, so a capacity guard counts the generator's
last-member checks and refuses a scan of more than LEAF_BUDGET of them
rather than subsample.  The lambda-matrix check needs only column pairs
and uses the agreement kernel shared with the local-lemma builder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CapacityError,
    CodeMatrix,
    ParameterError,
    agreement_pairs,
    binary_expand,
    complement,
    stack_rows,
)

LEAF_BUDGET = 100_000_000
# last-member checks per second of a passing scan (Python 3.11, one core of a
# 2-core x86-64 VM); only the time estimate in a refusal depends on it
LEAF_RATE = 8e6


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
    nb = packed.shape[0]
    flat = packed.T.tobytes()
    return [int.from_bytes(flat[i : i + nb], "little") for i in range(0, len(flat), nb)]


def _covers(masks: list[int], need: int, k: int, start: int = 0, acc: int = 0):
    """Every increasing k-tuple of indices >= start into masks whose OR with
    acc equals need, in lexicographic order.

    Every mask and acc must lie within need.  Depth first, carrying the
    prefix OR down; once a prefix covers need, every extension does.
    """
    if acc == need:
        yield from itertools.combinations(range(start, len(masks)), k)
    elif k == 1:
        for i in range(start, len(masks)):
            if acc | masks[i] == need:
                yield (i,)
    elif k > 1:
        for i in range(start, len(masks) - k + 1):
            for rest in _covers(masks, need, k - 1, i + 1, acc | masks[i]):
                yield (i, *rest)


def _check_capacity(what: str, leaves: int) -> None:
    """Refuse a scan of more than LEAF_BUDGET last-member checks of `_covers`."""
    if leaves > LEAF_BUDGET:
        raise CapacityError(
            f"{what} check needs ~{leaves} coalition checks (~{leaves / LEAF_RATE:.3g} s), "
            f"over the {LEAF_BUDGET} budget"
        )


def _framings(entries: np.ndarray, k: int):
    """Every (c, G), |G| = k, c not in G, where some member of G equals
    column c in every row (symbol 0 included), in lexicographic order."""
    t, n = entries.shape
    full = (1 << t) - 1
    for c in range(n):
        # index i stands for column i below c and for column i+1 from c on
        masks = _pack(entries == entries[:, c : c + 1])
        del masks[c]
        for hit in _covers(masks, full, k):
            yield c, tuple(i + (i >= c) for i in hit)


def is_frameproof(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-frameproof check; the witness is the first failure in
    lexicographic (column, coalition) order."""
    n = matrix.n
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    _check_capacity("frameproof", n * math.comb(n - 1, k))
    params = {"k": k}
    for c, group in _framings(matrix.entries, k):
        return VerificationReport("frameproof", params, False, Witness(c, group))
    return VerificationReport("frameproof", params, True, None)


def is_strongly_selective(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-strongly-selective check.

    The witness reports the first failing (coalition, member): coalition
    sets are scanned in lexicographic order and members in index order
    within each set.  Sets are taken by their smallest member g; each
    member c >= g is checked against its nonzero rows, and the first g
    with a failure gives the least (set, member) over its members.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_capacity("selectivity", n * math.comb(n - 1, k - 1))
    entries = matrix.entries
    params = {"k": k}
    cols = []
    for c in range(n):
        # rows where column j holds column c's nonzero symbol; column c's own
        # entry is its nonzero rows, and the rest index as in `_framings`
        ref = entries[:, c : c + 1]
        masks = _pack((entries == ref) & (ref != 0))
        need = masks.pop(c)
        cols.append((masks, need))
    for g in range(n - k + 1):
        failures = []
        for c in range(g, n if k > 1 else g + 1):
            masks, need = cols[c]
            if c == g:
                hit = next(_covers(masks, need, k - 1, g), None)
            else:
                rest = next(_covers(masks, need, k - 2, g + 1, masks[g]), None)
                hit = None if rest is None else (g, *rest)
            if hit is not None:
                failures.append((tuple(sorted([c, *(i + (i >= c) for i in hit)])), c))
        if failures:
            group, c = min(failures)
            return VerificationReport("strongly_selective", params, False, Witness(c, group))
    return VerificationReport("strongly_selective", params, True, None)


def is_lambda_matrix(matrix: CodeMatrix, lam: int, w: int) -> VerificationReport:
    """Check constant column weight w and pairwise nonzero agreement <= lam.

    A weight failure is witnessed by the column alone; an agreement
    failure carries both columns and the agreeing rows.  Both witnesses are
    the first failure: the lowest-index column of wrong weight, else the
    lexicographically first pair (a, b), a < b.  Agreements come from the
    shared kernel `core.agreement_pairs`, which stops at the first block of
    columns that holds a violated pair, not from a pair loop.
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
