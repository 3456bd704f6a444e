"""Exhaustive property oracles.

Each coalition check enumerates every coalition, so runtime is
combinatorial; a capacity guard refuses instances past about 1e9 elementary
row checks.  Per-column row masks are packed into Python integers, which
turns the inner "is this coalition covering / blocking" loop into a few
bitwise ops per coalition.  The lambda-matrix check needs only column pairs
and uses the agreement kernel shared with the local-lemma builder.

Frameproof, for offset k: for every column c and every set G of k other
columns there is a row where all of G differs from c (symbol 0 included).
Strongly selective, for size k: for every k-set G and every c in G there
is a row where c is nonzero and the other members all differ from it.
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
    agreement_exceeds,
    binary_expand,
    complement,
    stack_rows,
)

CHECK_BUDGET = 1_000_000_000


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


def _column_masks_against(entries: np.ndarray, c: int) -> list[int]:
    # mask[j] = rows where column j matches column c
    eq = entries == entries[:, c : c + 1]
    packed = np.packbits(eq, axis=0, bitorder="little")
    nb, n = packed.shape
    flat = np.ascontiguousarray(packed.T).tobytes()
    return [int.from_bytes(flat[j * nb : (j + 1) * nb], "little") for j in range(n)]


def _nonzero_masks(entries: np.ndarray) -> list[int]:
    packed = np.packbits(entries != 0, axis=0, bitorder="little")
    nb, n = packed.shape
    flat = np.ascontiguousarray(packed.T).tobytes()
    return [int.from_bytes(flat[j * nb : (j + 1) * nb], "little") for j in range(n)]


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


def is_frameproof(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-frameproof check; the witness is the first failure in
    lexicographic (column, coalition) order."""
    n, t = matrix.n, matrix.t
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    cost = n * math.comb(n - 1, k) * t
    if cost > CHECK_BUDGET:
        raise CapacityError(f"frameproof check needs ~{cost} row checks, over {CHECK_BUDGET}")
    entries = matrix.entries
    full = (1 << t) - 1
    params = {"k": k}
    for c in range(n):
        masks = _column_masks_against(entries, c)
        others = [j for j in range(n) if j != c]
        for group in itertools.combinations(others, k):
            acc = 0
            for j in group:
                acc |= masks[j]
                if acc == full:
                    break
            if acc == full:
                return VerificationReport("frameproof", params, False, Witness(c, group))
    return VerificationReport("frameproof", params, True, None)


def is_strongly_selective(matrix: CodeMatrix, k: int) -> VerificationReport:
    """Exhaustive k-strongly-selective check.

    The witness reports the first failing (coalition, member): coalition
    sets are scanned in lexicographic order and members in index order
    within each set.
    """
    n, t = matrix.n, matrix.t
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    cost = math.comb(n, k) * k * t
    if cost > CHECK_BUDGET:
        raise CapacityError(f"selectivity check needs ~{cost} row checks, over {CHECK_BUDGET}")
    entries = matrix.entries
    params = {"k": k}
    nz = _nonzero_masks(entries)
    if k == 1:
        for c in range(n):
            if nz[c] == 0:
                return VerificationReport("strongly_selective", params, False, Witness(c, (c,)))
        return VerificationReport("strongly_selective", params, True, None)
    masks = [_column_masks_against(entries, c) for c in range(n)]
    for group in itertools.combinations(range(n), k):
        for c in group:
            blocked = 0
            for j in group:
                if j != c:
                    blocked |= masks[c][j]
            if nz[c] & ~blocked == 0:
                return VerificationReport("strongly_selective", params, False, Witness(c, group))
    return VerificationReport("strongly_selective", params, True, None)


def is_lambda_matrix(matrix: CodeMatrix, lam: int, w: int) -> VerificationReport:
    """Check constant column weight w and pairwise nonzero agreement <= lam.

    A weight failure is witnessed by the column alone; an agreement
    failure carries both columns and the agreeing rows.  Both witnesses are
    the first failure: the lowest-index column of wrong weight, else the
    lexicographically first pair (a, b), a < b.  Agreements come from the
    shared kernel `core.agreement_exceeds` (one blocked B^T B product and an
    n x n bool array, n^2 bytes), not from a pair loop.
    """
    if lam < 0 or w < 0:
        raise ParameterError(f"need lam >= 0 and w >= 0, got lam={lam}, w={w}")
    n = matrix.n
    params = {"lam": lam, "w": w}
    entries = matrix.entries
    counts = np.count_nonzero(entries, axis=0)
    wrong = np.flatnonzero(counts != w)
    if wrong.size:
        return VerificationReport("lambda_matrix", params, False, Witness(int(wrong[0])))
    bad = agreement_exceeds(entries, lam)
    if bad.any():
        a, b = divmod(int(bad.argmax()), n)
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
