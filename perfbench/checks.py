"""Output checks computed apart from the program under test.

Nothing here calls an fpcodes function to decide whether an fpcodes result
is right, except the naive helpers `coalition_covers` and
`selective_row_exists`, which the project keeps as ground truth for its
fast paths.  Codes are plain numpy arrays here; formulas are re-derived in
exact rationals (`fractions`) or at 50 digits (`mpmath`).
"""

from __future__ import annotations

import io
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 50

# the program ceilings the displayed lower bound after a downward nudge of 1e-9
CEIL_NUDGE = 1e-9
DIAG_LOWER_COEFF = (15 + mpmath.sqrt(33)) / 24

REPORT_KEYS = frozenset({
    "ss_debonis_order", "lll_lambda_length", "ss_theorem35", "ss_corollary37",
    "fp_theorem38", "fp_upper_diag", "fp_lower_shann", "stinson_41", "shangguan_42",
    "expurgation_43", "expurgation_cor44", "compare_45", "compare_46",
})


# --- codes -----------------------------------------------------------------

AGREEMENT_BLOCK = 128  # columns of B^T B computed at a time


def onehot(entries: np.ndarray, q: int) -> np.ndarray:
    """The one-hot B of the nonzero symbols: B^T B counts nonzero agreements.

    B has one row per (row, nonzero symbol) pair that occurs, so its height
    is at most the number of nonzero entries, whatever q is.  It is float32,
    which counts exactly up to 2^24, so that the product runs in BLAS.
    """
    t, n = entries.shape
    rows, cols = np.nonzero(entries)
    keys = rows.astype(np.int64) * q + entries[rows, cols]
    uniq, inverse = np.unique(keys, return_inverse=True)
    b = np.zeros((len(uniq), n), dtype=np.float32)
    b[inverse, cols] = 1.0
    return b


def lambda_code_problems(entries: np.ndarray, q: int, w: int, lam: int) -> list[str]:
    """Constant weight w and pairwise nonzero agreement at most lam, from
    B^T B taken a block of columns at a time, so that the n x n matrix is
    never held whole."""
    b = onehot(entries, q)
    n = b.shape[1]
    weights, worst = set(), 0
    for lo in range(0, n, AGREEMENT_BLOCK):
        block = b.T @ b[:, lo:lo + AGREEMENT_BLOCK]   # columns lo.. of B^T B
        own = (lo + np.arange(block.shape[1]), np.arange(block.shape[1]))
        weights.update(int(x) for x in block[own])
        block[own] = 0
        worst = max(worst, int(block.max()))
    out = []
    if weights - {w}:
        out.append(f"column weights {sorted(weights)} != {w}")
    if n > 1 and worst > lam:
        out.append(f"pairwise agreement {worst} > lam={lam}")
    return out


def selectivity_from_lambda(w: int, lam: int) -> int:
    """Largest k with lam <= (w-1)/(k-1): a lambda-matrix is strongly k-selective."""
    if lam == 0:
        return 1 << 30
    return (w - 1) // lam + 1


def diagonal_problems(entries: np.ndarray, q: int, n: int) -> list[str]:
    out = []
    depth = -(-n // (q - 1))
    if entries.shape != (depth, n):
        out.append(f"shape {entries.shape} != ({depth}, {n})")
        return out
    if not np.all(np.count_nonzero(entries, axis=0) == 1):
        out.append("a column does not have weight 1")
    for i, row in enumerate(entries):
        nz = row[row != 0]
        if len(np.unique(nz)) != len(nz):
            out.append(f"row {i} repeats a nonzero symbol")
            break
    if entries.max() >= q:
        out.append("symbol out of range")
    return out


def parse_code_text(data: bytes):
    """Independent strict parse of the text format: (q, entries as uint16,
    the program's own symbol type).

    Lines are read one at a time, so that no copy of a large code's text or
    tokens is held next to the code.
    """
    if not data.endswith(b"\n"):
        raise ValueError("missing trailing newline")
    stream = io.BytesIO(data)
    q, t, n = (int(x) for x in stream.readline().split(b" "))
    entries = np.zeros((t, n), dtype=np.uint16)
    for i in range(t):
        line = stream.readline()[:-1]
        tokens = line.split(b" ")
        if len(tokens) != n or b"" in tokens or line.translate(None, b"0123456789 "):
            raise ValueError(f"row {i} is not {n} space-separated numbers")
        entries[i] = np.array(tokens, dtype=np.uint16)
    if stream.read():
        raise ValueError(f"more than {t} rows")
    return q, entries


def round_trip_problems(q: int, entries: np.ndarray, data: bytes, back_q: int,
                        back_entries: np.ndarray) -> list[str]:
    """The written text `data` and the code read back from it, (back_q,
    back_entries), must both be the code (q, entries)."""
    parsed_q, parsed = parse_code_text(data)
    if parsed_q != q or not np.array_equal(parsed, entries) or back_q != q \
            or not np.array_equal(back_entries, entries):
        return ["write_code/read_code round trip changed the code"]
    return []


def framing_events(entries: np.ndarray, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (i, B), |B| = k, with column i equal to a member of B in each row.

    Vectorised at the last two members: for a fixed i and a prefix of k-2
    members, the rows where the whole prefix misses i are kept, and two
    further members cover them iff no kept row is missed by both, which is
    a zero in (miss^T miss).  Output order is lexicographic in (i, B).
    """
    t, m = entries.shape
    events = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        miss = (entries[:, others] != entries[:, i:i + 1]).astype(np.int64)
        found = []
        for prefix in itertools.combinations(range(m - 1), k - 2):
            rows = miss[:, list(prefix)].all(axis=1) if prefix else np.ones(t, dtype=bool)
            start = prefix[-1] + 1 if prefix else 0
            sub = miss[rows, start:]
            both = sub.T @ sub
            xs, ys = np.nonzero(np.triu(both == 0, 1))
            for x, y in zip(xs.tolist(), ys.tolist()):
                found.append(tuple(others[p] for p in prefix) + (others[start + x], others[start + y]))
        events.extend((i, g) for g in sorted(found))
    return events


def comb_rank(group, universe: int) -> int:
    """Position of a sorted k-subset of range(universe) in lexicographic order."""
    k = len(group)
    rank, prev = 0, -1
    for idx, c in enumerate(group):
        for v in range(prev + 1, c):
            rank += math.comb(universe - 1 - v, k - 1 - idx)
        prev = c
    return rank


def frameproof_coalitions(n: int, k: int, witness=None) -> int:
    """Coalitions `is_frameproof` enumerates: all, or up to and including the witness."""
    if witness is None:
        return n * math.comb(n - 1, k)
    column, group = witness
    shifted = [j - (j > column) for j in group]
    return column * math.comb(n - 1, k) + comb_rank(shifted, n - 1) + 1


def selective_coalitions(n: int, k: int, group=None) -> int:
    """Coalitions `is_strongly_selective` enumerates: all, or up to the witness's."""
    if group is None:
        return math.comb(n, k)
    return comb_rank(list(group), n) + 1


# --- length formulas -------------------------------------------------------

def lll_chain(k: int, n: int) -> tuple[int, int]:
    """(w, lam) of the resampling construction for target k, re-derived."""
    w = int(mpmath.ceil(1 + (k - 1) * mpmath.log(2 * mpmath.e * n)))
    return w, (w - 1) // (k - 1)


def lll_criterion(q: int, n: int, w: int, lam: int, t: int) -> bool:
    """Local-lemma condition e * P * (2n-4) <= 1 at length t, P the pair bound
    ((e w/((lam+1)(q-1))) (w - lam/2)/(t - lam/2))^(lam+1), and t >= 2w-(lam+1)."""
    half = mpmath.mpf(lam) / 2
    if t < 2 * w - (lam + 1) or t <= half:
        return False
    base = (mpmath.e * w / ((lam + 1) * (q - 1))) * (w - half) / (t - half)
    return mpmath.e * base ** (lam + 1) * (2 * n - 4) <= 1


def lll_length_minimal(q: int, n: int, w: int, lam: int, t: int) -> bool:
    """The condition holds at t and fails at t-1."""
    return lll_criterion(q, n, w, lam, t) and not lll_criterion(q, n, w, lam, t - 1)


def survival_p(q: int, k: int) -> Fraction:
    """Per-row separation probability p_qk, from its definition."""
    if q > k:
        return Fraction(q - 1, q) ** k
    a = Fraction(q - 1, k + 1)
    return (1 - a) * a ** k + a * Fraction(k, k + 1) ** k


def expurgation_holds(q: int, k: int, n: int, t: int) -> bool:
    """(k+1) C(n+ell, k) (1-p)^t <= 1, exactly."""
    if t < 1:
        return False
    count = (k + 1) * math.comb(n + n // k, k)
    return count * (1 - survival_p(q, k)) ** t <= 1


def expurgation_length_minimal(q: int, k: int, n: int, t: int) -> bool:
    return expurgation_holds(q, k, n, t) and (t == 1 or not expurgation_holds(q, k, n, t - 1))


def expected_report(q: int, k: int, n: int) -> dict:
    """Every bound_report entry re-derived at 50 digits (ints and bools exact).

    The two integer lengths are not recomputed by search here; callers check
    them for exact minimality instead.
    """
    mp = mpmath
    n_, k_ = mp.mpf(n), mp.mpf(k)
    log2en = mp.log(2 * mp.e * n_)
    w, _ = lll_chain(k, n)
    r = (w - 1) / (k_ - 1)
    p = survival_p(q, k)
    p_mp = mp.mpf(p.numerator) / p.denominator
    fact = mp.factorial(k)
    out = {
        "ss_debonis_order": k_ * k_ / min(k, q - 1) * mp.log(n_ / k_),
        "ss_theorem35": 1 + max(
            2 * w - r,
            r / 2 + (mp.e * w * (k_ - 1)) / ((q - 1) * (w - 1)) * (w - r / 2 + mp.mpf(1) / 2)
            * (mp.e * (2 * n_ - 4)) ** ((k_ - 1) / (w - 1)),
        ),
        "ss_corollary37": max(
            2 * (k_ - 1) * log2en - mp.log(n_),
            mp.log(n_) / 2 + mp.e ** 2 * (k_ - 1) ** 2 / (q - 1) * log2en + 7 * mp.e ** 2 * (k_ - 1) / (2 * (q - 1)),
        ),
        "fp_theorem38": max(
            2 * k_ * log2en - mp.log(n_),
            mp.log(n_) / 2 + mp.e ** 2 * k_ ** 2 / (q - 1) * log2en + 7 * mp.e ** 2 * k_ / (2 * (q - 1)),
        ),
        "fp_upper_diag": -(-n // (q - 1)),
        "fp_lower_shann": int(mp.ceil(min(n_, DIAG_LOWER_COEFF * k_ * k_) / q - CEIL_NUDGE)),
        "stinson_41": -k_ * mp.log(n_ * fact / (fact - 1)) / mp.log(1 - (mp.mpf(q - 1) / q) ** k),
        "expurgation_cor44": mp.log(n_ ** k * (k_ + 1) / fact * ((k_ + 1) / k_) ** k) / -mp.log(1 - p_mp),
    }
    if q <= k:
        out["shangguan_42"] = (-k_ * mp.log(n_) - (k_ + 1) * mp.log(2)) / mp.log(1 - p_mp)
        out["compare_45"] = None
        out["compare_46"] = out["expurgation_cor44"] < out["shangguan_42"]
    else:
        out["shangguan_42"] = None
        out["compare_45"] = out["expurgation_cor44"] < out["stinson_41"]
        out["compare_46"] = None
    return out


def report_problems(q: int, k: int, n: int, entries: dict, rel_tol: float) -> list[str]:
    """Compare one bound report's entries with the re-derivations.

    `rel_tol` is 1e-9 for in-process floats and 1e-5 for the six
    significant digits that `BoundReport.serialize` prints.
    """
    out = []
    if set(entries) != REPORT_KEYS:
        return [f"({q},{k},{n}) report keys {sorted(entries)}"]
    exp = expected_report(q, k, n)
    w, lam = lll_chain(k, n)
    if not lll_length_minimal(q, n, w, lam, entries["lll_lambda_length"]):
        out.append(f"({q},{k},{n}) lll_lambda_length {entries['lll_lambda_length']} is not the least admissible t")
    if not expurgation_length_minimal(q, k, n, entries["expurgation_43"]):
        out.append(f"({q},{k},{n}) expurgation_43 {entries['expurgation_43']} is not the least t")
    for key, want in exp.items():
        got = entries[key]
        if want is None or isinstance(want, (bool, int)):
            if key.startswith("compare") and want is not None and got is not None:
                a, b = exp["expurgation_cor44"], exp["stinson_41" if key == "compare_45" else "shangguan_42"]
                if abs(a - b) <= 1e-9 * abs(b):
                    continue  # too close to call at double precision
            if got != want:
                out.append(f"({q},{k},{n}) {key} = {got}, expected {want}")
        elif got is None or abs(got - want) > rel_tol * abs(want):
            out.append(f"({q},{k},{n}) {key} = {got}, expected {mpmath.nstr(want, 12)}")
    return out


def parse_report_text(text: str) -> dict:
    """Parse one `BoundReport.serialize` block into (q, k, n, entries)."""
    vals = {}
    for line in text.strip().split("\n"):
        key, value = line.split(" ", 1)
        if value == "inapplicable":
            vals[key] = None
        elif value in ("true", "false"):
            vals[key] = value == "true"
        elif key in ("q", "k", "n", "lll_lambda_length", "expurgation_43", "fp_upper_diag", "fp_lower_shann"):
            vals[key] = int(value)
        else:
            vals[key] = float(value)
    q, k, n = vals.pop("q"), vals.pop("k"), vals.pop("n")
    return q, k, n, vals
