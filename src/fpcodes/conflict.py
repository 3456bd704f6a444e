"""Conflict-resolution reading of a code: slotted transmission schedules.

Column j is the schedule of station j: in slot i it stays silent when
M[i][j] = 0 and transmits on channel M[i][j] in {1, ..., q-1} otherwise.
A transmission succeeds iff no other active station uses the same channel
in the same slot (pure collision channel: no capture, no noise).  A
k-strongly-selective schedule guarantees every station in any active set
of size <= k gets at least one successful slot.

`simulate` runs the schedule for one active set and is the reference the
two checks are tested against.  `guarantee_check` tests sampled sets in
numpy batches, and `exhaustive_guarantee` is the selectivity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import substream
from .core import CodeMatrix, ParameterError, column_weight
from .verify import is_strongly_selective

GATHER_BLOCK = 1 << 18  # symbols gathered per batch of sampled active sets


@dataclass(frozen=True, eq=False)
class ScheduleOutcome:
    """Per-station success record for one active set.

    success_slot maps each active station to its first successful slot,
    or None when it never transmits alone.  attempts_per_station counts
    nonzero slots, which equals the column weight regardless of outcome.
    """

    active_set: frozenset[int]
    success_slot: dict
    total_slots: int
    attempts_per_station: dict

    @property
    def all_succeed(self) -> bool:
        return all(slot is not None for slot in self.success_slot.values())


def _stations(matrix: CodeMatrix, active) -> list[int]:
    stations = sorted(set(active))
    for s in stations:
        if not 0 <= s < matrix.n:
            raise ParameterError(f"station {s} out of range [0, {matrix.n})")
    return stations


def simulate(matrix: CodeMatrix, active) -> ScheduleOutcome:
    """Run the schedule for one active set; deterministic.

    An empty active set yields an empty outcome.
    """
    stations = _stations(matrix, active)
    success = {s: None for s in stations}
    for i, row in enumerate(matrix.entries[:, stations].tolist()):
        users: dict[int, list[int]] = {}
        for s, sym in zip(stations, row):
            if sym:
                users.setdefault(sym, []).append(s)
        for txs in users.values():
            if len(txs) == 1 and success[txs[0]] is None:
                success[txs[0]] = i
    attempts = {s: column_weight(matrix, s) for s in stations}
    return ScheduleOutcome(frozenset(stations), success, matrix.t, attempts)


def _sets_succeed(entries: np.ndarray, sets: np.ndarray) -> bool:
    """Does every station of every active set in `sets`, an (m, s) array
    of station indices, get a slot where it transmits alone?

    Member j of a set is alone in slot i when its symbol there is nonzero
    and differs from every other member's.  The sets' symbols are gathered
    in one rows x m x s block, which the caller keeps within GATHER_BLOCK
    symbols unless a single set's columns are longer, and tested one
    member position at a time.
    """
    g = entries[:, sets]
    for j in range(sets.shape[1]):
        alone = g[..., j] != 0
        for other in range(sets.shape[1]):
            if other != j:
                alone &= g[..., other] != g[..., j]
        if not alone.any(axis=0).all():
            return False
    return True


def guarantee_check(matrix: CodeMatrix, k: int, trials: int, seed: int) -> bool:
    """Sample random active sets of size <= k; True iff all stations always succeed.

    It reports what the sampled sets do and assumes nothing of the code;
    the exhaustive check is `verify.is_strongly_selective`, and a code that
    passes it makes every set of size <= k succeed.  Per-trial RNG streams
    are derived counter-style from the seed, so trials are
    order-independent and could run in parallel.  The sets are
    checked in batches (`_sets_succeed`), one chunk of trials at a time:
    chunks double from one trial up to GATHER_BLOCK gathered symbols, and
    the first chunk holding a failing set ends the check.  The verdict is
    that of running `simulate` on every set, its reference.
    """
    if k < 1 or k > matrix.n:
        raise ParameterError(f"need 1 <= k <= n={matrix.n}, got k={k}")
    if trials < 1:
        raise ParameterError(f"trials={trials} must be positive")
    widest = max(1, GATHER_BLOCK // max(1, matrix.t * k))
    start, chunk = 0, 1
    while start < trials:
        stop = min(start + chunk, trials)
        by_size: dict[int, list[list[int]]] = {}
        for trial in range(start, stop):
            rng = substream(seed, "trial", trial)
            size = rng.randint(1, k)
            by_size.setdefault(size, []).append(rng.sample(range(matrix.n), size))
        if not all(_sets_succeed(matrix.entries, np.array(sets)) for sets in by_size.values()):
            return False
        start, chunk = stop, min(2 * chunk, widest)
    return True


def exhaustive_guarantee(matrix: CodeMatrix, k: int):
    """Does every active set of size exactly k succeed?

    Returns (all_succeed, first_failing_set or None) with sets in
    lexicographic order; the exhaustive mirror of guarantee_check.  A set
    succeeds exactly when it passes the selectivity condition, so this is
    the selectivity oracle (and its capacity guard), with `simulate` the
    reference it is tested against.
    """
    report = is_strongly_selective(matrix, k)
    return report.passed, None if report.passed else report.witness.coalition


def trace_lines(matrix: CodeMatrix, active) -> list[str]:
    """Tab-separated slot/channel trace of one run.

    One line per (slot, channel) pair: slot, channel, the transmitting
    stations as a comma list (or -), and idle/success/collision.
    """
    stations = _stations(matrix, active)
    lines = []
    for i, row in enumerate(matrix.entries[:, stations].tolist()):
        for channel in range(1, matrix.q):
            txs = [s for s, sym in zip(stations, row) if sym == channel]
            if not txs:
                outcome = "idle"
            elif len(txs) == 1:
                outcome = "success"
            else:
                outcome = "collision"
            joined = ",".join(str(s) for s in txs) if txs else "-"
            lines.append(f"{i}\t{channel}\t{joined}\t{outcome}")
    return lines
