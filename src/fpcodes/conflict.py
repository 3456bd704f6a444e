"""Conflict-resolution reading of a code: slotted transmission schedules.

Column j is the schedule of station j: in slot i it stays silent when
M[i][j] = 0 and transmits on channel M[i][j] in {1, ..., q-1} otherwise.
A transmission succeeds iff no other active station uses the same channel
in the same slot (pure collision channel: no capture, no noise).  A
k-strongly-selective schedule guarantees every station in any active set
of size <= k gets at least one successful slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._util import substream
from .core import CodeMatrix, ParameterError, column_weight
from .verify import is_strongly_selective


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


def simulate(matrix: CodeMatrix, active) -> ScheduleOutcome:
    """Run the schedule for one active set; deterministic.

    An empty active set yields an empty outcome.
    """
    stations = sorted(set(active))
    for s in stations:
        if not 0 <= s < matrix.n:
            raise ParameterError(f"station {s} out of range [0, {matrix.n})")
    entries = matrix.entries
    success = {s: None for s in stations}
    for i in range(matrix.t):
        users: dict[int, list[int]] = {}
        for s in stations:
            sym = int(entries[i, s])
            if sym:
                users.setdefault(sym, []).append(s)
        for txs in users.values():
            if len(txs) == 1 and success[txs[0]] is None:
                success[txs[0]] = i
    attempts = {s: column_weight(matrix, s) for s in stations}
    return ScheduleOutcome(frozenset(stations), success, matrix.t, attempts)


def guarantee_check(matrix: CodeMatrix, k: int, trials: int, seed: int, verify: bool = False) -> bool:
    """Sample random active sets of size <= k; True iff all stations always succeed.

    With verify=True the selectivity oracle is run first and a failing
    matrix raises ParameterError; otherwise the precondition is trusted.
    Per-trial RNG streams are derived counter-style from the seed, so
    trials are order-independent and could run in parallel.
    """
    if k < 1 or k > matrix.n:
        raise ParameterError(f"need 1 <= k <= n={matrix.n}, got k={k}")
    if trials < 1:
        raise ParameterError(f"trials={trials} must be positive")
    if verify and not is_strongly_selective(matrix, k).passed:
        raise ParameterError(f"matrix is not {k}-strongly selective")
    for trial in range(trials):
        rng = substream(seed, "trial", trial)
        size = rng.randint(1, k)
        active = rng.sample(range(matrix.n), size)
        if not simulate(matrix, active).all_succeed:
            return False
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
    stations = sorted(set(active))
    for s in stations:
        if not 0 <= s < matrix.n:
            raise ParameterError(f"station {s} out of range [0, {matrix.n})")
    entries = matrix.entries
    lines = []
    for i in range(matrix.t):
        for channel in range(1, matrix.q):
            txs = [s for s in stations if int(entries[i, s]) == channel]
            if not txs:
                outcome = "idle"
            elif len(txs) == 1:
                outcome = "success"
            else:
                outcome = "collision"
            joined = ",".join(str(s) for s in txs) if txs else "-"
            lines.append(f"{i}\t{channel}\t{joined}\t{outcome}")
    return lines
