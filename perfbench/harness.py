"""Round runner and span tracer shared by the three workloads.

A workload runs the same list of operations once per round.  Every
operation is timed on its own; an end-to-end rate is the work of one round
divided by the sum, over its operations, of each operation's median time
across rounds.  A rate lets an operation that starts to run after a fix add
its work and its time without reading as a slowdown.

Every time is scaled to a reference machine speed.  On a shared 2-core
machine the same code runs up to half again slower for seconds to minutes
at a time, when a neighbour loads the physical core (a fixed pure-Python
loop took 0.10 s or 0.15 s; process CPU time slows the same way, so it is
no escape).  Between any two operations the benchmark times a fixed
pure-Python loop.  When the run ends, each operation's time is multiplied
by CALIBRATION_REF_S over the median of the CALIBRATION_WINDOW loops before
it and as many after it.  One loop alone jitters by a fifth, and the loops
right before and after an operation correlate only weakly, so the median
of a few nearby loops cancels the jitter.  A wider window follows the
slowdowns less closely; the README gives the comparison.  The loop is
benchmark code, so a change to fpcodes cannot move it.

Tracing records a span around each call the benchmark makes into a public
function of an fpcodes module.  Spans are kept in memory and written out
when the run ends.  With tracing off the same code runs with a tracer
that records nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

CALIBRATION_LOOPS = 30_000
# the calibration loop's usual time on the 2-core reference machine (Python
# 3.11.7); only the scale of the reported figures depends on it
CALIBRATION_REF_S = 0.0035
CALIBRATION_REUSE_S = 0.05  # a loop time this recent still describes the machine
CALIBRATION_WINDOW = 3

# calls repeated within one timed operation where one call is too short to
# time against the calibration loop: a bound report takes well under a
# millisecond, a small code's round trip or lambda check a few
REPORT_REPEATS = 500
SHORT_REPEATS = 10
# a CLI process is mostly interpreter start-up and jitters; the in-process
# workloads run their CLI command this many times per round
CLI_REPEATS = 3

# --workload name -> module in this directory
WORKLOADS = {"construct-large": "construct_large", "coalition-small": "coalition_small",
             "cli-tables": "cli_tables"}


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop of arithmetic, dict and list work.

    Of the loops tried, this mix tracked the slowdowns of the oracles and of
    `read_code` best: times scaled by it spread 7-17% over 90 s against
    21-55% unscaled, where an arithmetic-only loop left 11-27%.
    """
    start = time.perf_counter()
    acc, table, items = 0, {}, []
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
        table[i & 255] = i
        items.append(i)
    sorted(items[::-1])
    return time.perf_counter() - start


# end-to-end metric each timed operation feeds; "cli" is a total time, the
# rest are rates (work units per second)
RATE_METRICS = {
    "construct": "construct_columns_per_s",
    "coalitions": "verify_coalitions_per_s",
    "pairs": "verify_pairs_per_s",
    "sets": "simulate_sets_per_s",
    "io": "io_mb_per_s",
    "reports": "bounds_reports_per_s",
}

# per-layer metric -> span names whose durations it sums (time metrics) or
# counter names it sums (count metrics)
LAYER_TIMES = {
    "lll.build_s": ("lll.build_strongly_selective", "lll.build_frameproof", "lll.build_lambda_matrix"),
    "lll.sample_s": ("lll.sample_column",),
    "verify.lambda_s": ("verify.is_lambda_matrix",),
    "verify.frameproof_s": ("verify.is_frameproof",),
    "verify.selective_s": ("verify.is_strongly_selective",),
    "verify.reduction_s": ("verify.check_reduction_fp_to_ss", "verify.check_binary_expansion"),
    "expurgate.run_s": ("expurgate.expurgate_run",),
    "expurgate.draw_s": ("expurgate.draw_matrix",),
    "expurgate.enumerate_s": ("expurgate.enumerate_bad_events",),
    "conflict.exhaustive_s": ("conflict.exhaustive_guarantee",),
    "conflict.guarantee_s": ("conflict.guarantee_check",),
    "core.write_code_s": ("core.write_code",),
    "core.read_code_s": ("core.read_code",),
    "core.transform_s": ("core.complement", "core.stack_rows", "core.binary_expand"),
    "diagonal.build_s": ("diagonal.build_diagonal",),
    "bounds.report_s": ("bounds.bound_report", "bounds.tables_process"),
    "bounds.expurgation_length_s": ("expurgate.expurgation_length",),
    "cli.startup_s": ("cli.help",),
    "cli.construct_s": ("cli.construct",),
    "cli.verify_s": ("cli.verify",),
    "cli.simulate_s": ("cli.simulate",),
    "cli.bounds_s": ("cli.bounds",),
    "cli.bench_s": ("cli.bench",),
}
LAYER_COUNTS = (
    "lll.resamples",
    "lll.initial_violated",
    "lll.pairs",
    "verify.coalitions",
    "verify.refused",
    "expurgate.attempts",
    "expurgate.bad_events",
    "expurgate.coalitions",
    "conflict.active_sets",
    "core.code_bytes",
    "bounds.reports",
)
LAYER_UNITS = {name: "s" for name in LAYER_TIMES}
LAYER_UNITS.update({name: "count" for name in LAYER_COUNTS})
LAYER_UNITS["core.code_bytes"] = "bytes"
LAYER_UNITS["trace.overhead_pct"] = "%"


class Tracer:
    """In-memory span and counter store; `enabled` switches recording."""

    def __init__(self):
        self.enabled = False
        self.round = None
        self.spans = []
        self.counters = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id so children can point at it
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = {"id": span_id, "parent": parent, "round": self.round,
                                   "name": name, "start": start, "end": end}

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counters.append({"round": self.round, "name": name, "value": int(value)})

    def layer_metrics(self, rounds) -> dict:
        """Per-layer figures: medians of per-round sums over the traced rounds.

        Span times are as measured, not scaled to the reference speed.

        Replays (round "replay") run once per run and are added to every
        traced round's sum for their span names.
        """
        replay_times: dict = {}
        for s in self.spans:
            if s["round"] == "replay":
                replay_times[s["name"]] = replay_times.get(s["name"], 0.0) + s["end"] - s["start"]
        out = {}
        for metric, names in LAYER_TIMES.items():
            per_round = []
            for r in rounds:
                total = sum(s["end"] - s["start"] for s in self.spans
                            if s["round"] == r and s["name"] in names)
                per_round.append(total + sum(replay_times.get(n, 0.0) for n in names))
            out[metric] = statistics.median(per_round)
        for metric in LAYER_COUNTS:
            per_round = [sum(c["value"] for c in self.counters
                             if c["name"] == metric and c["round"] in (r, "replay"))
                         for r in rounds]
            out[metric] = max(per_round)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
            fh.write("\n")


class Refused(Exception):
    """Marks an operation the program refused; carries the original error."""

    def __init__(self, error: BaseException):
        super().__init__(str(error))
        self.error = error


class Runner:
    """Times operations round by round and turns them into metrics.

    An operation's `kinds` name the end-to-end metrics it feeds: a key of
    RATE_METRICS, "cli" for the CLI total, or nothing (counted as attempted
    and traced, but in no end-to-end figure).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.round = 0
        self.times: dict = {}    # key -> {round: seconds as measured}
        self.marks: dict = {}    # key -> {round: index in `loops` of the loop just before it}
        self.kinds: dict = {}    # key -> tuple of kinds
        self.work: dict = {}     # key -> [work per round]
        self.loops: list = []    # calibration loop times, in the order taken
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._loop_end = None

    def calibrate(self) -> int:
        """Index of a calibration loop taken just now; the last one is reused
        if it ended moments ago, so one loop sits between two operations."""
        if self._loop_end is None or time.perf_counter() - self._loop_end > CALIBRATION_REUSE_S:
            self.loops.append(calibration_seconds())
            self._loop_end = time.perf_counter()
        return len(self.loops) - 1

    def call(self, key: str, kinds, span: str, fn, *args, refusals=(), repeats=1, **kwargs):
        """Run fn(*args) `repeats` times as one timed operation, recorded as
        the time of one call; returns the last result.  A refusal counts
        as failed."""
        self.attempted += 1
        mark = self.calibrate()
        start = time.perf_counter()
        try:
            for _ in range(repeats):
                with self.tracer.span(span):
                    result = fn(*args, **kwargs)
        except refusals as exc:
            self.failed += 1
            return Refused(exc)
        self.record(key, kinds, (time.perf_counter() - start) / repeats, mark)
        return result

    def scale(self, seconds: float, mark: int) -> float:
        """`seconds`, measured right after loop `mark`, at the reference
        speed; call once the run's loops are all taken."""
        window = self.loops[max(0, mark + 1 - CALIBRATION_WINDOW):mark + 1 + CALIBRATION_WINDOW]
        return seconds * CALIBRATION_REF_S / statistics.median(window)

    def record(self, key: str, kinds, seconds: float, mark: int | None = None) -> None:
        """Time one operation took this round, however it was measured, and
        the loop taken just before it (by default the last one taken)."""
        self.times.setdefault(key, {})[self.round] = seconds
        self.marks.setdefault(key, {})[self.round] = len(self.loops) - 1 if mark is None else mark
        self.kinds[key] = (kinds,) if isinstance(kinds, str) else tuple(kinds)

    def scaled_times(self) -> dict:
        """key -> {round: seconds at the reference speed}."""
        return {key: {r: self.scale(t, self.marks[key][r]) for r, t in by_round.items()}
                for key, by_round in self.times.items()}

    def credit(self, key: str, amount) -> None:
        """Work the operation `key` did this round, in its rate's unit."""
        self.work.setdefault(key, []).append(amount)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def median_times(self, rounds) -> dict:
        """Each operation's median time over `rounds`, at the reference speed."""
        out = {}
        for key, by_round in self.scaled_times().items():
            values = [by_round[r] for r in rounds if r in by_round]
            if values:
                out[key] = statistics.median(values)
        return out

    def check_work(self) -> None:
        for key, amounts in self.work.items():
            self.check(len(set(amounts)) == 1, f"{key}: work differs between rounds: {amounts}")

    def end_to_end(self, rounds) -> dict:
        """Rates and the CLI total from per-operation median times over `rounds`."""
        med = self.median_times(rounds)
        out = {}
        for kind, metric in RATE_METRICS.items():
            keys = [k for k in med if kind in self.kinds[k]]
            seconds = sum(med[k] for k in keys)
            work = sum(self.work[k][0] for k in keys if k in self.work)  # a crashed command credits none
            if kind == "io":
                work /= 1e6
            out[metric] = work / seconds if seconds > 0 else 0.0
        out["cli_total_s"] = sum(med[k] for k in med if "cli" in self.kinds[k])
        return out


class Context:
    """What a workload needs: its seed, the runner, and a scratch directory."""

    def __init__(self, root: str, seed: int, workdir: str, runner: Runner):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.runner = runner
        self.tracer = runner.tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    def program_seed(self, index: int) -> int:
        """Seed handed to construction `index`.

        Spaced 1000 apart per workload seed: `expurgate.draw_matrix` seeds
        attempt a of seed s with s + a, so nearby seeds would share draws.
        """
        return 1000 * self.seed + index

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def python(self, args, timeout: float = 150.0) -> subprocess.CompletedProcess:
        """Run the interpreter on `args` from the checkout root, waiting for it."""
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)

    def cli(self, args) -> subprocess.CompletedProcess:
        return self.python(["-m", "fpcodes.cli", *args])


def round_trip(ctx, codes: dict, hashes: dict, repeats: int = 1) -> dict:
    """Write every code to text and read it back, each call (`repeats`
    times) one timed "io" operation.  Returns name -> (text, parsed code)
    and adds the sha256 of each text to `hashes[name]`."""
    from fpcodes import core  # this module loads before src/ is on the path
    r = ctx.runner
    out = {}
    for name, code in codes.items():
        data = r.call(f"write {name}", "io", "core.write_code", core.write_code, code, repeats=repeats)
        back = r.call(f"read {name}", "io", "core.read_code", core.read_code, data, repeats=repeats)
        r.credit(f"write {name}", len(data))
        r.credit(f"read {name}", len(data))
        ctx.tracer.count("core.code_bytes", 2 * len(data) * repeats)
        out[name] = (data, back)
        hashes.setdefault(name, set()).add(hashlib.sha256(data).hexdigest())
    return out


def bound_report(ctx, key: str, q: int, k: int, n: int):
    """`bound_report(q, k, n)`, REPORT_REPEATS times, as one timed
    "reports" operation."""
    from fpcodes import bounds  # this module loads before src/ is on the path
    report = ctx.runner.call(key, "reports", "bounds.bound_report", bounds.bound_report, q, k, n,
                             repeats=REPORT_REPEATS)
    ctx.runner.credit(key, 1)
    ctx.tracer.count("bounds.reports", REPORT_REPEATS)
    return report
