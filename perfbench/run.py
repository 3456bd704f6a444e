#!/usr/bin/env python3
"""fpcodes benchmark: one workload, one process, one call at a time.

    python3 perfbench/run.py --workload construct-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
Rounds of the workload's fixed operation list repeat until about
`--seconds` have passed (at least three rounds).  With `--trace 0` the last
line of standard output is a JSON object with every end-to-end metric;
with `--trace 1` rounds alternate between tracing on and off, and the
object holds every per-layer metric plus the tracing overhead.  A run
record (versions, nproc, git sha, source lines, seed, fingerprints) is
printed on the line before it and written, with the spans, under
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# import probes before the first round (after one warm-up) and after each
# round, so the median of setup_s spans the whole run
SETUP_FIRST, SETUP_PER_ROUND = 3, 2
MIN_ROUNDS = 3

SETUP_PROBE = "import time; t = time.perf_counter(); import fpcodes; print(time.perf_counter() - t)"


def _missing_program() -> str | None:
    for rel in ("src/fpcodes/__init__.py", "scripts/bound_tables.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return rel
    return None


def _setup_seconds(runner, env, repeats: int) -> list[tuple[float, int]]:
    """Times of `import fpcodes`, each in a fresh interpreter, with the
    calibration loop taken just before each."""
    times = []
    for _ in range(repeats):
        mark = runner.calibrate()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append((float(proc.stdout), mark))
    return times


def _source_lines() -> int:
    pkg = os.path.join(SRC, "fpcodes")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _fingerprint_status(workload: str, seed: int, found: dict) -> dict:
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        recorded = json.load(fh)
    want = recorded.get("workloads", {}).get(workload, {}).get(str(seed))
    if want is None:
        return {"status": "unrecorded seed", "sha256": found}
    changed = sorted(name for name in found if want.get(name) != found[name])
    return {"status": "changed: " + ",".join(changed) if changed else "match", "sha256": found}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one core for the benchmark and every process it starts, so that the
    # calibration loop measures the core the timed work runs on.  Pinned
    # before numpy loads, so that its BLAS pool is sized to that one core
    # rather than running two threads on it.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    missing = _missing_program()
    if missing:
        print(f"error: {missing} not found under {ROOT}; run from the root of an fpcodes checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    module = importlib.import_module(harness.WORKLOADS[args.workload])
    import fpcodes
    if not os.path.abspath(fpcodes.__file__).startswith(SRC + os.sep):
        print(f"error: imported fpcodes from {fpcodes.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = harness.Tracer()
        runner = harness.Runner(tracer)
        ctx = harness.Context(ROOT, args.seed, workdir, runner)
        _setup_seconds(runner, ctx.env, 1)
        setup = _setup_seconds(runner, ctx.env, SETUP_FIRST)
        state = module.prepare(ctx)

        problems = []
        traced, untraced = [], []
        measured = checking = 0.0
        while True:
            runner.round = tracer.round = len(traced) + len(untraced)
            tracer.enabled = bool(args.trace) and runner.round % 2 == 1
            (traced if tracer.enabled else untraced).append(runner.round)
            start = time.perf_counter()
            out = module.run_round(ctx, state)
            measured += time.perf_counter() - start
            tracer.enabled = False
            # every round's outputs are checked, then dropped, so that a
            # wrong answer in any round shows and no round's data is held
            # into the next
            start = time.perf_counter()
            problems += [p for p in module.check(ctx, state, out) if p not in problems]
            checking += time.perf_counter() - start
            done = runner.round + 1
            setup += _setup_seconds(runner, ctx.env, SETUP_PER_ROUND)
            if done >= MIN_ROUNDS and measured + 0.5 * measured / done >= args.seconds:
                break
            out = None
        runner.calibrate()  # the loop after the last operation
        peak_rss_mb = _peak_rss_mb()
        setup_s = [runner.scale(seconds, mark) for seconds, mark in setup]
        if args.trace:
            tracer.round, tracer.enabled = "replay", True
            module.replay(ctx, state, out)
            tracer.enabled = False
        out = None

        runner.check_work()
        problems += runner.problems
        # state["hashes"]: code name -> sha256 of its text in every round
        problems += [f"{name}: code differs between rounds at a fixed seed"
                     for name, found in state["hashes"].items() if len(found) != 1]
        hashes = {name: min(found) for name, found in state["hashes"].items()}
        if args.trace:
            metrics = tracer.layer_metrics(traced)
            on = runner.median_times(traced)
            off = runner.median_times(untraced)
            common = [k for k in on if k in off]
            base = sum(off[k] for k in common)
            metrics["trace.overhead_pct"] = 100.0 * (sum(on[k] for k in common) - base) / base
            units = harness.LAYER_UNITS
        else:
            metrics = runner.end_to_end(untraced)
            metrics["setup_s"] = statistics.median(setup_s)
            metrics["peak_rss_mb"] = peak_rss_mb
            units = E2E_UNITS
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "rounds": done, "measured_s": measured, "check_s": checking,
            "python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "cores_used": 1,
            "git_sha": _git_sha(), "source_lines": _source_lines(),
            "fingerprints": _fingerprint_status(args.workload, args.seed, hashes),
            "problems": problems,
            "op_seconds": {key: [by_round[r] for r in sorted(by_round)]
                           for key, by_round in runner.scaled_times().items()},
            "setup_seconds": setup_s,
            # as measured, for re-analysis: times, the loop before each, and every loop
            "op_raw": {key: [[by_round[r], runner.marks[key][r]] for r in sorted(by_round)]
                       for key, by_round in runner.times.items()},
            "setup_raw": setup,
            "calibration_s": runner.loops,
        }
        if args.trace:
            record["tracing_overhead_pct"] = metrics["trace.overhead_pct"]
            tracer.dump(os.path.join(OUT_DIR, f"{tag}-spans.json"))
        with open(os.path.join(OUT_DIR, f"{tag}-record.json"), "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    brief = {k: v for k, v in record.items()
             if k not in ("op_seconds", "setup_seconds", "op_raw", "setup_raw", "calibration_s")}
    print("run record " + json.dumps(brief, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


E2E_UNITS = {
    "setup_s": "s",
    "construct_columns_per_s": "columns/s",
    "verify_coalitions_per_s": "coalitions/s",
    "verify_pairs_per_s": "pairs/s",
    "simulate_sets_per_s": "sets/s",
    "io_mb_per_s": "MB/s",
    "bounds_reports_per_s": "reports/s",
    "cli_total_s": "s",
    "peak_rss_mb": "MB",
}

if __name__ == "__main__":
    sys.exit(main())
