#!/usr/bin/env python3
"""Record untraced perfbench runs of a checkout as BENCH_<label>.json.

    python3 scripts/bench_record.py --label main --seeds 1,2,3 --seconds 10
    python3 scripts/bench_record.py --label base --checkout ../base --seeds 1,2,3 --seconds 10

Runs `perfbench/run.py`, as it is in the checkout (this script's own by
default), once for each workload its `BENCHMARK.json` lists and each seed,
one run at a time and with `--trace 0`.  The file, written to the root of
this script's checkout, holds the checkout's commit and tree shas, whether
its tracked files differed from that commit, and, for every run, its
`run record` line and its result line, as perfbench printed them.  The
tree sha still names what was measured when the commit is later rewritten.
Compare two such files only when they come from the same seeds, seconds
and machine.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HOME = Path(__file__).resolve().parents[1]
RECORD_PREFIX = "run record "


def int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def git(checkout, *args):
    """The stripped output of `git <args>` in the checkout, or None when git fails."""
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def perfbench_run(checkout, workload, seed, seconds):
    """(record, result) of one untraced run, read from its last two lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(RECORD_PREFIX):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2][len(RECORD_PREFIX):]), json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--checkout", type=Path, default=HOME, help="the checkout to run (default: this one)")
    ap.add_argument("--seeds", type=int_list, default=[1])
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    workloads = [w["name"] for w in json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    head = {"git_sha": git(checkout, "rev-parse", "HEAD") or "unavailable",
            "tree_sha": git(checkout, "rev-parse", "HEAD^{tree}") or "unavailable",
            "dirty": None if status is None else bool(status)}
    runs = []
    for workload in workloads:
        for seed in args.seeds:
            record, result = perfbench_run(checkout, workload, seed, args.seconds)
            runs.append({"workload": workload, "seed": seed, "record": record, "result": result})
            print(f"{workload} seed {seed}: correct {result['correct']}", file=sys.stderr)
    bench = {"label": args.label, **head, "seeds": args.seeds, "seconds": args.seconds, "runs": runs}
    out = HOME / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
