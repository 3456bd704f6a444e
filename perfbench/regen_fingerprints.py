#!/usr/bin/env python3
"""Rebuild perfbench/fingerprints.json: sha256 of every code each workload
builds, for seeds 0..SEEDS-1, by direct library calls.

    python3 perfbench/regen_fingerprints.py

Run from the root of a checkout.  Regenerate only when a change is meant to
alter codes at a fixed seed, and say so in CHANGES.md.
"""

import hashlib
import importlib
import json
import os
import sys

import harness

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 32


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workloads = {}
    for name, module_name in harness.WORKLOADS.items():
        module = importlib.import_module(module_name)
        workloads[name] = {
            str(seed): {code: hashlib.sha256(data).hexdigest() for code, data in module.codes(seed).items()}
            for seed in range(SEEDS)
        }
        print(f"{name}: {SEEDS} seeds", file=sys.stderr)
    with open(os.path.join(HERE, "fingerprints.json"), "w") as fh:
        json.dump({"workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
