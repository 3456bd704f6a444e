#!/usr/bin/env python3
"""Resampling statistics for the local-lemma construction.

Builds a strongly k-selective code for each seed in a range and reports the
distribution of resampling events next to the Moser-Tardos expectation
bound n(n-1)/(2(2n-4)).

    python3 scripts/resample_stats.py --k 3 --q 3 --n 50 --seeds 20
"""

import argparse
import sys
import time

import numpy as np

from fpcodes.lll import build_strongly_selective


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--seeds", type=int, default=20, help="use seeds 1..SEEDS")
    args = ap.parse_args(argv)

    counts = []
    start = time.perf_counter()
    params = None
    for seed in range(1, args.seeds + 1):
        _, params, log = build_strongly_selective(args.k, args.q, args.n, seed)
        counts.append(log.total_resamples)
    wall = time.perf_counter() - start

    counts = np.asarray(counts)
    n = args.n
    print(f"k={args.k} q={args.q} n={args.n}  (w={params.w} lam={params.lam} t={params.t})")
    print(f"seeds 1..{args.seeds}  wall {wall:.2f}s")
    print(
        f"resamples min={counts.min()} mean={counts.mean():.2f} "
        f"max={counts.max()}  expectation bound n(n-1)/(2(2n-4))={n * (n - 1) / (2 * (2 * n - 4)):.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
