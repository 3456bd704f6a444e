"""Command line front end.

Subcommands: construct (lll-fp, lll-ss, expurgate, diagonal), verify,
bounds, simulate, bench.  Data goes to stdout or --out files, diagnostics
to stderr.  Exit codes: 0 success / property holds, 1 failed check,
2 parameter, capacity or format error, 3 construction failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

# neither loads numpy, so `bounds` and `--help` never do; each other command
# imports the numpy-backed modules it uses when it runs
from . import bounds as bounds_mod
from ._util import CapacityError, CodeFormatError, ConstructionError, ParameterError


def _emit(args, matrix, sidecar: dict) -> int:
    from .core import write_code

    data = write_code(matrix)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        with open(args.out + ".run.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {matrix.t}x{matrix.n} code (q={matrix.q}) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.flush()  # anything printed before goes out first
        sys.stdout.buffer.write(data)
    return 0


def cmd_construct(args) -> int:
    if args.kind != "diagonal" and args.k is None:
        raise ParameterError(f"construct {args.kind} requires --k")
    # before the timer, so that wall_time_s is the build's alone; hashlib is
    # the module `_util.substream` imports at its first call
    import hashlib  # noqa: F401
    from . import diagonal, expurgate, lll

    start = time.perf_counter()
    sidecar = {"subcommand": args.kind, "q": args.q, "n": args.n, "seed": args.seed}
    if args.kind == "diagonal":
        matrix = diagonal.build_diagonal(args.q, args.n)
    elif args.kind in ("lll-fp", "lll-ss"):
        builder = lll.build_frameproof if args.kind == "lll-fp" else lll.build_strongly_selective
        matrix, params, log = builder(args.k, args.q, args.n, args.seed)
        sidecar.update(k=args.k, w=params.w, lam=params.lam, resamples=log.total_resamples)
    else:
        matrix, params, info = expurgate.expurgate_run(args.q, args.k, args.n, args.seed)
        sidecar.update(k=args.k, ell=params.ell, **info)
    sidecar["t"] = matrix.t
    sidecar["wall_time_s"] = round(time.perf_counter() - start, 6)
    return _emit(args, matrix, sidecar)


def _print_report(report) -> None:
    print(f"property {report.property_name}")
    for key in sorted(report.parameters):
        print(f"{key} {report.parameters[key]}")
    print(f"passed {'true' if report.passed else 'false'}")
    if report.witness is not None:
        w = report.witness
        print(f"witness_column {w.column}")
        if w.coalition:
            print("witness_coalition " + ",".join(str(c) for c in w.coalition))
        if w.rows:
            print("witness_rows " + ",".join(str(r) for r in w.rows))


def _read_matrix(path: str):
    from .core import read_code

    with open(path, "rb") as fh:
        return read_code(fh.read())


def cmd_verify(args) -> int:
    from . import verify

    # flags first: a usage error is reported before the file is read
    if args.property in ("fp", "ss") and args.k is None:
        raise ParameterError(f"--property {args.property} requires --k")
    if args.property == "lambda" and (args.lam is None or args.w is None):
        raise ParameterError("--property lambda requires --lam and --w")
    matrix = _read_matrix(args.infile)
    if args.property == "fp":
        report = verify.is_frameproof(matrix, args.k)
    elif args.property == "ss":
        report = verify.is_strongly_selective(matrix, args.k)
    else:
        report = verify.is_lambda_matrix(matrix, args.lam, args.w)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.q, args.k, args.n)
    sys.stdout.write(report.serialize(ceil_reals=args.ceil))
    return 0


def cmd_simulate(args) -> int:
    from . import conflict

    # flags first: a usage error is reported before the file is read
    if args.active is not None:
        try:
            active = [int(tok) for tok in args.active.split(",") if tok != ""]
        except ValueError:
            raise ParameterError(f"bad --active list {args.active!r}") from None
    elif args.k is None:
        raise ParameterError("simulate needs --active or --k with --trials")
    elif args.trace:
        raise ParameterError("--trace requires --active")
    matrix = _read_matrix(args.infile)
    if args.active is not None:
        outcome = conflict.simulate(matrix, active)
        print("stations " + (",".join(str(s) for s in sorted(outcome.active_set)) or "-"))
        print(f"total_slots {outcome.total_slots}")
        for s in sorted(outcome.active_set):
            slot = outcome.success_slot[s]
            shown = "never" if slot is None else slot
            print(f"station {s} success_slot {shown} attempts {outcome.attempts_per_station[s]}")
        if args.trace:
            for line in conflict.trace_lines(matrix, active):
                print(line)
        return 0
    ok = conflict.guarantee_check(matrix, args.k, args.trials, args.seed)
    print(f"guarantee {'true' if ok else 'false'}")
    return 0 if ok else 1


def _parse_grid(text: str) -> dict:
    grid = {}
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        key, sep, vals = term.partition("=")
        key = key.strip()
        if not sep or not vals:
            raise ParameterError(f"bad grid term {term!r}, expected key=v1,v2,...")
        if key not in ("q", "k", "n", "seed"):
            raise ParameterError(f"unknown grid key {key!r}, expected q, k, n or seed")
        if key in grid:
            raise ParameterError(f"grid key {key!r} given twice")
        try:
            grid[key] = [int(v) for v in vals.split(",")]
        except ValueError:
            raise ParameterError(f"non-integer value in grid term {term!r}") from None
    return grid


def cmd_bench(args) -> int:
    from . import lll, verify

    grid = _parse_grid(args.grid)
    for key in ("q", "k", "n"):
        if key not in grid:
            raise ParameterError(f"bench grid must set {key}")
    seeds = grid.get("seed", [args.seed])
    cells = sorted(itertools.product(grid["q"], grid["k"], grid["n"], seeds))
    print("q k n t fp_theorem38 expurgation_43 fp_upper_diag fp_lower_shann")
    for q, k, n, seed in cells:
        matrix, _, _ = lll.build_frameproof(k, q, n, seed)
        if not verify.is_frameproof(matrix, k).passed:
            raise ConstructionError(f"bench cell q={q} k={k} n={n} seed={seed} failed verification")
        upper, lower = bounds_mod.fp_bounds_theorem310(q, k, n)
        if matrix.t < lower:
            raise ConstructionError(
                f"bench cell q={q} k={k} n={n}: constructed t={matrix.t} below lower bound {lower}"
            )
        row = (
            f"{q} {k} {n} {matrix.t} "
            f"{bounds_mod.fp_theorem38(q, k, n):.6g} "
            f"{bounds_mod.expurgation_length(q, k, n)} {upper} {lower}"
        )
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and write it in the text format")
    p.add_argument("kind", choices=["lll-fp", "lll-ss", "expurgate", "diagonal"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path; a .run.json sidecar is written next to it")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run an exhaustive property oracle on a code file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--property", choices=["fp", "ss", "lambda"], required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--lam", type=int)
    p.add_argument("--w", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="print the bound report for one (q, k, n)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ceil", action="store_true", help="ceiling reals at display time")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run the conflict-resolution schedule")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--active", help="comma-separated station list")
    p.add_argument("--k", type=int, help="guarantee mode: max active set size")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print per-slot channel trace (with --active)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="construct over a grid and tabulate against bounds")
    p.add_argument("--grid", required=True, help='e.g. "q=2,3;k=2,3;n=10,20"')
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, CapacityError, CodeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
