"""Workload cli-tables: the command line as a user runs it, and one bound table.

A fixed sequence of `python -m fpcodes.cli` processes (construct with
--out, verify, simulate, bounds, a small bench grid, and --help for
interpreter start-up), then one `scripts/bound_tables.py` process over a
grid reaching q=256, k=8, n=10^6.  Interpreter start-up, argparse, text
I/O and the exact arithmetic of `expurgation_length` dominate; the
compute kernels do little.  The console script `fpcodes` need not be
installed: everything runs through the module with `src` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from fpcodes import core, diagonal, expurgate, lll, verify
from fpcodes.core import CodeMatrix

import checks

SS = (3, 3, 300)            # (k, q, n) of the lll-ss code
EX = (2, 3, 100)            # (k, q, n) of the expurgated code
DIAG = (3, 2000)            # (q, n): 1000 x 2000, 4 MB as text
IID = (2, 4, 40)            # (q, t, n) of the refuted code: 40 columns, 16 possible words
TRIALS = 500
BOUNDS = (3, 3, 1000)       # (q, k, n) of the `bounds` command
BENCH_GRID = "q=3;k=2;n=20,40"
TABLE_Q, TABLE_K, TABLE_N = (2, 256), (2, 8), (100, 1_000_000)


def codes(seed: int) -> dict:
    """write_code bytes of the codes the construct commands write at `seed`."""
    k, q, n = SS
    ss = lll.build_strongly_selective(k, q, n, 1000 * seed)[0]
    k, q, n = EX
    ex = expurgate.expurgate_run(q, k, n, 1000 * seed + 1)[0]
    return {"ss": core.write_code(ss), "ex": core.write_code(ex), "diagonal": core.write_code(diagonal.build_diagonal(*DIAG))}


def prepare(ctx) -> dict:
    q, t, n = IID
    rng = np.random.default_rng(ctx.program_seed(9))
    iid = CodeMatrix(q, rng.integers(0, q, size=(t, n)))
    with open(ctx.path("iid.txt"), "wb") as fh:
        fh.write(core.write_code(iid))
    active = sorted(int(x) for x in rng.choice(DIAG[1], size=4, replace=False))
    ss_w, ss_lam = checks.lll_chain(SS[0], SS[2])
    ss, ex, dg, iid_path = (ctx.path(x) for x in ("ss.txt", "ex.txt", "dg.txt", "iid.txt"))
    seed_ss, seed_ex = ctx.program_seed(0), ctx.program_seed(1)
    steps = [
        ("help", "cli.help", (), ["--help"]),
        ("construct ss", "cli.construct", ("io",), ["construct", "lll-ss", "--k", str(SS[0]), "--q", str(SS[1]),
                                               "--n", str(SS[2]), "--seed", str(seed_ss), "--out", ss]),
        ("construct ex", "cli.construct", ("io",), ["construct", "expurgate", "--k", str(EX[0]), "--q", str(EX[1]),
                                               "--n", str(EX[2]), "--seed", str(seed_ex), "--out", ex]),
        ("construct diagonal", "cli.construct", ("io",), ["construct", "diagonal", "--q", str(DIAG[0]),
                                                     "--n", str(DIAG[1]), "--out", dg]),
        ("verify lambda", "cli.verify", ("pairs",), ["verify", "--in", ss, "--property", "lambda",
                                                     "--lam", str(ss_lam), "--w", str(ss_w)]),
        ("verify fp", "cli.verify", ("coalitions",), ["verify", "--in", ex, "--property", "fp", "--k", str(EX[0])]),
        ("verify ss", "cli.verify", ("coalitions",), ["verify", "--in", ss, "--property", "ss", "--k", "2"]),
        ("verify refute", "cli.verify", ("coalitions",), ["verify", "--in", iid_path, "--property", "fp", "--k", "2"]),
        ("simulate trials", "cli.simulate", ("sets",), ["simulate", "--in", ss, "--k", str(SS[0]),
                                                        "--trials", str(TRIALS), "--seed", str(ctx.program_seed(2))]),
        ("simulate pairs", "cli.simulate", ("sets",), ["simulate", "--in", ss, "--k", "2",
                                                       "--trials", str(TRIALS), "--seed", str(ctx.program_seed(4))]),
        ("simulate trace", "cli.simulate", ("io",), ["simulate", "--in", dg, "--active",
                                                     ",".join(map(str, active)), "--trace"]),
        ("bounds", "cli.bounds", (), ["bounds", "--q", str(BOUNDS[0]), "--k", str(BOUNDS[1]), "--n", str(BOUNDS[2])]),
        ("bench", "cli.bench", (), ["bench", "--grid", BENCH_GRID, "--seed", str(ctx.program_seed(3))]),
    ]
    return {"steps": steps, "active": active, "iid": iid, "ss_chain": (ss_w, ss_lam),
            "paths": {"ss": ss, "ex": ex, "diagonal": dg}, "hashes": {}}


def _table_cells():
    return [(q, k, n) for q in TABLE_Q for k in TABLE_K for n in TABLE_N if n > k]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _verify_fields(stdout: str) -> dict:
    return dict(line.split(" ", 1) for line in stdout.strip().split("\n") if " " in line)


def _coalitions(key, proc) -> int:
    """Coalitions the verify command enumerated, from the closed forms."""
    fields = _verify_fields(proc.stdout)
    if key == "verify refute":
        group = tuple(int(x) for x in fields["witness_coalition"].split(","))
        return checks.frameproof_coalitions(IID[2], 2, (int(fields["witness_column"]), group))
    if key == "verify fp":
        return checks.frameproof_coalitions(EX[2], EX[0])
    return checks.selective_coalitions(SS[2], 2)


def run_round(ctx, state) -> dict:
    r, tr = ctx.runner, ctx.tracer
    out = {"procs": {}}
    for key, span, kinds, args in state["steps"]:
        proc = r.call(key, ("cli", *kinds), span, ctx.cli, args)
        out["procs"][key] = proc
        if proc.returncode not in (0, 1):
            continue  # reported by check(); no work to credit
        if "coalitions" in kinds:
            count = _coalitions(key, proc)
            r.credit(key, count)
            tr.count("verify.coalitions", count)
        elif "pairs" in kinds:
            r.credit(key, math.comb(SS[2], 2))
        elif "sets" in kinds:
            r.credit(key, TRIALS)
            tr.count("conflict.active_sets", TRIALS)
        elif key == "simulate trace":
            r.credit(key, len(_read(state["paths"]["diagonal"])))
        if span == "cli.construct":
            name = key.split(" ", 1)[1]
            path = state["paths"][name]
            data = _read(path)
            r.credit(key, len(data))
            with open(path + ".run.json") as fh:
                sidecar = json.load(fh)
            out[name] = (data, sidecar)
            state["hashes"].setdefault(name, set()).add(hashlib.sha256(data).hexdigest())
            tr.count("core.code_bytes", len(data))
            # the builder's own time, from the sidecar the CLI writes; an
            # expurgation counts as one attempt, as in coalition-small
            if name == "ex":
                attempts, drawn = sidecar["attempt"] + 1, sidecar["n"] + sidecar["ell"]
            else:
                attempts, drawn = 1, sidecar["n"] + 2 * sidecar.get("resamples", 0)
            r.record(f"builder {name}", "construct", sidecar["wall_time_s"] / attempts)
            r.credit(f"builder {name}", drawn)
            # so does the whole process: how many redraws a seed needs is
            # luck, and a third of seeds need one or more
            r.times[key][r.round] -= (attempts - 1) * r.times[f"builder {name}"][r.round]
    cells = _table_cells()
    args = ["scripts/bound_tables.py", "--q", ",".join(map(str, TABLE_Q)), "--k", ",".join(map(str, TABLE_K)),
            "--n", ",".join(map(str, TABLE_N))]
    out["tables"] = r.call("tables", "reports", "bounds.tables_process", ctx.python, args)
    r.credit("tables", len(cells))
    tr.count("bounds.reports", len(cells) + 1)
    return out


def replay(ctx, state, out) -> None:
    """Traced-only: the exact length search of every table cell, in process."""
    for q, k, n in _table_cells():
        with ctx.tracer.span("expurgate.expurgation_length"):
            expurgate.expurgation_length(q, k, n)


def _check_codes(out, state) -> list[str]:
    problems = []
    data, side = out["ss"]
    q, e = checks.parse_code_text(data)
    k, q_ss, n = SS
    w, lam = state["ss_chain"]
    if q != q_ss or e.shape[1] != n or (side.get("w"), side.get("lam"), side.get("t")) != (w, lam, e.shape[0]) \
            or not checks.lll_length_minimal(q, n, w, lam, e.shape[0]):
        problems.append(f"construct lll-ss: header or sidecar {side} disagrees with the derived chain")
    problems += [f"construct lll-ss: {x}" for x in checks.lambda_code_problems(e, q, w, lam)]
    data, side = out["ex"]
    q, e = checks.parse_code_text(data)
    k, q_ex, n = EX
    if q != q_ex or e.shape[1] != n or side.get("ell") != n // k or side.get("t") != e.shape[0] \
            or not checks.expurgation_length_minimal(q, k, n, e.shape[0]) \
            or not side.get("deleted_columns", -1) <= side.get("bad_events", -1) <= n // k:
        problems.append(f"construct expurgate: header or sidecar {side} is inconsistent")
    if checks.framing_events(e, k):
        problems.append(f"construct expurgate: the code is not {k}-frameproof")
    data, side = out["diagonal"]
    q, e = checks.parse_code_text(data)
    problems += [f"construct diagonal: {x}" for x in checks.diagonal_problems(e, *DIAG)]
    out["diagonal_entries"] = e
    return problems


def _check_trace(stdout: str, entries: np.ndarray, active) -> list[str]:
    lines = stdout.strip().split("\n")
    t, n = entries.shape
    q = DIAG[0]
    want = [f"stations {','.join(map(str, active))}", f"total_slots {t}"]
    for s in active:
        want.append(f"station {s} success_slot {int(np.flatnonzero(entries[:, s])[0])} attempts 1")
    for i in range(t):
        for channel in range(1, q):
            txs = [s for s in active if entries[i, s] == channel]
            outcome = "idle" if not txs else "success" if len(txs) == 1 else "collision"
            want.append(f"{i}\t{channel}\t{','.join(map(str, txs)) or '-'}\t{outcome}")
    return [] if lines == want else ["simulate --trace: output differs from the schedule recomputed here"]


def _check_bench(stdout: str) -> list[str]:
    problems = []
    lines = stdout.strip().split("\n")
    cells = [(3, 2, 20), (3, 2, 40)]
    if len(lines) != 1 + len(cells):
        return [f"bench: {len(lines)} lines"]
    for line, (q, k, n) in zip(lines[1:], cells):
        vals = line.split(" ")
        w, lam = checks.lll_chain(k + 1, n)
        exp = checks.expected_report(q, k, n)
        if [int(x) for x in vals[:3]] != [q, k, n] \
                or not checks.lll_length_minimal(q, n, w, lam, int(vals[3])) \
                or abs(float(vals[4]) - float(exp["fp_theorem38"])) > 1e-5 * float(exp["fp_theorem38"]) \
                or not checks.expurgation_length_minimal(q, k, n, int(vals[5])) \
                or int(vals[6]) != exp["fp_upper_diag"] or int(vals[7]) != exp["fp_lower_shann"]:
            problems.append(f"bench: row {line!r} disagrees with the re-derived values")
    return problems


def check(ctx, state, out) -> list[str]:
    procs = out["procs"]
    problems = []
    expect_rc = {key: 0 for key in procs}
    expect_rc["verify refute"] = 1
    for key, proc in procs.items():
        if proc.returncode != expect_rc[key]:
            problems.append(f"{key}: exit {proc.returncode}, expected {expect_rc[key]}: {proc.stderr.strip()[-300:]}")
    if out["tables"].returncode != 0:
        problems.append(f"bound_tables.py: exit {out['tables'].returncode}: {out['tables'].stderr.strip()[-300:]}")
    if problems:
        return problems
    if "construct" not in procs["help"].stdout:
        problems.append("--help does not list the construct command")
    problems += _check_codes(out, state)
    for key, want in (("verify lambda", "true"), ("verify fp", "true"), ("verify ss", "true"),
                      ("verify refute", "false")):
        if _verify_fields(procs[key].stdout).get("passed") != want:
            problems.append(f"{key}: passed is not {want}")
    fields = _verify_fields(procs["verify refute"].stdout)
    iid = state["iid"]
    group = [int(x) for x in fields.get("witness_coalition", "").split(",") if x]
    if not verify.coalition_covers(iid, int(fields.get("witness_column", 0)), group):
        problems.append(f"verify refute: witness {fields} does not frame its column")
    for key in ("simulate trials", "simulate pairs"):
        if procs[key].stdout.strip() != "guarantee true":
            problems.append(f"{key}: no guarantee on a 3-selective code")
    problems += _check_trace(procs["simulate trace"].stdout, out["diagonal_entries"], state["active"])
    q, k, n, entries = checks.parse_report_text(procs["bounds"].stdout)
    if (q, k, n) != BOUNDS:
        problems.append(f"bounds: reported ({q}, {k}, {n})")
    problems += checks.report_problems(q, k, n, entries, 1e-5)
    problems += _check_bench(procs["bench"].stdout)
    blocks = [b for b in out["tables"].stdout.split("\n\n") if b.strip()]
    cells = _table_cells()
    if len(blocks) != len(cells):
        problems.append(f"bound_tables.py printed {len(blocks)} reports for {len(cells)} cells")
    for block, cell in zip(blocks, cells):
        q, k, n, entries = checks.parse_report_text(block)
        if (q, k, n) != cell:
            problems.append(f"bound_tables.py: report for {(q, k, n)} where {cell} was due")
        problems += checks.report_problems(q, k, n, entries, 1e-5)
    return problems
