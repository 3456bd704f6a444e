"""Workload construct-large: builders at n=1000, O(n^2) checks, text I/O.

Three local-lemma builds (two at the derived parameters, where the
resampling loop barely runs, and one hand-built w=1, lam=0 build over
q=256 that makes tens of resampling events), one diagonal code of 4 MB as
text, and for each code: the `is_lambda_matrix` certificate (builder codes),
a write/read round trip, `guarantee_check` on random active sets, a
selectivity oracle on the first 60 columns, the bound report at the build's
parameters, and `fpcodes construct` through the CLI three times.  The
coalition oracles do almost no work here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from fpcodes import conflict, core, diagonal, lll, verify
from fpcodes._util import substream
from fpcodes.expurgate import expurgation_length

import checks
import harness

N = 1000            # columns of each local-lemma build
DIAG = (3, 2000)    # (q, n) of the diagonal code: 1000 x 2000, 4 MB as text
TRIALS = 1000       # random active sets per guarantee_check
SUB = 60            # columns handed to the selectivity oracle
SUB_K = 3
BUILD_REPEATS = 2   # a build takes 0.15-0.3 s, and one such call jitters by a tenth


def _event_params(seed: int) -> lll.ConstructionParams:
    # w=1, lam=0: every pair sharing its one nonzero (row, symbol) is violated,
    # so the loop resamples tens of times where the derived chain does not
    t = lll.derive_length(0, 1, N, 256)
    return lll.ConstructionParams(k=2, q=256, n=N, w=1, lam=0, t=t, seed=seed)


def builds(ctx_seed):
    """(name, span, function, args, selectivity k) of each build, in round order."""
    return [
        ("ss", "lll.build_strongly_selective", lll.build_strongly_selective, (3, 3, N, ctx_seed(0)), 3),
        ("fp", "lll.build_frameproof", lll.build_frameproof, (3, 4, N, ctx_seed(1)), 4),
        ("events", "lll.build_lambda_matrix", lll.build_lambda_matrix, (_event_params(ctx_seed(2)),), 4),
        ("diagonal", "diagonal.build_diagonal", diagonal.build_diagonal, DIAG, 3),
    ]


def _unpack(name, result):
    """(code, params, log) from any builder's return value."""
    if name == "diagonal":
        return result, None, None
    if name == "events":
        code, log = result
        return code, None, log
    return result


def codes(seed: int) -> dict:
    """write_code bytes of every code this workload builds at `seed`."""
    out = {}
    for name, _, fn, args, _ in builds(lambda i: 1000 * seed + i):
        out[name] = core.write_code(_unpack(name, fn(*args))[0])
    return out


def prepare(ctx) -> dict:
    return {"builds": builds(ctx.program_seed), "event_params": _event_params(ctx.program_seed(2)),
            "hashes": {}}


def run_round(ctx, state) -> dict:
    r, tr = ctx.runner, ctx.tracer
    out = {"codes": {}, "params": {}, "logs": {}, "lambda": {}, "guarantee": {},
           "oracle": {}, "reports": {}}
    for name, span, fn, args, _ in state["builds"]:
        code, params, log = _unpack(name, r.call(f"build {name}", "construct", span, fn, *args,
                                                 repeats=BUILD_REPEATS))
        # columns drawn: the initial n, and two more per resampling event
        r.credit(f"build {name}", code.n + (2 * log.total_resamples if log else 0))
        out["codes"][name], out["params"][name], out["logs"][name] = code, params, log
        if log is not None:
            tr.count("lll.resamples", BUILD_REPEATS * log.total_resamples)
            tr.count("lll.initial_violated", BUILD_REPEATS * log.history[0][1])
            tr.count("lll.pairs", BUILD_REPEATS * math.comb(code.n, 2))

    for name, code in out["codes"].items():
        if name == "diagonal":
            continue
        w, lam = (1, 0) if name == "events" else (out["params"][name].w, out["params"][name].lam)
        key = f"lambda {name}"
        out["lambda"][name] = r.call(key, "pairs", "verify.is_lambda_matrix", verify.is_lambda_matrix, code, lam, w)
        r.credit(key, math.comb(code.n, 2))

    out["io"] = harness.round_trip(ctx, out["codes"], state["hashes"])

    for i, (name, _, _, _, k) in enumerate(state["builds"]):
        key = f"guarantee {name}"
        out["guarantee"][name] = r.call(key, "sets", "conflict.guarantee_check", conflict.guarantee_check,
                                        out["codes"][name], k, TRIALS, ctx.program_seed(10 + i))
        r.credit(key, TRIALS)
        tr.count("conflict.active_sets", TRIALS)

    for name, code in out["codes"].items():
        sub = core.CodeMatrix(code.q, code.entries[:, :SUB])
        key = f"oracle {name}"
        rep = r.call(key, "coalitions", "verify.is_strongly_selective", verify.is_strongly_selective, sub, SUB_K)
        out["oracle"][name] = rep
        count = checks.selective_coalitions(SUB, SUB_K, rep.witness.coalition if rep.witness else None)
        r.credit(key, count)
        tr.count("verify.coalitions", count)

    for name, _, _, args, k in state["builds"][:2]:
        out["reports"][name] = harness.bound_report(ctx, f"report {name}", args[1], k, N)

    path = ctx.path("ss.txt")
    _, _, _, args, _ = state["builds"][0]
    out["cli"] = []
    for i in range(harness.CLI_REPEATS):
        proc = r.call(f"cli construct {i}", "cli", "cli.construct", ctx.cli,
                      ["construct", "lll-ss", "--k", "3", "--q", "3", "--n", str(N),
                       "--seed", str(args[3]), "--out", path])
        written = sidecar = None
        if proc.returncode == 0:
            with open(path, "rb") as fh:
                written = fh.read()
            with open(path + ".run.json") as fh:
                sidecar = json.load(fh)
        out["cli"].append((proc, written, sidecar))
    return out


def replay(ctx, state, out) -> None:
    """Traced-only: the initial draw through `sample_column`, and the
    exact length searches behind the bound reports."""
    tr = ctx.tracer
    for name in ("ss", "fp", "events"):
        code = out["codes"][name]
        p = out["params"][name] or state["event_params"]
        with tr.span("lll.sample_column"):
            cols = [lll.sample_column(p.t, p.w, p.q, substream(p.seed, "col", j)) for j in range(p.n)]
        drawn = np.stack(cols, axis=1)
        changed = int(np.count_nonzero(np.any(drawn != code.entries, axis=0)))
        ctx.runner.check(changed <= 2 * out["logs"][name].total_resamples,
                         f"{name}: {changed} columns differ from the initial draw, "
                         f"more than two per resampling event")
    for _, _, _, args, k in state["builds"][:2]:
        with tr.span("expurgate.expurgation_length"):
            expurgation_length(args[1], k, N)


def check(ctx, state, out) -> list[str]:
    problems = []
    for name, _, _, args, k in state["builds"]:
        code = out["codes"][name]
        e = code.entries
        if name == "diagonal":
            problems += [f"diagonal: {p}" for p in checks.diagonal_problems(e, *DIAG)]
        else:
            if name == "events":
                p = state["event_params"]
                w, lam, q = 1, 0, 256
            else:
                p = out["params"][name]
                q = args[1]
                w, lam = checks.lll_chain(k, N)
                if (w, lam) != (p.w, p.lam):
                    problems.append(f"{name}: derived (w, lam) = ({p.w}, {p.lam}), expected ({w}, {lam})")
            if code.t != p.t or not checks.lll_length_minimal(q, N, w, lam, code.t):
                problems.append(f"{name}: t={code.t} is not the least length meeting the local-lemma condition")
            problems += [f"{name}: {x}" for x in checks.lambda_code_problems(e, q, w, lam)]
            if checks.selectivity_from_lambda(w, lam) < k:
                problems.append(f"{name}: lam={lam}, w={w} does not force {k}-selectivity")
            if not out["lambda"][name].passed:
                problems.append(f"{name}: is_lambda_matrix refused a code whose agreement matrix is within lam")
        data, back = out["io"][name]
        problems += [f"{name}: {x}" for x in checks.round_trip_problems(code.q, e, data, back.q, back.entries)]
        if out["guarantee"][name] is not True:
            problems.append(f"{name}: guarantee_check failed on a {k}-selective code")
        if not out["oracle"][name].passed:
            problems.append(f"{name}: selectivity oracle failed on the first {SUB} columns of a selective code")
    for name, _, _, args, k in state["builds"][:2]:
        rep = out["reports"][name]
        problems += checks.report_problems(args[1], k, N, rep.entries, 1e-9)
        if rep.entries["lll_lambda_length"] != out["codes"][name].t:
            problems.append(f"{name}: bound report length differs from the built length")
    p, log = out["params"]["ss"], out["logs"]["ss"]
    for proc, written, side in out["cli"]:
        if proc.returncode != 0:
            problems.append(f"cli construct exited {proc.returncode}: {proc.stderr.strip()}")
        elif written != out["io"]["ss"][0]:
            problems.append("cli construct wrote a different code than the library builds")
        elif (side.get("t"), side.get("w"), side.get("lam"), side.get("resamples")) != \
                (p.t, p.w, p.lam, log.total_resamples):
            problems.append(f"cli sidecar disagrees with the build: {side}")
    return problems
