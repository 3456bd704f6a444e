"""Workload coalition-small: exhaustive oracles at n <= 100 and k up to 4.

Passing checks enumerate every coalition; refutations stop at a witness
planted at (or produced near) the end of the enumeration order, and one
short i.i.d. code fails at once.  Builders take milliseconds here, except
the three expurgation runs, whose bad-event enumeration is itself a
coalition scan.  The last oracle call, `is_strongly_selective(k=4)` on a
strongly 4-selective code at n=80, is refused by the capacity guard on
every run today and is counted as the one failed operation per round.
"""

from __future__ import annotations

import math

import numpy as np

from fpcodes import conflict, core, diagonal, expurgate, lll, verify
from fpcodes.core import CapacityError, CodeMatrix

import checks
import harness

EXPURGATIONS = ((3, 2, 100), (5, 3, 40), (2, 2, 60))   # (q, k, n)
SS60 = (4, 3, 60)       # (k, q, n): oracles at k=4 (selective) and k=3 (frameproof)
SS40 = (3, 3, 40)       # exhaustive_guarantee at k=3
SS80 = (4, 3, 80)       # the refused selectivity check; built at seed 0 on every run
DIAG = (4, 40)
IID = (2, 3, 30)        # (q, t, n): 30 columns over 8 possible words must repeat one


def builds(seed_of):
    """(name, span, function, args) of each build, in round order."""
    out = [
        ("ss60", "lll.build_strongly_selective", lll.build_strongly_selective, (*SS60, seed_of(0))),
        ("ss40", "lll.build_strongly_selective", lll.build_strongly_selective, (*SS40, seed_of(1))),
        ("ss80", "lll.build_strongly_selective", lll.build_strongly_selective, (*SS80, 0)),
    ]
    for i, (q, k, n) in enumerate(EXPURGATIONS):
        out.append((f"ex-{q}-{k}-{n}", "expurgate.expurgate_run", expurgate.expurgate_run,
                    (q, k, n, seed_of(2 + i))))
    out.append(("diagonal", "diagonal.build_diagonal", diagonal.build_diagonal, DIAG))
    return out


def codes(seed: int) -> dict:
    """write_code bytes of every code this workload builds at `seed`."""
    out = {}
    for name, _, fn, args in builds(lambda i: 1000 * seed + i):
        result = fn(*args)
        out[name] = core.write_code(result if name == "diagonal" else result[0])
    return out


def plant_framing(entries: np.ndarray, k: int) -> tuple[np.ndarray, tuple]:
    """Make the last column agree, row by row, with one of the k columns
    before it: it is then framed by the last coalition `is_frameproof`
    enumerates for it."""
    e = entries.copy()
    n = e.shape[1]
    group = tuple(range(n - 1 - k, n - 1))
    for i in range(e.shape[0]):
        e[i, n - 1] = e[i, group[i % k]]
    return e, (n - 1, group)


def plant_selectivity(entries: np.ndarray, k: int) -> tuple[np.ndarray, tuple]:
    """Give the last column half the support of each of the k-1 columns
    before it, with their symbols: it is then blocked in the last k-set.
    Taking only half of each support keeps those columns unblocked."""
    e = entries.copy()
    n = e.shape[1]
    group = tuple(range(n - k, n))
    col = np.zeros(e.shape[0], dtype=e.dtype)
    for j in group[:-1]:
        support = np.flatnonzero(e[:, j])
        half = support[: max(1, len(support) // 2)]
        col[half] = e[half, j]
    e[:, n - 1] = col
    return e, (group, n - 1)


def prepare(ctx) -> dict:
    base = lll.build_strongly_selective(*SS60, ctx.program_seed(0))[0]
    fp_entries, fp_planted = plant_framing(base.entries, 3)
    ss_entries, ss_planted = plant_selectivity(base.entries, 3)
    q, t, n = IID
    rng = np.random.default_rng(ctx.program_seed(9))
    iid = CodeMatrix(q, rng.integers(0, q, size=(t, n)))
    planted_ss = CodeMatrix(base.q, ss_entries)
    path = ctx.path("planted_ss.txt")
    with open(path, "wb") as fh:
        fh.write(core.write_code(planted_ss))
    return {
        "builds": builds(ctx.program_seed),
        "planted_fp": (CodeMatrix(base.q, fp_entries), 3, fp_planted),
        "planted_ss": (planted_ss, 3, ss_planted),
        "iid": (iid, 2),
        "planted_ss_path": path,
        "hashes": {},
    }


def _oracle(ctx, key, fn, code, k, refusals=()):
    """One oracle call, credited with the coalitions it enumerated."""
    r, tr = ctx.runner, ctx.tracer
    span = "verify.is_frameproof" if fn is verify.is_frameproof else "verify.is_strongly_selective"
    rep = r.call(key, "coalitions", span, fn, code, k, refusals=refusals)
    if isinstance(rep, harness.Refused):
        tr.count("verify.refused", 1)
        return rep
    if fn is verify.is_frameproof:
        w = rep.witness
        count = checks.frameproof_coalitions(code.n, k, (w.column, w.coalition) if w else None)
    else:
        count = checks.selective_coalitions(code.n, k, rep.witness.coalition if rep.witness else None)
    r.credit(key, count)
    tr.count("verify.coalitions", count)
    return rep


def run_round(ctx, state) -> dict:
    r, tr = ctx.runner, ctx.tracer
    out = {"codes": {}, "params": {}, "info": {}, "lambda": {}, "oracle": {}, "reports": {}}
    for name, span, fn, args in state["builds"]:
        result = r.call(f"build {name}", "construct", span, fn, *args)
        code = result if name == "diagonal" else result[0]
        out["codes"][name] = code
        drawn = code.n  # columns drawn: n, and two more per resampling event
        if name.startswith("ss"):
            _, out["params"][name], log = result
            drawn += 2 * log.total_resamples
            tr.count("lll.resamples", log.total_resamples)
            tr.count("lll.initial_violated", log.history[0][1])
            tr.count("lll.pairs", math.comb(code.n, 2))
        elif name.startswith("ex"):
            _, out["params"][name], out["info"][name] = result
            p, info = out["params"][name], out["info"][name]
            m = drawn = p.n + p.ell
            # how many draws a seed needs is luck: count one draw-and-scan
            # attempt (n + ell columns), timed as the run's time per attempt
            r.times[f"build {name}"][r.round] /= info["attempt"] + 1
            tr.count("expurgate.attempts", info["attempt"] + 1)
            tr.count("expurgate.bad_events", info["bad_events"])
            tr.count("expurgate.coalitions", (info["attempt"] + 1) * m * math.comb(m - 1, p.k))
        r.credit(f"build {name}", drawn)

    codes = out["codes"]
    for name in ("ss60", "ss40", "ss80"):
        p = out["params"][name]
        key = f"lambda {name}"
        out["lambda"][name] = r.call(key, "pairs", "verify.is_lambda_matrix", verify.is_lambda_matrix,
                                     codes[name], p.lam, p.w, repeats=harness.SHORT_REPEATS)
        r.credit(key, math.comb(codes[name].n, 2))

    out["io"] = harness.round_trip(ctx, codes, state["hashes"], harness.SHORT_REPEATS)

    orc = out["oracle"]
    orc["ss60 ss4"] = _oracle(ctx, "ss60 ss4", verify.is_strongly_selective, codes["ss60"], 4)
    orc["ss60 fp3"] = _oracle(ctx, "ss60 fp3", verify.is_frameproof, codes["ss60"], 3)
    key = "exhaustive ss40"
    ok, group = r.call(key, "sets", "conflict.exhaustive_guarantee", conflict.exhaustive_guarantee,
                       codes["ss40"], 3)
    sets = checks.selective_coalitions(codes["ss40"].n, 3, group)
    r.credit(key, sets)
    tr.count("conflict.active_sets", sets)
    out["exhaustive"] = (ok, group)

    for q, k, n in EXPURGATIONS:
        name = f"ex-{q}-{k}-{n}"
        code = codes[name]
        orc[f"{name} fp"] = _oracle(ctx, f"{name} fp", verify.is_frameproof, code, k)
        full_fp = checks.frameproof_coalitions(code.n, k)
        for label, fn, extra in (("reduction", verify.check_reduction_fp_to_ss, math.comb(code.n, k + 1)),
                                 ("expansion", verify.check_binary_expansion, math.comb(code.n, k))):
            key = f"{name} {label}"
            orc[key] = r.call(key, "coalitions", f"verify.{fn.__name__}", fn, code, k)
            r.credit(key, full_fp + extra)
            tr.count("verify.coalitions", full_fp + extra)
        flipped = r.call(f"{name} complement", (), "core.complement", core.complement, code)
        stacked = r.call(f"{name} stack", (), "core.stack_rows", core.stack_rows, code, flipped)
        expanded = r.call(f"{name} expand", (), "core.binary_expand", core.binary_expand, code)
        out.setdefault("transforms", {})[name] = (flipped, stacked, expanded)

    orc["diagonal fp3"] = _oracle(ctx, "diagonal fp3", verify.is_frameproof, codes["diagonal"], 3)
    orc["diagonal ss3"] = _oracle(ctx, "diagonal ss3", verify.is_strongly_selective, codes["diagonal"], 3)
    code, k, _ = state["planted_fp"]
    orc["planted fp"] = _oracle(ctx, "planted fp", verify.is_frameproof, code, k)
    code, k, _ = state["planted_ss"]
    orc["planted ss"] = _oracle(ctx, "planted ss", verify.is_strongly_selective, code, k)
    code, k = state["iid"]
    orc["iid fp"] = _oracle(ctx, "iid fp", verify.is_frameproof, code, k)
    orc["ss80 ss4"] = _oracle(ctx, "ss80 ss4", verify.is_strongly_selective, codes["ss80"], 4,
                              refusals=(CapacityError,))

    for name, _, _, args in state["builds"]:
        if name == "diagonal":
            continue
        q, k, n = (args[1], args[0], args[2]) if name.startswith("ss") else args[:3]
        out["reports"][name] = harness.bound_report(ctx, f"report {name}", q, k, n)

    out["cli"] = [r.call(f"cli verify {i}", "cli", "cli.verify", ctx.cli,
                         ["verify", "--in", state["planted_ss_path"], "--property", "ss", "--k", "3"])
                  for i in range(harness.CLI_REPEATS)]
    return out


def replay(ctx, state, out) -> None:
    """Traced-only: every draw and bad-event scan behind each expurgation run,
    and the exact length search behind each of its bound reports."""
    tr = ctx.tracer
    for q, k, n in EXPURGATIONS:
        name = f"ex-{q}-{k}-{n}"
        p, info = out["params"][name], out["info"][name]
        for attempt in range(info["attempt"] + 1):
            with tr.span("expurgate.draw_matrix"):
                drawn = expurgate.draw_matrix(p, attempt)
            with tr.span("expurgate.enumerate_bad_events"):
                expurgate.enumerate_bad_events(drawn, k)
        with tr.span("expurgate.expurgation_length"):
            expurgate.expurgation_length(q, k, n)


def _check_expurgation(name, q, k, n, code, p, info) -> list[str]:
    problems = []
    if p.ell != n // k or not checks.expurgation_length_minimal(q, k, n, p.t) or code.t != p.t:
        problems.append(f"{name}: ell={p.ell}, t={p.t} are not floor(n/k) and the least exact length")
    for attempt in range(info["attempt"] + 1):
        drawn = expurgate.draw_matrix(p, attempt)
        mine = checks.framing_events(drawn.astype(np.int64), k)
        if attempt < info["attempt"]:
            if len(mine) <= p.ell:
                problems.append(f"{name}: attempt {attempt} had only {len(mine)} bad events but was redrawn")
            continue
        theirs = expurgate.enumerate_bad_events(drawn, k)
        if [(i, tuple(g)) for i, g in theirs] != mine:
            problems.append(f"{name}: enumerate_bad_events gives {len(theirs)} events, the scan {len(mine)}")
        whole = CodeMatrix(q, drawn)
        if not all(verify.coalition_covers(whole, i, g) for i, g in theirs):
            problems.append(f"{name}: a reported bad event is not a framing")
        if len(mine) != info["bad_events"] or len(mine) > p.ell:
            problems.append(f"{name}: bad_events={info['bad_events']}, scan finds {len(mine)}, ell={p.ell}")
        doomed = {i for i, _ in mine}
        keep = [j for j in range(drawn.shape[1]) if j not in doomed][:n]
        if info["deleted_columns"] != len(doomed) or not np.array_equal(code.entries, drawn[:, keep]):
            problems.append(f"{name}: output is not the draw minus the framed columns")
    if code.n != n or checks.framing_events(code.entries.astype(np.int64), k):
        problems.append(f"{name}: output is not {k}-frameproof on {n} columns")
    return problems


def _witness_problems(label, code, rep, planted, frameproof: bool) -> list[str]:
    if rep.passed or rep.witness is None:
        return [f"{label}: a planted failure was not found"]
    w = rep.witness
    if frameproof:
        if (w.column, tuple(w.coalition)) > (planted[0], planted[1]):
            return [f"{label}: witness {w} comes after the planted failure {planted}"]
        if not verify.coalition_covers(code, w.column, w.coalition):
            return [f"{label}: witness {w} does not frame its column"]
    else:
        group = tuple(w.coalition)
        if (group, group.index(w.column)) > (planted[0], planted[0].index(planted[1])):
            return [f"{label}: witness {w} comes after the planted failure {planted}"]
        if verify.selective_row_exists(code, w.column, [j for j in group if j != w.column]):
            return [f"{label}: witness {w} has a selective row"]
    return []


def check(ctx, state, out) -> list[str]:
    problems = []
    codes, orc = out["codes"], out["oracle"]
    for name, (data, back) in out["io"].items():
        code = codes[name]
        problems += [f"{name}: {x}" for x in checks.round_trip_problems(code.q, code.entries, data, back.q,
                                                                          back.entries)]
    for name, (k, q, n) in (("ss60", SS60), ("ss40", SS40), ("ss80", SS80)):
        code, p = codes[name], out["params"][name]
        w, lam = checks.lll_chain(k, n)
        if (p.w, p.lam) != (w, lam) or not checks.lll_length_minimal(q, n, w, lam, code.t):
            problems.append(f"{name}: (w, lam, t) = ({p.w}, {p.lam}, {code.t}) is not the derived chain")
        problems += [f"{name}: {x}" for x in checks.lambda_code_problems(code.entries, q, w, lam)]
        if checks.selectivity_from_lambda(w, lam) < k:
            problems.append(f"{name}: lam={lam}, w={w} does not force {k}-selectivity")
        if not out["lambda"][name].passed:
            problems.append(f"{name}: is_lambda_matrix failed a code within lam")
    # lam <= (w-1)/(k-1) gives 4-selectivity, hence 3-frameproofness by the reduction
    for key in ("ss60 ss4", "ss60 fp3", "diagonal fp3", "diagonal ss3"):
        if not orc[key].passed:
            problems.append(f"{key}: oracle failed a code that has the property")
    if out["exhaustive"] != (True, None):
        problems.append(f"exhaustive_guarantee failed on a 3-selective code: {out['exhaustive']}")
    problems += [f"diagonal: {x}" for x in checks.diagonal_problems(codes["diagonal"].entries, *DIAG)]
    for q, k, n in EXPURGATIONS:
        name = f"ex-{q}-{k}-{n}"
        code = codes[name]
        problems += _check_expurgation(name, q, k, n, code, out["params"][name], out["info"][name])
        for label in ("fp", "reduction", "expansion"):
            rep = orc[f"{name} {label}"]
            if not (rep is True or getattr(rep, "passed", False)):
                problems.append(f"{name} {label}: check failed on a {k}-frameproof code")
        flipped, stacked, expanded = out["transforms"][name]
        e = code.entries.astype(np.int64)
        if not np.array_equal(flipped.entries, q - 1 - e) or \
                not np.array_equal(stacked.entries, np.vstack([e, q - 1 - e])) or \
                expanded.q != 2 or expanded.t != q * code.t or \
                not np.all(np.count_nonzero(expanded.entries, axis=0) == code.t) or \
                not np.array_equal(np.argmax(expanded.entries.reshape(code.t, q, code.n), axis=1), e):
            problems.append(f"{name}: complement, stack_rows or binary_expand is wrong")
    code, _, planted = state["planted_fp"]
    problems += _witness_problems("planted fp", code, orc["planted fp"], planted, True)
    code, _, planted = state["planted_ss"]
    problems += _witness_problems("planted ss", code, orc["planted ss"], planted, False)
    code, k = state["iid"]
    problems += _witness_problems("iid fp", code, orc["iid fp"], (code.n, ()), True)
    refused = orc["ss80 ss4"]
    if isinstance(refused, harness.Refused):
        if not isinstance(refused.error, CapacityError):
            problems.append(f"ss80: refused with {refused.error!r}")
    elif not refused.passed:
        problems.append("ss80: selectivity oracle failed a 4-selective code")
    for name, _, _, args in state["builds"]:
        if name == "diagonal":
            continue
        q, k, n = (args[1], args[0], args[2]) if name.startswith("ss") else args[:3]
        rep = out["reports"][name]
        problems += checks.report_problems(q, k, n, rep.entries, 1e-9)
        length = "lll_lambda_length" if name.startswith("ss") else "expurgation_43"
        if rep.entries[length] != codes[name].t:
            problems.append(f"{name}: bound report {length} differs from the built length")
    want = orc["planted ss"].witness
    for proc in out["cli"]:
        lines = dict(line.split(" ", 1) for line in proc.stdout.strip().split("\n") if " " in line)
        if proc.returncode != 1 or lines.get("passed") != "false" or want is None or \
                lines.get("witness_column") != str(want.column) or \
                lines.get("witness_coalition") != ",".join(map(str, want.coalition)):
            problems.append(f"cli verify: exit {proc.returncode}, output {proc.stdout!r} does not match the library")
    return problems
