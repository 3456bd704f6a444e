"""Acceptance suite: nine repository-level criteria.

Each test prints one PASS/FAIL verdict line (bypassing capture) and then
asserts.  Tolerances are stated inline; validity criteria allow zero
failures.  Frozen integers were pre-verified by arbitrary-precision
evaluation, repeated here with mpmath/Fraction oracles where cheap.
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fpcodes.bounds import bound_report, fp_bounds_theorem310
from fpcodes.conflict import simulate
from fpcodes.core import CodeMatrix
from fpcodes.diagonal import build_diagonal
from fpcodes.expurgate import expurgate_run, expurgation_length
from fpcodes.lll import build_frameproof, build_strongly_selective, derive_length, derive_weight
from fpcodes.verify import (
    check_binary_expansion,
    check_reduction_fp_to_ss,
    is_frameproof,
    is_strongly_selective,
    selective_row_exists,
)
from paper_checks import check_reduction_ss_to_fp, relaxed_inequality_45

mp.mp.dps = 50

GRID_Q = (2, 3, 4)
GRID_K = (2, 3)
GRID_N = (10, 30, 50)
SEEDS = (1, 2, 3, 4, 5)
EXP_CONFIGS = ((3, 2, 10), (2, 2, 6), (2, 3, 9))


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def fp_grid():
    codes = {}
    for q in GRID_Q:
        for k in GRID_K:
            for n in GRID_N:
                for seed in SEEDS:
                    matrix, params, _ = build_frameproof(k, q, n, seed)
                    codes[(q, k, n, seed)] = (matrix, params)
    return codes


@pytest.fixture(scope="module")
def expurgated_codes():
    codes = {}
    for q, k, n in EXP_CONFIGS:
        for seed in range(1, 11):
            codes[(q, k, n, seed)] = expurgate_run(q, k, n, seed)
    return codes


def test_criterion_1_lll_validity(capsys, fp_grid):
    """Every grid build passes its defining-property oracle; zero failures."""
    failures = []
    for (q, k, n, seed), (matrix, _) in fp_grid.items():
        if not is_frameproof(matrix, k).passed:
            failures.append(("fp", q, k, n, seed))
    total = len(fp_grid)
    for q in GRID_Q:
        for k in GRID_K:
            for n in GRID_N:
                for seed in SEEDS:
                    matrix, _, _ = build_strongly_selective(k, q, n, seed)
                    total += 1
                    if not is_strongly_selective(matrix, k).passed:
                        failures.append(("ss", q, k, n, seed))
    verdict(capsys, 1, not failures, f"{total} oracle-verified builds, {len(failures)} failures")


def test_criterion_2_resampling_bound(capsys):
    """Mean resampling events at (k=3, q=3, n=50) over 20 seeds is <= n."""
    counts = [
        build_strongly_selective(3, 3, 50, seed)[2].total_resamples for seed in range(1, 21)
    ]
    mean = sum(counts) / len(counts)
    verdict(capsys, 2, mean <= 50, f"mean resamples {mean:.2f} over 20 seeds, bound 50")


def test_criterion_3_length_formulas(capsys):
    """Three frozen lengths, re-derived here at 50-digit precision; exact match."""
    indep_w = int(mp.ceil(1 + (2 - 1) * mp.log(2 * mp.e * 10) - mp.mpf("1e-9")))
    second = mp.mpf(4) / 2 + (mp.e * 5 / 5) * (5 - mp.mpf(4) / 2) * (mp.e * 16) ** (mp.mpf(1) / 5) / (3 - 1)
    indep_t = max(2 * 5 - 5, int(mp.ceil(second - mp.mpf("1e-9"))))
    base = 1 - Fraction(4, 9)
    count = 3 * math.comb(15, 2)
    indep_texp = next(t for t in range(1, 200) if count * base**t <= 1)
    triples = [
        ("derive_weight(2,10)", derive_weight(2, 10), 5, indep_w),
        ("derive_length(4,5,10,3)", derive_length(4, 5, 10, 3), 11, indep_t),
        ("expurgation_length(3,2,10)", expurgation_length(3, 2, 10), 10, indep_texp),
    ]
    bad = [name for name, got, frozen, indep in triples if not got == frozen == indep]
    shown = ", ".join(f"{name}={got}" for name, got, _, _ in triples)
    verdict(capsys, 3, not bad, shown)


def test_criterion_4_expurgation_validity(capsys, expurgated_codes):
    """30 expurgation runs frameproof, deleted columns <= floor(n/k); zero failures."""
    failures = []
    for (q, k, n, seed), (matrix, params, info) in expurgated_codes.items():
        ok = (
            is_frameproof(matrix, k).passed
            and info["deleted_columns"] <= n // k
            and (matrix.t, matrix.n) == (params.t, n)
        )
        if not ok:
            failures.append((q, k, n, seed))
    verdict(capsys, 4, not failures, f"{len(expurgated_codes)} runs, {len(failures)} failures")


def test_criterion_5_reductions(capsys, expurgated_codes):
    """Both reduction checks on 20 codes, expansion check on 10; zero failures."""
    cases = []
    for k_target, q, n, seed in [
        (2, 2, 8, 1), (2, 3, 8, 2), (3, 2, 8, 3), (3, 3, 10, 4),
        (2, 4, 10, 5), (3, 4, 10, 6), (2, 2, 10, 7), (2, 3, 12, 8),
    ]:
        matrix, _, _ = build_strongly_selective(k_target, q, n, seed)
        cases.append((f"ss({k_target},{q},{n},{seed})", matrix, k_target - 1))
    for q, n in [(2, 6), (3, 6), (3, 9), (4, 9), (5, 8), (2, 5)]:
        cases.append((f"diag({q},{n})", build_diagonal(q, n), 2))
    for q, k, n in EXP_CONFIGS:
        for seed in (1, 2):
            cases.append((f"exp({q},{k},{n},{seed})", expurgated_codes[(q, k, n, seed)][0], k))
    assert len(cases) == 20
    failures = [name for name, m, k in cases if not (check_reduction_ss_to_fp(m, k) and check_reduction_fp_to_ss(m, k))]

    expand_cases = [(f"diag({q},{n})", build_diagonal(q, n), 2) for q, n in [(2, 5), (3, 5), (4, 7), (5, 9)]]
    for q, n, seed in [(2, 8, 1), (3, 10, 2), (4, 12, 3)]:
        matrix, _, _ = build_frameproof(2, q, n, seed)
        expand_cases.append((f"fp(2,{q},{n},{seed})", matrix, 2))
    for q, k, n, seed in [(3, 2, 10, 3), (2, 2, 6, 4), (2, 3, 9, 5)]:
        expand_cases.append((f"exp({q},{k},{n},{seed})", expurgated_codes[(q, k, n, seed)][0], k))
    assert len(expand_cases) == 10
    failures += [name for name, m, k in expand_cases if not check_binary_expansion(m, k)]
    verdict(capsys, 5, not failures, f"20 reduction + 10 expansion checks, failing: {failures or 'none'}")


def test_criterion_6_diagonal(capsys):
    """Exact length ceil(n/(q-1)) and frameproofness for every k <= n-1."""
    failures = []
    checks = 0
    for q in (2, 3, 5):
        for n in (4, 8, 12):
            matrix = build_diagonal(q, n)
            if matrix.t != -(-n // (q - 1)):
                failures.append(("length", q, n))
            for k in range(1, n):
                checks += 1
                if not is_frameproof(matrix, k).passed:
                    failures.append((q, n, k))
    verdict(capsys, 6, not failures, f"{checks} frameproof checks across 9 codes, {len(failures)} failures")


def test_criterion_7_bound_comparisons(capsys):
    """compare_45/compare_46 hold on their whole regimes; onset of the
    relaxed inequality at k=5 exactly."""
    failures = []
    for q in range(2, 9):
        for k in range(2, 9):
            for n in (10, 100, 1000):
                key = "compare_45" if q > k else "compare_46"
                if bound_report(q, k, n).entries[key] is not True:
                    failures.append((key, q, k, n))
    early = [k for k in (2, 3, 4) if relaxed_inequality_45(k)]
    late = [k for k in range(5, 51) if not relaxed_inequality_45(k)]
    ok = not failures and not early and not late
    verdict(capsys, 7, ok, f"147 comparison points, onset scan k in [2,50]; failures: {failures or early or late or 'none'}")


def test_criterion_8_consistency(capsys, fp_grid, expurgated_codes):
    """fp_lower_shann below every reported upper bound for n > k^2, and every
    constructed code's length sits between the lower bound and its
    construction's predicted length."""
    skip = {"ss_debonis_order", "fp_lower_shann", "compare_45", "compare_46"}
    failures = []
    for q in range(2, 9):
        for k in range(2, 9):
            for n in (10, 100, 1000):
                if n <= k * k:
                    continue
                report = bound_report(q, k, n)
                lower = report.entries["fp_lower_shann"]
                for key, value in report.entries.items():
                    if key in skip or value is None:
                        continue
                    if lower > math.ceil(value):
                        failures.append((q, k, n, key))
    built = 0
    for (q, k, n, seed), (matrix, params) in fp_grid.items():
        if n <= k * k:
            continue
        built += 1
        _, lower = fp_bounds_theorem310(q, k, n)
        if not lower <= matrix.t == params.t:
            failures.append(("lll", q, k, n, seed))
    for (q, k, n, seed), (matrix, params, _) in expurgated_codes.items():
        if n <= k * k:
            continue
        built += 1
        _, lower = fp_bounds_theorem310(q, k, n)
        if not lower <= matrix.t == params.t:
            failures.append(("exp", q, k, n, seed))
    verdict(capsys, 8, not failures, f"bound grid + {built} constructed codes, {len(failures)} violations")


def test_criterion_9_simulator_equivalence(capsys):
    """At (q=3, k=2, n=8): per-active-set simulation success must equal the
    defining selectivity condition, and the all-sets conjunction must equal
    the oracle verdict.  Zero disagreements."""
    codes = [build_strongly_selective(2, 3, 8, seed)[0] for seed in (1, 2, 3)]
    codes.append(build_diagonal(3, 8))
    zero_col = build_diagonal(3, 8).entries.copy()
    zero_col[:, 0] = 0
    codes.append(CodeMatrix(3, zero_col))
    dup = build_diagonal(3, 8).entries.copy()
    dup[:, 1] = dup[:, 0]
    codes.append(CodeMatrix(3, dup))

    disagreements = 0
    checked = 0
    for matrix in codes:
        oracle = is_strongly_selective(matrix, 2).passed
        every_set_ok = True
        for group in itertools.combinations(range(8), 2):
            sim_ok = simulate(matrix, group).all_succeed
            def_ok = all(
                selective_row_exists(matrix, c, [j for j in group if j != c]) for c in group
            )
            checked += 1
            if sim_ok != def_ok:
                disagreements += 1
            every_set_ok &= sim_ok
        if every_set_ok != oracle:
            disagreements += 1
    verdict(capsys, 9, disagreements == 0, f"{checked} active sets over {len(codes)} codes, {disagreements} disagreements")
