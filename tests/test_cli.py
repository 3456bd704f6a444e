import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import fpcodes.bounds
import fpcodes.lll
import fpcodes.verify
from fpcodes.cli import main
from fpcodes.core import MAX_N, MAX_WORDS, CodeMatrix, ConstructionError, read_code


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_diagonal_to_file_with_sidecar(self, tmp_path, capsys):
        out = tmp_path / "diag.code"
        code, _, err = run(capsys, "construct", "diagonal", "--q", "3", "--n", "4", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == b"3 2 4\n1 0 2 0\n0 1 0 2\n"
        sidecar = json.loads((tmp_path / "diag.code.run.json").read_text())
        assert sidecar["subcommand"] == "diagonal"
        assert sidecar["t"] == 2
        assert "wall_time_s" in sidecar

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "construct", "diagonal", "--q", "2", "--n", "3")
        assert code == 0
        assert out == "2 3 3\n1 0 0\n0 1 0\n0 0 1\n"

    def test_stdout_bytes_match_out_file(self, tmp_path, capsysbinary):
        path = tmp_path / "ss.code"
        argv = ["construct", "lll-ss", "--q", "3", "--k", "3", "--n", "40", "--seed", "5"]
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        assert main(argv + ["--out", str(path)]) == 0
        assert printed == path.read_bytes()
        assert printed.startswith(b"3 ")

    def test_lll_fp_header_and_reproducibility(self, tmp_path, capsys):
        a = tmp_path / "a.code"
        b = tmp_path / "b.code"
        for path in (a, b):
            code, _, _ = run(
                capsys, "construct", "lll-fp", "--q", "3", "--k", "2", "--n", "20", "--seed", "7", "--out", str(path)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"3 48 20\n")
        sidecar = json.loads((tmp_path / "a.code.run.json").read_text())
        assert sidecar["k"] == 2 and sidecar["seed"] == 7
        assert "resamples" in sidecar

    def test_expurgate(self, tmp_path, capsys):
        out = tmp_path / "e.code"
        code, _, _ = run(capsys, "construct", "expurgate", "--q", "3", "--k", "2", "--n", "10", "--seed", "1", "--out", str(out))
        assert code == 0
        matrix = read_code(out.read_bytes())
        assert (matrix.t, matrix.n) == (10, 10)
        sidecar = json.loads((tmp_path / "e.code.run.json").read_text())
        assert sidecar["deleted_columns"] <= sidecar["ell"]

    def test_parameter_error_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "lll-fp", "--q", "1", "--k", "2", "--n", "20")
        assert code == 2
        assert "error" in err
        code, _, _ = run(capsys, "construct", "lll-fp", "--q", "3", "--n", "20")  # missing --k
        assert code == 2

    @pytest.mark.parametrize("kind", ["lll-ss", "lll-fp", "expurgate", "diagonal"])
    def test_alphabet_above_max_q_exit_2(self, capsys, kind):
        # refused before any column is drawn, not by numpy's uint16 overflow;
        # a diagonal code of 200000 columns over q = 70000 has symbols above
        # 65535, so the build itself would overflow
        n = "200000" if kind == "diagonal" else "10"
        code, out, err = run(capsys, "construct", kind, "--q", "70000", "--k", "2", "--n", n)
        assert (code, out) == (2, "")
        assert err == "error: q=70000 exceeds 65536, the largest alphabet a code stores\n"

    @pytest.mark.parametrize("kind,n,message", [
        ("lll-ss", 10**30, f"columns exceeds {MAX_N} symbols"),
        ("diagonal", 10**30, f"columns exceeds {MAX_N} symbols"),
        ("expurgate", 10**30, f"over the {MAX_WORDS} one stream yields"),
        ("expurgate", 10**6, f"over the {MAX_WORDS} one stream yields"),
    ])
    def test_huge_n_exit_2(self, capsys, kind, n, message):
        # more symbols than numpy can shape, or than the expurgation's draw
        # takes from its stream: refused before any array is sized
        code, out, err = run(capsys, "construct", kind, "--q", "3", "--k", "3", "--n", str(n))
        assert (code, out) == (2, "")
        assert err.startswith("error: a ") and err.endswith(message + "\n")

    @pytest.mark.parametrize("kind,n", [("lll-ss", 10**12), ("diagonal", 10**9)])
    def test_unallocatable_code_exit_2(self, capsys, kind, n):
        # within MAX_N, but hundreds of TiB (lll-ss) or PiB (diagonal) of
        # symbols, past any 64-bit address space: numpy refuses the array
        code, out, err = run(capsys, "construct", kind, "--q", "3", "--k", "3", "--n", str(n))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_huge_k_weight_exit_2(self, capsys):
        # (k - 1) ln(2en) past the float range
        k = 2**1015
        code, out, err = run(capsys, "construct", "lll-ss", "--q", "3", "--k", str(k), "--n", str(k + 1))
        assert (code, out) == (2, "")
        assert err == "error: derive_weight overflows for these parameters\n"

    @pytest.mark.parametrize("kind", ["lll-fp", "lll-ss", "expurgate"])
    def test_missing_k_message(self, capsys, kind):
        code, out, err = run(capsys, "construct", kind, "--q", "3", "--n", "10")
        assert (code, out, err) == (2, "", f"error: construct {kind} requires --k\n")

    def test_construction_failure_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ConstructionError("nope")

        monkeypatch.setattr(fpcodes.lll, "build_frameproof", boom)
        code, _, err = run(capsys, "construct", "lll-fp", "--q", "3", "--k", "2", "--n", "20")
        assert code == 3
        assert "construction failed" in err


class TestVerify:
    def test_pass_exit_0(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        run(capsys, "construct", "diagonal", "--q", "3", "--n", "6", "--out", str(path))
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "2")
        assert code == 0
        assert "passed true" in out

    def test_fail_exit_1_with_witness(self, tmp_path, capsys):
        path = tmp_path / "dup.code"
        path.write_bytes(b"2 1 3\n1 1 0\n")
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "1")
        assert code == 1
        assert "passed false" in out
        assert "witness_column 0" in out
        assert "witness_coalition 1" in out

    @pytest.mark.parametrize("prop,k,column,q,n,coalition", [
        ("fp", 520, [1, 2, 0], 3, 600, range(1, 521)),
        ("ss", 500, [0, 0], 2, 1500, range(500)),
    ], ids=["fp 600 same", "ss 1500 zero"])
    def test_family_of_hundreds_exit_1(self, tmp_path, capsys, prop, k, column, q, n, coalition):
        # a failed check with a coalition of hundreds answers with its
        # witness, not a traceback
        path = tmp_path / "same.code"
        rows = [" ".join([str(s)] * n) for s in column]
        path.write_text("\n".join([f"{q} {len(column)} {n}", *rows]) + "\n")
        code, out, err = run(capsys, "verify", "--in", str(path), "--property", prop, "--k", str(k))
        assert (code, err) == (1, "")
        assert "passed false\nwitness_column 0\nwitness_coalition " + ",".join(map(str, coalition)) + "\n" in out

    def test_lambda_property(self, tmp_path, capsys):
        path = tmp_path / "i.code"
        run(capsys, "construct", "diagonal", "--q", "2", "--n", "4", "--out", str(path))
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "lambda", "--lam", "0", "--w", "1")
        assert code == 0

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--in", "no-such-file", "--property", "fp", "--k", "1")
        assert code == 2

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_bytes(b"3 2 4\n1 0 2 0\n")
        code, _, err = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "1")
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("data", [b"70000 1 1\n5\n", b"100000 1 1\n70000\n"])
    def test_oversized_alphabet_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "big.code"
        path.write_bytes(data)
        code, _, err = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "1")
        assert code == 2
        assert err.startswith("error: line 1: alphabet size")

    def test_over_wide_symbol_exit_2(self, tmp_path, capsys):
        # 5000 digits: more than int() converts, so the message quotes the text
        path = tmp_path / "wide.code"
        path.write_bytes(b"2 1 1\n" + b"1" * 5000 + b"\n")
        code, _, err = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "1")
        assert code == 2
        assert err.startswith("error: line 2: symbol 1111")

    def test_all_zero_wide_exit_1(self, tmp_path, capsys):
        # C(119, 60) coalitions a column, but the first one frames column 0
        path = tmp_path / "wide.code"
        path.write_bytes(b"2 1 120\n" + b" ".join([b"0"] * 120) + b"\n")
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "60")
        assert code == 1
        assert "witness_coalition " + ",".join(map(str, range(1, 61))) in out

    def test_capacity_exit_2(self, tmp_path, capsys, monkeypatch):
        # column 0 is all ones, the others agree with it in row 0 only: its
        # root tests the 5 other columns, and its nodes through members 1
        # to 5 test 5 each, so the second of those passes a budget of 12
        path = tmp_path / "fan.code"
        path.write_bytes(b"2 2 6\n1 1 1 1 1 1\n1 0 0 0 0 0\n")
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 12)
        code, out, err = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "2")
        assert code == 2 and out == ""
        assert "after 15 coalition checks, over the 12 budget, at column 0, coalition prefix (2,)" in err

    def test_capacity_exit_2_carries_an_estimate(self, tmp_path, capsys, monkeypatch):
        # the refusal scales the 15 checks made by column 0 to all 6 columns
        path = tmp_path / "fan.code"
        path.write_bytes(b"2 2 6\n1 1 1 1 1 1\n1 0 0 0 0 0\n")
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 12)
        code, out, err = run(capsys, "verify", "--in", str(path), "--property", "fp", "--k", "2")
        assert code == 2 and out == ""
        assert "coalition prefix (2,); extrapolated to all 6 columns, about 90 checks\n" in err

    def test_missing_k_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        run(capsys, "construct", "diagonal", "--q", "3", "--n", "6", "--out", str(path))
        code, _, _ = run(capsys, "verify", "--in", str(path), "--property", "fp")
        assert code == 2


    @pytest.mark.parametrize("prop", ["fp", "ss"])
    def test_missing_k_message(self, tmp_path, capsys, prop):
        path = tmp_path / "d.code"
        path.write_bytes(b"3 2 4\n1 0 2 0\n0 1 0 2\n")
        code, out, err = run(capsys, "verify", "--in", str(path), "--property", prop)
        assert (code, out, err) == (2, "", f"error: --property {prop} requires --k\n")

    @pytest.mark.parametrize("partial", [["--lam", "0"], ["--w", "1"], []])
    def test_lambda_missing_lam_or_w_message(self, tmp_path, capsys, partial):
        path = tmp_path / "d.code"
        path.write_bytes(b"3 2 4\n1 0 2 0\n0 1 0 2\n")
        code, out, err = run(capsys, "verify", "--in", str(path), "--property", "lambda", *partial)
        assert (code, out, err) == (2, "", "error: --property lambda requires --lam and --w\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--property", "fp"], "--property fp requires --k"),
            (["--property", "ss"], "--property ss requires --k"),
            (["--property", "lambda", "--lam", "0"], "--property lambda requires --lam and --w"),
            (["--property", "lambda", "--w", "1"], "--property lambda requires --lam and --w"),
        ],
    )
    def test_flag_error_before_reading_the_file(self, capsys, flags, message):
        # the --in path does not exist: the usage error is found first
        code, out, err = run(capsys, "verify", "--in", "no-such-file", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_strongly_selective_pass(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        path.write_bytes(b"3 2 4\n1 0 2 0\n0 1 0 2\n")
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "ss", "--k", "2")
        assert (code, out) == (0, "property strongly_selective\nk 2\npassed true\n")

    def test_strongly_selective_refutation(self, tmp_path, capsys):
        path = tmp_path / "dup.code"
        path.write_bytes(b"2 1 3\n1 1 0\n")
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "ss", "--k", "2")
        assert code == 1
        assert out == (
            "property strongly_selective\nk 2\npassed false\n"
            "witness_column 0\nwitness_coalition 0,1\n"
        )

    def test_lambda_refutation_prints_rows(self, tmp_path, capsys):
        path = tmp_path / "twin.code"
        path.write_bytes(b"2 2 2\n1 1\n1 1\n")
        code, out, _ = run(capsys, "verify", "--in", str(path), "--property", "lambda", "--lam", "1", "--w", "2")
        assert code == 1
        assert out == (
            "property lambda_matrix\nlam 1\nw 2\npassed false\n"
            "witness_column 0\nwitness_coalition 1\nwitness_rows 0,1\n"
        )


class TestBounds:
    def test_report_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "2", "--n", "100")
        assert code == 0
        assert "shangguan_42 44.9229" in out
        assert "expurgation_cor44 41.4888" in out
        assert "compare_46 true" in out

    def test_ceil_mode(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "2", "--n", "100", "--ceil")
        assert code == 0
        assert "expurgation_cor44 42" in out

    def test_bad_triple_exit_2(self, capsys):
        code, _, _ = run(capsys, "bounds", "--q", "2", "--k", "5", "--n", "4")
        assert code == 2


    def test_unrepresentable_stinson_exit_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--q", "2", "--k", "1100", "--n", "2000")
        assert (code, out) == (2, "")
        assert err == "error: stinson_41 overflows for these parameters\n"

    @pytest.mark.parametrize("q", [str(2 * 10**16), str(10**17), "1" + "0" * 400], ids=["2e16", "1e17", "1e400"])
    def test_huge_alphabet_exit_2(self, capsys, q):
        code, out, err = run(capsys, "bounds", "--q", q, "--k", "3", "--n", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: q=") and "2^53" in err

    def test_huge_k_exit_2(self, capsys):
        # k^2 past the float range
        k = 2**513
        code, out, err = run(capsys, "bounds", "--q", "3", "--k", str(k), "--n", str(k + 1))
        assert (code, out) == (2, "")
        assert err == "error: ss_debonis_order overflows for these parameters\n"

    def test_huge_k_exact_probability_exit_2(self, capsys):
        # the exact survival probability at k = 10^6 is refused, not formed
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--q", str(2**50), "--k", "1000000", "--n", "10000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: k=1000000 exceeds 2^14, beyond the exact survival probability's reach\n"

    def test_huge_n_exit_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--q", "3", "--k", "3", "--n", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err == "error: n exceeds 2^1021, beyond float range for the length formulas\n"


class TestSimulate:
    def test_active_mode(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        run(capsys, "construct", "diagonal", "--q", "3", "--n", "4", "--out", str(path))
        code, out, _ = run(capsys, "simulate", "--in", str(path), "--active", "0,2")
        assert code == 0
        assert "station 0 success_slot 0 attempts 1" in out
        assert "station 2 success_slot 0 attempts 1" in out

    def test_trace_mode(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        run(capsys, "construct", "diagonal", "--q", "3", "--n", "4", "--out", str(path))
        code, out, _ = run(capsys, "simulate", "--in", str(path), "--active", "0,2", "--trace")
        assert code == 0
        assert "0\t1\t0\tsuccess" in out

    def test_never_succeeding_station(self, tmp_path, capsys):
        path = tmp_path / "dup.code"
        path.write_bytes(b"2 1 2\n1 1\n")
        code, out, _ = run(capsys, "simulate", "--in", str(path), "--active", "0,1")
        assert code == 0
        assert "station 0 success_slot never" in out

    def test_guarantee_mode(self, tmp_path, capsys):
        path = tmp_path / "c.code"
        run(capsys, "construct", "lll-ss", "--q", "3", "--k", "2", "--n", "10", "--seed", "3", "--out", str(path))
        code, out, _ = run(capsys, "simulate", "--in", str(path), "--k", "2", "--trials", "100", "--seed", "1")
        assert code == 0
        assert "guarantee true" in out

    def test_guarantee_failure_exit_1(self, tmp_path, capsys):
        path = tmp_path / "dup.code"
        path.write_bytes(b"2 1 2\n1 1\n")
        code, out, _ = run(capsys, "simulate", "--in", str(path), "--k", "2", "--trials", "50", "--seed", "0")
        assert code == 1
        assert "guarantee false" in out

    def test_needs_mode_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        run(capsys, "construct", "diagonal", "--q", "3", "--n", "4", "--out", str(path))
        code, _, _ = run(capsys, "simulate", "--in", str(path))
        assert code == 2

    def test_bad_active_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.code"
        run(capsys, "construct", "diagonal", "--q", "3", "--n", "4", "--out", str(path))
        code, _, _ = run(capsys, "simulate", "--in", str(path), "--active", "0,x")
        assert code == 2


    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "simulate needs --active or --k with --trials"),
            (["--active", "0,x"], "bad --active list '0,x'"),
            (["--k", "2", "--trials", "5", "--trace"], "--trace requires --active"),
        ],
    )
    def test_flag_error_before_reading_the_file(self, capsys, flags, message):
        code, out, err = run(capsys, "simulate", "--in", "no-such-file", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBench:
    def test_table_sorted_and_complete(self, capsys):
        code, out, _ = run(capsys, "bench", "--grid", "q=3,2;k=2;n=10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q k n t fp_theorem38 expurgation_43 fp_upper_diag fp_lower_shann"
        rows = [line.split() for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [("2", "2", "10"), ("3", "2", "10")]
        # constructed t at least the lower bound in every row
        for r in rows:
            assert int(r[3]) >= int(r[7])

    def test_settled_cells_need_no_budget(self, capsys, monkeypatch):
        # every column of an lll-fp code settles at the root, so the
        # exhaustive scan answers each cell without counting a check
        _, full, _ = run(capsys, "bench", "--grid", "q=3;k=2;n=10,40")
        monkeypatch.setattr(fpcodes.verify, "LEAF_BUDGET", 0)
        assert run(capsys, "bench", "--grid", "q=3;k=2;n=10,40") == (0, full, "")

    def test_failed_verification_exits_3(self, capsys, monkeypatch):
        build = fpcodes.lll.build_frameproof

        def duplicated(k, q, n, seed):
            matrix, params, log = build(k, q, n, seed)
            entries = matrix.entries.copy()
            entries[:, 1] = entries[:, 0]
            return CodeMatrix(q, entries), params, log

        monkeypatch.setattr(fpcodes.lll, "build_frameproof", duplicated)
        code, out, err = run(capsys, "bench", "--grid", "q=3;k=2;n=10")
        assert code == 3
        assert "bench cell q=3 k=2 n=10 seed=1 failed verification" in err

    def test_below_lower_bound_exits_3(self, capsys, monkeypatch):
        # a verified cell whose t falls below the frameproof lower bound is a
        # construction failure; no real cell does, so the bound is raised
        monkeypatch.setattr(fpcodes.bounds, "fp_bounds_theorem310", lambda q, k, n: (n, 10**6))
        code, out, err = run(capsys, "bench", "--grid", "q=3;k=2;n=10")
        assert code == 3
        assert out == "q k n t fp_theorem38 expurgation_43 fp_upper_diag fp_lower_shann\n"
        assert "bench cell q=3 k=2 n=10: constructed t=" in err
        assert "below lower bound 1000000" in err

    def test_empty_grid_term_skipped(self, capsys):
        expected = run(capsys, "bench", "--grid", "q=3;k=2;n=20")
        assert expected[0] == 0
        assert run(capsys, "bench", "--grid", "q=3;;k=2;n=20") == expected
        assert run(capsys, "bench", "--grid", " q=3 ; ;k=2;n=20;") == expected

    def test_bad_grid_exit_2(self, capsys):
        assert run(capsys, "bench", "--grid", "q=2;k=2")[0] == 2  # no n
        assert run(capsys, "bench", "--grid", "q=two;k=2;n=10")[0] == 2
        assert run(capsys, "bench", "--grid", "q=;k=2;n=10")[0] == 2
        assert run(capsys, "bench", "--grid", "q=3;k=2;n=10;sede=4")[0] == 2  # unknown key
        assert run(capsys, "bench", "--grid", "q=3;k=2;n=10;q=2")[0] == 2  # repeated key


def readme_commands():
    """The `fpcodes ...` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fpcodes ")]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["construct", "verify", "bounds", "simulate", "simulate", "bench"]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_unknown_command_raises_systemexit():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
