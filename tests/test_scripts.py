"""The scripts in scripts/ (not a package: each is loaded from its path)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from fpcodes.bounds import bound_report

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ceil", [False, True])
def test_bound_tables_prints_each_report(capsys, ceil):
    argv = ["--q", "2,3", "--k", "2,5", "--n", "4,100"] + (["--ceil"] if ceil else [])
    assert load("bound_tables").main(argv) == 0
    cells = [(q, k, n) for q in (2, 3) for k in (2, 5) for n in (4, 100) if n > k]
    # print() adds a newline after each report, and a blank line separates them
    want = "\n".join(bound_report(*cell).serialize(ceil_reals=ceil) + "\n" for cell in cells)
    assert capsys.readouterr().out == want


def test_resample_stats_runs(capsys):
    assert load("resample_stats").main(["--k", "3", "--q", "3", "--n", "20", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=3 q=3 n=20 ")
    assert "resamples min=" in out


def test_resample_stats_prints_the_moser_tardos_bound(capsys):
    # n(n-1)/(2(2n-4)) is 1.5 at n = 4, above n/3
    assert load("resample_stats").main(["--k", "2", "--q", "3", "--n", "4", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("expectation bound n(n-1)/(2(2n-4))=1.5")


def test_bench_record_writes_each_runs_lines(tmp_path, monkeypatch):
    # a checkout of two workloads; the perfbench process and git are stubbed
    bench = load("bench_record")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w1"}, {"name": "w2"}]}))
    calls = []
    git = {("rev-parse", "HEAD"): "abc123\n", ("rev-parse", "HEAD^{tree}"): "def456\n",
           ("status", "--porcelain", "--untracked-files=no"): ""}

    def run(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, git[tuple(cmd[1:])], "")
        workload, seed = cmd[cmd.index("--workload") + 1], int(cmd[cmd.index("--seed") + 1])
        record = {"workload": workload, "seed": seed}
        result = {"correct": True, "metrics": {"m": {"value": seed / 2, "unit": "s"}}}
        out = f"log line\nrun record {json.dumps(record)}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench, "HOME", tmp_path)
    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench.main(["--label", "x", "--seeds", "3,4", "--seconds", "2"]) == 0
    written = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (written["label"], written["git_sha"], written["seeds"], written["seconds"]) == ("x", "abc123", [3, 4], 2)
    assert (written["tree_sha"], written["dirty"]) == ("def456", False)
    assert [(r["workload"], r["seed"]) for r in written["runs"]] == [("w1", 3), ("w1", 4), ("w2", 3), ("w2", 4)]
    for r in written["runs"]:
        assert r["record"] == {"workload": r["workload"], "seed": r["seed"]}
        assert r["result"]["metrics"]["m"]["value"] == r["seed"] / 2
    perf = [cmd for cmd, cwd in calls if cmd[0] != "git"]
    assert all(cwd == tmp_path for _, cwd in calls)
    assert all(cmd[1:3] == ["perfbench/run.py", "--workload"] and cmd[-2:] == ["--trace", "0"] for cmd in perf)
    assert all(cmd[cmd.index("--seconds") + 1] == "2.0" for cmd in perf)
    # a tracked file changed since the commit: the file says so
    git["status", "--porcelain", "--untracked-files=no"] = " M src/fpcodes/core.py\n"
    bench.main(["--label", "x", "--seeds", "3"])
    assert json.loads((tmp_path / "BENCH_x.json").read_text())["dirty"] is True


def test_bench_record_refuses_a_failed_run(tmp_path, monkeypatch):
    bench = load("bench_record")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w1"}]}))

    def run(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0 if cmd[0] == "git" else 2, "", "error: src/fpcodes missing")

    monkeypatch.setattr(bench, "HOME", tmp_path)
    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(RuntimeError, match="exited 2: error: src/fpcodes missing"):
        bench.main(["--label", "x"])
    assert not (tmp_path / "BENCH_x.json").exists()


def test_ci_smoke_script_parses_and_runs_in_ci():
    # the script's commands run end to end in CI (and locally, see its
    # header); here it must parse, and the workflow must call it
    script = SCRIPTS / "ci_smoke.sh"
    subprocess.run(["bash", "-n", str(script)], check=True)
    workflow = (SCRIPTS.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert "bash scripts/ci_smoke.sh" in workflow
