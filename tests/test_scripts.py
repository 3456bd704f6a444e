"""The scripts in scripts/ (not a package: each is loaded from its path)."""

import importlib.util
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
