"""Output bytes at fixed seeds: the text of every code a benchmark workload
builds hashes to the sha256 recorded in perfbench/fingerprints.json.  Codes
are meant to stay byte-identical at a fixed seed, and the recorded codes
include q = 256 rows of mixed widths, so this pins the builders and
`write_code` at once."""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "fingerprints.json").read_text())["workloads"]
SEEDS = ["0", "31"]


def workload(name: str):
    """The perfbench module of workload `name`, imported with perfbench/ on
    the path and without writing bytecode into it."""
    sys.path.append(str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(importlib.import_module("harness").WORKLOADS[name])
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", sorted(RECORDED))
@pytest.mark.parametrize("seed", SEEDS)
def test_codes_match_recorded_hashes(name, seed):
    codes = workload(name).codes(int(seed))
    assert {code: hashlib.sha256(data).hexdigest() for code, data in codes.items()} == RECORDED[name][seed]
