"""The package surface: lazily resolved names, and the paths that answer
without loading numpy, dataclasses, fractions, decimal or hashlib (bounds,
--help, the bound tables)."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpcodes
from fpcodes import _util, bounds, core, expurgate, lll

SRC = Path(fpcodes.__file__).resolve().parents[1]
BOUND_TABLES = Path(__file__).resolve().parents[1] / "scripts" / "bound_tables.py"

NUMPY_FREE = {
    "import": "import fpcodes",
    "bound_report": "import fpcodes.bounds\nfpcodes.bounds.bound_report(256, 8, 10**6)",
    "cli bounds": "from fpcodes import cli\nassert cli.main(['bounds', '--q', '3', '--k', '3', '--n', '1000']) == 0",
    "cli help": "from fpcodes import cli\ntry:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass",
    "bound_tables": (
        f"import runpy\nmain = runpy.run_path({str(BOUND_TABLES)!r})['main']\n"
        "assert main(['--q', '2,256', '--k', '2,8', '--n', '100,1000000']) == 0"
    ),
}


# standard modules the bounds paths need not load: fractions imports decimal,
# and hashlib loads OpenSSL
STDLIB_HEAVY = ("fractions", "decimal", "hashlib")


@functools.lru_cache(maxsize=None)
def loaded(code: str, names: tuple = ("numpy", "dataclasses")) -> frozenset:
    """Run `code` in a fresh interpreter with the package on the path; which
    of `names` were imported by the end?"""
    probe = code + f"\nimport sys\nprint(*sorted({set(names)!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_path_never_loads_numpy(code):
    assert "numpy" not in loaded(code)


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_path_never_loads_dataclasses(code):
    # BoundReport is a named tuple, so a bounds-only process skips that import
    assert "dataclasses" not in loaded(code)


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_path_never_loads_fractions_decimal_or_hashlib(code):
    # the survival probability is an integer ratio, and only `substream`,
    # which the builders call, imports hashlib
    assert loaded(code, STDLIB_HEAVY) == frozenset()


def test_probe_sees_hashlib():
    assert loaded("from fpcodes import _util\n_util.substream(0, 1)", STDLIB_HEAVY) == {"hashlib"}


def test_probe_sees_numpy():
    # the probe itself: a numpy-backed module does load both
    assert loaded("import fpcodes.core") == {"numpy", "dataclasses"}


def test_bound_report_is_read_only():
    report = bounds.bound_report(3, 2, 100)
    with pytest.raises(AttributeError):
        report.q = 4
    with pytest.raises(AttributeError):
        report.extra = 1
    assert report == bounds.bound_report(3, 2, 100)  # equal by value


def test_names_are_their_definitions():
    assert fpcodes.__all__ == sorted(set(fpcodes.__all__))
    for name in fpcodes.__all__:
        value = getattr(fpcodes, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(fpcodes.__all__) <= set(dir(fpcodes))


def test_moved_names_keep_their_old_homes():
    # each formula is defined once, in bounds; the builders import it
    for name in ("derive_weight", "derive_lambda", "derive_length"):
        assert getattr(lll, name) is getattr(bounds, name)
        assert getattr(bounds, name).__module__ == "fpcodes.bounds"
    for name in ("_p_ratio", "p_qk", "expurgation_length", "corollary_length"):
        assert getattr(bounds, name).__module__ == "fpcodes.bounds"
    for name in ("p_qk", "expurgation_length", "corollary_length"):
        assert getattr(expurgate, name) is getattr(bounds, name)
    for name in ("ParameterError", "CapacityError", "ConstructionError", "CodeFormatError"):
        assert getattr(core, name) is getattr(_util, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such"):
        fpcodes.no_such
    with pytest.raises(ImportError):
        from fpcodes import no_such  # noqa: F401 (the import is the test)


def test_core_parameter_error_catches_bounds_errors():
    with pytest.raises(core.ParameterError):
        bounds.bound_report(1, 2, 10)
    with pytest.raises(core.ParameterError):
        bounds.shangguan_42(3, 2, 100)  # an ApplicabilityError: q > k
