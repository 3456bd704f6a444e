"""Frameproof and strongly selective q-ary codes: randomized and explicit
constructions, exhaustive verification, length bounds, and a conflict
resolution simulator.

The names below are resolved on first access (PEP 562), each from the
submodule that defines it, so `import fpcodes` loads no submodule and a
caller that only evaluates bounds never loads numpy.
"""

import importlib

_HOMES = {
    "_util": ("CapacityError", "CodeFormatError", "ConstructionError", "ParameterError"),
    "bounds": (
        "BoundReport",
        "bound_report",
        "derive_lambda",
        "derive_length",
        "derive_weight",
        "expurgation_length",
        "p_qk",
    ),
    "core": ("CodeMatrix", "binary_expand", "column_weight", "complement", "read_code", "stack_rows", "write_code"),
    "diagonal": ("build_diagonal",),
    "expurgate": ("ExpurgationParams",),
    "lll": (
        "ConstructionParams",
        "ResampleLog",
        "build_frameproof",
        "build_lambda_matrix",
        "build_strongly_selective",
    ),
    "verify": ("VerificationReport", "Witness", "is_frameproof", "is_lambda_matrix", "is_strongly_selective"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
