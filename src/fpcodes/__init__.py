"""Frameproof and strongly selective q-ary codes: randomized and explicit
constructions, exhaustive verification, length bounds, and a conflict
resolution simulator."""

from .bounds import BoundReport, bound_report
from .core import (
    CapacityError,
    CodeFormatError,
    CodeMatrix,
    ConstructionError,
    ParameterError,
    binary_expand,
    column_weight,
    complement,
    read_code,
    stack_rows,
    write_code,
)
from .diagonal import build_diagonal
from .expurgate import ExpurgationParams, expurgation_length, p_qk
from .lll import (
    ConstructionParams,
    ResampleLog,
    build_frameproof,
    build_lambda_matrix,
    build_strongly_selective,
    derive_lambda,
    derive_length,
    derive_weight,
)
from .verify import (
    VerificationReport,
    Witness,
    is_frameproof,
    is_lambda_matrix,
    is_strongly_selective,
)

__all__ = [
    "BoundReport",
    "CapacityError",
    "CodeFormatError",
    "CodeMatrix",
    "ConstructionError",
    "ConstructionParams",
    "ExpurgationParams",
    "ParameterError",
    "ResampleLog",
    "VerificationReport",
    "Witness",
    "binary_expand",
    "bound_report",
    "build_diagonal",
    "build_frameproof",
    "build_lambda_matrix",
    "build_strongly_selective",
    "column_weight",
    "complement",
    "derive_lambda",
    "derive_length",
    "derive_weight",
    "expurgation_length",
    "is_frameproof",
    "is_lambda_matrix",
    "is_strongly_selective",
    "p_qk",
    "read_code",
    "stack_rows",
    "write_code",
]

__version__ = "0.1.0"
