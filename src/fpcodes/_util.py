"""Shared helpers that need no numpy: the package's exception classes, the
tolerant ceiling, the one statement of each input rule the modules share
(q >= 2, k >= 2, and the formulas' float and exact ranges), and
reproducible RNG substreams.  `bounds` imports only this module."""

import math
import random


class ParameterError(ValueError):
    """Raised when arguments violate a documented precondition."""


class CapacityError(RuntimeError):
    """Raised when a requested computation exceeds the safety budget."""


class ConstructionError(RuntimeError):
    """Raised when a randomized construction gives up.

    Carries an optional `log` attribute with the partial progress record.
    """

    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = log


class CodeFormatError(ValueError):
    """Raised on malformed serialized codes.  `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Absolute nudge applied before ceiling so that values sitting a hair above
# an integer because of float roundoff do not get bumped to the next one.
CEIL_TOL = 1e-9


def ceil_tol(x: float) -> int:
    """Ceiling with a small downward nudge against float noise."""
    if not math.isfinite(x):
        raise OverflowError(f"cannot take ceiling of {x!r}")
    return math.ceil(x - CEIL_TOL)


def check_q(q: int) -> None:
    """Refuse an alphabet of fewer than two symbols."""
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")


def check_k(k: int) -> None:
    """Refuse a coalition or selectivity size below 2."""
    if k < 2:
        raise ParameterError(f"k={k} must be at least 2")


def check_float_q(q: int) -> None:
    """Refuse q above 2^53, the last exact float integer, in the real-valued
    length formulas: past it ln(1 - p) loses its digits (1 - 1/q rounds to 1
    from 2^54) and from 2^1024 q overflows a float."""
    if q > 2**53:
        raise ParameterError(f"q={q} exceeds 2^53, beyond float precision for the length formulas")


# from 2^1021 on, 2 e n, the largest float term the length formulas form from
# n, overflows a float (and from 2^1024 on n itself does)
FLOAT_N_LIMIT = 2**1021


def check_float_n(n: int) -> None:
    """Refuse n from FLOAT_N_LIMIT = 2^1021 on in the real-valued formulas."""
    if n >= FLOAT_N_LIMIT:
        raise ParameterError("n exceeds 2^1021, beyond float range for the length formulas")


def check_exact_k(k: int) -> None:
    """Refuse k above 2^14 where the survival probability is exact: past it
    that rational runs to tens of thousands of digits, and grows with k."""
    if k > 2**14:
        raise ParameterError(f"k={k} exceeds 2^14, beyond the exact survival probability's reach")


def substream(seed: int, *path) -> random.Random:
    """Independent PRNG stream derived from (seed, *path) by hashing.

    Streams for distinct paths are statistically independent, and the
    stream for a given path never changes when other paths draw more or
    fewer values.  This keeps per-column resampling reproducible.
    """
    import hashlib  # here, so that the bounds never load OpenSSL

    tag = ":".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
