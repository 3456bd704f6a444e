"""Shared helpers: tolerant ceiling, float range of q, reproducible RNG substreams."""

import hashlib
import math
import random

from .core import ParameterError

# Absolute nudge applied before ceiling so that values sitting a hair above
# an integer because of float roundoff do not get bumped to the next one.
CEIL_TOL = 1e-9


def ceil_tol(x: float) -> int:
    """Ceiling with a small downward nudge against float noise."""
    if not math.isfinite(x):
        raise OverflowError(f"cannot take ceiling of {x!r}")
    return math.ceil(x - CEIL_TOL)


def check_float_q(q: int) -> None:
    """Refuse q above 2^53, the last exact float integer, in the real-valued
    length formulas: past it ln(1 - p) loses its digits (1 - 1/q rounds to 1
    from 2^54) and from 2^1024 q overflows a float."""
    if q > 2**53:
        raise ParameterError(f"q={q} exceeds 2^53, beyond float precision for the length formulas")


def substream(seed: int, *path) -> random.Random:
    """Independent PRNG stream derived from (seed, *path) by hashing.

    Streams for distinct paths are statistically independent, and the
    stream for a given path never changes when other paths draw more or
    fewer values.  This keeps per-column resampling reproducible.
    """
    tag = ":".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
