"""Shared helpers: tolerant ceiling, float range of q and n, reproducible RNG
substreams and their raw 32-bit words."""

import hashlib
import math
import random

import numpy as np

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


# from 2^1021 on, 2 e n, the largest float term the length formulas form from
# n, overflows a float (and from 2^1024 on n itself does)
FLOAT_N_LIMIT = 2**1021


def check_float_n(n: int) -> None:
    """Refuse n from FLOAT_N_LIMIT = 2^1021 on in the real-valued formulas."""
    if n >= FLOAT_N_LIMIT:
        raise ParameterError("n exceeds 2^1021, beyond float range for the length formulas")


def substream(seed: int, *path) -> random.Random:
    """Independent PRNG stream derived from (seed, *path) by hashing.

    Streams for distinct paths are statistically independent, and the
    stream for a given path never changes when other paths draw more or
    fewer values.  This keeps per-column resampling reproducible.
    """
    tag = ":".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def stream_words(streams, count: int) -> np.ndarray:
    """The next `count` 32-bit Mersenne Twister outputs of each stream, as a
    (len(streams), count) uint32 array; each stream is advanced past them.

    CPython's `getrandbits(32 * count)` is those words, least significant
    first.  Every draw of `random.Random` is built from whole words:
    `randrange(m)` takes one per try (value word >> (32 - m.bit_length()),
    rejected when >= m) and `random()` two, a and b, as
    ((a >> 5) 2^26 + (b >> 6)) 2^-53.  So numpy can replay the draws from
    this array bit for bit.
    """
    streams = list(streams)
    raw = b"".join(rng.getrandbits(32 * count).to_bytes(4 * count, "little") for rng in streams)
    return np.frombuffer(raw, dtype="<u4").reshape(len(streams), count)
