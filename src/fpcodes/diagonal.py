"""Deterministic diagonal construction.

The code of length d = ceil(n/(q-1)) has exactly one nonzero entry per
column: column j holds symbol (j div d) + 1 in row j mod d.  Columns
sharing a row carry distinct symbols, so no column can ever be covered by
others and the code is k-frameproof for every k <= n-1.  The length is
optimal up to the q * t >= n counting bound for weight-1 codes.
"""

from __future__ import annotations

import numpy as np

from .core import CodeMatrix, ParameterError, _check_alphabet, _check_shape


def build_diagonal(q: int, n: int) -> CodeMatrix:
    """Weight-1 frameproof code with t = ceil(n/(q-1)) rows."""
    _check_alphabet(q)
    if q < 2:
        raise ParameterError(f"q={q} must be at least 2")
    if n < 1:
        raise ParameterError(f"n={n} must be positive")
    depth = -(-n // (q - 1))
    _check_shape(depth, n)
    entries = np.zeros((depth, n), dtype=np.uint16)
    j = np.arange(n)
    entries[j % depth, j] = j // depth + 1
    return CodeMatrix(q, entries)
