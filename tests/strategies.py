"""Hypothesis strategies and code families shared across test modules."""

import itertools

import numpy as np
from hypothesis import strategies as st

from fpcodes.core import CodeMatrix


@st.composite
def code_matrices(draw, min_q=2, max_q=4, min_t=1, max_t=6, min_n=2, max_n=6):
    q = draw(st.integers(min_q, max_q))
    t = draw(st.integers(min_t, max_t))
    n = draw(st.integers(min_n, max_n))
    flat = draw(st.lists(st.integers(0, q - 1), min_size=t * n, max_size=t * n))
    return CodeMatrix(q, np.array(flat, dtype=np.uint16).reshape(t, n))


@st.composite
def wide_codes(draw):
    """Codes of 65 to 130 rows (masks past one 64-bit word) with column c
    planted as a row-by-row mix of columns a and b: {a, b} covers c, so any
    set holding a and b frames c, and any set holding all three blocks c."""
    q = draw(st.integers(2, 4))
    t = draw(st.integers(65, 130))
    n = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.integers(0, q, size=(t, n), dtype=np.uint16)
    a, b, c = draw(st.permutations(range(n)))[:3]
    entries[:, c] = np.where(rng.random(t) < 0.5, entries[:, a], entries[:, b])
    return CodeMatrix(q, entries)


def kautz_singleton(p, m, points):
    """Kautz-Singleton code over GF(p), p prime: one column per polynomial
    of degree < m (p**m columns), its values at x = 0, ..., points-1 as
    rows, each symbol shifted up by one so that q = p + 1 and no entry is
    0.  Two distinct polynomials agree at most m-1 times, so the code is a
    (m-1)-agreement, weight-`points` lambda matrix and strongly k-selective
    whenever (m-1)(k-1) <= points-1."""
    coeffs = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64).T  # m x p**m
    powers = np.array([[pow(x, i, p) for i in range(m)] for x in range(points)], dtype=np.int64)
    return CodeMatrix(p + 1, (powers @ coeffs) % p + 1)


def fan(n):
    """Column 0 is all ones over 2 rows; columns 1..n-1 agree with it in
    row 0 only.  No column settles at the root for k = 2 framing or k = 3
    blocking, so the cover kernel searches every column, each node testing
    the n - 1 others.  For column 0 every other column covers row 0 and
    none row 1, so each is heavy at the root, the node through it finds
    nothing more, and no set covers.  Column 1 is covered by {0, j} for
    every j >= 2, and by any two of columns 2 to n - 1."""
    e = np.zeros((2, n), dtype=np.uint16)
    e[0] = 1
    e[1, 0] = 1
    return CodeMatrix(2, e)
