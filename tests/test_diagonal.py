import numpy as np
import pytest

from fpcodes.core import MAX_N, ParameterError
from fpcodes.diagonal import build_diagonal
from fpcodes.verify import is_frameproof, is_strongly_selective


def test_binary_case_is_identity():
    m = build_diagonal(2, 4)
    assert np.array_equal(m.entries, np.eye(4, dtype=np.uint16))


def test_ternary_example():
    m = build_diagonal(3, 4)
    assert m.entries.tolist() == [[1, 0, 2, 0], [0, 1, 0, 2]]


def test_length_is_ceiling():
    for q in (2, 3, 5, 7):
        for n in range(1, 30):
            m = build_diagonal(q, n)
            assert m.t == -(-n // (q - 1)), (q, n)
            assert m.n == n


def test_columns_weight_one_unique_slots():
    for q, n in [(3, 7), (4, 10), (2, 6), (5, 13)]:
        m = build_diagonal(q, n)
        assert (np.count_nonzero(m.entries, axis=0) == 1).all()
        slots = set()
        for j in range(n):
            rows = np.nonzero(m.entries[:, j])[0]
            slot = (int(rows[0]), int(m.entries[rows[0], j]))
            assert slot not in slots
            slots.add(slot)


def test_frameproof_for_every_k():
    for q, n in [(3, 4), (2, 5), (4, 7)]:
        m = build_diagonal(q, n)
        for k in range(1, n):
            assert is_frameproof(m, k).passed, (q, n, k)


def test_strongly_selective_small():
    assert is_strongly_selective(build_diagonal(3, 4), 2).passed


def test_refuses_codes_numpy_cannot_shape():
    # ceil(n / (q - 1)) rows of n columns, past MAX_N symbols, refused
    # before the array is made
    with pytest.raises(ParameterError, match=f"a code of {5 * 10**29} rows and {10**30} columns exceeds {MAX_N}"):
        build_diagonal(3, 10**30)


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_diagonal(1, 4)
    with pytest.raises(ParameterError):
        build_diagonal(3, 0)
