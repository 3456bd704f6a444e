import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpcodes import core
from fpcodes.core import (
    CodeFormatError,
    CodeMatrix,
    ParameterError,
    binary_expand,
    column_weight,
    complement,
    read_code,
    stack_rows,
    write_code,
)
from strategies import code_matrices


def mat(q, rows):
    return CodeMatrix(q, np.array(rows, dtype=np.uint16))


class TestCodeMatrix:
    def test_shape_and_fields(self):
        m = mat(3, [[0, 1, 2], [2, 0, 1]])
        assert (m.q, m.t, m.n) == (3, 2, 3)

    def test_rejects_small_alphabet(self):
        with pytest.raises(ParameterError):
            mat(1, [[0]])

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ParameterError):
            mat(2, [[0, 2]])

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(ParameterError):
            CodeMatrix(2, np.zeros(4, dtype=np.uint16))

    def test_entries_immutable(self):
        m = mat(2, [[0, 1]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1

    def test_equality_by_content(self):
        a = mat(3, [[0, 1], [2, 0]])
        b = mat(3, [[0, 1], [2, 0]])
        c = mat(3, [[0, 1], [2, 1]])
        assert a == b
        assert a != c
        assert a != mat(4, [[0, 1], [2, 0]])  # same entries, different alphabet

    def test_repr_and_foreign_equality(self):
        m = mat(3, [[0, 1], [2, 0]])
        assert repr(m) == "CodeMatrix(q=3, t=2, n=2)"
        assert m.__eq__(m.entries) is NotImplemented
        assert m != m.entries.tolist() and m != "CodeMatrix(q=3, t=2, n=2)"

    def test_zero_sized_dimensions_allowed(self):
        m = CodeMatrix(2, np.zeros((0, 3), dtype=np.uint16))
        assert m.t == 0 and m.n == 3

    @pytest.mark.parametrize("entries", [
        np.array([[1.5, 0.2]]),
        np.array([[1.0, 0.0]]),
        np.array([[np.nan, 1.0]]),
        np.array([["1", "0"]]),
        np.array([[1, 0]], dtype=object),
        np.zeros((0, 3)),
    ])
    def test_rejects_non_integer_entries(self, entries):
        with pytest.raises(ParameterError, match="must be integers"):
            CodeMatrix(3, entries)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint16, np.uint64])
    def test_accepts_integer_and_bool_entries(self, dtype):
        m = CodeMatrix(3, np.array([[1, 0], [0, 1]], dtype=dtype))
        assert m.entries.dtype == np.uint16 and m == mat(3, [[1, 0], [0, 1]])

    def test_rejects_alphabet_above_max_q(self):
        with pytest.raises(ParameterError, match="exceeds 65536"):
            CodeMatrix(core.MAX_Q + 1, np.zeros((1, 1), dtype=np.uint16))
        assert CodeMatrix(core.MAX_Q, np.array([[core.MAX_Q - 1]])).q == core.MAX_Q

    def test_rejects_alphabet_below_two(self):
        with pytest.raises(ParameterError, match="^q=1 must be at least 2$"):
            CodeMatrix(1, np.zeros((1, 1), dtype=np.uint16))


class TestWeights:
    def test_column_weight_counts_nonzero(self):
        m = mat(3, [[0, 1], [2, 0], [1, 0]])
        assert column_weight(m, 0) == 2
        assert column_weight(m, 1) == 1

    def test_column_weight_rejects_bad_index(self):
        m = mat(2, [[0, 1]])
        with pytest.raises(IndexError):
            column_weight(m, 2)
        with pytest.raises(IndexError):
            column_weight(m, -1)


class TestTransforms:
    def test_complement_maps_symbols(self):
        m = mat(3, [[0, 1, 2]])
        assert complement(m) == mat(3, [[2, 1, 0]])

    @given(code_matrices())
    def test_complement_involution(self, m):
        assert complement(complement(m)) == m

    def test_stack_rows(self):
        top = mat(2, [[0, 1]])
        bottom = mat(2, [[1, 0], [1, 1]])
        stacked = stack_rows(top, bottom)
        assert stacked == mat(2, [[0, 1], [1, 0], [1, 1]])

    def test_stack_rows_mismatch(self):
        with pytest.raises(ParameterError):
            stack_rows(mat(2, [[0, 1]]), mat(3, [[0, 1]]))
        with pytest.raises(ParameterError):
            stack_rows(mat(2, [[0, 1]]), mat(2, [[0]]))

    def test_binary_expand_unit_vectors(self):
        m = mat(3, [[0, 1, 2]])
        e = binary_expand(m)
        assert e.q == 2 and e.t == 3
        assert e == mat(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @given(code_matrices())
    def test_binary_expand_invariants(self, m):
        e = binary_expand(m)
        assert e.q == 2
        assert e.t == m.q * m.t
        # every expanded column has weight t: one unit block per original row
        assert (np.count_nonzero(e.entries, axis=0) == m.t).all()
        # block i row m.entries[i, j] must hold the 1
        for i in range(m.t):
            block = e.entries[i * m.q : (i + 1) * m.q, :]
            for j in range(m.n):
                assert block[int(m.entries[i, j]), j] == 1
                assert int(block[:, j].sum()) == 1


def reference_write_code(matrix):
    """The per-symbol writer `write_code` replaced, kept as the byte-exact
    reference."""
    lines = [f"{matrix.q} {matrix.t} {matrix.n}"]
    for row in matrix.entries:
        lines.append(" ".join(str(int(s)) for s in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_int(token, what, line):
    if not token or not token.isascii() or not token.isdigit():
        raise CodeFormatError(f"{what} {token!r} is not a nonnegative integer", line)
    if token != str(int(token)):
        raise CodeFormatError(f"{what} {token!r} has leading zeros", line)
    return int(token)


def reference_read_code(data):
    """The token-by-token reader the row-block `read_code` replaced, with its
    three rule changes: q above 65536 is a line-1 error, an empty row is
    the row of a code with n = 0, and with no rows n above MAX_N is a
    line-1 error."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CodeFormatError(f"not ASCII text: {exc.reason}", data.count(b"\n", 0, exc.start) + 1) from None
    if "\r" in text:
        raise CodeFormatError("carriage returns are not allowed", text[: text.index("\r")].count("\n") + 1)
    if not text.endswith("\n"):
        raise CodeFormatError("missing trailing newline", max(1, text.count("\n") + 1))
    lines = text.split("\n")[:-1]
    header = lines[0].split(" ")
    if len(header) != 3 or any(tok == "" for tok in header):
        raise CodeFormatError(f"header must be 'q t n', got {lines[0]!r}", 1)
    q = _reference_int(header[0], "alphabet size", 1)
    t = _reference_int(header[1], "length", 1)
    n = _reference_int(header[2], "codeword count", 1)
    if q < 2:
        raise CodeFormatError(f"alphabet size {q} must be at least 2", 1)
    if q > 65536:
        raise CodeFormatError(f"alphabet size {q} exceeds 65536", 1)
    if len(lines) - 1 < t:
        raise CodeFormatError(f"expected {t} symbol rows, found {len(lines) - 1}", len(lines) + 1)
    if t == 0 and n > core.MAX_N:
        raise CodeFormatError(f"codeword count {n} exceeds {core.MAX_N}", 1)
    rows = []
    for i, raw in enumerate(lines[1 : t + 1], start=2):
        tokens = raw.split(" ") if raw else []
        if len(tokens) != n or any(tok == "" for tok in tokens):
            raise CodeFormatError(f"expected {n} symbols, got {raw!r}", i)
        row = []
        for tok in tokens:
            s = _reference_int(tok, "symbol", i)
            if s >= q:
                raise CodeFormatError(f"symbol {s} out of range [0, {q - 1}]", i)
            row.append(s)
        rows.append(row)
    if len(lines) - 1 > t:
        raise CodeFormatError(f"expected {t} symbol rows, found {len(lines) - 1}", t + 2)
    return CodeMatrix(q, np.array(rows, dtype=np.uint16).reshape(t, n))


def outcome(reader, data):
    """The code `reader` returns for `data`, or the (line, message) of its
    CodeFormatError."""
    try:
        return reader(data)
    except CodeFormatError as err:
        return err.line, str(err)


UNIFORM_Q = [11, 100, 1000, 10000, 65536]  # q - 1 of width 2, 2, 3, 4, 5


def uniform_code(q, t, n, seed):
    """A random t x n code over q whose symbols all have the width of q - 1."""
    low = 10 ** (len(str(q - 1)) - 1)
    return CodeMatrix(q, np.random.default_rng(seed).integers(low, q, size=(t, n)))


def calls(mp, name):
    """Patch core.`name` to record each call; the list of (args, result)."""
    results, fn = [], getattr(core, name)

    def recorded(*args):
        results.append((args, fn(*args)))
        return results[-1][1]

    mp.setattr(core, name, recorded)
    return results


@st.composite
def edited_files(draw):
    """A valid code file, q up to 65536, after one to three edits: a byte
    substituted, inserted or deleted, or a run of digits inserted."""
    q = draw(st.sampled_from([2, 3, 10, 11, 100, 101, 1000, 65535, 65536]))
    m = draw(code_matrices(min_q=q, max_q=q, min_t=0, max_t=5, min_n=0, max_n=5))
    data = bytearray(write_code(m))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        piece = draw(st.one_of(st.sampled_from([bytes([c]) for c in b" \n-0123456789\r\xff"]),
                               st.text("0123456789", min_size=2, max_size=10).map(str.encode)))
        kind = draw(st.sampled_from(["substitute", "insert", "delete"]))
        if kind == "insert":
            data[i:i] = piece
        elif i < len(data):
            data[i : i + 1] = piece[:1] if kind == "substitute" else b""
    return bytes(data)


@st.composite
def substituted_files(draw):
    """A valid code file whose symbols all have one width w, so that its
    row blocks are one-width grids, after one to three edits that keep its
    length: a separator made a digit, a digit made a space, "/" or ":" (the
    bytes either side of the digits), a symbol's first digit made 0, or a
    symbol made a w-digit one of at least q."""
    q = draw(st.sampled_from([2, 3, 10, 11, 100, 101, 1000, 65535, 65536]))
    w = draw(st.integers(1, len(str(q - 1))))
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    low = 10 ** (w - 1) if w > 1 else 0
    flat = draw(st.lists(st.integers(low, min(q, 10**w) - 1), min_size=t * n, max_size=t * n))
    data = bytearray(write_code(CodeMatrix(q, np.array(flat, dtype=np.uint16).reshape(t, n))))
    start = data.index(b"\n") + 1
    for _ in range(draw(st.integers(1, 3))):
        at = start + draw(st.integers(0, t * n - 1)) * (w + 1)  # a symbol's first byte
        kind = draw(st.sampled_from(["separator", "digit", "leading zero", "too big"]))
        if kind == "separator":
            data[at + w] = draw(st.sampled_from(b"0123456789"))
        elif kind == "digit":
            data[at + draw(st.integers(0, w - 1))] = draw(st.sampled_from(b" /:"))
        elif kind == "leading zero":
            data[at] = ord("0")
        elif q < 10**w:
            data[at : at + w] = str(draw(st.integers(q, 10**w - 1))).encode()
    return bytes(data)


@st.composite
def regridded_files(draw):
    """A valid code file whose symbols all have one width w, after one to
    three edits that keep its body at exactly t * n * (w + 1) bytes but
    break its row layout: a row's newline swapped with a space of the next
    row, or one token widened by a digit and another narrowed by one."""
    q = draw(st.sampled_from([2, 3, 10, 11, 100, 101, 1000, 65535, 65536]))
    w = draw(st.integers(1, len(str(q - 1))))
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    low = 10 ** (w - 1) if w > 1 else 0
    flat = draw(st.lists(st.integers(low, min(q, 10**w) - 1), min_size=t * n, max_size=t * n))
    data = bytearray(write_code(CodeMatrix(q, np.array(flat, dtype=np.uint16).reshape(t, n))))
    start = data.index(b"\n") + 1
    kinds = (["newline"] if t > 1 and n > 1 else []) + (["widen"] if t * n > 1 else [])
    for _ in range(draw(st.integers(1, 3)) if kinds else 0):
        if draw(st.sampled_from(kinds)) == "newline":
            ends = [i for i in range(start, len(data)) if data[i] == ord("\n")]
            swaps = [(end, i) for end, after in zip(ends, ends[1:]) for i in range(end + 1, after) if data[i] == ord(" ")]
            if swaps:
                end, i = draw(st.sampled_from(swaps))
                data[end], data[i] = data[i], data[end]
        else:
            # token starts: the body's first byte and every byte after a separator
            starts = [start] + [i + 1 for i in range(start, len(data) - 1) if data[i] in b" \n"]
            if len(starts) > 1:
                wide, narrow = draw(st.permutations(starts))[:2]
                for at in sorted((wide, narrow), reverse=True):  # the later edit first
                    if at == narrow:
                        del data[at]
                    else:
                        data[at:at] = draw(st.sampled_from([b"0", b"1", b"9"]))
    return bytes(data)


WIDE = b"1" * 5000  # past the 4300 digits Python converts with int()

# input -> (line, message) of the CodeFormatError read_code raises
MALFORMED = {
    b"": (1, "missing trailing newline"),
    b"3 2 4": (1, "missing trailing newline"),
    b"3 2 4\n1 0 2 0\n0 1 0 2": (3, "missing trailing newline"),  # on the last row
    b"3 x 4\n": (1, "length 'x' is not a nonnegative integer"),
    b"03 2 4\n1 0 2 0\n0 1 0 2\n": (1, "alphabet size '03' has leading zeros"),
    b"3 2\n": (1, "header must be 'q t n', got '3 2'"),
    b"3 2 4 9\n": (1, "header must be 'q t n', got '3 2 4 9'"),
    b"1 1 1\n0\n": (1, "alphabet size 1 must be at least 2"),
    b"70000 1 1\n5\n": (1, "alphabet size 70000 exceeds 65536"),
    b"100000 1 1\n70000\n": (1, "alphabet size 100000 exceeds 65536"),
    b"65537 1 1\n0\n": (1, "alphabet size 65537 exceeds 65536"),
    b"3 2 4\n1 0 2 0\n": (3, "expected 2 symbol rows, found 1"),
    b"3 1 4\n1 0 2 0\n0 1 0 2\n": (3, "expected 1 symbol rows, found 2"),
    b"3 2 4\n1 0 2\n0 1 0 2\n": (2, "expected 4 symbols, got '1 0 2'"),
    b"3 2 4\n1 0 2 0 0\n0 1 0 2\n": (2, "expected 4 symbols, got '1 0 2 0 0'"),
    b"2 1 100000000000\n0\n": (2, "expected 100000000000 symbols, got '0'"),  # n too big to allocate
    b"3 2 4\n1 0 3 0\n0 1 0 2\n": (2, "symbol 3 out of range [0, 2]"),
    b"12 1 3\n1 123 2\n": (2, "symbol 123 out of range [0, 11]"),
    b"65536 1 1\n4294967296\n": (2, "symbol 4294967296 out of range [0, 65535]"),  # 2**32
    # a block of exactly rows * n * (w + 1) bytes, w = 1, that is no grid
    b"11 2 3\n10 10 1\n1 1\n": (3, "expected 3 symbols, got '1 1'"),
    b"12 1 3\n1 011 2\n": (2, "symbol '011' has leading zeros"),
    b"12 1 3\n1 01 2\n": (2, "symbol '01' has leading zeros"),
    b"3 2 4\n1 0 -1 0\n0 1 0 2\n": (2, "symbol '-1' is not a nonnegative integer"),
    b"3 1 4\n1 0-1 0\n": (2, "expected 4 symbols, got '1 0-1 0'"),
    b"3 2 4\n1  0 2 0\n0 1 0 2\n": (2, "expected 4 symbols, got '1  0 2 0'"),
    b"1000 1 3\n5  7\n": (2, "expected 3 symbols, got '5  7'"),  # empty token, right token count
    b"3 2 4\n1 0 2 0 \n0 1 0 2\n": (2, "expected 4 symbols, got '1 0 2 0 '"),
    b"3 2 4\n1 0 2 0\n\n0 1 0 2\n": (3, "expected 4 symbols, got ''"),  # blank line
    b"3 2 0\n\n1\n": (3, "expected 0 symbols, got '1'"),
    b"3 2 4\r\n1 0 2 0\n0 1 0 2\n": (1, "carriage returns are not allowed"),
    b"3 2 2\n0 1\n1 \xc3\xa9\n": (3, "not ASCII text: ordinal not in range(128)"),  # the byte's own line
    # tokens too long for int(): rejected by their width, quoted as text
    b"2 1 1\n" + WIDE + b"\n": (2, f"symbol {WIDE.decode()} out of range [0, 1]"),
    WIDE + b" 1 1\n0\n": (1, f"alphabet size {WIDE.decode()} exceeds 65536"),
    b"2 " + WIDE + b" 1\n0\n": (3, f"expected {WIDE.decode()} symbol rows, found 1"),
    b"2 1 " + WIDE + b"\n0\n": (2, f"expected {WIDE.decode()} symbols, got '0'"),
    b"2 0 " + WIDE + b"\n": (1, f"codeword count {WIDE.decode()} exceeds {core.MAX_N}"),
    f"2 0 {core.MAX_N + 1}\n".encode(): (1, f"codeword count {core.MAX_N + 1} exceeds {core.MAX_N}"),
}


class TestTextFormat:
    def test_write_exact_bytes(self):
        m = mat(3, [[1, 0, 2, 0], [0, 1, 0, 2]])
        assert write_code(m) == b"3 2 4\n1 0 2 0\n0 1 0 2\n"

    @given(st.sampled_from([2, 3, 10, 11, 1000, 65536]).flatmap(
        lambda q: code_matrices(min_q=q, max_q=q, min_t=0, max_t=8, min_n=0, max_n=8)))
    def test_round_trip_bit_exact(self, m):
        data = write_code(m)
        assert data == reference_write_code(m)
        back = read_code(data)
        assert back == m
        assert write_code(back) == data

    @pytest.mark.parametrize("q", [2, 11, 1000, 65536])
    def test_round_trip_across_row_blocks(self, q):
        # 40 x 3000 spans two row blocks; symbols of every width up to q's
        rng = np.random.default_rng(q)
        widths = rng.integers(0, len(str(q - 1)), size=(40, 3000))
        entries = np.minimum(rng.integers(1, 10, size=(40, 3000)) * 10**widths, q - 1)
        m = CodeMatrix(q, entries)
        data = write_code(m)
        assert data == reference_write_code(m)
        assert read_code(data) == m

    @pytest.mark.parametrize("q", UNIFORM_Q)
    def test_round_trip_uniform_width(self, q):
        # 40 x 3000 spans two row blocks, each a grid of one width
        m = uniform_code(q, 40, 3000, q)
        data = write_code(m)
        assert data == reference_write_code(m)
        assert read_code(data) == m
        assert reference_read_code(data) == m

    @pytest.mark.parametrize("q", UNIFORM_Q)
    def test_grid_and_scatter_blocks_in_one_file(self, q):
        # rows 4 and 9 mix widths, the others are one width, so a few
        # symbols per row block give one-width blocks, written as grids,
        # and mixed blocks, whose leading zeros are masked out on writing;
        # the body is no grid's length, so every block is scanned for its
        # separators on reading
        entries = uniform_code(q, 12, 3, q).entries.copy()
        entries[4, 1] = 1
        entries[9, 0] = 0
        m = CodeMatrix(q, entries)
        data = reference_write_code(m)
        for block in range(1, 13):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "IO_BLOCK", block)
                grids = calls(mp, "_write_grid")
                parsed = calls(mp, "_parse_grid")
                scanned = calls(mp, "_parse_block")
                assert write_code(m) == data
                assert read_code(data) == m
            mixed = [len(str(symbols.min())) < width for (symbols, width, _), _ in grids]
            assert any(mixed) and not all(mixed)
            assert not parsed and scanned and all(p is not None for _, p in scanned)

    @pytest.mark.parametrize("q", [11, 101, 1001, 10001, 65536])
    def test_width_boundaries(self, q):
        # the symbols either side of each power of ten below q, as one row
        # and as one column, so row blocks of every size cut between them
        values = [v for v in (0, 9, 10, 99, 100, 999, 1000, 9999, 10000, q - 1) if v < q]
        for entries in ([values], [[v] for v in values]):
            m = mat(q, entries)
            data = reference_write_code(m)
            for block in range(1, len(values) + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(core, "IO_BLOCK", block)
                    assert write_code(m) == data
                    assert read_code(data) == m

    def test_grid_sized_block_of_mixed_widths(self):
        # widths 1, 3 and 2 fill rows * n * (w + 1) bytes for w = 2
        data = b"1000 1 3\n5 123 10\n"
        assert read_code(data) == mat(1000, [[5, 123, 10]])
        assert write_code(read_code(data)) == data

    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_zero_columns_round_trip(self, t):
        m = CodeMatrix(3, np.zeros((t, 0), dtype=np.uint16))
        data = write_code(m)
        assert data == b"3 %d 0\n" % t + b"\n" * t
        assert read_code(data) == m

    def test_reads_minimal_code(self):
        m = read_code(b"2 1 1\n0\n")
        assert (m.q, m.t, m.n) == (2, 1, 1)

    @pytest.mark.parametrize("data,line", [(data, line) for data, (line, _) in MALFORMED.items()])
    def test_malformed_inputs(self, data, line):
        with pytest.raises(CodeFormatError) as err:
            read_code(data)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {MALFORMED[data][1]}"

    def test_header_far_past_the_body(self):
        # t and n each within the body's length, t * n symbols (80 GB as
        # uint16s) far past it: the error is found before an array is sized
        with pytest.raises(CodeFormatError) as err:
            read_code(b"2 200000 200000\n" + b"0\n" * 100000)
        assert err.value.line == 100002
        assert str(err.value) == "line 100002: expected 200000 symbol rows, found 100000"

    def test_non_ascii_rejected(self):
        with pytest.raises(CodeFormatError):
            read_code("3 2 4 \n".encode("utf-8"))
        with pytest.raises(CodeFormatError):
            read_code(b"\xff\xfe3 2 4\n")

    @given(st.one_of(edited_files(), substituted_files()))
    def test_matches_reference_reader(self, data):
        assert outcome(read_code, data) == outcome(reference_read_code, data)

    @given(st.one_of(edited_files(), substituted_files()), st.integers(1, 12))
    def test_matches_reference_reader_small_blocks(self, data, block):
        # a few symbols per row block, so that edits land on block edges
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "IO_BLOCK", block)
            assert outcome(read_code, data) == outcome(reference_read_code, data)

    @given(regridded_files())
    def test_regridded_matches_reference_reader(self, data):
        # the body has a grid's length, so it is first read at fixed offsets
        assert outcome(read_code, data) == outcome(reference_read_code, data)

    @given(regridded_files(), st.integers(1, 12))
    def test_regridded_matches_reference_reader_small_blocks(self, data, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "IO_BLOCK", block)
            assert outcome(read_code, data) == outcome(reference_read_code, data)

    @pytest.mark.parametrize("tail", [b"\n", b"1\n", b"11\n"])
    def test_grid_rows_then_a_short_tail(self, tail):
        # t * n * (w + 1) bytes of valid rows, then fewer than t * n more:
        # at one row a block, the rows alone would read as grids
        data = b"3 2 2\n0 1\n1 0\n" + tail
        for block in (1, 2, 4, core.IO_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "IO_BLOCK", block)
                assert outcome(read_code, data) == outcome(reference_read_code, data)
                assert outcome(read_code, data)[0] == 4

    @pytest.mark.parametrize("q,low", [(2, 0), (3, 0), (10, 0), (100, 10)])
    @pytest.mark.parametrize("block", [7, core.IO_BLOCK])
    def test_one_width_file_locates_no_line_end(self, q, low, block):
        # a valid one-width body is read at its rows' offsets: neither the
        # separator scan nor the token-by-token reader is reached
        m = CodeMatrix(q, np.random.default_rng(q).integers(low, q, size=(40, 3000 if block > 7 else 5)))
        data = write_code(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "IO_BLOCK", block)
            for name in ("_parse_block", "_parse_row"):
                mp.setattr(core, name, lambda *args, name=name: pytest.fail(f"{name} called"))
            parsed = calls(mp, "_parse_grid")
            assert read_code(data) == m
        assert len(parsed) >= 2 and all(p is not None for _, p in parsed)

    @pytest.mark.parametrize("q", [2, 3, 10, 11, 256, 65536])
    def test_round_trip_one_digit_tokens(self, q):
        # symbols 0-9 only, whatever q: every block is written and read as
        # uint16 tokens, over two row blocks, from an odd or even offset
        m = CodeMatrix(q, np.random.default_rng(q).integers(0, min(q, 10), size=(40, 3000)))
        data = write_code(m)
        assert data == reference_write_code(m)
        assert read_code(data) == m
        assert write_code(read_code(data)) == data
