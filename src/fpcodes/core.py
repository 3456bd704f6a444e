"""Core data model: q-ary code matrices, basic transforms, text I/O, the
one blocked B^T B agreement kernel of the coalition oracles and the
builders, and the raw RNG words the builders' draws replay.

A code with n codewords of length t over the alphabet {0, ..., q-1} is
stored as a t x n matrix whose columns are the codewords.  Symbol 0 plays
a special role throughout (it marks "silent" slots in the conflict
resolution reading), so transforms that touch the alphabet are explicit
about how they treat it.

The text format is read and written in row blocks of about IO_BLOCK
symbols.  A block is formatted as a grid of w + 1 bytes per symbol, w
its widest symbol's width (one uint16 token a symbol when w = 1), and
one mask drops the leading zeros of narrower symbols.  A body of
t n (w + 1) bytes is parsed as such grids at their offsets (every body
when q <= 10); any other body, or one with a grid that fails, is cut at
its line ends and scanned for its separators.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

# the exception classes live in the numpy-free `_util`; core re-exports them
from ._util import CapacityError, CodeFormatError, ConstructionError, ParameterError, check_q

MAX_Q = 1 << 16  # largest alphabet: symbols are stored as uint16
MAX_N = sys.maxsize // 2  # most uint16 columns numpy can shape, even with no rows


def _check_alphabet(q: int) -> None:
    """Refuse an alphabet a code cannot store, outside [2, MAX_Q], up front."""
    check_q(q)
    if q > MAX_Q:
        raise ParameterError(f"q={q} exceeds {MAX_Q}, the largest alphabet a code stores")


def _check_shape(t: int, n: int) -> None:
    """Refuse a t x n code numpy cannot shape, more than MAX_N symbols (as
    the reader does), before any array is sized for it."""
    if t * n > MAX_N:
        raise ParameterError(f"a code of {t} rows and {n} columns exceeds {MAX_N} symbols")


@dataclass(frozen=True, eq=False)
class CodeMatrix:
    """Immutable t x n matrix over {0, ..., q-1}, one codeword per column."""

    q: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_alphabet(self.q)
        arr = np.asarray(self.entries)
        if arr.ndim != 2:
            raise ParameterError(f"entries must be 2-dimensional, got shape {arr.shape}")
        if arr.dtype.kind not in "biu":  # bool or integer; no silent truncation of floats
            raise ParameterError(f"entries must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise ParameterError(f"entries must lie in [0, {self.q - 1}]")
        arr = np.ascontiguousarray(arr, dtype=np.uint16)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def t(self) -> int:
        """Code length (number of rows)."""
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        """Number of codewords (columns)."""
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeMatrix):
            return NotImplemented
        return self.q == other.q and self.entries.shape == other.entries.shape \
            and bool(np.array_equal(self.entries, other.entries))

    def __repr__(self) -> str:
        return f"CodeMatrix(q={self.q}, t={self.t}, n={self.n})"


def column_weight(matrix: CodeMatrix, j: int) -> int:
    """Number of nonzero entries in column j.  No negative indexing."""
    if not 0 <= j < matrix.n:
        raise IndexError(f"column index {j} out of range [0, {matrix.n})")
    return int(np.count_nonzero(matrix.entries[:, j]))


def agreements_with(entries: np.ndarray, j: int) -> np.ndarray:
    """Nonzero agreement of every column with column j (column j's own is
    its weight), read on j's support rows only, so in O(w n).  The
    resample loop's per-column count, and the tests' per-column
    reference."""
    sub = entries[np.flatnonzero(entries[:, j])]
    return np.count_nonzero(sub == sub[:, j : j + 1], axis=0)


AGREEMENT_BLOCK = 128


def _onehot(entries: np.ndarray) -> np.ndarray:
    """B, whose B^T B holds the nonzero agreement counts off the diagonal:
    one float32 0/1 row per (row, nonzero symbol) pair that occurs in at
    least two columns.  Pairs held by a single column add nothing off the
    diagonal and are dropped, so B has at most min(t(q-1), nnz/2) rows
    whatever the alphabet, and its diagonal is not the column weight.
    A count is at most its columns' weights, exact in float32 up to 2^24:
    a column of more nonzero symbols, which needs t > 2^24, is refused."""
    t, n = entries.shape
    if t > 2**24 and any(np.count_nonzero(entries[:, j]) > 2**24 for j in range(n)):
        raise ParameterError("a column holds more than 2^24 nonzero symbols, past exact float32 agreement counts")
    rows, cols = divmod(np.flatnonzero(entries), n)  # a 2-d np.nonzero is slower
    keys = (rows.astype(np.int64) << 16) | entries[rows, cols]
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    shared = counts >= 2
    index = np.cumsum(shared) - 1
    keep = shared[inv]
    b = np.zeros((int(shared.sum()), n), dtype=np.float32)
    b[index[inv[keep]], cols[keep]] = 1.0
    return b


def agreement_slabs(entries: np.ndarray):
    """(a0, slab) for each block of AGREEMENT_BLOCK columns, in order:
    slab[i, x] is the nonzero agreement of column a0 + i with column a0 + x,
    and 0 for x = i.  The upper triangle of B^T B, B from `_onehot`, a block
    of rows at a time from the block's first column on: no n x n array, and
    one slab live at a time if the caller drops its own before resuming."""
    b = _onehot(entries)
    for a0 in range(0, entries.shape[1], AGREEMENT_BLOCK):
        slab = b[:, a0 : a0 + AGREEMENT_BLOCK].T @ b[:, a0:]
        np.fill_diagonal(slab, 0)  # slab[i, i] is column a0 + i's own entry
        yield a0, slab
        del slab  # freed before the next block's product is made


def agreement_pairs(entries: np.ndarray, lam: int):
    """Every column pair (a, b), a < b, that holds the same nonzero symbol
    in more than `lam` rows, in lexicographic order.

    Read off slab[i, x], x > i, of `agreement_slabs`: memory stays that of
    one slab however many pairs are violated.
    """
    for a0, slab in agreement_slabs(entries):
        over = slab > lam
        del slab
        for i in np.flatnonzero(over.any(axis=1)).tolist():
            for x in np.flatnonzero(over[i, i + 1 :]).tolist():
                yield a0 + i, a0 + i + 1 + x


def complement(matrix: CodeMatrix) -> CodeMatrix:
    """Map every symbol s to q-1-s."""
    flipped = (matrix.q - 1) - matrix.entries.astype(np.int64)
    return CodeMatrix(matrix.q, flipped)


def stack_rows(top: CodeMatrix, bottom: CodeMatrix) -> CodeMatrix:
    """Vertically concatenate two codes on the same alphabet and n."""
    if top.q != bottom.q:
        raise ParameterError(f"alphabet mismatch: q={top.q} vs q={bottom.q}")
    if top.n != bottom.n:
        raise ParameterError(f"codeword count mismatch: n={top.n} vs n={bottom.n}")
    return CodeMatrix(top.q, np.vstack([top.entries, bottom.entries]))


def binary_expand(matrix: CodeMatrix) -> CodeMatrix:
    """Expand a q-ary code into a binary one of length q*t.

    Each symbol s in {0, ..., q-1} becomes the unit column vector with a 1
    in position s, so every expanded codeword has exactly t nonzero rows
    and row block i of size q encodes row i of the original.
    """
    t, n, q = matrix.t, matrix.n, matrix.q
    out = np.zeros((q * t, n), dtype=np.uint16)
    rows = np.arange(t, dtype=np.int64)[:, None] * q + matrix.entries.astype(np.int64)
    out[rows, np.arange(n)[None, :]] = 1
    return CodeMatrix(2, out)


# most words stream_words takes from a stream: one getrandbits call, whose
# bit count CPython reads as a C int
MAX_WORDS = (2**31 - 1) // 32


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


IO_BLOCK = 1 << 16  # symbols per row block of the text reader and writer

SPACE, NEWLINE, ZERO = 32, 10, 48


def _width(value: int) -> int:
    """Decimal digits of the nonnegative integer `value`."""
    return len(str(value))


def _zero_tokens(n: int) -> np.ndarray:
    """A row of n zeros as one-digit little-endian uint16 tokens, digit | separator << 8."""
    zeros = np.full(n, ZERO | SPACE << 8, dtype="<u2")
    zeros[-1:] = ZERO | NEWLINE << 8
    return zeros


def _write_grid(symbols: np.ndarray, width: int, zeros: np.ndarray) -> np.ndarray:
    """The text of `symbols`, a (rows, n) block whose entries have at most
    `width` digits, as a (rows, n, width + 1) uint8 grid: each token's
    digits, zero-padded on the left to `width`, then its separator; at
    width 1 the same bytes as (rows, n) uint16s, the symbols plus `zeros`."""
    if width == 1:
        return (symbols + zeros).astype("<u2", copy=False)
    out = np.full(symbols.shape + (width + 1,), SPACE, dtype=np.uint8)
    out[:, -1, width] = NEWLINE
    for d in range(width - 1, 0, -1):
        high = symbols // 10  # numpy divides by a constant fast, but not `%`
        out[:, :, d] = (symbols - high * 10 + ZERO).astype(np.uint8)
        symbols = high
    out[:, :, 0] = (symbols + ZERO).astype(np.uint8)
    return out


def write_code(matrix: CodeMatrix) -> bytes:
    """Serialize to the plain text format.

    First line is "q t n"; each of the t following lines holds n
    space-separated symbols (an empty line when n = 0); the file ends with
    a single newline.  The output is byte-exact: re-serializing a parsed
    code reproduces it.  Rows are formatted IO_BLOCK symbols at a time as
    a (rows, n, w + 1) byte grid, w the width of the block's largest
    symbol, filled a digit column at a time (at w = 1, as one uint16
    token a symbol).  When the smallest symbol is narrower (never when
    q <= 10), one boolean mask then drops the leading zeros of the
    shorter tokens.
    """
    q, t, n = matrix.q, matrix.t, matrix.n
    header = f"{q} {t} {n}\n".encode("ascii")
    if n == 0:
        return header + b"\n" * t
    parts = [header]
    step, zeros = max(1, IO_BLOCK // n), _zero_tokens(n)
    for r0 in range(0, t, step):
        symbols = matrix.entries[r0 : r0 + step]
        hi = _width(int(symbols.max()))
        out = _write_grid(symbols, hi, zeros)
        if hi > 1 and _width(int(symbols.min())) < hi:
            keep = np.ones(out.shape, dtype=bool)
            for d in range(hi - 1):  # digit d is a leading zero below 10 ** (hi - 1 - d)
                keep[..., d] = symbols >= 10 ** (hi - 1 - d)
            out = out[keep]
        parts.append(out)
    return b"".join(parts)


def _canonical(token: str, what: str, line: int) -> str:
    """`token`, checked to be canonical base-10: digits only, no sign, no
    leading zeros (except "0").  Messages quote the text, never int(token):
    Python refuses to convert integers of more than 4300 digits."""
    if not token or not token.isascii() or not token.isdigit():
        raise CodeFormatError(f"{what} {token!r} is not a nonnegative integer", line)
    if len(token) > 1 and token[0] == "0":
        raise CodeFormatError(f"{what} {token!r} has leading zeros", line)
    return token


def _at_most(token: str, bound: int) -> bool:
    """Is the canonical integer `token` at most `bound`?  Compared by width
    first, so an over-wide token is never converted."""
    return len(token) <= len(str(bound)) and int(token) <= bound


def _parse_row(raw: str, n: int, q: int, line: int) -> list[int]:
    """The n symbols of one row, token by token; the source of every row
    error message."""
    tokens = raw.split(" ") if raw else []
    if len(tokens) != n or "" in tokens:
        raise CodeFormatError(f"expected {n} symbols, got {raw!r}", line)
    for tok in tokens:
        if not _at_most(_canonical(tok, "symbol", line), q - 1):
            raise CodeFormatError(f"symbol {tok} out of range [0, {q - 1}]", line)
    return [int(tok) for tok in tokens]


def _parse_grid(block: np.ndarray, q: int, zeros: np.ndarray, out: np.ndarray) -> np.ndarray | None:
    """`out` filled with the (rows, n) symbols of `block`, exactly
    rows * n * (w + 1) bytes with 1 <= w <= the width of q - 1, read as a
    grid of w-digit tokens, or None when it is not one.  It is one when
    every (w + 1)-th byte is the right separator and every token is w
    digits, with no leading zero when w > 1, below q.  At w = 1 a token is
    one uint16 less `zeros`."""
    rows, n = out.shape
    width = block.size // out.size - 1
    if width == 1:
        # below 10 just when the digit is one and the separator right: a byte
        # below '0' borrows (wrapping round), a wrong separator leaves a high byte
        np.subtract(block.view("<u2").reshape(rows, n), zeros, out=out)
        return out if out.max() < min(q, 10) else None
    base = np.full((n, width + 1), ZERO, dtype=np.uint8)  # the byte each position is read against
    base[:, width] = SPACE
    base[-1, width] = NEWLINE
    top = np.full((n, width + 1), 9, dtype=np.uint8)
    top[:, width] = 0
    # a digit becomes its value and the right separator 0; any other byte
    # exceeds `top`, wrapping round if it is below `base`
    rel = block.reshape(rows, n, width + 1) - base
    if (rel > top).any():
        return None
    values = rel[:, :, 0].astype(np.uint32)
    for d in range(1, width):
        values = values * 10 + rel[:, :, d]
    if values.max() >= q or values.min() < 10 ** (width - 1):
        return None
    out[...] = values
    return out


def _parse_block(block: np.ndarray, q: int, out: np.ndarray) -> np.ndarray | None:
    """`out` filled with the (rows, n) symbols of `block`, the bytes of
    `rows` whole lines, or None when any of those lines breaks the format
    (the caller then re-reads them with `_parse_row` for the error).

    A well-formed block is n canonical integers below q per line, each
    followed by one separator: a space, or a newline after the n-th.  The
    block is scanned for its separators.
    """
    rows, n = out.shape
    if n == 0:
        return out if block.size == rows else None
    seps = np.flatnonzero(block - np.uint8(ZERO) >= 10)  # every byte but a digit
    if seps.size != rows * n:
        return None
    grid = block[seps].reshape(rows, n)
    if (grid[:, :-1] != SPACE).any() or (grid[:, -1] != NEWLINE).any():
        return None
    lengths = np.diff(seps, prepend=-1) - 1
    widest = int(lengths.max())
    if lengths.min() < 1 or widest > _width(q - 1):
        return None
    if ((block[seps - lengths] == ZERO) & (lengths > 1)).any():
        return None
    # cast to uint32 before scaling: 5-digit values overflow uint8 and uint16
    values = (block[seps - 1] - np.uint8(ZERO)).astype(np.uint32)
    for d in range(1, widest):
        digits = np.where(lengths > d, block[np.maximum(seps - 1 - d, 0)] - np.uint8(ZERO), 0)
        values += digits.astype(np.uint32) * 10**d
    if values.max() >= q:
        return None
    out[...] = values.reshape(rows, n)
    return out


def read_code(data: bytes) -> CodeMatrix:
    """Parse the text format produced by `write_code`, strictly.

    Any deviation (missing trailing newline, blank lines when n >= 1, extra
    spaces, wrong token counts, non-canonical integers, out-of-range
    symbols, an alphabet above MAX_Q) raises CodeFormatError with the
    offending 1-based line number; so does a codeword count above MAX_N
    in a code with no rows.  Rows are checked and converted IO_BLOCK
    symbols at a time on the byte buffer.  A body of exactly
    t * n * (w + 1) bytes is first read as grids of w-digit symbols, each
    row block sliced at its offset, with no newline located.  Otherwise,
    or when a block is no such grid, the line ends are found and each row
    block is scanned for its separators.  A block that fails the scan is
    re-read line by line by `_parse_row`, so the first bad line and its
    message are those of a plain token-by-token reader.
    """
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CodeFormatError(f"not ASCII text: {exc.reason}", data.count(b"\n", 0, exc.start) + 1) from None
    cr = data.find(b"\r")
    if cr >= 0:
        raise CodeFormatError("carriage returns are not allowed", data.count(b"\n", 0, cr) + 1)
    if not data.endswith(b"\n"):
        raise CodeFormatError("missing trailing newline", data.count(b"\n") + 1)
    head = data[: data.find(b"\n")].decode("ascii")
    header = head.split(" ")
    if len(header) != 3 or "" in header:
        raise CodeFormatError(f"header must be 'q t n', got {head!r}", 1)
    q_text = _canonical(header[0], "alphabet size", 1)
    t_text = _canonical(header[1], "length", 1)
    n_text = _canonical(header[2], "codeword count", 1)
    if not _at_most(q_text, MAX_Q):
        raise CodeFormatError(f"alphabet size {q_text} exceeds {MAX_Q}", 1)
    q = int(q_text)
    if q < 2:
        raise CodeFormatError(f"alphabet size {q} must be at least 2", 1)
    buf = np.frombuffer(data, dtype=np.uint8)
    body = buf[len(head) + 1 :]
    if _at_most(t_text, body.size) and _at_most(n_text, body.size) and int(t_text) * int(n_text):
        t, n = int(t_text), int(n_text)
        size, rest = divmod(body.size, t * n)
        if not rest and 2 <= size <= _width(q - 1) + 1:  # so `entries` takes at most the body's bytes
            entries, zeros, step = np.empty((t, n), dtype=np.uint16), _zero_tokens(n), max(1, IO_BLOCK // n)
            if all(_parse_grid(body[r0 * n * size : (r0 + step) * n * size], q, zeros, entries[r0 : r0 + step])
                   is not None for r0 in range(0, t, step)):
                return CodeMatrix(q, entries)
    # ends[i]: the newline closing line i + 1, found in cache-sized slices, not via a file-sized mask
    ends = np.concatenate([np.flatnonzero(buf[i : i + 4 * IO_BLOCK] == NEWLINE) + i
                           for i in range(0, buf.size, 4 * IO_BLOCK)])

    def line(i: int) -> str:
        return data[ends[i - 2] + 1 : ends[i - 1]].decode("ascii")

    found = ends.size - 1
    if not _at_most(t_text, found):
        raise CodeFormatError(f"expected {t_text} symbol rows, found {found}", found + 2)
    t = int(t_text)
    if not _at_most(n_text, MAX_N):
        # no row holds that many symbols, and no array that many columns
        if t:
            raise CodeFormatError(f"expected {n_text} symbols, got {line(2)!r}", 2)
        raise CodeFormatError(f"codeword count {n_text} exceeds {MAX_N}", 1)
    n = int(n_text)
    if 2 * n * t > len(data):
        # a row of n symbols takes 2n bytes, so some row is malformed: find
        # it before sizing an array by the header
        for i in range(2, t + 2):
            _parse_row(line(i), n, q, i)
    entries = np.empty((t, n), dtype=np.uint16)
    step = max(1, IO_BLOCK // max(n, 1))
    for r0 in range(0, t, step):
        r1 = min(r0 + step, t)
        if _parse_block(buf[ends[r0] + 1 : ends[r1] + 1], q, entries[r0:r1]) is None:
            entries[r0:r1] = [_parse_row(line(i), n, q, i) for i in range(r0 + 2, r1 + 2)]
    if found > t:
        raise CodeFormatError(f"expected {t} symbol rows, found {found}", t + 2)
    return CodeMatrix(q, entries)
