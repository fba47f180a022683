"""CSV rows as bytes: `%`-templates of `%.17g` fields over float tables.

A table is formatted in blocks of at most BLOCK_CELLS cells.  A table of
at least KERNEL_MIN_CELLS cells goes through a NumPy kernel that writes,
for a whole block at once, exactly the bytes of `line % row` for every
row.  `percent_block`, one `%` operation per block, formats a smaller
table, a template with other fields or text before its first field, and
the rows of a block that hold a cell the kernel does not print.

Blocks numbers the blocks of every table a command writes, across all
its files, in write order.  Once its kernel tables hold _FORK_MIN_CELLS
cells and forked.may_fork allows, one forked worker formats the odd
blocks and streams them down a pipe while the caller formats the even
ones and writes every block in order; either process formats a block
with the same code, so the bytes are the same whichever process formats
it, and the same as in one process.  Consecutive tables with the same
template and row capacity, such as lell's and lbell's, share one kernel.

The kernel prints a block one of two ways.  A block of a one-field
template whose cells are nondecreasing integers in [0, 1e16), never
-0.0, such as data.csv's converged tail of k values, prints as integer
rows: each cell's digits, from integer division, then the template's
literal, one byte grid per run of cells with the same number of digits,
taken whole; a table all of whose blocks print so builds no slots.  Any
other block goes through slots of fixed width, one per cell: a mask per
layout class zeroes the bytes `%` does not print, and bytes.translate
deletes the zeros, as no printed byte is NUL.

The slots hold each `%.17g` cell's 17 significant digits, computed
exactly, for the cells `%.17g` prints in fixed point: zero, or
1e-4 <= |x| < 1e17.  For x with decimal exponent X = floor(log10 |x|),
-4 <= X <= 16, they are the integer N = round-half-even(|x| 10^(16 - X)),
which `%g` prints with the point after digit X (or after "0." and -X - 1
zeros), trailing zeros stripped.  10^(16 - X) is one of 10^0 .. 10^20,
each a double, and |x| 10^(16 - X) is formed exactly by Dekker's
two-product, so N and its ties are exact.  Zeros print as `0` and `-0`,
and every other integer-valued x as `%d` prints it.  Every maximal run of
rows that holds another cell, printed in e-notation, or NaN or an
infinity, goes to `percent_block`.
"""

from __future__ import annotations

import functools

import numpy as np

from .forked import Worker, may_fork

# Cells per block, on either path, of a template whose literals are at
# most 4 bytes long; _block_rows gives a template with longer literals
# proportionally fewer rows per block.  The kernel's work arrays take
# some 100 bytes per cell: blocks of 8192 cells raised the peak memory of a
# 2e4-row export by 2.5-3 MB, and rows cut by field count alone (4096, not
# 1890, per block of data.csv's integer-row tail; 2048, not 1365, of
# convergence.csv) raised it by 1.2-1.9 MB, in the caller and its worker.
BLOCK_CELLS = 4096

# Tables of fewer cells are formatted by `%` alone.  Below about 700
# cells the kernel's set-up per table costs more than it saves (0.35 ms
# against 0.27 ms for `%` on 512 cells of five columns, x86-64).
KERNEL_MIN_CELLS = 1024

# Cells of kernel tables below which a command's CSV files are formatted
# in one process.  Forking costs ~1.5-2 ms in a 50 MB process; on a 2-CPU
# Xeon VM one worker broke even at ~40 000 cells of sweep-export's tables
# and saved 1.3 ms at 60 000 and 5.9 ms at 180 000.
_FORK_MIN_CELLS = 50_000

# The bytes of one cell's slot: a sign, the "0.000" prefix of small
# numbers, then the 17 digits at even offsets from _DIGITS, each followed
# by a decimal point.  The text after the field starts at _SLOT.  A keep
# mask per layout class picks the bytes `%` prints.
_SLOT = 40
_DIGITS = 6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant

# Layout classes of a cell: ((X + 4) * 17 + 16 - trailing zeros) * 2 + sign.
_CLASSES = 21 * 17 * 2

# 10^1 .. 10^16: an integer below 10^d has at most d digits.
_TENS = 10 ** np.arange(1, 17, dtype=np.int64)


def percent_block(line: str, block: np.ndarray) -> bytes:
    """The rows of `block` through the `%`-template `line`, as ASCII bytes."""
    return ((line * len(block)) % tuple(block.ravel().tolist())).encode("ascii")


class Blocks:
    """The blocks of every table of several CSV files, formatted in order.

    `files` holds, per file, its (line, table) pairs: `line` is the
    %-template of one row and `table` a 2-D array with one column per
    field.  Each table is cut into blocks of _block_rows rows, at most
    BLOCK_CELLS cells, so a template with a long literal, such as
    data.csv's converged tail, whose one field carries the three bound
    limits, gets fewer rows per block.  The blocks are
    numbered across every file in write order; file(i) yields file i's
    bytes, block by block.  A table's first block that does not print as
    integer rows takes the kernel its template and row capacity need, kept
    from the table before when they match.  Entered as a context, once
    the tables of at least KERNEL_MIN_CELLS cells hold _FORK_MIN_CELLS
    cells or more and forked.may_fork allows, a forked.Worker formats the
    odd blocks while the caller formats the even ones, and file(i) yields
    an odd block as the worker sent it, whatever its length.  Either
    process formats a block with the same code, so the bytes do not
    depend on which one did.
    """

    def __init__(self, files: list[list[tuple[str, np.ndarray]]]):
        # (line, table, rows per block, literals) of every table, in write
        # order; literals is None where the kernel does not cover the table.
        self.tables = []
        # (table number, first row) of every block, and each file's blocks.
        self.index: list[tuple[int, int]] = []
        self.files: list[range] = []
        for tables in files:
            first = len(self.index)
            for line, table in tables:
                literals = _literals(line, table.shape[1])
                rows = _block_rows(literals or [], table.shape[1])
                if table.size < KERNEL_MIN_CELLS or table.dtype != np.float64:
                    literals = None
                self.index += [(len(self.tables), start) for start in range(0, len(table), rows)]
                self.tables.append((line, table, rows, literals))
            self.files.append(range(first, len(self.index)))
        # The (literals, rows) of the kernel built last, and that kernel.
        self.kernel = (None, None)
        self.worker = Worker(self.format, len(self.index))

    def __enter__(self):
        cells = sum(table.size for _, table, _, _ in self.tables if table.size >= KERNEL_MIN_CELLS)
        if may_fork(len(self.index), cells, _FORK_MIN_CELLS):
            _tables()  # built once, for both processes
            self.worker.fork()
        return self

    def __exit__(self, *exc) -> None:
        self.worker.__exit__()

    def file(self, i: int):
        """Yield the bytes of every row of file i's tables, in order, one
        block or part of a block at a time; a block from the worker is a
        memoryview, valid until the next is asked for."""
        for b in self.files[i]:
            block = self.worker.take(b)
            yield from self.format(b) if block is None else (block,)

    def format(self, b: int) -> list[bytes]:
        """The bytes of block b, in pieces: as integer rows or through the
        kernel where the table and template allow it, with `%` for every
        run of rows that holds a cell the kernel does not print."""
        t, start = self.index[b]
        line, table, rows, literals = self.tables[t]
        block = table[start : start + rows]
        if not literals:
            return [percent_block(line, block)]
        if len(literals) == 1:
            pieces = _integer_rows(block[:, 0], literals[0])
            if pieces is not None:
                return pieces
        key = (literals, min(rows, len(table)))
        if self.kernel[0] != key:
            self.kernel = (key, _Kernel(*key))
        kernel = self.kernel[1]
        a = np.abs(block)
        if a.min() >= 1e-4 and a.max() < 1e17:  # false on NaN
            return kernel.format(block)
        # The rows that hold another cell, from its flat index: a
        # (rows, fields) mask reduced over fields costs ~4x as much.
        out = np.zeros(len(block), dtype=bool)
        out[np.flatnonzero((a != 0.0) & ~((1e-4 <= a) & (a < 1e17))) // block.shape[1]] = True
        cuts = [0, *(np.flatnonzero(out[1:] != out[:-1]) + 1).tolist(), len(block)]
        pieces = []
        for s, e in zip(cuts[:-1], cuts[1:]):
            pieces += [percent_block(line, block[s:e])] if out[s] else kernel.format(block[s:e])
        return pieces


def _literals(line: str, fields: int) -> list[bytes] | None:
    """The literal text after each of `line`'s `fields` `%.17g` fields, or
    None when the kernel does not cover the template: text before its first
    field, another field, or a NUL, which the kernel would delete."""
    parts = line.split("%.17g")
    literals = [text.encode("ascii") for text in parts[1:]]
    if parts[0] or len(literals) != fields or any(b"%" in text or b"\0" in text for text in literals):
        return None
    return literals


def _words(n: int) -> int:
    """n bytes rounded up to whole 8-byte words."""
    return -(-n // 8) * 8


def _block_rows(literals, fields: int) -> int:
    """Rows per block of a template: BLOCK_CELLS cells of 48 bytes, where
    each field counts 44 bytes and the longest literal, in whole words.

    These are the block sizes at which _FORK_MIN_CELLS and the peak memory
    of large exports were measured; counting a field's _slot_width bytes
    instead would move them (2048 rows of a two-field table to 1706)."""
    return max(1, BLOCK_CELLS * 48 // (max(1, fields) * _words(44 + max(map(len, literals), default=0))))


def _slot_width(literals) -> int:
    """Bytes of one cell in the kernel's grid: its _SLOT bytes and the
    template's longest literal, in whole words."""
    return _words(_SLOT + max(map(len, literals), default=0))


class _Kernel:
    """The kernel for one template, with a byte grid for up to `rows` rows.

    Each cell's slot is filled in place, its unprinted bytes are zeroed by
    the mask of its layout class, and the block's bytes go out with every
    zero deleted.  Every field's slot is as wide as the template's longest
    literal needs, so one (rows, fields, width) view fills and masks all
    fields of a block at once.  Slots of per-field widths were measured
    slower (convergence.csv's at 72 and 48 bytes against 72 and 72, in
    slots that also held an exponent): the bytes they save are worth less
    than filling and masking fields of unequal strides costs, where
    NumPy's inner loops run over a row's two fields instead of a block's
    cells.
    """

    def __init__(self, literals: list[bytes], rows: int):
        fields = len(literals)
        width = _slot_width(literals)
        self.grid = np.zeros((rows, fields, width), dtype=np.uint8)
        self.grid[:, :, 0] = ord("-")
        self.grid[:, :, 1:_DIGITS] = np.frombuffer(b"0.000", dtype=np.uint8)
        masks = np.zeros((fields, _CLASSES, width), dtype=np.uint8)
        masks[:, :, :_SLOT] = _tables()["masks"]
        for f, text in enumerate(literals):
            self.grid[:, f, _SLOT : _SLOT + len(text)] = np.frombuffer(text, dtype=np.uint8)
            masks[f, :, _SLOT : _SLOT + len(text)] = 0xFF
        # One row of 64-bit words per (field, class), taken whole.
        self.masks = masks.view(np.uint64).reshape(fields * _CLASSES, width // 8)
        self.class_base = np.arange(fields) * _CLASSES

    def format(self, block: np.ndarray) -> list[bytes]:
        """The bytes of `line % row` for every row of `block`, whose cells
        are all zero or 1e-4 <= |x| < 1e17, through the slots."""
        classes = self._fill(block)
        # Zero every byte `%` does not print, then delete the zeros: no
        # printed byte is NUL.
        kept = np.take(self.masks, classes, axis=0)
        kept &= self.grid[: len(block)].view(np.uint64)
        return [kept.tobytes().translate(None, b"\0")]

    def _fill(self, block: np.ndarray) -> np.ndarray:
        """Write each cell's digits into the grid and return its mask row."""
        t = _tables()
        N, X = _g17(block)
        head, c1, c2, c3, c4 = _chunks(N)
        cls = (X + 4) * 34 + 32 - np.take(t["zeros2"], c4) + np.signbit(block)
        fix = np.flatnonzero(c4 == 0)
        if fix.size:
            high = np.take(t["zeros2"], c1.flat[fix])
            high = np.take(t["zeros2"], c2.flat[fix]) + (c2.flat[fix] == 0) * high
            cls.flat[fix] -= np.take(t["zeros2"], c3.flat[fix]) + (c3.flat[fix] == 0) * high

        grid = self.grid[: len(block)]
        grid.view(np.uint16)[:, :, _DIGITS // 2] = np.take(t["lead"], head)
        words = grid.view(np.uint64)
        words[:, :, 1] = np.take(t["quad"], c1)
        words[:, :, 2] = np.take(t["quad"], c2)
        words[:, :, 3] = np.take(t["quad"], c3)
        words[:, :, 4] = np.take(t["quad"], c4)
        cls += self.class_base
        return cls


def _integer_rows(column: np.ndarray, literal: bytes) -> list[bytes] | None:
    """The bytes of `%.17g` and `literal` for each cell of `column`, one
    piece per run of cells with the same number of digits, or None unless
    the column is nondecreasing and every cell an integer in [0, 1e16),
    never -0.0: such a cell prints as its digits.

    Each run is one byte grid, its digits from integer division and the
    literal broadcast into every row, taken whole: no byte is compacted.
    """
    if not (column[0] >= 0.0 and column[-1] < 1e16 and np.all(column[1:] >= column[:-1])):
        return None  # also NaN, which fails every comparison
    k = column.astype(np.int64)
    if not np.all(k == column) or np.signbit(column).any():
        return None
    text = np.frombuffer(literal, dtype=np.uint8)
    pieces, start = [], 0
    # The cells of `digits` digits end where the column reaches 10^digits.
    for digits, end in enumerate(np.searchsorted(k, _TENS).tolist(), 1):
        if end > start:
            run = k[start:end]
            rows = np.empty((end - start, digits + len(text)), dtype=np.uint8)
            rows[:, digits:] = text
            for place in range(digits - 1, -1, -1):
                run, rows[:, place] = np.divmod(run, 10)
            rows[:, :digits] += ord("0")
            pieces.append(rows.tobytes())
            start = end
    return pieces


def _g17(x: np.ndarray):
    """(N, X) of each %.17g cell of `x`, every one zero or 1e-4 <= |x| < 1e17.

    N holds the 17 significant digits and X the decimal exponent of the
    rounded value; a zero has N = 0 and X = 0.  No such cell rounds up to
    the next decade: the double below each power of ten up to 1e17 is
    more than half a unit of its 17th digit below it.
    """
    a = np.abs(x)
    zero = a == 0.0
    zeros = zero.any()
    if zeros:
        np.putmask(a, zero, 1.0)
    # log10 of a double just below 1e17 rounds to 17.
    X = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 16)
    floor, N = _scaled(a, X)
    if floor.min() < 10**16 or floor.max() >= 10**17:
        # log10 is off by one next to a power of ten: redo those cells.
        redo = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
        X.flat[redo] += np.where(floor.flat[redo] < 10**16, -1, 1)
        N.flat[redo] = _scaled(a.flat[redo], X.flat[redo])[1]
    if zeros:
        N[zero] = 0
        X[zero] = 0
    return N, X


def _scaled(a: np.ndarray, X: np.ndarray):
    """floor(a 10^(16 - X)) and its round-half-even, both exact."""
    hi, hi_head, hi_tail = np.take(_tables()["powers"], 16 - X, axis=1)
    product = a * hi
    head = _SPLIT * a
    head -= head - a
    tail = a - head
    # error = ((head hi_head - product) + head hi_tail + tail hi_head) + tail hi_tail,
    # in place and in that order: product + error = a hi exactly.
    error = head * hi_head
    error -= product
    head *= hi_tail
    error += head
    hi_head *= tail
    error += hi_head
    tail *= hi_tail
    error += tail
    whole = np.floor(error)
    frac = error
    frac -= whole
    floor = product.astype(np.int64) + whole.astype(np.int64)
    N = floor + (frac > 0.5)
    tie = frac == 0.5
    if tie.any():
        N += tie & (floor % 2 == 1)
    return floor, N


def _chunks(N: np.ndarray):
    """The leading digit and the four 4-digit groups of each 17-digit N."""
    head = N // 10**16
    rest = N - head * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    c1 = high // 10**4
    c3 = low // 10**4
    return head, c1, high - c1 * 10**4, c3, low - c3 * 10**4


@functools.cache
def _tables() -> dict:
    """Lookup tables, built on first use from integer arithmetic."""
    # 10^0 .. 10^20, every one a double, and its Veltkamp halves.
    hi = np.array([float(10**s) for s in range(21)])
    split = _SPLIT * hi
    hi_head = split - (split - hi)

    # Small integer types keep the build's temporaries small: its traced
    # peak is 0.36 MB, against 0.80 MB in int64.
    k = np.arange(10_000, dtype=np.uint16)
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    pairs = np.full((10_000, 4, 2), ord("."), dtype=np.uint8)
    pairs[:, :, 0] = 48 + k[:, None] // places % 10
    lead = np.full((10, 2), ord("."), dtype=np.uint8)
    lead[:, 0] = 48 + np.arange(10)
    return {
        "powers": np.stack([hi, hi_head, hi - hi_head]),
        "quad": pairs.reshape(10_000, 8).view(np.uint64).ravel(),
        "lead": lead.view(np.uint16).ravel(),
        # Twice the trailing zeros of a 4-digit group (8 for 0000).
        "zeros2": 2 * sum((k % 10**j == 0).astype(np.int8) for j in range(1, 5)),
        "masks": _class_masks() * np.uint8(0xFF),
    }


def _class_masks() -> np.ndarray:
    """Keep mask (_CLASSES, _SLOT) of the slot bytes each layout class
    prints; the kernel's masks hold 0xFF where it is true, 0 elsewhere."""
    col = np.arange(_SLOT)
    odd = col % 2 == 1
    digit = np.where((col >= _DIGITS) & ~odd, (col - _DIGITS) // 2, -1)
    point = np.where((col > _DIGITS) & odd, (col - _DIGITS) // 2, -1)

    grid = np.meshgrid(np.arange(-4, 17), np.arange(1, 18), [0, 1], indexing="ij")
    X, significant, neg = (a.ravel()[:, None] for a in grid)
    return (
        ((col == 0) & (neg == 1))
        | ((X < 0) & (col >= 1) & (col <= 1 - X))
        | ((digit >= 0) & (digit <= np.maximum(X, significant - 1)))
        | ((point == X) & (X >= 0) & (significant - 1 > X))
    )
