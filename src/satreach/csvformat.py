"""CSV rows as bytes: `%`-templates of `%.17g` fields over float tables.

A table is formatted in blocks of at most BLOCK_CELLS cells.  A table of
at least KERNEL_MIN_CELLS cells goes through a NumPy kernel that writes,
for a whole block at once, exactly the bytes of `line % row` for every
row.  `percent_block`, one `%` operation per block, formats a smaller
table, a template with other fields or text before its first field, and
any block the kernel's guard rejects.

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

The slots hold each `%.17g` cell's 17 significant digits, computed exactly.
For x with decimal exponent X = floor(log10 |x|) they are the integer
N = round-half-even(|x| 10^(16 - X)); `%g` then prints N in fixed point
for -4 <= X < 17 and as d.ddd...e±XX otherwise, trailing zeros stripped.
The power 10^s is held as a double-double hi + lo, both correctly rounded
from integer arithmetic, and |x| hi is formed exactly by Dekker's
two-product, so the scaled value is known to within 1e-14 of a unit.
Where 10^s is itself a double (0 <= s <= 22, lo = 0) the scaled value is
exact and so are its ties.  Elsewhere a fraction within GUARD_TIE of one
half could round either way.  The guard hands a block to `%` when it
holds such a cell, a non-finite cell, or a nonzero |x| outside
[GUARD_MIN, GUARD_MAX] (every subnormal among them).  Zeros print as `0`
and `-0`, and every other integer-valued x with |x| < 1e17 as `%d` prints
it.
"""

from __future__ import annotations

import functools

import numpy as np

from .forked import Worker, may_fork

# Cells per block, on either path, of a template whose literals fit the
# narrowest slot (_slot_width of 48 bytes); a template with longer literals
# gets proportionally fewer rows per block, so every block's byte grid
# holds at most BLOCK_CELLS narrowest slots.  The kernel's work arrays take
# some 100 bytes per cell: blocks of 8192 cells raised the peak memory of a
# 2e4-row export by 2.5-3 MB, and rows cut by field count alone, 4096 per
# block of data.csv's one-field tail, whose 59-byte literal makes 104-byte
# slots, raised it by 0.8 MB.
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

# The kernel's scaled values are within 1e-14 of a unit; a fraction this
# close to one half, where 10^s is not a double, sends its block to `%`.
GUARD_TIE = 1e-9
# Outside this range the splitting products of the kernel could overflow
# or lose bits to underflow.
GUARD_MIN = 1e-280
GUARD_MAX = 1e280

# The bytes of one cell's slot: a sign, the "0.000" prefix of small fixed
# point numbers, then the 17 digits at even offsets from _DIGITS, each
# followed by a decimal point (the last by "e"), then the exponent's sign
# and three digits at _EXP.  The text after the field starts at _SLOT.
# A keep mask per layout class picks the bytes `%` prints.
_SLOT = 44
_DIGITS = 6
_EXP = 40
# The scales 16 - X for estimated exponents X in [-281, 281].
_SCALE_MIN = -265
_SCALE_MAX = 297
_X_OFFSET = 300
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant

# Layout classes of a cell: (kind * 17 + 16 - trailing zeros) * 2 + sign,
# where kind 0 is scientific with a negative two-digit exponent, 1..21
# fixed point for X = -4..16, 22 scientific with a positive two-digit
# exponent and 23 scientific with three digits.
_CLASSES = 24 * 17 * 2

# 10^1 .. 10^16: an integer below 10^d has at most d digits.
_TENS = 10 ** np.arange(1, 17, dtype=np.int64)


def percent_block(line: str, block: np.ndarray) -> bytes:
    """The rows of `block` through the `%`-template `line`, as ASCII bytes."""
    return ((line * len(block)) % tuple(block.ravel().tolist())).encode("ascii")


class Blocks:
    """The blocks of every table of several CSV files, formatted in order.

    `files` holds, per file, its (line, table) pairs: `line` is the
    %-template of one row and `table` a 2-D array with one column per
    field.  Each table is cut into blocks of rows whose kernel slots take
    at most BLOCK_CELLS narrowest slots' bytes, so a template with a long
    literal, such as data.csv's converged tail, whose one field carries
    the three bound limits, gets fewer rows per block.  The blocks are
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
        # (line, table, rows per block) of every table, in write order.
        self.tables = []
        # (table number, first row) of every block, and each file's blocks.
        self.index: list[tuple[int, int]] = []
        self.files: list[range] = []
        for tables in files:
            first = len(self.index)
            for line, table in tables:
                row_bytes = max(1, table.shape[1]) * _slot_width(line.split("%.17g")[1:])
                rows = max(1, BLOCK_CELLS * _slot_width([]) // row_bytes)
                self.index += [(len(self.tables), start) for start in range(0, len(table), rows)]
                self.tables.append((line, table, rows))
            self.files.append(range(first, len(self.index)))
        # The (literals, rows) of the kernel built last, and that kernel.
        self.kernel = (None, None)
        self.worker = Worker(self.format, len(self.index))

    def __enter__(self):
        cells = sum(table.size for _, table, _ in self.tables if table.size >= KERNEL_MIN_CELLS)
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
        kernel where the table and template allow it and the guard passes,
        else one `%`."""
        t, start = self.index[b]
        line, table, rows = self.tables[t]
        block = table[start : start + rows]
        pieces = None
        literals = table.size >= KERNEL_MIN_CELLS and table.dtype == np.float64 and _literals(line, table.shape[1])
        if literals:
            if len(literals) == 1:
                pieces = _integer_rows(block[:, 0], literals[0])
            if pieces is None:
                key = (literals, min(rows, len(table)))
                if self.kernel[0] != key:
                    self.kernel = (key, _Kernel(*key))
                pieces = self.kernel[1].format(block)
        return [percent_block(line, block)] if pieces is None else pieces


def _literals(line: str, fields: int) -> list[bytes] | None:
    """The literal text after each of `line`'s `fields` `%.17g` fields, or
    None when the kernel does not cover the template: text before its first
    field, another field, or a NUL, which the kernel would delete."""
    parts = line.split("%.17g")
    literals = [text.encode("ascii") for text in parts[1:]]
    if parts[0] or len(literals) != fields or any(b"%" in text or b"\0" in text for text in literals):
        return None
    return literals


def _slot_width(literals) -> int:
    """Bytes of one cell in the kernel's grid: its _SLOT bytes and the
    template's longest literal, rounded up to whole 8-byte words."""
    return -(-(_SLOT + max(map(len, literals), default=0)) // 8) * 8


class _Kernel:
    """The kernel for one template, with a byte grid for up to `rows` rows.

    Each cell's slot is filled in place, its unprinted bytes are zeroed by
    the mask of its layout class, and the block's bytes go out with every
    zero deleted.  Every field's slot is as wide as the template's longest
    literal needs, so one (rows, fields, width) view fills and masks all
    fields of a block at once.  Slots of per-field widths (72 and 48 bytes
    instead of 72 and 72 for convergence.csv) were measured slower: the
    bytes they save are worth less than filling and masking fields of
    unequal strides costs, where NumPy's inner loops run over a row's two
    fields instead of a block's cells.
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

    def format(self, block: np.ndarray) -> list[bytes] | None:
        """The bytes of `line % row` for every row of `block`, through the
        slots, or None where the guard fails."""
        classes = self._fill(block)
        if classes is None:
            return None
        # Zero every byte `%` does not print, then delete the zeros: no
        # printed byte is NUL.
        kept = np.take(self.masks, classes, axis=0)
        kept &= self.grid[: len(block)].view(np.uint64)
        return [kept.tobytes().translate(None, b"\0")]

    def _fill(self, block: np.ndarray) -> np.ndarray | None:
        """Write each cell's digits and exponent into the grid and return
        its mask row, or None where the guard fails."""
        t = _tables()
        digits = _g17(block)
        if digits is None:
            return None
        N, X = digits
        head, c1, c2, c3, c4 = _chunks(N)
        x = X + _X_OFFSET
        cls = np.take(t["kind"], x) - np.take(t["zeros2"], c4) + np.signbit(block)
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
        words[:, :, 4] = np.take(t["quad_e"], c4)
        grid.view(np.uint32)[:, :, _EXP // 4] = np.take(t["exponent"], x)
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
    """(N, X) of each %.17g cell of `x`, or None where the guard fails.

    N holds the 17 significant digits and X the decimal exponent of the
    rounded value; a zero has N = 0 and X = 0.
    """
    a = np.abs(x)
    zero = a == 0.0
    zeros = zero.any()
    if zeros:
        np.putmask(a, zero, 1.0)
    if not (a.min() >= GUARD_MIN and a.max() <= GUARD_MAX):
        return None  # also NaN, which fails both comparisons
    X = np.floor(np.log10(a)).astype(np.intp)
    floor, N, unsure = _scaled(a, X)
    if floor.min() < 10**16 or floor.max() >= 10**17:
        # log10 is off by one next to a power of ten: redo those cells.
        redo = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
        X.flat[redo] += np.where(floor.flat[redo] < 10**16, -1, 1)
        floor_r, N.flat[redo], unsure.flat[redo] = _scaled(a.flat[redo], X.flat[redo])
        if floor_r.min() < 10**16 or floor_r.max() >= 10**17:
            return None
    if unsure.any():
        return None
    carry = N == 10**17  # rounded up to the next decade
    if carry.any():
        N[carry] = 10**16
        X += carry
    if zeros:
        N[zero] = 0
        X[zero] = 0
    return N, X


def _scaled(a: np.ndarray, X: np.ndarray):
    """floor(a 10^(16 - X)), its round-half-even, and where that rounding is unsure."""
    hi, hi_head, hi_tail, lo = np.take(_tables()["powers"], 16 - X - _SCALE_MIN, axis=1)
    product = a * hi
    head = _SPLIT * a
    head -= head - a
    tail = a - head
    # error = ((head hi_head - product) + head hi_tail + tail hi_head) + tail hi_tail,
    # in place and in that order.
    error = head * hi_head
    error -= product
    head *= hi_tail
    error += head
    hi_head *= tail
    error += hi_head
    tail *= hi_tail
    error += tail
    error += lo * a
    whole = np.floor(error)
    frac = error
    frac -= whole
    floor = product.astype(np.int64) + whole.astype(np.int64)
    N = floor + (frac > 0.5)
    unsure = np.abs(frac - 0.5) < GUARD_TIE
    if unsure.any():
        exact = lo == 0.0
        N += unsure & exact & (frac == 0.5) & (floor % 2 == 1)
        unsure &= ~exact
    return floor, N, unsure


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
    hi, lo = [], []
    for s in range(_SCALE_MIN, _SCALE_MAX + 1):
        if s >= 0:
            power = 10**s
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10**-s
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    split = _SPLIT * hi
    hi_head = split - (split - hi)

    # Small integer types keep the build's temporaries small: its traced
    # peak is 0.58 MB, against 0.74 MB in int64.
    k = np.arange(10_000, dtype=np.uint16)
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (48 + k[:, None] // places % 10).astype(np.uint8)
    pairs = np.full((10_000, 4, 2), ord("."), dtype=np.uint8)
    pairs[:, :, 0] = digits
    quad = pairs.reshape(10_000, 8).view(np.uint64).ravel().copy()
    pairs[:, 3, 1] = ord("e")
    lead = np.full((10, 2), ord("."), dtype=np.uint8)
    lead[:, 0] = 48 + np.arange(10)

    X = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    exponent = np.empty((X.size, 4), dtype=np.uint8)
    exponent[:, 0] = np.where(X < 0, ord("-"), ord("+"))
    exponent[:, 1:] = digits[np.abs(X), 1:]
    kind = np.where(np.abs(X) >= 100, 23, np.clip(X, -5, 17) + 5)
    return {
        "powers": np.stack([hi, hi_head, hi - hi_head, np.array(lo)]),
        "quad": quad,
        "quad_e": pairs.reshape(10_000, 8).view(np.uint64).ravel(),
        "lead": lead.view(np.uint16).ravel(),
        "exponent": exponent.view(np.uint32).ravel(),
        # The class with no trailing zero, and twice the trailing zeros of
        # a 4-digit group (8 for 0000).
        "kind": kind * 34 + 32,
        "zeros2": 2 * sum((k % 10**j == 0).astype(np.int8) for j in range(1, 5)),
        "masks": _class_masks() * np.uint8(0xFF),
    }


def _class_masks() -> np.ndarray:
    """Keep mask (_CLASSES, _SLOT) of the slot bytes each layout class
    prints; the kernel's masks hold 0xFF where it is true, 0 elsewhere."""
    col = np.arange(_SLOT)
    odd = col % 2 == 1
    digit = np.where((col >= _DIGITS) & (col < _EXP) & ~odd, (col - _DIGITS) // 2, -1)
    point = np.where((col > _DIGITS) & (col < _EXP - 1) & odd, (col - _DIGITS) // 2, -1)

    grid = np.meshgrid(np.arange(24), np.arange(1, 18), [0, 1], indexing="ij")
    kind, significant, neg = (a.ravel()[:, None] for a in grid)
    fixed = (kind >= 1) & (kind <= 21)
    X = kind - 5
    last = np.where(fixed & (X >= 0), np.maximum(X, significant - 1), significant - 1)
    at = np.where(fixed, X, 0)  # the digit the point follows, if any
    return (
        ((col == 0) & (neg == 1))
        | (fixed & (X < 0) & (col >= 1) & (col <= 1 - X))
        | ((digit >= 0) & (digit <= last))
        | ((point == at) & (at >= 0) & (significant - 1 > at))
        | (~fixed & ((col == _EXP - 1) | (col == _EXP) | (col > _EXP + 1)))
        | ((kind == 23) & (col == _EXP + 1))
    )
