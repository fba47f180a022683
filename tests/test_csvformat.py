"""The CSV kernel against `%`: every block it formats has the bytes of
`line % row` for each row, and exactly the rows that hold a cell `%.17g`
prints in e-notation, or NaN or an infinity, go to `%`."""

import fcntl
import itertools
import math
import os

import numpy as np
import pytest
from conftest import assert_no_child_left, count_forks, fail_on_call, open_fds
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satreach as sr
from satreach import csvformat
from satreach.csvformat import percent_block

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def kernel_bytes(line: str, table) -> bytes:
    """The kernel's bytes for `table`, every cell of which it prints."""
    table = np.asarray(table, dtype=float).reshape(len(table), -1)
    return b"".join(csvformat._Kernel(csvformat._literals(line, table.shape[1]), len(table)).format(table))


def fixed_point(x: float) -> bool:
    """Whether `%.17g` prints x in fixed point, which must be exactly
    where x is zero or 1e-4 <= |x| < 1e17, the cells the kernel prints."""
    fixed = math.isfinite(x) and "e" not in "%.17g" % x
    assert fixed == (x == 0.0 or 1e-4 <= abs(x) < 1e17), x
    return fixed


def check_g17(x: float) -> None:
    if fixed_point(x):
        assert kernel_bytes("%.17g\n", [x]) == ("%.17g\n" % x).encode()


@settings(max_examples=1000)
@given(FINITE)
def test_kernel_prints_every_finite_double_as_percent_does(x):
    check_g17(x)


# Every decimal exponent the kernel prints, -4 to 16, and one beyond each.
@settings(max_examples=1000)
@given(st.floats(min_value=1e-5, max_value=1e18))
def test_kernel_prints_doubles_of_any_exponent_as_percent_does(x):
    check_g17(x)


@settings(max_examples=1000)
@given(st.integers(-(2**53), 2**53), st.integers(-60, 60))
def test_kernel_prints_short_mantissas_as_percent_does(m, e):
    # Few significant bits make exact decimal ties, which round half even.
    check_g17(math.ldexp(m, e))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
EDGES += [1e-5, 1e-4, 1e16, 1e17, 1000000000000000.25, 1000000000000000.75]
# Exact ties in e-notation, which `%` prints.
EDGES += [2.0**-25, 3 * 2.0**-24]
# Doubles within 5e-18 below a power of ten: their 17 digits round up to
# the next decade, 1e-14 included; all print in e-notation.
EDGES += [1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14]
EDGES += [1e98, 1e129, 1e153, 1e220]
EDGES += [
    y
    for k in range(-6, 19)
    for x in (float(10**k) if k >= 0 else 1 / 10**-k,)
    for y in (float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf)))
]


SIGNED_EDGES = list({repr(x): x for x in EDGES + [-x for x in EDGES]}.values())


@pytest.mark.parametrize("x", SIGNED_EDGES, ids=repr)
def test_kernel_prints_edge_values_as_percent_does(x):
    check_g17(x)


# Each side of the fixed-point range: the kernel prints 1e-4 and the
# largest double below 1e17, `%` the double below 1e-4 and 1e17.
BOUNDS = [(1e-4, True), (float(np.nextafter(1e17, 0.0)), True), (float(np.nextafter(1e-4, 0.0)), False), (1e17, False)]


@pytest.mark.parametrize("x, kernel", [(s * x, kernel) for x, kernel in BOUNDS for s in (1.0, -1.0)], ids=repr)
def test_the_fixed_point_bounds_split_kernel_and_percent(monkeypatch, x, kernel):
    assert fixed_point(x) == kernel
    table = np.full((csvformat.KERNEL_MIN_CELLS, 2), 0.5)
    table[7, 1] = x
    files = [[("%.17g,%.17g\n", table)]]
    percent = _spy_paths(monkeypatch, table)
    assert _written(files) == _reference(files)
    assert percent == ([] if kernel else [(7, 8)])


def test_exact_ties_round_half_even_in_the_kernel():
    # 1e15 + 0.25 scales by 10 to 10000000000000002.5 exactly.
    ties = [1000000000000000.25, 1000000000000000.75, -118571980500523.375]
    assert kernel_bytes("%.17g\n", ties) == b"1000000000000000.2\n1000000000000000.8\n-118571980500523.38\n"


@given(st.integers(-(2**64), 2**64))
@example(10**17 - 16)
@example(10**17)
def test_kernel_prints_integers_as_percent_d_does(k):
    # Up to and past 2^53, where doubles stop holding every integer; from
    # 1e17 on %.17g turns to scientific notation, which only `%` prints.
    x = float(k)
    assert fixed_point(x) == (abs(x) < 1e17)
    if abs(x) < 1e17:
        assert kernel_bytes("%.17g\n", [x]) == ("%d\n" % x).encode()


@pytest.mark.parametrize("x", [0.5, -2.5, 1e16, -1e16, float("nan"), float("inf")])
def test_kernel_hands_unproven_d_cells_to_percent(x):
    # The kernel has no `%d` field: a `%d` table, however large, goes to `%`
    # whole, which truncates fractions and raises on NaN and infinity.
    assert csvformat._literals("%d\n", 1) is None
    table = np.full((csvformat.KERNEL_MIN_CELLS, 1), x)
    blocks = csvformat.Blocks([[("%d\n", table)]])
    if math.isfinite(x):
        assert b"".join(blocks.file(0)) == percent_block("%d\n", table)
    else:
        with pytest.raises((ValueError, OverflowError)):
            b"".join(blocks.file(0))


# data.csv's two row templates and the `%d` form of each, whose bytes they
# keep: k is an integer below 1e16, never -0.0 (which %d prints as 0).
DATA_TEMPLATES = [
    ("%.17g,%.17g,%.17g,%.17g,%.17g\n", "%d,%.17g,%.17g,%.17g,%.17g\n", [0, 1, 2, 3, 4]),
    ("%.17g,,%.17g,%.17g,%.17g\n", "%d,,%.17g,%.17g,%.17g\n", [0, 2, 3, 4]),
]


@given(st.lists(st.tuples(*[FINITE] * 5), min_size=1, max_size=20))
def test_kernel_blocks_equal_percent_blocks(rows):
    table = np.array(rows)
    table[:, 0] = np.trunc(np.clip(table[:, 0], -1e15, 1e15)) + 0.0
    cases = [(line, d_line, table[:, columns]) for line, d_line, columns in DATA_TEMPLATES]
    # A constant between two fields, as in convergence.csv.
    cases.append(("%.17g,0.76852028012028373,%.17g\n", None, table[:, 3:]))
    for line, d_line, cells in cases:
        # The kernel prints the rows all of whose cells are in fixed point.
        cells = cells[[all(map(fixed_point, row)) for row in cells.tolist()]]
        if not len(cells):
            continue
        got = kernel_bytes(line, cells)
        assert got == percent_block(line, cells)
        if d_line is not None:
            assert got == percent_block(d_line, cells)


# A NUL in a literal would be deleted with the unprinted bytes.
@pytest.mark.parametrize(
    "line", ["x%.17g\n", "%.17g,%s\n", "%.17g,%%\n", "%.16g\n", "%d\n", "%5d\n", "%.17g,\0\n"], ids=repr
)
def test_other_templates_use_percent(line):
    assert csvformat._literals(line, line.count("%") - line.count("%%") * 2) is None


def test_a_template_with_a_long_literal_gets_fewer_rows_per_block():
    # data.csv's converged tail: one k field, then the three bound limits,
    # a 59-byte literal that widens each slot from 48 to 104 bytes.
    tail = "%.17g,,354.30819168363246,30.456231775567129,32.438091218802597\n"
    k = np.arange(20_000.0)[:, None]
    files = [[(tail, k), ("%.17g,%.17g,%.17g\n", np.hstack([k, k / 3.0, -k]))]]
    blocks = csvformat.Blocks(files)
    (_, _, tail_rows, _), (_, _, rows, _) = blocks.tables
    assert rows == csvformat.BLOCK_CELLS // 3
    assert tail_rows * 104 <= csvformat.BLOCK_CELLS * 48 < (tail_rows + 1) * 104
    assert b"".join(blocks.file(0)) == _reference(files)[0]


def test_tables_of_one_template_and_capacity_share_one_kernel(monkeypatch):
    built, real = [], csvformat._Kernel.__init__

    def counting(kernel, literals, rows):
        built.append(rows)
        real(kernel, literals, rows)

    monkeypatch.setattr(csvformat._Kernel, "__init__", counting)
    t = np.linspace(0.0, 2.0 * np.pi, 5000)
    xy = np.column_stack([np.cos(t), np.sin(t)])
    # lell and lbell: the same template and capacity, one kernel; a table
    # of fewer rows than a block has a smaller capacity, and its own.
    files = [[("%.17g,%.17g\n", 7.3 * xy)], [("%.17g,%.17g\n", 2.1 * xy)], [("%.17g,%.17g\n", xy[:1500])]]
    assert _written(files) == _reference(files)
    assert built == [2048, 1500]


# ------------------------------------------------------- integer rows

# The last integer of each digit count, up to the largest double below 1e16.
DIGIT_EDGES = [float(10**d - 1) for d in range(1, 16)] + [float(np.nextafter(1e16, 0.0))]
TAIL = b",,354.30819168363246,30.456231775567129,32.438091218802597\n"


@pytest.mark.parametrize("edge", [0.0, *DIGIT_EDGES], ids=repr)
def test_integer_rows_print_every_digit_count_edge(edge):
    # The integers about the edge, up to the largest double below 1e16.
    column = np.unique(np.clip(edge + np.arange(-3.0, 4.0), 0.0, DIGIT_EDGES[-1]))
    pieces = csvformat._integer_rows(column, TAIL)
    assert b"".join(pieces) == percent_block("%.17g" + TAIL.decode(), column[:, None])
    # One piece per digit count.
    assert len(pieces) == len({len("%d" % k) for k in column})


FALLBACK_COLUMNS = {
    "non-monotone": [0.0, 2.0, 1.0, 3.0],
    "negative": [-1.0, 0.0, 1.0, 2.0],
    "minus zero": [-0.0, 1.0, 2.0, 3.0],
    "minus zero later": [0.0, -0.0, 1.0, 2.0],
    "fraction": [0.5, 1.0, 2.0, 3.0],
    "1e16": [1.0, 2.0, 3.0, 1e16],
    "nan": [0.0, 1.0, np.nan, 3.0],
    "infinity": [0.0, 1.0, 2.0, np.inf],
}


@pytest.mark.parametrize("column", FALLBACK_COLUMNS.values(), ids=FALLBACK_COLUMNS.keys())
def test_columns_other_than_counts_skip_integer_rows(column):
    # Any column but a nondecreasing one of integers in [0, 1e16) goes
    # through the %.17g kernel, or `%`, as before.
    column = np.array(column)
    assert csvformat._integer_rows(column, TAIL) is None
    table = np.repeat(column, 512)[:, None]
    line = "%.17g" + TAIL.decode()
    assert b"".join(csvformat.Blocks([[(line, table)]]).file(0)) == percent_block(line, table)


def test_a_table_of_integer_rows_builds_no_kernel(monkeypatch):
    # data.csv's converged tail prints every block as integer rows, so no
    # process builds a byte grid and masks for it.
    built, real = [], csvformat._Kernel.__init__

    def counting(kernel, literals, rows):
        built.append(rows)
        real(kernel, literals, rows)

    monkeypatch.setattr(csvformat._Kernel, "__init__", counting)
    files = [[("%.17g" + TAIL.decode(), np.arange(1932.0, 20_001.0)[:, None])]]
    assert _written(files) == _reference(files)
    assert built == []


# ------------------------------------------------- the forked block worker


def _files():
    # Three files of seven blocks, of 1365 rows of three columns or 2048 of
    # two: 0 and 1 of data, 2 of its tail, 3 to 5 of xy, and 6, a table
    # small enough for `%` alone.
    k = np.arange(3000.0)
    data = np.column_stack([k, 0.98**k, 1.0 / (k + 3.0)])
    t = np.linspace(0.0, 2.0 * np.pi, 5000)
    xy = np.column_stack([7.3 * np.cos(t), -4.1 * np.sin(t)])
    return [
        [("%.17g,%.17g,%.17g\n", data[:2000]), ("%.17g,,%.17g\n", data[2000:, [0, 2]])],
        [("%.17g,%.17g\n", xy)],
        [("%.17g,%.17g\n", xy[:100] / 3.0)],
    ]


def _reference(files) -> list[bytes]:
    return [b"".join(percent_block(line, table) for line, table in tables) for tables in files]


def _written(files) -> list[bytes]:
    # A block from the worker is copied before the next block is asked for.
    with csvformat.Blocks(files) as blocks:
        return [b"".join(bytes(piece) for piece in blocks.file(i)) for i in range(len(files))]


def _spy_paths(monkeypatch, table) -> list[tuple[int, int]]:
    """The (first, end) rows of `table` this process hands to `%`, in
    order; the kernel, in either process, fails on a cell `%.17g` does
    not print in fixed point."""
    caller, real_percent, real_kernel = os.getpid(), csvformat.percent_block, csvformat._Kernel.format
    percent = []

    def recording(line, block):
        if os.getpid() == caller:
            offset = block.__array_interface__["data"][0] - table.__array_interface__["data"][0]
            percent.append((offset // table.strides[0], offset // table.strides[0] + len(block)))
        return real_percent(line, block)

    def checking(kernel, block):
        assert all(map(fixed_point, block.ravel().tolist()))
        return real_kernel(kernel, block)

    monkeypatch.setattr(csvformat, "percent_block", recording)
    monkeypatch.setattr(csvformat._Kernel, "format", checking)
    return percent


def _force_fork(monkeypatch, cpus=2):
    monkeypatch.setattr(csvformat, "_FORK_MIN_CELLS", 0)
    monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _caller_formats(monkeypatch):
    # The blocks this process formats, in order.
    caller, real, formatted = os.getpid(), csvformat.Blocks.format, []

    def recording(blocks, b):
        if os.getpid() == caller:
            formatted.append(b)
        return real(blocks, b)

    monkeypatch.setattr(csvformat.Blocks, "format", recording)
    return formatted


# Platform, Python threads, cells of kernel tables, CPUs, and whether one
# worker forks; the threshold is the shipped _FORK_MIN_CELLS, and a table
# below KERNEL_MIN_CELLS does not count toward it.
CSV_FORK_TABLE = [
    ("linux", 1, 50_000, 2, True),
    ("linux", 1, 10**6, 64, True),
    ("linux", 1, 49_999, 2, False),
    ("linux", 2, 10**6, 2, False),
    ("linux", 1, 10**6, 1, False),
    ("darwin", 1, 10**6, 2, False),
]


def test_csv_blocks_fork_one_worker_past_the_cell_threshold(monkeypatch):
    assert csvformat._FORK_MIN_CELLS == 50_000
    forks = []
    monkeypatch.setattr(sr.forked.Worker, "fork", lambda worker: forks.append(1))
    small = np.zeros((csvformat.KERNEL_MIN_CELLS - 1, 1))
    for platform, threads, cells, cpus, expected in CSV_FORK_TABLE:
        monkeypatch.setattr(sr.forked, "platform", platform)
        monkeypatch.setattr(sr.forked.threading, "active_count", lambda: threads)
        monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        files = [[("%.17g\n", np.zeros((cells, 1)))], [("%.17g\n", small)]]
        forks.clear()
        with csvformat.Blocks(files):
            pass
        assert forks == ([1] if expected else []), (platform, threads, cells, cpus)


def test_forked_csv_blocks_equal_percent_and_leave_no_child(monkeypatch):
    files = _files()
    _force_fork(monkeypatch)
    forks = count_forks(monkeypatch)
    formatted = _caller_formats(monkeypatch)
    assert _written(files) == _reference(files)
    assert forks == [1]
    # The caller formats the even blocks only.
    assert formatted == [0, 2, 4, 6]
    assert_no_child_left()


@pytest.mark.parametrize(
    "target, name, call",
    [(os, "pipe", 1), (os, "fork", 1)],
    ids=["first-pipe", "fork"],
)
def test_a_refused_csv_fork_leaves_every_block_to_the_caller(monkeypatch, target, name, call):
    files = _files()
    _force_fork(monkeypatch)
    calls = fail_on_call(monkeypatch, target, name, call)
    formatted = _caller_formats(monkeypatch)
    before = open_fds()
    assert _written(files) == _reference(files)
    assert len(calls) == call
    assert formatted == list(range(7))
    assert open_fds() == before
    assert_no_child_left()


def test_a_csv_worker_that_fails_leaves_every_block_to_the_caller(monkeypatch):
    files = _files()
    _force_fork(monkeypatch)
    forks = count_forks(monkeypatch)
    caller, real_format = os.getpid(), csvformat.Blocks.format

    def failing_in_the_worker(blocks, b):
        if os.getpid() != caller:
            raise RuntimeError("the worker's first block fails")
        return real_format(blocks, b)

    monkeypatch.setattr(csvformat.Blocks, "format", failing_in_the_worker)
    formatted = _caller_formats(monkeypatch)
    assert _written(files) == _reference(files)
    assert forks == [1]
    assert formatted == list(range(7))
    assert_no_child_left()


def test_a_guard_rejected_odd_block_is_formatted_by_percent_in_the_worker(monkeypatch):
    files = _files()
    data = files[0][0][1].copy()
    # Blocks 1 and 3 hold a NaN and a subnormal, which `%` prints.
    data[1365 + 7, 1] = np.nan
    files[0][0] = (files[0][0][0], data)
    xy = files[1][0][1].copy()
    xy[5, 0] = 5e-324
    files[1][0] = (files[1][0][0], xy)
    _force_fork(monkeypatch)
    forks = count_forks(monkeypatch)
    formatted = _caller_formats(monkeypatch)
    written = _written(files)
    assert written == _reference(files)
    assert b"nan" in written[0] and b"4.9406564584124654e-324" in written[1]
    assert forks == [1]
    assert formatted == [0, 2, 4, 6]
    assert_no_child_left()


def test_a_block_of_any_length_comes_through_the_worker(monkeypatch):
    # `%d` of 1e300 prints 301 digits: block 1 holds 1.2 MB, more than the
    # pipe holds, so the worker waits on the caller partway through it.
    table = np.full((3 * csvformat.BLOCK_CELLS, 1), 1e300)
    files = [[("%d\n", table)]]
    _force_fork(monkeypatch)
    forks = count_forks(monkeypatch)
    formatted = _caller_formats(monkeypatch)
    assert _written(files) == _reference(files)
    assert forks == [1]
    assert formatted == [0, 2]
    assert_no_child_left()


def test_a_pipe_left_at_its_default_size_passes_blocks_larger_than_it(monkeypatch):
    files = _files()
    # Block 3, 2048 rows of xy, is larger than a default pipe's 64 KiB.
    assert len(b"".join(csvformat.Blocks(files).format(3))) > 1 << 16
    real_fcntl, refused = fcntl.fcntl, []

    def refusing(fd, command, *args):
        if command == fcntl.F_SETPIPE_SZ:
            refused.append(1)
            raise OSError(1, "Operation not permitted")
        return real_fcntl(fd, command, *args)

    monkeypatch.setattr(fcntl, "fcntl", refusing)
    _force_fork(monkeypatch)
    forks = count_forks(monkeypatch)
    formatted = _caller_formats(monkeypatch)
    assert _written(files) == _reference(files)
    assert forks == [1] and refused == [1]
    assert formatted == [0, 2, 4, 6]
    assert_no_child_left()


LITERAL = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="%"), max_size=60)
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.5, 1e16, -1.0, 2.0**-25]
# Where a table is broken, if at all: two rows swapped, or one cell of
# the first, the last or any row replaced by a special value.
BREAKS = st.none() | st.sampled_from(["swap", "first", "last", "any"])


@st.composite
def csv_tables(draw):
    """A template of 1-5 fields with literals of 0-60 bytes, and a table of
    one to three blocks' cells, large enough for the kernel."""
    counts = draw(st.booleans())  # a one-field column of integers
    fields = 1 if counts else draw(st.integers(1, 5))
    literals = draw(st.lists(LITERAL, min_size=fields, max_size=fields))
    rows = draw(st.integers(1, 3)) * csvformat.BLOCK_CELLS // fields + draw(st.integers(0, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if counts:
        # A column of integers about a digit-count edge, nondecreasing past 2^53.
        edge = draw(st.sampled_from([0.0, *DIGIT_EDGES]))
        table = (max(edge - rows // 2, 0.0) + np.arange(rows, dtype=float))[:, None]
    else:
        table = rng.standard_normal((rows, fields)) * 10.0 ** rng.integers(-30, 30, (rows, fields))
    brk = draw(BREAKS)
    if brk == "swap":
        table[[rows // 2, rows // 2 + 1]] = table[[rows // 2 + 1, rows // 2]]
    elif brk is not None:
        row = 0 if brk == "first" else rows - 1 if brk == "last" else draw(st.integers(0, rows - 1))
        table[row, draw(st.integers(0, fields - 1))] = draw(st.sampled_from(SPECIALS))
    return "".join("%.17g" + text for text in literals), table


@settings(max_examples=60)
@given(csv_tables(), st.booleans())
def test_blocks_equal_percent_over_any_template(case, forked):
    line, table = case
    files = [[(line, table)]]
    with pytest.MonkeyPatch.context() as monkeypatch:
        if forked:
            _force_fork(monkeypatch)
        assert _written(files) == _reference(files)
    assert_no_child_left()


# Cells `%.17g` prints in e-notation, or NaN or an infinity.
OUTSIDE = [np.nan, np.inf, -np.inf, 5e-324, -1e-5, float(np.nextafter(1e-4, 0.0)), 1e17, -1e300, 2.0**-25]


@st.composite
def mixed_tables(draw):
    """A template of 1-4 fields and a kernel table of one to three blocks
    of fixed-point cells, with runs of ±0.0 and of OUTSIDE cells written
    over random rows of random columns."""
    fields = draw(st.integers(1, 4))
    literals = draw(st.lists(LITERAL, min_size=fields, max_size=fields))
    rows = draw(st.integers(csvformat.KERNEL_MIN_CELLS // fields + 1, 3 * csvformat.BLOCK_CELLS // fields))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.choice([-1.0, 1.0], (rows, fields)) * 10.0 ** rng.uniform(-4.0, 17.0, (rows, fields))
    for value in draw(st.lists(st.sampled_from([0.0, -0.0, *OUTSIDE]), max_size=8)):
        start = draw(st.integers(0, rows - 1))
        table[start : start + draw(st.integers(1, 40)), draw(st.integers(0, fields - 1))] = value
    return "".join("%.17g" + text for text in literals), table


@settings(max_examples=40)
@given(mixed_tables(), st.booleans())
def test_percent_prints_exactly_the_runs_of_rows_out_of_fixed_point(case, forked):
    line, table = case
    files = [[(line, table)]]
    reference = _reference(files)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if forked:
            _force_fork(monkeypatch)
        percent = _spy_paths(monkeypatch, table)
        blocks = csvformat.Blocks(files)
        assert _written(files) == reference
    rows, count = blocks.tables[0][2], len(blocks.index)
    # Within each block this process formats, every maximal run of rows
    # that hold a cell out of fixed point, and nothing else, went to `%`.
    outside = [not all(map(fixed_point, row)) for row in table.tolist()]
    runs = []
    for b in range(0, count, 2 if forked and count > 1 else 1):
        start = b * rows
        for out, run in itertools.groupby(outside[start : start + rows]):
            size = len(list(run))
            if out:
                runs.append((start, start + size))
            start += size
    assert percent == runs
    assert_no_child_left()
