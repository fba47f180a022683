"""The CSV kernel against `%`: every block it formats has the bytes of
`line % row` for each row, and it hands a block to `%` exactly where its
guard says no exactness proof holds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satreach import csvformat
from satreach.csvformat import GUARD_MAX, GUARD_MIN, GUARD_TIE, percent_block

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def kernel_bytes(line: str, table) -> bytes | None:
    """The kernel's bytes for `table`, or None where it hands the block to `%`."""
    table = np.asarray(table, dtype=float).reshape(len(table), -1)
    pieces = csvformat._Kernel.for_template(line, table.shape[1], len(table)).format(table)
    return None if pieces is None else b"".join(pieces)


def needs_percent(x: float) -> bool:
    """Whether the guard must reject x, from exact rational arithmetic."""
    if not math.isfinite(x):
        return True
    a = Fraction(abs(x))
    if a == 0:
        return False
    if not GUARD_MIN <= abs(x) <= GUARD_MAX:
        return True
    X = math.floor(math.log10(abs(x)))
    X += (a >= Fraction(10) ** (X + 1)) - (a < Fraction(10) ** X)
    scaled = a * Fraction(10) ** (16 - X)
    if 0 <= 16 - X <= 22:
        return False  # 10^(16 - X) is a double: the kernel's arithmetic is exact
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < GUARD_TIE


def check_g17(x: float) -> None:
    got = kernel_bytes("%.17g\n", [x])
    if needs_percent(x):
        assert got is None
    else:
        assert got == ("%.17g\n" % x).encode()


@settings(max_examples=1000)
@given(FINITE)
def test_kernel_prints_every_finite_double_as_percent_does(x):
    check_g17(x)


@settings(max_examples=1000)
@given(st.floats(min_value=1e-300, max_value=1e300))
def test_kernel_prints_doubles_of_any_exponent_as_percent_does(x):
    check_g17(x)


@settings(max_examples=1000)
@given(st.integers(-(2**53), 2**53), st.integers(-60, 60))
def test_kernel_prints_short_mantissas_as_percent_does(m, e):
    # Few significant bits make exact decimal ties, which round half even.
    check_g17(math.ldexp(m, e))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
EDGES += [1e-5, 1e-4, 1e16, 1e17, 1000000000000000.25, 1000000000000000.75]
# Exact ties where 10^(16 - X) is no double: the guard must reject them.
EDGES += [2.0**-25, 3 * 2.0**-24]
# Doubles within 5e-18 below a power of ten: their 17 digits round up to
# the next decade, 1e-14 included.
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


def test_exact_ties_round_half_even_in_the_kernel():
    # 1e15 + 0.25 scales by 10 to 10000000000000002.5 exactly.
    ties = [1000000000000000.25, 1000000000000000.75, -118571980500523.375]
    assert kernel_bytes("%.17g\n", ties) == b"1000000000000000.2\n1000000000000000.8\n-118571980500523.38\n"


@given(st.integers(-(2**64), 2**64))
@example(10**17 - 16)
@example(10**17)
def test_kernel_prints_integers_as_percent_d_does(k):
    # Up to and past 2^53, where doubles stop holding every integer, and
    # past 1e17, where %.17g turns to scientific notation.
    x = float(k)
    got = kernel_bytes("%.17g\n", [x])
    if abs(x) < 1e17:
        assert got == ("%d\n" % x).encode()
    else:
        assert got == ("%.17g\n" % x).encode()


@pytest.mark.parametrize("x", [0.5, -2.5, 1e16, -1e16, float("nan"), float("inf")])
def test_kernel_hands_unproven_d_cells_to_percent(x):
    # The kernel has no `%d` field: a `%d` table, however large, goes to `%`
    # whole, which truncates fractions and raises on NaN and infinity.
    assert csvformat._Kernel.for_template("%d\n", 1, 4) is None
    table = np.full((csvformat.KERNEL_MIN_CELLS, 1), x)
    if math.isfinite(x):
        assert b"".join(csvformat.table_blocks("%d\n", table)) == percent_block("%d\n", table)
    else:
        with pytest.raises((ValueError, OverflowError)):
            b"".join(csvformat.table_blocks("%d\n", table))


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
        got = kernel_bytes(line, cells)
        if any(needs_percent(x) for x in cells.ravel()):
            assert got is None
        else:
            assert got == percent_block(line, cells)
            if d_line is not None:
                assert got == percent_block(d_line, cells)


@pytest.mark.parametrize(
    "line", ["x%.17g\n", "%.17g,%s\n", "%.17g,%%\n", "%.16g\n", "%d\n", "%5d\n"], ids=repr
)
def test_other_templates_use_percent(line):
    assert csvformat._Kernel.for_template(line, line.count("%") - line.count("%%") * 2, 4) is None
