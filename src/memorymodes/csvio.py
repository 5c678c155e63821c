"""Deterministic CSV writers for every exported artifact.

Every writer hands one column writer a header and a list of equal-length
columns. Float columns are written with 17 significant digits, so files
round-trip to the exact doubles and identical runs produce byte-identical
output; integer and bool columns are written as plain integers. Complex
arrays are exported as separate real and imaginary columns.

The bytes of every cell equal Python's ``'%.17g' % v`` for floats and
``'%d' % v`` for integers, but numpy formats a block of rows at a time
instead of Python formatting each cell. A finite nonzero double x is
written from X = floor(log10|x|) and the 17-digit integer
D = round(|x| * 10**(16 - X)). The product is formed as a double-double,
from Dekker's exact splitting and a table of 10**k as correctly rounded
(hi, lo) pairs, so it is known to about 1e-14. That proves D and X, and the
cell takes this path, only when:

- the unrounded product lies in [1e16, 1e17), so X is the exponent;
- its fraction is more than 1e-6 away from one half, so the rounding is
  certain (Python rounds exact ties to even);
- 1e-280 <= |x| < 1e300, so no step overflows or loses bits.

Every other float cell (near-ties, NaN, infinities, subnormals and values
out of that range), and every integer of 17 or more digits, is formatted
by Python itself: the fast path never guesses. Zeros take the fast path.
Each cell is then laid out in a fixed 48-byte row (separator, sign, a
"0.000" prefix, digits, point, digits, exponent) from which a mask table
keeps the bytes that ``%g`` would print, and one ``np.compress`` per block
joins the kept bytes.

A float column with no nonzero cell (in the pseudomode sector, every
vacuum/one-excitation coherence and the imaginary part of every
population) skips the digits: each of its cells is a 3-byte row
(separator, sign, "0") whose mask keeps the sign only where the sign bit
is set, so it reads "0" or "-0". Such rows are laid out between the
48-byte rows of the other columns. Each float column is tested once per
file. A block holds as many rows as fit 4096 * 48 template bytes: 4096
cells when no column is zero, more rows when some are.
"""

from __future__ import annotations

import itertools

import numpy as np

from .density import DensitySeries, basis_labels
from .info import InfoSeries
from .rates import MemoryIdentityReport, RateTrajectory
from .trajectories import ComparisonReport, Ensemble

__all__ = [
    "write_amplitude_csv",
    "write_rates_csv",
    "write_identity_csv",
    "write_density_csv",
    "write_ensemble_csv",
    "write_comparison_csv",
    "write_info_csv",
    "write_rate_curves_csv",
]

#: decimal exponents X whose scale 10**(16 - X) the table holds: every |x| in
#: [1e-280, 1e300) has its X inside, and no split of a scale overflows
_X_MIN, _X_MAX = -282, 300
#: cells whose scaled fraction is this close to one half go to Python
_TIE_MARGIN = 1e-6
#: Dekker's splitting constant for doubles, 2**27 + 1
_SPLITTER = 134217729.0

# One cell is a row of _WIDTH bytes, of which a mask keeps the ones it shows:
# the separator before it, the sign, a "0.000" prefix, the 17 digits, a point,
# digits 1-16 again after the point, and "e" with the exponent's sign and
# three digits. The digits and the exponent land on 4-byte boundaries.
_WIDTH = 48
_SEPARATOR, _SIGN, _PREFIX, _DIGITS, _POINT, _FRACTION, _E, _EXPONENT = 0, 1, 2, 7, 24, 25, 41, 44
_TEMPLATE = np.frombuffer(b",-0.000" + bytes(17) + b"." + bytes(16) + b"e" + bytes(6), np.uint8)
#: a cell of a zero column: separator, sign and "0", the sign kept where it is set
_ZERO = np.frombuffer(b",-0", np.uint8)
#: template bytes formatted per block, 4096 cells of _WIDTH: bounds the
#: scratch arrays, and so peak memory
_BLOCK_BYTES = 4096 * _WIDTH
#: mask classes: 0-20 fixed notation at X = -4..16, of which the last is also
#: the integer form, then scientific notation at X in (-100, -4), <= -100,
#: [17, 100) and >= 100
_CLASSES, _INTEGER = 25, 20


def _split(a):
    """Dekker's split of doubles into 26-bit halves whose products are exact."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _scale_table() -> np.ndarray:
    """Rows hi, lo, high(hi), low(hi) of 10**(16 - X) over X in [_X_MIN, _X_MAX].

    ``hi`` is the correctly rounded power and ``lo`` the correctly rounded
    rest, both from exact integers: CPython rounds int-to-float conversion
    and int / int correctly.
    """
    rows = []
    for exponent in range(_X_MIN, _X_MAX + 1):
        k = 16 - exponent
        if k >= 0:
            power = 10**k
            hi = float(power)
            lo = float(power - int(hi))
        else:
            power = 10**-k
            hi = 1 / power
            num, den = hi.as_integer_ratio()
            lo = (den - num * power) / (den * power)
        rows.append((hi, lo))
    hi, lo = np.array(rows).T
    return np.array([hi, lo, *_split(hi)])


def _ascii_digits(values, width: int) -> np.ndarray:
    """Rows of ``width`` ASCII digits of non-negative integers, zero-padded."""
    powers = 10 ** np.arange(width - 1, -1, -1)
    return (48 + np.asarray(values)[:, None] // powers % 10).astype(np.uint8)


def _mask_table() -> np.ndarray:
    """Kept bytes of a cell, one row per (negative, class, p).

    p is the last nonzero digit, or in the integer form the first.
    """
    neg, cls, p = (a[..., None] for a in np.ix_(range(2), range(_CLASSES), range(17)))
    exponent = cls - 4
    fixed = cls <= _INTEGER
    integer = cls == _INTEGER
    below_one = exponent < 0
    # digits before the point: X + 1 in fixed notation, one in scientific notation
    split = np.where(fixed, exponent + 1, 1)
    first = np.where(integer, p, 0)
    last = np.where(integer, 16, p)
    j = np.arange(_WIDTH)
    keep = np.zeros((2, _CLASSES, 17, _WIDTH), bool)
    keep |= (j == _SEPARATOR) | ((j == _SIGN) & (neg == 1))
    keep |= (j >= _PREFIX) & (j < _PREFIX + 1 - exponent) & fixed & below_one
    # below one all digits follow the prefix, up to the last nonzero one
    end = np.where(fixed & below_one, last + 1, split)
    keep |= (j >= _DIGITS + first) & (j < _DIGITS + end)
    fraction = ~(fixed & below_one) & (last >= split)
    keep |= (j == _POINT) & fraction
    keep |= (j >= _FRACTION - 1 + split) & (j < _FRACTION + last) & fraction
    scientific = ~fixed
    hundreds = (cls == 22) | (cls == 24)
    keep |= ((j == _E) | (j == _EXPONENT) | (j >= _EXPONENT + 2)) & scientific
    keep |= (j == _EXPONENT + 1) & hundreds
    return keep.reshape(-1, _WIDTH)


def _digit_quads() -> np.ndarray:
    """The strings "0000" to "9999", four ASCII bytes per entry, joined from pairs."""
    pairs = _ascii_digits(np.arange(100), 2)
    quads = np.hstack([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))])
    return quads.view(np.uint32)[:, 0]


_SCALE = _scale_table()
_QUADS = _digit_quads()
_MASKS = _mask_table()


def _exponent_tables():
    """Mask class and exponent bytes (sign and three digits) over X in [_X_MIN, _X_MAX]."""
    exponent = np.arange(_X_MIN, _X_MAX + 1)
    cls = np.select(
        [exponent <= -100, exponent < -4, exponent <= 16, exponent < 100],
        [22, 21, exponent + 4, 23],
        24,
    )
    signs = np.where(exponent < 0, 45, 43).astype(np.uint8)[:, None]
    chars = np.hstack([signs, _ascii_digits(np.abs(exponent), 3)])
    return cls, chars.view(np.uint32)[:, 0]


_CLASS, _EXPONENT_CHARS = _exponent_tables()


def _float_parts(x: np.ndarray):
    """Sign, 17-digit integer D and exponent X of doubles, and where they are proven.

    For a finite nonzero x, D = round(|x| * 10**(16 - X)) with X the
    exponent of |x| rounded to 17 digits, so x reads D[0].D[1:]e X. The
    product is a double-double, exact to about 1e-14 in units of D. Zeros
    are D = 0 at X = 16 (the integer form); other unproven cells are left
    for Python to format.
    """
    magnitude = np.abs(x)
    exact = (magnitude >= 1e-280) & (magnitude < 1e300)
    a = np.where(exact, magnitude, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int32)
    hi, lo, hi_high, hi_low = np.take(_SCALE, exponent - _X_MIN, axis=1)
    product = a * hi
    a_high, a_low = _split(a)
    error = ((a_high * hi_high - product) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest = error + a * lo
    # renormalize, so the fraction of the sum is in ``rest`` alone
    total = product + rest
    rest = rest - (total - product)
    whole = np.floor(rest)
    fraction = rest - whole
    digits = total.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    # the unrounded product must lie in [1e16, 1e17) for X to be the exponent
    exact &= (total > 1e16) | ((total == 1e16) & (rest >= 0.0))
    exact &= (digits < 10**17) & (np.abs(fraction - 0.5) >= _TIE_MARGIN)
    zero = magnitude == 0.0
    digits = np.where(zero, 0, digits)
    exponent = np.where(zero, 16, exponent)
    return np.signbit(x), digits, exponent, exact | zero


def _int_parts(values: np.ndarray):
    """Sign, magnitude D in the integer form X = 16, and which cells fit 17 digits."""
    fits = (values > -(10**17)) & (values < 10**17)
    return values < 0, np.abs(np.where(fits, values, 0).astype(np.int64)), 16, fits


def _cell_rows(rows, negative, digits, exponent) -> np.ndarray:
    """Fill ``rows`` with the bytes of each cell and return the mask of those it shows.

    A cell is ``'%.17g'`` of D[0].D[1:]e X, or ``'%d'`` of D in the integer
    form (X = 16, D < 10**16). ``rows`` holds _TEMPLATE and the separators.
    """
    n = digits.size
    lead, rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    quads = np.empty((n, 4), np.int32)
    np.divmod(high, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low, 10**4, out=(quads[:, 2], quads[:, 3]))
    tail = np.take(_QUADS, quads)
    words = rows.view(np.uint32)
    words[:, _DIGITS // 4 + 1 : _POINT // 4] = tail
    tail = tail.view(np.uint8)
    rows[:, _DIGITS] = lead + 48
    rows[:, _FRACTION : _FRACTION + 16] = tail
    index = exponent - _X_MIN
    words[:, _EXPONENT // 4] = np.take(_EXPONENT_CHARS, index)

    # digits 1-16 that are not "0", one byte each in two little-endian words
    nonzero = tail != 48
    halves = nonzero.view("<u8").astype(float)
    # the highest set bit of the 128-bit pair gives the last nonzero digit (0 if none)
    last = ((np.frexp(halves[:, 1] * 2.0**64 + halves[:, 0])[1] - 1) >> 3) + 1
    cls = np.take(_CLASS, index)
    # the integer form keeps digits from the first nonzero one, D = 0 only its last
    p = np.where(cls == _INTEGER, np.where(digits == 0, 16, 0), last)
    small = np.flatnonzero((lead == 0) & (digits != 0))
    p[small] = 1 + nonzero[small].argmax(axis=1)
    state = (negative * _CLASSES + cls) * 17 + p
    return np.take(_MASKS, state, axis=0)


def _cells(block, integral):
    """Byte rows and masks of the cells of ``block``, equal-length column slices.

    One 48-byte row per cell, in row-major order, each cell's separator a
    comma; the caller joins the kept bytes.
    """
    n_rows, n_columns = len(block[0]), len(block)
    cells = np.zeros((n_rows, n_columns))
    for j, (column, is_int) in enumerate(zip(block, integral)):
        if not is_int:
            cells[:, j] = column
    negative, digits, exponent, exact = _float_parts(cells)
    for j, (column, is_int) in enumerate(zip(block, integral)):
        if is_int:
            negative[:, j], digits[:, j], exponent[:, j], exact[:, j] = _int_parts(column)
    rows = np.tile(_TEMPLATE, (cells.size, 1))
    mask = _cell_rows(rows, negative.ravel(), digits.ravel(), exponent.ravel())
    unproven = np.flatnonzero(~exact)
    if unproven.size:
        row_of, column_of = np.divmod(unproven, n_columns)
        text = [
            ("%d" if integral[j] else "%.17g") % block[j][i].item()
            for i, j in zip(row_of.tolist(), column_of.tolist())
        ]
        chars = np.array(text, dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
        rows[unproven, 1:] = chars
        mask[unproven, 1:] = chars != 0
    return rows, mask


def _row_bytes(block, integral, zero):
    """Byte rows and masks of ``block``, one row of bytes per CSV row.

    Cells of the columns flagged in ``zero`` hold no nonzero value: each is
    the 3 bytes ",-0", the sign kept where it is set. The other cells are
    the 48-byte rows of ``_cells``, copied in between; with no zero column
    they are returned as they are.
    """
    n_rows = len(block[0])
    formatted = [j for j, is_zero in enumerate(zero) if not is_zero]
    if formatted:
        rows, mask = _cells([block[j] for j in formatted], [integral[j] for j in formatted])
        rows, mask = rows.reshape(n_rows, -1), mask.reshape(n_rows, -1)
        if len(formatted) == len(block):
            return rows, mask
    width = sum(_ZERO.size if is_zero else _WIDTH for is_zero in zero)
    data = np.empty((n_rows, width), np.uint8)
    keep = np.empty(data.shape, bool)
    start = taken = 0
    for is_zero, run in itertools.groupby(zip(zero, block), lambda pair: pair[0]):
        run = [column for _, column in run]
        if is_zero:
            stop = start + _ZERO.size * len(run)
            data[:, start:stop] = np.tile(_ZERO, len(run))
            keep[:, start:stop] = True
            for k, column in enumerate(run):
                keep[:, start + _ZERO.size * k + 1] = np.signbit(column)
        else:
            stop = start + _WIDTH * len(run)
            data[:, start:stop] = rows[:, taken : taken + stop - start]
            keep[:, start:stop] = mask[:, taken : taken + stop - start]
            taken += stop - start
        start = stop
    return data, keep


def _format_block(block, integral, zero) -> np.ndarray:
    """The CSV bytes of the rows of ``block``, equal-length column slices.

    The columns flagged in ``zero`` hold no nonzero value. Each row's first
    cell starts with a newline and every other cell with a comma. The
    block's first separator is dropped and its last newline is left to the
    caller.
    """
    rows, mask = _row_bytes(block, integral, zero)
    rows[:, _SEPARATOR] = 10
    mask[0, _SEPARATOR] = False
    return np.compress(mask.ravel(), rows.ravel())


def _write_columns(path, header: str, columns, preamble: str | None = None) -> None:
    """Write equal-length columns under ``header``, one row per entry.

    Integer and bool columns are written as ``'%d'`` writes them, the rest
    as ``'%.17g'`` writes their doubles; the module docstring says how.
    Raises ``ValueError`` before the file is opened when the columns differ
    in length.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"cannot write {path}: columns differ in length {sorted(lengths)}")
    n_rows = max(lengths, default=0)
    columns = [np.asarray(column) for column in columns]
    integral = [column.dtype.kind in "biu" for column in columns]
    columns = [c if i else c.astype(float, copy=False) for c, i in zip(columns, integral)]
    # a float column with no nonzero cell is written from its sign bits alone;
    # count_nonzero, unlike np.any, raises no warning on any NaN bit pattern
    zero = [not i and np.count_nonzero(c) == 0 for c, i in zip(columns, integral)]
    # one formatting call per block of about _BLOCK_BYTES template bytes
    width = sum(_ZERO.size if is_zero else _WIDTH for is_zero in zero)
    block = max(1, _BLOCK_BYTES // max(width, 1))
    with open(path, "wb") as handle:
        if preamble:
            handle.write(f"{preamble}\n".encode())
        handle.write(f"{header}\n".encode())
        for start in range(0, n_rows, block):
            handle.write(_format_block([c[start : start + block] for c in columns], integral, zero))
            handle.write(b"\n")


def _re_im(labels, values) -> tuple[str, list]:
    """Header cells and real/imaginary columns of the complex columns ``values``."""
    header = ",".join(f"re_{lab},im_{lab}" for lab in labels)
    return header, [part for column in values for part in (column.real, column.imag)]


def write_amplitude_csv(path, traj) -> None:
    """One row per grid point: t plus re/im of every amplitude component."""
    header, columns = _re_im(traj.labels, traj.states.T)
    _write_columns(path, "t," + header, [traj.grid.times, *columns])


def write_rates_csv(path, rates: RateTrajectory) -> None:
    _write_columns(path, "t,S,gamma,valid", [rates.grid.times, rates.s, rates.gamma, rates.valid])


def write_identity_csv(path, report: MemoryIdentityReport) -> None:
    columns = [report.grid.times, report.lhs, report.rhs, report.residual]
    _write_columns(path, "t,lhs,rhs,residual", columns)


def write_density_csv(path, densities: DensitySeries, times: np.ndarray) -> None:
    """Upper triangle in row-major order, dimension declared in a comment line."""
    dim = densities.dim
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    header, columns = _re_im(
        [f"{i}{j}" for i, j in pairs], [densities.matrices[:, i, j] for i, j in pairs]
    )
    preamble = f"# dim={dim}, basis={','.join(densities.basis)}"
    _write_columns(path, "t," + header, [times, *columns], preamble)


def write_ensemble_csv(path, ens: Ensemble) -> None:
    """Counts and the shared state, labelled on its basis: cg,ce on the emitter alone."""
    labels = ["c" + label for label in basis_labels(ens.psi0.shape[1])]
    header, columns = _re_im(labels, ens.psi0.T)
    _write_columns(path, "t,n0,n1," + header, [ens.grid.times, ens.n0, ens.n1, *columns])


def write_comparison_csv(path, report: ComparisonReport) -> None:
    columns = [
        report.grid.times,
        report.pg_nmqj,
        report.pg_mcwf,
        report.pg_exact,
        report.sigma,
        report.z,
    ]
    _write_columns(path, "t,pg_nmqj,pg_mcwf,pg_exact,sigma,z", columns)


def write_info_csv(path, series: InfoSeries) -> None:
    columns = [
        series.grid.times,
        series.entropy_atom,
        series.entropy_modes,
        series.entropy_joint,
        series.mutual_information,
    ]
    _write_columns(path, "t,s_atom,s_pseudo,s_joint,mutual_info", columns)


def write_rate_curves_csv(path, rates: RateTrajectory, report: MemoryIdentityReport) -> None:
    """The rates' gamma beside their memory identity's two sides (preset export)."""
    columns = [rates.grid.times, rates.gamma, report.lhs, report.rhs, rates.valid]
    _write_columns(path, "t,gamma,compensated,gamma_c1sq,valid", columns)
