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

An integer below 2**53 in magnitude is a double, and ``'%.17g'`` writes it
as ``'%d'`` does, so integer cells take the same path. Every other float
cell (near-ties, NaN, infinities, subnormals and values out of that range),
and every integer of 2**53 or more, is formatted by Python itself: the fast
path never guesses. Zeros take the fast path as D = 0 at X = 0. Each cell
is then laid out in a fixed 48-byte row (a head of separator, sign and,
below one, "0." and zeros, ending where the 17 digits start; a point;
digits 1-16 again; the exponent) from which a mask table keeps the bytes
that ``%g`` would print, and one 1-D boolean subscript per block joins the
kept bytes without building an index of them.

A float column with no nonzero cell, other than the first column (in the
pseudomode sector, every vacuum/one-excitation coherence and the imaginary
part of every population), skips the digits: each of its cells is ",0" or
",-0", and where its signs vary ",-0" with the sign kept only where the
sign bit is set. These bytes follow the 48 bytes of the formatted cell
before them, in a row that every formatted cell of the layout widens to hold
the longest such run.

What does not depend on the cells is built once per layout (``_Layout``):
the split of the columns and the byte rows and masks with every constant
byte in place, so a block pays only for its cells. A block holds as many
rows as fit 4096 * 48 template bytes, counting 48 per formatted cell and
2 or 3 per zero cell: 4096 cells when no column is zero, more rows when
some are.

A file's rows come in chunks of consecutive rows, read once (whole arrays
are one chunk), so a series that is never held whole can be written as it
is made (:func:`_write_chunks`). Each chunk is written with the layout of
its own columns: which are zero, with which signs, and which integers reach
2**53. A new layout is built only for a chunk whose columns differ in these
from the chunk before it. Every layout writes a cell as Python would, so a
file's bytes do not depend on how its rows are chunked.
"""

from __future__ import annotations

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
_N_X = _X_MAX - _X_MIN + 1
#: cells whose scaled fraction is this close to one half go to Python
_TIE_MARGIN = 1e-6
#: Dekker's splitting constant for doubles, 2**27 + 1
_SPLITTER = 134217729.0
#: integers this large or larger may not be doubles; Python writes them
_EXACT_INT = 2.0**53

# One cell is a row of _WIDTH bytes, of which a mask keeps the ones it shows:
# the head (separator, sign, and below one "0." and zeros) ending where the
# 17 digits start, a point, digits 1-16 again after the point, and the
# exponent: one word of "e", its sign and two digits, or "e" before a word of
# its sign and three digits. Head, digits and exponent are written as whole
# words, and the kept bytes of a cell form one to three runs, which is what
# the join's time grows with.
_WIDTH = 48
_DIGITS, _POINT, _FRACTION, _E, _EXPONENT = 7, 24, 25, 43, 44
_TEMPLATE = np.frombuffer(bytes(24) + b"." + bytes(18) + b"e" + bytes(4), np.uint8)
#: template bytes formatted per block, 4096 cells of _WIDTH: bounds the
#: scratch arrays, and so peak memory (about 1 MiB on the widest file). Larger
#: blocks ran faster only where the allocator kept the freed scratch; where it
#: returned it to the system, 16384 cells raised the page faults of a
#: perfbench `shipped` pass from about 400 to 21 000 and peak RSS by 3 MB
_BLOCK_BYTES = 4096 * _WIDTH
#: mask classes: 0-20 fixed notation at X = -4..16, then scientific notation
#: at X in (-100, -4), <= -100, [17, 100) and >= 100
_CLASSES, _FIXED = 25, 20


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
    """Kept bytes of a cell, one row per (negative, class, p), p its last nonzero digit."""
    neg, cls, p = (a[..., None] for a in np.ix_(range(2), range(_CLASSES), range(17)))
    exponent = cls - 4
    fixed = cls <= _FIXED
    below_one = fixed & (exponent < 0)
    # digits before the point: X + 1 in fixed notation, one in scientific notation
    split = np.where(fixed, exponent + 1, 1)
    head = 1 + neg + np.where(below_one, 1 - exponent, 0)
    j = np.arange(_WIDTH)
    # below one all digits follow the head, up to the last nonzero one
    keep = (j >= _DIGITS - head) & (j < _DIGITS + np.where(below_one, p + 1, split))
    fraction = ~below_one & (p >= split)
    keep |= ((j == _POINT) | (j >= _FRACTION - 1 + split) & (j < _FRACTION + p)) & fraction
    hundreds = (cls == 22) | (cls == 24)
    keep |= (j >= np.where(hundreds, _E, _EXPONENT)) & ~fixed
    return keep.reshape(-1, _WIDTH)


def _digit_quads() -> np.ndarray:
    """The strings "0000" to "9999", four ASCII bytes per entry, joined from pairs."""
    pairs = _ascii_digits(np.arange(100), 2)
    quads = np.hstack([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))])
    return quads.view(np.uint32)[:, 0]


def _exponent_tables():
    """Tables over X in [_X_MIN, _X_MAX], negative cells after the others.

    The exponent word of each X; the first row of _MASKS of each sign and X;
    and the head word of each sign and X, for cells after a comma and then
    for a row's first cell, after a newline.
    """
    exponent = np.arange(_X_MIN, _X_MAX + 1)
    cls = np.select(
        [exponent <= -100, exponent < -4, exponent <= 16, exponent < 100],
        [22, 21, exponent + 4, 23],
        24,
    )
    signs = np.where(exponent < 0, 45, 43).astype(np.uint8)[:, None]
    digits = _ascii_digits(np.abs(exponent), 3)
    two = np.hstack([np.full_like(signs, ord("e")), signs, digits[:, 1:]])
    chars = np.where(np.abs(exponent)[:, None] < 100, two, np.hstack([signs, digits]))
    first_row = np.concatenate([cls, _CLASSES + cls]) * 17
    # heads by separator, sign and zeros after "0.", right-aligned in 8 bytes
    heads = np.zeros((2, 2, 5, 8), np.uint8)
    for first, separator in enumerate(",\n"):
        for neg, sign in enumerate(("", "-")):
            for zeros in range(5):
                head = (separator + sign + ("0." + "0" * (zeros - 1) if zeros else "")).encode()
                heads[first, neg, zeros, _DIGITS - len(head) : _DIGITS] = list(head)
    zeros = np.where((exponent < 0) & (exponent >= -4), -exponent, 0)
    head_words = heads.view(np.uint64)[..., 0][:, :, zeros].ravel()
    return chars.view(np.uint32)[:, 0], first_row, head_words


_SCALE = _scale_table()
_QUADS = _digit_quads()
_MASKS = _mask_table()
_EXPONENT_CHARS, _FIRST_ROW, _HEADS = _exponent_tables()


def _scaled(a, exponent):
    """a * 10**(16 - X) as a double-double: the rounded product and its remainder."""
    hi, lo, hi_high, hi_low = _SCALE.take(exponent - _X_MIN, axis=1, mode="clip")
    product = a * hi
    a_high, a_low = _split(a)
    error = ((a_high * hi_high - product) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest = error + a * lo
    # renormalize, so the fraction of the sum is in the remainder alone
    total = product + rest
    return total, rest - (total - product)


def _float_parts(x: np.ndarray):
    """Sign, 17-digit integer D and exponent X of doubles, and where they are proven.

    For a finite nonzero x, D = round(|x| * 10**(16 - X)) with X the
    exponent of |x| rounded to 17 digits, so x reads D[0].D[1:]e X. The
    product is a double-double, exact to about 1e-14 in units of D. Zeros
    are D = 0 at X = 0; other unproven cells are left for Python to format.
    """
    magnitude = np.abs(x)
    zero = magnitude == 0.0
    exact = (magnitude >= 1e-280) & (magnitude < 1e300)
    a = np.where(exact, magnitude, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int32)
    total, rest = _scaled(a, exponent)
    whole = np.floor(rest)
    half = rest - whole - 0.5
    # total is an integer from 2**53 on, so this is the product's floor there,
    # and below 2**53 it is below 1e16
    floor = total.astype(np.int64) + whole.astype(np.int64)
    digits = floor + (half > 0.0)
    # the unrounded product must lie in [1e16, 1e17) for X to be the exponent
    exact &= (floor >= 10**16) & (digits < 10**17) & (np.abs(half) >= _TIE_MARGIN)
    np.copyto(digits, 0, where=zero)
    return np.signbit(x), digits, exponent, exact | zero


def _write_digits(rows, digits):
    """Write the 17 digits of each D into ``rows``, and digits 1-16 again after
    the point; return the place of the last nonzero one of those (0 if none)."""
    # numpy divides by a scalar with libdivide for //, not for divmod
    lead = digits // 10**16
    rest = digits - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    quads = np.empty((digits.size, 4), np.int32)
    quads[:, 0] = high // 10**4
    quads[:, 1] = high - quads[:, 0] * 10**4
    quads[:, 2] = low // 10**4
    quads[:, 3] = low - quads[:, 2] * 10**4
    tail = _QUADS.take(quads, mode="clip")
    rows[:, _DIGITS] = lead + 48
    rows.view(np.uint32)[:, _DIGITS // 4 + 1 : _POINT // 4] = tail
    tail = tail.view(np.uint8)
    rows[:, _FRACTION : _FRACTION + 16] = tail
    # digits 1-16 that are not "0", one byte each in two little-endian words
    halves = (tail != 48).view("<u8").astype(float)
    # the highest set bit of the 128-bit pair gives the last nonzero digit
    return ((np.frexp(halves[:, 1] * 2.0**64 + halves[:, 0])[1] - 1) >> 3) + 1


def _cell_rows(rows, mask, negative, digits, exponent, first) -> None:
    """Fill ``rows`` with the bytes of each cell and ``mask`` with those it shows.

    The cells are ``'%.17g'`` of D[0].D[1:]e X, the parts given per (row,
    column); ``first`` is the offset of _HEADS per column, whose heads start
    with a newline for the row's first cell. ``rows`` holds _TEMPLATE.
    """
    index = exponent - _X_MIN
    signed = negative * _N_X + index
    # the head word's last byte is the leading digit's, written after it
    rows.view(np.uint64)[:, 0] = _HEADS.take(signed + first, mode="clip").ravel()
    last = _write_digits(rows, digits.ravel())
    rows.view(np.uint32)[:, _EXPONENT // 4] = _EXPONENT_CHARS.take(index, mode="clip").ravel()
    state = _FIRST_ROW.take(signed, mode="clip").ravel() + last
    _MASKS.take(state, axis=0, out=mask, mode="clip")


def _statistics(columns) -> tuple:
    """Per column of a chunk, what its layout needs: whether it is an integer column,
    whether a float column has a nonzero cell, whether a zero column has a sign
    bit set and whether all do, and whether an integer column reaches 2**53.
    Flags a column's kind leaves unread are False: equal tuples, equal layouts."""
    stats = []
    for column in columns:
        if column.dtype.kind in "biu":
            wide = max(-int(column.min()), int(column.max())) >= _EXACT_INT
            stats.append((True, False, False, False, wide))
        # count_nonzero, unlike np.any, raises no warning on any NaN
        elif np.count_nonzero(column):
            stats.append((False, True, False, False, False))
        else:
            signs = np.signbit(column)
            stats.append((False, False, bool(signs.any()), bool(signs.all()), False))
    return tuple(stats)


class _Layout:
    """The constants and buffers of the chunks of a file whose :func:`_statistics` are
    ``stats``, sized for the first of them and shared by their blocks.

    Every column but those skipped as zero is formatted: the first, every
    integer column and every float column with a nonzero cell; ``formatted``
    holds their indices. ``cells`` holds one row of bytes per formatted cell,
    the 48 bytes of its template and after them the 2- or 3-byte cells (",0"
    or ",-0") of the zero columns up to the next formatted one; ``mask`` the
    bytes each row shows. The zero cells and their masks are written once, but
    for the sign of a zero column whose signs vary, which each block reads
    from its own cells. ``first`` and ``separators`` give the first column the
    newline that starts each row.
    """

    def __init__(self, stats: tuple, n_rows: int):
        self.stats = stats
        self.formatted, self.integral, zero_runs, self.signs = [], [], [], []
        for j, (is_int, nonzero, any_negative, all_negative, _) in enumerate(stats):
            if j == 0 or is_int or nonzero:
                self.formatted.append(j)
                self.integral.append(is_int)
                zero_runs.append([])
            else:
                # a float column with no nonzero cell is written from its sign bits alone
                varies = any_negative and not all_negative
                zero_runs[-1].append((b",-0" if any_negative else b",0", varies, j))
        # integer columns that reach 2**53 have cells that are not doubles
        self.wide = [k for k, j in enumerate(self.formatted) if stats[j][4]]
        n_formatted = len(self.formatted)
        zones = [sum(len(text) for text, _, _ in run) for run in zero_runs]
        self.rows = max(1, min(n_rows, _BLOCK_BYTES // (n_formatted * _WIDTH + sum(zones))))
        # 8-byte aligned rows, so a cell's head is one word
        width = _WIDTH + -(-max(zones) // 8) * 8
        self.values = np.empty((self.rows, n_formatted))
        cells = np.zeros((self.rows, n_formatted, width), np.uint8)
        mask = np.zeros(cells.shape, bool)
        cells[:, :, :_WIDTH] = _TEMPLATE
        for k, run in enumerate(zero_runs):
            at = _WIDTH
            for text, varies, j in run:
                cells[:, k, at : at + len(text)] = list(text)
                mask[:, k, at : at + len(text)] = True
                if varies:
                    self.signs.append((k, at + 1, j))
                at += len(text)
        self.cells = cells.reshape(-1, width)
        self.mask = mask.reshape(-1, width)
        self.first = np.zeros(n_formatted, np.int64)
        self.first[0] = 2 * _N_X
        self.separators = np.full(n_formatted, ord(","), np.uint8)
        self.separators[0] = ord("\n")


def _format_block(layout: _Layout, columns) -> np.ndarray:
    """The CSV bytes of the rows of ``columns``, at most ``layout.rows`` consecutive rows of
    the file's columns, each row starting with a newline."""
    n_rows = len(columns[0])
    n_formatted = len(layout.formatted)
    values = layout.values[:n_rows]
    for k, j in enumerate(layout.formatted):
        values[:, k] = columns[j]
    negative, digits, exponent, exact = _float_parts(values)
    for k in layout.wide:
        exact[:, k] &= np.abs(values[:, k]) < _EXACT_INT
    cells = layout.cells[: n_rows * n_formatted]
    mask = layout.mask[: n_rows * n_formatted]
    rows, shown = cells[:, :_WIDTH], mask[:, :_WIDTH]
    _cell_rows(rows, shown, negative, digits, exponent, layout.first)
    unproven = np.flatnonzero(~exact)
    if unproven.size:
        row_of, column_of = np.divmod(unproven, n_formatted)
        text = [
            ("%d" if layout.integral[k] else "%.17g") % columns[layout.formatted[k]][i].item()
            for i, k in zip(row_of.tolist(), column_of.tolist())
        ]
        chars = np.array(text, dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
        rows[unproven, 0] = layout.separators[column_of]
        rows[unproven, 1:] = chars
        shown[unproven, 0] = True
        shown[unproven, 1:] = chars != 0
    for k, position, j in layout.signs:
        # assigned, as numpy 2.4's signbit into a strided out= skips most of its cells
        mask[k::n_formatted, position] = np.signbit(columns[j])
    # a 1-D boolean subscript copies the kept bytes in one pass; np.compress
    # would first build an int64 index of them, 8 bytes per byte written
    joined = cells.ravel()[mask.ravel()]
    if unproven.size:
        rows[unproven] = _TEMPLATE
    return joined


def _write_chunks(path, header: str, chunks, preamble: str | None) -> None:
    """Write the rows of ``chunks``, lists of equal-length columns, under ``header``.

    ``chunks`` is iterated once, and each chunk's rows are written before the
    next chunk is asked for. A chunk is written in blocks of the layout of its
    own :func:`_statistics`, built anew only where they differ from those of the
    chunk before; no block spans two chunks. Integer and bool columns are
    written as ``'%d'`` writes them, the rest as ``'%.17g'`` writes their
    doubles, whatever the layout (the module docstring says how), so a file's
    bytes do not depend on how its rows are chunked.
    """
    with open(path, "wb") as handle:
        if preamble:
            handle.write(f"{preamble}\n".encode())
        # every row starts with its newline, so the file's last one comes after
        handle.write(header.encode())
        layout = None
        for columns in chunks:
            n_rows = len(columns[0])
            if not n_rows:
                continue
            stats = _statistics(columns)
            if layout is None or stats != layout.stats:
                layout = _Layout(stats, n_rows)
            for start in range(0, n_rows, layout.rows):
                block = [column[start : start + layout.rows] for column in columns]
                handle.write(_format_block(layout, block))
        handle.write(b"\n")


def _write_columns(path, header: str, columns, preamble: str | None = None) -> None:
    """Write equal-length columns under ``header``, one row per entry, as one chunk of
    :func:`_write_chunks`. Raises ``ValueError`` before the file is opened when
    the columns differ in length."""
    _check_lengths(path, {len(column) for column in columns})
    _write_chunks(path, header, [[np.asarray(column) for column in columns]], preamble)


def _check_lengths(path, lengths: set) -> None:
    if len(lengths) > 1:
        raise ValueError(f"cannot write {path}: columns differ in length {sorted(lengths)}")


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


def write_density_csv(path, densities, times: np.ndarray) -> None:
    """Upper triangle in row-major order, dimension declared in a comment line.

    ``densities`` is a ``DensitySeries``, one chunk, or a stream of one such
    as ``density._LindbladStream``, written a chunk at a time as it is made:
    it has ``dim``, ``basis`` and a length, and its one iteration yields
    ``(rows, part)`` pairs, ``part`` the series of the states ``rows``, in
    order (:func:`_write_chunks`).
    """
    _check_lengths(path, {len(densities), len(times)})
    dim = densities.dim
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    labels = [f"{i}{j}" for i, j in pairs]
    header, _ = _re_im(labels, ())
    parts = [(slice(None), densities)] if isinstance(densities, DensitySeries) else densities
    chunks = (
        [times[rows], *_re_im(labels, [part.matrices[:, i, j] for i, j in pairs])[1]]
        for rows, part in parts
    )
    preamble = f"# dim={dim}, basis={','.join(densities.basis)}"
    _write_chunks(path, "t," + header, chunks, preamble)


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
