"""Tabular container for one observed series and CSV round tripping.

A dataset is the triple (response, regressor block, scalar covariate)
with column labels carried along for reporting.  The module owns the
one CSV dialect the package writes, :func:`csv_text`: a header row,
commas, ``"\\n"`` line ends, floats in ``%.17g`` so that write followed
by load reproduces every float bit for bit, integers and booleans as
``%d`` and strings as they are, quoted only if they hold a comma, a
quote or a line end.  It also owns the one reader,
:func:`read_columns`, and :func:`split_fields`, which splits every list
the command line takes with the reader's quoting rules.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import ParameterError, ParseError, SchemaError
from .kernel import SortedView

FLOAT_FMT = "%.17g"
# the cell format of a numeric ndarray column, by dtype kind
_ARRAY_FMT = {"f": FLOAT_FMT, "i": "%d", "u": "%d", "b": "%d"}


@dataclass(frozen=True)
class TimeSeriesDataset:
    """One observed series: response ``y``, regressors ``x``, covariate ``v``.

    ``y`` and ``v`` have shape (n,), ``x`` has shape (n, d) with d >= 1.
    Every cell must be a finite real number: text, bools, complex values,
    NaN or infinity raise :class:`ParameterError` naming the column (and
    the first 1-based row of a non-finite value).
    Arrays are stored as read only copies the dataset owns, so neither the
    caller's arrays nor the dataset change when the other does.
    """

    y: np.ndarray
    x: np.ndarray
    v: np.ndarray
    y_label: str = "y"
    x_labels: tuple[str, ...] = field(default=())
    v_label: str = "v"

    def __post_init__(self) -> None:
        given = ((self.y_label, self.y), ("x", self.x), (self.v_label, self.v))
        for label, value in given:
            try:
                kind = np.asarray(value).dtype.kind
            except ValueError:  # ragged rows
                raise ParameterError(f"column {label!r} has ragged rows") from None
            if kind not in "iuf":  # text, bools, complex values
                raise ParameterError(f"column {label!r} must hold real numbers")
        y = np.atleast_1d(np.array(self.y, dtype=float))
        x = np.array(self.x, dtype=float)
        v = np.atleast_1d(np.array(self.v, dtype=float))
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim != 1 or v.ndim != 1 or x.ndim != 2:
            raise ParameterError("y and v must be 1-d, x must be 2-d")
        n = y.size
        if n < 1:
            raise ParameterError("dataset needs at least one observation")
        if x.shape[0] != n or v.size != n:
            raise ParameterError(
                f"length mismatch: y has {n}, x has {x.shape[0]}, v has {v.size}"
            )
        if x.shape[1] < 1:
            raise ParameterError("x needs at least one column")
        labels = self.x_labels or tuple(f"x{j + 1}" for j in range(x.shape[1]))
        if len(labels) != x.shape[1]:
            raise ParameterError(
                f"{len(labels)} regressor labels for {x.shape[1]} columns"
            )
        for name, arr in (("y", y), ("x", x), ("v", v)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "x_labels", tuple(labels))
        for label, col in _columns(self):
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise ParameterError(
                    f"column {label!r}: {bad.size} non-finite value(s), "
                    f"first at row {int(bad[0]) + 1}"
                )

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def sorted_v(self) -> SortedView:
        """The covariate sorted once, built on first use and shared by
        every kernel computation on this dataset (``v`` is read only,
        so the view never goes stale)."""
        return SortedView(self.v)


def _columns(ds: TimeSeriesDataset) -> list[tuple[str, np.ndarray]]:
    """Every column of ``ds`` with its label: y, the regressors, v."""
    columns = [(ds.y_label, ds.y)]
    columns += [(lab, ds.x[:, j]) for j, lab in enumerate(ds.x_labels)]
    columns.append((ds.v_label, ds.v))
    return columns


@dataclass(frozen=True)
class ValidationIssue:
    """A warning about one column of a dataset."""

    column: str
    message: str


def _select(
    cols: list[int | str], names: list[str] | None, path: str
) -> tuple[list[int], list[str]]:
    """The positions of the column selectors ``cols`` (names, or 0-based
    positions), and their labels: the header name, or ``col<position>``."""
    positions = []
    for col in cols:
        if isinstance(col, int):
            if col < 0 or (names is not None and col >= len(names)):
                raise SchemaError(f"{path}: no column at position {col}")
        elif names is None:
            raise SchemaError(
                f"{path}: column {col!r} requested by name but the file was "
                "read without a header row"
            )
        elif col not in names:
            raise SchemaError(f"{path}: column {col!r} not found; header has {names}")
        positions.append(col if isinstance(col, int) else names.index(col))
    labels = [names[p] if names is not None else f"col{p}" for p in positions]
    return positions, labels


def read_columns(
    path: str, cols: list[int | str], header: bool = True
) -> tuple[np.ndarray, list[str]]:
    """Parse the selected columns of a CSV file as floats.

    Columns are selected by header name, or by 0-based position when
    ``header`` is false.  Returns the (rows, len(cols)) values and a
    label per column: the header name, or ``col<position>``.

    Input contract.  Cells are quoted as :mod:`csv` reads them: a cell
    in double quotes may hold commas and line ends, and ``""`` inside
    it is one quote.  Empty lines are skipped, before the header too;
    every other line is a row, so a line of blanks or one starting with
    ``#`` is read as cells.  Labels and cells are stripped of
    surrounding blanks, each selected cell is read by Python's
    ``float`` (``nan``, ``inf``, ``1_0`` included), extra fields are
    ignored and unselected columns are never parsed.  A file without
    data rows, or a selector naming no column, raises
    :class:`SchemaError`.  A selected cell that is not a float raises
    :class:`ParseError` naming its column label and 1-based data row;
    a row too short to reach a selected column, one naming the row, and
    a line :mod:`csv` cannot read (a field over its size limit), one
    naming the line.

    One :mod:`csv` pass reads the header and resolves the selectors, so a
    wrong selector is found from the header and at most one data row.
    numpy's C reader parses the rows after it, in chunks of the file it
    opens by name; rows it refuses or warns about are read again by
    :func:`_parse_cells`, one cell at a time by ``float``, which gives
    the same values or the error above for the first faulty row.
    """
    # numpy parses a file it opens in chunks, else line by line; it skips
    # the lines csv read, but would decompress or fetch some names
    name = str(path)
    named = "://" not in name and not name.endswith((".gz", ".bz2", ".xz", ".lzma"))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        try:
            names = [c.strip() for c in next(rows, ())] if header else None
            if names == []:  # not even a header row
                raise SchemaError(f"{path}: empty file")
            try:
                positions, labels = _select(cols, names, path)
            except SchemaError:
                # a file without data rows says so before a selector fails;
                # finding one row settles it, the others are never read
                if next(rows, None) is None:
                    raise SchemaError(f"{path}: no data rows") from None
                raise
            # numpy raises on a row it refuses and warns on a file without
            # rows; either way the rows are read again below, cell by cell
            with suppress(ValueError, Warning), warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(
                    path if named else fh, delimiter=",", usecols=positions,
                    skiprows=reader.line_num if named else 0, comments=None,
                    quotechar='"', ndmin=2,
                )
                return data, labels
            if not named:  # numpy read on from the header: read the file again
                fh.seek(0)
                reader = csv.reader(fh)
                rows = islice(filter(None, reader), 1 if header else 0, None)
            body = list(rows)
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded in chunks: no line to name
            raise ParseError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    if not body:
        raise SchemaError(f"{path}: no data rows")
    return _parse_cells(path, body, positions, labels), labels


def _parse_cells(
    path: str, rows: list[list[str]], positions: list[int], labels: list[str]
) -> np.ndarray:
    """The cells at ``positions`` of the data ``rows``, each read by
    ``float``; the first faulty row raises its ParseError."""
    data = np.empty((len(rows), len(positions)))
    for i, row in enumerate(rows):
        for j, pos in enumerate(positions):
            if pos >= len(row):
                raise ParseError(f"{path}: data row {i + 1} has only {len(row)} fields")
            cell = row[pos].strip()
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {cell!r} in column "
                    f"{labels[j]!r} at data row {i + 1}"
                ) from None
    return data


def split_fields(text: str) -> list[str]:
    """The comma separated items of one line of ``text``, quoted as in
    a CSV file (so ``'"a,b",c'`` is ``["a,b", "c"]``), each stripped,
    empty items dropped."""
    try:
        fields = next(csv.reader([text]), [])
    except csv.Error as exc:
        raise ParameterError(f"cannot read {text!r} as CSV fields: {exc}") from None
    return [f.strip() for f in fields if f.strip()]


def load_csv(
    path: str,
    y_col: int | str = "y",
    x_cols: tuple[int | str, ...] = ("x1",),
    v_col: int | str = "v",
    header: bool = True,
) -> TimeSeriesDataset:
    """Read a dataset from a CSV file.

    Columns are selected as in :func:`read_columns`, which also raises
    its parse and schema errors.  A cell that parses to NaN or infinity
    is rejected by :class:`TimeSeriesDataset`.
    """
    if not x_cols:
        raise ParameterError("x_cols must name at least one column")
    data, labels = read_columns(path, [y_col, *x_cols, v_col], header)
    k = len(x_cols)
    return TimeSeriesDataset(
        y=data[:, 0],
        x=data[:, 1 : 1 + k],
        v=data[:, 1 + k],
        y_label=labels[0],
        x_labels=tuple(labels[1 : 1 + k]),
        v_label=labels[1 + k],
    )


def _cell(value) -> str:
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            # quoted, as csv.reader expects, so the row keeps its width
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return "%d" % value
    return FLOAT_FMT % value


# rows formatted per piece of text, which bounds the memory of writing
_CSV_CHUNK_ROWS = 2**14


def _csv_pieces(header: Sequence[str], columns: Sequence[Sequence]):
    """:func:`csv_text` as consecutive pieces of text: the header line,
    then the rows ``_CSV_CHUNK_ROWS`` at a time."""
    formats, values = [], []
    for col in columns:
        fmt = _ARRAY_FMT.get(col.dtype.kind) if isinstance(col, np.ndarray) else None
        if fmt is None:
            # strings and plain sequences, cell by cell
            items = col.tolist() if isinstance(col, np.ndarray) else col
            fmt, col = "%s", [_cell(c) for c in items]
        formats.append(fmt)
        values.append(col)
    lengths = [len(c) for c in values]
    if len(values) != len(header) or len(set(lengths)) > 1:
        raise ParameterError(
            f"{len(header)} column names for columns of lengths {lengths}"
        )
    template = ",".join(formats)
    yield ",".join(map(_cell, header)) + "\n"
    for start in range(0, lengths[0] if lengths else 0, _CSV_CHUNK_ROWS):
        part = [c[start : start + _CSV_CHUNK_ROWS] for c in values]
        part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
        yield "\n".join([template % row for row in zip(*part)]) + "\n"


def csv_text(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The CSV text of a table: ``header``, then one row per position of
    the equal-length ``columns``, in the module's dialect."""
    return "".join(_csv_pieces(header, columns))


def write_csv(path: str, ds: TimeSeriesDataset) -> None:
    """Write ``ds`` as :func:`csv_text`: y, the regressors, then v,
    formatting a bounded number of rows at a time."""
    labels, columns = zip(*_columns(ds))
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_pieces(labels, columns))


def validate(ds: TimeSeriesDataset) -> list[ValidationIssue]:
    """Warn about constant columns, without modifying the dataset.

    A constant regressor makes the detrended design singular and a
    constant covariate makes every kernel window degenerate.  Non-finite
    cells need no check here: the dataset constructor rejects them.
    """
    if ds.n < 2:
        return []
    return [
        ValidationIssue(column=label, message="column is constant")
        for label, col in _columns(ds)
        if np.all(col == col[0])
    ]
