"""Dataset container, CSV round tripping and validation."""

import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import build_dataset
from partlin import dataset
from partlin.dataset import (
    TimeSeriesDataset,
    ValidationIssue,
    csv_text,
    load_csv,
    read_columns,
    split_fields,
    validate,
    write_csv,
)
from partlin.errors import ParameterError, ParseError, SchemaError


def small():
    return TimeSeriesDataset(
        y=np.array([1.0, 2.0, 3.0]),
        x=np.array([[0.5], [1.5], [2.5]]),
        v=np.array([-0.3, 0.1, 0.4]),
    )


def test_shapes_and_default_labels():
    ds = small()
    assert ds.n == 3
    assert ds.d == 1
    assert ds.x_labels == ("x1",)
    assert ds.y_label == "y"
    assert ds.v_label == "v"


def test_one_dimensional_x_promoted():
    ds = TimeSeriesDataset(
        y=np.zeros(4), x=np.arange(4.0), v=np.zeros(4)
    )
    assert ds.x.shape == (4, 1)


def test_multi_column_labels():
    ds = TimeSeriesDataset(
        y=np.zeros(2), x=np.zeros((2, 3)), v=np.zeros(2)
    )
    assert ds.x_labels == ("x1", "x2", "x3")


def test_arrays_are_read_only():
    ds = small()
    for arr in (ds.y, ds.x, ds.v):
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_caller_arrays_stay_writable_and_apart():
    """The dataset stores copies: the caller may still write to its own
    arrays, and doing so changes neither ``v`` nor the sorted view."""
    y, x, v = np.zeros(3), np.ones(3), np.array([2.0, 0.0, 1.0])
    ds = TimeSeriesDataset(y=y, x=x, v=v)
    y[0] = x[0] = v[0] = -5.0  # before the sorted view is first built
    assert ds.y[0] == 0.0 and ds.x[0, 0] == 1.0
    np.testing.assert_array_equal(ds.v, [2.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.sorted_v.values[0], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(ds.sorted_v.order, [1, 2, 0])


def test_dataclass_is_frozen():
    ds = small()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.y_label = "other"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(y=np.zeros(3), x=np.zeros((4, 1)), v=np.zeros(3)), "length"),
        (dict(y=np.zeros(3), x=np.zeros((3, 1)), v=np.zeros(2)), "length"),
        (dict(y=np.zeros(0), x=np.zeros((0, 1)), v=np.zeros(0)), "observation"),
        (dict(y=np.zeros(3), x=np.zeros((3, 0)), v=np.zeros(3)), "column"),
        (dict(y=np.zeros((3, 1)), x=np.zeros((3, 1)), v=np.zeros(3)), "1-d"),
        (dict(y=np.zeros(3), x=np.array([["1"], ["a"], ["2"]]), v=np.zeros(3)),
         "column 'x' must hold real numbers"),
        (dict(y=np.zeros(3), x=np.zeros((3, 1)), v=np.array([True, False, True])),
         "column 'v' must hold real numbers"),
        (dict(y=np.array([1.0, 2.0 + 1.0j, 3.0]), x=np.zeros((3, 1)), v=np.zeros(3)),
         "column 'y' must hold real numbers"),
        (dict(y=[[1.0, 2.0], [3.0]], x=np.zeros((2, 1)), v=np.zeros(2)),
         "column 'y' has ragged rows"),
    ],
    ids=["x_rows_mismatch", "v_rows_mismatch", "no_rows", "no_x_columns", "y_2d",
         "string_x", "bool_v", "complex_y", "ragged_y"],
)
def test_bad_shapes_rejected(kwargs, match):
    """A wrong shape, or a column of anything but real numbers, raises a
    ``ParameterError`` naming the fault, not a raw numpy error or warning."""
    with pytest.raises(ParameterError, match=match):
        TimeSeriesDataset(**kwargs)


def test_label_count_mismatch():
    with pytest.raises(ParameterError, match="labels"):
        TimeSeriesDataset(
            y=np.zeros(2),
            x=np.zeros((2, 2)),
            v=np.zeros(2),
            x_labels=("only_one",),
        )


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tricky = np.array([1.0 / 3.0, np.pi, 1e-300, -1e300, 2.0**-52, -0.0])
    ds = TimeSeriesDataset(
        y=np.concatenate([tricky, rng.standard_normal(10)]),
        x=rng.standard_normal((16, 2)),
        v=rng.standard_normal(16) * 1e6,
        x_labels=("a", "b"),
    )
    path = tmp_path / "round.csv"
    write_csv(str(path), ds)
    back = load_csv(str(path), y_col="y", x_cols=("a", "b"), v_col="v")
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.v, ds.v)
    assert back.x_labels == ("a", "b")


def test_csv_text_dialect():
    text = csv_text(
        ("f", "i", "b", "s"),
        (np.array([0.1, 2.0]), [3, np.int64(-4)], np.array([True, False]), ["a", "b"]),
    )
    assert text == "f,i,b,s\n0.10000000000000001,3,1,a\n2,-4,0,b\n"
    assert csv_text(("key", "value"), (["x"], [np.float64(1 / 3)])) == (
        "key,value\nx,0.33333333333333331\n"
    )


def test_csv_text_quotes_only_what_would_break_a_row(tmp_path):
    text = csv_text(("k", "a,b"), (["plain", 'say "hi"'], ["x\ny", "z"]))
    assert text == 'k,"a,b"\nplain,"x\ny"\n"say ""hi""",z\n'
    ds = TimeSeriesDataset(y=[1.0, 2.0], x=[3.0, 4.0], v=[5.0, 6.0], x_labels=("a,b",))
    path = tmp_path / "labels.csv"
    write_csv(str(path), ds)
    assert load_csv(str(path), x_cols=("a,b",)).x_labels == ("a,b",)


def test_csv_text_rejects_mismatched_columns():
    with pytest.raises(ParameterError, match="lengths"):
        csv_text(("a", "b"), ([1.0], [1.0, 2.0]))
    with pytest.raises(ParameterError, match="2 column names"):
        csv_text(("a", "b"), ([1.0],))


def test_write_csv_is_csv_text(tmp_path):
    ds = build_dataset(seed=3, n=5)
    path = tmp_path / "sim.csv"
    write_csv(str(path), ds)
    want = csv_text(("y", "x1", "v"), (ds.y, ds.x[:, 0], ds.v))
    assert path.read_bytes() == want.encode()


def test_roundtrip_simulated_draws(tmp_path):
    ds = build_dataset(seed=3, n=40)
    path = tmp_path / "sim.csv"
    write_csv(str(path), ds)
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.v, ds.v)


def test_load_by_position_without_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1,10,0.5\n2,20,0.6\n")
    ds = load_csv(str(path), y_col=1, x_cols=(0,), v_col=2, header=False)
    np.testing.assert_array_equal(ds.y, [10.0, 20.0])
    np.testing.assert_array_equal(ds.x[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(ds.v, [0.5, 0.6])
    assert ds.y_label == "col1"
    assert ds.x_labels == ("col0",)


def test_name_selector_requires_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(SchemaError, match="without a header"):
        load_csv(str(path), header=False)


def test_missing_column_reports_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1,v\n1,2,3\n")
    with pytest.raises(SchemaError, match="'z'.*header"):
        load_csv(str(path), y_col="z")


def test_parse_error_names_column_and_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1,v\n1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError, match="'x1'.*data row 2"):
        load_csv(str(path))


def test_short_row_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1,v\n1,2\n")
    with pytest.raises(ParseError, match="data row 1"):
        load_csv(str(path))


def test_oversized_field_is_a_parse_error(tmp_path):
    """A field over the csv module's size limit fails both readers; the
    error names the file and the line, not csv's own exception."""
    path = tmp_path / "data.csv"
    path.write_text('y,x1,v\n1,2,3\n"' + "a" * 200_000 + '",2,3\n')
    with pytest.raises(ParseError, match=f"{path}: line 3: field larger"):
        load_csv(str(path))


@pytest.mark.parametrize(
    "text",
    [b"y,x1,v\n1,2,\xff\n", b"y,x1,v\n" + b"1,2,3\n" * 5000 + b"4,5,6\xff\n"],
    ids=["in_the_first_chunk", "past_it"],
)
def test_non_utf8_file_is_a_parse_error(tmp_path, monkeypatch, text):
    """A byte that does not decode fails both parse paths; the error
    names the file, not the codec's own exception."""
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    for refuse in (False, True):
        if refuse:
            _numpy_refuses(monkeypatch)
        with pytest.raises(ParseError, match=re.escape(f"{path}: ")):
            read_columns(str(path), ["y", "x1", "v"], True)


def test_empty_and_header_only_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_csv(str(empty))
    header_only = tmp_path / "h.csv"
    header_only.write_text("y,x1,v\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_csv(str(header_only))


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


# selected cells: floats as the package writes them and as repr does,
# every spelling float() takes for nan and inf, signed zero and
# subnormals, and cells only float() or neither reader accepts
_NUMBER = st.tuples(
    st.one_of(
        st.floats().map(lambda f: "%.17g" % f),
        st.floats().map(repr),
        st.sampled_from(
            ["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "INF", "-0.0",
             "5e-324", "2.2250738585072009e-308", "1e999", "007", "+.5"]
        ),
    ),
    # padded and quoted cells
    st.sampled_from(["{}"] * 4 + [" {} ", "\t{}", "quote", "quote", " quote"]),
).map(lambda c: c[1].replace("quote", _quoted(c[0])).format(c[0]))
# cells float() alone takes or neither reader takes, and quoted ones
# holding commas or a line end
_JUNK = st.sampled_from(
    ["", "abc", "1_0", "#3", "0x10", "1d5", 'a"b', '"2"3', '"1,2,3"', '"7\n"']
)
_LABELS = ["y", "x1", "v", "a,b", " pad ", 'say "hi"', ""]


def _sometimes(rare, common, odds):
    """``rare`` once in ``odds`` draws, ``common`` otherwise."""
    return st.sampled_from([rare] + [common] * (odds - 1)).flatmap(lambda s: s)


@st.composite
def csv_files(draw):
    """The text of a CSV file, a column selection and the header flag;
    most rows are well formed and most selectors exist, so that both
    outcomes, values and errors, are common."""
    width = draw(st.integers(1, 4))
    header = draw(st.booleans())
    lines = []
    names = [str(p) for p in range(width)]
    if header:
        names = draw(st.lists(st.sampled_from(_LABELS), min_size=width, max_size=width))
        lines.append(",".join(_quoted(x) if "," in x or '"' in x else x for x in names))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 12 + ["short", "extra", "", "odd"]))
        if kind in ("", "odd"):
            lines.append(kind and draw(st.sampled_from(["   ", "\t", "#", "# x"])))
            continue
        size = {"row": width, "short": width - 1, "extra": width + 2}[kind]
        cells = [draw(_sometimes(_JUNK, _NUMBER, 12)) for _ in range(size)]
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    good = st.sampled_from(names if header else list(range(width)))
    bad = st.sampled_from([-1, width, "nope", *_LABELS])
    cols = draw(st.lists(_sometimes(bad, good, 12), min_size=1, max_size=3))
    return text, cols, header


def _outcome(read, path, cols, header):
    """The values bit for bit and the labels, or the error and its text."""
    try:
        data, labels = read(path, cols, header)
    except Exception as exc:
        return type(exc), str(exc)
    return data.shape, data.view(np.uint64).tolist(), labels


@settings(max_examples=300, deadline=None)
@given(case=csv_files())
@example(case=("", ["y"], True))
@example(case=("", [0], False))
@example(case=('y,"a,b",v\n', ["a,b"], True))
@example(case=('\r\ny,"a,b",v\r\n\r\n1, "2" ,3\r\n', ["a,b", 0], True))
@example(case=("1_0,2\n", [0, 1], False))
@example(case=('"1,2,3",9\n', [1], False))
# a header label holding a quoted line end spans two lines
@example(case=('"a\nb",v\n1,2\n3,4\n', ["a\nb", "v"], True))
@example(case=("\n\n\ny,v\n1,2\n", ["v", "y"], True))
@example(case=("y,v\r1,2\r3,4\r", ["y", "v"], True))
@example(case=("\n\n1,2\n3,4\n", [1, 0], False))
def test_read_columns_matches_oracle(case):
    text, cols, header = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got = _outcome(read_columns, path, cols, header)
        want = _outcome(oracles.oracle_read_columns, path, cols, header)
    assert got == want


def _refuse_cells(*args):
    raise AssertionError("the cell by cell loop ran")


def _numpy_refuses(monkeypatch) -> None:
    """Make every ``np.loadtxt`` call raise, so that the cell by cell
    loop reads every body."""
    def loadtxt(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", loadtxt)


def _fast_path_only(monkeypatch) -> list:
    """Make the cell by cell loop raise; the first argument of every
    ``np.loadtxt`` call is appended to the list returned."""
    def loadtxt(source, *args, **kwargs):
        sources.append(source)
        return numpy_loadtxt(source, *args, **kwargs)

    sources, numpy_loadtxt = [], np.loadtxt
    monkeypatch.setattr(dataset, "_parse_cells", _refuse_cells)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return sources


def test_clean_file_is_read_without_the_exact_loop(tmp_path, monkeypatch):
    sources = _fast_path_only(monkeypatch)
    ds = build_dataset(seed=4, n=30)
    path = tmp_path / "sim.csv"
    write_csv(str(path), ds)
    np.testing.assert_array_equal(load_csv(str(path)).v, ds.v)
    # numpy opens the file itself, so it parses chunks, not lines
    assert sources == [str(path)]


@pytest.mark.parametrize(
    "text, cols, header",
    [
        ('"a\nb",v\n1,2\n3,4\n', ["a\nb", "v"], True),
        ("\n\n\ny,v\n1,2\n", ["v", "y"], True),
        ("y,v\r1,2\r3,4\r", ["y", "v"], True),
        ("y,v\r\n\r\n1,2\r\n3,4\r\n", ["v"], True),
        ("\n\n1,2\n3,4\n", [1, 0], False),
    ],
)
def test_rows_after_any_header_layout_are_read_by_numpy(
    tmp_path, monkeypatch, text, cols, header
):
    """numpy skips the lines csv read for the header, however they end
    or whatever the header's quotes hold, and no data row with them."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    want = _outcome(oracles.oracle_read_columns, str(path), cols, header)
    sources = _fast_path_only(monkeypatch)
    assert _outcome(read_columns, str(path), cols, header) == want
    assert sources == [str(path)]


def test_plain_text_named_as_compressed_is_read_as_written(tmp_path, monkeypatch):
    """numpy's opener would decompress a ``.gz`` name; the reader hands
    numpy its own open file instead, so the bytes are parsed as text."""
    path = tmp_path / "data.csv.gz"
    path.write_text("y,x1,v\n1,2,3\n4,5,6\n")
    sources = _fast_path_only(monkeypatch)
    data, labels = read_columns(str(path), ["v", "y"])
    assert data.tolist() == [[3.0, 1.0], [6.0, 4.0]] and labels == ["v", "y"]
    assert len(sources) == 1 and not isinstance(sources[0], str)


@pytest.mark.parametrize(
    "text",
    ["\ny,x1,v\n1,2,3\n1_0,5,6\n", 'y,x1,v\n1,2,3\n"' + "a" * 200_000 + '",2,3\n'],
    ids=["refused_cell", "oversized_field"],
)
def test_refused_file_named_as_compressed_is_read_again_from_its_start(tmp_path, text):
    """numpy reads the open file on from the header; when it refuses a
    row, the file is rewound and its header skipped, so the values, and
    the line an error names, are counted from the first line."""
    path = tmp_path / "data.csv.gz"
    path.write_text(text)
    want = _outcome(oracles.oracle_read_columns, str(path), ["v", "y"], True)
    if "1_0" not in text:  # the oracle leaves csv's own error as it is
        want = (ParseError, f"{path}: line 3: {want[1]}")
    assert _outcome(read_columns, str(path), ["v", "y"], True) == want


@pytest.mark.parametrize(
    "text, cols, header, message",
    [
        ("y,x1,v\n1,2,3\n4,5,6\n", ["y", "nope"], True, "'nope' not found"),
        ("y,x1,v\n\n1,2,3\n", [3], True, "position 3"),
        ("1,2,3\n4,5,6\n", ["y"], False, "without a header"),
        # no data rows is said first, as the exact loop says it
        ("y,x1,v\n\n", ["nope"], True, "no data rows"),
        ("\n\n", [-1], False, "no data rows"),
    ],
)
def test_selector_errors_need_no_pass_over_the_rows(
    tmp_path, monkeypatch, text, cols, header, message
):
    """A selector naming no column is reported from the header and at
    most one data row, on the numpy path and on the cell by cell one,
    and no cell is parsed."""
    path = tmp_path / "data.csv"
    path.write_text(text)
    want = oracles.oracle_read_columns
    with pytest.raises(SchemaError) as oracle_err:
        want(str(path), cols, header)
    monkeypatch.setattr(dataset, "_parse_cells", _refuse_cells)
    for refuse in (False, True):
        if refuse:
            _numpy_refuses(monkeypatch)
        with pytest.raises(SchemaError, match=message) as err:
            read_columns(str(path), cols, header)
        assert str(err.value) == str(oracle_err.value)


def test_written_file_is_csv_text_across_chunks(tmp_path):
    """write_csv formats rows a chunk at a time; the file is csv_text of
    the whole table, and each line is the dialect's cells joined."""
    ds = build_dataset(seed=6, n=2 * dataset._CSV_CHUNK_ROWS + 5)
    path = tmp_path / "sim.csv"
    write_csv(str(path), ds)
    text = path.read_text()
    labels, columns = zip(*dataset._columns(ds))
    assert text == csv_text(labels, columns)
    lines = [",".join(labels)] + [
        ",".join(dataset._cell(float(c)) for c in row)
        for row in zip(*columns)
    ]
    assert text == "\n".join(lines) + "\n"
    np.testing.assert_array_equal(load_csv(str(path)).y, ds.y)


@pytest.mark.parametrize(
    "text, fields",
    [
        ("x1", ["x1"]),
        ("a, b,,", ["a", "b"]),
        ('"a,b"', ["a,b"]),
        ('"a,b", 2 ,"say ""hi"""', ["a,b", "2", 'say "hi"']),
        ("", []),
    ],
)
def test_split_fields_quotes_like_the_reader(text, fields):
    assert split_fields(text) == fields


def test_split_fields_rejects_a_bare_line_end():
    with pytest.raises(ParameterError, match="CSV fields"):
        split_fields("a\nb")


def test_position_out_of_range(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(SchemaError, match="position"):
        load_csv(str(path), y_col=0, x_cols=(1,), v_col=-2, header=False)


def test_validate_clean_dataset():
    assert validate(build_dataset(seed=5, n=30)) == []


def test_constructor_rejects_non_finite_with_first_row():
    y = np.array([1.0, np.nan, np.nan])
    with pytest.raises(ParameterError) as exc:
        TimeSeriesDataset(y=y, x=np.ones((3, 1)) * 2.0, v=np.array([0.1, 0.2, 0.3]))
    message = str(exc.value)
    assert "column 'y'" in message
    assert "2 non-finite" in message
    assert "row 2" in message


def test_validate_warns_on_constant_column():
    ds = TimeSeriesDataset(
        y=np.array([1.0, 2.0]),
        x=np.array([[3.0], [3.0]]),
        v=np.array([0.0, 0.5]),
    )
    assert validate(ds) == [ValidationIssue(column="x1", message="column is constant")]


def test_validate_single_row_never_constant():
    ds = TimeSeriesDataset(y=np.array([1.0]), x=np.array([[1.0]]), v=np.array([0.0]))
    assert validate(ds) == []
