"""Dataset container, CSV round tripping and validation."""

import dataclasses

import numpy as np
import pytest

from helpers import build_dataset
from partlin.dataset import (
    TimeSeriesDataset,
    ValidationIssue,
    csv_text,
    load_csv,
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


def test_dataclass_is_frozen():
    ds = small()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.y_label = "other"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(y=np.zeros(3), x=np.zeros((4, 1)), v=np.zeros(3)),
        dict(y=np.zeros(3), x=np.zeros((3, 1)), v=np.zeros(2)),
        dict(y=np.zeros(0), x=np.zeros((0, 1)), v=np.zeros(0)),
        dict(y=np.zeros(3), x=np.zeros((3, 0)), v=np.zeros(3)),
        dict(y=np.zeros((3, 1)), x=np.zeros((3, 1)), v=np.zeros(3)),
    ],
)
def test_bad_shapes_rejected(kwargs):
    with pytest.raises(ParameterError):
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


def test_empty_and_header_only_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_csv(str(empty))
    header_only = tmp_path / "h.csv"
    header_only.write_text("y,x1,v\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_csv(str(header_only))


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
