"""The input contract at the library boundary.

A dataset with a non-finite cell is rejected when it is built, whether
from arrays or from a CSV file.  Every finite dataset, including ones
with tied covariate values or a constant column, either makes a fit
raise a ``PartlinError`` or gives finite numbers; no numpy exception
escapes.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_dataset
from partlin import (
    KernelSpec,
    ParameterError,
    PartlinError,
    SmallSet,
    TimeSeriesDataset,
    TruncationSpec,
    cv_select,
    default_h_grid,
    default_truncation,
    estimate_g,
    load_csv,
    truncated_sls,
)
from partlin.montecarlo import McConfig


@st.composite
def cases(draw):
    """A simulated table (y, x1..xd, v) with one defect, plus a kernel."""
    n = draw(st.integers(12, 80))
    d = draw(st.sampled_from([1, 2]))
    ds = build_dataset(seed=draw(st.integers(0, 50)), n=n, d=d)
    table = np.column_stack([ds.y, ds.x, ds.v])
    col = draw(st.integers(0, d + 1))
    defect = draw(st.sampled_from(["non_finite", "tied_v", "constant"]))
    if defect == "non_finite":
        row = draw(st.integers(0, n - 1))
        table[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif defect == "tied_v":
        table[:, -1] = np.round(table[:, -1], draw(st.integers(0, 2)))
    else:
        table[:, col] = table[draw(st.integers(0, n - 1)), col]
    family = draw(st.sampled_from(["uniform", "epanechnikov"]))
    h = draw(st.sampled_from([0.1, 0.3, 1.0]))
    return table, d, KernelSpec(family, h)


def _load_written(table: np.ndarray, d: int) -> TimeSeriesDataset:
    x_labels = tuple(f"x{j + 1}" for j in range(d))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w") as fh:
            fh.write(",".join(["y", *x_labels, "v"]) + "\n")
            for row in table:
                fh.write(",".join("%.17g" % c for c in row) + "\n")
        return load_csv(path, x_cols=x_labels)


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_fits_raise_partlin_error_or_return_finite(case):
    table, d, spec = case
    finite = bool(np.isfinite(table).all())
    try:
        ds = TimeSeriesDataset(y=table[:, 0], x=table[:, 1:-1], v=table[:, -1])
    except PartlinError:
        ds = None
    try:
        from_file = _load_written(table, d)
    except PartlinError:
        from_file = None
    if not finite:
        assert ds is None and from_file is None
        return
    np.testing.assert_array_equal(from_file.x, ds.x)

    trunc = default_truncation(ds.n)
    theta = np.zeros(d)
    try:
        theta = truncated_sls(ds, spec, trunc).theta_hat
    except PartlinError:
        pass
    assert np.all(np.isfinite(theta))
    try:
        sel = cv_select(ds, default_h_grid(ds.n), spec.family, trunc)
    except PartlinError:
        pass
    else:
        assert np.isfinite(sel.h_star)
        assert not np.any(np.isnan(sel.criterion))
    grid = np.linspace(ds.v.min(), ds.v.max(), 7)
    curve = estimate_g(ds, theta, grid, spec)
    assert np.all(np.isfinite(curve.values[curve.valid]))


_SET = SmallSet(-1.0, 1.0)


def _config(**kwargs):
    return McConfig(**{"n": 60, "reps": 8, "dgp": "H_zero", **kwargs})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: KernelSpec("uniform", [0.5]), "bandwidth"),
        (lambda: KernelSpec("uniform", np.array(0.5)), "bandwidth"),
        (lambda: KernelSpec("uniform", True), "bandwidth"),
        (lambda: KernelSpec("uniform", "0.5"), "bandwidth"),
        (lambda: KernelSpec("uniform", np.nan), "bandwidth"),
        (lambda: TruncationSpec(np.array([0.1, 0.2]), _SET), "b_n"),
        (lambda: TruncationSpec(np.bool_(True), _SET), "b_n"),
        (lambda: SmallSet("a", 1), "lower"),
        (lambda: SmallSet(-1.0, np.array([1.0])), "upper"),
        (lambda: SmallSet(-1.0, np.inf), "upper"),
        (lambda: _config(n="a"), "n"),
        (lambda: _config(n=60.0), "n"),
        (lambda: _config(reps=np.array(8)), "reps"),
        (lambda: _config(workers=True), "workers"),
        (lambda: _config(master_seed=None), "master_seed"),
        (lambda: _config(theta0="1"), "theta0"),
        (lambda: _config(eps_rho=[0.5]), "eps_rho"),
    ],
)
def test_scalar_fields_reject_other_values_by_name(build, field):
    """A bool, an array, a string, None or a non-finite value in a scalar
    field raises a ``ParameterError`` that names the field, not a raw
    numpy or Python error."""
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        build()


@pytest.mark.parametrize(
    "value", [0.5, 2, np.float64(0.5), np.float32(0.25), np.int64(3)]
)
def test_scalar_fields_are_stored_as_python_numbers(value):
    spec = KernelSpec("epanechnikov", value)
    trunc = TruncationSpec(value, SmallSet(-value, value))
    assert type(spec.bandwidth) is float and spec.bandwidth == value
    assert type(trunc.b_n) is float and trunc.b_n == value
    assert type(trunc.small_set.lower) is float and trunc.small_set.upper == value
    cfg = _config(n=np.int64(60), reps=np.int32(8), theta0=value, workers=1)
    assert (type(cfg.n), type(cfg.reps), type(cfg.theta0)) == (int, int, float)
    assert (cfg.n, cfg.reps, cfg.theta0) == (60, 8, value)
