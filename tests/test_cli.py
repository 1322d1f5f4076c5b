"""Command line interface: subcommands, configs, outputs and exit codes."""

import csv
import inspect
import os

import numpy as np
import pytest

from helpers import build_dataset
from partlin import __version__
from partlin.cli import build_parser, main, parse_kv_file
from partlin.dataset import TimeSeriesDataset, load_csv, write_csv
from partlin.errors import ParameterError, ParseError
from partlin.kernel import DENSITY_FLOOR_SCALE, KernelSpec, default_truncation
from partlin.montecarlo import McConfig, simulate_replication
from partlin.rng import block_rows
from partlin.sls import truncated_sls
from partlin.unitroot import df_test

_FMT = "%.17g"


# ---------------------------------------------------------------- config


def test_parse_kv_file(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("# comment\n\nn = 200, 700\nreps=3\n  dgp =  H_zero \n")
    got = parse_kv_file(str(p))
    assert got == {"n": "200, 700", "reps": "3", "dgp": "H_zero"}


def test_parse_kv_file_reports_line(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("n = 10\nbroken line\n")
    with pytest.raises(ParseError, match=":2"):
        parse_kv_file(str(p))


def test_parse_kv_last_duplicate_wins(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("n = 10\nn = 20\n")
    assert parse_kv_file(str(p)) == {"n": "20"}


# ---------------------------------------------------------------- simulate


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = main(
        ["simulate", "--n", "50", "--seed", "3", "--dgp", "H_identity",
         "--out", str(out)]
    )
    assert code == 0
    assert "wrote 50 rows" in capsys.readouterr().out
    ds = load_csv(str(out))
    cfg = McConfig(n=50, reps=1, dgp="H_identity", master_seed=3)
    want = simulate_replication(cfg, 0)
    np.testing.assert_array_equal(ds.y, want.y)
    np.testing.assert_array_equal(ds.v, want.v)
    manifest = (tmp_path / "data.csv.manifest.txt").read_text()
    assert "command = simulate" in manifest
    assert "master_seed = 3" in manifest
    assert "dgp = H_identity" in manifest


# ---------------------------------------------------------------- estimate


def write_dataset(tmp_path, seed=7, n=200):
    ds = build_dataset(seed=seed, n=n)
    path = tmp_path / "ds.csv"
    write_csv(str(path), ds)
    return ds, path


def read_report(out_dir):
    with open(os.path.join(out_dir, "fit_report.csv"), newline="") as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def test_estimate_fixed_bandwidth(tmp_path, capsys):
    ds, path = write_dataset(tmp_path)
    out = tmp_path / "fit"
    code = main(["estimate", "--data", str(path), "--h", "0.5", "--out", str(out)])
    assert code == 0
    assert "theta_hat" in capsys.readouterr().out
    report = read_report(str(out))
    fit = truncated_sls(ds, KernelSpec("uniform", 0.5), default_truncation(200))
    assert float(report["theta.x1"]) == fit.theta_hat[0]
    assert int(report["n"]) == 200
    assert int(report["effective_n"]) == fit.effective_n
    assert int(report["dropped"]) == 200 - fit.effective_n
    assert float(report["beta_hat"]) == fit.beta_hat
    assert report["psd_projected"] == "0"
    assert "ci_low.x1" in report
    with open(out / "g_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v", "g_hat", "local_mass", "valid"]
    assert len(rows) == 301
    assert (out / "h_curve_x1.csv").exists()
    resolved = (out / "resolved_config.txt").read_text()
    assert "command = estimate" in resolved
    assert "h = 0.5" in resolved
    assert "family = uniform" in resolved
    assert not (out / "FAILED.txt").exists()


def test_estimate_default_bandwidth_is_recorded(tmp_path):
    """Without ``--h`` or ``--cv``, ``estimate`` fits at h = n^(-1/4)
    and records that h."""
    ds, path = write_dataset(tmp_path)
    out = tmp_path / "fit"
    assert main(["estimate", "--data", str(path), "--out", str(out)]) == 0
    h = 200 ** -0.25
    assert f"h = {_FMT % h}\n" in (out / "resolved_config.txt").read_text()
    fit = truncated_sls(ds, KernelSpec("uniform", h), default_truncation(200))
    assert float(read_report(str(out))["theta.x1"]) == fit.theta_hat[0]


@pytest.mark.parametrize("label", ["a/b", "a\0b"], ids=["slash", "nul"])
def test_estimate_refuses_a_label_that_cannot_name_a_file(tmp_path, capsys, label):
    """A regressor label names its file ``h_curve_<label>.csv``, so one
    holding a "/" or a NUL is refused by name before the CV sweep, the
    fit and the output; column 1 selects it by position."""
    ds = build_dataset(seed=7, n=200)
    path = tmp_path / "ds.csv"
    write_csv(str(path), TimeSeriesDataset(y=ds.y, x=ds.x, v=ds.v, x_labels=(label,)))
    out = tmp_path / "never"
    code = main(["estimate", "--data", str(path), "--x-cols", "1", "--cv",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: x column label {label!r} holds a path separator or NUL\n"
    )
    assert not out.exists()


def test_estimate_cv_records_selection(tmp_path):
    _, path = write_dataset(tmp_path)
    out = tmp_path / "fit_cv"
    code = main(["estimate", "--data", str(path), "--cv", "--out", str(out)])
    assert code == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "h_selected = " in resolved
    from partlin.bandwidth import cv_select, default_h_grid

    ds = load_csv(str(path))
    sel = cv_select(ds, default_h_grid(200), "uniform", default_truncation(200))
    assert f"h_selected = {_FMT % sel.h_star}" in resolved


def test_estimate_cv_writes_the_bandwidth_table(tmp_path, capsys):
    """``estimate --cv`` leaves the ``cv.csv`` that ``bandwidth`` writes,
    and on an interior h* records that it is no end of the grid."""
    _, path = write_dataset(tmp_path)
    fit, bw = tmp_path / "fit", tmp_path / "bw"
    assert main(["estimate", "--data", str(path), "--cv", "--out", str(fit)]) == 0
    assert main(["bandwidth", "--data", str(path), "--out", str(bw)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert (fit / "cv.csv").read_bytes() == (bw / "cv.csv").read_bytes()
    for record in (fit, bw):
        lines = (record / "resolved_config.txt").read_text().splitlines()
        assert "h_star_grid_end = none" in lines


def test_h_star_on_the_end_of_the_default_grid_is_recorded_and_warned(
    tmp_path, capsys
):
    ds = build_dataset(seed=3, n=200, g_identity=False, rho=0.0)
    path = tmp_path / "ds.csv"
    write_csv(str(path), ds)
    out = tmp_path / "fit"
    assert main(["estimate", "--data", str(path), "--cv", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "is the upper end of the default bandwidth grid" in err
    record = dict(
        line.split(" = ", 1)
        for line in (out / "resolved_config.txt").read_text().splitlines()
    )
    assert record["h_star_grid_end"] == "upper"
    last = (out / "cv.csv").read_text().splitlines()[-1]
    assert float(record["h_selected"]) == float(last.split(",")[0])
    # a grid the caller gave is searched as given: no end is reported
    argv = ["estimate", "--data", str(path), "--cv", "--h-grid", "0.2,0.4"]
    assert main(argv + ["--out", str(tmp_path / "given")]) == 0
    assert "warning" not in capsys.readouterr().err
    record = (tmp_path / "given" / "resolved_config.txt").read_text()
    assert "h_star_grid_end" not in record


def test_estimate_h_and_cv_flags_conflict(tmp_path):
    _, path = write_dataset(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", str(path), "--h", "0.3", "--cv", "--out", "x"])
    assert exc.value.code == 2


def test_estimate_missing_data_file_exits_before_output(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["estimate", "--data", str(tmp_path / "no.csv"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_estimate_oversized_field_exits_before_output(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text('y,x1,v\n"' + "a" * 200_000 + '",2,3\n')
    out = tmp_path / "never"
    assert main(["estimate", "--data", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_estimate_cv_searches_and_records_given_grid(tmp_path):
    _, path = write_dataset(tmp_path)
    out = tmp_path / "fit_grid"
    argv = ["estimate", "--data", str(path), "--cv", "--h-grid", "0.2,0.4"]
    assert main(argv + ["--out", str(out)]) == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "h_grid = 0.2,0.4" in resolved
    selected = float(resolved.split("h_selected = ")[1].split()[0])
    assert selected in (0.2, 0.4)


def test_estimate_h_grid_without_cv_rejected(tmp_path, capsys):
    """A grid without --cv would be silently ignored, so it is refused."""
    _, path = write_dataset(tmp_path)
    out = tmp_path / "never"
    code = main(
        ["estimate", "--data", str(path), "--h-grid", "0.2,0.4", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --h-grid needs --cv, which searches the grid\n"
    )
    assert not out.exists()


def test_estimate_failure_leaves_marker(tmp_path, capsys):
    path = tmp_path / "const.csv"
    lines = ["y,x1,v"]
    v = np.linspace(-0.9, 0.9, 40)
    for i in range(40):
        lines.append(f"{v[i] + 1.0},1.0,{v[i]}")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fail"
    code = main(["estimate", "--data", str(path), "--h", "0.4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "warning: column 'x1': column is constant" in err
    assert "RankError: " in (out / "FAILED.txt").read_text()


def test_estimate_rejects_non_finite_covariate(tmp_path, capsys):
    _, path = write_dataset(tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = "nan"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "never"
    code = main(["estimate", "--data", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "column 'v'" in err
    assert "first at row 5" in err
    assert not out.exists()


def test_estimate_level_checked_before_data_and_output(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(
        ["estimate", "--data", str(tmp_path / "no.csv"), "--level", "1.5",
         "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: level must be in [0, 1), got 1.5\n"
    assert not out.exists()


def test_estimate_custom_schema_and_small_set(tmp_path):
    ds = build_dataset(seed=9, n=150)
    path = tmp_path / "named.csv"
    with open(path, "w") as fh:
        fh.write("resp,reg,cov\n")
        for i in range(150):
            fh.write(",".join(_FMT % q for q in (ds.y[i], ds.x[i, 0], ds.v[i])))
            fh.write("\n")
    out = tmp_path / "named_fit"
    code = main(
        ["estimate", "--data", str(path), "--y-col", "resp", "--x-cols", "reg",
         "--v-col", "cov", "--h", "0.4", "--small-set=-2,2",
         "--bn", "0.01", "--out", str(out)]
    )
    assert code == 0
    report = read_report(str(out))
    assert "theta.reg" in report
    resolved = (out / "resolved_config.txt").read_text()
    assert "small_set = -2,2" in resolved
    assert "bn = 0.01" in resolved


def test_x_cols_quotes_a_label_holding_a_comma(tmp_path, capsys):
    ds = build_dataset(seed=9, n=150)
    path = tmp_path / "comma.csv"
    write_csv(str(path), TimeSeriesDataset(y=ds.y, x=ds.x, v=ds.v, x_labels=("a,b",)))
    out = tmp_path / "fit"
    code = main(
        ["estimate", "--data", str(path), "--x-cols", '"a,b"', "--h", "0.4",
         "--out", str(out)]
    )
    assert code == 0
    assert float(read_report(str(out))["theta.a,b"]) == truncated_sls(
        ds, KernelSpec("uniform", 0.4), default_truncation(150)
    ).theta_hat[0]
    code = main(
        ["bandwidth", "--data", str(path), "--x-cols", '"a,b"', "--h-grid", "0.3,0.6"]
    )
    assert code == 0
    capsys.readouterr()
    # unquoted, the comma separates two labels
    code = main(["bandwidth", "--data", str(path), "--x-cols", "a,b"])
    assert code == 1
    assert "column 'a' not found" in capsys.readouterr().err


def test_every_list_takes_the_quoting_of_x_cols(tmp_path, capsys):
    """``--h-grid``, ``--small-set`` and the ``mc`` list keys are split
    as ``--x-cols`` is: quoted items are read, a bare line end is not."""
    path = tmp_path / "d.csv"
    write_csv(str(path), build_dataset(seed=9, n=150))
    argv = ["bandwidth", "--data", str(path)]
    assert main([*argv, "--h-grid", "0.3,0.6", "--small-set=-2,2"]) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--h-grid", '"0.3", 0.6', "--small-set", '"-2",2']) == 0
    assert capsys.readouterr().out == plain
    assert main([*argv, "--h-grid", "0.3,\n0.6"]) == 1
    assert "--h-grid: cannot read '0.3,\\n0.6' as a list of float" in (
        capsys.readouterr().err
    )
    assert main([*argv, "--small-set=-2,\n2"]) == 1
    assert "--small-set: cannot read" in capsys.readouterr().err
    cfg = write_mc_config(tmp_path, n='"40"', dgp='"H_zero"')
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 0
    table = (tmp_path / "mc" / "table.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in table[1:]] == [["40", "H_zero"]]


# ---------------------------------------------------------------- mc


def write_mc_config(tmp_path, **extra):
    lines = {
        "experiment": "theta",
        "n": "40, 60",
        "dgp": "H_zero, H_identity",
        "reps": "3",
        "master_seed": "9",
        "kernel": "uniform:0.6",
    }
    lines.update(extra)
    p = tmp_path / "mc.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return p


def test_mc_table_and_manifest(tmp_path):
    cfg = write_mc_config(tmp_path)
    out = tmp_path / "mc_out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "dgp", "ae", "se", "reps_used", "failures"]
    cells = rows[1:]
    assert [(r[0], r[1]) for r in cells] == [
        ("40", "H_zero"), ("60", "H_zero"),
        ("40", "H_identity"), ("60", "H_identity"),
    ]
    for r in cells:
        assert int(r[4]) + int(r[5]) == 3
        assert float(r[2]) >= 0.0
    manifest = (out / "manifest.txt").read_text()
    assert "experiment = theta" in manifest
    assert f"cell.40.H_zero.h = {_FMT % 0.6}" in manifest
    assert "cell.60.H_identity.kernel_family = uniform" in manifest
    assert "cell.40.H_zero.failures = 0" in manifest
    resolved = (out / "resolved_config.txt").read_text()
    assert "command = mc" in resolved
    assert "master_seed = 9" in resolved


def test_mc_config_precedence_and_record(tmp_path):
    """Library defaults < config file < the flags given, and the run
    record lists every resolved key."""
    cfg = write_mc_config(tmp_path, n="40", dgp="H_zero", reps="5")
    out = tmp_path / "o"
    assert main(["mc", "--config", str(cfg), "--reps", "2", "--out", str(out)]) == 0
    with open(out / "table.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert int(row["reps_used"]) + int(row["failures"]) == 2
    lines = (out / "resolved_config.txt").read_text().splitlines()
    assert lines[0] == "command = mc"
    assert "reps = 2" in lines  # the flag beats the file
    assert "master_seed = 9" in lines  # an absent flag changes nothing
    assert "kernel = uniform:0.6" in lines  # the file beats the default "cv"
    assert "workers = 1" in lines  # the default fills what the file leaves out
    assert f"eps_rho = {McConfig.eps_rho}" in lines
    assert f"partlin_version = {__version__}" in lines
    assert any(line.startswith("numpy_version = ") for line in lines)
    assert any(line.startswith("scipy_version = ") for line in lines)


def test_mc_config_errors(tmp_path, capsys):
    out = tmp_path / "never"
    cfg = write_mc_config(tmp_path, reps="abc")
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config key 'reps': cannot read 'abc'" in capsys.readouterr().err
    cfg.write_text("experiment = theta\nn = 40\ndgp = H_zero\nmaster_seed = 1\n")
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config key 'reps' is required" in capsys.readouterr().err
    assert not out.exists()


def test_mc_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    """A config file that does not decode is a ParseError naming the
    file, raised before any output is made, not the codec's own error."""
    cfg = write_mc_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    out = tmp_path / "never"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {cfg}: not utf-8 text: " in capsys.readouterr().err
    assert not out.exists()


def test_mc_runs_are_byte_identical(tmp_path):
    cfg = write_mc_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["mc", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()


@pytest.mark.parametrize("experiment", ["theta", "g"])
def test_mc_outputs_do_not_depend_on_workers(tmp_path, experiment):
    """Replications run in blocks; with several blocks, the last one
    short, table and manifest bytes are the same for 1, 2 and 3
    workers."""
    n = 5000
    cfg = write_mc_config(
        tmp_path, experiment=experiment, n=str(n), dgp="H_identity",
        reps=str(2 * block_rows(n) + 3), kernel="uniform:0.3",
    )
    outputs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        argv = ["mc", "--config", str(cfg), "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        outputs.append(
            [(out / name).read_bytes() for name in ("table.csv", "manifest.txt")]
        )
    assert outputs[0] == outputs[1] == outputs[2]


def test_mc_flag_overrides_config(tmp_path):
    cfg = write_mc_config(tmp_path, n="40", dgp="H_zero")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(
        ["mc", "--config", str(cfg), "--seed", "77", "--out", str(out2)]
    ) == 0
    assert "master_seed = 77" in (out2 / "resolved_config.txt").read_text()
    assert (out1 / "table.csv").read_bytes() != (out2 / "table.csv").read_bytes()


def test_mc_unknown_key_rejected(tmp_path, capsys):
    cfg = write_mc_config(tmp_path, typo_key="1")
    out = tmp_path / "out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert not (out / "table.csv").exists()


def test_mc_bad_experiment_value(tmp_path, capsys):
    cfg = write_mc_config(tmp_path, experiment="curves")
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("n", "inf"), ("n", "nan"), ("n", "200.7"), ("n", ""), ("dgp", "")],
)
def test_mc_bad_list_names_the_key_before_output(tmp_path, key, value):
    cfg = write_mc_config(tmp_path, **{key: value})
    out = tmp_path / "never"
    args = build_parser().parse_args(["mc", "--config", str(cfg), "--out", str(out)])
    with pytest.raises(ParameterError, match=f"config key '{key}'"):
        args.func(args)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n", "40, 5"), ("dgp", "H_zero, H_two")])
def test_mc_cells_checked_before_output(tmp_path, key, value):
    cfg = write_mc_config(tmp_path, **{key: value})
    out = tmp_path / "never"
    args = build_parser().parse_args(["mc", "--config", str(cfg), "--out", str(out)])
    with pytest.raises(ParameterError, match=f"{key} must be"):
        args.func(args)
    assert not out.exists()


def test_mc_single_rep_warns(tmp_path, capsys):
    cfg = write_mc_config(tmp_path, n="40", dgp="H_zero", reps="1")
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "single replication" in capsys.readouterr().err


def test_mc_g_experiment_reports_invalid_points(tmp_path):
    cfg = write_mc_config(tmp_path, experiment="g", n="40", dgp="H_zero")
    out = tmp_path / "g_out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    assert "cell.40.H_zero.invalid_points = " in (out / "manifest.txt").read_text()


def test_mc_cv_kernel_tag(tmp_path):
    cfg = write_mc_config(tmp_path, n="60", dgp="H_zero", kernel="cv")
    out = tmp_path / "cv_out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    line = [l for l in manifest.splitlines() if l.startswith("cell.60.H_zero.h =")]
    assert len(line) == 1
    assert float(line[0].split("=")[1]) > 0.0


def test_mc_bad_kernel_tag(tmp_path, capsys):
    cfg = write_mc_config(tmp_path, kernel="tricube")
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "kernel" in capsys.readouterr().err


# ---------------------------------------------------------------- unitroot


def test_unitroot_stdout_and_outputs(tmp_path, capsys):
    from partlin.markov import simulate_random_walk

    z = simulate_random_walk(200, 1.0, 0.0, 11)
    path = tmp_path / "z.csv"
    path.write_text("z\n" + "\n".join(_FMT % val for val in z) + "\n")
    out = tmp_path / "ur"
    code = main(
        ["unitroot", "--data", str(path), "--column", "z", "--reps", "300",
         "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho_hat,t_stat,p_value,sim_reps"
    rho, t, p, reps = lines[1].split(",")
    assert 0.0 <= float(p) <= 1.0
    assert reps == "300"
    saved = (out / "unitroot.csv").read_text().strip().splitlines()
    assert saved == lines[:2]
    assert "command = unitroot" in (out / "resolved_config.txt").read_text()


def test_unitroot_deterministic(tmp_path, capsys):
    path = tmp_path / "z.csv"
    path.write_text("z\n1.0\n2.0\n3.5\n2.5\n4.0\n5.5\n")
    argv = ["unitroot", "--data", str(path), "--column", "z", "--reps", "200"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_unitroot_positional_column(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    path.write_text("1.0\n2.0\n3.5\n2.5\n4.0\n")
    code = main(
        ["unitroot", "--data", str(path), "--column", "0", "--no-header",
         "--reps", "150"]
    )
    assert code == 0
    assert "rho_hat" in capsys.readouterr().out


def test_unitroot_missing_column(tmp_path, capsys):
    path = tmp_path / "z.csv"
    path.write_text("a\n1.0\n2.0\n3.0\n")
    assert main(["unitroot", "--data", str(path), "--column", "z"]) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------- bandwidth


def test_bandwidth_sweep_stdout(tmp_path, capsys):
    _, path = write_dataset(tmp_path, seed=13, n=150)
    code = main(
        ["bandwidth", "--data", str(path), "--h-grid", "0.2,0.35,0.5",
         "--out", str(tmp_path / "bw")]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,criterion,dropped"
    assert len(lines) == 5  # header, three rows, h_star comment
    assert lines[-1].startswith("# h_star = ")
    body = (tmp_path / "bw" / "cv.csv").read_text().strip().splitlines()
    assert body[0] == "h,criterion,dropped"
    assert len(body) == 4
    resolved = (tmp_path / "bw" / "resolved_config.txt").read_text()
    assert "h_star = " in resolved


def test_bandwidth_default_grid_size(tmp_path, capsys):
    _, path = write_dataset(tmp_path, seed=14, n=120)
    assert main(["bandwidth", "--data", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14  # header, twelve grid rows, h_star comment


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
@pytest.mark.parametrize(
    "y_scale, x_scale, args",
    [
        (1.0, 1.0, ["bandwidth", "--h-grid", "1e-320,1e-300"]),
        (1.0, 1.0, ["estimate", "--h", "1e-310"]),
        (1e300, 1.0, ["estimate", "--cv"]),
        (1e307, 1e307, ["estimate", "--h", "0.3"]),
    ],
    ids=["subnormal_grid", "subnormal_h", "huge_y", "huge_design"],
)
def test_extreme_bandwidth_or_scale_fails_without_a_numpy_warning(
    tmp_path, capsys, family, y_scale, x_scale, args
):
    """(v - p)/h at a subnormal h, the squared errors of a huge y and the
    window sums and normal equations of a huge design overflow to inf;
    the run still ends in its PartlinError, and numpy warns of nothing."""
    path = tmp_path / "d.csv"
    seed = ["--seed", "7", "--dgp", "H_identity"]
    assert main(["simulate", "--n", "300", *seed, "--out", str(path)]) == 0
    ds = load_csv(str(path))
    write_csv(str(path), TimeSeriesDataset(y=ds.y * y_scale, x=ds.x * x_scale, v=ds.v))
    capsys.readouterr()
    code = main(
        [args[0], "--data", str(path), *args[1:], "--family", family,
         "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------- shared


def run_every_command(tmp_path) -> list[list[str]]:
    """Run each subcommand once with its outputs under ``tmp_path``."""
    data = tmp_path / "data.csv"
    cfg = write_mc_config(tmp_path, n="40", dgp="H_zero")
    runs = [
        ["simulate", "--n", "120", "--seed", "5", "--out", str(data)],
        ["estimate", "--data", str(data), "--h", "0.5", "--out",
         str(tmp_path / "fit")],
        ["bandwidth", "--data", str(data), "--x-cols", "v", "--y-col", "x1",
         "--v-col", "y", "--h-grid", "0.3,0.6", "--out", str(tmp_path / "bw")],
        ["mc", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "mc")],
        ["unitroot", "--data", str(data), "--column", "v", "--reps", "100",
         "--out", str(tmp_path / "ur")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return runs


def test_every_written_file_has_lf_line_ends(tmp_path):
    run_every_command(tmp_path)
    written = sorted(
        p.relative_to(tmp_path).as_posix()
        for p in tmp_path.rglob("*")
        if p.is_file() and p.name != "mc.cfg"
    )
    assert written == [
        "bw/cv.csv", "bw/resolved_config.txt",
        "data.csv", "data.csv.manifest.txt",
        "fit/fit_report.csv", "fit/g_curve.csv", "fit/h_curve_x1.csv",
        "fit/resolved_config.txt",
        "mc/manifest.txt", "mc/resolved_config.txt", "mc/table.csv",
        "ur/resolved_config.txt", "ur/unitroot.csv",
    ]
    for name in written:
        assert b"\r" not in (tmp_path / name).read_bytes(), name


def test_run_record_lists_every_parsed_flag(tmp_path):
    records = {
        "simulate": tmp_path / "data.csv.manifest.txt",
        "estimate": tmp_path / "fit" / "resolved_config.txt",
        "bandwidth": tmp_path / "bw" / "resolved_config.txt",
        "mc": tmp_path / "mc" / "resolved_config.txt",
        "unitroot": tmp_path / "ur" / "resolved_config.txt",
    }
    for argv in run_every_command(tmp_path):
        lines = records[argv[0]].read_text().splitlines()
        keys = {line.split(" = ")[0] for line in lines}
        args = build_parser().parse_args(argv)
        parsed = {k for k, v in vars(args).items() if k != "func" and v is not None}
        assert parsed <= keys, (argv[0], sorted(parsed - keys))
        if argv[0] in ("estimate", "bandwidth", "unitroot"):
            assert "no_header = False" in lines
    bandwidth = records["bandwidth"].read_text().splitlines()
    assert {"x_cols = v", "y_col = x1", "v_col = y"} <= set(bandwidth)




def test_out_root_env_var_applies_to_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("PARTLIN_OUT_ROOT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "40", "--out", "sub/data.csv"]) == 1
    # the root is joined but missing parents are not invented
    (tmp_path / "sub").mkdir()
    assert main(["simulate", "--n", "40", "--out", "sub/data.csv"]) == 0
    assert (tmp_path / "sub" / "data.csv").exists()
    cfg = write_mc_config(tmp_path, n="40", dgp="H_zero")
    assert main(["mc", "--config", str(cfg), "--out", "mc_rel"]) == 0
    assert (tmp_path / "mc_rel" / "table.csv").exists()


def test_out_root_ignored_for_absolute_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("PARTLIN_OUT_ROOT", str(tmp_path / "root"))
    target = tmp_path / "abs.csv"
    assert main(["simulate", "--n", "40", "--out", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "root").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_defaults_come_from_the_library(capsys):
    args = build_parser().parse_args(["unitroot", "--data", "d.csv", "--column", "v"])
    params = inspect.signature(df_test).parameters
    assert args.reps == params["reps"].default
    assert args.seed == params["seed"].default
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    assert f"(default {DENSITY_FLOOR_SCALE:g}/log n)" in capsys.readouterr().out
