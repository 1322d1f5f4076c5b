"""Command line driver.

Five subcommands: ``simulate`` writes a synthetic dataset, ``estimate``
fits one dataset and writes a fit report plus curve files, ``mc`` runs
a table of simulation cells from a config file, ``unitroot`` runs the
simulated p-value unit root test on one column, and ``bandwidth``
sweeps the cross validation criterion.

Configuration is plain ``key = value`` text; command line flags
override file values, and every run writes the fully resolved
configuration (defaults, seed and package versions included) next to
its outputs, so a result directory is self describing.  The only
environment variable honoured is ``PARTLIN_OUT_ROOT``, an optional root
prefix for relative output paths.

Every default comes from the library: the simulation design from the
``McConfig`` field defaults, the kernel families from ``FAMILIES``, the
small set from ``DEFAULT_SMALL_SET``, the density floor from
``DENSITY_FLOOR_SCALE`` and the unit root replications and seed from
``df_test``.

Exit code 0 means the run completed; on failure the message goes to
stderr, the exit code is nonzero, and any output directory the run
created is marked with a ``FAILED.txt`` file naming the exception.
Warnings about the input data (constant columns) go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np
import scipy

from . import __version__
from .bandwidth import cv_select, default_h_grid
from .dataset import TimeSeriesDataset, load_csv, read_columns, validate, write_csv
from .errors import ParameterError, ParseError, PartlinError
from .kernel import (
    DEFAULT_SMALL_SET,
    DENSITY_FLOOR_SCALE,
    FAMILIES,
    KernelSpec,
    TruncationSpec,
    default_bandwidth,
    default_density_floor,
)
from .markov import SmallSet
from .montecarlo import (
    DGPS,
    G0_TAGS,
    McConfig,
    resolve_kernel,
    run_g_experiment,
    run_theta_experiment,
    simulate_replication,
    table_grid,
)
from .sls import asymptotic_ci, estimate_g, estimate_h, truncated_sls
from .unitroot import df_test

_FMT = "%.17g"
# simulation design keys shared by the ``simulate`` flags and the ``mc``
# config; their defaults are the McConfig field defaults
_DESIGN_KEYS = ("theta0", "g0", "increment_sd", "eps_rho", "eps_sd")
_MC_DEFAULTS = {f.name: f.default for f in fields(McConfig)}
# the ``unitroot`` defaults are df_test's keyword defaults
_DF_DEFAULTS = {
    name: par.default
    for name, par in inspect.signature(df_test).parameters.items()
    if par.default is not par.empty
}


# ---------------------------------------------------------------- config


def parse_kv_file(path: str) -> dict[str, str]:
    """Read a ``key = value`` config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


class RunConfig:
    """Resolved parameters of one run: file values overridden by flags."""

    def __init__(self, file_values: dict[str, str] | None = None):
        self.values: dict[str, str] = dict(file_values or {})

    def override(self, key: str, value) -> None:
        if value is not None:
            self.values[key] = str(value)

    def setdefault(self, key: str, value) -> None:
        self.values.setdefault(key, str(value))

    def get(self, key: str, cast=str, default=None):
        if key not in self.values:
            return default
        raw = self.values[key]
        try:
            return cast(raw)
        except ValueError:
            raise ParameterError(f"config key {key!r}: cannot read {raw!r}") from None

    def require(self, key: str, cast=str):
        if key not in self.values:
            raise ParameterError(f"config key {key!r} is required")
        return self.get(key, cast)

    def text(self, command: str) -> str:
        lines = [f"command = {command}"]
        for key in sorted(self.values):
            lines.append(f"{key} = {self.values[key]}")
        lines.append(f"partlin_version = {__version__}")
        lines.append(f"numpy_version = {np.__version__}")
        lines.append(f"scipy_version = {scipy.__version__}")
        return "\n".join(lines) + "\n"


def _out_path(path: str) -> str:
    root = os.environ.get("PARTLIN_OUT_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _prepare_dir(path: str) -> str:
    path = _out_path(path)
    os.makedirs(path, exist_ok=True)
    return path


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


@contextmanager
def _failure_marker(out: str):
    """Write ``FAILED.txt`` into ``out``, naming the exception, if the
    body raises; the exception propagates."""
    try:
        yield
    except Exception as exc:
        _write_text(
            os.path.join(out, "FAILED.txt"),
            f"run failed, outputs partial\n{type(exc).__name__}: {exc}\n",
        )
        raise


def _parse_small_set(text: str) -> SmallSet:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f'--small-set expects "LO,HI", got {text!r}')
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParameterError(f"--small-set bounds must be numbers: {text!r}") from None
    return SmallSet(lo, hi)


def _small_set_text(small_set: SmallSet) -> str:
    return f"{small_set.lower:g},{small_set.upper:g}"


def _parse_float_list(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError:
        raise ParameterError(f"{flag} expects comma separated numbers: {text!r}") from None


def _parse_kernel_tag(tag: str) -> KernelSpec | str:
    """Kernel config value: "cv" or "family:bandwidth"."""
    if tag == "cv":
        return "cv"
    family, sep, h = tag.partition(":")
    if not sep:
        raise ParameterError(
            f'kernel must be "cv" or "family:bandwidth", got {tag!r}'
        )
    try:
        return KernelSpec(family, float(h))
    except ValueError:
        raise ParameterError(f"kernel bandwidth must be a number: {h!r}") from None


def _column_selector(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text


# ---------------------------------------------------------------- simulate


def _add_dgp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dgp", choices=DGPS, default=DGPS[0])
    for key in _DESIGN_KEYS:
        default = _MC_DEFAULTS[key]
        p.add_argument(
            "--" + key.replace("_", "-"),
            type=type(default),
            default=default,
            choices=G0_TAGS if key == "g0" else None,
        )


def cmd_simulate(args) -> int:
    design = {key: getattr(args, key) for key in _DESIGN_KEYS}
    cfg = McConfig(
        n=args.n, reps=1, dgp=args.dgp, master_seed=args.seed, **design
    )
    ds = simulate_replication(cfg, rep=0)
    out = _out_path(args.out)
    write_csv(out, ds)
    rc = RunConfig()
    for key in ("n", "dgp", *_DESIGN_KEYS):
        rc.override(key, getattr(args, key))
    rc.override("master_seed", args.seed)
    rc.override("out", out)
    _write_text(out + ".manifest.txt", rc.text("simulate"))
    print(f"wrote {ds.n} rows to {out}")
    return 0


# ---------------------------------------------------------------- estimate


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    """The dataset, its columns, and the truncation and bandwidth grid
    options shared by ``estimate`` and ``bandwidth``."""
    p.add_argument("--data", required=True)
    p.add_argument("--y-col", default="y")
    p.add_argument("--x-cols", default="x1", help="comma separated")
    p.add_argument("--v-col", default="v")
    p.add_argument(
        "--no-header",
        action="store_true",
        help="file has no header row; select columns by 0-based position",
    )
    p.add_argument("--h-grid", help="comma separated candidate bandwidths")
    p.add_argument("--family", choices=FAMILIES, default=FAMILIES[0])
    p.add_argument(
        "--bn",
        type=float,
        help=f"density floor (default {DENSITY_FLOOR_SCALE:g}/log n)",
    )
    p.add_argument(
        "--small-set",
        help=f"LO,HI bounds (default {_small_set_text(DEFAULT_SMALL_SET)})",
    )


def _load_dataset(args) -> TimeSeriesDataset:
    x_cols = tuple(
        _column_selector(c.strip()) for c in args.x_cols.split(",") if c.strip()
    )
    ds = load_csv(
        args.data,
        y_col=_column_selector(args.y_col),
        x_cols=x_cols,
        v_col=_column_selector(args.v_col),
        header=not args.no_header,
    )
    for issue in validate(ds):
        print(f"warning: column {issue.column!r}: {issue.message}", file=sys.stderr)
    return ds


def _resolve_fit_args(
    args, n: int, rc: RunConfig
) -> tuple[TruncationSpec, np.ndarray]:
    """The truncation and the candidate bandwidth grid ``args`` ask for,
    library defaults filling what they leave out; the truncation is
    recorded in ``rc``."""
    small_set = (
        _parse_small_set(args.small_set) if args.small_set else DEFAULT_SMALL_SET
    )
    bn = args.bn if args.bn is not None else default_density_floor(n)
    trunc = TruncationSpec(bn, small_set)
    rc.override("bn", _FMT % bn)
    rc.override("small_set", _small_set_text(small_set))
    h_grid = (
        _parse_float_list(args.h_grid, "--h-grid")
        if args.h_grid
        else default_h_grid(n)
    )
    return trunc, h_grid


def _write_curve(path: str, label: str, curve) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"v,{label},local_mass,valid\n")
        for i in range(curve.grid.size):
            fh.write(
                "%s,%s,%s,%d\n"
                % (
                    _FMT % curve.grid[i],
                    _FMT % curve.values[i],
                    _FMT % curve.local_mass[i],
                    int(curve.valid[i]),
                )
            )


def cmd_estimate(args) -> int:
    if args.h_grid and not args.cv:
        raise ParameterError("--h-grid needs --cv, which searches the grid")
    ds = _load_dataset(args)
    rc = RunConfig()
    for key in ("data", "y_col", "x_cols", "v_col", "h_grid", "level"):
        rc.override(key, getattr(args, key))
    trunc, h_grid = _resolve_fit_args(args, ds.n, rc)
    if args.cv:
        h = cv_select(ds, h_grid, args.family, trunc).h_star
        rc.override("h_selected", _FMT % h)
    elif args.h is not None:
        h = args.h
    else:
        h = default_bandwidth(ds.n)
    spec = KernelSpec(args.family, h)
    rc.override("family", args.family)
    rc.override("h", _FMT % h)

    out = _prepare_dir(args.out)
    with _failure_marker(out):
        fit = truncated_sls(ds, spec, trunc)
        level = args.level
        ci = None
        if np.all(np.isfinite(fit.avar)):
            ci = asymptotic_ci(fit, level)
        grid = table_grid(ds.v, 300)
        g_curve = estimate_g(ds, fit.theta_hat, grid, spec)
        h_curves = estimate_h(ds, grid, spec)

        rows: list[tuple[str, str]] = []
        for j, lab in enumerate(ds.x_labels):
            rows.append((f"theta.{lab}", _FMT % fit.theta_hat[j]))
            if ci is not None:
                rows.append((f"ci_low.{lab}", _FMT % ci[j, 0]))
                rows.append((f"ci_high.{lab}", _FMT % ci[j, 1]))
        rows += [
            ("ci_level", _FMT % level),
            ("beta_hat", _FMT % fit.beta_hat),
            ("n", str(fit.n)),
            ("n_visits", str(fit.n_visits)),
            ("effective_n", str(fit.effective_n)),
            ("dropped", str(fit.n - fit.effective_n)),
            ("sigma_hat_sq", _FMT % fit.sigma_hat_sq),
            ("psd_projected", str(int(fit.psd_projected))),
        ]
        with open(os.path.join(out, "fit_report.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["key", "value"])
            w.writerows(rows)
        _write_curve(os.path.join(out, "g_curve.csv"), "g_hat", g_curve)
        for lab, curve in zip(ds.x_labels, h_curves):
            _write_curve(os.path.join(out, f"h_curve_{lab}.csv"), "h_hat", curve)
        _write_text(os.path.join(out, "resolved_config.txt"), rc.text("estimate"))

    theta_txt = ", ".join(
        f"{lab} = {fit.theta_hat[j]:.6g}" for j, lab in enumerate(ds.x_labels)
    )
    print(f"theta_hat: {theta_txt}")
    print(
        f"beta_hat = {fit.beta_hat:.4f}, visits = {fit.n_visits}, "
        f"kept {fit.effective_n} of {fit.n} observations"
    )
    print(f"report written to {out}")
    return 0


# ---------------------------------------------------------------- mc


_MC_KEYS = {
    "experiment", "n", "dgp", "reps", "master_seed", "kernel", "bn",
    "small_set", "g_grid_points", "workers", *_DESIGN_KEYS,
}


def cmd_mc(args) -> int:
    file_values = parse_kv_file(args.config)
    unknown = set(file_values) - _MC_KEYS
    if unknown:
        raise ParameterError(
            f"{args.config}: unknown config keys {sorted(unknown)}"
        )
    rc = RunConfig(file_values)
    rc.override("reps", args.reps)
    rc.override("master_seed", args.seed)
    rc.override("workers", args.workers)
    rc.setdefault("experiment", "theta")
    for key in (*_DESIGN_KEYS, "kernel", "g_grid_points", "workers"):
        rc.setdefault(key, _MC_DEFAULTS[key])
    rc.setdefault("small_set", _small_set_text(DEFAULT_SMALL_SET))

    experiment = rc.require("experiment")
    if experiment not in ("theta", "g"):
        raise ParameterError(
            f'experiment must be "theta" or "g", got {experiment!r}'
        )
    ns = [int(v) for v in _parse_float_list(rc.require("n"), "n")]
    dgps = [d.strip() for d in rc.require("dgp").split(",") if d.strip()]
    reps = rc.require("reps", int)
    seed = rc.require("master_seed", int)
    kernel = _parse_kernel_tag(rc.require("kernel"))
    small_set = _parse_small_set(rc.require("small_set"))
    bn = rc.get("bn", float)
    g_grid_points = rc.require("g_grid_points", int)
    workers = rc.require("workers", int)
    design = {
        key: rc.require(key, type(_MC_DEFAULTS[key])) for key in _DESIGN_KEYS
    }

    out = _prepare_dir(args.out)
    with _failure_marker(out):
        rows = []
        manifest = [
            f"experiment = {experiment}",
            f"master_seed = {seed}",
            f"partlin_version = {__version__}",
        ]
        single_rep = reps < 2
        for dgp in dgps:
            for n in ns:
                trunc = TruncationSpec(
                    bn if bn is not None else default_density_floor(n),
                    small_set,
                )
                cfg = McConfig(
                    n=n,
                    reps=reps,
                    dgp=dgp,
                    master_seed=seed,
                    kernel=kernel,
                    trunc=trunc,
                    g_grid_points=g_grid_points,
                    workers=workers,
                    **design,
                )
                kspec = resolve_kernel(cfg)
                cfg = replace(cfg, kernel=kspec)
                if experiment == "theta":
                    cell = run_theta_experiment(cfg)
                else:
                    cell = run_g_experiment(cfg)
                rows.append((n, dgp, cell))
                tag = f"cell.{n}.{dgp}"
                manifest.append(f"{tag}.h = {_FMT % kspec.bandwidth}")
                manifest.append(f"{tag}.kernel_family = {kspec.family}")
                manifest.append(f"{tag}.failures = {cell.failures}")
                if experiment == "g":
                    manifest.append(
                        f"{tag}.invalid_points = {cell.invalid_points}"
                    )
        with open(os.path.join(out, "table.csv"), "w", newline="") as fh:
            fh.write("n,dgp,ae,se,reps_used,failures\n")
            for n, dgp, cell in rows:
                fh.write(
                    f"{n},{dgp},{_FMT % cell.ae},{_FMT % cell.se},"
                    f"{cell.reps_used},{cell.failures}\n"
                )
        _write_text(
            os.path.join(out, "manifest.txt"), "\n".join(manifest) + "\n"
        )
        _write_text(os.path.join(out, "resolved_config.txt"), rc.text("mc"))
    if single_rep:
        print("warning: single replication, se reported as 0", file=sys.stderr)
    print(f"wrote {len(rows)} cells to {os.path.join(out, 'table.csv')}")
    return 0


# ---------------------------------------------------------------- unitroot


def cmd_unitroot(args) -> int:
    data, _ = read_columns(
        args.data, [_column_selector(args.column)], not args.no_header
    )
    z = data[:, 0]
    res = df_test(z, reps=args.reps, seed=args.seed)
    header = "rho_hat,t_stat,p_value,sim_reps"
    row = (
        f"{_FMT % res.rho_hat},{_FMT % res.t_stat},"
        f"{_FMT % res.p_value},{res.sim_reps}"
    )
    print(header)
    print(row)
    if args.out:
        out = _prepare_dir(args.out)
        rc = RunConfig()
        for key in ("data", "column", "reps", "seed"):
            rc.override(key, getattr(args, key))
        _write_text(os.path.join(out, "unitroot.csv"), header + "\n" + row + "\n")
        _write_text(os.path.join(out, "resolved_config.txt"), rc.text("unitroot"))
    return 0


# ---------------------------------------------------------------- bandwidth


def cmd_bandwidth(args) -> int:
    ds = _load_dataset(args)
    rc = RunConfig()
    for key in ("data", "family", "h_grid"):
        rc.override(key, getattr(args, key))
    trunc, h_grid = _resolve_fit_args(args, ds.n, rc)
    sel = cv_select(ds, h_grid, args.family, trunc)
    print("h,criterion,dropped")
    for i in range(sel.grid.size):
        print(
            f"{_FMT % sel.grid[i]},{_FMT % sel.criterion[i]},{sel.dropped[i]}"
        )
    print(f"# h_star = {_FMT % sel.h_star}")
    if args.out:
        out = _prepare_dir(args.out)
        rc.override("h_star", _FMT % sel.h_star)
        with open(os.path.join(out, "cv.csv"), "w", newline="") as fh:
            fh.write("h,criterion,dropped\n")
            for i in range(sel.grid.size):
                fh.write(
                    f"{_FMT % sel.grid[i]},{_FMT % sel.criterion[i]},"
                    f"{sel.dropped[i]}\n"
                )
        _write_text(os.path.join(out, "resolved_config.txt"), rc.text("bandwidth"))
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="partlin",
        description=(
            "Semi-parametric least squares for partially linear models "
            "with a null recurrent covariate"
        ),
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="write a synthetic dataset CSV")
    ps.add_argument("--n", type=int, required=True)
    _add_dgp_flags(ps)
    ps.add_argument("--seed", type=int, default=_MC_DEFAULTS["master_seed"])
    ps.add_argument("--out", required=True, help="output CSV path")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", help="fit one dataset")
    _add_data_flags(pe)
    group = pe.add_mutually_exclusive_group()
    group.add_argument("--h", type=float, help="kernel bandwidth")
    group.add_argument(
        "--cv", action="store_true", help="select the bandwidth by cross validation"
    )
    pe.add_argument("--level", type=float, default=0.95)
    pe.add_argument("--out", required=True, help="output directory")
    pe.set_defaults(func=cmd_estimate)

    pm = sub.add_parser("mc", help="run simulation table cells from a config")
    pm.add_argument("--config", required=True)
    pm.add_argument("--reps", type=int, help="override replication count")
    pm.add_argument("--seed", type=int, help="override master seed")
    pm.add_argument("--workers", type=int, help="override worker count")
    pm.add_argument("--out", required=True, help="output directory")
    pm.set_defaults(func=cmd_mc)

    pu = sub.add_parser("unitroot", help="simulated p-value unit root test")
    pu.add_argument("--data", required=True)
    pu.add_argument("--column", required=True, help="column name or 0-based index")
    pu.add_argument("--no-header", action="store_true")
    pu.add_argument("--reps", type=int, default=_DF_DEFAULTS["reps"])
    pu.add_argument("--seed", type=int, default=_DF_DEFAULTS["seed"])
    pu.add_argument("--out", help="optional output directory")
    pu.set_defaults(func=cmd_unitroot)

    pb = sub.add_parser("bandwidth", help="cross validation sweep")
    _add_data_flags(pb)
    pb.add_argument("--out", help="optional output directory")
    pb.set_defaults(func=cmd_bandwidth)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PartlinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
