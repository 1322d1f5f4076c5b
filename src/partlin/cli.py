"""Command line driver.

Five subcommands: ``simulate`` writes a synthetic dataset, ``estimate``
fits one dataset and writes a fit report plus curve files, ``mc`` runs
a table of simulation cells from a config file, ``unitroot`` runs the
simulated p-value unit root test on one column, and ``bandwidth``
sweeps the cross validation criterion into ``cv.csv``, which
``estimate --cv`` writes too.

Every CSV file, and every table printed to stdout, is the text of
:func:`partlin.dataset.csv_text`: a header row, commas, ``"\\n"`` line
ends, floats to 17 significant digits, integers and flags as ``%d``.
Input files are read by :func:`partlin.dataset.read_columns`, whose
docstring states what it accepts; every list, flag or ``mc`` key, is split
with the same quoting rules, so ``'"a,b",c'`` names the items ``a,b`` and ``c``.

Configuration is plain ``key = value`` text; command line flags
override file values.  Every run writes ``resolved_config.txt``
(``<out>.manifest.txt`` for ``simulate``) next to its outputs.  It
lists every flag the run parsed (unset ones excepted), the values the
run derived (``bn``, ``small_set``, ``h``, ``h_selected``, ``h_star``,
``h_star_grid_end``; for ``mc`` every resolved config key) and the
package versions, so a result directory is self describing.  The only
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
import inspect
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import partial

import numpy as np
import scipy

from . import __version__
from .bandwidth import cv_select, default_h_grid
from .dataset import (
    FLOAT_FMT,
    TimeSeriesDataset,
    csv_text,
    load_csv,
    read_columns,
    split_fields,
    validate,
    write_csv,
)
from .errors import ParameterError, ParseError, PartlinError
from .kernel import (
    DEFAULT_SMALL_SET,
    DENSITY_FLOOR_SCALE,
    FAMILIES,
    KernelSpec,
    TruncationSpec,
    default_bandwidth,
    truncation_spec,
)
from .markov import SmallSet
from .montecarlo import (
    CURVE_GRID_POINTS,
    DGPS,
    G0_TAGS,
    McConfig,
    run_g_experiment,
    run_theta_experiment,
    simulate_replication,
    table_grid,
)
from .sls import asymptotic_ci, check_level, estimate_g, estimate_h, truncated_sls
from .unitroot import df_test

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
    try:
        with open(path) as fh:
            lines = [raw.strip() for raw in fh]
    except UnicodeDecodeError as exc:  # decoded in chunks: no line to name
        raise ParseError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _config_value(values: dict[str, str], key: str, cast=str):
    """The config text ``values[key]`` read by ``cast``."""
    if key not in values:
        raise ParameterError(f"config key {key!r} is required")
    raw = values[key]
    try:
        return cast(raw)
    except ValueError:
        raise ParameterError(f"config key {key!r}: cannot read {raw!r}") from None


def _run_record(args, **derived) -> str:
    """The record of a run: every flag in ``args`` that is not None,
    then the ``derived`` values (which win), then package versions."""
    values = {
        key: val
        for key, val in vars(args).items()
        if key not in ("command", "func") and val is not None
    }
    values.update(derived)
    lines = [f"command = {args.command}"]
    lines += [f"{key} = {values[key]}" for key in sorted(values)]
    lines.append(f"partlin_version = {__version__}")
    lines.append(f"numpy_version = {np.__version__}")
    lines.append(f"scipy_version = {scipy.__version__}")
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_outputs(args, files: dict[str, str], **derived) -> None:
    """Write each named text, and the run record of ``args`` and
    ``derived`` as ``resolved_config.txt``, into the directory
    ``args.out``, made if missing."""
    os.makedirs(args.out, exist_ok=True)
    record = {"resolved_config.txt": _run_record(args, **derived)}
    for name, text in (files | record).items():
        _write_text(os.path.join(args.out, name), text)


@contextmanager
def _failure_marker(out: str):
    """Make the directory ``out``, then write ``FAILED.txt`` into it,
    naming the exception, if the body raises; the exception propagates."""
    os.makedirs(out, exist_ok=True)
    try:
        yield
    except Exception as exc:
        _write_text(
            os.path.join(out, "FAILED.txt"),
            f"run failed, outputs partial\n{type(exc).__name__}: {exc}\n",
        )
        raise


def _parse_list(text: str, cast, name: str) -> list:
    """The nonempty list ``text``, split as ``--x-cols`` is, each item
    read by ``cast``; ``name`` labels the error."""
    try:
        items = [cast(p) for p in split_fields(text)]
    except (ValueError, ParameterError):
        items = []
    if not items:
        raise ParameterError(
            f"{name}: cannot read {text!r} as a list of {cast.__name__}"
        )
    return items


def _parse_small_set(text: str) -> SmallSet:
    bounds = _parse_list(text, float, "--small-set")
    if len(bounds) != 2:
        raise ParameterError(f'--small-set expects "LO,HI", got {text!r}')
    return SmallSet(*bounds)


def _small_set_text(small_set: SmallSet) -> str:
    return f"{small_set.lower:g},{small_set.upper:g}"


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
        n=args.n, reps=1, dgp=args.dgp, master_seed=args.master_seed, **design
    )
    ds = simulate_replication(cfg, rep=0)
    write_csv(args.out, ds)
    _write_text(args.out + ".manifest.txt", _run_record(args))
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


# ---------------------------------------------------------------- estimate


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    """The dataset, its columns, and the truncation and bandwidth grid
    options shared by ``estimate`` and ``bandwidth``."""
    p.add_argument("--data", required=True)
    p.add_argument("--y-col", default="y")
    p.add_argument(
        "--x-cols",
        default="x1",
        help='comma separated; quote a label that holds a comma, "a,b"',
    )
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
        default=_small_set_text(DEFAULT_SMALL_SET),
        help="LO,HI bounds (default %(default)s)",
    )


def _fit_inputs(
    args,
) -> tuple[TimeSeriesDataset, TruncationSpec, np.ndarray, dict[str, str]]:
    """The dataset ``args`` name, warning about it on stderr, the
    truncation and the candidate bandwidth grid they ask for, library
    defaults filling what they leave out, and the truncation as run
    record values."""
    x_cols = tuple(_column_selector(c) for c in split_fields(args.x_cols))
    ds = load_csv(
        args.data,
        y_col=_column_selector(args.y_col),
        x_cols=x_cols,
        v_col=_column_selector(args.v_col),
        header=not args.no_header,
    )
    for issue in validate(ds):
        print(f"warning: column {issue.column!r}: {issue.message}", file=sys.stderr)
    small_set = _parse_small_set(args.small_set)
    trunc = truncation_spec(ds.n, args.bn, small_set)
    h_grid = (
        np.array(_parse_list(args.h_grid, float, "--h-grid"))
        if args.h_grid
        else default_h_grid(ds.n)
    )
    derived = {"bn": FLOAT_FMT % trunc.b_n, "small_set": _small_set_text(small_set)}
    return ds, trunc, h_grid, derived


def _curve_text(label: str, curve) -> str:
    return csv_text(
        ("v", label, "local_mass", "valid"),
        (curve.grid, curve.values, curve.local_mass, curve.valid),
    )


def cmd_estimate(args) -> int:
    if args.h_grid and not args.cv:
        raise ParameterError("--h-grid needs --cv, which searches the grid")
    check_level(args.level)
    ds, trunc, h_grid, derived = _fit_inputs(args)
    if args.cv:
        h, cv_table = _cv_sweep(args, ds, h_grid, trunc, derived)
        derived["h_selected"] = derived.pop("h_star")
    elif args.h is not None:
        h = args.h
    else:
        h = default_bandwidth(ds.n)
    derived["h"] = FLOAT_FMT % h
    spec = KernelSpec(args.family, h)

    with _failure_marker(args.out):
        fit = truncated_sls(ds, spec, trunc)
        ci = None
        if np.all(np.isfinite(fit.avar)):
            ci = asymptotic_ci(fit, args.level)
        grid = table_grid(ds.v, CURVE_GRID_POINTS)
        g_curve = estimate_g(ds, fit.theta_hat, grid, spec)
        h_curves = estimate_h(ds, grid, spec)

        rows = []
        for j, lab in enumerate(ds.x_labels):
            rows.append((f"theta.{lab}", fit.theta_hat[j]))
            if ci is not None:
                rows.append((f"ci_low.{lab}", ci[j, 0]))
                rows.append((f"ci_high.{lab}", ci[j, 1]))
        rows += [
            ("ci_level", args.level),
            ("beta_hat", fit.beta_hat),
            ("n", fit.n),
            ("n_visits", fit.n_visits),
            ("effective_n", fit.effective_n),
            ("dropped", fit.n - fit.effective_n),
            ("sigma_hat_sq", fit.sigma_hat_sq),
            ("psd_projected", fit.psd_projected),
        ]
        files = {
            "fit_report.csv": csv_text(("key", "value"), list(zip(*rows))),
            "g_curve.csv": _curve_text("g_hat", g_curve),
        }
        for lab, curve in zip(ds.x_labels, h_curves):
            files[f"h_curve_{lab}.csv"] = _curve_text("h_hat", curve)
        if args.cv:
            files["cv.csv"] = cv_table
        _write_outputs(args, files, **derived)

    theta_txt = ", ".join(
        f"{lab} = {fit.theta_hat[j]:.6g}" for j, lab in enumerate(ds.x_labels)
    )
    print(f"theta_hat: {theta_txt}")
    print(
        f"beta_hat = {fit.beta_hat:.4f}, visits = {fit.n_visits}, "
        f"kept {fit.effective_n} of {fit.n} observations"
    )
    print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------- mc


_MC_KEYS = {
    "experiment", "n", "dgp", "reps", "master_seed", "kernel", "bn",
    "small_set", "workers", *_DESIGN_KEYS,
}
# what a config file may leave out
_MC_FILE_DEFAULTS = {
    key: _MC_DEFAULTS[key]
    for key in (*_DESIGN_KEYS, "kernel", "workers")
} | {"experiment": "theta", "small_set": _small_set_text(DEFAULT_SMALL_SET)}


def cmd_mc(args) -> int:
    file_values = parse_kv_file(args.config)
    unknown = set(file_values) - _MC_KEYS
    if unknown:
        raise ParameterError(
            f"{args.config}: unknown config keys {sorted(unknown)}"
        )
    # library defaults < config file < the flags given, named after keys
    flags = {k: v for k, v in vars(args).items() if k in _MC_KEYS and v is not None}
    values = {
        key: str(val) for key, val in (_MC_FILE_DEFAULTS | file_values | flags).items()
    }
    get = partial(_config_value, values)

    experiment = get("experiment")
    if experiment not in ("theta", "g"):
        raise ParameterError(
            f'experiment must be "theta" or "g", got {experiment!r}'
        )
    ns = _parse_list(get("n"), int, "config key 'n'")
    dgps = _parse_list(get("dgp"), str, "config key 'dgp'")
    bn = get("bn", float) if "bn" in values else None
    small_set = _parse_small_set(get("small_set"))
    common = dict(
        reps=get("reps", int),
        master_seed=get("master_seed", int),
        kernel=_parse_kernel_tag(get("kernel")),
        workers=get("workers", int),
        **{key: get(key, type(_MC_DEFAULTS[key])) for key in _DESIGN_KEYS},
    )
    # every cell is checked before the output directory is made
    cells = [
        McConfig(
            n=n,
            dgp=dgp,
            trunc=truncation_spec(n, bn, small_set),
            **common,
        )
        for dgp in dgps
        for n in ns
    ]

    with _failure_marker(args.out):
        run = run_theta_experiment if experiment == "theta" else run_g_experiment
        rows = []
        manifest = [
            f"experiment = {experiment}",
            f"master_seed = {common['master_seed']}",
            f"partlin_version = {__version__}",
        ]
        for cfg in cells:
            cell = run(cfg)
            rows.append(
                (cfg.n, cfg.dgp, cell.ae, cell.se, cell.reps_used, cell.failures)
            )
            tag = f"cell.{cfg.n}.{cfg.dgp}"
            manifest.append(f"{tag}.h = {FLOAT_FMT % cell.kernel.bandwidth}")
            manifest.append(f"{tag}.kernel_family = {cell.kernel.family}")
            manifest.append(f"{tag}.failures = {cell.failures}")
            if experiment == "g":
                manifest.append(f"{tag}.invalid_points = {cell.invalid_points}")
        header = ("n", "dgp", "ae", "se", "reps_used", "failures")
        files = {
            "table.csv": csv_text(header, list(zip(*rows))),
            "manifest.txt": "\n".join(manifest) + "\n",
        }
        _write_outputs(args, files, **values)
    if common["reps"] < 2:
        print("warning: single replication, se reported as 0", file=sys.stderr)
    print(f"wrote {len(rows)} cells to {os.path.join(args.out, 'table.csv')}")
    return 0


# ---------------------------------------------------------------- unitroot


def cmd_unitroot(args) -> int:
    data, _ = read_columns(
        args.data, [_column_selector(args.column)], not args.no_header
    )
    res = df_test(data[:, 0], reps=args.reps, seed=args.seed)
    table = csv_text(
        ("rho_hat", "t_stat", "p_value", "sim_reps"),
        ([res.rho_hat], [res.t_stat], [res.p_value], [res.sim_reps]),
    )
    sys.stdout.write(table)
    if args.out:
        _write_outputs(args, {"unitroot.csv": table})
    return 0


# ---------------------------------------------------------------- bandwidth


def _cv_sweep(args, ds, h_grid, trunc, derived: dict) -> tuple[float, str]:
    """h* from ``h_grid`` by cross validation, and the ``cv.csv`` table.
    ``derived`` gains ``h_star`` and, on the default grid,
    ``h_star_grid_end``: ``lower`` or ``upper`` when h* is an end of the
    grid, where the criterion may fall further (a warning), else ``none``."""
    sel = cv_select(ds, h_grid, args.family, trunc)
    derived["h_star"] = h_star = FLOAT_FMT % sel.h_star
    if not args.h_grid:
        ends = {sel.grid[0]: "lower", sel.grid[-1]: "upper"}
        derived["h_star_grid_end"] = end = ends.get(sel.h_star, "none")
        if end != "none":
            print(f"warning: h_star = {h_star} is the {end} end of the default "
                  "bandwidth grid; the criterion may fall beyond it", file=sys.stderr)
    cols = (sel.grid, sel.criterion, sel.dropped)
    return sel.h_star, csv_text(("h", "criterion", "dropped"), cols)


def cmd_bandwidth(args) -> int:
    ds, trunc, h_grid, derived = _fit_inputs(args)
    _, table = _cv_sweep(args, ds, h_grid, trunc, derived)
    sys.stdout.write(table)
    print(f"# h_star = {derived['h_star']}")
    if args.out:
        _write_outputs(args, {"cv.csv": table}, **derived)
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
    ps.add_argument(
        "--seed", dest="master_seed", type=int, default=_MC_DEFAULTS["master_seed"]
    )
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
    pm.add_argument(
        "--seed", dest="master_seed", type=int, help="override master seed"
    )
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
    root = os.environ.get("PARTLIN_OUT_ROOT")
    if root and args.out and not os.path.isabs(args.out):
        args.out = os.path.join(root, args.out)
    try:
        return args.func(args)
    except (PartlinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
