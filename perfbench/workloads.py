"""Workload inputs, jobs and output checks.

Inputs are generated here with numpy's own generator, never with the
package under test, so a change to the package cannot change what it
is fed.  Each workload's inputs are a pure function of the seed.

A job is one or more ``partlin`` command lines run in-process through
``partlin.cli.main``.  Its outputs are the result files it writes; the
checks compare them with the reference of the default seed when the
seed is the default one, and with seed-free invariants always.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fit_large", "fit_epan", "mc_cell", "unitroot")
DEFAULT_SEED = 0

# reference outputs are compared to 1e-10 relative, the tolerance the
# package's own oracle tests use; counts and p-values compare exactly
REL_TOL = 1e-10

FIT_N = {"fit_large": 100_000, "fit_epan": 1_200}
MC_N = 1_200
MC_REPS = 1_000
UNITROOT_N = 10_000
UNITROOT_REPS = 2_000


@dataclass(frozen=True)
class Job:
    """The command lines of one job and the result files it leaves."""

    argvs: tuple[tuple[str, ...], ...]
    out_dir: str
    results: tuple[str, ...]  # paths relative to out_dir


def _derived_seed(seed: int, workload: str, k: int) -> int:
    ss = np.random.SeedSequence([seed, WORKLOADS.index(workload), k])
    return int(ss.generate_state(1)[0])


def simulate_h_identity(rng: np.random.Generator, n: int) -> np.ndarray:
    """Columns (y, x1, v) of the H_identity design.

    v is a Gaussian random walk with increment sd 0.1 from 0, x1 = v + u
    with u standard normal, and y = x1 + v + eps with eps a stationary
    AR(1) of coefficient 0.5 and innovation sd 1; theta0 = 1 and g is
    the identity, as in the package's simulation study.
    """
    v = np.cumsum(0.1 * rng.standard_normal(n))
    x = v + rng.standard_normal(n)
    z = rng.standard_normal(n)
    eps = np.empty(n)
    eps[0] = z[0] / math.sqrt(1.0 - 0.25)
    for t in range(1, n):
        eps[t] = 0.5 * eps[t - 1] + z[t]
    return np.column_stack([x + v + eps, x, v])


def _write_data(path: str, data: np.ndarray) -> None:
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="y,x1,v", comments="")


def make_inputs(workload: str, seed: int, work: str) -> Job:
    """Write the workload's input files under ``work``; return its job.

    A run repeats this one job, so all of a run's outputs must be
    byte-identical.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "out")
    if workload in FIT_N:
        data = os.path.join(work, "data.csv")
        _write_data(data, simulate_h_identity(rng, FIT_N[workload]))
        argv = ["estimate", "--data", data, "--cv", "--out", out]
        if workload == "fit_epan":
            argv += ["--family", "epanechnikov"]
        results = ("fit_report.csv", "g_curve.csv", "h_curve_x1.csv")
        return Job((tuple(argv),), out, results)
    if workload == "mc_cell":
        argvs = []
        for k, experiment in enumerate(("theta", "g")):
            cfg = os.path.join(work, f"{experiment}.cfg")
            with open(cfg, "w") as fh:
                fh.write(
                    f"experiment = {experiment}\nn = {MC_N}\ndgp = H_identity\n"
                    f"reps = {MC_REPS}\nmaster_seed = {_derived_seed(seed, workload, k)}\n"
                    "kernel = cv\nworkers = 1\n"
                )
            argvs.append(
                ("mc", "--config", cfg, "--out", os.path.join(out, experiment))
            )
        return Job(tuple(argvs), out, ("theta/table.csv", "g/table.csv"))
    data = os.path.join(work, "data.csv")
    _write_data(data, simulate_h_identity(rng, UNITROOT_N))
    argv = (
        "unitroot", "--data", data, "--column", "v",
        "--reps", str(UNITROOT_REPS),
        "--seed", str(_derived_seed(seed, workload, 0)),
        "--out", out,
    )
    return Job((argv,), out, ("unitroot.csv",))


# ---------------------------------------------------------------- outputs


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def extract(workload: str, job: Job) -> dict[str, str]:
    """The values a job's output is judged by, as written (17 digits)."""
    if workload in FIT_N:
        report = {
            r["key"]: r["value"]
            for r in _read_rows(os.path.join(job.out_dir, "fit_report.csv"))
        }
        keys = ("theta.x1", "ci_low.x1", "ci_high.x1", "n_visits", "effective_n")
        return {k: report.get(k, "") for k in keys}
    if workload == "mc_cell":
        values = {}
        for experiment in ("theta", "g"):
            rows = _read_rows(os.path.join(job.out_dir, experiment, "table.csv"))
            for i, row in enumerate(rows):
                for key, val in row.items():
                    values[f"{experiment}.{i}.{key}"] = val
        return values
    (row,) = _read_rows(os.path.join(job.out_dir, "unitroot.csv"))
    return {k: row[k] for k in ("rho_hat", "t_stat", "p_value", "sim_reps")}


# values compared with REL_TOL; every other value must match exactly
_FLOAT_KEYS = {"theta.x1", "ci_low.x1", "ci_high.x1", "rho_hat", "t_stat"}
_FLOAT_MC_COLUMNS = {"ae", "se"}


def _is_float_key(key: str) -> bool:
    return key in _FLOAT_KEYS or key.rsplit(".", 1)[-1] in _FLOAT_MC_COLUMNS


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_reference(values: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Differences from the reference outputs; empty when they agree."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        got, want = values.get(key), reference.get(key)
        if got is None or want is None:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
        elif _is_float_key(key):
            if not _close(got, want):
                problems.append(f"{key}: {got} differs from reference {want}")
        elif got != want:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems


def check_invariants(workload: str, values: dict[str, str]) -> list[str]:
    """Seed-free properties every correct output has."""
    problems = []
    if workload in FIT_N:
        theta = float(values["theta.x1"])
        if not math.isfinite(theta):
            problems.append(f"theta not finite: {theta}")
        if not values["ci_low.x1"] or not values["ci_high.x1"]:
            problems.append("no confidence interval reported")
        elif not float(values["ci_low.x1"]) <= theta <= float(values["ci_high.x1"]):
            problems.append("theta outside its own interval")
        if not 0 < int(values["effective_n"]) <= FIT_N[workload]:
            problems.append(f"effective_n {values['effective_n']} out of range")
    elif workload == "mc_cell":
        for experiment in ("theta", "g"):
            failures = int(values[f"{experiment}.0.failures"])
            used = int(values[f"{experiment}.0.reps_used"])
            if failures > 0.1 * MC_REPS or used + failures != MC_REPS:
                problems.append(
                    f"{experiment}: {failures} failures, {used} used of {MC_REPS}"
                )
            if not math.isfinite(float(values[f"{experiment}.0.ae"])):
                problems.append(f"{experiment}: ae not finite")
    else:
        p = float(values["p_value"])
        if not 0.0 <= p <= 1.0:
            problems.append(f"p_value {p} outside [0, 1]")
        for key in ("rho_hat", "t_stat"):
            if not math.isfinite(float(values[key])):
                problems.append(f"{key} not finite")
    return problems


def read_results(job: Job) -> dict[str, bytes]:
    """Raw bytes of every result file, for byte-identity across jobs."""
    out = {}
    for rel in job.results:
        with open(os.path.join(job.out_dir, rel), "rb") as fh:
            out[rel] = fh.read()
    return out
