"""Replication engine for the simulation study.

One experiment cell fixes a sample size and a regressor design, then
replicates: draw a covariate random walk, independent standard normal
regressor noise, an AR(1) error, assemble y = x theta0 + g0(v) + eps,
fit the truncated estimator, and aggregate either the coefficient error
(the first table) or the curve error on a per replication grid (the
second table).  Distributional diagnostics for the two limit laws ride
on the same machinery.

Replications run a block at a time, as array programs over the rows
of (replications, n) arrays: ``simulate_block`` draws a block of
datasets, and the fit of ``sls._truncated_rows`` sorts, searches,
truncates and detrends every row at once, then solves each row's
normal equations on its own.  A block holds ``rng.block_rows(n)``
replications, at most ``rng.BLOCK_CELLS`` cells per array and at
least one replication.  Blocks run on ``rng.map_blocks`` threads, at
most ``rng.MAX_THREADS`` in flight, so memory is O(BLOCK_CELLS + n) per
thread at any n and replication count; with ``workers`` > 1, worker
processes take whole blocks instead, one block per task.

Determinism: replication j draws from streams 4j, 4j+1, 4j+2 of the
master seed (walk, regressor noise, error innovations; one spare), so a
replication is a pure function of (master_seed, j).  Blocks change
nothing here: every row of a block is computed exactly as the
replication alone (``simulate_replication`` and the dataset fits are
blocks of one), whichever replications share its block.  Results are
aggregated in replication order no matter which thread or process
computed them, which makes output bit identical across core and worker
counts.

The bandwidth for a cell is either given explicitly or, with kernel set
to "cv", calibrated once by cross validation on a pilot replication
(stream block ``reps``, outside every replication's blocks) and then
frozen for all replications.  Per replication selection would multiply
the cost by the grid size for little benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bandwidth import cv_select, default_h_grid
from .dataset import TimeSeriesDataset
from .errors import (
    ExperimentError, ParameterError, PartlinError, finite_array, scalar, store_scalars
)
from .kernel import (
    KERNEL_L2,
    KernelSpec,
    SortedView,
    TruncationSpec,
    default_truncation,
)
from .markov import simulate_ar1, simulate_random_walk
from .rng import block_rows, map_blocks, normal_block
from .sls import _curve_rows, _sls_fit, _truncated_rows, asymptotic_ci, check_level

STREAMS_PER_REP = 4
CURVE_GRID_POINTS = 300  # of the curve grids of a fit and of a curve cell
DGPS = ("H_zero", "H_identity")
G0_TAGS = ("identity", "zero")


@dataclass(frozen=True)
class McConfig:
    """Parameters of one experiment cell."""

    n: int
    reps: int
    dgp: str
    theta0: float = 1.0
    g0: str = "identity"
    increment_sd: float = 0.1
    eps_rho: float = 0.5
    eps_sd: float = 1.0
    master_seed: int = 0
    kernel: KernelSpec | str = "cv"
    trunc: TruncationSpec | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        store_scalars(self, int, n=10, reps=1, master_seed=None, workers=1)
        store_scalars(self, float, theta0=None, increment_sd=0, eps_rho=None, eps_sd=0)
        if self.dgp not in DGPS:
            raise ParameterError(f"dgp must be one of {DGPS}, got {self.dgp!r}")
        if self.g0 not in G0_TAGS:
            raise ParameterError(f"g0 must be one of {G0_TAGS}, got {self.g0!r}")
        if not isinstance(self.kernel, KernelSpec) and self.kernel != "cv":
            raise ParameterError('kernel must be a KernelSpec or the tag "cv"')


@dataclass(frozen=True)
class McCellResult:
    """Aggregate of one cell run with ``kernel``: mean absolute error and spread.

    ``invalid_points`` counts grid points without kernel mass that were
    excluded from curve error averages (zero for coefficient cells).
    """

    ae: float
    se: float
    reps_used: int
    failures: int
    kernel: KernelSpec
    invalid_points: int = 0


@dataclass(frozen=True)
class ThetaDraws:
    """Per replication coefficient estimates and interval coverage."""

    draws: np.ndarray  # (reps_used, d)
    covered: np.ndarray  # (reps_used,) booleans, interval covers theta0
    ci_level: float
    reps_used: int
    failures: int
    kernel: KernelSpec


@dataclass(frozen=True)
class NormalityReport:
    n_draws: int
    mean_bias: float
    ks_distance: float
    ks_pvalue: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True)
class GCltReport:
    """Empirical vs theoretical variance of the local curve statistic."""

    variance: float
    target: float
    reps_used: int
    invalid: int
    failures: int


def _g0_values(tag: str, v: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return v
    return np.zeros_like(v)


def simulate_block(cfg: McConfig, reps) -> tuple[np.ndarray, np.ndarray]:
    """Datasets of the replications ``reps`` under ``cfg``, one row each:
    ``(data, v)``, the columns y, x of each row in one buffer ``data`` of
    shape (len(reps), n, 2), y first, and the covariate ``v`` of shape
    (len(reps), n).

    Row i is replication ``reps[i]`` bit for bit as
    :func:`simulate_replication` gives it, whatever else the block
    holds.  A replication with a non-finite cell raises the error its
    dataset raises, the first such replication in ``reps`` first.
    """
    reps = [scalar(r, "rep", int, 0) for r in reps]
    base = [STREAMS_PER_REP * rep for rep in reps]
    v = simulate_random_walk(cfg.n, cfg.increment_sd, 0.0, cfg.master_seed, base)
    eps = simulate_ar1(
        cfg.n, cfg.eps_rho, cfg.eps_sd, cfg.master_seed, [s + 2 for s in base]
    )
    u = normal_block(cfg.master_seed, [s + 1 for s in base], cfg.n)
    data = np.empty((len(reps), cfg.n, 2))
    y, x = data[..., 0], data[..., 1]
    x[...] = u if cfg.dgp == "H_zero" else v + u
    y[...] = x * cfg.theta0 + _g0_values(cfg.g0, v) + eps
    finite = np.isfinite(data).all(axis=(1, 2)) & np.isfinite(v).all(axis=1)
    bad = np.flatnonzero(~finite)
    if bad.size:
        # the dataset of the first one raises, naming its column and row
        TimeSeriesDataset(y=y[bad[0]], x=x[bad[0]], v=v[bad[0]])
    return data, v


def simulate_replication(cfg: McConfig, rep: int) -> TimeSeriesDataset:
    """Deterministic dataset of replication ``rep`` under ``cfg``: the
    block of this one replication."""
    data, v = simulate_block(cfg, [rep])
    return TimeSeriesDataset(y=data[0, :, 0], x=data[0, :, 1:], v=v[0])


def resolve_truncation(cfg: McConfig) -> TruncationSpec:
    return cfg.trunc if cfg.trunc is not None else default_truncation(cfg.n)


def resolve_kernel(cfg: McConfig) -> KernelSpec:
    """The cell's kernel: as given, or pilot cross validation for "cv".

    The pilot replication index is ``cfg.reps``, whose stream block no
    ordinary replication touches, so calibration data and experiment
    data never share draws.
    """
    if isinstance(cfg.kernel, KernelSpec):
        return cfg.kernel
    pilot = simulate_replication(cfg, cfg.reps)
    res = cv_select(
        pilot, default_h_grid(cfg.n), "uniform", resolve_truncation(cfg)
    )
    return KernelSpec("uniform", res.h_star)


def table_grid(v: np.ndarray, points: int) -> np.ndarray:
    """Evaluation grid v_min + ((j-1)/points)(v_max - v_min), j = 1..points.

    The upper endpoint itself is deliberately not a grid point.  For a
    block of paths, the rows of ``v``, the grids are the rows of the
    result.
    """
    points, v = scalar(points, "points", int, 1), finite_array(v, "v", (1, 2))
    lo = v.min(axis=-1, keepdims=True)
    hi = v.max(axis=-1, keepdims=True)
    return lo + (np.arange(points) / points) * (hi - lo)


def _fit_block(cfg, kspec, trunc, reps):
    """The simulated block of ``reps``, its sorted covariate view (the
    walk itself is not kept) and its ``_truncated_rows`` fits."""
    data, v = simulate_block(cfg, reps)
    view = SortedView(v)
    del v
    return (data, view, *_truncated_rows(data, view, kspec, trunc))


def _failed(fit) -> bool:
    return isinstance(fit, PartlinError)


def _curve_block(cfg, kspec, trunc, reps, grid_of):
    """The fits of ``reps``, their grids ``grid_of(v)`` of the walks v,
    sorted, and their curves of y - x' theta there (``_curve_rows``, zeros
    standing in for failed fits)."""
    data, view, fits = _fit_block(cfg, kspec, trunc, reps)[:3]
    grids = grid_of(view.values)
    thetas = np.stack([np.zeros(data.shape[2] - 1) if _failed(f) else f for f in fits])
    target = data[..., :1] - data[..., 1:] @ thetas[..., None]
    values, mass, valid = _curve_rows(view, grids, kspec, target)
    return fits, grids, values[..., 0], mass, valid


# each experiment's replications, module level so workers unpickle them;
# one result per replication of the block, None where the fit failed
def _theta_replicate(cfg, kspec, trunc, ci_level, reps) -> list:
    """(theta_hat, whether the interval at ``ci_level`` covers theta0);
    coverage is NaN without an interval."""
    _, _, fits, masks, tilde, visits = _fit_block(cfg, kspec, trunc, reps)
    out = []
    for r, theta in enumerate(fits):
        covered = np.nan
        # only an interval needs the covariance block of the full fit
        if ci_level is not None and not _failed(theta):
            fit = _sls_fit(theta, masks[r], tilde[r], visits[r], kspec, trunc)
            try:  # a ParameterError leaves no interval
                ci = asymptotic_ci(fit, ci_level)
                covered = float(ci[0, 0] <= cfg.theta0 <= ci[0, 1])
            except ParameterError:
                pass
        out.append(None if _failed(theta) else (theta, covered))
    return out


def _g_replicate(cfg, kspec, trunc, reps) -> list:
    """(mean absolute curve error, invalid grid points) on each
    replication's own grid; None also when no grid point has kernel
    mass."""
    fits, grids, values, _, valid = _curve_block(
        cfg, kspec, trunc, reps, partial(table_grid, points=CURVE_GRID_POINTS)
    )
    # the valid errors of the block compacted once, a row's a contiguous slice
    err = np.abs(values - _g0_values(cfg.g0, grids))[valid]
    counts = valid.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    return [
        None if _failed(theta) or not k
        else (float(np.mean(err[end - k:end])), grids.shape[1] - k)
        for theta, k, end in zip(fits, counts, ends)
    ]


def _gpoint_replicate(cfg, kspec, trunc, v_point, reps) -> list:
    """(sqrt(local mass) times the curve error at ``v_point``, 1 if the
    point has no kernel mass else 0)."""
    fits, _, values, mass, valid = _curve_block(
        cfg, kspec, trunc, reps, lambda v: np.full((v.shape[0], 1), v_point)
    )
    g0v = float(_g0_values(cfg.g0, np.array([v_point]))[0])
    out = []
    for r, theta in enumerate(fits):
        if _failed(theta):
            out.append(None)
        elif not valid[r, 0]:
            out.append((np.nan, 1))
        else:
            out.append((float(np.sqrt(mass[r, 0]) * (values[r, 0] - g0v)), 0))
    return out


def _run_all(cfg: McConfig, replicate, *bound) -> tuple[list, int, KernelSpec]:
    """``replicate(cfg, kernel, truncation, *bound, reps)`` over blocks
    of consecutive replications; the results of every replication that
    produced a fit, in replication order, the count of those that did
    not and the kernel, resolved here alone; over 10% failures raise."""
    kspec, trunc = resolve_kernel(cfg), resolve_truncation(cfg)
    run = partial(replicate, cfg, kspec, trunc, *bound)
    size = block_rows(cfg.n)
    blocks = [
        range(start, min(start + size, cfg.reps))
        for start in range(0, cfg.reps, size)
    ]
    if cfg.workers == 1 or len(blocks) < 2:
        results = map_blocks(run, blocks)
    else:
        # imported here: the process pool loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(blocks))) as pool:
            # map keeps block order, not completion order
            results = list(pool.map(run, blocks))
    kept = [r for block in results for r in block if r is not None]
    failures = cfg.reps - len(kept)
    if failures > 0.1 * cfg.reps:
        raise ExperimentError(
            f"{failures} of {cfg.reps} replications failed, "
            "more than the 10% tolerance"
            + ("; no replication produced a fit" if not kept else "")
        )
    return kept, failures, kspec


def theta_experiment_details(cfg: McConfig, ci_level: float = 0.95) -> ThetaDraws:
    """Coefficient draws and interval coverage for every replication."""
    ci_level = None if ci_level is None else check_level(ci_level)
    kept, failures, kspec = _run_all(cfg, _theta_replicate, ci_level)
    return ThetaDraws(
        draws=np.vstack([theta for theta, _ in kept]),
        covered=np.array([c for _, c in kept]),
        ci_level=ci_level,
        reps_used=len(kept),
        failures=failures,
        kernel=kspec,
    )


def _spread(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def run_theta_experiment(cfg: McConfig) -> McCellResult:
    """Mean absolute coefficient error and spread over replications."""
    details = theta_experiment_details(cfg, ci_level=None)
    first = details.draws[:, 0]
    return McCellResult(
        ae=float(np.mean(np.abs(first - cfg.theta0))),
        se=_spread(first),
        reps_used=details.reps_used,
        failures=details.failures,
        kernel=details.kernel,
    )


def run_g_experiment(cfg: McConfig) -> McCellResult:
    """Mean absolute curve error on per replication grids.

    Each replication's grid is rebuilt from its own covariate range;
    grid points with no kernel mass are excluded from that
    replication's average and tallied in ``invalid_points``.
    """
    kept, failures, kspec = _run_all(cfg, _g_replicate)
    aes = np.array([ae for ae, _ in kept])
    invalid = int(sum(k for _, k in kept))
    return McCellResult(
        ae=float(np.mean(aes)),
        se=_spread(aes),
        reps_used=len(kept),
        failures=failures,
        kernel=kspec,
        invalid_points=invalid,
    )


def normality_check(theta_draws: np.ndarray, theta0: float) -> NormalityReport:
    """Distributional diagnostics of standardized coefficient draws.

    Standardization uses the empirical mean and standard deviation, so
    the test is against the normal family rather than one fixed normal.
    """
    draws = finite_array(theta_draws, "theta_draws", (1, 2), 200).ravel()
    sd = float(np.std(draws, ddof=1))
    if sd == 0.0 or not np.isfinite(sd):
        raise ExperimentError("draws are degenerate (zero spread)")
    z = (draws - draws.mean()) / sd
    # imported here: scipy.stats costs more to load than `import partlin`
    from scipy import stats

    ks = stats.kstest(z, "norm")
    return NormalityReport(
        n_draws=int(draws.size),
        mean_bias=float(draws.mean() - theta0),
        ks_distance=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        skewness=float(stats.skew(z)),
        excess_kurtosis=float(stats.kurtosis(z)),
    )


def g_clt_check(cfg: McConfig, v_point: float) -> GCltReport:
    """Variance check of the local limit law of the curve estimate.

    Per replication records sqrt(local mass) times the curve error at
    ``v_point`` and compares the empirical variance with the stationary
    error variance times the squared kernel integral.
    """
    v_point = scalar(v_point, "v_point")
    if abs(cfg.eps_rho) >= 1:
        raise ParameterError(
            "no stationary error variance for |eps_rho| >= 1"
        )
    kept, failures, kspec = _run_all(cfg, _gpoint_replicate, v_point)
    s_vals = np.array([s for s, _ in kept])
    invalid = int(sum(flag for _, flag in kept))
    if invalid > 0.2 * cfg.reps:
        raise ExperimentError(
            f"curve point invalid in {invalid} of {cfg.reps} replications"
        )
    s_vals = s_vals[np.isfinite(s_vals)]
    if s_vals.size < 2:
        raise ExperimentError("fewer than two usable replications")
    sigma_sq = cfg.eps_sd**2 / (1.0 - cfg.eps_rho**2)
    return GCltReport(
        variance=float(np.var(s_vals, ddof=1)),
        target=sigma_sq * KERNEL_L2[kspec.family],
        reps_used=int(s_vals.size),
        invalid=invalid,
        failures=failures,
    )
