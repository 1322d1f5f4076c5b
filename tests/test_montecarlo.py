"""Replication engine: determinism, stream layout and aggregation."""

import concurrent.futures
import os
import sys
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from oracles import oracle_curve_error, oracle_kernel
from partlin import markov, montecarlo, rng, sls
from partlin.dataset import TimeSeriesDataset
from partlin.errors import (
    ExperimentError,
    NoVisitsError,
    ParameterError,
    RankError,
    TruncationError,
)
from partlin.kernel import KernelSpec, SortedView, TruncationSpec, default_truncation
from partlin.markov import SmallSet, simulate_ar1, simulate_random_walk
from partlin.montecarlo import (
    DGPS,
    G0_TAGS,
    STREAMS_PER_REP,
    McConfig,
    g_clt_check,
    normality_check,
    resolve_kernel,
    resolve_truncation,
    run_g_experiment,
    run_theta_experiment,
    simulate_block,
    simulate_replication,
    table_grid,
    theta_experiment_details,
)
from partlin.rng import MAX_THREADS, block_rows, standard_normal
from partlin.sls import _curve_rows, _truncated_rows, estimate_g, truncated_theta

FIXED = KernelSpec("uniform", 0.6)


def small_cfg(**kwargs):
    base = dict(n=60, reps=8, dgp="H_zero", master_seed=5, kernel=FIXED)
    base.update(kwargs)
    return McConfig(**base)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=9),
        dict(reps=0),
        dict(dgp="H_cubed"),
        dict(g0="sine"),
        dict(increment_sd=-0.1),
        dict(eps_sd=-1.0),
        dict(theta0=np.nan),
        dict(kernel="adaptive"),
        dict(workers=0),
    ],
    ids=[
        "n_below_10", "reps_zero", "unknown_dgp", "unknown_g0", "negative_increment_sd",
        "negative_eps_sd", "nan_theta0", "unknown_kernel", "workers_zero",
    ],
)
def test_config_validation(kwargs):
    base = dict(n=60, reps=8, dgp="H_zero")
    base.update(kwargs)
    with pytest.raises(ParameterError):
        McConfig(**base)


def test_replication_stream_layout():
    cfg = small_cfg()
    ds = simulate_replication(cfg, 3)
    base = STREAMS_PER_REP * 3
    v = simulate_random_walk(60, 0.1, 0.0, 5, base)
    u = standard_normal(5, base + 1, 60)
    eps = simulate_ar1(60, 0.5, 1.0, 5, base + 2)
    np.testing.assert_array_equal(ds.v, v)
    np.testing.assert_array_equal(ds.x[:, 0], u)  # case (i): x is the noise
    np.testing.assert_array_equal(ds.y, u * 1.0 + v + eps)


def test_replication_identity_case_adds_covariate():
    cfg = small_cfg(dgp="H_identity")
    ds = simulate_replication(cfg, 0)
    v = simulate_random_walk(60, 0.1, 0.0, 5, 0)
    u = standard_normal(5, 1, 60)
    np.testing.assert_array_equal(ds.x[:, 0], v + u)


def test_replication_zero_curve():
    cfg = small_cfg(g0="zero", theta0=2.0)
    ds = simulate_replication(cfg, 1)
    u = standard_normal(5, STREAMS_PER_REP + 1, 60)
    eps = simulate_ar1(60, 0.5, 1.0, 5, STREAMS_PER_REP + 2)
    np.testing.assert_array_equal(ds.y, 2.0 * u + eps)


def test_replication_deterministic_and_distinct():
    cfg = small_cfg()
    a = simulate_replication(cfg, 2)
    b = simulate_replication(cfg, 2)
    c = simulate_replication(cfg, 4)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    with pytest.raises(ParameterError):
        simulate_replication(cfg, -1)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("dgp", DGPS)
@pytest.mark.parametrize("g0", G0_TAGS)
def test_block_rows_are_the_replications(dgp, g0):
    cfg = small_cfg(dgp=dgp, g0=g0)
    reps = [5, 0, 3, 9]
    data, v = simulate_block(cfg, reps)
    assert v.shape == (4, 60) and data.shape == (4, 60, 2)
    y, x = data[..., 0], data[..., 1:]
    for i, rep in enumerate(reps):
        ds = simulate_replication(cfg, rep)
        assert _bits(y[i]) == _bits(ds.y)
        assert _bits(x[i]) == _bits(ds.x)
        assert _bits(v[i]) == _bits(ds.v)


def test_block_reports_the_first_non_finite_replication():
    # an explosive error overflows within a few thousand steps
    cfg = small_cfg(n=5000, eps_rho=1.2, kernel=FIXED)
    with pytest.raises(ParameterError, match="non-finite") as block_err:
        simulate_block(cfg, [2, 1])
    with pytest.raises(ParameterError) as single_err:
        simulate_replication(cfg, 2)
    assert str(block_err.value) == str(single_err.value)
    with pytest.raises(ParameterError, match="rep"):
        simulate_block(cfg, [0, -1])


@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_block_fits_are_the_dataset_fits(family):
    """Each row of a block fit is the fit of that replication's dataset
    on its own, bit for bit, with the errors a single fit raises."""
    cfg = small_cfg(n=80, dgp="H_identity")
    spec, trunc = KernelSpec(family, 0.3), default_truncation(80)
    data, v = simulate_block(cfg, range(6))
    y, x, view = data[..., 0], data[..., 1:], SortedView(v)
    fits, masks, _, _ = _truncated_rows(data, view, spec, trunc)
    grids = table_grid(v, 40)
    target = np.stack([yr - xr @ th for yr, xr, th in zip(y, x, fits)])
    values, mass, valid = _curve_rows(view, grids, spec, target[..., None])
    for r in range(6):
        ds = simulate_replication(cfg, r)
        theta, mask = truncated_theta(ds, spec, trunc)
        assert _bits(fits[r]) == _bits(theta)
        assert masks[r].tolist() == mask.tolist()
        curve = estimate_g(ds, theta, table_grid(ds.v, 40), spec)
        assert _bits(grids[r]) == _bits(curve.grid)
        assert _bits(values[r, :, 0]) == _bits(curve.values)
        assert _bits(mass[r]) == _bits(curve.local_mass)
        assert valid[r].tolist() == curve.valid.tolist()


@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_block_mixing_fit_errors(family):
    """A block whose rows fail in each way: every row gets the outcome
    its dataset gets alone."""
    n, h = 40, 0.05
    rng = np.random.default_rng(3)
    dense = np.cumsum(0.002 * rng.normal(size=n))
    v = np.vstack([
        dense,  # a fit
        5.0 + dense,  # never visits [-1, 1]
        np.linspace(-1.0, 1.0, n),  # isolated points, all below the floor
        dense,  # a regressor without variation
    ])
    x = rng.normal(size=(4, n, 1))
    x[3] = 2.0
    y = x[:, :, 0] + rng.normal(size=(4, n))
    spec, trunc = KernelSpec(family, h), TruncationSpec(0.5, SmallSet(-1.0, 1.0))
    stacked = np.concatenate([y[:, :, None], x], axis=2)
    fits = _truncated_rows(stacked, SortedView(v), spec, trunc)[0]
    expected = [None, NoVisitsError, TruncationError, RankError]
    for r, want in enumerate(expected):
        ds = TimeSeriesDataset(y=y[r], x=x[r], v=v[r])
        if want is None:
            assert _bits(fits[r]) == _bits(truncated_theta(ds, spec, trunc)[0])
            continue
        assert isinstance(fits[r], want)
        with pytest.raises(want) as alone:
            truncated_theta(ds, spec, trunc)
        assert str(fits[r]) == str(alone.value)


def test_resolve_kernel_passthrough_and_pilot():
    cfg = small_cfg()
    assert resolve_kernel(cfg) is FIXED
    cv_cfg = small_cfg(n=200, kernel="cv")
    spec = resolve_kernel(cv_cfg)
    assert spec.family == "uniform"
    from partlin.bandwidth import cv_select, default_h_grid

    pilot = simulate_replication(cv_cfg, cv_cfg.reps)
    want = cv_select(
        pilot, default_h_grid(200), "uniform", resolve_truncation(cv_cfg)
    ).h_star
    assert spec.bandwidth == want
    # each result reports the kernel its cell resolved, so no caller
    # resolves it a second time
    assert run_theta_experiment(cfg).kernel is FIXED
    assert theta_experiment_details(cv_cfg, ci_level=None).kernel == spec
    assert run_g_experiment(cv_cfg).kernel == spec
    epan = small_cfg(n=150, reps=40, kernel=KernelSpec("epanechnikov", 0.6))
    assert g_clt_check(epan, 0.0).target == pytest.approx((1.0 / (1.0 - 0.25)) * 0.6)


def test_resolve_truncation_default_and_override():
    cfg = small_cfg()
    assert resolve_truncation(cfg) == default_truncation(60)
    custom = TruncationSpec(0.01, SmallSet(-2.0, 2.0))
    assert resolve_truncation(small_cfg(trunc=custom)) is custom


def test_table_grid_formula():
    grid = table_grid(np.array([0.0, 10.0]), 5)
    np.testing.assert_array_equal(grid, [0.0, 2.0, 4.0, 6.0, 8.0])
    assert table_grid(np.array([3.0, 3.0]), 4).tolist() == [3.0] * 4
    with pytest.raises(ParameterError):
        table_grid(np.array([0.0, 1.0]), 0)


def test_theta_experiment_shapes_and_determinism():
    cfg = small_cfg()
    cell = run_theta_experiment(cfg)
    assert cell.reps_used + cell.failures == cfg.reps
    assert cell.ae >= 0.0
    assert cell.se >= 0.0
    assert cell.invalid_points == 0
    again = run_theta_experiment(cfg)
    assert again.ae == cell.ae
    assert again.se == cell.se


def test_workers_do_not_change_results():
    cfg = small_cfg()
    serial = run_theta_experiment(cfg)
    parallel = run_theta_experiment(replace(cfg, workers=2))
    assert serial.ae == parallel.ae
    assert serial.se == parallel.se
    assert serial.reps_used == parallel.reps_used


@pytest.mark.parametrize("workers", [2, 3])
def test_blocks_and_workers_do_not_change_results(workers):
    """Replications run in blocks of ``block_rows(n)``; with a count
    that is not a multiple of it, every draw is the draw of its own
    replication fitted alone, whatever the worker count."""
    n = 5000
    reps = 2 * block_rows(n) + 3
    cfg = small_cfg(n=n, reps=reps, kernel=KernelSpec("uniform", 0.3))
    serial = theta_experiment_details(cfg, ci_level=None)
    trunc = resolve_truncation(cfg)
    for r in range(reps):
        theta, _ = truncated_theta(simulate_replication(cfg, r), cfg.kernel, trunc)
        assert _bits(serial.draws[r]) == _bits(theta)
    parallel = theta_experiment_details(replace(cfg, workers=workers), ci_level=None)
    assert _bits(parallel.draws) == _bits(serial.draws)
    g_serial = run_g_experiment(cfg)
    assert run_g_experiment(replace(cfg, workers=workers)) == g_serial


def test_single_replication_has_zero_spread():
    cell = run_theta_experiment(small_cfg(reps=1))
    assert cell.se == 0.0
    assert cell.reps_used == 1


def test_noiseless_replications_recover_theta_exactly():
    cfg = small_cfg(eps_sd=0.0, g0="zero", theta0=1.0, reps=4)
    cell = run_theta_experiment(cfg)
    assert cell.ae == 0.0
    assert cell.se == 0.0


def test_noise_hurts_with_matched_seeds():
    quiet = run_theta_experiment(small_cfg(eps_sd=0.1, reps=6))
    loud = run_theta_experiment(small_cfg(eps_sd=2.0, reps=6))
    assert quiet.ae < loud.ae


def test_theta_details_coverage_fields():
    det = theta_experiment_details(small_cfg(n=120, reps=10), ci_level=0.9)
    assert det.ci_level == 0.9
    assert det.draws.shape == (det.reps_used, 1)
    assert det.covered.shape == (det.reps_used,)
    finite = det.covered[np.isfinite(det.covered)]
    assert np.isin(finite, [0.0, 1.0]).all()


def test_failure_tolerance_enforced():
    cfg = small_cfg(trunc=TruncationSpec(1e9, SmallSet(-1.0, 1.0)))
    with pytest.raises(ExperimentError, match="tolerance"):
        run_theta_experiment(cfg)


def test_g_experiment_aggregates():
    cfg = small_cfg(n=80, reps=6)
    cell = run_g_experiment(cfg)
    assert cell.reps_used == 6
    assert cell.failures == 0
    assert cell.ae > 0.0
    assert cell.invalid_points >= 0
    again = run_g_experiment(cfg)
    assert again.ae == cell.ae
    assert again.invalid_points == cell.invalid_points


def test_g_experiment_workers_invariant():
    cfg = small_cfg(n=80, reps=6)
    a = run_g_experiment(cfg)
    b = run_g_experiment(replace(cfg, workers=3))
    assert a.ae == b.ae
    assert a.se == b.se


def _two_cluster_path(seed: int, size: int = 20):
    """Covariate values in two clusters, so some grid windows are empty."""
    rng = np.random.default_rng(seed)
    v = np.concatenate([rng.normal(0.0, 0.05, size), rng.normal(2.0, 0.05, size)])
    return v, v + rng.normal(size=v.size)


def test_curve_error_oracle_without_noise_is_mean_abs_bias():
    v, x = _two_cluster_path(3)
    h, points = 0.1, 50
    got = oracle_curve_error(v, x, h, points, np.sin, 0.5, 0.0, 0.0)
    lo, hi = float(v.min()), float(v.max())
    biases = []
    for j in range(points):
        p = lo + (j / points) * (hi - lo)
        window = [vt for vt in v if oracle_kernel("uniform", (vt - p) / h) > 0]
        if window:
            biases.append(abs(sum(np.sin(window)) / len(window) - np.sin(p)))
    assert 0 < len(biases) < points
    assert got == pytest.approx(sum(biases) / len(biases), rel=1e-12, abs=0)


def test_curve_error_oracle_matches_drawn_error_paths():
    """The closed form against a direct average over AR(1) error paths
    and independent coefficient errors, for one fixed walk."""
    rng = np.random.default_rng(11)
    n, h, points, rho, eps_sd, theta_var = 80, 0.15, 40, 0.5, 1.0, 0.05
    v = np.cumsum(rng.normal(0.0, 0.1, n))
    x = 2.0 + v + rng.normal(size=n)
    want = oracle_curve_error(v, x, h, points, np.sin, rho, eps_sd, theta_var)

    draws = 20_000
    eps = np.empty((draws, n))
    eps[:, 0] = rng.normal(0.0, eps_sd / np.sqrt(1.0 - rho**2), draws)
    for t in range(1, n):
        eps[:, t] = rho * eps[:, t - 1] + rng.normal(0.0, eps_sd, draws)
    delta = rng.normal(0.0, np.sqrt(theta_var), draws)
    lo, hi = float(v.min()), float(v.max())
    total = np.zeros(draws)
    used = 0
    for j in range(points):
        p = lo + (j / points) * (hi - lo)
        w = np.abs((v - p) / h) <= 1.0
        if not w.any():
            continue
        err = np.sin(v[w]).mean() - np.sin(p) + eps[:, w].mean(axis=1) \
            - x[w].mean() * delta
        total += np.abs(err)
        used += 1
    ae = total / used
    tol = 4.0 * ae.std(ddof=1) / np.sqrt(draws)
    assert abs(ae.mean() - want) <= tol
    # the check can tell: leaving out the serial correlation (same
    # marginal variance) or the coefficient term moves the prediction
    # well outside the tolerance
    white_sd = eps_sd / np.sqrt(1.0 - rho**2)
    for wrong in (
        oracle_curve_error(v, x, h, points, np.sin, 0.0, white_sd, theta_var),
        oracle_curve_error(v, x, h, points, np.sin, rho, eps_sd, 0.0),
    ):
        assert abs(ae.mean() - wrong) > 3 * tol


def test_normality_check_on_reference_draws():
    draws = 1.0 + 0.05 * standard_normal(1, 0, 4000)
    rep = normality_check(draws, 1.0)
    assert rep.n_draws == 4000
    assert abs(rep.mean_bias) < 0.005
    assert rep.ks_pvalue > 1e-4
    assert abs(rep.skewness) < 0.15
    assert abs(rep.excess_kurtosis) < 0.25


def test_normality_check_guards():
    with pytest.raises(ParameterError, match="200"):
        normality_check(np.zeros(100), 0.0)
    with pytest.raises(ExperimentError, match="degenerate"):
        normality_check(np.ones(300), 1.0)


def test_g_clt_check_fields():
    cfg = small_cfg(n=150, reps=40)
    rep = g_clt_check(cfg, 0.0)
    assert rep.target == pytest.approx((1.0 / (1.0 - 0.25)) * 0.5)
    assert rep.reps_used <= 40
    assert rep.variance > 0.0
    assert rep.invalid >= 0


def test_g_clt_check_validation():
    with pytest.raises(ParameterError, match="v_point"):
        g_clt_check(small_cfg(), np.inf)
    with pytest.raises(ParameterError, match="stationary"):
        g_clt_check(small_cfg(eps_rho=1.0), 0.0)


def test_dgp_tags_exported():
    assert DGPS == ("H_zero", "H_identity")


# ------------------------------------------------- blocks on threads and processes

# a walk of 2000 points gives blocks of 32 replications, so 100 span four
THREADED = dict(n=2000, reps=100, dgp="H_identity", master_seed=9, kernel=FIXED)
# one cell of the simulation study's size: blocks of 54 replications
STUDY_N, STUDY_H = 1200, 0.27


def patch_cores(monkeypatch, cores):
    """Make this process look as if it may run on ``cores`` cores."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
    )


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so blocks interleave finely."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each thread pool made while the test runs."""
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return made


def _cell_bytes(cfg) -> dict:
    """Every result of a cell that a thread or process count could move,
    as bytes or values compared exactly."""
    out = {}
    for level in (0.95, None):
        det = theta_experiment_details(cfg, ci_level=level)
        out[level] = (
            det.draws.tobytes(), det.covered.tobytes(), det.reps_used, det.failures
        )
    out["g"] = run_g_experiment(cfg)
    out["clt"] = g_clt_check(cfg, 0.0)
    return out


def test_visits_are_counted_once_per_block(monkeypatch):
    """A coverage run counts each block's small set visits once: the
    intervals take each row's count from the block fit, and the draws
    do not change."""
    cfg = small_cfg(**THREADED)
    want = theta_experiment_details(cfg, ci_level=0.95)
    calls = []
    count = markov._count_visits

    def counted(v, small_set):
        calls.append(np.shape(v))
        return count(v, small_set)

    for module in (markov, sls):
        monkeypatch.setattr(module, "_count_visits", counted)
    got = theta_experiment_details(cfg, ci_level=0.95)
    blocks = -(-cfg.reps // block_rows(cfg.n))
    assert blocks == 4 and np.isfinite(got.covered).any()
    assert sorted(calls) == sorted([(32, 2000)] * 3 + [(4, 2000)])
    assert _bits(got.draws) == _bits(want.draws)
    assert got.covered.tobytes() == want.covered.tobytes()
    assert (got.reps_used, got.failures, got.kernel) == (
        want.reps_used, want.failures, want.kernel
    )


def test_cells_are_identical_for_any_core_or_worker_count(monkeypatch, fast_switching):
    """Four blocks give the same bytes on 1, 2, 3 and 64 cores, the last
    capped at MAX_THREADS threads, and with two worker processes."""
    cfg = small_cfg(**THREADED)
    cells = {}
    for cores in (1, 2, 3, 64):
        patch_cores(monkeypatch, cores)
        cells[cores] = _cell_bytes(cfg)
    patch_cores(monkeypatch, 1)
    cells["workers"] = _cell_bytes(replace(cfg, workers=2))
    for key in (2, 3, 64, "workers"):
        assert cells[key] == cells[1]


def test_thread_pool_only_for_several_blocks_and_cores(monkeypatch, pools):
    """One block, or one core, runs inline; several blocks on many cores
    start one pool of MAX_THREADS threads."""
    patch_cores(monkeypatch, 64)
    theta_experiment_details(small_cfg(**{**THREADED, "reps": 32}), ci_level=None)
    assert pools == []
    theta_experiment_details(small_cfg(**THREADED), ci_level=None)
    assert pools == [MAX_THREADS]
    patch_cores(monkeypatch, 1)
    theta_experiment_details(small_cfg(**THREADED), ci_level=None)
    assert pools == [MAX_THREADS]


def test_worker_processes_start_no_threads(monkeypatch):
    """With worker processes, neither the parent nor a forked worker maps
    blocks on threads: a map that raises is never reached."""

    def refuse(fn, items):
        raise AssertionError("blocks mapped on threads")

    for module in (rng, montecarlo):
        monkeypatch.setattr(module, "map_blocks", refuse)
    patch_cores(monkeypatch, 64)
    cfg = small_cfg(**THREADED, workers=2)
    assert theta_experiment_details(cfg, ci_level=0.95).reps_used == cfg.reps
    assert run_g_experiment(cfg).reps_used == cfg.reps


def test_process_pool_is_no_larger_than_the_cell_has_blocks(monkeypatch):
    """``workers = 64`` on a cell of four blocks asks the process pool
    for four workers, not 64; the pool here maps inline, starting none."""
    made = []

    class Inline:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    cfg = small_cfg(**THREADED)
    want = theta_experiment_details(cfg, ci_level=None)
    got = theta_experiment_details(replace(cfg, workers=64), ci_level=None)
    assert made == [-(-cfg.reps // block_rows(cfg.n))] == [4]
    assert _bits(got.draws) == _bits(want.draws)


def _traced_peak(run) -> int:
    """The tracemalloc peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("replicate", ["theta", "g"])
def test_block_memory_is_bounded(replicate):
    """One block of the simulation study's size (n = 1200, 54
    replications) peaks below 7 MiB, about 14 arrays the size of the
    block, so two blocks in flight stay within a few MB."""
    cfg = small_cfg(n=STUDY_N, reps=1000, dgp="H_identity",
                    kernel=KernelSpec("uniform", STUDY_H))
    trunc, rows = resolve_truncation(cfg), range(block_rows(STUDY_N))
    assert len(rows) == 54
    if replicate == "theta":
        run = partial(montecarlo._theta_replicate, cfg, cfg.kernel, trunc, 0.95, rows)
    else:
        run = partial(montecarlo._g_replicate, cfg, cfg.kernel, trunc, rows)
    run()  # loads scipy.special and numpy's lazily built tables
    assert _traced_peak(run) <= 7 * 2**20


def test_cell_memory_is_bounded_on_a_large_host(monkeypatch):
    """A cell of four blocks on 64 cores holds at most MAX_THREADS blocks
    at once."""
    patch_cores(monkeypatch, 64)
    cfg = small_cfg(n=STUDY_N, reps=4 * 54, dgp="H_identity",
                    kernel=KernelSpec("uniform", STUDY_H))
    theta_experiment_details(cfg, ci_level=0.95)
    peak = _traced_peak(lambda: theta_experiment_details(cfg, ci_level=0.95))
    assert peak <= MAX_THREADS * 7 * 2**20 + 2**20
