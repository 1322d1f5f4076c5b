"""The summary arithmetic of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_as_numpy_percentile():
    rng = np.random.default_rng(4)
    for size in (2, 5, 10, 11):
        values = list(rng.random(size))
        want = np.percentile(values, [25, 50, 75])
        np.testing.assert_allclose(bench_pairs.quartiles(values), want, rtol=1e-15)
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_summary_of_a_lower_is_better_metric():
    """Ten pairs by hand: one tie, one loss, eight wins."""
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [0.9, 1.0, 1.2, 1.4, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]
    row = bench_pairs.summarize(parent, change, "lower")
    assert row["pairs"] == 10
    assert row["change_wins"] == 8 and row["change_losses"] == 1
    assert row["parent"]["median"] == pytest.approx(1.45)
    assert row["parent"]["q1"] == pytest.approx(1.225)
    assert row["parent"]["q3"] == pytest.approx(1.675)
    assert row["change"]["median"] == pytest.approx(1.4)
    assert row["parent_iqr"] == pytest.approx(0.45)
    assert row["median_gap"] == pytest.approx(0.05)
    assert row["median_ratio"] == pytest.approx(1.4 / 1.45)
    assert not row["all_change_better"]


def test_summary_of_a_higher_is_better_metric_counts_gaps_its_way():
    row = bench_pairs.summarize([1.0, 2.0, 3.0], [3.5, 4.0, 5.0], "higher")
    assert row["change_wins"] == 3 and row["change_losses"] == 0
    assert row["median_gap"] == pytest.approx(2.0)
    assert row["all_change_better"]


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]
    faster = [p - 0.2 for p in parent]
    faster[3] = parent[3]  # a tie: nine wins of ten
    row = bench_pairs.summarize(parent, faster, "lower")
    assert row["change_wins"] == 9 and row["change_losses"] == 0
    assert bench_pairs.verdict(row, 0.25, True, (0, 0)) == "gain"
    # more failed jobs than the parent void a gain
    assert bench_pairs.verdict(row, 0.25, True, (0, 1)) == "not met"
    eight = list(faster)
    eight[5] = parent[5] + 0.01
    row8 = bench_pairs.summarize(parent, eight, "lower")
    assert bench_pairs.verdict(row8, 0.25, True, (0, 0)) == "not met"
    # a gap inside the parent's own quartiles is no gain however often it wins
    close = [p - 0.001 for p in parent]
    row_close = bench_pairs.summarize(parent, close, "lower")
    assert row_close["change_wins"] == 10
    assert bench_pairs.verdict(row_close, 0.25, True, (0, 0)) == "not met"
    assert bench_pairs.verdict(row_close, 0.25, False, (0, 0)) == "no regression"
    slower = [p * 1.3 for p in parent]
    assert bench_pairs.verdict(
        bench_pairs.summarize(parent, slower, "lower"), 0.25, False, (0, 0)
    ) == "regression"
    # a parent spread wider than the bound leaves the metric unresolved
    wide = [1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.verdict(
        bench_pairs.summarize(wide, [1.5, 1.9, 1.1, 2.1], "lower"), 0.25, False, (0, 0)
    ) == "unresolved"
    assert bench_pairs.verdict(
        bench_pairs.summarize(wide, [0.5, 0.6, 0.5, 0.9], "lower"), 0.25, False, (0, 0)
    ) == "no regression"


def test_summary_rows_pair_runs_by_side_and_count_failures():
    """Rows come from each run's last stdout line, paired by pair index
    whatever order the two sides ran in."""
    benchmark = {"end_to_end": [
        {"name": "job_s.p50", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]}

    def run(pair, side, job, rss, failed=0):
        result = {"correct": True, "failed": failed, "metrics": {
            "job_s.p50": {"value": job}, "peak_rss_mb": {"value": rss}}}
        return {"workload": "w", "seed": 0, "pair": pair, "side": side,
                "exit": 0, "lines": ["env {}", bench_pairs.json.dumps(result)]}

    runs = [
        run(0, "parent", 1.0, 50.0), run(0, "change", 0.5, 50.0),
        run(1, "change", 0.6, 50.0, failed=1), run(1, "parent", 1.1, 50.0),
    ]
    rows = bench_pairs.summary_rows(runs, benchmark, {"w:job_s.p50"})
    job, rss = rows
    assert (job["metric"], job["change_wins"], job["failed"]) == ("job_s.p50", 2, [0, 1])
    assert job["parent"]["median"] == pytest.approx(1.05)
    assert job["verdict"] == "not met"  # one more failed job than the parent
    assert rss["change_wins"] == 0 and rss["verdict"] == "no regression"
