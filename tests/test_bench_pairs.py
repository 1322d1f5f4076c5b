"""The summary arithmetic of ``scripts/bench_pairs.py``."""

import importlib.util
import os
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


def _result_line(job):
    return bench_pairs.json.dumps({"correct": True, "failed": 0, "metrics": {
        m: {"value": job} for m in ("setup_s", "job_s.p50", "peak_rss_mb")}})


def test_a_run_without_a_result_fails_its_rows_and_keeps_every_run(
    monkeypatch, tmp_path
):
    """One run of ten prints no JSON: its workload's rows say so and name
    it, the other workload is summarised, every run is written and the
    script exits non-zero."""
    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout.endswith("parent") else "change"
        calls.append((workload, side))
        if (workload, side) == ("mc_cell", "change") and calls.count(calls[-1]) == 2:
            return {"exit": 1, "lines": ["Traceback (most recent call last):"]}
        return {"exit": 0, "lines": [_result_line(1.0 if side == "parent" else 0.5)]}

    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    code = bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--pr", "x", "--parent-rev", "abc", "--workload", "fit_epan",
        "--workload", "mc_cell", "--pairs", "3", "--out", str(out),
    ])
    assert code == 1
    record = bench_pairs.json.loads(out.read_text())
    assert len(record["runs"]) == 12
    verdicts = {(r["workload"], r["metric"]): r for r in record["summary"]}
    assert {r["verdict"] for (w, _), r in verdicts.items() if w == "fit_epan"} == {
        "no regression"}
    failed = [r for (w, _), r in verdicts.items() if w == "mc_cell"]
    assert len(failed) == 3
    for row in failed:
        assert row["verdict"] == "run failed"
        assert row["failed_runs"] == ["pair 1 change: exit 1"]


def test_a_run_past_its_time_is_stopped_with_what_it_printed(monkeypatch, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import time\nprint('env {}', flush=True)\ntime.sleep(60)\n"
    )
    monkeypatch.setattr(bench_pairs, "TIMEOUT_S", 1)
    run = bench_pairs.run_once(str(tmp_path), "mc_cell", 0, 0.5)
    assert run == {"exit": None, "lines": ["env {}"]}
    assert bench_pairs.result_of(run) is None


def test_control_pairs_follow_each_pair_and_go_under_aa_control(monkeypatch, tmp_path):
    """With ``--control``, each pair of the parent against the change is
    followed by one of the parent against the copy, in the same order;
    those runs and their rows go under ``aa_control``, the copy as the
    change side, and the main rows are made from the main runs alone."""
    def run_once(checkout, workload, seed, seconds):
        calls.append(os.path.basename(checkout))
        job = 0.5 if checkout.endswith("change") else 1.0
        return {"exit": 0, "lines": [_result_line(job)]}

    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    code = bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--control", str(tmp_path / "copy"), "--pr", "x", "--parent-rev", "abc",
        "--workload", "fit_large", "--pairs", "2", "--claim", "fit_large:job_s.p50",
        "--out", str(out),
    ])
    assert code == 0
    assert calls == ["parent", "change", "parent", "copy",
                     "change", "parent", "copy", "parent"]
    record = bench_pairs.json.loads(out.read_text())
    assert [r["side"] for r in record["runs"]] == ["parent", "change", "change", "parent"]
    control = record["aa_control"]
    assert [(r["pair"], r["side"]) for r in control["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    job = {r["metric"]: r for r in record["summary"]}["job_s.p50"]
    assert job["change"]["median"] == 0.5
    same = {r["metric"]: r for r in control["summary"]}["job_s.p50"]
    assert same["change"]["median"] == 1.0 and same["claimed"]
    assert same["verdict"] == "not met"
