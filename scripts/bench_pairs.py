#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against a change.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from the root of each checkout, ``--pairs`` times per
workload, the parent first in even pairs and the change first in odd
ones, so drift of the host's speed falls on both sides alike.  Writes
every run's stdout and a summary per (workload, seed, metric) to a
``BENCH_<pr>.json`` file in the schema of ``BENCH_12.json``, and prints
the verdict of each row:

* a claimed metric (``--claim WORKLOAD:METRIC``) is a ``gain`` when the
  change wins at least nine tenths of the pairs, ties counting for
  neither side, and its median beats the parent's by more than the
  distance between the parent's quartiles; otherwise ``not met``;
* any other metric is ``no regression`` when the change's median is
  worse than the parent's by no more than the metric's bound in
  ``BENCHMARK.json`` (a share of the parent's median), ``regression``
  when it is worse by more, and ``unresolved`` when the parent's own
  quartiles spread wider than the bound, unless every change run
  reads better than every parent run.

A gain does not count when the change's runs fail more jobs than the
parent's.  A run that prints no JSON result, or is stopped after
``TIMEOUT_S`` seconds beyond its own, gives every row of its (workload,
seed) the verdict ``run failed``, naming the run; the other rows and
every run's stdout are still written, and the script exits with 1.
Usage, from the root of the change's checkout::

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr NUMBER \\
        --claim fit_large:job_s.p50

``--append`` adds the rows and runs of another seed or workload to an
existing output file.  ``--control DIR`` names a file copy of the
parent: each pair is then followed by a pair of the parent against that
copy, in the same order, and those runs and their rows go under
``aa_control``, with the copy as the change side.  An A/A pairing shows
how far two identical trees read apart on the host; its verdicts are
printed but do not set the exit code, unless a run fails or the control
row of a claimed metric is a ``gain`` too: the claim then reads ``not
met (A/A control also gains)`` and the script exits with 1, since a
rule that an identical tree meets shows no gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from operator import itemgetter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NINE_TENTHS = 0.9
# a run's allowance beyond its --seconds, for the import and the warm-up job
TIMEOUT_S = 600
RUN_FAILED = "run failed"
AA_GAIN = "not met (A/A control also gains)"
CONTROL_DESCRIPTION = (
    "Control pairing, not part of the claim: the parent commit against a file "
    "copy of itself, in the change's place, each pair run right after the "
    "change's pair of the same index and in the same order, same settings. "
    "It shows how far two identical trees differ on this host."
)
DESCRIPTION = (
    "Paired perfbench runs, parent commit against this change, each pair in "
    "alternating order (the parent first in even pairs). Each run is "
    "`python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
    "--trace 0` from the root of its own checkout, with identical perfbench "
    "files. `lines` is the run's full stdout; its last line is the harness "
    "JSON result. Medians and quartiles are over the pairs' normalised "
    "metric values."
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between
    order statistics as numpy's default percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The summary of one metric over pairs: ``parent[i]`` and
    ``change[i]`` are the values of pair i, and ``better`` is "lower"
    or "higher".  ``median_gap`` is positive when the change's median
    is the better one."""
    sign = 1.0 if better == "lower" else -1.0
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    # the change's worst run against the parent's best
    worst, best = (max(change), min(parent)) if sign > 0 else (min(change), max(parent))
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    return {
        "pairs": len(parent),
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "change_wins": wins,
        "change_losses": losses,
        "median_ratio": cm / pm,
        "parent_iqr": p3 - p1,
        "median_gap": sign * (pm - cm),
        "all_change_better": sign * (best - worst) > 0,
    }


def verdict(row: dict, bound: float, claimed: bool, failed: tuple[int, int]) -> str:
    """The verdict on one summary row (see the module docstring)."""
    if claimed:
        won = row["change_wins"] >= NINE_TENTHS * row["pairs"]
        clear = row["median_gap"] > row["parent_iqr"]
        return "gain" if won and clear and failed[1] <= failed[0] else "not met"
    parent = row["parent"]["median"]
    if row["all_change_better"]:
        return "no regression"
    if row["parent_iqr"] > bound * abs(parent):
        return "unresolved"
    return "regression" if -row["median_gap"] > bound * abs(parent) else "no regression"


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One harness run from the root of ``checkout``: its exit code and
    stdout lines.  A run still going ``TIMEOUT_S`` seconds after its own
    ``seconds`` is killed, with exit None and the lines it printed."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=seconds + TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        # the output read before the kill comes as bytes, whatever text= says
        out = exc.stdout or b""
        out = out.decode(errors="replace") if isinstance(out, bytes) else out
        return {"exit": None, "lines": out.splitlines()}
    return {"exit": proc.returncode, "lines": proc.stdout.splitlines()}


def result_of(run: dict) -> dict | None:
    """The harness JSON result of a run, or None when it gave none."""
    try:
        return json.loads(run["lines"][-1])
    except (IndexError, json.JSONDecodeError):
        return None


def summary_rows(runs: list[dict], benchmark: dict, claims: set) -> list[dict]:
    """One row per (workload, seed, end-to-end metric) of ``runs``."""
    rows = []
    keys = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in keys:
        mine = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        by_side = {
            side: sorted((r for r in mine if r["side"] == side), key=lambda r: r["pair"])
            for side in ("parent", "change")
        }
        results = {side: [result_of(r) for r in rs] for side, rs in by_side.items()}
        failed_runs = [
            f"pair {r['pair']} {r['side']}: "
            + ("timed out" if r["exit"] is None else f"exit {r['exit']}")
            for side, rs in by_side.items()
            for r, res in zip(rs, results[side]) if res is None
        ]
        if failed_runs:
            rows += [{"workload": workload, "seed": seed, "metric": m["name"],
                      "verdict": RUN_FAILED, "failed_runs": failed_runs}
                     for m in benchmark["end_to_end"]]
            continue
        failed = tuple(sum(res["failed"] for res in results[s]) for s in ("parent", "change"))
        correct = all(res["correct"] for rs in results.values() for res in rs)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {s: [res["metrics"][name]["value"] for res in results[s]]
                      for s in ("parent", "change")}
            row = summarize(values["parent"], values["change"], metric["better"])
            claimed = f"{workload}:{name}" in claims
            rows.append({
                "workload": workload, "seed": seed, "metric": name, **row,
                "failed": list(failed), "correct": correct, "claimed": claimed,
                "verdict": verdict(row, metric["bound"], claimed, failed),
            })
    return rows


def _rounded(row: dict) -> dict:
    def r(x):
        return round(x, 4) if isinstance(x, float) else x
    return {k: ({kk: r(vv) for kk, vv in v.items()} if isinstance(v, dict) else r(v))
            for k, v in row.items()}


def _environment(runs: list[dict]) -> dict | None:
    for run in runs:
        for line in run["lines"]:
            if line.startswith("env "):
                return json.loads(line[4:])
    return None


def _revision(checkout: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def _merged(old: list[dict], new: list[dict]) -> list[dict]:
    """``old`` runs but those of the (workload, seed)s of ``new``, then ``new``."""
    done = {(r["workload"], r["seed"]) for r in new}
    return [r for r in old if (r["workload"], r["seed"]) not in done] + new


def _print_rows(rows: list[dict], label: str = "") -> None:
    for row in rows:
        head = f"{label}{row['workload']:9s} seed {row['seed']:<3d} {row['metric']:12s} "
        if row["verdict"] == RUN_FAILED:
            print(f"{head}{RUN_FAILED}: {'; '.join(row['failed_runs'])}")
            continue
        pa, ch = row["parent"], row["change"]
        print(
            f"{head}parent {pa['median']:.4f} [{pa['q1']:.4f}, {pa['q3']:.4f}]  "
            f"change {ch['median']:.4f} [{ch['q1']:.4f}, {ch['q3']:.4f}]  "
            f"wins {row['change_wins']}/{row['pairs']} losses {row['change_losses']}  "
            f"ratio {row['median_ratio']:.4f}  gap {row['median_gap']:.4f} "
            f"iqr {row['parent_iqr']:.4f}  failed {row['failed']}  {row['verdict']}"
        )


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", default=ROOT, help="root of the change's checkout")
    p.add_argument("--control", help="root of a file copy of the parent: A/A pairs")
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--parent-rev", help="parent commit (default: git of --parent)")
    p.add_argument("--workload", action="append", choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    p.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    p.add_argument("--out", help="output path (default: BENCH_<pr>.json in --change)")
    p.add_argument("--append", action="store_true", help="add to an existing --out")
    args = p.parse_args(argv)
    out = args.out or os.path.join(args.change, f"BENCH_{args.pr}.json")
    record = {"runs": [], "claims": []}
    if args.append:
        with open(out) as fh:
            record = json.load(fh)

    parent = os.path.abspath(args.parent)
    pairings = [("", {"parent": parent, "change": os.path.abspath(args.change)}, [])]
    if args.control:
        pairings.append(
            ("control ", {"parent": parent, "change": os.path.abspath(args.control)}, [])
        )
    for workload in args.workload or workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for label, sides, new in pairings:
                for side in order:
                    run = run_once(sides[side], workload, args.seed, args.seconds)
                    new.append({"workload": workload, "seed": args.seed, "pair": pair,
                                "side": side, **run})
                    print(f"{label}{workload} seed {args.seed} pair {pair} {side}: "
                          f"exit {run['exit']}", file=sys.stderr)
    runs = _merged(record["runs"], pairings[0][2])
    claims = sorted(set(record.get("claims", [])) | set(args.claim))
    fresh = {
        "description": DESCRIPTION.format(seconds=args.seconds),
        "parent": args.parent_rev or record.get("parent") or _revision(args.parent),
        "environment": _environment(runs),
        "claims": claims,
        "summary": [],
        "runs": runs,
    }
    control = record.get("aa_control", {})
    if args.control:  # a control written by hand, without runs, is replaced
        fresh["aa_control"] = {
            "description": CONTROL_DESCRIPTION,
            "summary": [],
            "runs": _merged(control.get("runs", []), pairings[1][2]),
        }
    # keys written by hand into an appended file follow
    record = {**fresh, **{k: v for k, v in record.items() if k not in fresh}}
    # the runs are on disk before the summary is made from them
    _write(out, record)
    rows = summary_rows(runs, benchmark, set(claims))
    control_rows = []
    if "runs" in record.get("aa_control", {}):
        control_rows = summary_rows(record["aa_control"]["runs"], benchmark, set(claims))
        record["aa_control"]["summary"] = [_rounded(row) for row in control_rows]
    key = itemgetter("workload", "seed", "metric")
    aa_gains = {key(row) for row in control_rows if row["verdict"] == "gain"}
    for row in rows:
        if row["verdict"] == "gain" and key(row) in aa_gains:
            row["verdict"] = AA_GAIN
    record["summary"] = [_rounded(row) for row in rows]
    _write(out, record)

    _print_rows(rows)
    _print_rows(control_rows, "control ")
    print(f"wrote {out}")
    failed = any(row["verdict"] in (RUN_FAILED, AA_GAIN) for row in rows + control_rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
