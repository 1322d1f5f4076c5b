#!/usr/bin/env python3
"""Byte comparison of the files the CLI writes, a parent checkout against a change.

Writes its inputs once, with numpy, into a work directory both checkouts
share: walks of the H_identity design (y, x1, v) at n = 300, 1200, 7000
and 20000, a copy of the n = 300 walk that numpy's reader refuses, and
copies of ``configs/table1.cfg`` and ``table2.cfg`` from the change.
Then runs, in each checkout, from a directory of its own:

* ``estimate --cv`` and ``bandwidth`` on every walk, for both kernel
  families;
* ``estimate --cv`` on the refused copy, for both families, so that the
  reader's cell by cell path is compared too;
* ``mc --reps 30`` on each config;
* ``unitroot`` on the covariate of the n = 1200 input.

Every output file is hashed with sha256.  The script names each file
that differs, or that only one side wrote, and each command that failed
on one side, and exits with 1 if there is any.  Usage, from the root of
the change's checkout::

    python3 scripts/compare_outputs.py --parent ../parent
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (300, 1200, 7000, 20000)
FAMILIES = ("uniform", "epanechnikov")
CONFIGS = ("table1.cfg", "table2.cfg")
MC_REPS = 30


def write_inputs(work: str, seed: int = 0) -> dict[int, str]:
    """One CSV per size under ``work``: v a Gaussian walk of step sd
    0.1, x1 = v + u and y = x1 + v + eps, u and eps standard normal."""
    rng = np.random.default_rng(seed)
    paths = {}
    for n in SIZES:
        v = np.cumsum(0.1 * rng.standard_normal(n))
        x = v + rng.standard_normal(n)
        y = x + v + rng.standard_normal(n)
        paths[n] = os.path.join(work, f"data_{n}.csv")
        np.savetxt(paths[n], np.column_stack([y, x, v]), fmt="%.17g",
                   delimiter=",", header="y,x1,v", comments="")
    return paths


def write_refused(source: str) -> str:
    """A copy of the CSV ``source`` whose first data cell is written with
    an underscore between two of its digits: numpy's reader refuses the
    cell and ``float`` reads it as the same number."""
    with open(source) as fh:
        header, first, rest = fh.readline(), fh.readline(), fh.read()
    at = re.search(r"\d\d", first).start() + 1
    path = source.replace(".csv", "_underscore.csv")
    with open(path, "w") as fh:
        fh.write(header + first[:at] + "_" + first[at:] + rest)
    return path


def commands(
    inputs: dict[int, str], configs: list[str], refused: str | None = None
) -> list[list[str]]:
    """The CLI argument lists, each writing under ``out/`` of the
    directory it runs from; ``refused`` is fitted only by ``estimate --cv``."""
    cmds = []
    for n, path in inputs.items():
        for family in FAMILIES:
            data = ["--data", path, "--family", family]
            cmds.append(["estimate", *data, "--cv", "--out", f"out/estimate_{n}_{family}"])
            cmds.append(["bandwidth", *data, "--out", f"out/bandwidth_{n}_{family}"])
    for family in FAMILIES if refused else ():
        cmds.append(["estimate", "--data", refused, "--family", family, "--cv",
                     "--out", f"out/estimate_refused_{family}"])
    for cfg in configs:
        name = os.path.splitext(os.path.basename(cfg))[0]
        cmds.append(
            ["mc", "--config", cfg, "--reps", str(MC_REPS), "--out", f"out/mc_{name}"]
        )
    cmds.append(
        ["unitroot", "--data", inputs[1200], "--column", "v", "--out", "out/unitroot"]
    )
    return cmds


def run_tree(root: str, cwd: str, cmds: list[list[str]]) -> list[str]:
    """Run every command with the package of checkout ``root``, from
    ``cwd``; returns the commands that failed, each with the last line
    of its error output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    failed = []
    for argv in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "partlin", *argv], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            failed.append(f"{argv[0]} {argv[-1]}: exit {proc.returncode}: {last}")
    return failed


def digests(top: str) -> dict[str, str]:
    """sha256 of every file under ``top``, by path relative to it."""
    out = {}
    for base, _, files in os.walk(top):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def compare(parent: str, change: str) -> list[str]:
    """One line per file under ``parent`` or ``change`` that is not
    byte-identical on the other side, sorted by path."""
    a, b = digests(parent), digests(change)
    lines = []
    for path in sorted(a.keys() | b.keys()):
        if path not in b:
            lines.append(f"missing in change: {path}")
        elif path not in a:
            lines.append(f"missing in parent: {path}")
        elif a[path] != b[path]:
            lines.append(f"differs: {path}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", default=ROOT, help="root of the change's checkout")
    p.add_argument("--work", help="work directory, kept (default: a temporary one);"
                   " its parent/ and change/ run directories are emptied first")
    args = p.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    os.makedirs(work, exist_ok=True)
    try:
        inputs = write_inputs(work)
        configs = [shutil.copy(os.path.join(args.change, "configs", name), work)
                   for name in CONFIGS]
        cmds = commands(inputs, configs, write_refused(inputs[300]))
        problems = []
        for side, root in (("parent", args.parent), ("change", args.change)):
            shutil.rmtree(os.path.join(work, side), ignore_errors=True)
            os.makedirs(os.path.join(work, side))
            for line in run_tree(os.path.abspath(root), os.path.join(work, side), cmds):
                problems.append(f"failed in {side}: {line}")
        problems += compare(os.path.join(work, "parent", "out"),
                            os.path.join(work, "change", "out"))
        count = len(digests(os.path.join(work, "change", "out")))
        for line in problems:
            print(line)
        print(f"{len(cmds)} commands, {count} files in the change, "
              f"{len(problems)} differences")
        return 1 if problems else 0
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
