"""Byte pins on the files the CLI writes.

Each run's output files are hashed and compared with digests recorded
from the code before any refactor that promises byte-identical output.
A change that moves these bytes on purpose updates the digests and says
why in CHANGES.md.
"""

import hashlib
import os

import pytest

from partlin.cli import main

_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

_ESTIMATE = {
    "uniform": {
        "fit_report.csv": "f36bef2adf3407fd70fafac622ebe1542c54c7f848f066acc3849be7692c9401",
        "g_curve.csv": "572cbadb0de5dddaa1593644732aa7a27095bb2a2a2d1e8f3d59a8ecba661cd1",
        "h_curve_x1.csv": "cbc52620497ca838e6f0b7475753c63c16ca28074875f438a940ecf61c54744d",
        "cv.csv": "5c11a996e88bb4721a9899842014d73e1b7deb73d7d26edfbb5e78be2beb7b47",
    },
    "epanechnikov": {
        "fit_report.csv": "c8398391646cb44b40e32f4a6d1b13f569513ce62adff8622c27a2a7c0851c29",
        "g_curve.csv": "01ca9beb1373d684b0e2ffac0bb7fc1559840a271f2544c58d5e1288220ba1af",
        "h_curve_x1.csv": "54e08f3fdc68ee86fa10882296babd3242e2409946d38e04a9f1c1c06cc0beac",
        "cv.csv": "8cf75d0e4a489c73d639646c544e0191aec0c4ee95bc5ef2e08f177c6ecadcd5",
    },
}
_MC_G_TABLE = "7714770a3f5442b11bd1cc044e5eabc4944cd9468976464878a1b3030e2baf58"
_TABLE1_TABLE = "71b8263833eddbf85a40c789967a7ca1556dae71a3ab4801a1bc215f456f9c03"
# by reps: one block of null paths at n = 500, and sixteen
_UNITROOT = {
    "100": "38afa4a3a2e6bd583c032a9647db8e6fd4a33055ffe7fbfb0d45f6aafcc377c4",
    "2000": "46d1a36f2f59053867b99e20f79facf77cc2bac8b5ebc5097389737fd969122f",
}


def _digests(out, names):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names
    }


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sim.csv"
    assert main(["simulate", "--n", "1200", "--seed", "0", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("family", sorted(_ESTIMATE))
def test_estimate_cv_bytes(simulated, tmp_path, family):
    out = tmp_path / "fit"
    argv = ["estimate", "--data", str(simulated), "--cv", "--family", family,
            "--out", str(out)]
    assert main(argv) == 0
    assert _digests(out, _ESTIMATE[family]) == _ESTIMATE[family]


def test_mc_g_bytes(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(
        "experiment = g\nn = 200\ndgp = H_zero, H_identity\nreps = 30\n"
        "master_seed = 5\nkernel = cv\n"
    )
    out = tmp_path / "g"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    assert _digests(out, ["table.csv"]) == {"table.csv": _MC_G_TABLE}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_table1_bytes(tmp_path, workers):
    out = tmp_path / "t1"
    argv = ["mc", "--config", os.path.join(_CONFIGS, "table1.cfg"), "--reps", "30",
            "--workers", workers, "--out", str(out)]
    assert main(argv) == 0
    assert _digests(out, ["table.csv"]) == {"table.csv": _TABLE1_TABLE}


@pytest.mark.parametrize("reps", sorted(_UNITROOT))
def test_unitroot_bytes(tmp_path, reps):
    data = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "500", "--seed", "0", "--out", str(data)]) == 0
    out = tmp_path / "ur"
    argv = ["unitroot", "--data", str(data), "--column", "v", "--reps", reps,
            "--out", str(out)]
    assert main(argv) == 0
    assert _digests(out, ["unitroot.csv"]) == {"unitroot.csv": _UNITROOT[reps]}
