"""Tests of the benchmark harness itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(kind: str) -> set[str]:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_wrapper_returns_the_wrapped_result_and_records_a_span():
    tracer = spans.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("kernel.smooth", lambda a, b=None: (sentinel, a, b))
    tracer.job_id = 3
    out = wrapped(1, b=2)
    assert out[0] is sentinel and out[1:] == (1, 2)
    (span,) = tracer.spans
    assert span[0] == "kernel.smooth" and span[3] == -1 and span[4] == 3


def test_wrapper_passes_exceptions_through():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("sls.residuals", boom)()
    assert tracer.spans[0][0] == "sls.residuals"


def test_patch_wraps_every_binding_and_keeps_results():
    import partlin.kernel
    import partlin.sls
    from partlin.kernel import KernelSpec

    original = partlin.kernel.smooth
    v = np.cumsum(np.random.default_rng(1).standard_normal(300)) * 0.1
    targets = np.column_stack([v + 1.0, v * v])
    spec = KernelSpec("uniform", 0.3)
    plain = original(v, targets, spec)
    tracer = spans.Tracer()
    with spans.Patch(tracer).job(0):
        assert partlin.sls.smooth is partlin.kernel.smooth is not original
        traced = partlin.sls.smooth(v, targets, spec)
    assert partlin.kernel.smooth is original and partlin.sls.smooth is original
    assert np.array_equal(plain[0], traced[0], equal_nan=True)
    assert np.array_equal(plain[1], traced[1])
    names = [s[0] for s in tracer.spans]
    assert names == ["kernel.smooth", "kernel.window_sums"]
    assert tracer.spans[1][3] == 0  # window_sums ran inside smooth
    summary = spans.summarize(tracer)
    assert summary["kernel.smooth"]["self_s"] <= summary["kernel.smooth"]["s"]


def test_printed_metric_names_are_declared():
    e2e = run.end_to_end([1.0], [1.0, 2.0], 100.0)
    imports = {key: 0.1 for key in run.IMPORT_MODULES.values()}
    layer = run.per_layer(spans.Tracer(), spans.Tracer(), imports, [1.0], [True])
    assert set(e2e) == _declared("end_to_end")
    assert set(layer) == _declared("per_layer")
    for name in [*e2e, *layer]:
        assert NAME.fullmatch(name) and len(name) <= 64


def test_calibration_is_repeatable_and_scales_to_the_reference():
    calibrate = run.Calibration()
    data = calibrate.data.copy()
    assert calibrate() > 0 and calibrate() > 0
    assert np.array_equal(calibrate.data, data)
    # a stretch between calibrations twice the reference reads half as long
    slow = run.Speed(lambda: 2 * run.CALIB_REF_S)
    assert slow.scale() == pytest.approx(0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    a, b, c = (tmp_path / k for k in "abc")
    workloads.make_inputs(workload, 5, str(a))
    workloads.make_inputs(workload, 5, str(b))
    workloads.make_inputs(workload, 6, str(c))
    files = sorted(os.listdir(a))
    assert files and files == sorted(os.listdir(b)) == sorted(os.listdir(c))
    same, diff, err = filecmp.cmpfiles(a, b, files, shallow=False)
    assert same == files and not diff and not err
    same, _, _ = filecmp.cmpfiles(a, c, files, shallow=False)
    assert not same


def test_reference_comparison_tolerance():
    ref = {"theta.x1": "1.0", "n_visits": "10", "p_value": "0.5"}
    assert not workloads.compare_reference(
        {"theta.x1": "1.00000000000001", "n_visits": "10", "p_value": "0.5"}, ref
    )
    assert workloads.compare_reference(
        {"theta.x1": "1.000000001", "n_visits": "10", "p_value": "0.5"}, ref
    )
    assert workloads.compare_reference(
        {"theta.x1": "1.0", "n_visits": "11", "p_value": "0.5"}, ref
    )
