"""Per-layer tracing from outside the package.

The entry points of each layer (``TRACED``) are wrapped.  Modules of
the package import names directly (``from .kernel import smooth``), so
a function is wrapped at every module that binds it, and the span is
named after the module that defines it whichever binding the caller
went through.  Spans are kept in memory and written at the end of the
run.  Wrappers are installed only around traced jobs, so untraced jobs
of the same run execute the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

# The layer boundaries: (module, function) -> span name.  Each layer's
# entry points are traced and nothing inside them, so a span's self
# time is the layer's own work below that entry point.
TRACED = {
    ("cli", "main"): "cli.main",
    ("dataset", "load_csv"): "dataset.load_csv",
    ("dataset", "validate"): "dataset.validate",
    ("bandwidth", "cv_select"): "bandwidth.cv_select",
    ("sls", "truncated_sls"): "sls.truncated_sls",
    ("sls", "truncated_theta"): "sls.truncated_theta",
    ("sls", "residuals"): "sls.residuals",
    ("sls", "longrun_covariance"): "sls.longrun_covariance",
    ("sls", "asymptotic_ci"): "sls.asymptotic_ci",
    ("sls", "estimate_g"): "sls.estimate_g",
    ("sls", "estimate_h"): "sls.estimate_h",
    ("kernel", "truncation_mask"): "kernel.truncation_mask",
    ("kernel", "smooth"): "kernel.smooth",
    # the private engine, which sls and bandwidth import directly
    ("kernel", "_window_sums"): "kernel.window_sums",
    ("markov", "simulate_random_walk"): "markov.simulate_random_walk",
    ("markov", "simulate_ar1"): "markov.simulate_ar1",
    ("markov", "estimate_beta"): "markov.estimate_beta",
    ("rng", "standard_normal"): "rng.standard_normal",
    ("montecarlo", "simulate_replication"): "montecarlo.simulate_replication",
    ("montecarlo", "resolve_kernel"): "montecarlo.resolve_kernel",
    ("montecarlo", "run_theta_experiment"): "montecarlo.run_theta_experiment",
    ("montecarlo", "run_g_experiment"): "montecarlo.run_g_experiment",
    ("unitroot", "simulated_pvalue"): "unitroot.simulated_pvalue",
}
# traced under tracemalloc by a memory tracer; its (reps, n) null paths
# set peak memory
MEMORY_TRACED = ("unitroot.simulated_pvalue",)


class Tracer:
    """Spans (name, start, end, parent index, job id) and call counters."""

    def __init__(self, memory: bool = False):
        self.memory = memory  # run MEMORY_TRACED calls under tracemalloc
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.job_id: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """A function that calls ``fn`` and records one span per call."""
        memory = self.memory and name in MEMORY_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            if memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job_id)
            self._count(name, result)
            return result

        return wrapper

    def _count(self, name: str, result) -> None:
        if name == "rng.standard_normal":
            self.counters["rng.normals"] += result.size
        elif name == "dataset.load_csv":
            self.counters["dataset.rows"] += result.n
        elif name == "bandwidth.cv_select":
            self.counters["bandwidth.failed_h"] += int(
                (result.criterion == float("inf")).sum()
            )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, job]) + "\n")


class Patch:
    """Installs wrappers at every binding of the traced functions."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        layers = sorted({layer for layer, _ in TRACED})
        modules = [importlib.import_module("partlin")] + [
            importlib.import_module(f"partlin.{layer}") for layer in layers
        ]
        wrappers = {}
        for (layer, attr), name in TRACED.items():
            fn = getattr(importlib.import_module(f"partlin.{layer}"), attr)
            wrappers[fn] = tracer.wrap(name, fn)
        self._sites = []  # (module, attribute, original, wrapper)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._sites.append((mod, attr, obj, wrappers[obj]))

    def job(self, job_id: int) -> "Patch":
        self.tracer.job_id = job_id
        return self

    def __enter__(self):
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)
        self.tracer.job_id = None
        return False


# ---------------------------------------------------------------- aggregation


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, summed over jobs.

    Self time is a span's duration minus its direct children's.  No
    traced function reaches itself, so inclusive times of one name never
    overlap.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, parent, _) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += (end - start) - child[i]
    return out
