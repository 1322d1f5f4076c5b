"""partlin benchmark: one workload, closed loop, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit_large --seed 0 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed``, times fresh
interpreter imports of the package (``setup_s``), then runs the same
job back to back in this process through ``partlin.cli.main`` until
``--seconds`` have passed, one job at a time.  One untimed job runs
first, to warm up; the peak RSS is read after it.  Every job's outputs are
checked (see ``workloads.py``).  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it record the environment and the figures
that do not fit the fixed metric set (wall times, job count, p90,
failure share).

The end-to-end times are speed-normalised.  On a shared host the speed
of one core drifts by 10-30 % over seconds to minutes, and every job
of a run slows alike.  A fixed numeric task that does not use the
package (``Calibration``) is timed at the start and after every
command line and import; each measured wall time is multiplied by
``CALIB_REF_S`` over the mean of the calibrations on either side of
it.  The result is the time the job would take at the speed at which
the calibration takes ``CALIB_REF_S``.  A change to the package cannot
move the calibration, so a slower package still reads slower.

With ``--trace 1`` the run alternates traced and untraced jobs, so the
tracing overhead is the difference of their medians, runs one more job
under tracemalloc for the memory peak, and writes the spans to
``.perfbench_work/spans_<workload>_<seed>.jsonl``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, at the same value on every
# commit measured.  One thread: with two, job times depend on whether
# the second core happens to be free, and swing by a quarter on a
# shared machine.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import partlin; "
    "print(time.perf_counter() - t)"
)
# modules whose cumulative -X importtime is reported in the import layer
IMPORT_MODULES = {
    "partlin": "partlin", "scipy.signal": "scipy_signal", "scipy.stats": "scipy_stats",
}


# roughly the calibration's time on the 2-vCPU Xeon of the README's
# baseline; normalised times are seconds at that speed
CALIB_REF_S = 0.070


class RunRefused(Exception):
    """The run cannot produce a valid measurement."""


# ---------------------------------------------------------------- speed


class Calibration:
    """A fixed task timed between measurements to track the core's speed.

    It mixes, in roughly equal shares of its time, what a job spends
    its time on: page faults on fresh memory, streams and random reads
    through memory larger than the L2 cache, sorting and binary search, a
    vectorised transcendental, and interpreter work.  No one kind
    dominates, because each workload leans on a different one.  Its
    buffers are allocated once and its fresh memory comes straight from
    ``mmap``, so the heap the package leaves behind cannot change its
    time.
    """

    REPEATS = 3
    FRESH_FLOATS = 1 << 20  # 8 MB

    def __init__(self):
        rng = np.random.default_rng(0)
        self.data = rng.permutation(200_000).astype(float)
        self.grid = np.linspace(0.0, 200_000.0, 5_000)
        self.buf = np.empty_like(self.data)
        self.reads = rng.integers(0, self.FRESH_FLOATS, 200_000).astype(np.int32)
        self.gathered = np.empty(len(self.reads))

    def __call__(self) -> float:
        """Wall seconds of one calibration."""
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            with mmap.mmap(-1, self.FRESH_FLOATS * 8) as fresh:
                pages = np.frombuffer(fresh, dtype=float)
                pages[:] = 1.0
                pages.sum()
                pages.sum()
                np.take(pages, self.reads, out=self.gathered)
                del pages  # the mapping cannot close while a view exports it
            for _ in range(3):
                self.buf[:] = self.data
                self.buf.sort()
                np.searchsorted(self.buf, self.grid)
            for _ in range(4):
                np.multiply(self.data, -1e-5, out=self.buf)
                np.exp(self.buf, out=self.buf)
            acc = 0
            for i in range(60_000):
                acc += i * i
        return time.perf_counter() - t0


class Speed:
    """The core's speed, from a calibration run between measurements."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.last = calibrate()

    def scale(self) -> float:
        """Factor that turns the wall time since the previous call into
        seconds at the reference speed: ``CALIB_REF_S`` over the mean of
        the calibrations on either side of it."""
        now = self.calibrate()
        factor = CALIB_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


# ---------------------------------------------------------------- environment


def blas_threads_live() -> int:
    """Thread count of numpy's bundled OpenBLAS, read from the library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    if not found:
        raise RunRefused(f"no bundled OpenBLAS under {libs}, thread count unknown")
    fn = ctypes.CDLL(found[0]).scipy_openblas_get_num_threads64_
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    live = blas_threads_live()
    if live != BLAS_THREADS:
        raise RunRefused(f"live BLAS threads {live} != harness setting {BLAS_THREADS}")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_setting": BLAS_THREADS,
        "blas_threads_live": live,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------- set-up


def measure_imports(speed: Speed, importtime: bool):
    """Times of ``import partlin`` in fresh interpreters.

    Returns the wall times, the same speed-normalised, and, with
    ``importtime``, the median cumulative ``-X importtime`` seconds of
    the modules in IMPORT_MODULES (0 for a module the import no longer
    loads).
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    walls, norms, mods = [], [], {key: [] for key in IMPORT_MODULES.values()}
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            cmd + ["-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RunRefused(f"import partlin failed:\n{proc.stderr[-2000:]}")
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
        norms.append(walls[-1] * speed.scale())
        seen = {}
        for m in re.finditer(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", proc.stderr):
            seen.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        for mod, key in IMPORT_MODULES.items():
            mods[key].append(seen.get(mod, 0.0))
    return walls, norms, {k: statistics.median(v) for k, v in mods.items()}


# ---------------------------------------------------------------- jobs


def load_reference(workload: str) -> dict[str, str]:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[workload]


def run_job(cli, job: workloads.Job, speed: Speed | None = None) -> tuple[float, float]:
    """Run one job's command lines; raise if any exits non-zero.

    Returns the job's wall seconds and, with ``speed``, its normalised
    seconds.  Each command line is scaled by itself, so a two-command
    job is tracked at twice the rate.
    """
    wall = norm = 0.0
    for argv in job.argvs:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
        wall += elapsed
        norm += elapsed * (speed.scale() if speed else 1.0)
        if code != 0:
            raise RuntimeError(f"partlin {argv[0]} exited {code}")
    return wall, norm


def check_job(workload, job, first, reference) -> list[str]:
    """Problems with this job's outputs; ``first`` is the run's first output."""
    got = workloads.read_results(job)
    problems = [
        f"{rel} differs from the run's first job"
        for rel in got if first and got[rel] != first[rel]
    ]
    values = workloads.extract(workload, job)
    problems += workloads.check_invariants(workload, values)
    if reference is not None:
        problems += workloads.compare_reference(values, reference)
    return problems


class Jobs:
    """The workload's one job, run again and again and checked each time."""

    def __init__(self, workload: str, job: workloads.Job, seed: int):
        import partlin.cli as cli

        self.cli, self.workload, self.job = cli, workload, job
        self.reference = load_reference(workload) if seed == workloads.DEFAULT_SEED else None
        self.first: dict[str, bytes] = {}  # the first job's result files
        self.failures: list[str] = []
        self.attempted = 0

    def attempt(self, context=contextlib.nullcontext(), speed: Speed | None = None):
        """Run and check one job inside ``context``.

        Returns its wall and normalised seconds, or None if it raised;
        a job that fails is counted in ``failures``, not fatal.
        """
        i, job = self.attempted, self.job
        self.attempted += 1
        shutil.rmtree(job.out_dir, ignore_errors=True)
        elapsed = None
        try:
            with context:
                elapsed = run_job(self.cli, job, speed)
            problems = check_job(self.workload, job, self.first, self.reference)
            self.first = self.first or workloads.read_results(job)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"job {i}: " + "; ".join(problems))
        return elapsed


def run_loop(jobs: Jobs, seconds, speed, patch=None, memory_patch=None):
    """Closed loop: start jobs until ``seconds`` have passed.

    With ``patch`` every second job, the first included, runs traced.
    With ``memory_patch`` one more job follows, untimed, under
    tracemalloc, which slows what it watches by about a quarter.
    Returns, for each timed job that completed, its wall and normalised
    seconds and whether it was traced.
    """
    times, norms, traced = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        tracing = patch is not None and i % 2 == 0
        elapsed = jobs.attempt(patch.job(i) if tracing else contextlib.nullcontext(), speed)
        if elapsed is not None:
            times.append(elapsed[0])
            norms.append(elapsed[1])
            traced.append(tracing)
        i += 1
    if memory_patch is not None:
        jobs.attempt(memory_patch.job(i))
    return times, norms, traced


# ---------------------------------------------------------------- metrics


def end_to_end(setup, jobs, peak_rss_mb):
    """``setup`` and ``jobs`` are speed-normalised seconds."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(jobs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, memory, imports, times, traced):
    """Per-layer metrics, per traced job; 0 where a layer did no work.

    ``trace.overhead_s`` is the median traced job time minus the median
    untraced one, from the same run.
    """
    summary = spans.summarize(tracer)
    n = max(sum(traced), 1)

    def get(name, field):
        return summary[name][field] / n if name in summary else 0.0

    def rate(count, name):
        busy = get(name, "s")
        return tracer.counters[count] / n / busy if busy > 0 else 0.0

    m = {f"import.{key}.s": (val, "s") for key, val in imports.items()}
    m["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    m["dataset.load_csv.s"] = (get("dataset.load_csv", "s"), "s")
    m["dataset.load_csv.rows_per_s"] = (rate("dataset.rows", "dataset.load_csv"), "rows/s")
    m["dataset.validate.s"] = (get("dataset.validate", "s"), "s")
    m["bandwidth.cv_select.s"] = (get("bandwidth.cv_select", "s"), "s")
    m["bandwidth.cv_select.self_s"] = (get("bandwidth.cv_select", "self_s"), "s")
    m["bandwidth.cv_select.failed_h"] = (tracer.counters["bandwidth.failed_h"] / n, "count")
    for name in (
        "sls.truncated_theta", "sls.residuals", "sls.longrun_covariance",
        "sls.estimate_g", "sls.estimate_h",
        "kernel.truncation_mask", "kernel.smooth", "kernel.window_sums",
    ):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["sls.truncated_sls.self_s"] = (get("sls.truncated_sls", "self_s"), "s")
    fits = get("sls.truncated_sls", "calls")
    m["sls.cov_used_frac"] = (get("sls.asymptotic_ci", "calls") / fits if fits else 0.0, "ratio")
    for name in ("markov.simulate_random_walk", "markov.simulate_ar1", "markov.estimate_beta"):
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["rng.standard_normal.calls"] = (get("rng.standard_normal", "calls"), "count")
    m["rng.standard_normal.s"] = (get("rng.standard_normal", "s"), "s")
    m["rng.normals_per_s"] = (rate("rng.normals", "rng.standard_normal"), "1/s")
    m["montecarlo.simulate_replication.s"] = (get("montecarlo.simulate_replication", "s"), "s")
    m["montecarlo.resolve_kernel.s"] = (get("montecarlo.resolve_kernel", "s"), "s")
    m["montecarlo.run_theta_experiment.self_s"] = (get("montecarlo.run_theta_experiment", "self_s"), "s")
    m["montecarlo.run_g_experiment.self_s"] = (get("montecarlo.run_g_experiment", "self_s"), "s")
    m["unitroot.simulated_pvalue.s"] = (get("unitroot.simulated_pvalue", "s"), "s")
    m["unitroot.simulated_pvalue.self_s"] = (get("unitroot.simulated_pvalue", "self_s"), "s")
    m["unitroot.simulated_pvalue.peak_mb"] = (
        memory.peak_bytes["unitroot.simulated_pvalue"] / 2**20, "MB",
    )
    plain = statistics.median([t for t, tr in zip(times, traced) if not tr] or times)
    with_trace = statistics.median([t for t, tr in zip(times, traced) if tr] or times)
    m["trace.job_s.p50"] = (with_trace, "s")
    m["trace.untraced_job_s.p50"] = (plain, "s")
    m["trace.overhead_s"] = (with_trace - plain, "s")
    return m


def p90_line(times) -> str:
    """p90 only where at least ten samples lie above it."""
    k = int(np.ceil(0.9 * len(times)))
    if len(times) - k < 10:
        return f"job_s.p90: not defined, {len(times)} jobs leave {len(times) - k} above it (need 10)"
    return f"job_s.p90: {sorted(times)[k - 1]:.6f} s over {len(times)} jobs"


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(SRC, "partlin", "__init__.py")):
            raise RunRefused(f"no package source at {SRC}")
        env = environment()
        sys.path.insert(0, SRC)
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK_ROOT)
        try:
            job = workloads.make_inputs(args.workload, args.seed, work)
            import partlin

            if not os.path.abspath(partlin.__file__).startswith(SRC + os.sep):
                raise RunRefused(f"partlin imported from {partlin.__file__}, not {SRC}")
            jobs = Jobs(args.workload, job, args.seed)
            # The first job warms up: checked and counted, not timed.  Peak
            # RSS is read after it, so it is that of a process that ran one
            # job, as a CLI call does, and the calibration's buffers, made
            # next, do not count in it.
            jobs.attempt()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            speed = Speed(Calibration())
            setup_walls, setup_norms, imports = measure_imports(
                speed, importtime=bool(args.trace)
            )
            tracer, memory = spans.Tracer(), spans.Tracer(memory=True)
            patches = (spans.Patch(tracer), spans.Patch(memory)) if args.trace else ()
            times, norms, traced = run_loop(jobs, args.seconds, speed, *patches)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except RunRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    failures, attempted = jobs.failures, jobs.attempted
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, {len(failures)} failed, "
          f"fail_frac {len(failures) / attempted:.6g}")
    for msg in failures:
        print("failed " + msg)
    if not times:
        print("refused: no job completed", file=sys.stderr)
        return 3
    print("wall setup_s " + " ".join(f"{t:.4f}" for t in setup_walls))
    print("wall job_s " + " ".join(f"{t:.4f}" for t in times))
    print(f"wall job_s.p50: {statistics.median(times):.6f} s, normalised "
          f"{statistics.median(norms):.6f} s")
    if args.trace:
        path = os.path.join(WORK_ROOT, f"spans_{args.workload}_{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path}")
        metrics = per_layer(tracer, memory, imports, times, traced)
    else:
        print(p90_line(norms))
        metrics = end_to_end(setup_norms, norms, peak_rss_mb)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
