"""Static checks on the package source, with the stdlib ``ast`` module."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import build_dataset
from partlin import write_csv

SRC = Path(__file__).resolve().parents[1] / "src" / "partlin"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    # an attribute chain such as np.linalg.solve starts with a Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_import_scan_finds_one():
    source = "import os\nfrom math import log, sqrt\nprint(os.sep, sqrt(2))\n"
    assert unused_imports(source) == ["log"]


def test_no_unused_imports():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        # the package's __init__ imports names to publish them
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert found == []


# (attribute, owner) pairs that write or read CSV
_CSV_CALLS = {
    ("writer", "csv"): "csv.writer",
    ("reader", "csv"): "csv.reader",
    ("loadtxt", "np"): "np.loadtxt",
    ("loadtxt", "numpy"): "np.loadtxt",
    ("genfromtxt", "np"): "np.genfromtxt",
    ("genfromtxt", "numpy"): "np.genfromtxt",
}


def csv_dialect_uses(source: str) -> list[str]:
    """Places that write or read CSV by hand: the ``%.17g`` format
    outside a docstring, a literal ``","`` join, ``csv.writer``,
    ``csv.reader``, ``np.loadtxt`` and ``np.genfromtxt``, imported by
    module or by name."""
    tree = ast.parse(source)
    docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "%.17g" in node.value
            and id(node) not in docstrings
        ):
            found.append("%.17g")
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", getattr(node.value, "value", None))
            if (node.attr, owner) == ("join", ","):
                found.append('",".join')
            elif (node.attr, owner) in _CSV_CALLS:
                found.append(_CSV_CALLS[node.attr, owner])
        elif isinstance(node, ast.ImportFrom):
            found += [
                _CSV_CALLS[a.name, node.module]
                for a in node.names
                if (a.name, node.module) in _CSV_CALLS
            ]
    return found


def test_csv_dialect_scan_finds_each():
    source = (
        '"""Docstrings may name %.17g."""\n'
        "import csv\n"
        "import numpy\n"
        "import numpy as np\n"
        "from csv import reader, writer\n"
        "from numpy import genfromtxt, loadtxt\n"
        "w = csv.writer(fh)\n"
        "r = csv.reader(fh)\n"
        "a = np.loadtxt(fh) + numpy.genfromtxt(fh)\n"
        'row = ",".join(["%.17g" % 1.0, f"{2}"])\n'
        'words = ", ".join(["a", "b"])\n'
        "rows = np.load(fh)\n"
    )
    assert sorted(csv_dialect_uses(source)) == [
        '",".join', "%.17g", "csv.reader", "csv.reader", "csv.writer",
        "csv.writer", "np.genfromtxt", "np.genfromtxt", "np.loadtxt",
        "np.loadtxt",
    ]


def test_only_dataset_formats_csv():
    """dataset.csv_text owns the one CSV dialect the package writes and
    dataset.read_columns the one reader."""
    found = [
        f"{path.name}: {use}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dataset.py"
        for use in csv_dialect_uses(path.read_text())
    ]
    assert found == []


_NO_VISITS = "never enters the small set"


def shared_decisions(source: str) -> list[str]:
    """The shared decisions a source file makes itself: each
    ``.contains(`` call (the small set test), ``resolve_kernel(`` call
    (a Monte Carlo cell's kernel), ``default_density_floor(`` call (the
    default truncation) and ``.split(`` call (a list split by hand), and
    each string outside a docstring that holds the no-visit message."""
    tree = ast.parse(source)
    docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            attr = isinstance(node.func, ast.Attribute)
            name = node.func.attr if attr else getattr(node.func, "id", None)
            # by name or through its module
            if name in ("resolve_kernel", "default_density_floor"):
                found.append(f"{name}(")
            elif attr and name in ("contains", "split"):
                found.append(f".{name}(")
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _NO_VISITS in node.value
            and id(node) not in docstrings
        ):
            found.append("no-visit message")
    return found


def test_shared_decision_scan_finds_each():
    source = (
        '"""A docstring may say the path never enters the small set."""\n'
        "inside = small_set.contains(v)\n"
        "hit = contains(v)\n"
        "spec = resolve_kernel(cfg) or montecarlo.resolve_kernel(cfg)\n"
        "bn = bn or kernel.default_density_floor(n)\n"
        'items = text.split(",") + split_fields(text)\n'
        'raise NoVisitsError("the path never enters the small set")\n'
    )
    assert sorted(shared_decisions(source)) == [
        ".contains(", ".split(", "default_density_floor(", "no-visit message",
        "resolve_kernel(", "resolve_kernel(",
    ]


@pytest.mark.parametrize(
    "use, owners, times",
    [
        # visits are counted by markov.count_small_set_visits
        (".contains(", {"markov.py"}, None),
        # markov.NO_VISITS
        ("no-visit message", {"markov.py"}, 1),
        # a cell's kernel is resolved once, by montecarlo._run_all
        ("resolve_kernel(", {"montecarlo.py"}, None),
        # lists are split by dataset.split_fields
        (".split(", set(), None),
        # a missing density floor is filled by kernel.truncation_spec
        ("default_density_floor(", {"kernel.py"}, 1),
    ],
    ids=["contains", "no_visits", "resolve_kernel", "split", "density_floor"],
)
def test_each_shared_decision_has_one_owner(use, owners, times):
    """Each decision the package shares is made in the module that owns
    it (``times`` is how often, None for as often as the owner needs)."""
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for u in shared_decisions(path.read_text())
        if u == use
    ]
    assert set(found) <= owners
    assert times is None or len(found) == times


def _loaded_after(code: str) -> list[str]:
    """Each line the snippet ``code`` prints, run in a fresh interpreter
    that imports the package from ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_import_leaves_scipy_signal_and_stats_unloaded(tmp_path):
    """They take longer to import than the package, and neither is
    loaded by importing it or by ``partlin simulate`` and ``partlin mc``."""
    config = tmp_path / "cell.cfg"
    config.write_text("experiment = g\nn = 60\ndgp = H_identity\nreps = 3\n"
                      "master_seed = 1\n")
    code = (
        "import sys, partlin; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules)); "
        "from partlin.cli import main; "
        f"main(['simulate', '--n', '50', '--out', {str(tmp_path / 'sim.csv')!r}]); "
        f"main(['mc', '--config', {str(config)!r}, '--out', {str(tmp_path / 'mc')!r}]); "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    lines = _loaded_after(code)
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
    assert (tmp_path / "mc" / "table.csv").exists()


def test_import_estimate_and_bandwidth_leave_scipy_special_unloaded(tmp_path):
    """``import partlin`` loads no scipy module and no process pool, and
    ``partlin estimate`` and ``partlin bandwidth``, which draw nothing,
    never load ``scipy.special``: it costs more than the package."""
    data = tmp_path / "ds.csv"
    write_csv(str(data), build_dataset(seed=3, n=120))
    code = (
        "import sys, partlin; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures.process')); "
        "from partlin.cli import main; "
        f"main(['estimate', '--data', {str(data)!r}, '--cv', "
        f"'--out', {str(tmp_path / 'fit')!r}]); "
        f"main(['bandwidth', '--data', {str(data)!r}, "
        f"'--out', {str(tmp_path / 'bw')!r}]); "
        "print('scipy.special' in sys.modules)"
    )
    lines = _loaded_after(code)
    assert lines[0] == "[]"
    assert lines[-1] == "False"
    assert (tmp_path / "fit" / "fit_report.csv").exists()
    assert (tmp_path / "bw" / "cv.csv").exists()


def module_level_imports(source: str) -> list[str]:
    """Modules a source file imports when it is itself imported: every
    import outside a function body (class bodies run at import)."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
        pending += ast.iter_child_nodes(node)
    return sorted(found)


def test_module_level_import_scan_skips_function_bodies():
    source = (
        "import numpy as np\n"
        "from scipy.special import ndtri\n"
        "from . import errors\n"
        "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy import linalg\n"
        "def f():\n    from scipy import signal\n"
        "    def g():\n        import scipy.optimize\n"
    )
    assert module_level_imports(source) == [
        "numpy", "scipy", "scipy.special", "scipy.stats",
    ]


def test_no_module_level_scipy_imports():
    """scipy modules load inside the functions that use them; the one
    exception is ``cli``'s bare ``import scipy``, which only gives the
    version line of ``resolved_config.txt`` and loads no submodule."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in module_level_imports(path.read_text())
        if name.split(".")[0] == "scipy"
    ]
    assert found == ["cli.py: scipy"]


def _traced_names() -> dict:
    """``TRACED`` of the benchmark's tracer, loaded from its file."""
    path = SRC.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_benchmark_traces_functions_that_exist():
    """The benchmark's ``--trace 1`` wraps each (module, name) of its
    ``TRACED`` table by ``getattr``, so each must stay a function of
    the package."""
    missing = [
        f"{module}.{name}"
        for module, name in _traced_names()
        if not inspect.isfunction(
            getattr(importlib.import_module(f"partlin.{module}"), name, None)
        )
    ]
    assert missing == []
