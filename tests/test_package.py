"""Static checks on the package source, with the stdlib ``ast`` module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def csv_dialect_uses(source: str) -> list[str]:
    """Places that format CSV by hand: the ``%.17g`` format outside a
    docstring, ``csv.writer`` and a literal ``","`` join."""
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
            if (node.attr, owner) == ("writer", "csv"):
                found.append("csv.writer")
            elif (node.attr, owner) == ("join", ","):
                found.append('",".join')
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += ["csv.writer" for a in node.names if a.name == "writer"]
    return found


def test_csv_dialect_scan_finds_each():
    source = (
        '"""Docstrings may name %.17g."""\n'
        "import csv\n"
        "from csv import writer\n"
        "w = csv.writer(fh)\n"
        'row = ",".join(["%.17g" % 1.0, f"{2}"])\n'
        'words = ", ".join(["a", "b"])\n'
    )
    assert sorted(csv_dialect_uses(source)) == [
        '",".join', "%.17g", "csv.writer", "csv.writer"
    ]


def test_only_dataset_formats_csv():
    """dataset.csv_text owns the one CSV dialect the package writes."""
    found = [
        f"{path.name}: {use}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dataset.py"
        for use in csv_dialect_uses(path.read_text())
    ]
    assert found == []


def test_import_leaves_scipy_signal_and_stats_unloaded():
    """They take longer to import than the package; only the functions
    that use them load them."""
    code = (
        "import sys, partlin; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
