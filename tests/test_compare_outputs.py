"""The file comparison of ``scripts/compare_outputs.py``."""

import importlib.util
import math
from pathlib import Path

from partlin.cli import parse_kv_file
from partlin.rng import block_rows

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _tree(top: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (top / name).parent.mkdir(parents=True, exist_ok=True)
        (top / name).write_bytes(data)
    return top


FILES = {
    "fit/fit_report.csv": b"theta,1.5\n", "fit/cv.csv": b"h,crit\n", "table.csv": b"1\n"
}


def test_identical_trees_have_no_difference(tmp_path):
    parent = _tree(tmp_path / "parent", FILES)
    change = _tree(tmp_path / "change", FILES)
    assert compare_outputs.compare(str(parent), str(change)) == []


def test_a_file_that_differs_by_one_byte_is_named(tmp_path):
    parent = _tree(tmp_path / "parent", FILES)
    change = _tree(tmp_path / "change", {**FILES, "fit/cv.csv": b"h,crit \n"})
    assert compare_outputs.compare(str(parent), str(change)) == ["differs: fit/cv.csv"]


def test_a_file_on_one_side_only_is_named_as_missing(tmp_path):
    parent = _tree(tmp_path / "parent", FILES)
    extra = {**FILES, "fit/FAILED.txt": b"run failed\n"}
    del extra["table.csv"]
    change = _tree(tmp_path / "change", extra)
    assert compare_outputs.compare(str(parent), str(change)) == [
        "missing in parent: fit/FAILED.txt",
        "missing in change: table.csv",
    ]


def test_every_command_writes_under_out_of_its_own_directory():
    """Each tree runs the same commands from a directory of its own, so
    the paths a run records in its outputs are the same on both sides."""
    inputs = {n: f"/d/{n}.csv" for n in (300, 1200, 20000, 70000)}
    cmds = compare_outputs.commands(inputs, ["/d/t1.cfg"])
    outs = [argv[argv.index("--out") + 1] for argv in cmds]
    assert all(out.startswith("out/") for out in outs)
    assert len(set(outs)) == len(outs) == 4 * 2 * 2 + 2 + 1 + 2 + 2


def test_the_extra_inputs_are_fitted_by_estimate_alone():
    """The refused copy and the two regressor walk each add one
    ``estimate --cv`` per family, the latter on both regressors."""
    inputs = {300: "/d/300.csv", 1200: "/d/1200.csv"}
    plain = compare_outputs.commands(inputs, ["/d/t1.cfg"])
    cmds = compare_outputs.commands(inputs, ["/d/t1.cfg"], "/d/bad.csv", "/d/two.csv")
    extra = [argv for argv in cmds if argv not in plain]
    assert [argv[2] for argv in extra] == ["/d/bad.csv"] * 2 + ["/d/two.csv"] * 2
    assert all(argv[0] == "estimate" and "--cv" in argv for argv in extra)
    assert [argv[argv.index("--family") + 1] for argv in extra] == [
        *compare_outputs.FAMILIES, *compare_outputs.FAMILIES
    ]
    two = [argv for argv in extra if "/d/two.csv" in argv]
    assert all(argv[argv.index("--x-cols") + 1] == "x1,x2" for argv in two)


def test_mc_runs_span_three_blocks_at_n_1200():
    assert compare_outputs.MC_REPS > 2 * block_rows(1200)


def test_loop_config_runs_one_block_with_rho_not_a_power_of_two(tmp_path):
    """The copied config's last n and eps_rho win: one block of MC_REPS
    replications at n = 200, whose AR(1) errors loop over time."""
    source = tmp_path / "table1.cfg"
    source.write_text("experiment = theta\nn = 200, 700\neps_rho = 0.5\n")
    copy = compare_outputs.write_loop_config(str(tmp_path), str(source))
    values = parse_kv_file(copy)
    assert (values["n"], values["eps_rho"]) == ("200", "0.6")
    assert not math.log2(float(values["eps_rho"])).is_integer()
    assert block_rows(200) >= compare_outputs.MC_REPS


def test_unitroot_at_the_largest_size_runs_larger_blocks():
    """At n = 20000 the default 2000 null walks run 13 a block, against
    the 3 of ``block_rows(n)``, so block layouts are compared at large n."""
    n = max(compare_outputs.UNITROOT_SIZES)
    assert (block_rows(n, 2000), block_rows(n)) == (13, 3)
