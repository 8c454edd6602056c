import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np

import slabsm

ROOT = pathlib.Path(__file__).resolve().parents[1]

CALLS = ("sweep_batch", "march", "angular_moments", "closure_from_sweep",
         "sum_closures", "grey_xs", "avg_scattering_xs", "solve_grey",
         "build_ho_rhs", "compute_zeta", "group_pass", "equation_residual",
         "si_step", "multilevel_step", "operators")


def test_time_sweep_prints_every_row():
    # the per-call timing tool, run on this tree against itself with one
    # call each: it prints the import row, every call on test1 and test2
    # and the nonuniform-mesh sweep, each with two times and a change, so
    # an API change that breaks the tool fails here
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_sweep.py"),
         str(ROOT / "src"), "--calls", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines()[2:]:
        name, problem, this, other, change = line.split()
        float(this), float(other), float(change.rstrip("%"))
        rows[name, problem] = line
    expected = {("import", "-"), ("sweep_batch", "test1-nu")}
    expected |= {(name, p) for name in CALLS for p in ("test1", "test2")}
    assert set(rows) == expected
    assert len(proc.stdout.splitlines()) == 2 + len(expected)


def test_compare_runs_records_and_compares_a_run(monkeypatch):
    # the bitwise gate's tool, imported and run on one small cell: the
    # record holds every field of the state's closures, grey closure and
    # grey coefficients, equals itself and a rerun, and names a field
    # whose sign bits change
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "tools" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("_compare_runs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cell = tool.Cell("one-group", "mlsm-aa1", 2, 2)
    rec = tool.run(slabsm, cell)
    assert tool.differences(rec, rec) == []
    assert tool.differences(rec, tool.run(slabsm, cell)) == []
    for struct in tool.STRUCTS:
        fields = [name for name in rec if name.startswith(f"{struct}.")]
        assert fields, struct
        assert all(isinstance(rec[name], np.ndarray) for name in fields)
    flipped = dict(rec, grey_phi=-rec["grey_phi"])
    assert tool.differences(rec, flipped) == ["grey_phi"]
