import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

CALLS = ("sweep_batch", "angular_moments", "closure_from_sweep",
         "sum_closures", "grey_xs", "solve_grey", "compute_zeta",
         "group_pass", "equation_residual", "si_step", "multilevel_step",
         "operators")


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
