"""Checks of the benchmark itself, apart from the solver's test suite:

    python3 -m pytest bench/test_bench.py

They take about a minute: the smoke runs solve every workload's cells.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from provenance import import_slabsm  # noqa: E402

slabsm = import_slabsm()

from reference import load_reference, mismatches  # noqa: E402
from tracer import DRIVER_HOOKS, SYSTEM_HOOKS, Tracer  # noqa: E402
from workloads import WORKLOADS, Cell  # noqa: E402

CHEAP = Cell("test1", "mlsm-aa1", 1, 2)


@pytest.fixture(scope="module")
def cheap_solve():
    report = slabsm.run_problem(slabsm.builtin_problem(CHEAP.problem),
                                CHEAP.config(slabsm))
    ref = load_reference()["cells"][CHEAP.key]
    # pin this cell's history too, so the history check is exercised
    ref["residual_history"] = list(report.residual_history)
    return ref, report


def test_reference_covers_every_cell():
    cells = load_reference()["cells"]
    for wl in WORKLOADS.values():
        for cell in wl.cells:
            assert cell.key in cells


def test_unperturbed_reference_passes(cheap_solve):
    ref, report = cheap_solve
    assert mismatches(ref, report) == []


def _scale_max_flux(ref, factor):
    rows = ref["grey_phi"]
    i = max(range(len(rows)), key=lambda i: abs(rows[i][0]))
    rows[i][0] *= factor


@pytest.mark.parametrize("perturb", [
    lambda r: r.update(N_t=r["N_t"] + 1),
    lambda r: r.update(M_lo=r["M_lo"] + 1),
    lambda r: r.update(status="max_outer"),
    lambda r: r.update(rho_num=r["rho_num"] * (1 + 2e-3)),
    lambda r: r.update(rho_num=None),
    lambda r: _scale_max_flux(r, 1 + 1e-10),
    lambda r: r["residual_history"].__setitem__(
        -1, r["residual_history"][-1] + 1e-9),
    lambda r: r["residual_history"].pop(),
], ids=["N_t", "M_lo", "status", "rho", "rho-none", "flux", "history",
        "history-length"])
def test_perturbed_reference_is_a_failure(cheap_solve, perturb):
    ref, report = cheap_solve
    bad = copy.deepcopy(ref)
    perturb(bad)
    assert mismatches(bad, report)


def test_tracer_restores_hooks_and_reports_missing_names_as_absent():
    driver = slabsm.driver
    before = {attr: getattr(driver, attr) for _, attr in DRIVER_HOOKS}
    init = vars(driver.LowOrderSystem)["__init__"]
    with Tracer(driver):
        assert driver.sweep_batch is not before["sweep_batch"]
    assert {attr: getattr(driver, attr) for _, attr in DRIVER_HOOKS} == before
    assert vars(driver.LowOrderSystem)["__init__"] is init

    tracer = Tracer(SimpleNamespace())     # a driver that binds nothing
    with tracer:
        tracer.wrap("driver", lambda: None)()
        tracer.end_solve(SimpleNamespace(), 1.0)
    metrics = tracer.summary([1.0], [1.0])
    for name, _ in DRIVER_HOOKS + SYSTEM_HOOKS:
        assert name in tracer.absent
        assert f"{name}.self_s" not in metrics
    assert "losm.group_passes" not in metrics
    assert metrics["trace.coverage"]["value"] == 0.0


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "7",
                      "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(WORKLOADS[workload].cells)
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in metrics.items()}
    if not trace:
        return
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["trace.coverage"] >= 0.95
    sweep_only = workload == "si-test2"
    assert (value["losm.share"] == 0) == sweep_only
    assert (value["losm.solve_grey.calls"] == 0) == sweep_only
    assert (value["accel.aa1_alpha.calls"] == 0) == sweep_only


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "si-test2", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
