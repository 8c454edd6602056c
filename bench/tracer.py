"""Per-layer spans around the solver, recorded from outside it.

For the length of a traced pass the tracer replaces the names that
slabsm.driver binds for each layer entry point, and the LowOrderSystem
methods, with wrappers that record a span: name, start, end, parent span
and the pass and solve it belongs to (spans of one solve share the solve
id).  Spans are kept in memory and written out when the run ends.

A layer's self time is the time of its spans minus the part their child
spans cover, scaled to reference seconds by the speed factor of its
solve (speed.py).  The driver layer is the benchmark's span around
run_problem, so its self time is the orchestration left over, and the
coverage is the share of traced solve time that the entry-point spans of
the other layers account for.  A hooked name the solver no longer has is
reported as absent, not as zero, and the plain run never touches these
hooks.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

# (layer.function, name bound in slabsm.driver)
DRIVER_HOOKS = (
    ("angular.build_double_gauss", "build_double_gauss"),
    ("sweep.sweep_batch", "sweep_batch"),
    ("sweep.angular_moments", "angular_moments"),
    ("sweep.closure_from_sweep", "closure_from_sweep"),
    ("sweep.build_ho_rhs", "build_ho_rhs"),
    ("losm.grey_xs", "grey_xs"),
    ("losm.compute_zeta", "compute_zeta"),
    ("losm.avg_scattering_xs", "avg_scattering_xs"),
    ("losm.sum_closures", "sum_closures"),
    ("accel.aa1_alpha", "aa1_alpha"),
)
# (layer.function, method of the LowOrderSystem class the driver binds)
SYSTEM_HOOKS = (
    ("losm.setup", "__init__"),
    ("losm.group_pass", "group_pass"),
    ("losm.equation_residual", "equation_residual"),
    ("losm.solve_grey", "solve_grey"),
)
DRIVER_SPAN = "driver"
LAYERS = ("angular", "sweep", "losm", "accel", "driver")
# counts read from RunReport and the LowOrderSystem counters
COUNTS = ("driver.outers", "driver.lo_solves", "losm.group_passes",
          "losm.grey_solves", "accel.fallbacks")
SYSTEM_COUNTERS = (("losm.group_passes", "n_group_passes"),
                   ("losm.grey_solves", "n_grey_solves"))
SWEEP_UPDATES = "sweep.cell_dir_updates"
SWEEP_RATE = "sweep.cell_dir_updates_per_s"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _ in DRIVER_HOOKS + SYSTEM_HOOKS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["driver.self_s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    # computed, not counted: G*M*N per sweep_batch call, taken from the
    # shape of its output, over the call's self time
    units[SWEEP_RATE] = "1/s"
    units.update({f"{layer}.share": "ratio" for layer in LAYERS})
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 for none
    pass_no: int
    solve: int


class Tracer:
    """Installs the hooks for one traced pass at a time (`with tracer:`)
    and accumulates spans and counts over all of them."""

    def __init__(self, driver):
        self.driver = driver
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.pass_no = -1
        self.solve = -1
        self.absent: set = set()
        self.counts = defaultdict(Counter)      # pass_no -> name -> total
        self.scale: dict = {}                   # solve -> reference s / s
        self._systems: list = []                # LowOrderSystems of a solve
        self._after = {
            "losm.setup": lambda args, _: self._systems.append(args[0]),
            # psi is (G, M, N, 2): one update per group, direction and cell
            "sweep.sweep_batch":
                lambda _, psi: self._add(SWEEP_UPDATES, psi.size // 2),
        }

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end,
                                  stack[-1] if stack else -1,
                                  self.pass_no, self.solve)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, name, attr):
        if owner is None or not hasattr(owner, attr):
            self.absent.add(name)
            return
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def __enter__(self):
        self.pass_no += 1
        for name, attr in DRIVER_HOOKS:
            self._patch(self.driver, name, attr)
        system = getattr(self.driver, "LowOrderSystem", None)
        for name, attr in SYSTEM_HOOKS:
            self._patch(system, name, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _add(self, name, value):
        if value is None:
            self.absent.add(name)
        else:
            self.counts[self.pass_no][name] += value

    def end_solve(self, report, scale: float):
        """Take the solve's counts from its report and its LowOrderSystem,
        and the factor from its wall seconds to reference seconds."""
        self.scale[self.solve] = scale
        self._add("driver.outers", getattr(report, "N_t", None))
        lo = getattr(report, "lo_solve_counts", None)
        self._add("driver.lo_solves", None if lo is None else sum(lo))
        self._add("accel.fallbacks", getattr(report, "aa_fallbacks", None))
        for name, attr in SYSTEM_COUNTERS:
            if "losm.setup" in self.absent or not all(
                    hasattr(s, attr) for s in self._systems):
                self.absent.add(name)
            else:
                self._add(name, sum(getattr(s, attr) for s in self._systems))
        self._systems.clear()

    def self_times(self) -> list:
        """Self time of every span, in reference seconds."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        return [(sp.end - sp.start - c) * self.scale.get(sp.solve, 1.0)
                for sp, c in zip(self.spans, child)]

    def summary(self, traced_times: list, plain_times: list) -> dict:
        """Per-layer metrics over the traced passes: self time and calls
        per pass (median over passes), counts per pass, layer shares of
        traced solve time, coverage and tracing overhead."""
        n = len(traced_times)
        self_s = defaultdict(lambda: [0.0] * n)
        calls = defaultdict(lambda: [0] * n)
        for sp, st in zip(self.spans, self.self_times()):
            self_s[sp.name][sp.pass_no] += st
            calls[sp.name][sp.pass_no] += 1

        units = metric_units()
        values = {}
        for name, _ in DRIVER_HOOKS + SYSTEM_HOOKS:
            if name not in self.absent:
                values[f"{name}.self_s"] = statistics.median(self_s[name])
                values[f"{name}.calls"] = statistics.median(calls[name])
        values["driver.self_s"] = statistics.median(self_s[DRIVER_SPAN])
        for name in COUNTS:
            if name not in self.absent:
                values[name] = statistics.median(
                    self.counts[p][name] for p in range(n))
        if "sweep.sweep_batch" not in self.absent:
            busy = sum(self_s["sweep.sweep_batch"])
            updates = sum(self.counts[p][SWEEP_UPDATES] for p in range(n))
            values[SWEEP_RATE] = updates / busy if busy > 0 else 0.0
        total = sum(traced_times)
        for layer in LAYERS:
            values[f"{layer}.share"] = sum(
                sum(v) for k, v in self_s.items()
                if k.split(".")[0] == layer) / total
        values["trace.coverage"] = sum(
            sum(v) for k, v in self_s.items() if k != DRIVER_SPAN) / total
        values["trace.overhead"] = (statistics.median(traced_times)
                                    / statistics.median(plain_times) - 1.0)
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp._asdict()) + "\n")
