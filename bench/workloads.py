"""The benchmark's workloads: which table cells run, and why.

A workload is a fixed list of solver runs ("cells") on one built-in
problem.  One pass runs every cell once; the workload seed only permutes
the cell order within each pass, since the solver itself has no
randomness.  Every cell is checked against the reference results in
reference.json.

The layer shares quoted with each workload come from one 30 s traced run
(seed 21) on a 2-core x86-64 container shared with other jobs, Python
3.11, numpy 2.4, scipy 1.17, BLAS pinned to one thread.  SPREAD below
records the steadiness of the end-to-end metrics on the same machine.
"""

from __future__ import annotations

from typing import NamedTuple


class Cell(NamedTuple):
    """One solver run: a built-in problem and an iteration configuration."""

    problem: str
    method: str
    k_max: int = 1
    s_max: int = 1
    max_outer: int = 1000

    @property
    def key(self) -> str:
        return (f"{self.problem} {self.method}({self.k_max},{self.s_max}) "
                f"max_outer={self.max_outer}")

    def config(self, slabsm):
        return slabsm.IterationConfig(method=self.method, k_max=self.k_max,
                                      s_max=self.s_max,
                                      max_outer=self.max_outer)


class Workload(NamedTuple):
    problem: str
    cells: tuple
    why: str


WORKLOADS = {
    # Mixed case.  Sweep 42% of solve time, grey solve 35%, and the ten
    # group factorizations in LowOrderSystem.__init__ 16%: each cell
    # rebuilds them and needs few outers, so set-up weighs most here.
    # Trace coverage 0.979.
    "tables-test1": Workload(
        problem="test1",
        cells=tuple(Cell("test1", m, k, s) for m, k, s in (
            ("mlsm", 1, 1), ("mlsm", 1, 2), ("mlsm", 2, 1),
            ("mlsm-aa1", 1, 1), ("mlsm-aa1", 1, 2))),
        why="Table 2 cells on test1 (G=10): sweep, grey solve and group "
            "factorizations all weigh; the factorizations weigh most here"),
    # Low-order-heavy case.  M_lo reaches 10, the grey solve is 45% of
    # solve time and losm as a whole 60%; sweep 38%.  The most AA(1)
    # traffic (132 aa1_alpha calls a pass against 46 on tables-test1).
    # Trace coverage 0.982.
    "tables-test2": Workload(
        problem="test2",
        cells=tuple(Cell("test2", m, k, s) for m, k, s in (
            ("mlsm", 1, 1), ("mlsm", 1, 4), ("mlsm", 2, 4), ("mlsm", 5, 1),
            ("mlsm-aa1", 1, 2), ("mlsm-aa1", 2, 2), ("mlsm-aa1", 1, 1))),
        why="Tables 4-5 cells on test2 (G=7): low-order heavy, M_lo up to "
            "10, and the only workload with real AA(1) traffic"),
    # Sweep-only case: 98.5% of solve time is the sweep and losm and accel
    # do nothing, so a low-order optimisation must show no change here and
    # a sweep optimisation shows its full effect.  Trace coverage 0.985.
    "si-test2": Workload(
        problem="test2",
        cells=(Cell("test2", "si", max_outer=200),),
        why="200 source iterations on test2 (status max_outer): sweep only, "
            "so low-order changes must show no effect here"),
}

# Steadiness: the distance between the first and third quartile of each
# end-to-end metric over ten 30 s runs (seeds 11-20), as a share of the
# median, followed by that median.  Single passes varied far more (raw
# pass times of 4.1-6.9 s on tables-test2 within minutes, CPU time equal
# to wall time): the machine's speed swings, which speed.py compensates
# for in solve times.  setup_s is wall time and spreads the most.
SPREAD = {
    "tables-test1": {"table_s.p50": (0.036, 2.679),
                     "outers_per_s": (0.046, 26.98),
                     "setup_s": (0.134, 0.498),
                     "peak_rss_mb": (0.067, 79.4)},
    "tables-test2": {"table_s.p50": (0.042, 5.469),
                     "outers_per_s": (0.034, 26.35),
                     "setup_s": (0.159, 0.531),
                     "peak_rss_mb": (0.042, 70.3)},
    "si-test2": {"table_s.p50": (0.064, 2.540),
                 "outers_per_s": (0.082, 76.53),
                 "setup_s": (0.048, 0.521),
                 "peak_rss_mb": (0.002, 62.7)},
}
