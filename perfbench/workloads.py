"""Workload definitions for the end-to-end pipeline benchmark.

Plain data only (no ``repro`` import), so the orchestrating parent
process stays free of the program under test.  Every workload is a list
of rows ``(kernel, technique, style, scale, input_seed)`` derived from
the benchmark seed, plus the lane count ``run_sweep`` gets.

The kernel list is frozen here rather than read from the program, so
the workload stays the same when the program grows a kernel.

Input seeds come from finite pools so that every row of every run has a
recorded reference (``reference.json``):

* table workloads use one input seed per run, ``seed mod 64``; the
  default seed 7 is the seed the golden files were generated with;
* ``seeded-lanes`` uses 16 input seeds per run,
  ``100 + ((seed - 7) * 16 + i) mod 256`` for ``i`` in ``0..15``, so the
  default seed 7 gives 100..115 and consecutive seeds give disjoint sets.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

DEFAULT_SEED = 7

KERNELS: Tuple[str, ...] = (
    "atax", "bicg", "gsum", "gsumif", "2mm", "3mm", "symm", "gemm",
    "gesummv", "mvt", "syr2k", "histogram", "spmv", "pointer_chase",
)
TECHNIQUES: Tuple[str, ...] = ("naive", "inorder", "crush")

TABLE_POOL = 64
LANE_BASE = 100
LANE_POOL = 256
LANE_SEEDS_PER_RUN = 16
LANE_KERNELS: Tuple[str, ...] = ("gemm", "symm", "bicg", "gsumif", "spmv")
LANES = 8


class Row(NamedTuple):
    kernel: str
    technique: str
    style: str
    scale: str
    seed: int

    def key(self) -> str:
        """Reference key: everything but the input seed."""
        return f"{self.kernel}/{self.technique}/{self.style}/{self.scale}"


class Workload(NamedTuple):
    rows: List[Row]
    lanes: Optional[int]


def table_seed(seed: int) -> int:
    return seed % TABLE_POOL


def lane_seeds(seed: int) -> List[int]:
    start = (seed - DEFAULT_SEED) * LANE_SEEDS_PER_RUN
    return [
        LANE_BASE + (start + i) % LANE_POOL
        for i in range(LANE_SEEDS_PER_RUN)
    ]


def _matrix(kernels, techniques, style, scale, seeds) -> List[Row]:
    # Same order as repro.sweep.build_matrix: kernel, technique, style, seed.
    return [
        Row(k, t, style, scale, s)
        for k in kernels for t in techniques for s in seeds
    ]


def paper_tables(seed: int) -> Workload:
    rows = _matrix(KERNELS, TECHNIQUES, "bb", "paper", [table_seed(seed)])
    return Workload(rows, None)


def compile_small(seed: int) -> Workload:
    s = [table_seed(seed)]
    rows = (_matrix(KERNELS, TECHNIQUES, "bb", "small", s)
            + _matrix(KERNELS, ("naive", "crush"), "fast-token", "small", s))
    return Workload(rows, None)


def seeded_lanes(seed: int) -> Workload:
    rows = _matrix(LANE_KERNELS, ("crush",), "bb", "paper", lane_seeds(seed))
    return Workload(rows, LANES)


WORKLOADS = {
    "paper-tables": paper_tables,
    "compile-small": compile_small,
    "seeded-lanes": seeded_lanes,
}


def reference_plan() -> Dict[str, List[int]]:
    """Every row key any workload can produce, with its input-seed pool."""
    plan: Dict[str, set] = {}
    table_pool = range(TABLE_POOL)
    lane_pool = range(LANE_BASE, LANE_BASE + LANE_POOL)
    for build, pool in ((paper_tables, table_pool),
                        (compile_small, table_pool),
                        (seeded_lanes, lane_pool)):
        for row in build(DEFAULT_SEED).rows:
            plan.setdefault(row.key(), set()).update(pool)
    return {k: sorted(v) for k, v in plan.items()}
