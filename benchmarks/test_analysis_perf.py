"""Static-pipeline timing benchmark: every Table 2 row without simulation.

Times ``run_technique(..., simulate=False)`` — lowering, buffer placement,
the sharing pass, lint, token-flow and memory-dependence analysis and the
resource estimate, i.e. everything in a row except the simulator — for
all 42 paper-scale (kernel, technique) rows of Table 2, in one process.
Each row runs ``REPEATS`` times and its minimum wall time is recorded
(with the last run's ``opt_time_s``, the sharing and buffer passes alone);
the artifact's ``total_s`` is the sum of those minima.  These are the
layers whose cost is dominated by the max-cycle-ratio solver
(:mod:`repro.analysis.throughput`): ``cfc.ii()`` for buffers and CRUSH
occupancy, In-order's per-candidate II re-check, token-flow and lint.

Results land in ``BENCH_analysis.json`` at the repo root, in two blocks:

* ``current`` — rewritten by every run of this file;
* ``baseline`` — carried over unchanged from the committed artifact: the
  same measurement taken on the commit before the solver ran on exact
  integers (``b65ecba``, queue-based Bellman-Ford on ``Fraction``
  distances), by running this file in a checkout of that commit.

``speedup_total`` compares the two totals only when both blocks were
measured on the same host (equal ``host`` records); it is ``null``
otherwise.  Nothing here is a gate: CI runs the file as a non-gating step
and uploads the artifact.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time

import pytest

from repro.frontend.kernels import KERNEL_NAMES
from repro.pipeline import TECHNIQUES, run_technique

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = os.path.join(REPO_ROOT, "BENCH_analysis.json")
SCALE = "paper"
REPEATS = 3


def _host() -> dict:
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


@pytest.fixture(scope="module")
def measurement():
    rows = {}
    for kernel in KERNEL_NAMES:
        for technique in TECHNIQUES:
            best = float("inf")
            for _ in range(REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                row = run_technique(kernel, technique, scale=SCALE,
                                    simulate=False)
                best = min(best, time.perf_counter() - t0)
            rows[f"{kernel}/{technique}"] = {
                "wall_s": round(best, 4),
                "opt_time_s": row.opt_time_s,
                "dsp": row.dsp,
            }
    return {
        "host": _host(),
        "rows": rows,
        "total_s": round(sum(r["wall_s"] for r in rows.values()), 3),
    }


def test_every_row_measured(measurement):
    rows = measurement["rows"]
    assert len(rows) == len(KERNEL_NAMES) * len(TECHNIQUES)
    # Sharing never adds DSPs over the unshared circuit.
    for kernel in KERNEL_NAMES:
        naive = rows[f"{kernel}/naive"]["dsp"]
        assert rows[f"{kernel}/crush"]["dsp"] <= naive, kernel
        assert rows[f"{kernel}/inorder"]["dsp"] <= naive, kernel


def test_write_bench_artifact(measurement):
    baseline = None
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as fh:
            baseline = json.load(fh).get("baseline")
    speedup = None
    if baseline is not None and baseline["host"] == measurement["host"]:
        speedup = round(baseline["total_s"] / measurement["total_s"], 2)
    artifact = {
        "bench": "static_pipeline_seconds",
        "scale": SCALE,
        "style": "bb",
        "mode": "single process; run_technique(simulate=False) per Table 2 "
                f"row, minimum of {REPEATS} runs per row",
        "baseline": baseline,
        "current": measurement,
        "speedup_total": speedup,
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
