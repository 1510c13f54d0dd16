"""End-to-end benchmark of the kernel → table-row pipeline.

Every row goes through the public sweep entry point
(``repro.sweep.run_sweep`` → ``run_technique`` / ``run_technique_batch``)
in the default configuration: default simulation backend, ``lint="warn"``,
no fast-forward, serial in one process, cold result and codegen caches.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload paper-tables --seed 7 --seconds 10 --trace 0

Workloads (rows per pass; see ``workloads.py`` for the input seeds):

* ``paper-tables``  — 14 kernels × {naive, inorder, crush}, BB style,
  paper scale (42 rows): regenerating Table 2; simulator-bound.
* ``seeded-lanes``  — crush × {gemm, symm, bicg, gsumif, spmv} × 16
  input seeds at paper scale with ``lanes=8`` (80 rows in 10 batches):
  the batched lockstep and mask-lane engines.
* ``compile-small`` — small scale, 14 × 3 BB plus 14 × {naive, crush}
  fast-token (70 rows): sharing, lint, token-flow and buffer placement
  dominate.  Runnable, but not listed in ``BENCHMARK.json``: a third
  workload does not fit the benchmark's run-time budget while the host is
  slow (see ``layers.json``).

A run measures whole passes of the workload, each in a fresh interpreter
with fresh cache directories, until at least ``--seconds`` of sweep wall
time are measured (one pass at least), plus two more fresh interpreters
that only set up (``setup_s`` is the median of the three).  Timings are
divided by the host slowdown sampled while they ran (``speed.py``); the
raw figures are printed too.

Every row is checked: the deterministic metrics must equal
``reference.json`` (recorded from the program by ``record_reference.py``),
small BB rows at input seed 7 must equal ``tests/goldens``, no row may
come from the result cache, and the program's own functional check
against ``frontend.interp`` stays on (a traced pass also counts that it
ran once per input set).  A failed or mismatching row counts in
``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs traced
passes instead (``tracer.py`` wraps each layer's entry point) and reports
per-layer self times and counts per pass, the unattributed remainder
(self time of the job spans, pipeline glue no layer owns) and the tracing
overhead; the spans are written to ``.perfbench_out/``.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import BENCH_DIR, ROOT, TMP_ROOT, cold_env, program_present
from tracer import SELF_TIME_METRICS
from workloads import DEFAULT_SEED, WORKLOADS, Row, reference_plan

#: Every child of one run must finish within this many seconds.
RUN_LIMIT_S = 170.0
#: Extra fresh-interpreter set-up probes per run (each pass adds one more).
SETUP_PROBES = 2
GOLDEN_DIR = ROOT / "tests" / "goldens"
OUT_DIR = ROOT / ".perfbench_out"

E2E_UNITS = {
    "rows_per_s": "1/s",
    "row_s_p50": "s",
    "row_s_p75": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNT_METRICS = ("sim.cycles", "sim.fires", "sim.lanes_fires",
                 "sim.mask_promotions", "sim.fallback_lanes")

PER_LAYER_UNITS = (
    [(m, "s") for m in SELF_TIME_METRICS.values()]
    + [("trace.wall_s", "s"), ("unattributed_s", "s")]
    + [(m, "count") for m in COUNT_METRICS]
    + [("sim.ns_per_fire", "ns"), ("lint.calls", "count"),
       ("tokenflow.calls_per_row", "1/row"), ("memdep.calls_per_row", "1/row"),
       ("sweep.cache_hits", "count"), ("tracing_overhead", "fraction")]
)


def spawn(workload: str, seed: int, deadline: float, probe: bool = False,
          trace: bool = False) -> Optional[dict]:
    """Run ``worker.py`` in a fresh interpreter; its JSON document or None."""
    env = cold_env()
    cold_dir = Path(env["REPRO_SWEEP_CACHE"]).parent
    out = cold_dir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if probe:
        cmd.append("--probe")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans-out",
                str(OUT_DIR / f"{workload}-seed{seed}-spans.json")]
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=env,
                                cwd=ROOT, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {workload} pass exceeded the run time limit",
                  file=sys.stderr)
            return None
        if code != 0 or not out.is_file():
            print(f"perfbench: worker exited with code {code}",
                  file=sys.stderr)
            return None
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)


class Checker:
    """Row correctness against the recorded reference and the goldens."""

    def __init__(self) -> None:
        ref = json.loads((BENCH_DIR / "reference.json").read_text())
        self.rows = ref["rows"]
        self.plan = {k: set(v) for k, v in reference_plan().items()}
        self.failures: List[str] = []

    def check(self, row: Row, record: dict) -> bool:
        problem = self._problem(row, record)
        if problem:
            self.failures.append(f"{'/'.join(map(str, row))}: {problem}")
        return problem is None

    def _problem(self, row: Row, record: dict) -> Optional[str]:
        if record["status"] != "ok":
            return f"failed: {record['error']}"
        if record["cached"]:
            return "answered from the result cache"
        entry = self.rows.get(row.key())
        if entry is None or row.seed not in self.plan[row.key()]:
            return "no recorded reference"
        want = dict(entry["fixed"])
        want["cycles"], want["exec_time_us"] = (
            entry["all_seeds"] if "all_seeds" in entry
            else entry["by_seed"][str(row.seed)])
        expected = [("reference", want)]
        # The goldens were generated at small scale, BB style, seed 7.
        if (row.scale, row.style, row.seed) == ("small", "bb", DEFAULT_SEED):
            path = GOLDEN_DIR / f"{row.kernel}-{row.technique}.json"
            if not path.is_file():
                return f"golden file {path.name} missing"
            expected.append(("golden", json.loads(path.read_text())))
        got = record["result"]
        for source, fields in expected:
            bad = {f: (got[f], v) for f, v in fields.items() if got[f] != v}
            if bad:
                return f"{source} mismatch (got, want): {bad}"
        return None


def check_pass(doc: Optional[dict], rows: List[Row],
               checker: Checker) -> int:
    """Number of failed rows in one pass (all of them if it crashed)."""
    if doc is None:
        checker.failures.append("pass did not complete")
        return len(rows)
    records = doc["records"]
    got = [Row(*r["row"]) for r in records]
    if got != rows:
        checker.failures.append("pass ran a different set of rows")
        return len(rows)
    # A traced pass counts the reference-interpreter runs: at least one per
    # completed row, or some row skipped the functional check (which one
    # is unknown, so all count as failed).
    done = sum(r["status"] == "ok" for r in records)
    interp = doc.get("counts", {}).get("frontend.interp", done)
    if interp < done:
        checker.failures.append(
            f"functional check ran {interp} times for {done} completed rows")
        return len(rows)
    return sum(not checker.check(row, rec) for row, rec in zip(rows, records))


def e2e_metrics(passes: List[dict],
                setups: List[dict]) -> Dict[str, float]:
    """End-to-end metrics.  Timings are divided by the host slowdown
    sampled over their own interval (``speed.py``), so they read in
    seconds of the host in its fast mode; the raw figures are printed."""
    slowdown = statistics.median(d["slowdown"] for d in passes)
    records = [r for d in passes for r in d["records"]]
    raw_walls = [r["wall_time_s"] for r in records]
    walls = [r["wall_time_s"] / r["slowdown"] for r in records]
    raw_rate = len(records) / sum(d["wall_s"] for d in passes)
    print(f"slowdown {slowdown:.4f}; raw rows_per_s {raw_rate:.6g}, "
          f"row_s_p50 {statistics.median(raw_walls):.6g}, row_s_p75 "
          f"{statistics.quantiles(raw_walls, n=4)[2]:.6g}, setup_s "
          f"{statistics.median(d['setup_s'] for d in setups):.6g}")
    return {
        "rows_per_s": raw_rate * slowdown,
        "row_s_p50": statistics.median(walls),
        "row_s_p75": statistics.quantiles(walls, n=4)[2],
        "peak_rss_mb": max(d["peak_rss_mb"] for d in passes),
        "setup_s": statistics.median(
            d["setup_s"] / d["setup_slowdown"] for d in setups),
    }


def layer_metrics(passes: List[dict], rows: int) -> Dict[str, float]:
    """Per-pass self times and counts from the traced passes."""
    n = len(passes)
    self_times: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for doc in passes:
        for name, s in doc["self_times"].items():
            self_times[name] = self_times.get(name, 0.0) + s / n
        for name, c in doc["counts"].items():
            counts[name] = counts.get(name, 0) + c / n
    m = {metric: self_times.get(span, 0.0)
         for span, metric in SELF_TIME_METRICS.items()}
    wall = sum(self_times.values())  # = the root (sweep) span's duration
    m["trace.wall_s"] = wall
    m["unattributed_s"] = wall - sum(m[v] for v in SELF_TIME_METRICS.values())
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    m["sim.ns_per_fire"] = (
        m["sim.run_s"] * 1e9 / m["sim.fires"] if m["sim.fires"] else 0.0)
    m["lint.calls"] = counts.get("lint", 0)
    m["tokenflow.calls_per_row"] = counts.get("tokenflow", 0) / rows
    m["memdep.calls_per_row"] = counts.get("memdep", 0) / rows
    m["sweep.cache_hits"] = sum(d["cache_hits"] for d in passes) / n
    m["tracing_overhead"] = sum(d["tracing_s"] for d in passes) / n / wall
    return m


def main() -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end pipeline benchmark (see module docstring).")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum sweep wall time to measure (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not program_present():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a full repository checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    checker = Checker()
    workload = WORKLOADS[args.workload](args.seed)
    rows = workload.rows
    input_seeds = sorted({r.seed for r in rows})
    print(f"perfbench {args.workload}: seed {args.seed}, input seeds "
          f"{input_seeds}, {len(rows)} rows per pass, lanes {workload.lanes}")

    setups: List[dict] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            doc = spawn(args.workload, args.seed, deadline, probe=True)
            if doc is not None:
                setups.append(doc)

    passes: List[dict] = []
    attempted = failed = 0
    measured = 0.0
    while True:
        t0 = time.monotonic()
        doc = spawn(args.workload, args.seed, deadline, trace=bool(args.trace))
        attempted += len(rows)
        failed += check_pass(doc, rows, checker)
        if doc is None:
            break
        print(f"pass {len(passes) + 1}: sweep wall {doc['wall_s']:.3f} s, "
              f"set-up {doc['setup_s']:.3f} s, peak RSS "
              f"{doc['peak_rss_mb']:.1f} MB")
        passes.append(doc)
        setups.append(doc)
        measured += doc["wall_s"]
        now = time.monotonic()
        if measured >= args.seconds or now + (now - t0) > deadline:
            break

    for line in checker.failures[:20]:
        print(f"FAILED {line}")
    print(f"row_error_rate = {failed / attempted:.4g} "
          f"({failed} of {attempted} rows)")
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if passes and args.trace:
        metrics = layer_metrics(passes, len(rows))
        units = dict(PER_LAYER_UNITS)
    elif passes:
        metrics = e2e_metrics(passes, setups)
        units = E2E_UNITS
    print(f"samples: {len(passes)} pass(es) x {len(rows)} rows, "
          f"{len(setups)} set-up measurements")
    for name, value in metrics.items():
        print(f"{name:26s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not checker.failures and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
