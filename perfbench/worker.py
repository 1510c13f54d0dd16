"""One benchmark process: import the program, build the workload's jobs,
and (unless probing set-up time) run them through ``repro.sweep.run_sweep``.

Started by ``run.py`` in a fresh interpreter with a cold environment;
writes one JSON document to ``--out``.  ``--spawned`` is the parent's
``time.monotonic()`` just before the process was created, so set-up time
covers interpreter start, imports and job construction.  The host
slowdown (``speed.py``) is sampled during set-up and, in an untraced
pass, during the sweep.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from speed import SpeedSampler
from workloads import WORKLOADS

#: Recordings closer together than this belong to one lane batch.
BATCH_GAP_S = 0.005
#: Result fields compared against the reference and the goldens.
ROW_FIELDS = ("dsp", "slices", "lut", "ff", "cp_ns", "cycles",
              "exec_time_us", "fu_census", "predicted_ii", "mem_class",
              "memdep_diags")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true",
                    help="stop after job construction")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    sampler = SpeedSampler()
    with sampler:
        from repro.sweep import ResultCache, SweepJob, run_sweep

        workload = WORKLOADS[args.workload](args.seed)
        jobs = [
            SweepJob(kernel=r.kernel, technique=r.technique, style=r.style,
                     scale=r.scale, seed=r.seed)
            for r in workload.rows
        ]
        cache = ResultCache()  # $REPRO_SWEEP_CACHE: a fresh, empty directory
        doc = {
            "setup_s": time.monotonic() - args.spawned,
            "setup_slowdown": sampler.slowdown(end=time.perf_counter()),
        }
        if args.probe:
            _write(args.out, doc)
            return
        if not args.trace:
            recorded = []  # (perf_counter() when recorded, record), in order
            t0 = time.perf_counter()
            outcome = run_sweep(
                jobs, workers=0, cache=cache, lanes=workload.lanes,
                on_record=lambda r: recorded.append((time.perf_counter(), r)))
            t1 = time.perf_counter()
            doc["wall_s"] = t1 - t0
            doc["slowdown"] = sampler.slowdown(t0, t1)
            row_slowdown = _row_slowdowns(sampler, recorded, t0)

    tracer = None
    if args.trace:
        from tracer import Tracer, install, span_cost

        tracer = Tracer()
        install(tracer)
        t0 = time.perf_counter()
        outcome = tracer.wrap("sweep", run_sweep)(
            jobs, workers=0, cache=cache, lanes=workload.lanes)
        doc["wall_s"] = time.perf_counter() - t0
        tracer.unpatch()
        doc["self_times"] = tracer.self_times()
        doc["counts"] = dict(tracer.counts)
        doc["tracing_s"] = len(tracer.spans) * span_cost()
        row_slowdown = {}
        if args.spans_out:
            _write(args.spans_out, {
                "fields": ["name", "start", "end", "parent", "row"],
                "spans": tracer.spans,
            })

    doc["cache_hits"] = outcome.cache_hits
    doc["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    doc["records"] = [
        {
            "row": [r.job.kernel, r.job.technique, r.job.style,
                    r.job.scale, r.job.seed],
            "status": r.status,
            "cached": r.cached,
            "error": f"{r.error_type}: {r.error}" if r.error_type else None,
            "wall_time_s": r.wall_time_s,
            "slowdown": row_slowdown.get(id(r)),
            "result": ({f: getattr(r.result, f) for f in ROW_FIELDS}
                       if r.result is not None else None),
        }
        for r in outcome.records
    ]
    _write(args.out, doc)


def _row_slowdowns(sampler: SpeedSampler, recorded, t0: float) -> dict:
    """Slowdown over each row's own interval, keyed by ``id(record)``.

    A row ran between the previous recording and its own; the rows of one
    lane batch are recorded back to back and share the batch's interval.
    """
    out = {}
    start = last = t0
    for t, record in recorded:
        if t - last > BATCH_GAP_S:
            start = last
        out[id(record)] = sampler.slowdown(start, t)
        last = t
    return out


def _write(path: str, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f)


if __name__ == "__main__":
    main()
