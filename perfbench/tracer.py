"""In-memory span recorder wrapped around each pipeline layer's entry point.

The benchmark patches the names a layer is entered through (at the
module where the caller looks them up) with thin wrappers that record
one span per call: ``[name, start, end, parent, row]``.  Spans nest
because everything runs serially in one thread, so a layer's self time
is its span's duration minus its direct children's durations, and the
self times of all spans add up to the root span's duration exactly.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layer span names -> the per-layer metric reporting their self time.
SELF_TIME_METRICS = {
    "sweep": "sweep.overhead_s",
    "frontend.lower": "frontend.lower_s",
    "buffers.place": "buffers.place_s",
    "buffers.timing": "buffers.timing_s",
    "sharing.naive": "sharing.naive_s",
    "sharing.inorder": "sharing.inorder_s",
    "sharing.crush": "sharing.crush_s",
    "lint": "lint.self_s",
    "tokenflow": "tokenflow.s",
    "memdep": "memdep.s",
    "frontend.runner": "frontend.runner_s",
    "frontend.interp": "frontend.interp_s",
    "sim.setup": "sim.setup_s",
    "sim.run": "sim.run_s",
    "sim.lanes_run": "sim.lanes_run_s",
    "resources.estimate": "resources.estimate_s",
}
#: Job spans (``run_technique`` / ``run_technique_batch``) are the only
#: others: their self time is pipeline glue no layer owns, the run's
#: unattributed remainder.
JOB = "job"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.row: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[[Any], None]] = None,
             row_of: Optional[Callable[..., str]] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if row_of is not None:
                self.row = row_of(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.row]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)


def span_cost(samples: int = 5, calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call (best of ``samples``).

    Times a wrapped no-op against the bare no-op, so the traced run can
    report its own overhead directly instead of as the difference of two
    separately timed passes, which machine noise would swamp.
    """
    def noop() -> None:
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)

    def best(fn: Callable) -> float:
        times = []
        for _ in range(samples):
            probe.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(best(wrapped) - best(noop), 0.0) / calls


def _row_of_job(kernel, technique, *_, style="bb", scale="paper",
                seed=7, **__) -> str:
    return f"{kernel}/{technique}/{style}/{scale}/seed={seed}"


def _row_of_batch(kernel, technique, seeds, *_, style="bb", scale="paper",
                  **__) -> str:
    return f"{kernel}/{technique}/{style}/{scale}/seeds={seeds[0]}+{len(seeds)}"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the sweep → pipeline path calls."""
    import repro.analysis as analysis
    import repro.analysis.memdep as memdep
    import repro.analysis.tokenflow as tokenflow
    import repro.frontend.runner as runner
    import repro.lint as lint
    import repro.pipeline as pipeline
    import repro.sweep.runner as sweep_runner

    counts = tracer.counts
    tracer.patch(sweep_runner, "run_technique", JOB, row_of=_row_of_job)
    tracer.patch(sweep_runner, "run_technique_batch", JOB,
                 row_of=_row_of_batch)
    tracer.patch(pipeline, "lower_kernel", "frontend.lower")
    tracer.patch(pipeline, "place_buffers", "buffers.place")
    tracer.patch(pipeline, "naive_share", "sharing.naive")
    tracer.patch(pipeline, "inorder_share", "sharing.inorder")
    tracer.patch(pipeline, "crush", "sharing.crush")
    tracer.patch(pipeline, "insert_timing_buffers", "buffers.timing")
    tracer.patch(lint, "run_lint", "lint")
    # Token-flow and memdep are looked up lazily both by the pipeline
    # (package attribute) and by the lint context (defining module).
    for owner in (analysis, tokenflow):
        tracer.patch(owner, "analyze_circuit", "tokenflow")
    for owner in (analysis, memdep):
        tracer.patch(owner, "analyze_kernel", "memdep")
    tracer.patch(pipeline, "simulate_kernel", "frontend.runner")
    tracer.patch(pipeline, "simulate_kernel_batch", "frontend.runner")
    tracer.patch(runner, "run_reference", "frontend.interp")
    tracer.patch(pipeline, "estimate_circuit", "resources.estimate")

    def count_scalar(engine):
        def after(cycles):
            counts["sim.cycles"] += cycles
            counts["sim.fires"] += engine.total_fires
        return after

    def count_lanes(engine):
        def after(lane_cycles):
            counts["sim.lanes_fires"] += sum(engine.lane_fires)
            counts["sim.mask_promotions"] += getattr(
                engine, "mask_promotions", 0)
            counts["sim.fallback_lanes"] += getattr(
                engine, "fallback_lanes", 0)
        return after

    create_engine = runner.create_engine
    setup = tracer.wrap("sim.setup", create_engine)

    def traced_create_engine(*args, **kwargs):
        engine = setup(*args, **kwargs)
        if kwargs.get("lanes") is not None:
            engine.run_lanes = tracer.wrap(
                "sim.lanes_run", engine.run_lanes, after=count_lanes(engine))
        else:
            engine.run = tracer.wrap(
                "sim.run", engine.run, after=count_scalar(engine))
        return engine

    tracer._patches.append((runner, "create_engine", create_engine))
    runner.create_engine = traced_create_engine
