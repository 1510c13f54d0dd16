"""Lane batching in the sweep: seed-sibling chunks on both work loops.

``run_sweep(..., lanes=B)`` groups jobs that differ only in seed into
chunks that one batched simulation answers.  Serial and pool runs share
one work loop, so chunk failure and batched-vs-unbatched rows are
checked for ``workers`` 0 and 2.  Also covered: per-seed cache rows,
event-backend jobs never batched, the refusals around batching (engine
factory, ``repro run``) and loading rows written before
``fallback_lanes`` was dropped.
"""

import pytest

from repro.cli import main
from repro.circuit import DataflowCircuit, Sequence, Sink
from repro.errors import SimulationError
from repro.pipeline import TechniqueResult
from repro.sim import create_engine
from repro.sweep import ResultCache, SweepJob, build_matrix, run_sweep

SEEDS = (7, 11, 13, 100)


def _metrics(outcome):
    return [(r.job, r.result.deterministic_metrics()) for r in outcome.records]


def test_batched_sweep_writes_scalar_equivalent_cache_rows(tmp_path):
    jobs = build_matrix(
        kernels=["atax"], techniques=["crush"], scale="small",
        sim_backend="codegen", seeds=(7, 11, 13),
    )
    cache_scalar = ResultCache(tmp_path / "scalar")
    cache_batched = ResultCache(tmp_path / "batched")

    out_scalar = run_sweep(jobs, cache=cache_scalar).raise_on_failure()
    out_batched = run_sweep(
        jobs, cache=cache_batched, lanes=3
    ).raise_on_failure()
    assert _metrics(out_scalar) == _metrics(out_batched)

    # Content-addressed row files: same keys, one per input set.
    keys_scalar = sorted(p.name for p in (tmp_path / "scalar").glob("*/*.json"))
    keys_batched = sorted(p.name for p in (tmp_path / "batched").glob("*/*.json"))
    assert keys_scalar == keys_batched
    assert len(keys_scalar) == len(jobs)

    # Warm-vs-cold, both directions: a batched sweep fully hits a cache a
    # scalar sweep wrote, and vice versa.
    warm_b = run_sweep(jobs, cache=cache_scalar, lanes=3)
    assert warm_b.cache_hits == len(jobs)
    warm_s = run_sweep(jobs, cache=cache_batched)
    assert warm_s.cache_hits == len(jobs)


@pytest.mark.parametrize("workers", [0, 2])
def test_batched_sweep_isolates_failing_batches(tmp_path, workers):
    # gsumif/crush at small scale takes 361, 360, 398 and 447 cycles on
    # these seeds, so a 400-cycle budget fails the 4-lane chunk as a
    # whole.  Its jobs must rerun alone: three succeed on their first
    # solo attempt, and only seed 100 is recorded as failed.
    jobs = [
        SweepJob("gsumif", "crush", scale="small", sim_backend="codegen",
                 seed=s, max_cycles=400)
        for s in SEEDS
    ]
    out = run_sweep(jobs, workers=workers, cache=ResultCache(tmp_path),
                    lanes=4, retries=0)
    assert [r.job.seed for r in out.records] == list(SEEDS)
    assert [r.ok for r in out.records] == [True, True, True, False]
    assert [r.attempts for r in out.records] == [1, 1, 1, 1]
    assert [r.result.cycles for r in out.records[:3]] == [361, 360, 398]
    assert out.records[3].error_type == "SimulationError"


@pytest.mark.parametrize("workers", [0, 2])
def test_pool_and_serial_chunks_match_unbatched_sweep(workers):
    jobs = build_matrix(
        kernels=["atax", "gsumif"], techniques=["crush"], scale="small",
        sim_backend="codegen", seeds=SEEDS,
    )
    unbatched = run_sweep(jobs).raise_on_failure()
    recorded = []
    batched = run_sweep(
        jobs, workers=workers, lanes=3, on_record=recorded.append,
    ).raise_on_failure()
    assert _metrics(batched) == _metrics(unbatched)
    # Per kernel: one 3-lane chunk (three rows sharing its wall clock,
    # one attempt each) and one single job for the fourth seed.
    assert [r.attempts for r in batched.records] == [1] * len(jobs)
    for first in (0, 4):
        walls = {r.wall_time_s for r in batched.records[first:first + 3]}
        assert len(walls) == 1
    if workers == 0:
        # Serial work items run in submission order, a chunk's records
        # back to back.
        assert [r.job for r in recorded] == jobs


def test_event_jobs_are_never_batched(monkeypatch):
    import repro.sweep.runner as runner

    batches = []
    real = runner.run_technique_batch
    monkeypatch.setattr(
        runner, "run_technique_batch",
        lambda *args, **kwargs: batches.append(args) or real(*args, **kwargs),
    )
    jobs = build_matrix(
        kernels=["atax"], techniques=["crush"], scale="small",
        sim_backend="event", seeds=(7, 11, 13),
    )
    batched = run_sweep(jobs, lanes=3).raise_on_failure()
    assert batches == []
    assert _metrics(batched) == _metrics(run_sweep(jobs).raise_on_failure())


def test_event_backend_refuses_lanes(capsys):
    c = DataflowCircuit("chain")
    src = c.add(Sequence("src", [1.0, 2.0]))
    sink = c.add(Sink("out"))
    c.connect(src, 0, sink, 0)
    with pytest.raises(SimulationError, match="one input set at a time"):
        create_engine(c, backend="event", lanes=2)
    with pytest.raises(SimulationError, match="unknown simulation backend"):
        create_engine(c, backend="nope", lanes=2)

    rc = main(["run", "atax", "crush", "--seeds", "7,11",
               "--sim-backend", "event"])
    assert rc == 2
    assert "event backend" in capsys.readouterr().err


def test_rows_with_legacy_fallback_lanes_still_load():
    row = run_sweep([SweepJob("gsum", "crush", scale="small")]).records[0]
    data = row.result.to_dict()
    assert "fallback_lanes" not in data
    legacy = dict(data, fallback_lanes=0)
    assert TechniqueResult.from_dict(legacy) == row.result
