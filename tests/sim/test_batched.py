"""Differential and contract tests for batched (lane-parallel) simulation.

The batched engine (`repro.sim.batched`) runs lockstep only: a batch
that finishes is bit-identical to B scalar runs — per-lane cycle counts,
fire counts, memory contents and sink values — and a batch whose lanes
diverge on control raises :class:`LaneDivergence` out of ``run_lanes``.
``simulate_kernel_batch`` then reruns every seed on scalar codegen, so
its results are bit-identical either way.  The scalar engines and the
reference interpreter are the oracles.

Also covered: the observer refusal contract (batched mode rejects
Trace/SimProfile/sanitizer with clean errors, the profile CLI has no
``--lanes``), the rerun decision log and ``repro run`` execution line,
and the codegen disk cache's laned/scalar key separation (a laned module
must never poison a scalar run, or vice versa).  Divergent batches and
their scalar reruns are tested in ``tests/sim/test_mask_lanes.py``,
sweep-level lane batching in ``tests/sweep/test_lanes.py``.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import critical_cfcs, insert_timing_buffers, place_buffers
from repro.baselines import inorder_share, naive_share
from repro.circuit import (
    DataflowCircuit,
    ElasticBuffer,
    EagerFork,
    FunctionalUnit,
    Join,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.core import crush
from repro.errors import LaneDivergence, SimulationError
from repro.frontend import lower_kernel, simulate_kernel, simulate_kernel_batch
from repro.frontend.interp import run_reference
from repro.frontend.kernels import KERNEL_NAMES, build
from repro.frontend.runner import default_inputs
from repro.pipeline import TECHNIQUES, run_technique, run_technique_batch
from repro.sim import (
    Memory,
    SimProfile,
    Trace,
    create_engine,
)
from repro.sim.batched import BatchedCodegenEngine
from repro.sim.codegen import CodegenEngine, generate_source, source_key
from repro.sim.signal_graph import compile_schedule

PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]
#: Backend names that build the batched engine.
LANED_BACKENDS = ("compiled", "codegen")
#: The data-dependent ``if`` kernels: distinct seeds diverge on control.
DIVERGENT_KERNELS = ("gsum", "gsumif")
SHARE = {"naive": naive_share, "inorder": inorder_share, "crush": crush}

#: Distinct input sets; lane l of a B-lane batch simulates SEEDS[l].
SEEDS = (7, 11, 13, 17, 19, 23, 29)
LANE_COUNTS = (1, 2, 7)


def _prepare(kernel_name, technique, style="bb"):
    """Lower one golden configuration exactly like the pipeline does."""
    kernel = build(kernel_name, scale="small")
    lowered = lower_kernel(kernel, style=style)
    circuit = lowered.circuit
    cfcs = critical_cfcs(circuit)
    place_buffers(circuit, cfcs)
    SHARE[technique](circuit, cfcs)
    insert_timing_buffers(circuit)
    return lowered


def _lane_memories(kernel, seeds):
    """One initialized Memory + expected-writes target per seed."""
    memories, expected = [], []
    for s in seeds:
        inputs = default_inputs(kernel, seed=s)
        ref = run_reference(kernel, inputs)
        mem = Memory()
        for arr in kernel.arrays:
            size = arr.resolved_size(kernel.params)
            mem.allocate(arr.name, size, init=inputs[arr.name])
        memories.append(mem)
        expected.append(ref.writes)
    return memories, expected


def _run_batched(lowered, seeds, backend):
    """Drive one batched engine the way ``simulate_kernel_batch`` does."""
    kernel = lowered.kernel
    memories, expected = _lane_memories(kernel, seeds)
    engine = create_engine(
        lowered.circuit, backend=backend, lanes=len(seeds), memories=memories,
    )
    end = lowered.end_sink

    def done_lane(lane):
        return (
            engine.sink_count(end, lane) >= 1
            and memories[lane].writes >= expected[lane]
        )

    cycles = engine.run_lanes(
        done_lane, max_cycles=2_000_000,
        uniform_done=(len(set(expected)) == 1),
    )
    return engine, memories, cycles


# ---------------------------------------------------------------------------
# every golden x B in {1, 2, 7}: simulate_kernel_batch is bit-identical to
# scalar runs and to the reference interpreter, lockstep or rerun


def _assert_runs_match_scalar(lowered, seeds, runs, label):
    """Per-lane cycles, fires and arrays equal scalar compiled runs (an
    engine the batch and its reruns never use) and, bit for bit, the
    reference interpreter's arrays."""
    assert len(runs) == len(seeds), label
    for lane, (seed, run) in enumerate(zip(seeds, runs)):
        want = simulate_kernel(lowered, seed=seed, backend="compiled")
        where = f"{label} lane={lane} (seed {seed})"
        assert run.cycles == want.cycles, where
        assert run.fires == want.fires, where
        assert run.checked, where
        assert run.reference.writes == want.reference.writes, where
        for name in want.arrays:
            assert np.array_equal(run.arrays[name], want.arrays[name]), (
                f"{where}: array {name}")
            assert np.array_equal(run.arrays[name],
                                  want.reference.arrays[name]), (
                f"{where}: array {name} vs reference")


@pytest.mark.parametrize("kernel,technique", PAIRS,
                         ids=[f"{k}-{t}" for k, t in PAIRS])
def test_batched_bit_identical_on_goldens(kernel, technique):
    lowered = _prepare(kernel, technique)
    for lanes in LANE_COUNTS:
        seeds = SEEDS[:lanes]
        runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
        # Only the data-dependent ``if`` kernels leave lockstep, and a
        # single lane has nothing to disagree with.
        rerun = kernel in DIVERGENT_KERNELS and lanes > 1
        for run in runs:
            assert (run.divergence is not None) == rerun, (lanes, run)
        _assert_runs_match_scalar(lowered, seeds, runs, f"B={lanes}")


def test_simulate_kernel_batch_matches_scalar_runs():
    lowered = _prepare("bicg", "crush")
    seeds = [7, 11, 13]
    runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
    for seed, run in zip(seeds, runs):
        want = simulate_kernel(lowered, seed=seed, backend="codegen")
        assert run.cycles == want.cycles
        assert run.fires == want.fires
        assert run.checked
        for name in want.arrays:
            assert np.array_equal(run.arrays[name], want.arrays[name])


def test_run_technique_batch_rows_match_scalar():
    rows = run_technique_batch(
        "atax", "crush", seeds=[7, 11], scale="small", sim_backend="codegen",
    )
    for row in rows:
        want = run_technique(
            "atax", "crush", scale="small", sim_backend="codegen",
            seed=row.seed,
        )
        assert row.deterministic_metrics() == want.deterministic_metrics()
        assert row.seed == want.seed


# ---------------------------------------------------------------------------
# divergence: the engine raises, the batch reruns its seeds on scalar codegen


def test_lockstep_kernel_runs_without_divergence():
    lowered = _prepare("atax", "crush")
    engine, _, cycles = _run_batched(lowered, SEEDS[:3], "codegen")
    assert len(set(cycles)) == 1
    assert engine.lane_fires == [engine.total_fires] * 3


def test_divergent_kernel_raises_lane_divergence():
    # gsumif branches on input data: distinct lanes must diverge, and the
    # engine must end the batch with the site and cycle of the divergence.
    lowered = _prepare("gsumif", "crush")
    with pytest.raises(LaneDivergence) as info:
        _run_batched(lowered, SEEDS[:3], "codegen")
    exc = info.value
    assert exc.channel and exc.channel.endswith(".cond")
    assert exc.cycle is not None and exc.cycle > 0
    assert len(set(exc.values)) > 1
    assert f"at cycle {exc.cycle}" in str(exc)


def test_rerun_batch_logs_one_decision(caplog):
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 108))
    with caplog.at_level(logging.INFO, logger="repro.sim.batched"):
        runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
    reruns = [r.getMessage() for r in caplog.records
              if r.name == "repro.sim.batched" and "rerun" in r.getMessage()]
    assert len(reruns) == 1, reruns
    key = compile_schedule(lowered.circuit).key[:16]
    assert key in reruns[0]
    assert runs[0].divergence in reruns[0]
    assert f"{len(seeds)} seed(s)" in reruns[0]


def test_lockstep_batch_logs_no_rerun(caplog):
    lowered = _prepare("atax", "crush")
    with caplog.at_level(logging.INFO, logger="repro.sim.batched"):
        runs = simulate_kernel_batch(lowered, SEEDS[:2], backend="codegen")
    assert all(run.divergence is None for run in runs)
    assert not [r for r in caplog.records if "rerun" in r.getMessage()]


def test_run_cli_reports_lockstep_and_rerun_batches(capsys):
    from repro.cli import main

    rc = main(["run", "gsumif", "crush", "--scale", "small",
               "--seeds", "7,11,100", "--lanes", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    # [7, 11] diverges; [100] is a one-lane batch and stays lockstep.
    line = next(l for l in out.splitlines() if l.startswith("execution"))
    assert "lockstep in 1/2 batch(es); scalar rerun in 1 (diverged on " in line
    assert ".cond@" in line


def _chain_circuit(values):
    """values -> fadd(+1) -> sink; scalar-control, no memory."""
    c = DataflowCircuit("chain")
    src = c.add(Sequence("src", list(values)))
    one = c.add(Sequence("one", [1.0] * len(values)))
    buf = c.add(ElasticBuffer("buf", slots=2))
    fu = c.add(FunctionalUnit("fu", "fadd"))
    sink = c.add(Sink("out"))
    c.connect(src, 0, buf, 0)
    c.connect(buf, 0, fu, 0)
    c.connect(one, 0, fu, 1)
    c.connect(fu, 0, sink, 0)
    c.validate()
    return c


def test_partial_done_mask_raises_lane_divergence():
    # Per-lane done predicates that hold at different times give a
    # partial done-mask: the engine ends the batch in the cycle the
    # earliest lane stops on its own, naming the lanes that were done.
    # (Per-lane results after such a batch are checked on every golden
    # in test_mask_lanes.py.)
    values = [2.0, 3.0, 5.0, 8.0]
    targets = [1, 4, 2]  # lane l is done after targets[l] sink tokens
    engine = create_engine(_chain_circuit(values), backend="codegen",
                           lanes=3)
    with pytest.raises(LaneDivergence) as info:
        engine.run_lanes(
            lambda lane: engine.sink_count("out", lane) >= targets[lane],
            uniform_done=False,
        )
    c_ref = _chain_circuit(values)
    ref = create_engine(c_ref, backend="codegen")
    sink = c_ref.units["out"]
    exc = info.value
    assert exc.channel == "done"
    assert exc.values == (True, False, False)
    assert exc.cycle == ref.run(lambda: sink.count >= 1)


# ---------------------------------------------------------------------------
# hypothesis: random circuits x lane counts, batched lanes == scalar run


values_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1, max_size=10,
)
stages_strategy = st.lists(
    st.tuples(st.sampled_from(["fadd", "fmul", "fsub"]),
              st.floats(min_value=-4, max_value=4, allow_nan=False)),
    min_size=1, max_size=4,
)


def _pipeline_circuit(values, stages, slots, transparent):
    c = DataflowCircuit("rand")
    src = c.add(Sequence("src", list(values)))
    prev, port = src, 0
    for i, (op, const) in enumerate(stages):
        buf_cls = TransparentFifo if transparent else ElasticBuffer
        buf = c.add(buf_cls(f"buf{i}", slots=slots))
        fu = c.add(FunctionalUnit(f"fu{i}", op))
        k = c.add(Sequence(f"k{i}", [const] * len(values)))
        c.connect(prev, port, buf, 0)
        c.connect(buf, 0, fu, 0)
        c.connect(k, 0, fu, 1)
        prev, port = fu, 0
    sink = c.add(Sink("out"))
    c.connect(prev, port, sink, 0)
    c.validate()
    return c


def _assert_lanes_match_scalar(make_circuit, n_tokens, lanes, backend):
    c_ref = make_circuit()
    ref = create_engine(c_ref, backend="event")
    sink = c_ref.units["out"]
    ref_cycles = ref.run(lambda: sink.count >= n_tokens, max_cycles=3_000)

    c_b = make_circuit()
    engine = create_engine(c_b, backend=backend, lanes=lanes)
    cycles = engine.run_lanes(
        lambda lane: engine.sink_count("out", lane) >= n_tokens,
        max_cycles=3_000, uniform_done=True,
    )
    for lane in range(lanes):
        assert cycles[lane] == ref_cycles, lane
        assert engine.lane_fires[lane] == ref.total_fires, lane
        assert engine.sink_received("out", lane) == sink.received, lane


@settings(max_examples=20, deadline=None)
@given(values=values_strategy, stages=stages_strategy,
       slots=st.integers(min_value=1, max_value=3),
       transparent=st.booleans(),
       lanes=st.integers(min_value=1, max_value=5),
       backend=st.sampled_from(["compiled", "codegen"]))
def test_random_pipelines_batched_lanes_match_scalar(
        values, stages, slots, transparent, lanes, backend):
    _assert_lanes_match_scalar(
        lambda: _pipeline_circuit(values, stages, slots, transparent),
        len(values), lanes, backend,
    )


@settings(max_examples=12, deadline=None)
@given(values=values_strategy,
       n_out=st.integers(min_value=2, max_value=4),
       latency=st.integers(min_value=0, max_value=6),
       lanes=st.integers(min_value=1, max_value=4))
def test_random_fork_join_batched_lanes_match_scalar(
        values, n_out, latency, lanes):
    def make_circuit():
        c = DataflowCircuit("rand")
        src = c.add(Sequence("src", list(values)))
        f = c.add(EagerFork("f", n_out))
        j = c.add(Join("j", n_out))
        fu = c.add(FunctionalUnit("fu", "pass", latency_override=latency))
        sink = c.add(Sink("out"))
        c.connect(src, 0, f, 0)
        for i in range(n_out):
            b = c.add(ElasticBuffer(f"b{i}", slots=1 + i % 2))
            c.connect(f, i, b, 0)
            c.connect(b, 0, j, i)
        c.connect(j, 0, fu, 0)
        c.connect(fu, 0, sink, 0)
        c.validate()
        return c

    _assert_lanes_match_scalar(make_circuit, len(values), lanes, "codegen")


# ---------------------------------------------------------------------------
# observer refusal contract


@pytest.mark.parametrize("backend", LANED_BACKENDS)
def test_batched_refuses_observers(backend):
    c = _chain_circuit([1.0, 2.0])
    with pytest.raises(SimulationError, match="Trace"):
        create_engine(c, backend=backend, lanes=2, trace=Trace())
    with pytest.raises(SimulationError, match="SimProfile"):
        create_engine(c, backend=backend, lanes=2, profile=SimProfile())
    with pytest.raises(SimulationError, match="[Ss]anitizer"):
        create_engine(c, backend=backend, lanes=2, sanitize=True)


def test_batched_refuses_env_defaulted_observers(monkeypatch):
    c = _chain_circuit([1.0])
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    with pytest.raises(SimulationError, match="[Ss]anitizer"):
        create_engine(c, backend="compiled", lanes=2)
    # Explicit opt-out must win over the environment, as in scalar mode.
    eng = create_engine(c, backend="codegen", lanes=2, sanitize=False)
    assert eng.lanes == 2


def test_create_engine_lane_argument_validation():
    c = _chain_circuit([1.0])
    with pytest.raises(SimulationError, match="lanes"):
        create_engine(c, backend="compiled", lanes=0)
    with pytest.raises(SimulationError, match="memories"):
        create_engine(c, backend="compiled", memories=[Memory()])
    with pytest.raises(SimulationError, match="memor"):
        create_engine(c, backend="compiled", lanes=2, memory=Memory())
    # This circuit has no load/store ports: lane memories are meaningless.
    with pytest.raises(SimulationError, match="memor"):
        create_engine(c, backend="compiled", lanes=2,
                      memories=[Memory(), Memory()])
    # And a memory-using circuit must get exactly one memory per lane.
    lowered = _prepare("atax", "crush")
    memories, _ = _lane_memories(lowered.kernel, SEEDS[:2])
    with pytest.raises(SimulationError, match="per lane"):
        create_engine(lowered.circuit, backend="compiled", lanes=3,
                      memories=memories)


def test_profile_cli_rejects_lanes_with_exit_2(capsys):
    # Profiling is scalar-only, so ``profile`` has no --lanes option.
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["profile", "atax", "--lanes", "4"])
    assert exc.value.code == 2
    assert "--lanes" in capsys.readouterr().err


def test_run_cli_rejects_observers_with_multi_seed_batch(capsys):
    from repro.cli import main

    rc = main(["run", "atax", "crush", "--seeds", "7,11", "--sanitize"])
    assert rc == 2
    assert "scalar-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# codegen disk cache: laned and scalar modules must never collide


@pytest.fixture
def codegen_cache(tmp_path, monkeypatch):
    """Isolated disk cache + an empty in-process memo for every test."""
    import repro.sim.codegen as cg

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    monkeypatch.setattr(cg, "_MODULE_CACHE", type(cg._MODULE_CACHE)())
    return tmp_path / "cgc"


def test_laned_and_scalar_sources_have_distinct_keys(codegen_cache):
    c = _chain_circuit([1.0, 2.0])
    schedule = compile_schedule(c)
    scalar_src = generate_source(c, schedule)
    laned_src = generate_source(c, schedule, lanes=True)
    assert scalar_src != laned_src
    assert source_key(scalar_src) != source_key(laned_src)


def test_laned_module_cannot_poison_scalar_runs(codegen_cache):
    values = [1.0, 2.0, 3.0]
    # Populate the disk cache with the laned module first.
    c_b = _chain_circuit(values)
    batched = BatchedCodegenEngine(c_b, lanes=2)
    batched.run_lanes(
        lambda lane: batched.sink_count("out", lane) >= len(values),
        uniform_done=True,
    )
    # A scalar engine on the same circuit must get the scalar module...
    c_s = _chain_circuit(values)
    scalar = CodegenEngine(c_s)
    assert scalar.codegen_key != batched.codegen_key
    sink = c_s.units["out"]
    scalar.run(lambda: sink.count >= len(values))
    assert sink.received == batched.sink_received("out", 0)
    # ...and both modules coexist on disk under their own keys.
    cached = {p.stem for p in codegen_cache.glob("*/*.py")}
    assert {scalar.codegen_key, batched.codegen_key} <= cached


@pytest.mark.parametrize("backend", ["compiled", "codegen"])
def test_batched_codegen_reloads_laned_module_from_disk(codegen_cache,
                                                        backend):
    import repro.sim.codegen as cg

    values = [4.0, 5.0]
    first = create_engine(_chain_circuit(values), backend=backend, lanes=3)
    assert first.codegen_origin == "generated"
    # New in-process memo: the second construction must come from disk.
    cg._MODULE_CACHE.clear()
    second = create_engine(_chain_circuit(values), backend=backend, lanes=3)
    assert second.codegen_key == first.codegen_key
    assert second.codegen_origin == "disk"
    # Same module object serves any lane count: it binds LB at runtime.
    third = create_engine(_chain_circuit(values), backend=backend, lanes=5)
    assert third.codegen_key == first.codegen_key
    assert third.codegen_origin == "memory"
