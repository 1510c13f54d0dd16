"""Mask-lane (MIMD) execution tests: divergence without scalar fallback.

The generated-loop batched engines promote from lockstep to mask-lane
execution at the first control divergence (`repro.sim.batched`): every
1-bit control signal becomes a per-lane bitmask integer and each lane
gets its own done/cycle-freeze bit.  These tests pin the promotion
contract:

* divergent batches (``gsumif``, and a synthetic load→branch circuit)
  stay lane-parallel — ``fallback_lanes == 0`` — yet remain bit-identical
  to scalar runs per lane, across lane counts up to 64;
* lanes frozen by an early ``done`` predicate never perturb survivors
  (hypothesis property);
* the mask loop is a module of its own, loaded lazily: lockstep-only
  batches never generate or load it, a divergent batch loads it exactly
  once, and it has its own content-addressed cache key (memory, disk and
  cross-process reuse all promote correctly);
* every golden configuration survives being *forced* through the mask
  loop from cycle 0 (``start_masked=True``) bit-identically, and mid-run
  lockstep→mask promotion lifts live state correctly into lane tuples —
  each held to two oracles: a scalar engine run (``tuple``) and the
  NumPy-backed reference interpreter (``numpy``).
"""

import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import critical_cfcs, insert_timing_buffers, place_buffers
from repro.baselines import inorder_share, naive_share
from repro.circuit import (
    Branch,
    DataflowCircuit,
    ElasticBuffer,
    FunctionalUnit,
    LoadPort,
    Sequence,
    Sink,
)
from repro.core import crush
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels import KERNEL_NAMES, build
from repro.frontend.runner import default_inputs
from repro.frontend.interp import run_reference
from repro.pipeline import TECHNIQUES
from repro.sim import Memory, create_engine
from repro.sim.batched import BatchedCodegenEngine
from repro.sim.codegen import (
    generate_mask_source,
    generate_source,
    source_key,
)
from repro.sim.signal_graph import compile_schedule

PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]
SHARE = {"naive": naive_share, "inorder": inorder_share, "crush": crush}

#: Lane counts the issue calls out: small, a byte, and beyond the word
#: sizes any packed-bool representation would be tempted to assume.
LANE_COUNTS = (2, 8, 64)


def _prepare(kernel_name, technique, style="bb"):
    kernel = build(kernel_name, scale="small")
    lowered = lower_kernel(kernel, style=style)
    circuit = lowered.circuit
    cfcs = critical_cfcs(circuit)
    place_buffers(circuit, cfcs)
    SHARE[technique](circuit, cfcs)
    insert_timing_buffers(circuit)
    return lowered


def _lane_memories(kernel, seeds):
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


def _run_batched(lowered, seeds, backend, start_masked=False):
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
        start_masked=start_masked,
    )
    return engine, memories, cycles


#: What each mask-loop lane is held to.  ``tuple``: a scalar engine run
#: of the same circuit — per-lane cycles, fires, write count and final
#: arrays, which the lane-tuple plane must replay exactly.  ``numpy``:
#: the NumPy-backed reference interpreter — write count and final
#: arrays, bit for bit, from an oracle that shares no code with the
#: simulator.
ORACLES = ("tuple", "numpy")


def _assert_lanes_match(oracle, lowered, seeds, engine, memories, cycles,
                        backend, label):
    for lane, seed in enumerate(seeds):
        where = f"{label}-{oracle} lane={lane}"
        if oracle == "tuple":
            want = simulate_kernel(lowered, seed=seed, backend=backend)
            assert cycles[lane] == want.cycles, where
            assert engine.lane_fires[lane] == want.fires, where
            writes, arrays = want.reference.writes, want.arrays
        else:
            ref = run_reference(lowered.kernel,
                                default_inputs(lowered.kernel, seed=seed))
            writes, arrays = ref.writes, ref.arrays
        assert memories[lane].writes == writes, where
        for name in arrays:
            assert np.array_equal(memories[lane].dump(name),
                                  arrays[name]), f"{where}: {name}"


# ---------------------------------------------------------------------------
# gsumif: a real data-dependent kernel, across the issue's lane counts


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_gsumif_mask_lanes_bit_identical_to_scalar(lanes):
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 100 + lanes))
    engine, memories, cycles = _run_batched(lowered, seeds, "codegen")
    # Distinct input sets must diverge — and stay lane-parallel.
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    assert engine.divergence is not None
    assert engine.done_mask == (1 << lanes) - 1
    for lane, seed in enumerate(seeds):
        want = simulate_kernel(lowered, seed=seed, backend="codegen")
        label = f"lane {lane} (seed {seed})"
        assert cycles[lane] == want.cycles, label
        assert engine.lane_fires[lane] == want.fires, label
        for name in want.arrays:
            assert np.array_equal(memories[lane].dump(name),
                                  want.arrays[name]), f"{label}: {name}"


# ---------------------------------------------------------------------------
# synthetic forced-divergence circuit: per-lane memory steers a branch


N_FLAGS = 12


def _divergent_circuit():
    """addr → load("flags") → branch.cond; branch steers data to 2 sinks.

    The branch condition is *loaded from memory*, so per-lane memories
    with different flag patterns force control divergence by
    construction — the minimal circuit whose lanes cannot stay lockstep.
    """
    c = DataflowCircuit("diverge")
    addr = c.add(Sequence("addr", [float(i) for i in range(N_FLAGS)]))
    data = c.add(Sequence("data", [float(10 + i) for i in range(N_FLAGS)]))
    buf = c.add(ElasticBuffer("buf", slots=2))
    load = c.add(LoadPort("load", "flags"))
    br = c.add(Branch("br"))
    st = c.add(Sink("st"))
    sf = c.add(Sink("sf"))
    c.connect(addr, 0, load, 0)
    c.connect(load, 0, br, 0)   # cond
    c.connect(data, 0, buf, 0)
    c.connect(buf, 0, br, 1)    # data
    c.connect(br, 0, st, 0)     # true side
    c.connect(br, 1, sf, 0)     # false side
    c.validate()
    return c


def _flag_pattern(lane):
    # Lane-dependent 0/1 pattern; lane 0 and lane 1 already differ at
    # flag 0, so any batch of >= 2 lanes diverges on the first branch.
    return [float((i * (lane + 1) + lane) % 3 == 0) for i in range(N_FLAGS)]


def _flags_memory(lane):
    mem = Memory()
    mem.allocate("flags", N_FLAGS, init=_flag_pattern(lane))
    return mem


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("backend", ["compiled", "codegen"])
def test_synthetic_divergence_bit_identical_to_scalar(backend, lanes):
    c = _divergent_circuit()
    memories = [_flags_memory(lane) for lane in range(lanes)]
    engine = create_engine(c, backend=backend, lanes=lanes,
                           memories=memories)
    cycles = engine.run_lanes(
        lambda lane: (engine.sink_count("st", lane)
                      + engine.sink_count("sf", lane)) >= N_FLAGS,
        max_cycles=10_000, uniform_done=True,
    )
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    assert engine.divergence is not None
    assert "br" in engine.divergence.channel

    for lane in range(lanes):
        c_ref = _divergent_circuit()
        ref = create_engine(c_ref, backend=backend,
                            memory=_flags_memory(lane))
        st_u, sf_u = c_ref.units["st"], c_ref.units["sf"]
        ref_cycles = ref.run(
            lambda: st_u.count + sf_u.count >= N_FLAGS, max_cycles=10_000,
        )
        assert cycles[lane] == ref_cycles, lane
        assert engine.lane_fires[lane] == ref.total_fires, lane
        assert engine.sink_received("st", lane) == st_u.received, lane
        assert engine.sink_received("sf", lane) == sf_u.received, lane


# ---------------------------------------------------------------------------
# hypothesis: lanes frozen by early `done` never perturb the survivors


def _chain_circuit(values, slots):
    c = DataflowCircuit("chain")
    src = c.add(Sequence("src", list(values)))
    one = c.add(Sequence("one", [1.0] * len(values)))
    buf = c.add(ElasticBuffer("buf", slots=slots))
    fu = c.add(FunctionalUnit("fu", "fadd"))
    sink = c.add(Sink("out"))
    c.connect(src, 0, buf, 0)
    c.connect(buf, 0, fu, 0)
    c.connect(one, 0, fu, 1)
    c.connect(fu, 0, sink, 0)
    c.validate()
    return c


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2, max_size=8,
    ),
    data=st.data(),
    slots=st.integers(min_value=1, max_value=3),
    backend=st.sampled_from(["compiled", "codegen"]),
)
def test_frozen_lanes_never_perturb_survivors(values, data, slots, backend):
    # Each lane stops after its own number of sink tokens; lanes with a
    # small target freeze early (partial done-mask → mask promotion) and
    # must coast without changing what the surviving lanes compute.
    lanes = data.draw(st.integers(min_value=2, max_value=5))
    targets = data.draw(st.lists(
        st.integers(min_value=1, max_value=len(values)),
        min_size=lanes, max_size=lanes,
    ))
    c = _chain_circuit(values, slots)
    engine = create_engine(c, backend=backend, lanes=lanes)
    cycles = engine.run_lanes(
        lambda lane: engine.sink_count("out", lane) >= targets[lane],
        max_cycles=5_000, uniform_done=False,
    )
    assert engine.fallback_lanes == 0
    if len(set(targets)) > 1:
        assert engine.mask_promotions == 1
    for lane, target in enumerate(targets):
        c_ref = _chain_circuit(values, slots)
        ref = create_engine(c_ref, backend=backend)
        sink = c_ref.units["out"]
        ref_cycles = ref.run(lambda: sink.count >= target, max_cycles=5_000)
        assert cycles[lane] == ref_cycles, lane
        assert engine.sink_count("out", lane) == target, lane
        assert engine.sink_received("out", lane) == sink.received, lane


# ---------------------------------------------------------------------------
# the mask loop is its own module: keyed apart from the lockstep module,
# loaded only on promotion, reusable from memory, disk and other processes


@pytest.fixture
def codegen_cache(tmp_path, monkeypatch):
    import repro.sim.batched as bt
    import repro.sim.codegen as cg

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    monkeypatch.setattr(cg, "_MODULE_CACHE", type(cg._MODULE_CACHE)())
    monkeypatch.setattr(bt, "_INPROC_CACHE", type(bt._INPROC_CACHE)())
    return tmp_path / "cgc"


@pytest.fixture
def mask_generations(monkeypatch):
    """Count mask-loop source generations by the batched engines."""
    import repro.sim.batched as bt

    calls = []

    def counting(circuit, schedule):
        calls.append(schedule.key)
        return generate_mask_source(circuit, schedule)

    monkeypatch.setattr(bt, "generate_mask_source", counting)
    return calls


def _diverge_batch(lanes=3):
    memories = [_flags_memory(lane) for lane in range(lanes)]
    engine = BatchedCodegenEngine(
        _divergent_circuit(), lanes=lanes, memories=memories,
    )
    cycles = engine.run_lanes(
        lambda lane: (engine.sink_count("st", lane)
                      + engine.sink_count("sf", lane)) >= N_FLAGS,
        max_cycles=10_000, uniform_done=True,
    )
    received = [engine.sink_received("st", lane) for lane in range(lanes)]
    return engine, cycles, received


def test_mask_variant_has_its_own_cache_key(codegen_cache):
    c = _divergent_circuit()
    schedule = compile_schedule(c)
    scalar_src = generate_source(c, schedule)
    laned_src = generate_source(c, schedule, lanes=True)
    mask_src = generate_mask_source(c, schedule)
    # The mask loop lives in its own module only: neither lockstep
    # module defines it, and each of the three kinds names its variant.
    assert "make_mask_loop" in mask_src
    assert "make_mask_loop" not in laned_src
    assert "make_mask_loop" not in scalar_src
    assert "def make_loop" not in mask_src
    assert "(laned mask loop)" in mask_src.splitlines()[0]
    assert "(laned lockstep)" in laned_src.splitlines()[0]
    assert "(scalar)" in scalar_src.splitlines()[0]


def test_lockstep_and_mask_modules_have_disjoint_cache_keys(codegen_cache):
    import repro.sim.codegen as cg

    engine, _, _ = _diverge_batch()
    assert engine.mask_promotions == 1
    assert engine.mask_codegen_key is not None
    assert engine.mask_codegen_key != engine.codegen_key
    # Both modules sit in the memo and on disk under their own keys.
    assert {engine.codegen_key, engine.mask_codegen_key} <= set(
        cg._MODULE_CACHE)
    cached = {p.stem for p in codegen_cache.glob("*/*.py")}
    assert {engine.codegen_key, engine.mask_codegen_key} <= cached


def test_lockstep_batch_never_loads_mask_module(codegen_cache,
                                                mask_generations):
    import repro.sim.codegen as cg

    before = dict(cg.CODEGEN_STATS)
    lowered = _prepare("gemm", "crush")
    engine, memories, cycles = _run_batched(lowered, [100, 101, 102, 103],
                                            "codegen")
    assert engine.mask_promotions == 0
    assert engine.mask_codegen_key is None
    assert engine.mask_codegen_origin is None
    assert mask_generations == []
    # Exactly one module load this run: the lockstep module.
    loads = sum(cg.CODEGEN_STATS[k] - before[k] for k in before)
    assert loads == 1
    assert not any("make_mask_loop" in p.read_text()
                   for p in codegen_cache.glob("*/*.py"))


def test_divergent_batch_loads_mask_module_once(codegen_cache,
                                                mask_generations, caplog):
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 108))
    with caplog.at_level(logging.INFO, logger="repro.sim.batched"):
        first, _, cycles_a = _run_batched(lowered, seeds, "codegen")
    assert first.mask_promotions == 1
    assert first.mask_codegen_origin == "generated"
    assert len(mask_generations) == 1
    # One promotion record naming structure, cycle and module origin.
    promos = [r.getMessage() for r in caplog.records
              if "promoted" in r.getMessage()]
    assert len(promos) == 1
    assert first.schedule.key[:16] in promos[0]
    assert f"cycle {first.promotion_cycle}" in promos[0]
    assert "generated" in promos[0]
    # A second engine of the same structure reuses the in-process module.
    second, _, cycles_b = _run_batched(lowered, seeds, "codegen")
    assert second.mask_codegen_key == first.mask_codegen_key
    assert second.mask_codegen_origin == "memory"
    assert second.fallback_lanes == 0
    assert cycles_b == cycles_a


def test_disk_loaded_module_still_promotes(codegen_cache):
    import repro.sim.codegen as cg

    first, cycles_a, recv_a = _diverge_batch()
    assert first.codegen_origin == "generated"
    assert first.mask_codegen_origin == "generated"
    assert first.mask_promotions == 1
    # Fresh in-process memo: both modules must come back from disk — a
    # poisoned/stale artifact would fail here.
    cg._MODULE_CACHE.clear()
    second, cycles_b, recv_b = _diverge_batch()
    assert second.codegen_key == first.codegen_key
    assert second.codegen_origin == "disk"
    assert second.mask_codegen_key == first.mask_codegen_key
    assert second.mask_codegen_origin == "disk"
    assert second.mask_promotions == 1
    assert second.fallback_lanes == 0
    assert cycles_b == cycles_a
    assert recv_b == recv_a


_FRESH_PROCESS = """
from tests.sim.test_mask_lanes import _diverge_batch
engine, cycles, _ = _diverge_batch()
print(engine.codegen_origin, engine.mask_codegen_origin,
      engine.mask_promotions, engine.fallback_lanes, cycles)
"""


def test_fresh_process_loads_mask_module_from_disk(codegen_cache):
    _, cycles, _ = _diverge_batch()
    root = Path(__file__).resolve().parents[2]
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        cwd=str(root), capture_output=True, text=True,
        env={"PATH": "", "PYTHONPATH": f"{src}:{root}",
             "REPRO_CODEGEN_CACHE": str(codegen_cache)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(" ", 4) == [
        "disk", "disk", "1", "0", f"{cycles}\n",
    ]


# ---------------------------------------------------------------------------
# all 42 goldens forced through the mask loop from cycle 0; the lane-tuple
# plane is the mask loop's data representation


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("kernel,technique", PAIRS,
                         ids=[f"{k}-{t}" for k, t in PAIRS])
def test_goldens_forced_mask_bit_identical(kernel, technique, oracle):
    # start_masked=True promotes before the first cycle: the whole run
    # executes in mask mode, so lockstep-only kernels also prove the
    # masked emitters bit-identical to scalar execution and to the
    # reference interpreter, with zero scalar fallback.
    lowered = _prepare(kernel, technique)
    seeds = [7, 11]
    engine, memories, cycles = _run_batched(
        lowered, seeds, "codegen", start_masked=True,
    )
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    _assert_lanes_match(oracle, lowered, seeds, engine, memories, cycles,
                        "compiled", f"{kernel}-{technique}")


# ---------------------------------------------------------------------------
# mid-run lockstep -> mask promotion lifts live state into lane tuples


@pytest.mark.parametrize("oracle", ORACLES)
def test_promotion_lifts_state_into_plane(oracle):
    # gsumif diverges mid-run with fadd (latency 10) pipes in flight, so
    # promotion lifts in-flight pipe stages and FIFO contents from live
    # lockstep state, not from reset.
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 108))
    engine, memories, cycles = _run_batched(lowered, seeds, "codegen")
    assert engine.mask_promotions == 1
    assert engine.promotion_cycle > 0
    assert engine.fallback_lanes == 0
    _assert_lanes_match(oracle, lowered, seeds, engine, memories, cycles,
                        "codegen", "gsumif-crush")
