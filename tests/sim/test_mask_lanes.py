"""Divergent lane batches: a batch that leaves lockstep reruns on scalar codegen.

The batched engine (`repro.sim.batched`) runs lockstep only.  When the
lanes stop agreeing — a data-dependent branch or select, or a partial
done-mask where some lanes finish before others — ``run_lanes`` raises
:class:`LaneDivergence` and ``simulate_kernel_batch`` reruns every seed
on a scalar codegen engine built over the *same* circuit object.  That
is sound only because every scalar engine resets the units the batch
left holding lane tuples mid-run.  These tests pin the contract:

* gsum and gsumif divergent seeds, up to 64 lanes on gsumif, are
  bit-identical to scalar runs in cycles, fires and arrays;
* a synthetic load→branch circuit raises at the branch, and scalar
  engines built on the circuit the batch left behind match fresh runs;
* lanes that finish early (a partial done-mask) end the batch in the
  cycle the earliest lane stops on its own, and reruns of the lanes
  still running are never perturbed (hypothesis property);
* a batch that ends mid-run leaves live lane-tuple state (FIFO
  contents, pipe stages in flight) in the circuit's units, and scalar
  reruns over that circuit still match both oracles below;
* every golden's batch, forced to end on a partial done-mask mid-run,
  reruns bit-identically — held to two oracles: a scalar engine run
  (``tuple``) and the NumPy-backed reference interpreter (``numpy``).

The module keeps the name it had when these properties were checked on
the mask-lane loop, which the scalar rerun replaced.
"""

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
from repro.errors import LaneDivergence
from repro.frontend import lower_kernel, simulate_kernel, simulate_kernel_batch
from repro.frontend.interp import run_reference
from repro.frontend.kernels import KERNEL_NAMES, build
from repro.frontend.runner import default_inputs
from repro.pipeline import TECHNIQUES
from repro.sim import Memory, create_engine
from repro.sim.batched import BatchedCodegenEngine

PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]
SHARE = {"naive": naive_share, "inorder": inorder_share, "crush": crush}

#: Lane counts: small, a byte, and beyond any machine word.
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


#: What each rerun lane is held to.  ``tuple``: a scalar compiled engine
#: run of the same circuit — cycles, fires, write count and final arrays.
#: ``numpy``: the NumPy-backed reference interpreter — write count and
#: final arrays, bit for bit, from an oracle that shares no code with
#: the simulator.
ORACLES = ("tuple", "numpy")


def _assert_runs_match(oracle, lowered, seeds, runs, label):
    assert len(runs) == len(seeds), label
    for lane, (seed, run) in enumerate(zip(seeds, runs)):
        where = f"{label}-{oracle} lane={lane} (seed {seed})"
        if oracle == "tuple":
            want = simulate_kernel(lowered, seed=seed, backend="compiled")
            assert run.cycles == want.cycles, where
            assert run.fires == want.fires, where
            writes, arrays = want.reference.writes, want.arrays
        else:
            ref = run_reference(lowered.kernel,
                                default_inputs(lowered.kernel, seed=seed))
            writes, arrays = ref.writes, ref.arrays
        assert run.reference.writes == writes, where
        for name in arrays:
            assert np.array_equal(run.arrays[name], arrays[name]), (
                f"{where}: {name}")


def _assert_one_site(runs):
    """Every run of a diverged batch carries the same ``<channel>@<cycle>``."""
    sites = {run.divergence for run in runs}
    assert len(sites) == 1 and None not in sites, sites
    channel, cycle = sites.pop().rsplit("@", 1)
    return channel, int(cycle)


# ---------------------------------------------------------------------------
# gsum / gsumif: real data-dependent kernels, divergent seeds


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_gsumif_mask_lanes_bit_identical_to_scalar(lanes):
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 100 + lanes))
    runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
    # Distinct input sets diverge on the data-dependent branch.
    channel, cycle = _assert_one_site(runs)
    assert channel.endswith(".cond") and cycle > 0
    # The batch's wall time covers the lockstep prefix and every rerun.
    assert len({run.sim_wall_s for run in runs}) == 1
    _assert_runs_match("tuple", lowered, seeds, runs, "gsumif")


@pytest.mark.parametrize("lanes", LANE_COUNTS[:2])
def test_gsum_divergent_seeds_bit_identical_to_scalar(lanes):
    lowered = _prepare("gsum", "crush")
    seeds = list(range(100, 100 + lanes))
    runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
    channel, cycle = _assert_one_site(runs)
    assert channel.endswith((".cond", ".sel")) and cycle > 0
    _assert_runs_match("tuple", lowered, seeds, runs, "gsum")


def _seed_memories(kernel, seeds):
    memories = []
    for seed in seeds:
        inputs = default_inputs(kernel, seed=seed)
        memory = Memory()
        for arr in kernel.arrays:
            memory.allocate(arr.name, arr.resolved_size(kernel.params),
                            init=inputs[arr.name])
        memories.append(memory)
    return memories


@pytest.mark.parametrize("oracle", ORACLES)
def test_promotion_lifts_state_into_plane(oracle):
    # gsumif diverges a few cycles in, with compare pipes and FIFOs
    # holding lane tuples.  The batch ends there and leaves that live
    # state in the circuit's units; scalar reruns over the same circuit
    # object must start from reset and match the oracle run on a fresh
    # circuit.  (The name dates from the mask-lane loop, which lifted
    # this state into its lane plane instead of rerunning.)
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 108))
    engine = create_engine(lowered.circuit, backend="codegen",
                           lanes=len(seeds),
                           memories=_seed_memories(lowered.kernel, seeds))
    with pytest.raises(LaneDivergence) as info:
        engine.run_lanes(lambda lane: False, max_cycles=100_000,
                         uniform_done=True)
    assert info.value.channel.endswith(".cond")
    assert info.value.cycle > 0
    fresh = _prepare("gsumif", "crush")
    live = {name for name, unit in lowered.circuit.units.items()
            if unit.state() != fresh.circuit.units[name].state()}
    assert any(isinstance(lowered.circuit.units[name], FunctionalUnit)
               for name in live), live
    lane_tuples = [
        name for name in live
        if isinstance(state := lowered.circuit.units[name].state(), tuple)
        and any(isinstance(v, tuple) and len(v) == len(seeds)
                for v in state)
    ]
    assert lane_tuples, live
    runs = [simulate_kernel(lowered, seed=seed, backend="codegen")
            for seed in seeds]
    _assert_runs_match(oracle, fresh, seeds, runs, "gsumif-crush")


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
    st_ = c.add(Sink("st"))
    sf = c.add(Sink("sf"))
    c.connect(addr, 0, load, 0)
    c.connect(load, 0, br, 0)   # cond
    c.connect(data, 0, buf, 0)
    c.connect(buf, 0, br, 1)    # data
    c.connect(br, 0, st_, 0)    # true side
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


def _scalar_flags_run(circuit, lane, backend):
    engine = create_engine(circuit, backend=backend,
                           memory=_flags_memory(lane))
    st_u, sf_u = circuit.units["st"], circuit.units["sf"]
    cycles = engine.run(lambda: st_u.count + sf_u.count >= N_FLAGS,
                        max_cycles=10_000)
    return cycles, engine.total_fires, list(st_u.received), list(sf_u.received)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("backend", ["compiled", "codegen"])
def test_synthetic_divergence_bit_identical_to_scalar(backend, lanes):
    c = _divergent_circuit()
    memories = [_flags_memory(lane) for lane in range(lanes)]
    engine = create_engine(c, backend="codegen", lanes=lanes,
                           memories=memories)
    with pytest.raises(LaneDivergence) as info:
        engine.run_lanes(
            lambda lane: (engine.sink_count("st", lane)
                          + engine.sink_count("sf", lane)) >= N_FLAGS,
            max_cycles=10_000, uniform_done=True,
        )
    assert info.value.channel.startswith("br.")
    assert info.value.cycle is not None
    # Rerun every lane on a scalar engine over the circuit the batch left
    # holding lane tuples: each must equal a run on a fresh circuit.
    for lane in range(lanes):
        want = _scalar_flags_run(_divergent_circuit(), lane, backend)
        assert _scalar_flags_run(c, lane, backend) == want, lane


# ---------------------------------------------------------------------------
# hypothesis: lanes that finish early end the batch without perturbing the
# lanes still running


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


def _scalar_chain_run(circuit, target, backend):
    engine = create_engine(circuit, backend=backend)
    sink = circuit.units["out"]
    cycles = engine.run(lambda: sink.count >= target, max_cycles=5_000)
    return cycles, list(sink.received)


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
    # Each lane stops after its own number of sink tokens.  Distinct
    # targets give a partial done-mask in the cycle the earliest lane
    # stops on its own; reruns on the circuit the batch left behind
    # equal fresh scalar runs for every lane.
    lanes = data.draw(st.integers(min_value=2, max_value=5))
    targets = data.draw(st.lists(
        st.integers(min_value=1, max_value=len(values)),
        min_size=lanes, max_size=lanes,
    ))
    c = _chain_circuit(values, slots)
    engine = create_engine(c, backend="codegen", lanes=lanes)

    def run():
        return engine.run_lanes(
            lambda lane: engine.sink_count("out", lane) >= targets[lane],
            max_cycles=5_000, uniform_done=False,
        )

    first = min(targets)
    if len(set(targets)) == 1:
        want, _ = _scalar_chain_run(_chain_circuit(values, slots), first,
                                    backend)
        assert run() == [want] * lanes
        return
    with pytest.raises(LaneDivergence) as info:
        run()
    exc = info.value
    assert exc.channel == "done"
    assert exc.values == tuple(t == first for t in targets)
    assert exc.cycle == _scalar_chain_run(
        _chain_circuit(values, slots), first, backend)[0]
    for lane, target in enumerate(targets):
        want = _scalar_chain_run(_chain_circuit(values, slots), target,
                                 backend)
        assert _scalar_chain_run(c, target, backend) == want, lane


# ---------------------------------------------------------------------------
# all 42 goldens forced to end on a partial done-mask mid-run


#: Cycle at which the forced partial done-mask ends each golden's batch;
#: every small golden runs for hundreds of cycles, so units hold live
#: lane-tuple state (queues, pipes, sink tokens) when the batch ends.
FORCED_CYCLE = 40


def _force_partial_done(monkeypatch):
    """Make lane 0 report done after FORCED_CYCLE cycles, the other
    lanes keep their real predicate: the real engine then raises a
    partial done-mask divergence from its generated loop."""
    original = BatchedCodegenEngine.run_lanes

    def forced(self, done_lane, max_cycles=1_000_000, uniform_done=False):
        asked = []

        def early(lane):
            if lane == 0:
                asked.append(lane)
                if len(asked) > FORCED_CYCLE:
                    return True
            return done_lane(lane)

        return original(self, early, max_cycles=max_cycles,
                        uniform_done=False)

    monkeypatch.setattr(BatchedCodegenEngine, "run_lanes", forced)


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("kernel,technique", PAIRS,
                         ids=[f"{k}-{t}" for k, t in PAIRS])
def test_goldens_forced_mask_bit_identical(kernel, technique, oracle,
                                           monkeypatch):
    lowered = _prepare(kernel, technique)
    seeds = [7, 11]
    _force_partial_done(monkeypatch)
    runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
    channel, cycle = _assert_one_site(runs)
    if kernel in ("gsum", "gsumif"):
        # Their data-dependent branch diverges first, also mid-run.
        assert 0 < cycle <= FORCED_CYCLE
    else:
        assert (channel, cycle) == ("done", FORCED_CYCLE)
    _assert_runs_match(oracle, lowered, seeds, runs, f"{kernel}-{technique}")
