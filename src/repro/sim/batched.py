"""Batched (lane-parallel) multi-input simulation.

One batched engine evaluates ``B`` independent input sets — *lanes* —
of the same circuit in a single pass.  The representation exploits the
structure of Monte-Carlo sweeps over a dataflow circuit: the circuit and
therefore the *control* behaviour is shared, only the data differs.

* **Control signals stay scalar.**  Each channel has one shared
  valid/ready bit, one activation schedule, one fire scan — exactly the
  scalar codegen loop (:mod:`repro.sim.codegen`), reused verbatim.
* **Data signals are lane tuples.**  A valid channel's data local holds
  a tuple of ``B`` per-lane values; functional units map their compute
  across the tuples, load/store ports dispatch through per-lane
  :class:`~repro.sim.memory.Memory` objects, sinks append whole lane
  tuples.
* **Lockstep is checked, not assumed.**  Everywhere data feeds a control
  decision (branch condition, mux/demux select, the per-lane ``done``
  predicate) the generated code verifies the lanes agree; a disagreement
  raises :class:`~repro.errors.LaneDivergence`.  The generated loop
  catches it (exit status 4) and :meth:`BatchedCodegenEngine.run_lanes`
  re-raises it, stamped with the cycle: divergence *ends the batch*.
  :func:`~repro.frontend.runner.simulate_kernel_batch` catches it and
  reruns every seed on a scalar codegen engine.  A batch that finishes
  is bit-identical to ``B`` scalar runs by construction: every lane's
  values evolve exactly as they would alone because the shared control
  is *verified* equal each cycle.

Per-lane termination: under lockstep every lane must satisfy its
``done`` predicate in the same cycle.  A *partial* done-mask (some lanes
done, others not) is itself a divergence, raised as
``LaneDivergence("done")``.

:class:`BatchedCodegenEngine` is the one batched engine.
:func:`~repro.sim.create_engine` builds it for ``lanes=`` with either
generated-loop backend name (``"compiled"`` or ``"codegen"``) and
refuses ``"event"``: the event engine simulates one input set at a
time.  The laned module loads through
:func:`~repro.sim.codegen.load_module`, the same in-process memo and
content-addressed disk cache as scalar codegen modules (laned and
scalar sources always differ, so their keys can never collide).

Observers are refused up front: a ``Trace``/``SimProfile``/sanitizer
observes one circuit execution, and a batched pass is ``B`` of them
folded together.  Use scalar runs (``lanes=None``) for observed
simulations.
"""

from __future__ import annotations

import logging
from typing import Callable, List, Optional, Sequence

from ..circuit import DataflowCircuit
from ..errors import LaneDivergence, SimulationError
from .codegen import CodegenEngine, generate_source, load_module, source_key
from .engine import DEFAULT_DEADLOCK_WINDOW
from .memory import Memory
from .sanitize import sanitize_default
from .signal_graph import compile_schedule

_log = logging.getLogger(__name__)


class BatchedCodegenEngine:
    """Lane-parallel generated loop, disk-cached like scalar codegen."""

    backend = "codegen"

    def __init__(
        self,
        circuit: DataflowCircuit,
        lanes: int,
        memories: Optional[Sequence[Memory]] = None,
        trace=None,
        profile=None,
        sanitize: Optional[bool] = None,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
    ):
        if not isinstance(lanes, int) or lanes < 1:
            raise SimulationError(
                f"lanes must be a positive integer (got {lanes!r})"
            )
        if trace is not None:
            raise SimulationError(
                "batched mode cannot drive a Trace: a trace observes one "
                "execution and a batched pass folds several together; "
                "run lanes=None (scalar) to trace"
            )
        if profile is not None:
            raise SimulationError(
                "batched mode cannot drive a SimProfile: the lane-parallel "
                "loop has no per-unit instrumentation points; profile a "
                "scalar run (lanes=None) instead"
            )
        # Reject a pre-built HandshakeSanitizer instance too (truthy
        # non-bool), not just sanitize=True.
        if (
            sanitize is True
            or (sanitize is not None and sanitize is not False)
            or (sanitize is None and sanitize_default())
        ):
            raise SimulationError(
                "batched mode cannot drive the HandshakeSanitizer: it "
                "checks one execution's handshake contract per cycle; "
                "drop --sanitize/REPRO_SIM_SANITIZE or run scalar "
                "(lanes=None)"
            )
        circuit.validate()
        self.circuit = circuit
        self.lanes = lanes
        self.deadlock_window = deadlock_window

        needs_mem = any(
            getattr(u, "needs_memory", False)
            for u in circuit.units.values()
        )
        mems = list(memories) if memories else []
        if needs_mem:
            if len(mems) != lanes:
                raise SimulationError(
                    f"batched run needs one Memory per lane "
                    f"({lanes} lanes, got {len(mems)})"
                )
        elif mems:
            raise SimulationError(
                "memories given but no unit of this circuit uses a memory"
            )
        self.memories: List[Memory] = mems

        #: Set by the generated loop when it catches a LaneDivergence.
        self._divergence: Optional[LaneDivergence] = None

        schedule = compile_schedule(circuit)
        self.schedule = schedule
        units = [circuit.units[n] for n in schedule.names]
        self._units = units
        for u in units:
            u.reset()

        nch = schedule.nch
        self.valid = bytearray(nch)
        self.ready = bytearray(nch)
        self.fired = bytearray(nch)
        self.data: List = [None] * nch
        self._zeros = bytes(nch)
        self._aflags = bytearray(b"\x01" * schedule.n_occ)
        self._kflags = bytearray(schedule.n_units)
        self._quiet = False
        self.cycle = 0
        self.total_fires = 0
        self._idle_cycles = 0
        self._mrd = [m.read for m in self.memories]
        self._mwr = [m.write for m in self.memories]

        source = generate_source(circuit, schedule, lanes=True)
        self.codegen_key = source_key(source)
        ns, origin = load_module(source, key=self.codegen_key)
        self.codegen_origin = origin
        self._loop = ns["make_loop"](self)
        _log.info(
            "batched codegen engine: %d lanes, lockstep module %s",
            lanes, origin,
        )

    # ------------------------------------------------------- per-lane views
    # A finished batch ran lockstep, so every lane saw every fire and
    # every sink append carries one value per lane.
    @property
    def lane_fires(self) -> List[int]:
        return [self.total_fires] * self.lanes

    def sink_count(self, name: str, lane: int) -> int:
        """Number of tokens lane ``lane`` delivered to sink ``name``."""
        return len(self.circuit.units[name].received)

    def sink_received(self, name: str, lane: int) -> list:
        """Values lane ``lane`` delivered to sink ``name``, in order."""
        return [t[lane] for t in self.circuit.units[name].received]

    # Lockstep exit statuses mean what they mean for the scalar loop.
    _raise_status = CodegenEngine._raise_status

    def run_lanes(
        self,
        done_lane: Callable[[int], bool],
        max_cycles: int = 1_000_000,
        uniform_done: bool = False,
    ) -> List[int]:
        """Run until every lane's ``done_lane(l)`` holds; per-lane cycles.

        ``uniform_done=True`` promises that under lockstep execution the
        predicate is lane-independent (true whenever it only reads lane
        counters the lockstep pass advances uniformly — per-lane memory
        read/write counts against equal targets, shared sink counts), so
        checking lane 0 suffices.  Without the promise every lane is
        checked each cycle and a *partial* done-mask — some lanes done,
        others not — is itself a divergence.

        Divergence (loop exit status 4, or a partial done-mask) ends the
        batch: the :class:`~repro.errors.LaneDivergence` leaves this
        method with its ``channel`` and ``cycle`` set, and the engine's
        state is then meaningless.  The caller reruns the lanes on
        scalar engines (:func:`~repro.frontend.runner.simulate_kernel_batch`
        does).
        """
        full = (1 << self.lanes) - 1
        rng = range(self.lanes)

        if uniform_done:
            def done() -> bool:
                return done_lane(0)
        else:
            def done() -> bool:
                mask = 0
                for l in rng:
                    if done_lane(l):
                        mask |= 1 << l
                if mask == full:
                    return True
                if mask:
                    # Caught by the generated loop's status-4 handler.
                    raise LaneDivergence(
                        "done", tuple(bool(mask >> l & 1) for l in rng)
                    )
                return False

        while True:
            budget = max(max_cycles - self.cycle, 0) + 1
            status, _ = self._loop(
                budget, done, max_cycles, self.deadlock_window,
                None, None,
            )
            if status == 1:
                return [self.cycle] * self.lanes
            if status == 4:
                exc = self._divergence
                assert exc is not None
                if exc.cycle is None:
                    exc.cycle = self.cycle
                raise exc
            self._raise_status(status, max_cycles)
