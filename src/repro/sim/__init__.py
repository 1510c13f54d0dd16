"""Cycle-accurate handshake simulation (the ModelSim substitute).

Three interchangeable backends simulate the same two-phase handshake
semantics:

``"event"``
    :class:`Engine` — the event-driven reference implementation: a dirty
    queue drives ``eval_comb`` re-evaluation to a per-cycle fixpoint.

``"compiled"``
    :class:`CompiledEngine` — compiles the circuit once into a static
    rank-ordered evaluation schedule and replays it through specialized
    per-unit closures, with activation gating and a big-integer fire
    scan.  Bit-identical to the event engine (differentially tested)
    and several times faster, so it is the default.

``"codegen"``
    :class:`CodegenEngine` — emits specialized Python source for the
    whole circuit from the same levelized schedule (one flat cycle loop,
    unit logic inlined over local variables; no closure calls or dict
    dispatch on the hot path), ``exec``'d and cached on disk under a
    content-addressed key.  Bit-identical to both other backends
    (differentially tested on all goldens and under hypothesis
    lockstep).  It cannot drive a :class:`SimProfile` and says so.

``lanes=`` selects the one batched engine (:mod:`repro.sim.batched`):
``"compiled"`` and ``"codegen"`` both build
:class:`BatchedCodegenEngine`, a lane-parallel lockstep generated loop
loaded through the codegen disk cache.  It runs lockstep only: control
divergence between lanes ends the batch, and the kernel runner reruns
its seeds on scalar codegen.  ``"event"`` is refused there: the event
engine simulates one input set at a time.

Select a backend with :func:`create_engine`, the ``--sim-backend`` CLI
flag, or the ``REPRO_SIM_BACKEND`` environment variable.

All backends accept ``sanitize=True`` (or ``REPRO_SIM_SANITIZE=1``) to
run the opt-in handshake-protocol sanitizer
(:class:`~repro.sim.sanitize.HandshakeSanitizer`): every channel is
checked each cycle for the latency-insensitive contract — valid held
until accepted, data stable while pending, no token dropped or
duplicated — with violations reported as ``repro.lint`` diagnostics.
"""

import os

from ..errors import SimulationError
from .batched import BatchedCodegenEngine
from .codegen import CodegenEngine
from .compiled import CompiledEngine
from .engine import DEFAULT_DEADLOCK_WINDOW, BaseEngine, Engine
from .memory import Memory
from .profile import SimProfile
from .sanitize import SANITIZE_ENV, HandshakeSanitizer, sanitize_default
from .trace import Trace

#: Available simulation backends, by name.
BACKENDS = {
    "event": Engine,
    "compiled": CompiledEngine,
    "codegen": CodegenEngine,
}

#: Backend used when none is requested explicitly.  Overridable through
#: the environment so a whole test run can be pinned to one backend.
DEFAULT_BACKEND = os.environ.get("REPRO_SIM_BACKEND", "compiled")


def create_engine(circuit, backend=None, lanes=None, memories=None,
                  **kwargs):
    """Instantiate the requested simulation backend for ``circuit``.

    ``backend`` is ``"event"``, ``"compiled"``, ``"codegen"`` or ``None``
    (use :data:`DEFAULT_BACKEND`); remaining keyword arguments
    (``memory``, ``trace``, ``deadlock_window``, ``profile``,
    ``sanitize``) are forwarded to the engine constructor.

    ``lanes`` switches to the batched (lane-parallel)
    :class:`BatchedCodegenEngine` (:mod:`repro.sim.batched`), for either
    generated-loop backend name: it evaluates ``lanes`` independent
    input sets per pass and exposes ``run_lanes`` / ``sink_count`` /
    ``lane_fires`` instead of the scalar ``run``.  ``memories`` then
    supplies one :class:`Memory` per lane (instead of the scalar
    ``memory=`` argument).
    """
    name = backend or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    if lanes is not None:
        if name == "event":
            raise SimulationError(
                "the event backend simulates one input set at a time; "
                "batched (lanes=) runs need 'compiled' or 'codegen'"
            )
        if kwargs.pop("memory", None) is not None:
            raise SimulationError(
                "the batched engine takes one memory per lane via "
                "memories=[...], not the scalar memory= argument"
            )
        return BatchedCodegenEngine(
            circuit, lanes, memories=memories, **kwargs
        )
    if memories is not None:
        raise SimulationError(
            "memories= is only meaningful with lanes= (batched mode); "
            "scalar engines take a single memory="
        )
    return BACKENDS[name](circuit, **kwargs)


__all__ = [
    "BACKENDS",
    "BaseEngine",
    "BatchedCodegenEngine",
    "CodegenEngine",
    "CompiledEngine",
    "DEFAULT_BACKEND",
    "DEFAULT_DEADLOCK_WINDOW",
    "Engine",
    "HandshakeSanitizer",
    "Memory",
    "SANITIZE_ENV",
    "SimProfile",
    "Trace",
    "create_engine",
    "sanitize_default",
]
