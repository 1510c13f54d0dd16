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

``lanes=`` selects the batched family (:mod:`repro.sim.batched`):
``"compiled"`` and ``"codegen"`` both map to
:class:`BatchedCodegenEngine`, one lane-parallel generated loop loaded
through the codegen disk cache, while ``"event"`` runs the lanes one
after another on scalar event engines.

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
from .batched import (
    BATCHED_BACKENDS,
    LANES_ENV,
    BatchedCodegenEngine,
    BatchedEventEngine,
    create_batched_engine,
    lanes_default,
)
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

    ``lanes`` switches to the batched (lane-parallel) engine family
    (:mod:`repro.sim.batched`): the returned engine evaluates ``lanes``
    independent input sets per pass and exposes ``run_lanes`` /
    ``sink_count`` / ``lane_fires`` instead of the scalar ``run``.
    ``memories`` then supplies one :class:`Memory` per lane (instead of
    the scalar ``memory=`` argument).
    """
    name = backend or DEFAULT_BACKEND
    if lanes is not None:
        if kwargs.get("memory") is not None:
            raise SimulationError(
                "batched engines take one memory per lane via memories=[...],"
                " not the scalar memory= argument"
            )
        kwargs.pop("memory", None)
        return create_batched_engine(
            circuit, name, lanes, memories=memories, **kwargs
        )
    if memories is not None:
        raise SimulationError(
            "memories= is only meaningful with lanes= (batched mode); "
            "scalar engines take a single memory="
        )
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(BACKENDS)}"
        ) from None
    return cls(circuit, **kwargs)


__all__ = [
    "BACKENDS",
    "BATCHED_BACKENDS",
    "BaseEngine",
    "BatchedCodegenEngine",
    "BatchedEventEngine",
    "CodegenEngine",
    "CompiledEngine",
    "DEFAULT_BACKEND",
    "DEFAULT_DEADLOCK_WINDOW",
    "Engine",
    "HandshakeSanitizer",
    "LANES_ENV",
    "Memory",
    "SANITIZE_ENV",
    "SimProfile",
    "Trace",
    "create_batched_engine",
    "create_engine",
    "lanes_default",
    "sanitize_default",
]
