"""Specializing codegen simulation backend.

The compiled backend (:mod:`repro.sim.compiled`) already minimizes how
*often* each unit is evaluated; what it cannot remove is the interpreter
overhead of the evaluation itself — every active occurrence is a closure
call, every signal access an indexed container operation.  This backend
removes that floor the way RTL simulators do: it **emits specialized
Python source for the whole circuit** from the same levelized schedule —
one flat cycle loop in which

* every channel's valid/ready/data signal is a *local variable*
  (``v17``/``r17``/``d17``) of the generated function,
* every occurrence of every unit is an inlined straight-line block behind
  an ``if a{k}:`` activation-flag local (no closure calls, no dict
  dispatch on the hot path),
* activation propagation is *static*: a change-detected signal write
  stores ``1`` into the precomputed dependent flags directly
  (``a12 = 1``), because the activation lists are compile-time constants,
* the fire scan, trace recording, tick passes and deadlock accounting
  are unrolled over the precomputed channel/unit lists.

The generated module defines ``make_loop(rt)`` → ``loop(budget, done,
max_cycles, window, san, rec)``; one call simulates up to ``budget``
cycles entirely in local variables and only syncs the engine's signal
arrays on exit, returning ``(status, last_fires)`` with status ``0`` =
budget exhausted, ``1`` = ``done()`` satisfied, ``2`` = deadlock window
exceeded, ``3`` = ``max_cycles`` reached.  The per-unit blocks are exact
transcriptions of the compiled backend's specialized closures
(:mod:`repro.sim.codegen_blocks`), so the backend stays bit-identical to
both existing engines and is differentially tested against them.

Generated modules are cached at two levels: an in-process namespace memo
and a content-addressed disk cache under ``~/.cache/repro-codegen/``
(override with ``$REPRO_CODEGEN_CACHE``) storing the generated source
next to its marshalled bytecode.  Keys are a SHA-256 over the generated
source *plus* the sweep cache's repro-source salt and the interpreter's
bytecode magic, so editing any repro module — in particular this
generator — or switching Python versions can never serve stale code.

The generated loop drives an attached ``Trace`` and
``HandshakeSanitizer`` itself; :class:`~repro.sim.profile.SimProfile` is
rejected at construction — the loop has no per-unit instrumentation
points.  The laned lockstep variant (``lanes=True``) loads through the
same :func:`load_module` cache and backs
:class:`~repro.sim.batched.BatchedCodegenEngine`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..circuit import (
    ArbiterMerge,
    Constant,
    DataflowCircuit,
    Entry,
    FixedOrderMerge,
    FunctionalUnit,
    LoadPort,
    Sequence,
    StorePort,
)
from ..errors import CircuitError, DeadlockError, LaneDivergence, SimulationError
from .codegen_blocks import (
    CARRY_TYPES,
    EVAL_BLOCKS,
    GROUP,
    LANE_EVAL_BLOCKS,
    LANE_TICK_BLOCKS,
    TICK_BLOCKS,
)
from .deadlock import diagnose
from .engine import DEFAULT_DEADLOCK_WINDOW, BaseEngine

if TYPE_CHECKING:
    from .sanitize import HandshakeSanitizer
from .memory import Memory
from .profile import SimProfile
from .signal_graph import CircuitSchedule, compile_schedule
from .trace import Trace

#: Environment override for the generated-module disk cache directory.
CODEGEN_CACHE_ENV = "REPRO_CODEGEN_CACHE"

#: Magic prefix of the on-disk marshalled bytecode payloads.
_PYC_HEADER = b"RCG1"


def codegen_cache_dir() -> Path:
    """``$REPRO_CODEGEN_CACHE`` or ``~/.cache/repro-codegen``."""
    env = os.environ.get(CODEGEN_CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(xdg) / "repro-codegen"


# ---------------------------------------------------------------------------
# Source generation.
# ---------------------------------------------------------------------------


def _pack(lines: List[str], stmts: List[str], indent: str, per: int = 8):
    """Append ``stmts`` joined ``per`` to a line (keeps modules compact)."""
    for i in range(0, len(stmts), per):
        lines.append(indent + "; ".join(stmts[i:i + per]))


def unsupported_units(units, schedule: CircuitSchedule) -> List[str]:
    """Units the generator cannot specialize (non-catalogue types or
    unconnected ports).  The codegen backend refuses them outright — it
    has no generic fallback path by design."""
    bad: List[str] = []
    for s, u in enumerate(units):
        t = type(u)
        if t not in EVAL_BLOCKS:
            bad.append(f"{u.describe()} (no emitter for type {t.__name__})")
        elif any(c < 0 for c in schedule.in_chs[s] + schedule.out_chs[s]):
            bad.append(f"{u.describe()} (unconnected port)")
        elif schedule.tickable[s] and t not in TICK_BLOCKS:
            bad.append(f"{u.describe()} (no tick emitter)")
    return bad


def _checked_units(circuit: DataflowCircuit,
                   schedule: CircuitSchedule) -> List:
    """The schedule's units in slot order; raise if any cannot be emitted."""
    units = [circuit.units[n] for n in schedule.names]
    bad = unsupported_units(units, schedule)
    if bad:
        raise SimulationError(
            "the codegen backend cannot specialize this circuit:\n  "
            + "\n  ".join(bad)
            + "\nuse --sim-backend compiled (or event) for it"
        )
    return units


class _Layout:
    """Slot/channel/group partition of one generated loop (scalar or laned)."""

    def __init__(self, schedule: CircuitSchedule, units: List) -> None:
        in_chs, out_chs = schedule.in_chs, schedule.out_chs
        self.live = sorted(
            {c for cs in in_chs for c in cs} | {c for cs in out_chs for c in cs}
        )
        n_occ = schedule.n_occ
        self.tick_slots = [s for s in range(len(units))
                           if schedule.tickable[s]]
        self.carry_slots = [s for s in self.tick_slots
                            if isinstance(units[s], CARRY_TYPES)]
        self.needs_mem = any(
            isinstance(u, (LoadPort, StorePort)) for u in units
        )
        self.occ_groups = [
            list(range(g * GROUP, min((g + 1) * GROUP, n_occ)))
            for g in range((n_occ + GROUP - 1) // GROUP)
        ]
        self.fire_groups: "OrderedDict[int, List[int]]" = OrderedDict()
        for c in self.live:
            self.fire_groups.setdefault(c // GROUP, []).append(c)
        self.tick_groups = [self.tick_slots[i:i + GROUP]
                            for i in range(0, len(self.tick_slots), GROUP)]
        self.tgidx = {s: g for g, ss in enumerate(self.tick_groups)
                      for s in ss}


def generate_source(circuit: DataflowCircuit,
                    schedule: CircuitSchedule,
                    lanes: bool = False) -> str:
    """Emit the specialized simulation module for ``circuit``.

    Deterministic: the same circuit structure and code-shaping parameters
    always produce byte-identical source, which is what the disk cache
    keys on.  Runtime-only parameters (token values, operand constants,
    compute functions, memory) are bound through ``rt`` in ``make_loop``.

    ``lanes=True`` emits the *laned lockstep* variant used by the batched
    engine (:mod:`repro.sim.batched`): same loop skeleton and scalar
    control signals, data locals widened to per-lane tuples, load/store
    dispatch through per-lane memory method lists, and ``LaneDivergence``
    raised where per-lane values disagree on a control decision.  The
    laned loop catches that divergence itself and exits with status 4;
    the engine re-raises it to end the batch.  The lane count itself is a
    runtime binding (``rt.lanes``), so one laned module serves every
    batch width — but laned and scalar source always differ (distinct
    disk-cache keys).
    """
    units = _checked_units(circuit, schedule)
    eval_blocks = LANE_EVAL_BLOCKS if lanes else EVAL_BLOCKS
    tick_blocks = LANE_TICK_BLOCKS if lanes else TICK_BLOCKS

    in_chs, out_chs = schedule.in_chs, schedule.out_chs
    lay = _Layout(schedule, units)
    live, n_occ = lay.live, schedule.n_occ
    tick_slots, carry_slots = lay.tick_slots, lay.carry_slots
    needs_mem = lay.needs_mem

    L: List[str] = []
    add = L.append
    _header(L, "laned lockstep" if lanes else "scalar", schedule, units,
            lay)
    add("def make_loop(rt):")
    add("    U = rt._units")
    add("    V = rt.valid")
    add("    R = rt.ready")
    add("    D = rt.data")
    add("    F = rt.fired")
    add("    A = rt._aflags")
    add("    KF = rt._kflags")
    add("    ZB = rt._zeros")
    if lanes:
        add("    LB = rt.lanes")
    if needs_mem:
        if lanes:
            add("    mrd = rt._mrd")
            add("    mwr = rt._mwr")
        else:
            add("    mrd = rt.memory.read")
            add("    mwr = rt.memory.write")
    binds: List[str] = []
    for s, u in enumerate(units):
        binds.append(f"u{s} = U[{s}]")
        if isinstance(u, FunctionalUnit):
            binds.append(f"cp{s} = u{s}._compute")
            for slot in sorted(u.const_ops):
                binds.append(f"uc{s}_{slot} = u{s}.const_ops[{slot}]")
        if isinstance(u, (Entry, Constant)):
            if lanes:
                binds.append(f"uv{s} = (u{s}.value,) * LB")
            else:
                binds.append(f"uv{s} = u{s}.value")
        if lanes and isinstance(u, Sequence):
            binds.append(
                f"usq{s} = tuple((_x,) * LB for _x in u{s}.values)"
            )
        if lanes and isinstance(u, (ArbiterMerge, FixedOrderMerge)):
            binds.append(
                f"lsel{s} = tuple((_i,) * LB for _i in range({u.n_in}))"
            )
    _pack(L, binds, "    ", per=4)
    add("")
    add("    def loop(budget, done, max_cycles, window, san, rec):")
    P = "        "  # loop-prologue indent
    # The laned loop wraps its cycle loop in try/except LaneDivergence
    # (exit status 4: the batched engine ends the batch), so its body
    # sits one level deeper; scalar source is unchanged.
    W = P + ("    " if lanes else "")  # while-statement indent
    B = W + "    "  # cycle-body indent

    occ_groups, fire_groups = lay.occ_groups, lay.fire_groups
    tick_groups, tgidx = lay.tick_groups, lay.tgidx

    # -- prologue: pull everything into locals -----------------------------
    _pack(L, [f"v{c} = V[{c}]; r{c} = R[{c}]; d{c} = D[{c}]" for c in live],
          P, per=2)
    _pack(L, [f"a{k} = A[{k}]" for k in range(n_occ)], P)
    # Group-activity flags: ga{g} covers GROUP consecutive occurrences,
    # fg{g} GROUP consecutive channels (conservatively armed on entry).
    _pack(L, [f"ga{g} = " + " or ".join(f"a{k}" for k in ks) + " or 0"
              for g, ks in enumerate(occ_groups)], P, per=2)
    _pack(L, [f"fg{g} = 1" for g in fire_groups], P)
    _pack(L, [f"k{s} = KF[{s}]" for s in carry_slots], P)
    _pack(L, [f"t{s} = 0; tb{s} = 0" for s in tick_slots], P, per=4)
    # Tick-group flags: tg{g} is armed by the fire scan when any member's
    # t flag is set (member carries are ORed into the guard directly, so
    # they need no arming); tgb{g} gates the pass-2 group.
    _pack(L, [f"tg{g} = 0; tgb{g} = 0" for g in range(len(tick_groups))],
          P, per=4)
    if carry_slots:
        add(P + "kany = " + " or ".join([f"k{s}" for s in carry_slots] + ["0"]))
    else:
        add(P + "kany = 0")
    add(P + "quiet = rt._quiet")
    add(P + "cycle = rt.cycle")
    add(P + "idle = rt._idle_cycles")
    add(P + "total_fires = rt.total_fires")
    add(P + "status = 0")
    add(P + "fires = 0")
    if lanes:
        add(P + "try:")
    add(W + "while budget > 0:")
    add(B + "if done is not None:")
    add(B + "    if done():")
    add(B + "        status = 1")
    add(B + "        break")
    add(B + "    if cycle >= max_cycles:")
    add(B + "        status = 3")
    add(B + "        break")
    add(B + "budget -= 1")
    add(B + "if quiet:")
    add(B + "    fires = 0")
    add(B + "    if san is not None:")
    add(B + "        san.observe_quiet()")
    add(B + "    cycle += 1")
    add(B + "    idle += 1")
    add(B + "    if done is not None and idle >= window:")
    add(B + "        status = 2")
    add(B + "        break")
    add(B + "    continue")

    # -- combinational pass: active occurrences in schedule order ----------
    add(B + "# combinational pass")
    for g, ks in enumerate(occ_groups):
        add(B + f"if ga{g}:")
        add(B + f"    ga{g} = 0")
        for k in ks:
            s = schedule.occ_units[k]
            u = units[s]
            block = eval_blocks[type(u)](
                s, u, in_chs[s], out_chs[s], schedule
            )
            add(B + f"    if a{k}:")
            add(B + f"        a{k} = 0")
            for line in block:
                add(B + "        " + line)

    # -- fire scan ---------------------------------------------------------
    # A group's flag is armed by any write to a member signal; a firing
    # member re-arms it (v and r persist high until something changes).
    add(B + "# fire scan")
    add(B + "fires = 0")
    for g, cs in fire_groups.items():
        add(B + f"if fg{g}:")
        add(B + f"    fg{g} = 0")
        for c in cs:
            add(B + f"    if v{c} and r{c}:")
            add(B + "        fires += 1")
            add(B + f"        fg{g} = 1")
            for s in schedule.tick_mark[c]:
                add(B + f"        t{s} = 1")
            for tg in sorted({tgidx[s] for s in schedule.tick_mark[c]}):
                add(B + f"        tg{tg} = 1")
            add(B + "        if rec is not None:")
            add(B + f"            rec({c}, cycle)")

    # -- sanitizer observes the fixpoint (arrays synced on demand) ---------
    add(B + "if san is not None:")
    _pack(L, [f"V[{c}] = v{c}; R[{c}] = r{c}; D[{c}] = d{c}" for c in live],
          B + "    ", per=2)
    add(B + "    if fires:")
    for c in live:
        add(B + f"        if v{c} and r{c}:")
        add(B + f"            F[{c}] = 1")
    add(B + "    san.observe(cycle, V, R, D, F)")
    add(B + "    if fires:")
    add(B + "        F[:] = ZB")

    add(B + "total_fires += fires")
    add(B + "progress = 1 if fires else kany")
    add(B + "ticked = 0")

    # -- clock edge, pass 1: state transitions on the pristine fixpoint ----
    if tick_slots:
        add(B + "# clock edge: state transitions (pristine fixpoint)")
        for g, ss in enumerate(tick_groups):
            guard = " or ".join(
                [f"tg{g}"] + [f"k{s}" for s in ss if s in carry_slots]
            )
            add(B + f"if {guard}:")
            add(B + f"    tg{g} = 0")
            for s in ss:
                u = units[s]
                tk_gen, _pk_gen = tick_blocks[type(u)]
                member = (f"if t{s} or k{s}:" if s in carry_slots
                          else f"if t{s}:")
                add(B + "    " + member)
                add(B + f"        t{s} = 0")
                add(B + f"        tb{s} = 1")
                add(B + "        ticked = 1")
                add(B + f"        tgb{g} = 1")
                for line in tk_gen(s, u, in_chs[s], out_chs[s], schedule):
                    add(B + "        " + line)

        # -- pass 2: recompute ticked units' signals, refresh carries ------
        add(B + "if ticked:")
        for g, ss in enumerate(tick_groups):
            add(B + f"    if tgb{g}:")
            add(B + f"        tgb{g} = 0")
            for s in ss:
                u = units[s]
                _tk_gen, pk_gen = tick_blocks[type(u)]
                add(B + f"        if tb{s}:")
                add(B + f"            tb{s} = 0")
                for line in pk_gen(s, u, in_chs[s], out_chs[s], schedule):
                    add(B + "            " + line)
        if carry_slots:
            add(B + "    kany = "
                + " or ".join([f"k{s}" for s in carry_slots] + ["0"]))

    add(B + "quiet = 0 if (fires or ticked) else 1")
    add(B + "idle = 0 if progress else idle + 1")
    add(B + "cycle += 1")
    add(B + "if done is not None and idle >= window:")
    add(B + "    status = 2")
    add(B + "    break")
    if lanes:
        # Divergence aborts the current cycle mid-comb-pass; the epilogue
        # below still publishes the cycle count, which the engine stamps
        # on the exception.
        add(P + "except LaneDivergence as _e:")
        add(P + "    rt._divergence = _e")
        add(P + "    status = 4")

    # -- epilogue: publish locals back to the engine -----------------------
    _pack(L, [f"V[{c}] = v{c}; R[{c}] = r{c}; D[{c}] = d{c}" for c in live],
          P, per=2)
    _pack(L, [f"A[{k}] = a{k}" for k in range(n_occ)], P)
    _pack(L, [f"KF[{s}] = k{s}" for s in carry_slots], P)
    add(P + "rt.cycle = cycle")
    add(P + "rt._idle_cycles = idle")
    add(P + "rt.total_fires = total_fires")
    add(P + "rt._quiet = quiet")
    add(P + "return status, fires")
    add("")
    add("    return loop")
    add("")
    return "\n".join(L)


def _header(L: List[str], variant: str, schedule: CircuitSchedule,
            units: List, lay: _Layout) -> None:
    """The module banner.  ``variant`` names the module kind, so scalar
    and laned-lockstep sources never share a cache key."""
    L.append(f"# Generated by repro.sim.codegen ({variant}) -- "
             "do not edit by hand.")
    L.append(f"# structure {schedule.key[:16]}: {len(units)} units, "
             f"{len(lay.live)} channels, {schedule.n_occ} occurrences, "
             f"{len(lay.tick_slots)} tickable")
    L.append("")


# ---------------------------------------------------------------------------
# Module cache: in-process namespace memo + content-addressed disk cache.
# ---------------------------------------------------------------------------

#: Load origins observed this process, for cache tests and CI assertions.
CODEGEN_STATS = {"generated": 0, "disk": 0, "memory": 0}

_MODULE_CACHE: "OrderedDict[str, dict]" = OrderedDict()
_MODULE_CACHE_MAX = 64


def source_key(source: str) -> str:
    """Content address of one generated module.

    Covers the generated source itself, the repro source salt (any edit
    to a repro module — including this generator — changes it) and the
    interpreter's bytecode magic, so a cached module can never be served
    stale across code or interpreter changes.
    """
    from ..sweep.cache import code_salt

    h = hashlib.sha256()
    h.update(code_salt().encode())
    h.update(importlib.util.MAGIC_NUMBER)
    h.update(b"\0")
    h.update(source.encode())
    return h.hexdigest()


def _atomic_write(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def load_module(source: str, key: Optional[str] = None) -> Tuple[dict, str]:
    """Return ``(namespace, origin)`` for ``source``.

    ``origin`` is ``"memory"`` (in-process memo), ``"disk"`` (marshalled
    bytecode loaded from the cache directory) or ``"generated"``
    (compiled now; the source and bytecode are published to disk).
    """
    if key is None:
        key = source_key(source)
    ns = _MODULE_CACHE.get(key)
    if ns is not None:
        _MODULE_CACHE.move_to_end(key)
        CODEGEN_STATS["memory"] += 1
        return ns, "memory"

    cdir = codegen_cache_dir() / key[:2]
    py_path = cdir / f"{key}.py"
    pyc_path = cdir / f"{key}.pyc"

    code = None
    origin = "disk"
    try:
        blob = pyc_path.read_bytes()
        if blob[: len(_PYC_HEADER)] == _PYC_HEADER:
            code = marshal.loads(blob[len(_PYC_HEADER):])
    except (OSError, ValueError, EOFError, TypeError):
        code = None
    if code is None:
        origin = "generated"
        code = compile(source, str(py_path), "exec")
        try:
            cdir.mkdir(parents=True, exist_ok=True)
            _atomic_write(py_path, source.encode())
            _atomic_write(pyc_path, _PYC_HEADER + marshal.dumps(code))
        except OSError:
            pass  # cache is an optimization; never fail the simulation

    ns = {"CircuitError": CircuitError, "LaneDivergence": LaneDivergence}
    exec(code, ns)
    _MODULE_CACHE[key] = ns
    while len(_MODULE_CACHE) > _MODULE_CACHE_MAX:
        _MODULE_CACHE.popitem(last=False)
    CODEGEN_STATS[origin] += 1
    return ns, origin


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class CodegenEngine(BaseEngine):
    """Specialized-source simulator; bit-identical to both other backends."""

    backend = "codegen"

    def __init__(
        self,
        circuit: DataflowCircuit,
        memory: Optional[Memory] = None,
        trace: Optional[Trace] = None,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
        profile: Optional[SimProfile] = None,
        sanitize: Union[bool, "HandshakeSanitizer", None] = None,
    ):
        if profile is not None:
            raise SimulationError(
                "the codegen backend cannot drive a SimProfile: the "
                "generated hot loop has no per-unit instrumentation "
                "points; use --sim-backend compiled (or event) to profile"
            )
        self._init_common(
            circuit, memory, trace, deadlock_window, None, sanitize
        )

        schedule = compile_schedule(circuit)
        self.schedule = schedule
        units = [circuit.units[n] for n in schedule.names]
        self._units = units
        self._slot_of: Dict[str, int] = {
            n: i for i, n in enumerate(schedule.names)
        }

        nch = schedule.nch
        self.valid = bytearray(nch)
        self.ready = bytearray(nch)
        self.fired = bytearray(nch)
        self.data: List = [None] * nch
        self._zeros = bytes(nch)
        self._aflags = bytearray(b"\x01" * schedule.n_occ)
        self._kflags = bytearray(schedule.n_units)
        self._quiet = False

        self._reset_units(units)

        source = generate_source(circuit, schedule)
        self.codegen_key = source_key(source)
        ns, origin = load_module(source, key=self.codegen_key)
        #: How the generated module was obtained: ``"generated"``,
        #: ``"disk"`` or ``"memory"``.
        self.codegen_origin = origin
        self._loop = ns["make_loop"](self)

    # ------------------------------------------------------------------ step
    def step(self) -> int:
        """Simulate one clock cycle; return the number of channel fires."""
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        _status, fires = self._loop(
            1, None, 0, self.deadlock_window, self.sanitizer, rec
        )
        return fires

    def run_cycles(self, n: int) -> int:
        """Advance exactly ``n`` cycles (no deadlock abort); return fires."""
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        before = self.total_fires
        self._loop(n, None, 0, self.deadlock_window, self.sanitizer, rec)
        return self.total_fires - before

    # ------------------------------------------------------------------- run
    def _raise_status(self, status: int, max_cycles: int) -> None:
        """Raise the BaseEngine-equivalent error for a loop exit status."""
        if status == 2:
            blocked = diagnose(self.circuit, self.valid, self.ready)
            raise DeadlockError(
                f"deadlock at cycle {self.cycle}: no activity for "
                f"{self._idle_cycles} cycles\n  " + "\n  ".join(blocked),
                cycle=self.cycle,
                blocked=blocked,
            )
        if status == 3:
            raise SimulationError(
                f"simulation exceeded {max_cycles} cycles without "
                f"completing ({self.total_fires} transfers so far)"
            )

    def run(self, done, max_cycles: int = 1_000_000) -> int:
        """Run until ``done()`` holds; same contract as BaseEngine.run."""
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        san = self.sanitizer
        while True:
            budget = max(max_cycles - self.cycle, 0) + 1
            status, _ = self._loop(
                budget, done, max_cycles, self.deadlock_window, san, rec
            )
            if status == 1:
                break
            self._raise_status(status, max_cycles)
            # status 0: budget exhausted before any terminal condition
            # (possible only when cycle started beyond max_cycles); loop.
        if san is not None:
            san.finish()
            san.raise_if_violations()
        return self.cycle
