"""Per-unit-type source emitters for the codegen simulation backend.

Each emitter renders one unit's combinational evaluation (or clock-edge
transition) as straight-line Python statements over *local variables*:
channel ``c``'s forward signal lives in locals ``v{c}``/``d{c}``, its
backward signal in ``r{c}``, and occurrence ``k``'s activation flag in
``a{k}``.  The blocks are exact source-level transcriptions of the
specialized closures in :mod:`repro.sim.compiled` — same driven values,
same change-detection points, same activation semantics — with every
dynamic structure (activation lists, port index loops, priority orders)
unrolled into constants, so the hot loop runs no closure calls, no dict
dispatch and no attribute lookups on the fast path.

Clock-edge blocks run in two passes (see the compiled backend): the
``tk`` pass commits sequential state reading the cycle's pristine
fixpoint — no signal local is written during that pass, so ``fired`` of
channel ``c`` is simply ``(v{c} and r{c})`` and needs no storage — and
the ``pk`` pass recomputes the ticked unit's driven signals with the
usual change detection.  Pipelined units additionally report their carry
flag (can the unit progress without any channel firing?) into the
persistent local ``k{slot}``.
"""

from __future__ import annotations

from typing import List

from ..circuit import (
    ArbiterMerge,
    Branch,
    Constant,
    CreditCounter,
    Demux,
    EagerFork,
    ElasticBuffer,
    Entry,
    FixedOrderMerge,
    FunctionalUnit,
    Join,
    LazyFork,
    LoadPort,
    Merge,
    Mux,
    Sequence,
    Sink,
    StorePort,
    TransparentFifo,
)


#: Members per group-activity flag.  The generated loop guards the
#: combinational section and the fire scan hierarchically: ``GROUP``
#: consecutive occurrences (channels) share one ``ga{g}`` (``fg{g}``)
#: flag, set here at every activation (signal write) site, so a fully
#: idle group costs one check instead of ``GROUP``.
GROUP = 8


def _acts(sched, node_acts) -> List[str]:
    """Activation stores for one signal change: static ``a{k} = 1`` lines
    plus the group-activity flags covering them."""
    lines = [f"ga{g} = 1" for g in sorted({k // GROUP for k in node_acts})]
    lines += [f"a{k} = 1" for k in node_acts]
    return lines


def _fire_flag(c) -> str:
    """Fire-scan group flag store for a write to channel ``c``'s signals."""
    return f"fg{c // GROUP} = 1"


def _fwd_change(sched, co, extra_cond=None) -> List[str]:
    """Standard forward-signal change detection for channel ``co``.

    Assumes the new value/data are in ``nv``/``nd``.
    """
    lines = [f"if v{co} != nv or d{co} != nd:"]
    lines += [f"    v{co} = nv", f"    d{co} = nd", f"    {_fire_flag(co)}"]
    lines += [f"    {s}" for s in _acts(sched, sched.f_act[co])]
    return lines


def _bwd_change(sched, ci) -> List[str]:
    """Standard backward-signal change detection for channel ``ci``.

    Assumes the new ready value is in ``nr``.
    """
    lines = [f"if r{ci} != nr:"]
    lines += [f"    r{ci} = nr", f"    {_fire_flag(ci)}"]
    lines += [f"    {s}" for s in _acts(sched, sched.b_act[ci])]
    return lines


def _miss_scan(chs) -> List[str]:
    """Unrolled count of not-valid inputs into ``miss``/``last``."""
    lines = ["miss = 0", "last = -1"]
    for i, c in enumerate(chs):
        lines += [f"if not v{c}:", "    miss += 1", f"    last = {i}"]
    return lines


def _fu_operands(s: int, u: FunctionalUnit, ics) -> str:
    """Operand-tuple expression for a plain or const-folded FU."""
    if not u.const_ops:
        return "(" + ", ".join(f"d{c}" for c in ics) + ("," if len(ics) == 1 else "") + ")"
    parts = []
    live = 0
    for slot in range(u.spec.n_in):
        if slot in u.const_ops:
            parts.append(f"uc{s}_{slot}")
        else:
            parts.append(f"d{ics[live]}")
            live += 1
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


# ---------------------------------------------------------------------------
# Combinational evaluation blocks (one per occurrence of the unit).
# ---------------------------------------------------------------------------


def eval_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"q = u{s}._q"]
    lines += ["if q:", "    nv = 1", "    nd = q[0]",
              "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = len(q) < {u.slots}"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"q = u{s}._q"]
    lines += ["if q:", "    nv = 1", "    nd = q[0]",
              "else:", f"    nv = v{ci}",
              f"    nd = d{ci} if nv else None"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = len(q) < {u.slots}"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_credit_counter(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = 1 if u{s}._count > 0 else 0"]
    lines += [f"if v{co} != nv:", f"    v{co} = nv",
              f"    {_fire_flag(co)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.f_act[co])]
    lines += [f"if not r{ci}:", f"    r{ci} = 1", f"    {_fire_flag(ci)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.b_act[ci])]
    return lines


def eval_entry(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"nv = 1 if u{s}._remaining > 0 else 0", f"nd = uv{s}"]
    lines += _fwd_change(sched, co)
    return lines


def eval_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"sv = u{s}.values", f"sp = u{s}._pos"]
    lines += ["if sp < len(sv):", "    nv = 1", "    nd = sv[sp]",
              "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    return lines


def eval_sink(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"if not r{ci}:", f"    r{ci} = 1", f"    {_fire_flag(ci)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.b_act[ci])]
    return lines


def eval_constant(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = v{ci}", f"nd = uv{s}"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = r{co}"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_eager_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"iv = v{ci}", f"nd = d{ci} if iv else None",
             f"sent = u{s}._sent", "adone = True"]
    for i, co in enumerate(oc):
        lines += [f"nv = iv and not sent[{i}]"]
        lines += _fwd_change(sched, co)
        lines += [f"if not (sent[{i}] or r{co}):", "    adone = False"]
    lines += ["nr = adone"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_lazy_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"iv = v{ci}", f"nd = d{ci} if iv else None",
             "miss = 0", "last = -1"]
    for i, co in enumerate(oc):
        lines += [f"if not r{co}:", "    miss += 1", f"    last = {i}"]
    for i, co in enumerate(oc):
        lines += [
            f"nv = iv and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _fwd_change(sched, co)
    lines += ["nr = miss == 0"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_join(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = _miss_scan(ic)
    if u.data_mode == "tuple":
        bundle = ic[: u.n_bundle]
        tup = ", ".join(f"d{c}" for c in bundle)
        if len(bundle) == 1:
            tup += ","
        data = f"({tup})"
    else:
        data = f"d{ic[0]}"
    lines += ["if miss == 0:", f"    nd = {data}", "    nv = 1",
              "else:", "    nd = None", "    nv = 0"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [
            f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def eval_merge(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = []
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} v{c}:", f"    sel = {i}", "    nv = 1",
                  f"    nd = d{c}"]
    lines += ["else:", "    sel = -1", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [f"nr = ordy and sel == {i}"]
        lines += _bwd_change(sched, ci)
    return lines


def eval_arbiter_merge(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    lines = []
    for j, i in enumerate(u.priority):
        kw = "if" if j == 0 else "elif"
        lines += [f"{kw} v{ic[i]}:", f"    sel = {i}", f"    sd = d{ic[i]}"]
    lines += ["else:", "    sel = -1", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}", "found = sel >= 0"]
    lines += ["nv = found and ro1", "nd = sd"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = found and ro0", "nd = sel if found else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i}"]
        lines += _bwd_change(sched, ci)
    return lines


def _fom_signals(s, u, ic, oc, sched) -> List[str]:
    """Shared FixedOrderMerge output/ready recompute (eval and pk)."""
    o0, o1 = oc
    lines = [f"sel = u{s}.order[u{s}._pos]"]
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    sv = v{c}", f"    sd = d{c}"]
    lines += ["else:", "    sv = 0", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}"]
    lines += ["nv = sv and ro1", "nd = sd if sv else None"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = sv and ro0", "nd = sel if sv else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i} and sv"]
        lines += _bwd_change(sched, ci)
    return lines


def eval_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _fom_signals(s, u, ic, oc, sched)


def eval_mux(s, u, ic, oc, sched) -> List[str]:
    cs = ic[0]
    dchs = ic[1:]
    co = oc[0]
    nd = u.n_data
    lines = [f"sv = v{cs}", "sel = -1"]
    lines += ["if sv:", f"    sel = int(d{cs})",
              f"    if not 0 <= sel < {nd}:",
              "        raise CircuitError(",
              f"            \"mux {u.name!r}: select value %d out of range\""
              " % sel)"]
    lines += ["dv = False", "nd = None"]
    for i, c in enumerate(dchs):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    dv = v{c}",
                  f"    nd = d{c} if dv else None"]
    lines += ["if dv:", "    nv = 1", "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}", "nr = ordy and dv"]
    lines += _bwd_change(sched, cs)
    for i, ci in enumerate(dchs):
        lines += [f"nr = ordy and sv and {i} == sel"]
        lines += _bwd_change(sched, ci)
    return lines


def eval_branch(s, u, ic, oc, sched) -> List[str]:
    cc, cd = ic
    ot, of_ = oc
    lines = [f"cv = v{cc}", f"dv = v{cd}", "both = cv and dv", "tgt = -1"]
    lines += ["if cv:", f"    tgt = 0 if d{cc} else 1"]
    lines += [f"nd = d{cd} if dv else None"]
    lines += ["nv = both and tgt == 0"]
    lines += _fwd_change(sched, ot)
    lines += ["nv = both and tgt == 1"]
    lines += _fwd_change(sched, of_)
    lines += ["if tgt == 0:", f"    tr = r{ot}",
              "elif tgt == 1:", f"    tr = r{of_}",
              "else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, cc)
    lines += ["nr = cv and tr"]
    lines += _bwd_change(sched, cd)
    return lines


def eval_demux(s, u, ic, oc, sched) -> List[str]:
    ci0, ci1 = ic
    n = u.n_out
    lines = [f"sv = v{ci0}", f"dv = v{ci1}", "both = sv and dv", "tgt = -1"]
    lines += ["if sv:", f"    tgt = int(d{ci0})",
              f"    if not 0 <= tgt < {n}:",
              "        raise CircuitError(",
              f"            \"demux {u.name!r}: index %d out of range\""
              " % tgt)"]
    lines += [f"nd = d{ci1} if dv else None"]
    for i, co in enumerate(oc):
        lines += [f"nv = both and tgt == {i}"]
        lines += _fwd_change(sched, co)
    for i, co in enumerate(oc):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} tgt == {i}:", f"    tr = r{co}"]
    lines += ["else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, ci0)
    lines += ["nr = sv and tr"]
    lines += _bwd_change(sched, ci1)
    return lines


def _fu_result(s, u, ic) -> str:
    """Expression computing the FU result from the data locals."""
    if u.bundled:
        return f"cp{s}(_t if isinstance(_t, tuple) else (_t,))"
    return f"cp{s}({_fu_operands(s, u, ic)})"


def eval_functional(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    if u.latency == 0:
        lines = _miss_scan(ic)
        lines += ["if miss == 0:", "    nv = 1"]
        if u.bundled:
            lines += [f"    _t = d{ic[0]}"]
        lines += [f"    nd = {_fu_result(s, u, ic)}"]
        lines += ["else:", "    nv = 0", "    nd = None"]
        lines += _fwd_change(sched, co)
        lines += [f"ordy = r{co}"]
        for i, ci in enumerate(ic):
            lines += [
                f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
            ]
            lines += _bwd_change(sched, ci)
        return lines

    lines = [f"head = u{s}._pipe[-1]"]
    lines += ["if head is not None:", "    nv = 1", "    nd = head[0]",
              f"    adv = r{co}",
              "else:", "    nv = 0", "    nd = None", "    adv = True"]
    lines += _fwd_change(sched, co)
    lines += _miss_scan(ic)
    for i, ci in enumerate(ic):
        lines += [
            f"nr = adv and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def eval_load_port(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"head = u{s}._pipe[-1]"]
    lines += ["if head is not None:", "    nv = 1", "    nd = head[0]",
              f"    nr = r{co}",
              "else:", "    nv = 0", "    nd = None", "    nr = True"]
    lines += _fwd_change(sched, co)
    lines += _bwd_change(sched, ci)
    return lines


def eval_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    co = oc[0]
    lines = [f"head = u{s}._pipe[-1]"]
    lines += ["if head is not None:", "    nv = 1", f"    adv = r{co}",
              "else:", "    nv = 0", "    adv = True"]
    lines += [f"if v{co} != nv or d{co} is not None:",
              f"    v{co} = nv", f"    d{co} = None", f"    {_fire_flag(co)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.f_act[co])]
    lines += [f"av = v{ca}", f"dv = v{cd}"]
    lines += ["nr = adv and dv"]
    lines += _bwd_change(sched, ca)
    lines += ["nr = adv and av"]
    lines += _bwd_change(sched, cd)
    return lines


# ---------------------------------------------------------------------------
# Clock-edge blocks.  ``tk`` commits state against the pristine fixpoint
# (channel c fired iff ``v{c} and r{c}``; no signal local is written in
# this pass); ``pk`` recomputes the unit's driven signals and, for
# pipelined units, refreshes the persistent carry flag ``k{slot}``.
# ---------------------------------------------------------------------------


def tick_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    return [
        f"q = u{s}._q",
        f"if v{co} and r{co}:",
        "    q.popleft()",
        f"if v{ci} and r{ci}:",
        f"    q.append(d{ci})",
    ]


def tick_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    return [
        f"q = u{s}._q",
        "if q:",
        f"    if v{co} and r{co}:",
        "        q.popleft()",
        f"    if v{ci} and r{ci}:",
        f"        q.append(d{ci})",
        f"elif (v{ci} and r{ci}) and not (v{co} and r{co}):",
        f"    q.append(d{ci})",
    ]


def tick_credit_counter(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    initial = u.initial
    return [
        f"c_ = u{s}._count",
        f"if v{co} and r{co}:",
        "    c_ -= 1",
        f"if v{ci} and r{ci}:",
        "    c_ += 1",
        f"u{s}._count = c_",
        f"if not 0 <= c_ <= {initial}:",
        "    raise CircuitError(",
        f"        \"credit counter {u.name!r}: count %d escaped \"",
        f"        \"[0, {initial}] -- more credits returned than granted\""
        " % c_)",
    ]


def tick_entry(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    return [f"if v{co} and r{co}:", f"    u{s}._remaining -= 1"]


def tick_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    return [f"if v{co} and r{co}:", f"    u{s}._pos += 1"]


def tick_sink(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    return [f"if v{ci} and r{ci}:", f"    u{s}.received.append(d{ci})"]


def tick_eager_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"sent = u{s}._sent", f"if v{ci} and r{ci}:"]
    lines += [f"    sent[{i}] = False" for i in range(u.n_out)]
    lines += ["else:"]
    for i, co in enumerate(oc):
        lines += [f"    if v{co} and r{co}:", f"        sent[{i}] = True"]
    return lines


def tick_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    lines = [f"order = u{s}.order", f"sel = order[u{s}._pos]"]
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    fsel = v{c} and r{c}"]
    lines += ["else:", "    fsel = False"]
    lines += ["if fsel:", f"    u{s}._pos = (u{s}._pos + 1) % len(order)"]
    return lines


def _pipe_shift(s, u, ic, oc, sched, new_lines) -> List[str]:
    """Shared stall-or-shift skeleton for pipelined units.

    ``new_lines`` computes ``new`` from the fired input(s); the shift
    rebinds ``_pipe`` exactly like the other two backends do.
    """
    co = oc[0]
    lines = [f"pipe = u{s}._pipe"]
    lines += [f"if pipe[-1] is not None and not (v{co} and r{co}):",
              f"    adv{s} = 0",
              "else:",
              f"    adv{s} = 1"]
    lines += [f"    {x}" for x in new_lines]
    lines += [f"    u{s}._pipe = [new] + pipe[:-1]"]
    return lines


def tick_functional(s, u, ic, oc, sched) -> List[str]:
    ci0 = ic[0]
    if u.bundled:
        new_lines = [
            f"if v{ci0} and r{ci0}:",
            f"    _t = d{ci0}",
            f"    new = ({_fu_result(s, u, ic)},)",
            "else:",
            "    new = None",
        ]
    else:
        new_lines = [
            f"if v{ci0} and r{ci0}:",
            f"    new = ({_fu_result(s, u, ic)},)",
            "else:",
            "    new = None",
        ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def tick_load_port(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    new_lines = [
        f"if v{ci} and r{ci}:",
        f"    new = (mrd({u.array!r}, int(d{ci})),)",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def tick_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    new_lines = [
        f"if v{ca} and r{ca}:",
        f"    mwr({u.array!r}, int(d{ca}), d{cd})",
        "    new = True",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def _carry_refresh(s) -> List[str]:
    """Post-recompute carry flag refresh for a pipelined unit."""
    return [
        f"if u{s}._pipe[-1] is not None:",
        f"    k{s} = 0",
        "else:",
        f"    k{s} = 0",
        f"    for st_ in u{s}._pipe:",
        "        if st_ is not None:",
        f"            k{s} = 1",
        "            break",
    ]


def post_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    return eval_elastic_buffer(s, u, ic, oc, sched)


def post_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    return eval_transparent_fifo(s, u, ic, oc, sched)


def post_credit_counter(s, u, ic, oc, sched) -> List[str]:
    return eval_credit_counter(s, u, ic, oc, sched)


def post_entry(s, u, ic, oc, sched) -> List[str]:
    return eval_entry(s, u, ic, oc, sched)


def post_sequence(s, u, ic, oc, sched) -> List[str]:
    return eval_sequence(s, u, ic, oc, sched)


def post_sink(s, u, ic, oc, sched) -> List[str]:
    return eval_sink(s, u, ic, oc, sched)


def post_eager_fork(s, u, ic, oc, sched) -> List[str]:
    return eval_eager_fork(s, u, ic, oc, sched)


def post_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _fom_signals(s, u, ic, oc, sched)


def _stall_guarded(s, body) -> List[str]:
    """Skip the recompute when the apply pass stalled (head blocked)."""
    lines = [f"if adv{s}:"]
    lines += [f"    {x}" for x in body]
    lines += ["else:", f"    k{s} = 0"]
    return lines


def post_functional(s, u, ic, oc, sched) -> List[str]:
    body = eval_functional(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


def post_load_port(s, u, ic, oc, sched) -> List[str]:
    body = eval_load_port(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


def post_store_port(s, u, ic, oc, sched) -> List[str]:
    body = eval_store_port(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


# ---------------------------------------------------------------------------
# Laned (batched) block variants.
#
# The lane-parallel generator (``generate_source(..., lanes=True)``) keeps
# every *control* signal scalar — one shared valid/ready bit per channel,
# exactly as above — and widens only the *data* signals: a valid channel's
# ``d{c}`` local holds a tuple of ``LB`` per-lane values (lane index =
# dataset), an invalid channel's stays ``None``.  Under the lockstep
# assumption (all lanes make the same control decisions every cycle) the
# scalar emitters above are already lane-correct for every unit whose
# logic only moves data around: queues hold lane tuples, change detection
# compares them, sinks append them.  Only four kinds of sites need laned
# overrides, collected here:
#
# * **data entering control** (Branch condition, Mux/Demux select): the
#   per-lane values must agree in effect; a disagreement raises
#   :class:`~repro.errors.LaneDivergence`, which ends the batch; the
#   kernel runner then reruns each lane's input set on scalar codegen.
# * **scalar data sources** (Sequence values, ArbiterMerge/FixedOrderMerge
#   select outputs): broadcast to lane tuples via constants prepared in
#   the generated prologue (``usq{s}``/``lsel{s}``; ``uv{s}`` is simply
#   *bound* as a tuple, so Entry/Constant reuse the scalar emitters).
# * **per-lane computation** (FunctionalUnit results, LoadPort reads,
#   StorePort writes): mapped across the lane tuples, with loads/stores
#   dispatched through the per-lane ``mrd``/``mwr`` method lists.
# * **tuple-mode Join**: per-lane operand bundles are ``zip``s of the
#   input lane tuples.
# ---------------------------------------------------------------------------


def _lane_fu_compute(s, u, ic) -> List[str]:
    """Statements leaving the per-lane FU results tuple in ``nd``."""
    if u.bundled:
        return [
            f"nd = tuple(cp{s}(_t if isinstance(_t, tuple) else (_t,))"
            f" for _t in d{ic[0]})"
        ]
    if not u.const_ops:
        args = ", ".join(f"d{c}" for c in ic)
        return [f"nd = tuple(map(cp{s}, zip({args})))"]
    parts = []
    live = 0
    for slot in range(u.spec.n_in):
        if slot in u.const_ops:
            parts.append(f"uc{s}_{slot}")
        else:
            parts.append(f"_o[{live}]")
            live += 1
    tup = ", ".join(parts) + ("," if len(parts) == 1 else "")
    if live == 0:
        return [f"_r = cp{s}(({tup}))", "nd = (_r,) * LB"]
    args = ", ".join(f"d{c}" for c in ic)
    return [f"nd = tuple(cp{s}(({tup})) for _o in zip({args}))"]


def lane_eval_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"sv = usq{s}", f"sp = u{s}._pos"]
    lines += ["if sp < len(sv):", "    nv = 1", "    nd = sv[sp]",
              "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    return lines


def lane_eval_join(s, u, ic, oc, sched) -> List[str]:
    if u.data_mode != "tuple":
        return eval_join(s, u, ic, oc, sched)
    co = oc[0]
    lines = _miss_scan(ic)
    bundle = ic[: u.n_bundle]
    args = ", ".join(f"d{c}" for c in bundle)
    lines += ["if miss == 0:", f"    nd = tuple(zip({args}))", "    nv = 1",
              "else:", "    nd = None", "    nv = 0"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [
            f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def lane_eval_arbiter_merge(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    lines = []
    for j, i in enumerate(u.priority):
        kw = "if" if j == 0 else "elif"
        lines += [f"{kw} v{ic[i]}:", f"    sel = {i}", f"    sd = d{ic[i]}"]
    lines += ["else:", "    sel = -1", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}", "found = sel >= 0"]
    lines += ["nv = found and ro1", "nd = sd"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = found and ro0", f"nd = lsel{s}[sel] if found else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i}"]
        lines += _bwd_change(sched, ci)
    return lines


def _lane_fom_signals(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    lines = [f"sel = u{s}.order[u{s}._pos]"]
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    sv = v{c}", f"    sd = d{c}"]
    lines += ["else:", "    sv = 0", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}"]
    lines += ["nv = sv and ro1", "nd = sd if sv else None"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = sv and ro0", f"nd = lsel{s}[sel] if sv else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i} and sv"]
        lines += _bwd_change(sched, ci)
    return lines


def lane_eval_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _lane_fom_signals(s, u, ic, oc, sched)


def lane_eval_mux(s, u, ic, oc, sched) -> List[str]:
    cs = ic[0]
    dchs = ic[1:]
    co = oc[0]
    n = u.n_data
    lines = [f"sv = v{cs}", "sel = -1"]
    lines += [
        "if sv:",
        f"    _x = d{cs}",
        "    sel = int(_x[0])",
        # Fast path: one C-speed scan when all lanes carry the same
        # object/value (the overwhelmingly common lockstep case).
        "    if _x.count(_x[0]) != len(_x):",
        "        for _y in _x:",
        "            if int(_y) != sel:",
        f"                raise LaneDivergence({u.name + '.sel'!r}, _x)",
        f"    if not 0 <= sel < {n}:",
        "        raise CircuitError(",
        f"            \"mux {u.name!r}: select value %d out of range\""
        " % sel)",
    ]
    lines += ["dv = False", "nd = None"]
    for i, c in enumerate(dchs):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    dv = v{c}",
                  f"    nd = d{c} if dv else None"]
    lines += ["if dv:", "    nv = 1", "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}", "nr = ordy and dv"]
    lines += _bwd_change(sched, cs)
    for i, ci in enumerate(dchs):
        lines += [f"nr = ordy and sv and {i} == sel"]
        lines += _bwd_change(sched, ci)
    return lines


def lane_eval_branch(s, u, ic, oc, sched) -> List[str]:
    cc, cd = ic
    ot, of_ = oc
    lines = [f"cv = v{cc}", f"dv = v{cd}", "both = cv and dv", "tgt = -1"]
    lines += [
        "if cv:",
        f"    _x = d{cc}",
        "    if _x[0]:",
        "        tgt = 0",
        "        if not all(_x):",
        f"            raise LaneDivergence({u.name + '.cond'!r}, _x)",
        "    else:",
        "        tgt = 1",
        "        if any(_x):",
        f"            raise LaneDivergence({u.name + '.cond'!r}, _x)",
    ]
    lines += [f"nd = d{cd} if dv else None"]
    lines += ["nv = both and tgt == 0"]
    lines += _fwd_change(sched, ot)
    lines += ["nv = both and tgt == 1"]
    lines += _fwd_change(sched, of_)
    lines += ["if tgt == 0:", f"    tr = r{ot}",
              "elif tgt == 1:", f"    tr = r{of_}",
              "else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, cc)
    lines += ["nr = cv and tr"]
    lines += _bwd_change(sched, cd)
    return lines


def lane_eval_demux(s, u, ic, oc, sched) -> List[str]:
    ci0, ci1 = ic
    n = u.n_out
    lines = [f"sv = v{ci0}", f"dv = v{ci1}", "both = sv and dv", "tgt = -1"]
    lines += [
        "if sv:",
        f"    _x = d{ci0}",
        "    tgt = int(_x[0])",
        "    if _x.count(_x[0]) != len(_x):",
        "        for _y in _x:",
        "            if int(_y) != tgt:",
        f"                raise LaneDivergence({u.name + '.index'!r}, _x)",
        f"    if not 0 <= tgt < {n}:",
        "        raise CircuitError(",
        f"            \"demux {u.name!r}: index %d out of range\""
        " % tgt)",
    ]
    lines += [f"nd = d{ci1} if dv else None"]
    for i, co in enumerate(oc):
        lines += [f"nv = both and tgt == {i}"]
        lines += _fwd_change(sched, co)
    for i, co in enumerate(oc):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} tgt == {i}:", f"    tr = r{co}"]
    lines += ["else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, ci0)
    lines += ["nr = sv and tr"]
    lines += _bwd_change(sched, ci1)
    return lines


def lane_eval_functional(s, u, ic, oc, sched) -> List[str]:
    if u.latency != 0:
        # Pipelined eval only moves the head tuple around: lane-agnostic.
        return eval_functional(s, u, ic, oc, sched)
    co = oc[0]
    lines = _miss_scan(ic)
    lines += ["if miss == 0:", "    nv = 1"]
    lines += ["    " + x for x in _lane_fu_compute(s, u, ic)]
    lines += ["else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [
            f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def lane_tick_functional(s, u, ic, oc, sched) -> List[str]:
    ci0 = ic[0]
    new_lines = [f"if v{ci0} and r{ci0}:"]
    new_lines += ["    " + x for x in _lane_fu_compute(s, u, ic)]
    new_lines += ["    new = (nd,)", "else:", "    new = None"]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def lane_tick_load_port(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    new_lines = [
        f"if v{ci} and r{ci}:",
        f"    new = (tuple(_f({u.array!r}, int(_a))"
        f" for _f, _a in zip(mrd, d{ci})),)",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def lane_tick_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    new_lines = [
        f"if v{ca} and r{ca}:",
        f"    for _f, _a, _x in zip(mwr, d{ca}, d{cd}):",
        f"        _f({u.array!r}, int(_a), _x)",
        "    new = True",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def lane_post_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _lane_fom_signals(s, u, ic, oc, sched)


def lane_post_functional(s, u, ic, oc, sched) -> List[str]:
    body = lane_eval_functional(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


#: Combinational block emitters by catalogue type.
EVAL_BLOCKS = {
    ElasticBuffer: eval_elastic_buffer,
    TransparentFifo: eval_transparent_fifo,
    CreditCounter: eval_credit_counter,
    Entry: eval_entry,
    Sequence: eval_sequence,
    Sink: eval_sink,
    Constant: eval_constant,
    EagerFork: eval_eager_fork,
    LazyFork: eval_lazy_fork,
    Join: eval_join,
    Merge: eval_merge,
    ArbiterMerge: eval_arbiter_merge,
    FixedOrderMerge: eval_fixed_order_merge,
    Mux: eval_mux,
    Branch: eval_branch,
    Demux: eval_demux,
    FunctionalUnit: eval_functional,
    LoadPort: eval_load_port,
    StorePort: eval_store_port,
}

#: Clock-edge (apply, post) block emitters by catalogue type.
TICK_BLOCKS = {
    ElasticBuffer: (tick_elastic_buffer, post_elastic_buffer),
    TransparentFifo: (tick_transparent_fifo, post_transparent_fifo),
    CreditCounter: (tick_credit_counter, post_credit_counter),
    Entry: (tick_entry, post_entry),
    Sequence: (tick_sequence, post_sequence),
    Sink: (tick_sink, post_sink),
    EagerFork: (tick_eager_fork, post_eager_fork),
    FixedOrderMerge: (tick_fixed_order_merge, post_fixed_order_merge),
    FunctionalUnit: (tick_functional, post_functional),
    LoadPort: (tick_load_port, post_load_port),
    StorePort: (tick_store_port, post_store_port),
}

#: Pipelined types whose post pass maintains a carry flag ``k{slot}``.
CARRY_TYPES = (FunctionalUnit, LoadPort, StorePort)

#: Laned combinational emitters: scalar blocks are lane-correct for every
#: type not overridden here (control stays scalar; data tuples flow
#: through unchanged).
LANE_EVAL_BLOCKS = dict(EVAL_BLOCKS)
LANE_EVAL_BLOCKS.update({
    Sequence: lane_eval_sequence,
    Join: lane_eval_join,
    ArbiterMerge: lane_eval_arbiter_merge,
    FixedOrderMerge: lane_eval_fixed_order_merge,
    Mux: lane_eval_mux,
    Branch: lane_eval_branch,
    Demux: lane_eval_demux,
    FunctionalUnit: lane_eval_functional,
})

#: Laned clock-edge (apply, post) emitters.  Sequence needs its post
#: overridden too: the scalar post re-reads ``u.values`` (scalar data)
#: where the laned comb pass reads the broadcast ``usq`` tuples.
LANE_TICK_BLOCKS = dict(TICK_BLOCKS)
LANE_TICK_BLOCKS.update({
    Sequence: (tick_sequence, lane_eval_sequence),
    FixedOrderMerge: (tick_fixed_order_merge, lane_post_fixed_order_merge),
    FunctionalUnit: (lane_tick_functional, lane_post_functional),
    LoadPort: (lane_tick_load_port, post_load_port),
    StorePort: (lane_tick_store_port, post_store_port),
})
