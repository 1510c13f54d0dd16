"""Lint rule registry and driver.

Rules register themselves with the :func:`rule` decorator under a stable
code (``CR001``, ``ST005``, ...).  Each rule is individually configurable
through :class:`LintConfig`: disabled outright or re-severitied
(``ST002=error``, ``CR001=off``).  :func:`run_lint` runs the enabled rules
over one circuit (plus, optionally, the sharing decisions that produced
it) and returns a :class:`~repro.lint.diagnostics.LintReport` — no
simulation happens anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from ..errors import LintError, ReproError
from .diagnostics import SEVERITIES, Diagnostic, LintReport

if TYPE_CHECKING:
    from fractions import Fraction

    from ..analysis.cfc import CFC
    from ..analysis.memdep import MemDepReport
    from ..analysis.tokenflow import FlowAnalysis
    from ..circuit import DataflowCircuit

#: Signature every rule body has: ``fn(ctx, emit)``.
RuleCheck = Callable[..., None]


@dataclass(frozen=True)
class LintRule:
    """One registered rule."""

    code: str
    name: str
    severity: str
    summary: str
    #: Paper anchor (equation / algorithm / section) the rule encodes.
    paper: str
    check: RuleCheck


#: All registered rules, by code.
RULES: Dict[str, LintRule] = {}


def rule(
    code: str,
    name: str,
    severity: str = "error",
    summary: str = "",
    paper: str = "",
) -> Callable[[RuleCheck], RuleCheck]:
    """Class-of-2 decorator registering ``fn(ctx, emit)`` as a lint rule."""
    if severity not in SEVERITIES:
        raise LintError(f"rule {code}: unknown severity {severity!r}")

    def deco(fn: RuleCheck) -> RuleCheck:
        if code in RULES:
            raise LintError(f"duplicate lint rule code {code!r}")
        RULES[code] = LintRule(
            code=code, name=name, severity=severity,
            summary=summary, paper=paper, check=fn,
        )
        return fn

    return deco


class LintConfig:
    """Per-rule enable/disable and severity overrides."""

    def __init__(
        self,
        disabled: Sequence[str] = (),
        severities: Optional[Dict[str, str]] = None,
    ):
        self.disabled = set(disabled)
        self.severities = dict(severities or {})
        for code, sev in self.severities.items():
            if sev not in SEVERITIES:
                raise LintError(
                    f"lint config: unknown severity {sev!r} for {code}"
                )

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "LintConfig":
        """Parse CLI specs: ``CODE=off`` disables, ``CODE=<severity>``
        overrides the severity."""
        disabled: List[str] = []
        severities: Dict[str, str] = {}
        for spec in specs:
            code, sep, value = spec.partition("=")
            code = code.strip().upper()
            value = value.strip().lower()
            if not sep or not code or not value:
                raise LintError(
                    f"bad lint rule spec {spec!r} "
                    "(expected CODE=off or CODE=<severity>)"
                )
            if value in ("off", "disable", "disabled", "none"):
                disabled.append(code)
            elif value in SEVERITIES:
                severities[code] = value
            else:
                raise LintError(
                    f"bad lint rule spec {spec!r}: unknown level {value!r}"
                )
        return cls(disabled=disabled, severities=severities)

    def severity_of(self, r: LintRule) -> Optional[str]:
        """Effective severity for ``r``, or None when disabled."""
        if r.code in self.disabled:
            return None
        return self.severities.get(r.code, r.severity)


class LintContext:
    """Everything a rule may inspect: the circuit, the sharing decisions
    that produced it (``CrushResult`` / ``InOrderResult`` / ``NaiveResult``
    or None), the performance-critical CFCs, and — for the ``FL`` rules —
    an optional expected steady-state II (from a recorded golden) that
    the statically predicted II is regression-checked against.

    ``flow`` / ``memdep`` adopt analyses the caller already ran over the
    same circuit and kernel, so the pipeline pays for each once per
    prepared circuit; when omitted they are computed on first use."""

    def __init__(
        self,
        circuit: "DataflowCircuit",
        decisions: Any = None,
        cfcs: Optional[Sequence["CFC"]] = None,
        expected_ii: Any = None,
        kernel: Any = None,
        flow: Optional["FlowAnalysis"] = None,
        memdep: Optional["MemDepReport"] = None,
    ) -> None:
        self.circuit = circuit
        self.decisions = decisions
        self._cfcs = cfcs
        self._occupancies: Optional[Dict[str, "Fraction"]] = None
        self.expected_ii = expected_ii
        self._flow = flow
        #: Kernel IR the circuit was lowered from (None when linting a
        #: bare circuit) — the ``MD`` rules need the source subscripts.
        self.kernel = kernel
        self._memdep = memdep

    @property
    def cfcs(self) -> List["CFC"]:
        """Fresh CFC views restricted to units still in the circuit.

        Rewrites (sharing wrappers) remove units, so CFC objects computed
        on the pre-rewrite circuit are rebuilt against the live unit set;
        their caches are never shared with the caller's copies.
        """
        if self._cfcs is None:
            from ..analysis.cfc import critical_cfcs

            self._cfcs = critical_cfcs(self.circuit)
        from ..analysis.cfc import CFC

        live = set(self.circuit.units)
        return [
            CFC(c.name, self.circuit, set(c.unit_names) & live)
            for c in self._cfcs
            if set(c.unit_names) & live
        ]

    @property
    def occupancies(self) -> Dict[str, "Fraction"]:
        """Per-op steady-state occupancy map (decision-recorded when
        available, recomputed otherwise)."""
        if self._occupancies is None:
            rec = getattr(self.decisions, "occupancies", None)
            if rec:
                self._occupancies = dict(rec)
            else:
                from ..analysis.occupancy import occupancy_map

                self._occupancies = occupancy_map(self.circuit, self.cfcs)
        return self._occupancies

    @property
    def flow(self) -> "FlowAnalysis":
        """Cached token-flow analysis (:mod:`repro.analysis.tokenflow`).

        Runs over the *pre-rewrite* CFC views (slot-to-CFC attribution
        needs the shared-away op names) — every ``FL`` rule reads this
        one shared result, so the graph work happens at most once per
        lint run.
        """
        if self._flow is None:
            from ..analysis.tokenflow import analyze_circuit

            self._flow = analyze_circuit(
                self.circuit, cfcs=self._cfcs, decisions=self.decisions
            )
        return self._flow

    @property
    def memdep(self) -> Optional["MemDepReport"]:
        """Cached memory-dependence report (:mod:`repro.analysis.memdep`).

        ``None`` when the context has no kernel IR — the ``MD`` rules
        then have nothing to check and pass vacuously.
        """
        if self.kernel is None:
            return None
        if self._memdep is None:
            from ..analysis.memdep import analyze_kernel

            self._memdep = analyze_kernel(self.kernel)
        return self._memdep


def run_lint(
    circuit: "DataflowCircuit",
    decisions: Any = None,
    cfcs: Optional[Sequence["CFC"]] = None,
    config: Optional[LintConfig] = None,
    expected_ii: Any = None,
    kernel: Any = None,
    flow: Optional["FlowAnalysis"] = None,
    memdep: Optional["MemDepReport"] = None,
) -> LintReport:
    """Run every enabled rule over ``circuit``; return the report.

    ``decisions`` is the sharing-pass result (enables the ``CR`` rules
    that need decision-time records); ``cfcs`` the performance-critical
    CFCs of the *pre-rewrite* circuit, recomputed when omitted;
    ``expected_ii`` an optional golden steady-state II (``Fraction``)
    the static prediction is regression-checked against (rule FL005);
    ``kernel`` the kernel IR the circuit was lowered from (enables the
    ``MD`` memory-dependence rules, which need source subscripts);
    ``flow`` / ``memdep`` precomputed token-flow and memory-dependence
    analyses of this circuit and kernel (computed on demand otherwise).
    Internal rule faults are re-raised as
    :class:`~repro.errors.LintError` — a rule never fails silently and
    never trips a bare assert.
    """
    # Imported here, not at package import time: the structural rules pull
    # in repro.sim.signal_graph while repro.sim's sanitizer pulls in this
    # package's diagnostics.
    from . import (  # noqa: F401
        rules_credit,
        rules_flow,
        rules_memdep,
        rules_structural,
    )

    config = config or LintConfig()
    ctx = LintContext(
        circuit, decisions=decisions, cfcs=cfcs, expected_ii=expected_ii,
        kernel=kernel, flow=flow, memdep=memdep,
    )
    report = LintReport(circuit=circuit.name)
    for code in sorted(RULES):
        r = RULES[code]
        severity = config.severity_of(r)
        if severity is None:
            continue

        def emit(message: str, unit: Optional[str] = None,
                 channel: Optional[str] = None,
                 _code: str = code, _sev: str = severity) -> None:
            report.add(Diagnostic(
                code=_code, severity=_sev, message=message,
                unit=unit, channel=channel, source="lint",
            ))

        try:
            r.check(ctx, emit)
        except LintError:
            raise
        except ReproError as exc:
            raise LintError(
                f"lint rule {code} ({r.name}) failed on circuit "
                f"{circuit.name!r}: {exc}"
            ) from exc
    return report


def raise_on_errors(report: LintReport, strict: bool = False) -> None:
    """Raise :class:`LintError` when ``report`` has errors (or, with
    ``strict``, any warning)."""
    bad = report.errors + (report.warnings if strict else [])
    if not bad:
        return
    raise LintError(
        f"lint failed for circuit {report.circuit!r}:\n  "
        + "\n  ".join(d.format() for d in bad),
        diagnostics=bad,
    )
