"""Scenario execution and outcome classification.

:func:`run_scenario` replays one generated trace through the requested
page-table organizations and classifies what each one did:

* ``ok`` — completed inside the cycle budget;
* ``abort:contiguous`` / ``abort:l2p`` / ``abort:table_full`` /
  ``abort:other`` — a *graceful* abort: the simulator recorded the
  failure (``result.failed``) instead of crashing;
* ``invariant_violation`` — ``check_invariants()`` tripped
  (:class:`~repro.common.errors.SimulationError` escaped the run);
* ``non_graceful`` — any other exception: the exact bug class the
  fuzzer exists to find;
* ``divergence`` — the scalar and vectorized engines disagreed on the
  same trace;
* ``cycle_blowup`` — the run completed but spent more than
  ``scenario.blowup_threshold`` times the radix baseline's cycles per
  access.

The per-organization classes aggregate (worst first) into the
scenario's failure class and affected-organization list — the corpus
manifest records and later re-asserts both.  Scenarios whose stressor
mix includes ``oscillation`` additionally run a downsize probe: the
grow→shrink→grow phases are driven through explicit map/unmap calls
against a fresh ME-HPT build with downsizing enabled, with invariant
checks between phases.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.fuzz.scenario import Scenario
from repro.sim.config import ORGANIZATIONS
from repro.sim.results import PerformanceResult
from repro.sim.simulator import TranslationSimulator
from repro.traces.format import TraceReader

CLASS_OK = "ok"
CLASS_ABORT_CONTIGUOUS = "abort:contiguous"
CLASS_ABORT_L2P = "abort:l2p"
CLASS_ABORT_TABLE_FULL = "abort:table_full"
CLASS_ABORT_OTHER = "abort:other"
CLASS_INVARIANT = "invariant_violation"
CLASS_NON_GRACEFUL = "non_graceful"
CLASS_DIVERGENCE = "divergence"
CLASS_CYCLE_BLOWUP = "cycle_blowup"

#: Aggregation order: earlier entries are worse and win the scenario class.
CLASS_SEVERITY = (
    CLASS_NON_GRACEFUL,
    CLASS_INVARIANT,
    CLASS_DIVERGENCE,
    CLASS_ABORT_OTHER,
    CLASS_ABORT_TABLE_FULL,
    CLASS_ABORT_L2P,
    CLASS_ABORT_CONTIGUOUS,
    CLASS_CYCLE_BLOWUP,
    CLASS_OK,
)


def classify_failure_reason(reason: str) -> str:
    """Map a recorded abort reason onto a graceful-abort class.

    The simulator stores ``str(exc)`` for the three ABORT_ERRORS; the
    message vocabularies are disjoint (``contiguous`` for the paper's
    allocation failure, ``chunk``/``ladder`` for L2P exhaustion,
    ``stuck`` for a wedged cuckoo table).
    """
    text = reason.lower()
    if "contiguous" in text:
        return CLASS_ABORT_CONTIGUOUS
    if "ladder" in text or "chunk" in text:
        return CLASS_ABORT_L2P
    if "stuck" in text:
        return CLASS_ABORT_TABLE_FULL
    return CLASS_ABORT_OTHER


@dataclass
class OrgOutcome:
    """What one organization did with the scenario's trace."""

    organization: str
    failure_class: str
    failed: bool = False
    failure_reason: str = ""
    cycles_per_access: float = 0.0
    blowup_ratio: float = 0.0
    detail: str = ""
    divergence_checked: bool = False


@dataclass
class ScenarioOutcome:
    """The classified result of one scenario across organizations."""

    scenario: Scenario
    trace_path: str
    outcomes: Dict[str, OrgOutcome] = field(default_factory=dict)
    downsize_probe: str = ""

    @property
    def failure_class(self) -> str:
        """The worst per-organization class (see CLASS_SEVERITY)."""
        classes = {o.failure_class for o in self.outcomes.values()}
        if self.downsize_probe and self.downsize_probe != CLASS_OK:
            classes.add(self.downsize_probe)
        for cls in CLASS_SEVERITY:
            if cls in classes:
                return cls
        return CLASS_OK

    @property
    def affected_orgs(self) -> Tuple[str, ...]:
        return tuple(
            org for org in sorted(self.outcomes)
            if self.outcomes[org].failure_class != CLASS_OK
        )

    def summary(self) -> str:
        parts = [
            f"{org}={self.outcomes[org].failure_class}"
            for org in sorted(self.outcomes)
        ]
        if self.downsize_probe:
            parts.append(f"downsize_probe={self.downsize_probe}")
        return f"{self.scenario.name}[seed={self.scenario.seed}]: " + " ".join(parts)


def _safe_cpa(result: PerformanceResult) -> float:
    if result.accesses <= 0:
        return float("inf")
    return result.cycles_per_access()


def _comparable(result: PerformanceResult) -> dict:
    """A PerformanceResult as a plain dict for engine-parity comparison."""
    return dataclasses.asdict(result)


def _run_engine(
    scenario: Scenario, organization: str, trace_path: str,
    trace_length: int, engine: str,
) -> PerformanceResult:
    config = scenario.config_for(organization, trace_path)
    config.engine = engine
    sim = TranslationSimulator(None, config, trace_length=trace_length)
    return sim.run()


def run_org(
    scenario: Scenario,
    organization: str,
    trace_path: str,
    trace_length: int,
    baseline_cpa: Optional[float] = None,
    check_divergence: bool = False,
    registry=None,
) -> OrgOutcome:
    """Run one organization over the trace and classify its outcome."""
    try:
        result = _run_engine(
            scenario, organization, trace_path, trace_length, "vectorized"
        )
    except SimulationError as exc:
        return OrgOutcome(
            organization, CLASS_INVARIANT, failed=True, detail=repr(exc),
        )
    except ConfigurationError:
        # A malformed scenario is the caller's bug, not a finding.
        raise
    except Exception as exc:  # noqa: BLE001 - non-graceful *is* the finding
        return OrgOutcome(
            organization, CLASS_NON_GRACEFUL, failed=True,
            detail=f"{type(exc).__name__}: {exc}",
        )

    outcome = OrgOutcome(
        organization,
        CLASS_OK,
        failed=result.failed,
        failure_reason=result.failure_reason,
        cycles_per_access=_safe_cpa(result),
    )
    if result.failed:
        outcome.failure_class = classify_failure_reason(result.failure_reason)
    elif baseline_cpa is not None and baseline_cpa > 0.0:
        outcome.blowup_ratio = outcome.cycles_per_access / baseline_cpa
        if (
            organization != "radix"
            and outcome.blowup_ratio >= scenario.blowup_threshold
        ):
            outcome.failure_class = CLASS_CYCLE_BLOWUP
            outcome.detail = (
                f"{outcome.cycles_per_access:.1f} cycles/access vs radix "
                f"{baseline_cpa:.1f} ({outcome.blowup_ratio:.2f}x >= "
                f"{scenario.blowup_threshold}x)"
            )

    if check_divergence:
        outcome.divergence_checked = True
        if registry is not None:
            registry.counter("fuzz.divergence_checks").inc()
        try:
            scalar = _run_engine(
                scenario, organization, trace_path, trace_length, "scalar"
            )
        except SimulationError as exc:
            outcome.failure_class = CLASS_INVARIANT
            outcome.detail = repr(exc)
            return outcome
        except Exception as exc:  # noqa: BLE001
            outcome.failure_class = CLASS_NON_GRACEFUL
            outcome.detail = f"{type(exc).__name__}: {exc}"
            return outcome
        if _comparable(scalar) != _comparable(result):
            outcome.failure_class = CLASS_DIVERGENCE
            outcome.detail = "scalar and vectorized engines disagree"
    return outcome


def downsize_probe(scenario: Scenario, trace_path: str) -> Tuple[str, str]:
    """Drive grow→shrink→grow through map/unmap on a fresh ME-HPT build.

    The trace-driven simulator only ever inserts; downsizing needs
    deletions.  This probe replays the oscillation phase structure as
    explicit operations — map the footprint, unmap down to the core,
    re-map — with ``check_invariants()`` between phases, and reports the
    same class vocabulary as the trace runs.
    """
    config = scenario.config_for("mehpt", trace_path)
    config.allow_downsize = True
    try:
        system = config.build()
        tables = system.page_tables
        pages = system.workload.page_set()
        # Bound the probe so it stays a probe, not a second simulation.
        pages = pages[:8192]
        core = pages[: max(1, pages.size // 8)]
        for ppn, vpn in enumerate(pages.tolist()):
            tables.map(vpn, ppn)
        tables.check_invariants()
        for vpn in pages[core.size:].tolist():
            tables.unmap(vpn)
        tables.check_invariants()
        for ppn, vpn in enumerate(pages[core.size:].tolist()):
            tables.map(vpn, ppn + pages.size)
        tables.check_invariants()
    except SimulationError as exc:
        return CLASS_INVARIANT, repr(exc)
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001
        if type(exc).__name__ in (
            "ContiguousAllocationError", "TableFullError", "L2POverflowError"
        ):
            return classify_failure_reason(str(exc)), str(exc)
        return CLASS_NON_GRACEFUL, f"{type(exc).__name__}: {exc}"
    return CLASS_OK, ""


def run_scenario(
    scenario: Scenario,
    trace_path: Optional[str] = None,
    orgs: Sequence[str] = ORGANIZATIONS,
    check_divergence: bool = False,
    probe_downsize: Optional[bool] = None,
    registry=None,
    workdir: Optional[str] = None,
) -> ScenarioOutcome:
    """Generate (if needed) and run one scenario; classify every org.

    ``trace_path`` may point at an existing trace (corpus replay, a
    minimized reproducer); otherwise the scenario's trace is generated
    into ``workdir`` (a temp directory by default).  The radix baseline
    runs first when requested so hashed organizations get a blowup
    denominator.
    """
    if trace_path is None:
        base = workdir if workdir is not None else tempfile.mkdtemp(prefix="fuzz-")
        trace_path = os.path.join(
            base, f"{scenario.name}-seed{scenario.seed}.vpt"
        )
        scenario.generate_trace(trace_path, registry=registry)
    with TraceReader(trace_path) as reader:
        trace_length = reader.total_values
    if trace_length < 1:
        raise ConfigurationError(
            f"trace {trace_path} is empty", field="trace_path", value=trace_path
        )

    if registry is not None:
        registry.counter("fuzz.scenarios_run").inc()

    outcome = ScenarioOutcome(scenario=scenario, trace_path=trace_path)
    ordered = [org for org in ("radix", "ecpt", "mehpt") if org in orgs]
    ordered += [org for org in orgs if org not in ordered]
    baseline_cpa: Optional[float] = None
    for org in ordered:
        result = run_org(
            scenario, org, trace_path, trace_length,
            baseline_cpa=baseline_cpa,
            check_divergence=check_divergence,
            registry=registry,
        )
        outcome.outcomes[org] = result
        if org == "radix" and result.failure_class == CLASS_OK:
            baseline_cpa = result.cycles_per_access

    wants_probe = probe_downsize if probe_downsize is not None else any(
        spec.name == "oscillation" for spec in scenario.stressors
    )
    if wants_probe and "mehpt" in orgs:
        probe_class, probe_detail = downsize_probe(scenario, trace_path)
        outcome.downsize_probe = probe_class
        if probe_detail:
            outcome.outcomes["mehpt"].detail = (
                outcome.outcomes["mehpt"].detail or probe_detail
            )

    if registry is not None and outcome.failure_class != CLASS_OK:
        registry.counter("fuzz.failures_found").inc()
    return outcome
