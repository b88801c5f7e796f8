"""Rebuild the differential performance model from a trace, and report.

``repro.obs.report`` closes the loop between the paper's Figure 9 and
the event stream: given a JSONL trace recorded by
:class:`~repro.obs.trace.JsonlTraceSink`, it re-derives every term of

    cpa = base + translation_cycles / accesses
               + (pt_alloc + reinsert + l2p_exposed + rehash_moves)
                 / fullscale_accesses

from events alone (see :mod:`repro.sim.results` for the model) and
cross-checks each term against the values the simulator itself computed,
which ride along in the ``run_end`` event.

How each term is rebuilt:

* **translation** — the sum of ``tlb_miss`` cycle costs after
  ``measure_start`` (L1 hits are free; the fixed L2-hit cost times the
  measured L2-hit count from ``run_end`` covers the L2 tier).
* **pt_alloc** — the page-table allocation baseline carried by
  ``run_start`` plus every ``fault_serviced`` event's ``pt_alloc_cycles``
  bill (radix bills are per-fault at scaled counts, so they multiply by
  the footprint scale instead).
* **reinsert / l2p_exposed** — the ``fault_serviced`` kick bills times
  the model constants from ``run_start``.
* **rehash_moves** — ``run_end``'s relocated-entry count times the
  per-entry move cost.

The event stream only supplies the inputs: the run's organization
object (looked up by ``run_start``'s organization name in
:data:`repro.sim.organizations.REGISTRY`) turns them into the four OS
terms with the same ``os_terms`` method the simulator calls, so the
report and the simulator cannot disagree on the formula.

``fault_serviced`` and the resize/run lifecycle events are always
emitted, so the OS-side terms are exact at any ``trace_sample_every``;
``tlb_miss`` is sampled, so the translation term is exact at
``sample_every == 1`` and a scaled estimate above that (the report says
which).

Usage::

    python -m repro.obs.report TRACE.jsonl [--json]
    python -m repro.obs.report --record APP ORG [--thp] --out TRACE.jsonl

The ``--record`` mode runs one Figure-9 cell with tracing enabled (the
``run_all`` methodology defaults), writes the trace, then reports on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.obs.trace import (
    EVENT_FAULT_SERVICED,
    EVENT_MEASURE_START,
    EVENT_RUN_END,
    EVENT_RUN_START,
    EVENT_TLB_MISS,
    first_of_kind,
    read_jsonl,
)

#: Cross-check tolerance: the reconstruction repeats the simulator's own
#: float arithmetic in a different order, so agreement is near-exact.
_REL_TOL = 1e-9
_ABS_TOL = 1e-6


def attribute(events: List[Dict]) -> Dict[str, object]:
    """Per-term cycle attribution for one recorded run.

    ``events`` is the parsed stream of one run (see
    :func:`~repro.obs.trace.read_jsonl`).  Raises
    :class:`~repro.common.errors.ConfigurationError` when the stream has
    no ``run_start`` — nothing can be attributed without the model
    constants it carries.
    """
    run_start = first_of_kind(events, EVENT_RUN_START)
    if run_start is None:
        raise ConfigurationError(
            "trace contains no run_start event; was it recorded by "
            "TranslationSimulator with tracing enabled?"
        )
    # Imported here: repro.sim imports repro.obs, so a module-level
    # import of the registry would be circular.
    from repro.sim.organizations import REGISTRY

    run_end = first_of_kind(events, EVENT_RUN_END)
    organization = run_start["organization"]
    org = REGISTRY.get(organization)
    if org is None:
        raise ConfigurationError(
            f"trace names unknown organization {organization!r}; "
            f"known: {tuple(REGISTRY)}"
        )
    scale = run_start["scale"]
    sample_every = int(run_start.get("sample_every", 1))

    # The measured window is everything after measure_start in stream
    # order (stream order is emission order; cycle stamps can tie).
    measure_index: Optional[int] = None
    for i, event in enumerate(events):
        if event["kind"] == EVENT_MEASURE_START:
            measure_index = i
            break
    measured = events[measure_index + 1:] if measure_index is not None else []

    tlb_miss_cycles = sum(
        e["cycles"] for e in measured if e["kind"] == EVENT_TLB_MISS
    ) * sample_every
    l2_hits = run_end["l2_hits"] if run_end is not None else 0
    translation = tlb_miss_cycles + l2_hits * run_start["l2_hit_cycles"]

    # Fault bills span the whole run (warmup faults allocate page-table
    # memory too), matching the simulator's cumulative totals.
    fault_events = [e for e in events if e["kind"] == EVENT_FAULT_SERVICED]
    pt_fault_cycles = sum(e["pt_alloc_cycles"] for e in fault_events)
    kicks = sum(e["kicks"] for e in fault_events)
    data_alloc = sum(e["data_alloc_cycles"] for e in fault_events)

    pt_alloc, reinsert, l2p_exposed, rehash_moves = org.os_terms(
        alloc_total=run_start["pt_alloc_cycles_at_start"] + pt_fault_cycles,
        pt_fault_cycles=pt_fault_cycles,
        reinsert_cycles=sum(e["reinsert_cycles"] for e in fault_events),
        kicks=kicks,
        relocated=run_end["relocated_entries"] if run_end is not None else 0,
        scale=scale,
        l2p_cycles=run_start["l2p_cycles"],
        rehash_entry_cycles=run_start["rehash_entry_cycles"],
    )

    events_done = run_end["events_done"] if run_end is not None else 0
    accesses = (
        max(0, events_done - run_start["warmup_events"])
        * run_start["page_repeats"]
    )
    base = run_start["base_cycles_per_access"]
    fullscale = run_start["fullscale_accesses"]
    translation_cpa = translation / accesses if accesses else 0.0
    os_cycles = pt_alloc + reinsert + l2p_exposed + rehash_moves
    os_cpa = os_cycles / fullscale if fullscale else 0.0

    attribution: Dict[str, object] = {
        "workload": run_start["workload"],
        "organization": organization,
        "thp": run_start["thp"],
        "scale": scale,
        "sample_every": sample_every,
        "exact": sample_every == 1,
        "events": len(events),
        "faults": len(fault_events),
        "accesses": accesses,
        "terms": {
            "base_cpa": base,
            "translation_cycles": translation,
            "translation_cpa": translation_cpa,
            "pt_alloc_cycles": pt_alloc,
            "reinsert_cycles": reinsert,
            "l2p_exposed_cycles": l2p_exposed,
            "rehash_move_cycles": rehash_moves,
            "os_cpa": os_cpa,
            "cycles_per_access": base + translation_cpa + os_cpa,
        },
        "excluded_terms": {
            "fault_overhead_cycles": (
                len(fault_events) * run_start["fault_overhead_cycles"]
            ),
            "data_alloc_cycles": data_alloc,
        },
    }
    if run_end is not None:
        attribution["crosscheck"] = _crosscheck(
            attribution["terms"], run_end, exact_translation=sample_every == 1
        )
    return attribution


def _crosscheck(
    terms: Dict[str, float], run_end: Dict, exact_translation: bool
) -> Dict[str, Dict]:
    """Compare each rebuilt term with the simulator's run_end value."""
    checked = {}
    for name in (
        "translation_cycles",
        "pt_alloc_cycles",
        "reinsert_cycles",
        "l2p_exposed_cycles",
        "rehash_move_cycles",
    ):
        rebuilt = terms[name]
        simulator = run_end[name]
        sampled = name == "translation_cycles" and not exact_translation
        checked[name] = {
            "events": rebuilt,
            "simulator": simulator,
            "match": (
                "sampled-estimate"
                if sampled
                else math.isclose(
                    rebuilt, simulator, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
                )
            ),
        }
    return checked


def format_report(attribution: Dict[str, object]) -> str:
    """Human-readable rendering of one attribution."""
    terms = attribution["terms"]
    lines = [
        "run: {workload} / {organization} / thp={thp} (scale {scale})".format(
            **attribution
        ),
        "events: {events}  faults: {faults}  accesses: {accesses}  "
        "sample_every: {sample_every}{note}".format(
            note="" if attribution["exact"] else "  (translation is an estimate)",
            **attribution,
        ),
        "",
        "cycles-per-access attribution (the Figure 9 model):",
        f"  base                 {terms['base_cpa']:14.4f}",
        f"  translation          {terms['translation_cpa']:14.4f}"
        f"   ({terms['translation_cycles']:.0f} cycles)",
        f"  pt_alloc             {terms['pt_alloc_cycles']:14.0f} cycles",
        f"  reinsert             {terms['reinsert_cycles']:14.0f} cycles",
        f"  l2p_exposed          {terms['l2p_exposed_cycles']:14.0f} cycles",
        f"  rehash_moves         {terms['rehash_move_cycles']:14.0f} cycles",
        f"  os (differential)    {terms['os_cpa']:14.4f}",
        f"  cycles_per_access    {terms['cycles_per_access']:14.4f}",
    ]
    excluded = attribution["excluded_terms"]
    lines.append(
        "excluded from the model: fault_overhead={:.0f}  data_alloc={:.0f}".format(
            excluded["fault_overhead_cycles"], excluded["data_alloc_cycles"]
        )
    )
    crosscheck = attribution.get("crosscheck")
    if crosscheck:
        lines.append("")
        lines.append("cross-check against the simulator's run_end event:")
        for name, check in crosscheck.items():
            lines.append(
                f"  {name:22s} events={check['events']:.2f}  "
                f"simulator={check['simulator']:.2f}  match={check['match']}"
            )
    return "\n".join(lines)


def record_cell(
    app: str,
    organization: str,
    thp: bool,
    out: str,
    sample_every: int = 1,
    **settings_overrides,
) -> None:
    """Run one Figure-9 cell with JSONL tracing on, writing ``out``.

    Uses the ``run_all`` methodology defaults
    (:class:`~repro.experiments.runner.ExperimentSettings`) so the
    recorded cell matches the headline sweep.
    """
    # Imported here, not at module top: repro.obs is a leaf package the
    # simulator imports; pulling the experiment stack in at import time
    # would make that circular.
    from repro.experiments.runner import ExperimentSettings
    from repro.obs import ObservabilityConfig
    from repro.sim.simulator import TranslationSimulator
    from repro.workloads import get_workload

    settings = ExperimentSettings(**settings_overrides)
    workload = get_workload(app, scale=settings.scale, seed=settings.seed)
    config = settings.config(
        organization,
        thp,
        obs=ObservabilityConfig(
            trace_path=out, trace_sample_every=sample_every
        ),
    )
    simulator = TranslationSimulator(
        workload,
        config,
        trace_length=settings.trace_length,
        warmup_fraction=settings.warmup_fraction,
    )
    simulator.run()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Attribute per-phase translation cycles from a JSONL trace.",
    )
    parser.add_argument("trace", nargs="?", help="JSONL trace to analyse")
    parser.add_argument(
        "--json", action="store_true", help="emit the attribution as JSON"
    )
    parser.add_argument(
        "--record",
        nargs=2,
        metavar=("APP", "ORG"),
        help="record one Figure-9 cell with tracing on before reporting",
    )
    parser.add_argument("--thp", action="store_true", help="record with THP on")
    parser.add_argument("--out", help="trace path for --record")
    parser.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="trace_sample_every for --record (default 1: exact)",
    )
    parser.add_argument("--scale", type=int, help="footprint scale for --record")
    parser.add_argument(
        "--trace-length", type=int, help="trace length for --record"
    )
    args = parser.parse_args(argv)

    if args.record:
        if not args.out:
            parser.error("--record requires --out TRACE.jsonl")
        app, organization = args.record
        overrides = {}
        if args.scale is not None:
            overrides["scale"] = args.scale
        if args.trace_length is not None:
            overrides["trace_length"] = args.trace_length
        record_cell(
            app,
            organization,
            args.thp,
            args.out,
            sample_every=args.sample_every,
            **overrides,
        )
        trace_path = args.out
    elif args.trace:
        trace_path = args.trace
    else:
        parser.error("give a TRACE.jsonl to analyse, or --record APP ORG --out")

    attribution = attribute(read_jsonl(trace_path))
    if args.json:
        print(json.dumps(attribution, indent=2, sort_keys=True))
    else:
        print(format_report(attribution))
    crosscheck = attribution.get("crosscheck", {})
    failed = any(check["match"] is False for check in crosscheck.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
