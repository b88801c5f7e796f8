"""The trace-driven translation simulator and the footprint populator.

Two entry points:

* :func:`populate_tables` — demand-fault a workload's entire page set
  into a built system.  This is all the memory experiments need (Table I,
  Figures 8 and 10-15): the page-table sizes, contiguity, resizes, L2P
  usage and cuckoo statistics are products of *which pages exist*, not of
  the access order.  The pages go through
  :meth:`~repro.kernel.address_space.AddressSpace.fault_in`, which
  fills each run of 4KB pages whose HPT line or radix PTE node already
  exists with one table call, without the per-page fault path, and
  faults every other page through ``handle_fault``, with the same
  bill, totals and trace either way.

* :class:`TranslationSimulator` — run an access trace through the TLB
  hierarchy and walker, demand-faulting as pages are first touched, and
  produce a :class:`~repro.sim.results.PerformanceResult` (Figure 9).
  The trace goes through :func:`repro.sim.fastpath.run_vectorized`,
  the single-process driver for whichever engine the config picks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import (
    ConfigurationError,
    ContiguousAllocationError,
    L2POverflowError,
    MEHPTError,
    SimulationError,
    TableFullError,
)
from repro.faults.log import EVENT_ABORT
from repro.obs.trace import (
    EVENT_MEASURE_START,
    EVENT_RUN_END,
    EVENT_RUN_START,
)
from repro.sim import fastpath
from repro.sim.config import (
    SimulatedSystem,
    SimulationConfig,
    check_trace_length,
    check_warmup_fraction,
)
from repro.sim.results import MemoryFootprintResult, PerformanceResult
from repro.workloads.base import Workload

logger = logging.getLogger(__name__)

#: Failure modes a run survives by *recording* rather than crashing: the
#: paper's contiguous-allocation failure, a cuckoo table stuck despite
#: emergency resizes, and an exhausted chunk ladder.
ABORT_ERRORS = (ContiguousAllocationError, TableFullError, L2POverflowError)

#: Pages per chunk when iterating a footprint's page set.
POPULATE_CHUNK_PAGES = 65536


@dataclass
class LoopOutcome:
    """What the single-process driver produced, independent of engine.

    :func:`repro.sim.fastpath.run_vectorized` returns this under either
    engine; :meth:`TranslationSimulator.run` assembles the final
    :class:`~repro.sim.results.PerformanceResult` from it plus the
    system's counters, so the two engines share all result accounting.
    """

    events_done: int = 0
    total_cycles: float = 0.0
    warm_cycles: float = 0.0
    warm_l1: int = 0
    warm_l2: int = 0
    warm_walks: int = 0
    warm_faults: int = 0
    failed: bool = False
    reason: str = ""


def record_abort(system: SimulatedSystem, exc: MEHPTError, phase: str) -> str:
    """Log a survived abort of ``phase``; returns the failure reason.

    Allocation failures already logged their abort in the allocator;
    the structural ones are recorded here.
    """
    if not isinstance(exc, ContiguousAllocationError):
        system.degradation.record(EVENT_ABORT, phase, error=type(exc).__name__)
    return str(exc)


def check_system_invariants(system: SimulatedSystem, progress: int) -> None:
    """Run the page tables' invariant checks, annotating any violation.

    Re-raises the :class:`SimulationError` with the simulation progress
    (accesses or pages processed) merged into its structured context.
    """
    try:
        system.page_tables.check_invariants()
    except SimulationError as exc:
        exc.context.setdefault("progress", progress)
        exc.context.setdefault("organization", system.config.organization)
        raise


def populate_tables(system: SimulatedSystem, progress_every: int = 0) -> None:
    """Fault every page of the workload's page set into the page tables.

    The page set goes through
    :meth:`~repro.kernel.address_space.AddressSpace.fault_in` in pieces
    cut after every page an invariant check or a progress line follows
    (page index ``i > 0`` with ``i % invariant_check_every == 0``, or
    likewise for ``progress_every``), so both run after the same page
    as a page-at-a-time loop would run them.

    Raises :class:`ContiguousAllocationError` if the organization needs a
    contiguous allocation the fragmented machine cannot provide (the
    paper's ECPT failure above 0.7 FMFI).
    """
    aspace = system.address_space
    check_every = system.config.invariant_check_every
    page_set = system.workload.page_set()
    pages = len(page_set)
    start = 0
    while start < pages:
        # Bounded pieces: one bulk tolist() per piece hands the loop
        # native ints without materializing a full-footprint Python list.
        stop = min(start + POPULATE_CHUNK_PAGES, pages)
        for every in (check_every, progress_every):
            if every:
                # The first index >= start that is a positive multiple.
                due = max(every, -(-start // every) * every)
                stop = min(stop, due + 1)
        block = page_set[start:stop]
        aspace.fault_in(
            block.tolist() if hasattr(block, "tolist") else list(map(int, block))
        )
        last = stop - 1
        if check_every and last % check_every == 0 and last:
            check_system_invariants(system, last)
        if progress_every and last % progress_every == 0 and last:
            # logging, not print: parallel sweep workers would otherwise
            # interleave progress lines on the shared stdout.
            logger.info("populated %d pages...", last)
        start = stop
    if check_every:
        check_system_invariants(system, -1)
    if progress_every:
        # The modulo check above never announces the last page (and for
        # short page sets never fires at all); always log completion.
        logger.info(
            "populated %d pages (%.0f fault cycles)", pages, aspace.totals.cycles
        )
    if system.obs is not None:
        system.obs.advance_clock(int(aspace.totals.cycles))
        if system.obs.registry is not None:
            system.obs.registry.counter("sim.populated_pages").set_total(pages)


def memory_result(system: SimulatedSystem, populate: bool = True) -> MemoryFootprintResult:
    """Populate (optionally) and collect the memory-side measurements.

    The trace sink is closed however the call ends.
    """
    try:
        config = system.config
        workload = system.workload
        failed = False
        reason = ""
        if populate:
            try:
                populate_tables(system)
            except ABORT_ERRORS as exc:
                failed = True
                reason = record_abort(system, exc, "populate")
        tables = system.page_tables
        totals = system.address_space.totals
        result = MemoryFootprintResult(
            workload=workload.spec.name,
            organization=config.organization,
            thp=config.thp_enabled,
            max_contiguous_bytes=tables.max_contiguous_bytes(),
            pages_mapped_4k=totals.pages_mapped_4k,
            pages_mapped_2m=totals.pages_mapped_2m,
            failed=failed,
            failure_reason=reason,
            degradation_counts=dict(system.degradation.counts()),
            recovery_cycles=system.degradation.recovery_cycles,
            **system.org.memory_fields(tables, totals.pt_alloc_cycles, config.scale),
        )
        if system.obs is not None:
            result.metrics = system.obs.snapshot_metrics()
        return result
    finally:
        if system.obs is not None:
            system.obs.close()


class TranslationSimulator:
    """Runs an access trace through one assembled system."""

    def __init__(
        self,
        workload: Optional[Workload],
        config: SimulationConfig,
        trace_length: int = 200_000,
        warmup_fraction: float = 0.0,
        engine_chunk: Optional[int] = None,
    ) -> None:
        if workload is None:
            # Trace-driven path: the config names a .vpt file to replay.
            workload = config.load_trace_workload()
        check_trace_length(trace_length)
        check_warmup_fraction(warmup_fraction)
        if engine_chunk is not None and engine_chunk < 1:
            raise ConfigurationError(
                f"engine_chunk {engine_chunk} must be >= 1",
                field="engine_chunk", value=engine_chunk,
            )
        self.workload = workload
        self.config = config
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        #: Trace events fed to the engine per chunk (None = the engine
        #: default).  Results are chunk-size invariant; tests use small
        #: chunks to exercise boundary handling.
        self.engine_chunk = engine_chunk
        self.system: Optional[SimulatedSystem] = None

    def run(self) -> PerformanceResult:
        """Simulate the trace; returns the performance measurements.

        The trace sink is closed however the run ends.
        """
        system = self.config.build(self.workload)
        self.system = system
        try:
            return self._simulate(system)
        finally:
            if system.obs is not None:
                system.obs.close()

    def _simulate(self, system: SimulatedSystem) -> PerformanceResult:
        config = self.config
        tlb = system.tlb
        aspace = system.address_space
        tables = system.page_tables
        obs = system.obs

        # The first ``warmup_fraction`` of the trace warms the TLBs and
        # page tables (translations and demand faults run normally) but
        # is excluded from the measured window: translation cycles, TLB
        # hit/walk/fault counters and the access count all start at the
        # warmup boundary.  Traces always deliver exactly trace_length
        # events, so the boundary is known before streaming begins.
        warmup_events = int(self.warmup_fraction * self.trace_length)
        if obs is not None:
            # The run_start payload carries every model constant the
            # repro.obs.report CLI needs to rebuild the differential
            # performance terms from the event stream alone.
            obs.emit(
                EVENT_RUN_START,
                workload=self.workload.spec.name,
                organization=config.organization,
                thp=config.thp_enabled,
                scale=config.scale,
                seed=config.seed,
                trace_events=self.trace_length,
                warmup_events=warmup_events,
                sample_every=(
                    config.obs.trace_sample_every if config.obs is not None else 1
                ),
                page_repeats=max(1, self.workload.spec.pattern.page_repeats),
                base_cycles_per_access=config.base_cycles_per_access,
                fullscale_accesses=self.workload.spec.fullscale_accesses,
                reinsert_cycles=config.reinsert_cycles,
                l2p_cycles=config.l2p_cycles,
                rehash_entry_cycles=config.rehash_entry_cycles,
                fault_overhead_cycles=config.fault_overhead_cycles,
                l2_hit_cycles=tlb.l2_miss_probe_cycles,
                pt_alloc_cycles_at_start=system.org.allocation_cycles(tables),
            )
            if warmup_events == 0:
                obs.emit(EVENT_MEASURE_START, event=0)

        # Looked up at call time, so a wrapper installed on the module
        # (a profiler span, a test spy) sees every run.
        loop = fastpath.run_vectorized(
            system, self.workload, self.trace_length, warmup_events,
            chunk_values=self.engine_chunk,
        )
        events_done = loop.events_done
        total_cycles = loop.total_cycles
        failed = loop.failed
        reason = loop.reason

        if events_done >= warmup_events:
            translation_cycles = total_cycles - loop.warm_cycles
            l1_hits = tlb.l1_hits - loop.warm_l1
            l2_hits = tlb.l2_hits - loop.warm_l2
            walks = tlb.walks - loop.warm_walks
            faults = tlb.faults - loop.warm_faults
        else:
            # Aborted inside the warmup window: nothing was measured.
            translation_cycles = 0.0
            l1_hits = l2_hits = walks = faults = 0

        # Each trace event stands for ``page_repeats`` accesses to that
        # page; the repeats hit the L1 TLB (0 extra translation cycles)
        # and only scale the access count.  ``events_done`` — not
        # ``len(trace)`` — feeds the count, so an aborted run's per-access
        # rates divide the prefix's cycles by the prefix's accesses.
        repeats = max(1, self.workload.spec.pattern.page_repeats)
        accesses = max(0, events_done - warmup_events) * repeats

        totals = aspace.totals
        org = system.org
        relocated = org.relocated_entries(tables)
        pt_alloc, reinsert, l2p_exposed, rehash_moves = org.os_terms(
            alloc_total=org.allocation_cycles(tables),
            pt_fault_cycles=totals.pt_alloc_cycles,
            reinsert_cycles=totals.reinsert_cycles,
            kicks=totals.kicks,
            relocated=relocated,
            scale=config.scale,
            l2p_cycles=config.l2p_cycles,
            rehash_entry_cycles=config.rehash_entry_cycles,
        )
        metrics = {}
        if obs is not None:
            # run_end records the simulator's own term values so the
            # report CLI can cross-check its event-derived reconstruction.
            obs.emit(
                EVENT_RUN_END,
                events_done=events_done,
                accesses=accesses,
                failed=failed,
                translation_cycles=translation_cycles,
                l1_hits=l1_hits,
                l2_hits=l2_hits,
                walks=walks,
                faults=faults,
                pt_alloc_cycles=pt_alloc,
                reinsert_cycles=reinsert,
                l2p_exposed_cycles=l2p_exposed,
                rehash_move_cycles=rehash_moves,
                relocated_entries=relocated,
            )
            if obs.registry is not None:
                reg = obs.registry
                reg.counter("sim.trace_events").set_total(events_done)
                reg.counter("sim.accesses").set_total(accesses)
                reg.counter("sim.translation_cycles").set_total(
                    translation_cycles
                )
            metrics = obs.snapshot_metrics()
        return PerformanceResult(
            workload=self.workload.spec.name,
            organization=config.organization,
            thp=config.thp_enabled,
            accesses=accesses,
            base_cycles_per_access=config.base_cycles_per_access,
            translation_cycles=translation_cycles,
            l1_hits=l1_hits,
            l2_hits=l2_hits,
            walks=walks,
            faults=faults,
            pt_alloc_cycles=pt_alloc,
            reinsert_cycles=reinsert,
            l2p_exposed_cycles=l2p_exposed,
            rehash_move_cycles=rehash_moves,
            fullscale_accesses=self.workload.spec.fullscale_accesses,
            fault_overhead_cycles=totals.faults * config.fault_overhead_cycles,
            data_alloc_cycles=totals.data_alloc_cycles,
            failed=failed,
            failure_reason=reason,
            degradation_counts=dict(system.degradation.counts()),
            recovery_cycles=system.degradation.recovery_cycles,
            metrics=metrics,
        )
