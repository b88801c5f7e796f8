"""Snapshot-time collectors: copy component counters into the registry.

The simulator's components already count everything the paper's figures
need (walker cycles, cuckoo kick histograms, allocator footprints);
observing them costs nothing until a snapshot is taken.  This module
registers one collector per component on a built
:class:`~repro.sim.config.SimulatedSystem`; each collector runs inside
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` and copies the
component's state into catalogue-validated metrics.

Everything here is duck-typed against the component attributes (``stats``
objects, lifetime counters) rather than against the classes, so the
module imports nothing from the simulator and stays a leaf.  Which
page-table collectors a system gets is its organization's choice: each
object in :mod:`repro.sim.organizations` lists its own (the
``register_*_tables`` functions here).

All byte quantities are published at full-scale equivalents, matching
``MemoryFootprintResult`` (the allocator already accounts at ``scale x``;
table and way bytes are multiplied back here).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


def register_system_metrics(registry: MetricsRegistry, system) -> None:
    """Register collectors for every instrumented component of ``system``."""
    scale = system.config.scale
    _register_alloc(registry, system.allocator.stats)
    _register_tlb(registry, system.tlb)
    _register_walker(registry, system.walker)
    _register_kernel(registry, system.address_space.totals)
    _register_degradation(registry, system.degradation)
    for register in system.org.collectors:
        register(registry, system.page_tables, scale)


def _register_alloc(registry: MetricsRegistry, stats) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("alloc.allocations").set_total(stats.allocations)
        reg.counter("alloc.frees").set_total(stats.frees)
        reg.counter("alloc.cycles").set_total(stats.cycles)
        reg.counter("alloc.failed_allocations").set_total(stats.failed_allocations)
        reg.gauge("alloc.current_bytes").set(stats.current_bytes)
        reg.gauge("alloc.peak_bytes").set(stats.peak_bytes)
        reg.gauge("alloc.max_contiguous_bytes").set(stats.max_contiguous_bytes)

    registry.add_collector(collect)


def _register_tlb(registry: MetricsRegistry, tlb) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("tlb.translations").set_total(tlb.translations)
        reg.counter("tlb.l1_hits").set_total(tlb.l1_hits)
        reg.counter("tlb.l2_hits").set_total(tlb.l2_hits)
        reg.counter("tlb.walks").set_total(tlb.walks)
        reg.counter("tlb.faults").set_total(tlb.faults)

    registry.add_collector(collect)


def _register_walker(registry: MetricsRegistry, walker) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("walker.walks").set_total(walker.walks)
        reg.counter("walker.walk_cycles").set_total(walker.total_cycles)
        reg.counter("walker.memory_accesses").set_total(walker.total_accesses)
        if hasattr(walker, "cwt_memory_reads"):
            reg.counter("walker.cwt_memory_reads").set_total(
                walker.cwt_memory_reads
            )
        if hasattr(walker, "l2p_hidden_accesses"):
            reg.counter("l2p.hidden_accesses").set_total(
                walker.l2p_hidden_accesses
            )
            reg.counter("l2p.exposed_cycles").set_total(
                walker.l2p_exposed_cycles
            )

    registry.add_collector(collect)


def _register_kernel(registry: MetricsRegistry, totals) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("kernel.faults").set_total(totals.faults)
        reg.counter("kernel.fault_cycles").set_total(totals.cycles)
        reg.counter("kernel.pt_alloc_cycles").set_total(totals.pt_alloc_cycles)
        reg.counter("kernel.data_alloc_cycles").set_total(totals.data_alloc_cycles)
        reg.counter("kernel.reinsert_cycles").set_total(totals.reinsert_cycles)
        reg.counter("kernel.kicks").set_total(totals.kicks)
        reg.counter("kernel.pages_mapped_4k").set_total(totals.pages_mapped_4k)
        reg.counter("kernel.pages_mapped_2m").set_total(totals.pages_mapped_2m)

    registry.add_collector(collect)


def _register_degradation(registry: MetricsRegistry, log) -> None:
    def collect(reg: MetricsRegistry) -> None:
        for kind, count in sorted(log.counts().items()):
            reg.counter("faults.events", kind=kind).set_total(count)
        reg.counter("faults.recovery_cycles").set_total(log.recovery_cycles)

    registry.add_collector(collect)


def register_radix_tables(registry: MetricsRegistry, tables, scale: int) -> None:
    """Radix tree size, at full-scale equivalents."""

    def collect(reg: MetricsRegistry) -> None:
        reg.gauge("radix.table_bytes").set(tables.table_bytes() * scale)

    registry.add_collector(collect)


def register_hashed_tables(registry: MetricsRegistry, tables, scale: int) -> None:
    """Per page size and per way cuckoo counters, occupancy and bytes."""

    def collect(reg: MetricsRegistry) -> None:
        for page_size, clustered in tables.tables.items():
            table = clustered.table
            stats = table.stats
            reg.counter("cuckoo.inserts", size=page_size).set_total(stats.inserts)
            reg.counter("cuckoo.lookups", size=page_size).set_total(stats.lookups)
            reg.counter("cuckoo.rehash_steps", size=page_size).set_total(
                stats.rehash_steps
            )
            reg.counter("cuckoo.rehash_conflicts", size=page_size).set_total(
                stats.rehash_conflicts
            )
            reg.counter("cuckoo.eager_migrations", size=page_size).set_total(
                stats.eager_migrations
            )
            reg.histogram("cuckoo.kick_depth", size=page_size).set_from_bins(
                stats.kick_histogram
            )
            reg.gauge("cuckoo.occupancy", size=page_size).set(table.occupancy())
            reg.gauge("cuckoo.total_bytes", size=page_size).set(
                table.total_bytes() * scale
            )
            for way in table.ways:
                labels = {"size": page_size, "way": way.index}
                reg.gauge("cuckoo.way_occupancy", **labels).set(way.occupancy())
                reg.gauge("cuckoo.way_bytes", **labels).set(
                    way.total_bytes() * scale
                )
                reg.counter("cuckoo.way_upsizes", **labels).set_total(way.upsizes)
                reg.counter("cuckoo.way_downsizes", **labels).set_total(
                    way.downsizes
                )
                reg.counter("cuckoo.way_inplace_upsizes", **labels).set_total(
                    way.inplace_upsizes
                )
                reg.counter("cuckoo.way_rollbacks", **labels).set_total(
                    way.rollbacks
                )
                reg.counter("cuckoo.way_rehash_relocated", **labels).set_total(
                    way.rehash_relocated
                )

    registry.add_collector(collect)


def register_mehpt_tables(registry: MetricsRegistry, tables, scale: int) -> None:
    """ME-HPT's L2P usage, chunk-size transitions and chunk sizes."""

    def collect(reg: MetricsRegistry) -> None:
        reg.gauge("l2p.entries_used").set(tables.l2p_entries_used())
        for page_size, count in tables.chunk_transitions.items():
            reg.counter("mehpt.chunk_transitions", size=page_size).set_total(count)
            for way in tables.tables[page_size].table.ways:
                reg.gauge("mehpt.chunk_bytes", size=page_size, way=way.index).set(
                    way.storage.chunk_bytes * scale
                )

    registry.add_collector(collect)
