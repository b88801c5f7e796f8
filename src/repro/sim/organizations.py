"""Page-table organizations: one small object per organization, by name.

The paper compares three organizations — x86-64 radix tables behind
page-walk caches, ECPT and ME-HPT.  Every decision the simulator, the
observability layer and the batched MMU make by organization is a
method or attribute of that organization's object here:

* :meth:`~Radix.build` — the page tables and scalar walker for a
  :class:`~repro.sim.config.SimulationConfig`;
* ``walk_batch`` — the batched walker class
  :func:`~repro.mmu.walk_batch.make_walk_batch` builds;
* :meth:`~Radix.os_terms` — the differential OS-cost terms of the
  Figure 9 model from plain inputs, the one formula both
  :meth:`~repro.sim.simulator.TranslationSimulator.run` and
  :func:`repro.obs.report.attribute` evaluate;
  :meth:`~Radix.allocation_cycles` and :meth:`~Radix.relocated_entries`
  read its table-side inputs (the ``run_start`` allocation baseline and
  the ``run_end`` relocated count);
* :meth:`~Radix.memory_fields` — the organization-specific
  :class:`~repro.sim.results.MemoryFootprintResult` fields;
* ``collectors`` — the per-table metric collectors
  :func:`~repro.obs.collectors.register_system_metrics` registers;
* :meth:`~Radix.placements` / :meth:`~Radix.growth` — the NUMA
  placement units and the scan signature's growth count for the
  datacenter model;
* :meth:`~Radix.teardown_entries` / :meth:`~Radix.l2p` — the HPT
  entries a process exit deletes and the L2P table a context switch
  saves, for :class:`~repro.kernel.process.Process`.

This is a name-keyed registry rather than methods on the table classes:
the trace report knows only the organization's name, the build needs a
name -> class map anyway, and the paper's table modules stay free of
obs collectors and datacenter callbacks.  Adding an organization means
adding one class and one :data:`REGISTRY` entry.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

from repro.common.units import CACHE_LINE, PAGE_4K
from repro.core.mehpt import MeHptPageTables
from repro.core.walker import MeHptWalker
from repro.ecpt.tables import EcptPageTables
from repro.ecpt.walker import EcptWalker
from repro.mmu.walk_batch import HptWalkBatch, RadixWalkBatch
from repro.obs.collectors import (
    register_hashed_tables,
    register_mehpt_tables,
    register_radix_tables,
)
from repro.radix.pwc import PageWalkCaches
from repro.radix.table import RadixPageTable
from repro.radix.walker import RadixWalker

#: ``(base_line, n_lines, nbytes, pool handle)`` of one placement unit.
Placement = Tuple[int, int, int, int]

#: Lines per radix node (one 4KB page of PTEs).
_NODE_LINES = PAGE_4K // CACHE_LINE


class Radix:
    """x86-64 radix tables, walked level by level behind the PWCs."""

    walk_batch = RadixWalkBatch
    collectors = (register_radix_tables,)

    def build(self, config, allocator, caches, plan, degradation, obs):
        """``(page_tables, walker)``; radix nodes bypass the allocator."""
        tables = RadixPageTable(levels=config.radix_levels)
        walker = RadixWalker(
            tables,
            caches,
            pwc=PageWalkCaches(
                levels=config.radix_levels,
                entries_per_level=config.pwc_entries_per_level,
            ),
            obs=obs,
        )
        return tables, walker

    def allocation_cycles(self, tables) -> float:
        """Allocator cycles so far: none, nodes are billed per fault."""
        return 0.0

    def relocated_entries(self, tables) -> int:
        """Entries moved by resizing: a radix tree never moves any."""
        return 0

    def os_terms(
        self, *, alloc_total, pt_fault_cycles, reinsert_cycles, kicks,
        relocated, scale, l2p_cycles, rehash_entry_cycles,
    ) -> Tuple[float, float, float, float]:
        """``(pt_alloc, reinsert, l2p_exposed, rehash_moves)`` cycles.

        Radix node allocations are billed per fault at scaled counts,
        so they are multiplied back to full-scale equivalents.
        """
        return pt_fault_cycles * scale, 0.0, 0.0, 0.0

    def memory_fields(self, tables, pt_fault_cycles, scale) -> Dict[str, object]:
        """This organization's :class:`MemoryFootprintResult` fields."""
        return dict(
            total_pt_bytes=tables.table_bytes() * scale,
            peak_pt_bytes=tables.table_bytes() * scale,
            pt_alloc_cycles=pt_fault_cycles * scale,
        )

    def placements(
        self, tables, back_node: Callable[[int], int]
    ) -> Iterator[Placement]:
        """One unit per tree node; ``back_node(addr)`` is its pool handle."""
        stack = [tables.root]
        while stack:
            node = stack.pop()
            yield node.addr // CACHE_LINE, _NODE_LINES, PAGE_4K, back_node(node.addr)
            for child in node.entries.values():
                if hasattr(child, "entries"):
                    stack.append(child)

    def growth(self, tables) -> int:
        """Nodes created so far: the tree grows without the pool noticing."""
        return tables.node_count

    def teardown_entries(self, tables) -> int:
        """HPT entries a process exit deletes: a radix tree holds none."""
        return 0

    def l2p(self, tables):
        """The L2P table a context switch saves: radix has none."""
        return None


class Ecpt:
    """Elastic cuckoo page tables: contiguous ways, all-way resizing."""

    tables_class = EcptPageTables
    walker_class = EcptWalker
    walk_batch = HptWalkBatch
    collectors = (register_hashed_tables,)

    def options(self, config) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Extra ``(tables, walker)`` constructor arguments: none."""
        return {}, {}

    def build(self, config, allocator, caches, plan, degradation, obs):
        """``(page_tables, walker)`` over ``allocator`` and ``caches``."""
        table_options, walker_options = self.options(config)
        tables = self.tables_class(
            allocator,
            ways=config.ways,
            initial_slots=config.scaled_initial_slots(),
            hash_seed=config.seed,
            upsize_threshold=config.upsize_threshold,
            downsize_threshold=config.downsize_threshold,
            rehashes_per_insert=config.rehashes_per_insert,
            allow_downsize=config.allow_downsize,
            fault_plan=plan,
            degradation=degradation,
            obs=obs,
            **table_options,
        )
        walker = self.walker_class(
            tables, caches,
            pmd_cwc_entries=config.pmd_cwc_entries,
            pud_cwc_entries=config.pud_cwc_entries,
            cwc_cycles=config.cwc_cycles,
            obs=obs,
            **walker_options,
        )
        return tables, walker

    def allocation_cycles(self, tables) -> float:
        """Cumulative allocator cycles, already at full-scale equivalents."""
        return tables.allocation_cycles()

    def relocated_entries(self, tables) -> int:
        """Entries physically moved by gradual rehashing so far."""
        return tables.total_relocated_entries()

    def l2p_exposed(self, kicks, scale, l2p_cycles) -> float:
        """Exposed L2P cycles: ECPT has no L2P table."""
        return 0.0

    def os_terms(
        self, *, alloc_total, pt_fault_cycles, reinsert_cycles, kicks,
        relocated, scale, l2p_cycles, rehash_entry_cycles,
    ) -> Tuple[float, float, float, float]:
        """``(pt_alloc, reinsert, l2p_exposed, rehash_moves)`` cycles.

        ``alloc_total`` is the allocator's cumulative total, which
        already counts at full-scale equivalents.
        """
        return (
            alloc_total,
            reinsert_cycles * scale,
            self.l2p_exposed(kicks, scale, l2p_cycles),
            relocated * scale * rehash_entry_cycles,
        )

    def memory_fields(self, tables, pt_fault_cycles, scale) -> Dict[str, object]:
        """This organization's :class:`MemoryFootprintResult` fields.

        Current and peak bytes come from the allocator's stats, which
        already count at full-scale equivalents.
        """
        stats = tables.allocation_stats
        return dict(
            total_pt_bytes=stats.current_bytes,
            peak_pt_bytes=stats.peak_bytes,
            pt_alloc_cycles=tables.allocation_cycles(),
            upsizes_per_way_4k=tables.upsizes_per_way("4K"),
            way_bytes_4k=[b * scale for b in tables.way_bytes("4K")],
            moved_fractions_4k=tables.moved_fractions("4K"),
            kick_histogram=dict(tables.kick_histogram()),
        )

    def placements(
        self, tables, back_node: Callable[[int], int]
    ) -> Iterator[Placement]:
        """Every live way storage's regions, resize targets included."""
        for per_size in tables.tables.values():
            for way in per_size.table.ways:
                for storage in (way.storage, way.old_storage):
                    if storage is not None:
                        yield from storage.placements()

    def growth(self, tables) -> int:
        """Constant: hashed tables only grow through pool allocations."""
        return 0

    def teardown_entries(self, tables) -> int:
        """HPT entries a process exit deletes: its own, by a table drop."""
        return sum(len(per_size.table) for per_size in tables.tables.values())

    def l2p(self, tables):
        """The L2P table a context switch saves: ECPT has none."""
        return None


class MeHpt(Ecpt):
    """ME-HPT: ECPT plus chunked ways, the L2P table, in-place and
    per-way resizing."""

    tables_class = MeHptPageTables
    walker_class = MeHptWalker
    collectors = Ecpt.collectors + (register_mehpt_tables,)

    def options(self, config) -> Tuple[Dict[str, object], Dict[str, object]]:
        """The chunk ladder and ablation switches; the L2P latency."""
        return (
            dict(
                chunk_ladder=config.scaled_ladder(),
                enable_inplace=config.enable_inplace,
                enable_perway=config.enable_perway,
            ),
            dict(l2p_cycles=config.l2p_cycles),
        )

    def l2p_exposed(self, kicks, scale, l2p_cycles) -> float:
        """One exposed L2P lookup per cuckoo kick, at full scale."""
        return kicks * scale * l2p_cycles

    def l2p(self, tables):
        """The L2P table a context switch saves and restores."""
        return tables.l2p

    def memory_fields(self, tables, pt_fault_cycles, scale) -> Dict[str, object]:
        """ECPT's fields plus L2P usage and chunk-size transitions."""
        return dict(
            super().memory_fields(tables, pt_fault_cycles, scale),
            l2p_entries_used=tables.l2p_entries_used(),
            chunk_transitions=tables.total_chunk_transitions(),
        )


#: Organization name -> its object, in report order.
REGISTRY = {"radix": Radix(), "ecpt": Ecpt(), "mehpt": MeHpt()}
