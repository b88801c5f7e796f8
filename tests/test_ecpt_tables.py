"""Unit tests for ECPT page tables (repro.ecpt.tables)."""

import gc
import weakref

import pytest

from repro.common.errors import ContiguousAllocationError
from repro.common.units import KB, MB
from repro.ecpt.tables import EcptPageTables
from repro.mem.allocator import CostModelAllocator
from repro.obs import Observability, ObservabilityConfig
from repro.obs.trace import EVENT_RESIZE_BEGIN, filter_kind


def make_tables(fmfi=0.3, **kwargs):
    return EcptPageTables(CostModelAllocator(fmfi=fmfi), **kwargs)


class TestKernelApi:
    def test_map_translate_multiple_sizes(self):
        tables = make_tables()
        tables.map(0x100, 0xA, "4K")
        tables.map(512 * 4, 0xB, "2M")
        tables.map((1 << 18) * 2, 0xC, "1G")
        assert tables.translate(0x100) == (0xA, "4K")
        assert tables.translate(512 * 4 + 5) == (0xB, "2M")
        assert tables.translate((1 << 18) * 2 + 99) == (0xC, "1G")
        assert tables.translate(0x500000) is None

    def test_unmap(self):
        tables = make_tables()
        tables.map(0x100, 0xA)
        assert tables.unmap(0x100)
        assert tables.translate(0x100) is None
        assert not tables.unmap(0x100)

    def test_map_result_carries_allocator_cycles(self):
        tables = make_tables()
        resize_cycles = 0.0
        for i in range(2_000):
            before = tables.allocation_cycles()
            result = tables.map(0x1000 + i * 8, i)
            assert result.alloc_cycles == tables.allocation_cycles() - before
            assert result.nodes == 0
            resize_cycles += result.alloc_cycles
        assert resize_cycles > 0  # some maps resized a way

    def test_cwt_updated_on_map(self):
        tables = make_tables()
        tables.map(0x100, 0xA)
        assert "4K" in tables.pmd_cwt.sizes_for(0x100)
        assert "4K" in tables.pud_cwt.sizes_for(0x100)
        tables.unmap(0x100)
        assert tables.pmd_cwt.sizes_for(0x100) == frozenset()


class TestContiguityBehaviour:
    def test_ways_are_contiguous_allocations(self):
        tables = make_tables(initial_slots=128)
        # One page per 8-page block: 40K distinct HPT entries.
        for i in range(40_000):
            tables.map(0x1000 + i * 8, i)
        # The biggest single allocation equals the biggest way.
        way_bytes = max(w.total_bytes() for w in tables.tables["4K"].table.ways)
        assert tables.max_contiguous_bytes() >= way_bytes // 2
        assert tables.max_contiguous_bytes() >= 1 * MB

    def test_ways_are_one_chunk_resized_out_of_place(self):
        obs = Observability(ObservabilityConfig(trace_buffer=65536))
        allocator = CostModelAllocator(fmfi=0.3)  # scale 1
        tables = EcptPageTables(allocator, obs=obs)
        # 600 one-page blocks per page size: two all-way upsizes each
        # (3 x 128 -> 3 x 256 -> 3 x 512 slots at occupancy 0.6).
        for i in range(600):
            tables.map(i * 8, i, "4K")
            tables.map((i * 8) << 9, i, "2M")
            tables.map((i * 8) << 18, i, "1G")
        tables.drain()
        ways = [way for table in tables.tables.values() for way in table.table.ways]
        assert all(way.upsizes >= 2 for way in ways)
        for way in ways:
            assert way.storage.chunk_count == 1
            assert way.storage.chunk_bytes == way.size * 64
            assert way.inplace_upsizes == 0
        begins = filter_kind(obs.ring.events, EVENT_RESIZE_BEGIN)
        assert len(begins) >= 2 * len(ways)
        assert all(event["inplace"] is False for event in begins)
        largest = max(way.size * 64 for way in ways)
        assert allocator.stats.max_contiguous_bytes == largest

    def test_dropped_tables_are_freed_without_the_cycle_collector(self):
        # The resize target factory closes over the allocator, not the
        # table set, so dropping the last reference frees the tables.
        gc.disable()
        try:
            tables = make_tables()
            for i in range(2_000):
                tables.map(0x1000 + i * 8, i)
            assert tables.upsizes_per_way("4K")[0] > 0
            ref = weakref.ref(tables)
            del tables
            assert ref() is None
        finally:
            gc.enable()

    def test_upsize_fails_on_fragmented_memory(self):
        # At FMFI > 0.7, a 64MB way allocation must crash the run,
        # reproducing the paper's ECPT failure.  scale=64 makes a 1MB way
        # count as a 64MB full-scale allocation.
        tables = EcptPageTables(
            CostModelAllocator(fmfi=0.75, scale=64), initial_slots=2
        )
        with pytest.raises(ContiguousAllocationError):
            for i in range(100_000):
                tables.map(0x1000 + i * 8, i)

    def test_all_ways_resize_together(self):
        tables = make_tables(initial_slots=128)
        for i in range(10_000):
            tables.map(0x1000 + i, i)
        tables.drain()
        sizes = {w.size for w in tables.tables["4K"].table.ways}
        assert len(sizes) == 1

    def test_peak_includes_resize_overlap(self):
        tables = make_tables(initial_slots=128)
        for i in range(40_000):
            tables.map(0x1000 + i, i)
        # Out-of-place resizing keeps old+new alive: peak > final unless
        # the final state itself still holds both tables.
        assert tables.allocation_stats.peak_bytes >= tables.total_bytes()


class TestStatistics:
    def test_upsizes_per_way_tracked(self):
        tables = make_tables(initial_slots=128)
        for i in range(10_000):
            tables.map(0x1000 + i, i)
        upsizes = tables.upsizes_per_way("4K")
        assert len(upsizes) == 3
        assert all(u > 0 for u in upsizes)

    def test_kick_histogram_merged(self):
        tables = make_tables()
        for i in range(5_000):
            tables.map(0x1000 + i, i)
        histogram = tables.kick_histogram()
        assert sum(histogram.values()) > 0

    def test_relocated_counter(self):
        tables = make_tables(initial_slots=128)
        for i in range(10_000):
            tables.map(0x1000 + i, i)
        tables.drain()
        # Out-of-place resizes relocate every rehashed entry.
        assert tables.total_relocated_entries() > 0
