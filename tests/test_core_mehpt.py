"""Unit tests for the assembled ME-HPT page tables (repro.core.mehpt)."""

import pytest

from repro.common.units import KB, MB
from repro.core.chunks import ChunkLadder
from repro.core.l2p import L2PTable
from repro.core.mehpt import MeHptPageTables
from repro.mem.allocator import CostModelAllocator


def make_tables(fmfi=0.3, **kwargs):
    return MeHptPageTables(CostModelAllocator(fmfi=fmfi), **kwargs)


class TestBasics:
    def test_map_translate(self):
        tables = make_tables()
        tables.map(0x100, 0xA)
        tables.map(512 * 2, 0xB, "2M")
        assert tables.translate(0x100) == (0xA, "4K")
        assert tables.translate(512 * 2 + 1) == (0xB, "2M")

    def test_ways_start_at_smallest_chunk(self):
        tables = make_tables()
        assert all(c == 8 * KB for c in tables.chunk_bytes_per_way("4K"))

    def test_l2p_shared_across_page_sizes(self):
        tables = make_tables()
        tables.map(0x100, 1, "4K")
        tables.map(512 * 4, 2, "2M")
        assert tables.l2p_entries_used() >= 6  # 3 ways x 2 page sizes minimum


class TestContiguity:
    def test_contiguous_need_is_one_chunk(self):
        tables = make_tables()
        # One page per 8-page block: 40K distinct HPT entries, so the
        # 4KB-page ways outgrow the 8KB-chunk budget and move to 1MB.
        for i in range(40_000):
            tables.map(0x1000 + i * 8, i)
        assert tables.max_contiguous_bytes() <= 1 * MB
        assert tables.total_bytes() > 1 * MB  # the table itself is bigger

    def test_survives_high_fragmentation(self):
        # Where ECPT crashes (>0.7 FMFI), ME-HPT keeps working because it
        # never asks for more than a 1MB chunk.
        tables = make_tables(fmfi=0.9)
        for i in range(40_000):
            tables.map(0x1000 + i, i)
        assert tables.translate(0x1000 + 39_999) is not None


class TestChunkTransitions:
    def test_transition_to_1mb_chunks(self):
        tables = make_tables()
        for i in range(40_000):
            tables.map(0x1000 + i * 8, i)
        assert all(c == 1 * MB for c in tables.chunk_bytes_per_way("4K"))
        assert tables.chunk_transitions["4K"] == 3  # one per way

    def test_small_footprint_stays_on_8kb_chunks(self):
        tables = make_tables()
        for i in range(1_000):
            tables.map(0x1000 + i, i)
        assert all(c == 8 * KB for c in tables.chunk_bytes_per_way("4K"))
        assert tables.total_chunk_transitions() == 0

    def test_fixed_1mb_ladder_never_transitions_small(self):
        tables = make_tables(chunk_ladder=ChunkLadder([1 * MB, 8 * MB]))
        for i in range(1_000):
            tables.map(0x1000 + i, i)
        assert all(c == 1 * MB for c in tables.chunk_bytes_per_way("4K"))
        # Wasteful: each tiny way occupies a whole 1MB chunk (Figure 15).
        assert tables.total_bytes() >= 3 * MB


class TestPerWayResizing:
    def test_way_sizes_can_differ(self):
        tables = make_tables()
        for i in range(20_000):
            tables.map(0x1000 + i, i)
        # Per-way resizing staggers sizes at least transiently; after the
        # run either sizes differ or upsize counts stay within one.
        upsizes = tables.upsizes_per_way("4K")
        assert max(upsizes) - min(upsizes) <= 1

    def test_ablation_all_way(self):
        tables = make_tables(enable_perway=False)
        for i in range(20_000):
            tables.map(0x1000 + i, i)
        tables.drain()
        sizes = {w.size for w in tables.tables["4K"].table.ways}
        assert len(sizes) == 1


class TestInPlaceResizing:
    def test_moved_fraction_near_half(self):
        tables = make_tables()
        for i in range(40_000):
            tables.map(0x1000 + i, i)
        fractions = [f for f in tables.moved_fractions("4K") if f > 0]
        assert fractions
        for fraction in fractions:
            assert 0.35 < fraction < 0.65

    def test_ablation_out_of_place_moves_all(self):
        tables = make_tables(enable_inplace=False)
        for i in range(20_000):
            tables.map(0x1000 + i, i)
        tables.drain()
        fractions = [f for f in tables.moved_fractions("4K") if f > 0]
        assert fractions
        for fraction in fractions:
            assert fraction > 0.95

    def test_inplace_peak_below_out_of_place_peak(self):
        inplace = make_tables(hash_seed=1)
        outofplace = make_tables(hash_seed=1, enable_inplace=False)
        for i in range(40_000):
            inplace.map(0x1000 + i, i)
            outofplace.map(0x1000 + i, i)
        assert (
            inplace.allocation_stats.peak_bytes
            < outofplace.allocation_stats.peak_bytes
        )


class TestL2PIntegration:
    def test_external_l2p_observes_usage(self):
        l2p = L2PTable(ways=3)
        tables = make_tables(l2p=l2p)
        for i in range(10_000):
            tables.map(0x1000 + i, i)
        assert l2p.entries_used() == tables.l2p_entries_used()
        assert l2p.entries_used() > 0

    def test_usage_within_capacity(self):
        tables = make_tables()
        for i in range(100_000):
            tables.map(0x1000 + i, i)
        assert tables.l2p_entries_used() <= tables.l2p.total_entries()
