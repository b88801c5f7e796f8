"""Unit tests for the radix page table (repro.radix.table)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import PAGE_4K
from repro.radix.table import FANOUT, RadixPageTable


class TestMapping:
    def test_map_translate_4k(self):
        table = RadixPageTable()
        table.map(0x12345, 0x999)
        assert table.translate(0x12345) == (0x999, "4K")
        assert table.translate(0x12346) is None

    def test_map_2m_leaf_covers_512_pages(self):
        table = RadixPageTable()
        base = 512 * 9
        table.map(base, 0x777, "2M")
        assert table.translate(base) == (0x777, "2M")
        assert table.translate(base + 511) == (0x777, "2M")
        assert table.translate(base + 512) is None

    def test_map_1g_leaf(self):
        table = RadixPageTable()
        base = (1 << 18) * 2
        table.map(base, 0x555, "1G")
        assert table.translate(base + 98765) == (0x555, "1G")

    def test_alignment_enforced(self):
        table = RadixPageTable()
        with pytest.raises(ConfigurationError):
            table.map(513, 1, "2M")

    def test_conflicting_leaf_levels_rejected(self):
        table = RadixPageTable()
        table.map(0, 1, "2M")
        with pytest.raises(ConfigurationError):
            table.map(0, 2, "4K")  # inside the huge page
        table2 = RadixPageTable()
        table2.map(5, 1, "4K")
        with pytest.raises(ConfigurationError):
            table2.map(0, 2, "2M")  # over existing small pages

    def test_map_result_counts_new_nodes(self):
        table = RadixPageTable()
        # A fresh 4-level tree holds only its root: the first 4KB map
        # creates the PUD, PMD and PTE nodes, a neighbour creates none.
        first = table.map(7, 1)
        assert (first.nodes, first.kicks, first.alloc_cycles) == (3, 0, 0.0)
        assert table.map(8, 2).nodes == 0
        assert table.node_count == 4

    def test_remap_replaces(self):
        table = RadixPageTable()
        table.map(7, 1)
        table.map(7, 2)
        assert table.translate(7) == (2, "4K")
        assert table.mapped_pages["4K"] == 1

    def test_unmap(self):
        table = RadixPageTable()
        table.map(7, 1)
        assert table.unmap(7)
        assert table.translate(7) is None
        assert not table.unmap(7)

    def test_five_level_mode(self):
        table = RadixPageTable(levels=5)
        vpn = (1 << 48) // PAGE_4K * 3  # beyond 48-bit VA space
        table.map(vpn, 0xAB)
        assert table.translate(vpn) == (0xAB, "4K")

    def test_invalid_levels(self):
        with pytest.raises(ConfigurationError):
            RadixPageTable(levels=3)


class TestMemoryAccounting:
    def test_one_node_initially(self):
        assert RadixPageTable().table_bytes() == PAGE_4K

    def test_dense_mapping_node_count(self):
        table = RadixPageTable()
        # Map 2*FANOUT contiguous pages: 2 PTE nodes + 1 PMD + 1 PUD + root.
        for vpn in range(2 * FANOUT):
            table.map(vpn, vpn)
        assert table.node_count == 5
        assert table.max_contiguous_bytes() == PAGE_4K

    def test_sparse_mapping_costs_more_nodes(self):
        dense = RadixPageTable()
        sparse = RadixPageTable()
        for i in range(64):
            dense.map(i, i)
            sparse.map(i * FANOUT * FANOUT, i)
        assert sparse.node_count > dense.node_count


class TestWalkPath:
    def test_walk_depth_4k(self):
        table = RadixPageTable()
        table.map(0x1000, 1)
        leaf, lines = table.walk(0x1000)
        assert leaf is not None
        assert len(lines) == 4  # PGD, PUD, PMD, PTE

    def test_walk_depth_2m(self):
        table = RadixPageTable()
        table.map(0, 1, "2M")
        leaf, lines = table.walk(100)
        assert leaf.page_size == "2M"
        assert len(lines) == 3  # stops at the PMD leaf

    def test_walk_unmapped_stops_at_missing_entry(self):
        table = RadixPageTable()
        table.map(0x1000, 1)
        leaf, lines = table.walk(0x1000 + (1 << 27))  # different PGD entry
        assert leaf is None
        assert len(lines) == 1

    def test_walk_lines_distinct_per_level(self):
        table = RadixPageTable()
        table.map(0x2000, 1)
        _leaf, lines = table.walk(0x2000)
        assert len(set(lines)) == len(lines)


class TestIteration:
    def test_iter_mappings_roundtrip(self):
        table = RadixPageTable()
        expected = set()
        for i in range(50):
            table.map(i * 17, i)
            expected.add((i * 17, i, "4K"))
        table.map(512 * 100, 1234, "2M")
        expected.add((512 * 100, 1234, "2M"))
        assert set(table.iter_mappings()) == expected
