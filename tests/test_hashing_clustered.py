"""Unit tests for the clustered page-table layer (repro.hashing.clustered)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hashing.clustered import PAGES_PER_BLOCK, ClusteredHashedPageTable
from repro.mem.allocator import CostModelAllocator
from tests.conftest import make_chunked_table, make_contiguous_table


def make_pt(page_size="4K", table=None):
    # An empty table is falsy (it has a length), so test for None.
    if table is None:
        table = make_contiguous_table()
    return ClusteredHashedPageTable(page_size, table)


class TestClustering:
    def test_eight_pages_share_one_block(self):
        pt = make_pt()
        for offset in range(PAGES_PER_BLOCK):
            pt.map(0x1000 + offset, 0x9000 + offset)
        assert len(pt.table) == 1  # one cuckoo entry for 8 pages
        assert pt.mapped_pages == PAGES_PER_BLOCK

    def test_ninth_page_uses_second_block(self):
        pt = make_pt()
        for offset in range(PAGES_PER_BLOCK + 1):
            pt.map(0x1000 + offset, 0x9000 + offset)
        assert len(pt.table) == 2

    def test_translate_returns_per_page_ppn(self):
        pt = make_pt()
        pt.map(0x1003, 777)
        assert pt.translate(0x1003) == 777
        assert pt.translate(0x1004) is None

    def test_map_result_flags_new_block(self):
        pt = make_pt()
        first = pt.map(0x2000, 1)
        second = pt.map(0x2001, 2)
        assert first.new_block and not second.new_block


class TestUnmap:
    def test_unmap_single_page(self):
        pt = make_pt()
        pt.map(0x1000, 5)
        assert pt.unmap(0x1000)
        assert pt.translate(0x1000) is None
        assert not pt.unmap(0x1000)

    def test_block_removed_when_empty(self):
        pt = make_pt()
        pt.map(0x1000, 5)
        pt.map(0x1001, 6)
        pt.unmap(0x1000)
        assert len(pt.table) == 1
        pt.unmap(0x1001)
        assert len(pt.table) == 0


class TestPageSizes:
    def test_2m_granularity(self):
        pt = make_pt(page_size="2M")
        vpn = 512 * 7  # 2MB-aligned
        pt.map(vpn, 0xAA)
        # Any 4KB vpn within the huge page translates.
        assert pt.translate(vpn + 100) == 0xAA

    def test_alignment_enforced(self):
        pt = make_pt(page_size="2M")
        with pytest.raises(ConfigurationError):
            pt.map(513, 1)

    def test_1g_granularity(self):
        pt = make_pt(page_size="1G")
        vpn = (1 << 18) * 3
        pt.map(vpn, 0xBB)
        assert pt.translate(vpn + 12345) == 0xBB

    def test_unknown_page_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pt(page_size="16K")


class TestProbeLines:
    def test_one_line_per_way(self):
        pt = make_pt()
        pt.map(0x1000, 5)
        lines = pt.probe_line_addrs(0x1000)
        assert len(lines) == pt.table.num_ways
        assert len(set(lines)) == len(lines)  # distinct storages/slots

    def test_probe_lines_stable_for_same_block(self):
        pt = make_pt()
        assert pt.probe_line_addrs(0x1000) == pt.probe_line_addrs(0x1007)


class TestAccounting:
    def test_peak_bytes_monotonic(self):
        allocator = CostModelAllocator(fmfi=0.1)
        stats = allocator.stats
        pt = make_pt(table=make_chunked_table(initial_slots=16, allocator=allocator))
        last_peak = stats.peak_bytes
        for i in range(2000):
            pt.map(0x1000 + i, i)
            assert stats.peak_bytes >= last_peak
            last_peak = stats.peak_bytes
        assert stats.peak_bytes >= pt.total_bytes()

    def test_occupancy_in_range(self):
        pt = make_pt()
        for i in range(100):
            pt.map(0x4000 + i * PAGES_PER_BLOCK, i)
        assert 0.0 < pt.occupancy() <= 0.6 + 1e-9 or pt.table.resizing()
