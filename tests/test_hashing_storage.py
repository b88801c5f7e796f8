"""Unit tests for repro.hashing.storage."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hashing.storage import ChunkedStorage, UnlimitedChunkBudget
from repro.mem.allocator import CostModelAllocator
from tests.conftest import contiguous


class TestContiguousStorage:
    """The ECPT layout: a way of one chunk as large as itself."""

    def test_basic_get_put_clear(self):
        storage = contiguous(8)
        assert storage.get(3) is None
        storage.put(3, (42, "v"))
        assert storage.get(3) == (42, "v")
        storage.clear(3)
        assert storage.get(3) is None

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            contiguous(12)

    def test_single_contiguous_allocation(self):
        allocator = CostModelAllocator(fmfi=0.1)
        storage = contiguous(1024, allocator=allocator)
        assert allocator.stats.allocations == 1
        assert allocator.stats.max_contiguous_bytes == 1024 * 64
        assert storage.total_bytes() == 1024 * 64

    def test_release_frees_memory(self):
        allocator = CostModelAllocator(fmfi=0.1)
        storage = contiguous(64, allocator=allocator)
        storage.release()
        assert allocator.stats.current_bytes == 0
        assert storage.total_bytes() == 0
        storage.release()  # idempotent
        assert allocator.stats.frees == 1

    def test_line_addrs_disjoint_across_storages(self):
        a = contiguous(8)
        b = contiguous(8)
        assert a.line_addr(0) != b.line_addr(0)
        assert a.line_addr(1) == a.line_addr(0) + 1


class TestChunkedStorage:
    def test_slots_span_chunks(self):
        # 1024-byte chunks of 64B slots = 16 slots per chunk.
        storage = ChunkedStorage(64, chunk_bytes=1024)
        assert storage.slots_per_chunk == 16
        assert storage.chunk_count == 4
        storage.put(17, (9, "x"))  # chunk 1, offset 1
        assert storage.get(17) == (9, "x")
        assert storage.get(16) is None

    def test_partial_chunk_occupancy(self):
        # A 4-slot way inside a 16-slot chunk (Figure 3a).
        storage = ChunkedStorage(4, chunk_bytes=1024)
        assert storage.chunk_count == 1
        assert storage.size_slots == 4

    def test_extend_within_existing_chunk_allocates_nothing(self):
        allocator = CostModelAllocator(fmfi=0.1)
        storage = ChunkedStorage(4, chunk_bytes=1024, allocator=allocator)
        before = allocator.stats.allocations
        assert storage.extend_to(16)
        assert allocator.stats.allocations == before

    def test_extend_allocates_more_chunks(self):
        storage = ChunkedStorage(16, chunk_bytes=1024)
        assert storage.extend_to(64)
        assert storage.chunk_count == 4

    def test_budget_refusal_blocks_extension(self):
        class TwoChunkBudget(UnlimitedChunkBudget):
            def reserve(self, count):
                if self.in_use + count > 2:
                    return False
                return super().reserve(count)

        storage = ChunkedStorage(16, chunk_bytes=1024, budget=TwoChunkBudget())
        assert storage.extend_to(32)  # second chunk fits the budget
        assert not storage.extend_to(64)  # would need 4 chunks
        assert storage.chunk_count == 2

    def test_shrink_releases_chunks_and_budget(self):
        budget = UnlimitedChunkBudget()
        storage = ChunkedStorage(64, chunk_bytes=1024, budget=budget)
        assert budget.in_use == 4
        storage.shrink_to(16)
        assert storage.chunk_count == 1
        assert budget.in_use == 1

    def test_max_contiguous_is_one_chunk(self):
        allocator = CostModelAllocator(fmfi=0.1)
        storage = ChunkedStorage(1024, chunk_bytes=2048, allocator=allocator)
        assert allocator.stats.max_contiguous_bytes == 2048
        assert storage.total_bytes() == 1024 * 64

    def test_release_returns_all_chunks(self):
        budget = UnlimitedChunkBudget()
        allocator = CostModelAllocator(fmfi=0.1)
        storage = ChunkedStorage(64, chunk_bytes=1024, budget=budget, allocator=allocator)
        storage.release()
        assert budget.in_use == 0
        assert allocator.stats.current_bytes == 0

    def test_chunk_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            ChunkedStorage(16, chunk_bytes=1000)

    def test_extend_cannot_shrink(self):
        storage = ChunkedStorage(16, chunk_bytes=1024)
        with pytest.raises(ConfigurationError):
            storage.extend_to(8)

    def test_shrink_cannot_grow(self):
        storage = ChunkedStorage(16, chunk_bytes=1024)
        with pytest.raises(ConfigurationError):
            storage.shrink_to(32)


class TestUnlimitedChunkBudget:
    def test_counts_usage(self):
        budget = UnlimitedChunkBudget()
        assert budget.reserve(5)
        budget.release(3)
        assert budget.in_use == 2

    def test_over_release_rejected(self):
        budget = UnlimitedChunkBudget()
        budget.reserve(1)
        with pytest.raises(ValueError):
            budget.release(2)
