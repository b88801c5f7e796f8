"""Unit tests for the buddy allocator (repro.mem.buddy)."""

import random

import pytest

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.common.units import GB, KB, MB
from repro.mem.buddy import BuddyAllocator


def make(total=64 * MB, max_order=10):
    return BuddyAllocator(total, max_order=max_order)


class TestGeometry:
    def test_total_frames(self):
        buddy = make(64 * MB)
        assert buddy.total_frames == 64 * MB // (4 * KB)

    def test_unaligned_total_rejected(self):
        with pytest.raises(ConfigurationError):
            BuddyAllocator(4 * KB * 1000 + 1)

    def test_max_order_clamped_to_tile_memory(self):
        # 100 frames cannot tile order-10 blocks; the top order clamps to 2.
        buddy = BuddyAllocator(4 * KB * 100, max_order=10)
        assert buddy.max_order == 2
        assert buddy.free_frames() == 100

    def test_order_for_bytes(self):
        buddy = make()
        assert buddy.order_for_bytes(1) == 0
        assert buddy.order_for_bytes(4 * KB) == 0
        assert buddy.order_for_bytes(8 * KB) == 1
        assert buddy.order_for_bytes(8 * KB + 1) == 2
        assert buddy.order_for_bytes(1 * MB) == 8


class TestAllocationAndFree:
    def test_alloc_splits_blocks(self):
        buddy = make()
        start = buddy.alloc_order(0)
        assert buddy.free_frames() == buddy.total_frames - 1
        buddy.free(start)
        assert buddy.free_frames() == buddy.total_frames

    def test_coalescing_restores_max_order(self):
        buddy = make()
        starts = [buddy.alloc_order(0) for _ in range(64)]
        for start in starts:
            buddy.free(start)
        assert buddy.largest_free_order() == buddy.max_order

    def test_distinct_allocations_do_not_overlap(self):
        buddy = make()
        seen = set()
        for _ in range(20):
            start = buddy.alloc_order(3)
            block = set(range(start, start + 8))
            assert not (block & seen)
            seen |= block

    def test_exhaustion_raises(self):
        buddy = BuddyAllocator(4 * MB, max_order=5)
        with pytest.raises(OutOfMemoryError):
            for _ in range(10000):
                buddy.alloc_order(5)

    def test_order_above_max_rejected(self):
        with pytest.raises(OutOfMemoryError):
            make(max_order=5).alloc_order(6)

    def test_double_free_rejected(self):
        buddy = make()
        start = buddy.alloc_order(0)
        buddy.free(start)
        with pytest.raises(ConfigurationError):
            buddy.free(start)

    def test_free_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make().free(12345)

    def test_alloc_bytes_rounds_to_order(self):
        buddy = make()
        buddy.alloc_bytes(5 * KB)  # needs an order-1 block (8KB)
        assert buddy.free_frames() == buddy.total_frames - 2


class TestFreeAccounting:
    def test_free_frames_at_or_above(self):
        buddy = make(64 * MB, max_order=10)
        assert buddy.free_frames_at_or_above(10) == buddy.total_frames
        buddy.alloc_order(0)  # splits one top block down to order 0
        # The split leaves exactly one buddy free at each order 0..9.
        top = buddy.free_frames_at_or_above(10)
        assert top == buddy.total_frames - (1 << 10)

    def test_allocated_blocks_map(self):
        buddy = make()
        a = buddy.alloc_order(2)
        blocks = buddy.allocated_blocks()
        assert blocks[a] == 2


class MinScanBuddy(BuddyAllocator):
    """Reference allocation: ``min()`` over the whole free set of the order."""

    def alloc_order(self, order):
        current = order
        while current <= self.max_order and not self.free_lists[current]:
            current += 1
        if current > self.max_order:
            raise OutOfMemoryError(f"no free block of order >= {order}")
        start = min(self.free_lists[current])
        self.free_lists[current].remove(start)
        while current > order:
            current -= 1
            self.free_lists[current].add(start + (1 << current))
        self._allocated[start] = order
        return start


class TestLowestStartPolicy:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_blocks_as_min_scan(self, seed):
        rng = random.Random(seed)
        buddy, reference = make(4 * MB, max_order=6), MinScanBuddy(4 * MB, max_order=6)
        held = []

        def free(start):
            buddy.free(start)
            reference.free(start)
            assert buddy.free_lists == reference.free_lists

        for _ in range(3_000):
            # Fill memory up to exhaustion, then drain it, so blocks
            # split, scatter and coalesce back up to the top order.
            if held and rng.random() < (0.3 if len(held) < 900 else 0.7):
                free(held.pop(rng.randrange(len(held))))
                continue
            order = rng.choice((0, 0, 0, 0, 1, 2))
            try:
                start = reference.alloc_order(order)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    buddy.alloc_order(order)
                continue
            assert buddy.alloc_order(order) == start
            assert buddy.free_lists == reference.free_lists
            held.append(start)
        buddy.check_invariants()
        rng.shuffle(held)
        for start in held:
            free(start)
        assert buddy.free_frames_at_or_above(buddy.max_order) == buddy.total_frames
        # The drain left mostly stale starts in the per-order heaps;
        # refilling memory frame by frame must still go lowest first.
        for start in range(buddy.total_frames):
            assert buddy.alloc_order(0) == reference.alloc_order(0) == start

    def test_tiny_pool_same_blocks_as_min_scan(self):
        # A 16-frame pool empties and refills its orders often, through
        # splits and coalescing, while a heap is built, stale or dropped.
        for seed in range(300):
            rng = random.Random(seed)
            buddy = BuddyAllocator(16 * 4 * KB, max_order=4)
            reference = MinScanBuddy(16 * 4 * KB, max_order=4)
            held = []
            for _ in range(60):
                if held and rng.random() < 0.5:
                    start = held.pop(rng.randrange(len(held)))
                    buddy.free(start)
                    reference.free(start)
                    continue
                order = rng.choice((0, 0, 1))
                try:
                    start = reference.alloc_order(order)
                except OutOfMemoryError:
                    continue
                assert buddy.alloc_order(order) == start, seed
                held.append(start)

    def test_lowest_start_after_heap_compaction(self):
        buddy = make(4 * MB, max_order=6)
        frames = [buddy.alloc_order(0) for _ in range(buddy.total_frames)]
        assert frames == list(range(buddy.total_frames))
        for start in frames[1::2]:
            buddy.free(start)
        assert buddy.alloc_order(0) == 1  # builds the order-0 heap
        # Freeing even frames from the top coalesces their odd buddies
        # away, leaving stale heap entries until the heap is dropped.
        for start in frames[-2:400:-2]:
            buddy.free(start)
        assert len(buddy.free_lists[0]) < 256
        heap = buddy._heaps[0]
        assert heap is None or len(heap) <= 2 * len(buddy.free_lists[0])
        assert buddy.alloc_order(0) == 3
        assert buddy.alloc_order(0) == 5


def checkerboard_by_loop(pool, frames):
    """The reference: ``frames`` order-0 allocations, then free the odd ones."""
    starts = [pool.alloc_order(0) for _ in range(frames)]
    for start in starts[1::2]:
        pool.free(start)


class TestCheckerboard:
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 0.75])
    @pytest.mark.parametrize("mb", [1, 2, 4, 8, 16, 32, 64])
    def test_same_state_as_the_loop(self, mb, fraction):
        built, looped = BuddyAllocator(mb * MB), BuddyAllocator(mb * MB)
        frames = int(built.total_frames * fraction)
        built.checkerboard(frames)
        checkerboard_by_loop(looped, frames)
        assert built.free_lists == looped.free_lists
        assert built._allocated == looped._allocated
        assert built._heaps == looped._heaps
        built.check_invariants()

    @pytest.mark.parametrize("frames", [0, 1, 2, 77, 128, 255, 256, 257, 511])
    def test_several_top_blocks(self, frames):
        # Three top-order blocks: the loop leaves a live heap at the top
        # order where the direct build leaves None; both are valid, so
        # every later allocation must pick the same block.
        built = BuddyAllocator(768 * 4 * KB, max_order=8)
        looped = BuddyAllocator(768 * 4 * KB, max_order=8)
        built.checkerboard(frames)
        checkerboard_by_loop(looped, frames)
        assert built.free_lists == looped.free_lists
        assert built._allocated == looped._allocated
        built.check_invariants()
        rng = random.Random(frames)
        for _ in range(300):
            if built._allocated and rng.random() < 0.4:
                start = rng.choice(sorted(built._allocated))
                built.free(start)
                looped.free(start)
                continue
            order = rng.choice((0, 1, 3, 8))
            try:
                start = looped.alloc_order(order)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    built.alloc_order(order)
                continue
            assert built.alloc_order(order) == start
        assert built.free_lists == looped.free_lists

    def test_rejects_a_pool_in_use(self):
        pool = BuddyAllocator(1 * MB)
        pool.free(pool.alloc_order(3))
        pool.checkerboard(10)  # everything freed: fresh again
        with pytest.raises(ConfigurationError):
            pool.checkerboard(10)
        with pytest.raises(ConfigurationError):
            BuddyAllocator(1 * MB).checkerboard(257)
