"""Frame-granularity buddy allocator.

This models the Linux physical-page allocator closely enough to study
fragmentation: power-of-two blocks of 4KB frames, per-order free lists,
splitting on allocation and buddy coalescing on free.  The free lists are
what the FMFI fragmentation metric (:mod:`repro.mem.fragmentation`) is
computed over.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigurationError, OutOfMemoryError, SimulationError
from repro.common.units import PAGE_4K


class BuddyAllocator:
    """A buddy allocator over ``total_bytes`` of frame-granular memory.

    Addresses are frame numbers (not bytes).  ``max_order`` is the largest
    block order managed; order ``k`` blocks span ``2**k`` frames.
    """

    def __init__(self, total_bytes: int, max_order: int = 15, frame_bytes: int = PAGE_4K) -> None:
        if total_bytes % frame_bytes != 0:
            raise ConfigurationError("total bytes must be frame aligned")
        self.frame_bytes = frame_bytes
        self.total_frames = total_bytes // frame_bytes
        if self.total_frames == 0:
            raise ConfigurationError("memory smaller than one frame")
        # Clamp the top order so whole memory tiles into top-order blocks.
        while max_order > 0 and self.total_frames % (1 << max_order) != 0:
            max_order -= 1
        self.max_order = max_order
        top = 1 << max_order
        #: free_lists[k] is the set of start frames of free order-k blocks.
        self.free_lists: List[Set[int]] = [set() for _ in range(max_order + 1)]
        #: _heaps[k] is a min-heap holding every start in free_lists[k]
        #: plus stale ones coalesced away since, skipped when popped, or
        #: None: the next order-k allocation that has more than one block
        #: to choose from builds it from the set.  It goes back to None
        #: when the order empties or its stale starts outnumber the free
        #: ones, so a split, which only fills empty orders, never has a
        #: heap to update.
        self._heaps: List[Optional[List[int]]] = [None] * (max_order + 1)
        for start in range(0, self.total_frames, top):
            self.free_lists[max_order].add(start)
        #: Allocated blocks: start frame -> order (needed to free correctly).
        self._allocated: Dict[int, int] = {}

    # -- queries -----------------------------------------------------------

    def free_frames(self) -> int:
        """Total free frames across all orders."""
        return sum(len(blocks) << order for order, blocks in enumerate(self.free_lists))

    def free_frames_at_or_above(self, order: int) -> int:
        """Free frames residing in blocks of order >= ``order``."""
        return sum(
            len(blocks) << o
            for o, blocks in enumerate(self.free_lists)
            if o >= order
        )

    def largest_free_order(self) -> int:
        """The largest order with a free block, or -1 if memory is exhausted."""
        for order in range(self.max_order, -1, -1):
            if self.free_lists[order]:
                return order
        return -1

    def order_for_bytes(self, nbytes: int) -> int:
        """Smallest order whose block covers ``nbytes``."""
        frames = -(-nbytes // self.frame_bytes)  # ceil division
        return (frames - 1).bit_length() if frames > 1 else 0

    # -- allocation --------------------------------------------------------

    def alloc_order(self, order: int) -> int:
        """Allocate an order-``order`` block; return its start frame."""
        if order > self.max_order:
            raise OutOfMemoryError(f"order {order} exceeds max order {self.max_order}")
        free_lists = self.free_lists
        current = order
        while not free_lists[current]:
            current += 1
            if current > self.max_order:
                raise OutOfMemoryError(
                    f"no free block of order >= {order} "
                    f"(largest free: {self.largest_free_order()})"
                )
        # The lowest free start of the order.  A lone block, as every
        # split leaves, is taken without building a heap.
        frees = free_lists[current]
        if len(frees) == 1:
            start = frees.pop()
            self._heaps[current] = None
        else:
            heap = self._heaps[current]
            if heap is None:
                heap = self._heaps[current] = sorted(frees)
            start = heappop(heap)
            while start not in frees:
                start = heappop(heap)
            frees.remove(start)
        # Every order below ``current`` is empty, so has no heap to update.
        while current > order:
            current -= 1
            free_lists[current].add(start + (1 << current))
        self._allocated[start] = order
        return start

    def alloc_bytes(self, nbytes: int) -> int:
        """Allocate the smallest block covering ``nbytes``; return start frame."""
        return self.alloc_order(self.order_for_bytes(nbytes))

    def free(self, start: int) -> None:
        """Free a previously allocated block, coalescing with free buddies."""
        order = self._allocated.pop(start, None)
        if order is None:
            raise ConfigurationError(f"frame {start} is not an allocated block start")
        free_lists = self.free_lists
        heaps = self._heaps
        while order < self.max_order:
            buddy = start ^ (1 << order)
            frees = free_lists[order]
            if buddy not in frees:
                break
            frees.remove(buddy)
            heap = heaps[order]
            if heap is not None and len(heap) > 2 * len(frees):
                heaps[order] = None  # emptied, or mostly stale starts
            start = min(start, buddy)
            order += 1
        free_lists[order].add(start)
        heap = heaps[order]
        if heap is not None:
            heappush(heap, start)

    def checkerboard(self, frames: int) -> None:
        """Allocate frames ``0 .. frames - 1`` and free the odd ones.

        Builds directly the state a fresh pool reaches by ``frames``
        order-0 allocations, which the lowest-start policy hands out in
        order, followed by freeing every odd one: even frames below
        ``frames`` allocated at order 0, odd ones free at order 0 (each
        buddy is allocated, so none coalesces), and the rest of the
        top-order blocks the allocations split tiled by the aligned free
        blocks the splits leave.  Every heap is None.  Raises
        :class:`ConfigurationError` unless nothing is allocated (a pool
        with nothing allocated has coalesced back to top-order blocks).
        """
        if self._allocated:
            raise ConfigurationError("checkerboard needs a fresh pool")
        if not 0 <= frames <= self.total_frames:
            raise ConfigurationError(f"cannot checkerboard {frames} frames")
        top = self.max_order
        free_lists = self.free_lists
        # The top-order blocks the allocations split end at ``split_end``.
        split_end = -(-frames >> top) << top
        free_lists[top].difference_update(range(0, split_end, 1 << top))
        start = frames
        while start < split_end:
            order = (start & -start).bit_length() - 1
            free_lists[order].add(start)
            start += 1 << order
        free_lists[0].update(range(1, frames, 2))
        self._allocated = dict.fromkeys(range(0, frames, 2), 0)
        self._heaps = [None] * (top + 1)

    def allocated_blocks(self) -> Dict[int, int]:
        """Return a copy of the allocated {start_frame: order} map."""
        return dict(self._allocated)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the allocator's structural invariants.

        Checked: every block (free or allocated) is aligned to its order
        and inside memory, no two blocks overlap, free + allocated frames
        exactly tile memory, and no free block has a free buddy (i.e.
        coalescing has run to completion).  Raises
        :class:`~repro.common.errors.SimulationError` with structured
        context on the first violation.
        """
        covered = 0
        blocks = []  # (start, order, is_free)
        for order, frees in enumerate(self.free_lists):
            for start in frees:
                blocks.append((start, order, True))
        for start, order in self._allocated.items():
            blocks.append((start, order, False))
        for start, order, is_free in blocks:
            size = 1 << order
            if start % size != 0:
                raise SimulationError(
                    "buddy block misaligned for its order",
                    component="buddy", start=start, order=order, free=is_free,
                )
            if start + size > self.total_frames:
                raise SimulationError(
                    "buddy block extends past end of memory",
                    component="buddy", start=start, order=order,
                    total_frames=self.total_frames,
                )
            covered += size
        if covered != self.total_frames:
            raise SimulationError(
                "buddy blocks do not tile memory (overlap or leak)",
                component="buddy", covered_frames=covered,
                total_frames=self.total_frames,
                free_frames=self.free_frames(),
                allocated=len(self._allocated),
            )
        # Tiling + alignment rules out overlap only if starts are distinct
        # per order region; do an explicit overlap scan to be safe.
        blocks.sort()
        prev_end = 0
        for start, order, is_free in blocks:
            if start < prev_end:
                raise SimulationError(
                    "buddy blocks overlap",
                    component="buddy", start=start, order=order,
                    previous_end=prev_end, free=is_free,
                )
            prev_end = start + (1 << order)
        for order in range(self.max_order):
            for start in self.free_lists[order]:
                if start ^ (1 << order) in self.free_lists[order]:
                    raise SimulationError(
                        "free buddy pair left uncoalesced",
                        component="buddy", start=start, order=order,
                    )
