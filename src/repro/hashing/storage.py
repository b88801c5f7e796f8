"""Slot storage for cuckoo ways: one chunked layout for both organizations.

The paper's central observation is that a conventional HPT way must live
in one *contiguous* physical region (Figure 2a), while an ME-HPT way is a
collection of fixed-size *chunks* reached through the L2P table
(Figure 2b).  :class:`ChunkedStorage` models both:

* an ECPT way is one chunk as large as the way — a single allocation of
  the whole way, resized out of place into a fresh one-chunk way;
* an ME-HPT way is a list of ladder-sized chunks drawn from a
  :class:`ChunkBudget` (the L2P subtable); growing in place appends
  chunks, shrinking releases them, and exhausting the budget signals a
  chunk-size transition.

Whether a way may resize in place at all is decided by its table
(:attr:`repro.hashing.cuckoo.ElasticCuckooTable.inplace_enabled`), not by
its storage.

Storages charge their allocations to an *allocator* object (duck-typed;
see :mod:`repro.mem.allocator`) which models allocation cycle costs and
failure under fragmentation.  The allocator's
:class:`~repro.mem.allocator.AllocationStats` is the one count of
page-table memory: current, peak and largest contiguous bytes, and
cycles.  A storage's :meth:`~ChunkedStorage.total_bytes` sums only its
own chunks, for per-way reporting.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import is_power_of_two

#: A slot holds a (key, value) tuple or None.
Slot = Optional[Tuple[int, Any]]

#: Storages get disjoint synthetic address ranges so the cache
#: model sees distinct lines for distinct physical locations.
_STORAGE_IDS = itertools.count(1)


class ChunkBudget:
    """Interface limiting how many chunks a chunked storage may hold.

    The ME-HPT L2P subtable (:class:`repro.core.l2p.L2PSubtable`)
    implements this; generic users (e.g. the key-value store) can use
    :class:`UnlimitedChunkBudget`.
    """

    #: Chunk pointers reserved and not yet released.
    in_use: int

    def reserve(self, count: int) -> bool:
        """Try to reserve ``count`` more chunk pointers; return success."""
        raise NotImplementedError

    def release(self, count: int) -> None:
        """Return ``count`` chunk pointers to the budget."""
        raise NotImplementedError


class UnlimitedChunkBudget(ChunkBudget):
    """A budget that never runs out (still counts usage for reporting)."""

    def __init__(self) -> None:
        self.in_use = 0

    def reserve(self, count: int) -> bool:
        self.in_use += count
        return True

    def release(self, count: int) -> None:
        if count > self.in_use:
            raise ValueError("releasing more chunks than reserved")
        self.in_use -= count


class _NullAllocator:
    """Allocator used when no cost/capacity modelling is wanted."""

    def alloc(self, nbytes: int) -> int:
        return nbytes

    def free(self, handle: int) -> None:
        pass


NULL_ALLOCATOR = _NullAllocator()


class ChunkedStorage:
    """The slot array of a cuckoo way: fixed-size chunks behind a chunk budget.

    Logical slot ``i`` lives in chunk ``i // slots_per_chunk`` at offset
    ``i % slots_per_chunk`` — the divide/modulo of Figure 2b (a shift and a
    mask in hardware, since the chunk size is a power of two).  The ECPT
    layout is the one-chunk way, ``chunk_bytes == slots * slot_bytes``.

    A brand-new way may occupy only part of its first chunk (Figure 3a:
    a 4KB way inside an 8KB chunk), so ``size_slots`` may be smaller than
    the allocated chunk space; during an in-place downsize the chunks
    also cover more than ``size_slots`` until :meth:`shrink_to`.
    :meth:`extend_to` first fills spare space in existing chunks, then
    reserves more chunk pointers from the budget; when the budget
    refuses, the caller must transition to a bigger chunk size with a
    fresh :class:`ChunkedStorage`.
    """

    def __init__(
        self,
        slots: int,
        chunk_bytes: int,
        slot_bytes: int = 64,
        allocator: Any = None,
        budget: Optional[ChunkBudget] = None,
    ) -> None:
        if not is_power_of_two(slots):
            raise ConfigurationError(f"way size {slots} must be a power of two")
        if not is_power_of_two(chunk_bytes):
            raise ConfigurationError(f"chunk size {chunk_bytes} must be a power of two")
        if chunk_bytes % slot_bytes != 0:
            raise ConfigurationError("chunk size must be a multiple of the slot size")
        self.slot_bytes = slot_bytes
        self.chunk_bytes = chunk_bytes
        self.slots_per_chunk = chunk_bytes // slot_bytes
        self._allocator = allocator if allocator is not None else NULL_ALLOCATOR
        self._budget = budget if budget is not None else UnlimitedChunkBudget()
        self._size_slots = slots
        self._chunks: List[List[Slot]] = []
        self._handles: List[Any] = []
        self._line_base = next(_STORAGE_IDS) << 34
        needed = self._chunks_for(slots)
        if not self._budget.reserve(needed):
            raise ConfigurationError(
                f"chunk budget cannot cover initial way of {slots} slots"
            )
        self._alloc_chunks(needed)
        self._released = False

    def _chunks_for(self, slots: int) -> int:
        return max(1, -(-slots // self.slots_per_chunk))  # ceil division

    def _alloc_chunk(self) -> None:
        self._handles.append(self._allocator.alloc(self.chunk_bytes))
        self._chunks.append([None] * self.slots_per_chunk)

    def _alloc_chunks(self, count: int) -> None:
        """Allocate ``count`` chunks atomically.

        If the allocator fails mid-batch, the chunks already obtained are
        freed and the whole budget reservation for the batch is released
        before the failure propagates, so the storage (and the L2P
        subtable behind the budget) is exactly as it was.
        """
        done = 0
        try:
            for _ in range(count):
                self._alloc_chunk()
                done += 1
        except Exception:
            for _ in range(done):
                self._chunks.pop()
                self._allocator.free(self._handles.pop())
            self._budget.release(count)
            raise

    def get(self, index: int) -> Slot:
        return self._chunks[index // self.slots_per_chunk][index % self.slots_per_chunk]

    def put(self, index: int, item: Tuple[int, Any]) -> None:
        self._chunks[index // self.slots_per_chunk][index % self.slots_per_chunk] = item

    def clear(self, index: int) -> None:
        self._chunks[index // self.slots_per_chunk][index % self.slots_per_chunk] = None

    @property
    def size_slots(self) -> int:
        return self._size_slots

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def extend_to(self, new_slots: int) -> bool:
        """Grow in place to ``new_slots``; False when the budget refuses."""
        if new_slots < self._size_slots:
            raise ConfigurationError("extend_to cannot shrink; use shrink_to")
        have = len(self._chunks)
        need = self._chunks_for(new_slots)
        extra = need - have
        if extra > 0:
            if not self._budget.reserve(extra):
                return False
            self._alloc_chunks(extra)
        self._size_slots = new_slots
        return True

    def shrink_to(self, new_slots: int) -> None:
        """Release the chunks above ``new_slots`` (entries must be gone)."""
        if new_slots > self._size_slots:
            raise ConfigurationError("shrink_to cannot grow; use extend_to")
        need = self._chunks_for(new_slots)
        drop = len(self._chunks) - need
        if drop > 0:
            for _ in range(drop):
                self._chunks.pop()
                self._allocator.free(self._handles.pop())
            self._budget.release(drop)
        self._size_slots = new_slots

    def total_bytes(self) -> int:
        """Physical bytes currently backing this storage."""
        return 0 if self._released else len(self._chunks) * self.chunk_bytes

    def release(self) -> None:
        """Free all physical memory backing this storage."""
        if not self._released:
            for handle in self._handles:
                self._allocator.free(handle)
            self._budget.release(len(self._chunks))
            self._chunks = []
            self._handles = []
            self._size_slots = 0
            self._released = True

    def line_addr(self, index: int) -> int:
        """Synthetic cache-line address of slot ``index``.

        Each slot is one cache line (64B clustered entry); storages claim
        disjoint address ranges so the cache model distinguishes them.
        """
        return self._line_base + index

    def line_addr_array(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`line_addr`: the same affine map over an array."""
        return np.int64(self._line_base) + np.asarray(indices, dtype=np.int64)

    def placements(self) -> List[Tuple[int, int, int, Any]]:
        """Physical placement units as ``(base_line, n_lines, nbytes, handle)``.

        One tuple per allocated chunk — the whole way for a one-chunk
        (ECPT) way.  The NUMA machine model homes, replicates, and
        migrates page-table memory per unit; released storage reports no
        placements.
        """
        if self._released:
            return []
        return [
            (
                self._line_base + i * self.slots_per_chunk,
                self.slots_per_chunk,
                self.chunk_bytes,
                self._handles[i],
            )
            for i in range(len(self._chunks))
        ]

    def check_invariants(self) -> None:
        """Verify the storage's structural invariants.

        Checked: one handle per chunk, every chunk exactly
        ``slots_per_chunk`` slots, enough chunks allocated to cover
        ``size_slots``, and at least this storage's chunks reserved
        against the budget.  The physical array may legitimately exceed
        ``size_slots`` — a new way inside a larger chunk, or an in-place
        downsize before :meth:`shrink_to` — so no upper bound is enforced.
        """
        if self._released:
            if self._chunks or self._handles:
                raise SimulationError(
                    "released chunked storage still holds chunks",
                    component="chunked_storage", chunks=len(self._chunks),
                )
            return
        if len(self._chunks) != len(self._handles):
            raise SimulationError(
                "chunk/handle count mismatch",
                component="chunked_storage",
                chunks=len(self._chunks), handles=len(self._handles),
            )
        for i, chunk in enumerate(self._chunks):
            if len(chunk) != self.slots_per_chunk:
                raise SimulationError(
                    "chunk has wrong slot count",
                    component="chunked_storage", chunk_index=i,
                    have=len(chunk), want=self.slots_per_chunk,
                )
        if self._chunks_for(self._size_slots) > len(self._chunks):
            raise SimulationError(
                "not enough chunks to cover the logical size",
                component="chunked_storage",
                size_slots=self._size_slots, chunks=len(self._chunks),
                slots_per_chunk=self.slots_per_chunk,
            )
        in_use = self._budget.in_use
        if in_use < len(self._chunks):
            raise SimulationError(
                "chunk budget accounts fewer chunks than allocated",
                component="chunked_storage",
                budget_in_use=in_use, chunks=len(self._chunks),
            )
