"""ME-HPT page tables: all four techniques assembled (Section IV).

:class:`MeHptPageTables` wires the generic elastic cuckoo engine into the
paper's design.  The per-page-size table build is
:class:`~repro.ecpt.tables.HashedPageTableSet`'s, shared with ECPT; this
class supplies the storages, the out-of-place factory and the policy:

* ways live on :class:`~repro.hashing.storage.ChunkedStorage` whose chunk
  budget is the L2P subtable for that (way, page size) — technique (i),
  the **L2P table**;
* the storage starts at the smallest ladder chunk and the out-of-place
  factory moves up the ladder when the L2P budget is exhausted —
  technique (ii), **dynamically-changing chunk sizes**;
* ordinary upsizes/downsizes extend/shrink the chunked storage and rehash
  with the one-extra-bit rule — technique (iii), **in-place resizing**,
  which the tables' ``inplace_enabled`` flag (``enable_inplace``) allows;
* the resize policy is per-way with the balance rule and weighted-random
  insertion — technique (iv), **per-way resizing**.

Each technique has an ablation switch (``enable_inplace``,
``enable_perway``, and the chunk ladder itself) so Figures 10 and 15 can
attribute savings to individual techniques.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.common.errors import (
    ConfigurationError,
    ContiguousAllocationError,
    L2POverflowError,
)
from repro.common.units import CACHE_LINE
from repro.core.chunks import ChunkLadder
from repro.core.l2p import L2PTable
from repro.faults.log import EVENT_FALLBACK, DegradationLog
from repro.faults.plan import FaultInjectedBudget, FaultPlan
from repro.ecpt.tables import (
    DEFAULT_INITIAL_SLOTS,
    DEFAULT_WAYS,
    PAGE_SIZES,
    HashedPageTableSet,
)
from repro.hashing.policies import AllWayResizePolicy, PerWayResizePolicy
from repro.hashing.storage import ChunkedStorage
from repro.mem.allocator import CostModelAllocator
from repro.obs.trace import EVENT_CHUNK_TRANSITION


class MeHptPageTables(HashedPageTableSet):
    """Per-process ME-HPT page tables for 4KB, 2MB and 1GB pages.

    Parameters beyond the ECPT ones:

    chunk_ladder:
        The chunk-size ladder; ``ChunkLadder((MB,))``-style ladders
        reproduce the fixed-chunk ablations of Figure 15.
    enable_inplace / enable_perway:
        Ablation switches for Sections IV-C / IV-D.  With both off, the
        table behaves like ECPT except for chunked (discontiguous) ways.
    l2p:
        An existing :class:`L2PTable` to share (one per process); created
        internally when omitted.
    """

    def __init__(
        self,
        allocator: Optional[CostModelAllocator] = None,
        ways: int = DEFAULT_WAYS,
        initial_slots: int = DEFAULT_INITIAL_SLOTS,
        hash_seed: int = 0,
        upsize_threshold: float = 0.6,
        downsize_threshold: float = 0.2,
        rehashes_per_insert: int = 2,
        allow_downsize: bool = True,
        chunk_ladder: Optional[ChunkLadder] = None,
        enable_inplace: bool = True,
        enable_perway: bool = True,
        l2p: Optional[L2PTable] = None,
        adaptive_policy: Optional["AdaptiveChunkPolicy"] = None,
        fault_plan: Optional[FaultPlan] = None,
        degradation: Optional[DegradationLog] = None,
        obs=None,
    ) -> None:
        self.ladder = chunk_ladder if chunk_ladder is not None else ChunkLadder()
        self.l2p = l2p if l2p is not None else L2PTable(ways)
        self.fault_plan = fault_plan
        self.degradation = degradation
        #: Optional repro.obs.Observability: chunk-size transitions emit
        #: ``chunk_transition`` trace events.
        self.obs = obs
        self.enable_inplace = enable_inplace
        self.enable_perway = enable_perway
        #: Optional Section V-B heuristic: fragmentation/growth-aware
        #: chunk sizing at transitions (None = the fixed ladder walk).
        self.adaptive_policy = adaptive_policy
        #: Out-of-place chunk-size transitions observed, per page size.
        self.chunk_transitions: Dict[str, int] = dict.fromkeys(PAGE_SIZES, 0)
        policy_class = PerWayResizePolicy if enable_perway else AllWayResizePolicy
        super().__init__(
            allocator, ways, hash_seed, salt=100,
            storage=lambda way, page_size: ChunkedStorage(
                initial_slots,
                chunk_bytes=self.ladder.smallest,
                slot_bytes=CACHE_LINE,
                allocator=self.allocator,
                budget=self._budget(way, page_size),
            ),
            factory=lambda page_size: partial(self._resize_storage, page_size),
            policy=partial(
                policy_class,
                upsize_threshold=upsize_threshold,
                downsize_threshold=downsize_threshold,
                min_way_slots=initial_slots,
                allow_downsize=allow_downsize,
            ),
            rehashes_per_insert=rehashes_per_insert,
            inplace_enabled=enable_inplace,
            fault_plan=fault_plan,
            degradation=degradation,
            obs=obs,
        )

    # -- construction -----------------------------------------------------

    def _budget(self, way_index: int, page_size: str):
        """The chunk budget for one (way, page size) — fault-wrapped if armed."""
        budget = self.l2p.subtable(way_index, page_size)
        if self.fault_plan is not None:
            return FaultInjectedBudget(budget, self.fault_plan, self.degradation)
        return budget

    def _resize_storage(
        self, page_size: str, way_index: int, new_slots: int
    ) -> Optional[ChunkedStorage]:
        """Build the target storage for an out-of-place resize of one way.

        Reaching this point means in-place growth was impossible (the L2P
        budget refused more chunks of the current size) or disabled, so
        pick the chunk size for the new way and try to allocate it while
        the old chunks still exist.  Returning ``None`` tells the engine
        to migrate eagerly: release the old chunks first, then call again.
        """
        way = self.tables[page_size].table.ways[way_index]
        current_chunk = way.storage.chunk_bytes
        way_bytes = new_slots * CACHE_LINE
        if new_slots > way.size and self.enable_inplace:
            # A true chunk-size transition (Section IV-B): in-place growth
            # failed, so the ladder must move up.
            if self.adaptive_policy is not None:
                at_least = self.adaptive_policy.choose(
                    way_bytes, current_chunk, recent_upsizes=way.upsizes
                )
            else:
                at_least = self.ladder.next_size(current_chunk)
            if at_least is None:
                raise L2POverflowError(
                    f"{page_size} way {way_index} needs {way_bytes} bytes but "
                    f"the chunk ladder is exhausted at {current_chunk}"
                )
        else:
            # Ablation path (in-place disabled) or a downsize: stay at the
            # current chunk size unless the way no longer fits.
            at_least = current_chunk
        chunk_bytes = self.ladder.size_for_way(way_bytes, at_least=at_least)
        while True:
            try:
                storage = ChunkedStorage(
                    new_slots,
                    chunk_bytes=chunk_bytes,
                    slot_bytes=CACHE_LINE,
                    allocator=self.allocator,
                    budget=self._budget(way_index, page_size),
                )
                break
            except ContiguousAllocationError:
                # The chunks themselves failed to allocate (the storage
                # rolled its budget reservation back atomically).  Fall
                # back to a smaller chunk size if one can still cover the
                # way — smaller contiguous requests survive higher
                # fragmentation (the paper's core argument in reverse).
                smaller = self._fallback_chunk(chunk_bytes, way_bytes)
                if smaller is None:
                    raise
                if self.degradation is not None:
                    self.degradation.record(
                        EVENT_FALLBACK, "chunk_alloc",
                        page_size=page_size, way=way_index,
                        from_chunk=chunk_bytes, to_chunk=smaller,
                    )
                chunk_bytes = smaller
            except ConfigurationError:
                # Old + new chunks do not fit the L2P budget simultaneously.
                if self.enable_inplace:
                    # A genuine chunk transition (the rare one-off): the
                    # engine releases the old way and retries (eager move).
                    return None
                # In-place disabled (ablation): gradual out-of-place needs
                # both generations live, so escalate the chunk size until
                # they fit — exactly the Section VII-D argument for why the
                # size-reducing techniques keep chunks small.
                bigger = self.ladder.next_size(chunk_bytes)
                if bigger is None:
                    return None
                chunk_bytes = bigger
        if chunk_bytes != current_chunk:
            self.chunk_transitions[page_size] += 1
            if self.obs is not None:
                self.obs.emit(
                    EVENT_CHUNK_TRANSITION,
                    page_size=page_size, way=way_index,
                    from_chunk=current_chunk, to_chunk=chunk_bytes,
                )
        return storage

    def _fallback_chunk(self, chunk_bytes: int, way_bytes: int) -> Optional[int]:
        """Largest ladder size below ``chunk_bytes`` that still covers the way."""
        smaller = self.ladder.prev_size(chunk_bytes)
        while smaller is not None:
            needed = self.ladder.chunks_needed(way_bytes, smaller)
            if needed <= self.ladder.max_chunks_per_way:
                return smaller
            smaller = self.ladder.prev_size(smaller)
        return None

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Cuckoo-table invariants plus the L2P capacity rules."""
        super().check_invariants()
        self.l2p.check_invariants()

    # -- reporting ----------------------------------------------------------

    def chunk_bytes_per_way(self, page_size: str) -> List[int]:
        """Current chunk size of each way's storage."""
        return [
            way.storage.chunk_bytes for way in self.tables[page_size].table.ways
        ]

    def l2p_entries_used(self) -> int:
        """Valid L2P entries across every way and page size (Figure 14)."""
        return self.l2p.entries_used()

    def total_chunk_transitions(self) -> int:
        return sum(self.chunk_transitions.values())
