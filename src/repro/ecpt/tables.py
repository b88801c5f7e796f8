"""Kernel-facing hashed page tables: the shared set and the ECPT build.

:class:`HashedPageTableSet` builds one
:class:`~repro.hashing.clustered.ClusteredHashedPageTable` per page size
(4KB, 2MB, 1GB) and holds them together with the Cuckoo Walk Tables the
walker needs and the allocator's
:class:`~repro.mem.allocator.AllocationStats`, the one count of
page-table memory the evaluation reports (current, peak and largest
contiguous bytes, and cycles).  The ECPT baseline and ME-HPT both
subclass it; they differ only in the way storages, the out-of-place
target factory, the resize policy and whether ways resize in place,
which they pass to its constructor.

:class:`EcptPageTables` is the baseline: ways of one chunk as large as
the way, all-way out-of-place resizing — each upsize allocates a fresh
contiguous region twice the way size, which is where the 64MB contiguous
allocations of Table I come from.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.common.mapping import MapResult
from repro.common.rng import DeterministicRng
from repro.common.units import CACHE_LINE
from repro.ecpt.cwt import CuckooWalkTable
from repro.faults.log import DegradationLog
from repro.faults.plan import FaultPlan
from repro.hashing.clustered import ClusteredHashedPageTable
from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay, StorageFactory
from repro.hashing.hashes import HashFamily
from repro.hashing.policies import AllWayResizePolicy, ResizePolicy
from repro.hashing.storage import ChunkedStorage
from repro.mem.allocator import CostModelAllocator

PAGE_SIZES = ("4K", "2M", "1G")

#: Table III: initial HPT of 128 entries x 3 ways for each page size.
DEFAULT_INITIAL_SLOTS = 128
DEFAULT_WAYS = 3


class HashedPageTableSet:
    """Per-process hashed page tables for all supported page sizes.

    The constructor builds one ``ways``-way cuckoo table per page size:

    storage:
        ``storage(way, page_size)`` is a way's first storage.
    factory:
        ``factory(page_size)`` is the table's out-of-place target
        factory (:data:`~repro.hashing.cuckoo.StorageFactory`).
    policy:
        ``policy()`` is a fresh resize policy for one table.
    salt:
        Base salt of the tables' way-choice streams, forked per page size
        from ``DeterministicRng(0)``.

    ``table_options`` go to every :class:`ElasticCuckooTable`.
    """

    def __init__(
        self,
        allocator: Optional[CostModelAllocator],
        ways: int,
        hash_seed: int,
        salt: int,
        storage: Callable[[int, str], ChunkedStorage],
        factory: Callable[[str], StorageFactory],
        policy: Callable[[], ResizePolicy],
        **table_options,
    ) -> None:
        self.allocator = allocator if allocator is not None else CostModelAllocator()
        self.allocation_stats = self.allocator.stats
        rng = DeterministicRng(0)
        self.tables: Dict[str, ClusteredHashedPageTable] = {}
        for size_index, page_size in enumerate(PAGE_SIZES):
            family = HashFamily(seed=hash_seed * 31 + size_index)
            way_objs = [
                ElasticWay(w, family.function(w), storage(w, page_size))
                for w in range(ways)
            ]
            table = ElasticCuckooTable(
                way_objs,
                policy(),
                factory(page_size),
                rng=rng.fork(salt=salt + size_index),
                obs_label=page_size,
                **table_options,
            )
            self.tables[page_size] = ClusteredHashedPageTable(page_size, table)
        self.pmd_cwt = CuckooWalkTable("pmd")
        self.pud_cwt = CuckooWalkTable("pud")
        #: Walker-owned CWCs register here for invalidation on CWT changes.
        self.cwc_listeners: list = []

    # -- kernel API -------------------------------------------------------

    def map(self, vpn: int, ppn: int, page_size: str = "4K") -> MapResult:
        """Insert a translation; updates CWTs.

        The result's ``alloc_cycles`` is the growth of the allocator's
        cycle total across the map.
        """
        before = self.allocation_stats.cycles
        result = self.tables[page_size].map(vpn, ppn)
        self._count_in_cwts(vpn, page_size)
        result.alloc_cycles = self.allocation_stats.cycles - before
        return result

    def fill(self, vpns: Sequence[int], start: int, ppn: int, vma) -> int:
        """Map a run of 4KB pages of ``vpns`` into one existing HPT line.

        The MAP_POPULATE shortcut
        (:meth:`~repro.kernel.address_space.AddressSpace.fault_in`):
        writes ``vpns[start]`` and every following page that shares its
        4KB line, lies in ``vma`` and is unmapped, to frames ``ppn``,
        ``ppn + 1``, ..., and returns how many it wrote.  Each written
        page is equivalent to a :meth:`translate` that returns None
        followed by a ``map(vpn, ppn, "4K")`` that inserts no line, and
        counts the same lookups (one on each of the 1GB and 2MB tables,
        two on the 4KB one) and CWT entries.  Returns 0, changing
        nothing and counting nothing, when the 4KB line is absent, the
        first page is mapped, or a 2MB or 1GB page covers it.
        """
        tables = self.tables
        written = tables["4K"].fill(
            vpns, start, ppn, vma, (tables["2M"], tables["1G"])
        )
        if written:
            tables["1G"].table.stats.lookups += written
            tables["2M"].table.stats.lookups += written
            # A line lies inside one 2MB and one 1GB region.
            self._count_in_cwts(vpns[start], "4K", written)
        return written

    def unmap(self, vpn: int, page_size: str = "4K") -> bool:
        """Remove a translation; updates CWTs."""
        present = self.tables[page_size].unmap(vpn)
        if present:
            if page_size in ("4K", "2M"):
                if self.pmd_cwt.remove(vpn, page_size):
                    self._invalidate_cwcs(self.pmd_cwt, vpn)
            if self.pud_cwt.remove(vpn, page_size):
                self._invalidate_cwcs(self.pud_cwt, vpn)
        return present

    def translate(self, vpn: int) -> Optional[Tuple[int, str]]:
        """Functional translation (no timing): (ppn, page_size) or None."""
        for page_size in ("1G", "2M", "4K"):
            ppn = self.tables[page_size].translate(vpn)
            if ppn is not None:
                return ppn, page_size
        return None

    # -- accounting ------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes the way storages hold now across all page sizes, unscaled.

        A sum over the structure; the reported count is
        ``allocation_stats.current_bytes``.
        """
        return sum(table.total_bytes() for table in self.tables.values())

    def max_contiguous_bytes(self) -> int:
        """Largest contiguous allocation the page tables ever required."""
        return self.allocation_stats.max_contiguous_bytes

    def allocation_cycles(self) -> float:
        """Cycles spent allocating (and zeroing) page-table memory."""
        return self.allocation_stats.cycles

    def kick_histogram(self) -> Counter:
        """Merged cuckoo re-insertion histogram across page sizes (Fig 16)."""
        merged: Counter = Counter()
        for table in self.tables.values():
            merged.update(table.table.stats.kick_histogram)
        return merged

    def upsizes_per_way(self, page_size: str) -> list:
        """Upsize counts per way for one page size's HPT (Fig 11)."""
        return [way.upsizes for way in self.tables[page_size].table.ways]

    def way_bytes(self, page_size: str) -> list:
        """Current physical bytes of each way (Fig 12)."""
        return [way.total_bytes() for way in self.tables[page_size].table.ways]

    def moved_fractions(self, page_size: str) -> list:
        """Per-way fraction of rehashed entries physically moved (Fig 13)."""
        return [way.moved_fraction() for way in self.tables[page_size].table.ways]

    def total_relocated_entries(self) -> int:
        """Entries physically moved by rehashing, across all page sizes.

        This is the data-movement cost of resizing that in-place resizing
        halves (Section VII-E3); the performance model charges it.
        """
        return sum(
            way.rehash_relocated
            for table in self.tables.values()
            for way in table.table.ways
        )

    def drain(self) -> None:
        """Finish all in-flight resizes (used by tests and teardown)."""
        for table in self.tables.values():
            table.table.drain()

    def check_invariants(self) -> None:
        """Verify every page size's cuckoo table (and its storages).

        Subclasses extend this with their own structures (ME-HPT adds the
        L2P table).  Raises
        :class:`~repro.common.errors.SimulationError` on violation.
        """
        for table in self.tables.values():
            table.table.check_invariants()

    def _count_in_cwts(self, vpn: int, page_size: str, pages: int = 1) -> None:
        """Record ``pages`` new ``page_size`` mappings in ``vpn``'s regions."""
        if page_size in ("4K", "2M"):
            if self.pmd_cwt.add(vpn, page_size, pages):
                self._invalidate_cwcs(self.pmd_cwt, vpn)
        if self.pud_cwt.add(vpn, page_size, pages):
            self._invalidate_cwcs(self.pud_cwt, vpn)

    def _invalidate_cwcs(self, cwt, vpn: int) -> None:
        for cwc in self.cwc_listeners:
            if cwc.cwt is cwt:
                cwc.invalidate(vpn)


class EcptPageTables(HashedPageTableSet):
    """The ECPT baseline: one-chunk ways, all-way out-of-place resizing."""

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
        fault_plan: Optional[FaultPlan] = None,
        degradation: Optional[DegradationLog] = None,
        obs=None,
    ) -> None:
        allocator = allocator if allocator is not None else CostModelAllocator()

        def way_storage(way_index: int, slots: int) -> ChunkedStorage:
            # A way of one chunk as large as itself: one contiguous region.
            # Closing over the allocator, not ``self``, keeps the tables
            # free of a reference cycle, so a dropped set is freed at once.
            return ChunkedStorage(
                slots, chunk_bytes=slots * CACHE_LINE, allocator=allocator
            )

        super().__init__(
            allocator, ways, hash_seed, salt=0,
            storage=lambda way, page_size: way_storage(way, initial_slots),
            factory=lambda page_size: way_storage,
            policy=partial(
                AllWayResizePolicy,
                upsize_threshold=upsize_threshold,
                downsize_threshold=downsize_threshold,
                min_way_slots=initial_slots,
                allow_downsize=allow_downsize,
            ),
            rehashes_per_insert=rehashes_per_insert,
            inplace_enabled=False,
            fault_plan=fault_plan,
            degradation=degradation,
            obs=obs,
        )
