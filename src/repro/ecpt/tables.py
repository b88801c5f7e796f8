"""Kernel-facing hashed page tables: the shared set and the ECPT build.

:class:`HashedPageTableSet` bundles one
:class:`~repro.hashing.clustered.ClusteredHashedPageTable` per page size
(4KB, 2MB, 1GB) together with the Cuckoo Walk Tables the walker needs and
the allocator's :class:`~repro.mem.allocator.AllocationStats`, the one
count of page-table memory the evaluation reports (current, peak and
largest contiguous bytes, and cycles).  The ECPT baseline and
ME-HPT both subclass it; they differ only in how the underlying cuckoo
tables are constructed (storage layout, resize policy, chunk ladder).

:class:`EcptPageTables` is the baseline: contiguous ways, all-way
out-of-place resizing — each upsize allocates a fresh contiguous region
twice the way size, which is where the 64MB contiguous allocations of
Table I come from.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.mapping import MapResult
from repro.common.rng import DeterministicRng, make_rng
from repro.faults.log import DegradationLog
from repro.faults.plan import FaultPlan
from repro.hashing.clustered import ClusteredHashedPageTable
from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay
from repro.hashing.hashes import HashFamily
from repro.hashing.policies import AllWayResizePolicy
from repro.hashing.storage import ContiguousStorage
from repro.mem.allocator import AllocationStats, CostModelAllocator

PAGE_SIZES = ("4K", "2M", "1G")

#: Table III: initial HPT of 128 entries x 3 ways for each page size.
DEFAULT_INITIAL_SLOTS = 128
DEFAULT_WAYS = 3


class HashedPageTableSet:
    """Per-process hashed page tables for all supported page sizes."""

    def __init__(
        self,
        tables: Dict[str, ClusteredHashedPageTable],
        allocation_stats: AllocationStats,
        pmd_cwt=None,
        pud_cwt=None,
    ) -> None:
        missing = set(PAGE_SIZES) - set(tables)
        if missing:
            raise ConfigurationError(f"missing page sizes: {sorted(missing)}")
        self.tables = tables
        self.allocation_stats = allocation_stats
        # CWTs are created lazily to avoid import cycles in subclasses that
        # pass none (pure capacity experiments need no walker machinery).
        if pmd_cwt is None or pud_cwt is None:
            from repro.ecpt.cwt import CuckooWalkTable

            pmd_cwt = pmd_cwt or CuckooWalkTable("pmd")
            pud_cwt = pud_cwt or CuckooWalkTable("pud")
        self.pmd_cwt = pmd_cwt
        self.pud_cwt = pud_cwt
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
    """The ECPT baseline: contiguous ways, all-way out-of-place resizing."""

    def __init__(
        self,
        allocator: Optional[CostModelAllocator] = None,
        rng: Optional[DeterministicRng] = None,
        ways: int = DEFAULT_WAYS,
        initial_slots: int = DEFAULT_INITIAL_SLOTS,
        hash_seed: int = 0,
        upsize_threshold: float = 0.6,
        downsize_threshold: float = 0.2,
        rehashes_per_insert: int = 2,
        allow_downsize: bool = True,
        page_sizes: Iterable[str] = PAGE_SIZES,
        fault_plan: Optional[FaultPlan] = None,
        degradation: Optional[DegradationLog] = None,
        obs=None,
    ) -> None:
        rng = make_rng(rng)
        self.allocator = allocator if allocator is not None else CostModelAllocator()
        tables: Dict[str, ClusteredHashedPageTable] = {}
        for size_index, page_size in enumerate(page_sizes):
            family = HashFamily(seed=hash_seed * 31 + size_index)
            alloc = self.allocator

            def factory(way_index: int, slots: int, _alloc=alloc):
                return ContiguousStorage(slots, allocator=_alloc)

            way_objs = [
                ElasticWay(
                    w,
                    family.function(w),
                    ContiguousStorage(initial_slots, allocator=alloc),
                )
                for w in range(ways)
            ]
            policy = AllWayResizePolicy(
                upsize_threshold=upsize_threshold,
                downsize_threshold=downsize_threshold,
                min_way_slots=initial_slots,
                allow_downsize=allow_downsize,
            )
            table = ElasticCuckooTable(
                way_objs,
                policy,
                factory,
                rng=rng.fork(salt=size_index),
                rehashes_per_insert=rehashes_per_insert,
                fault_plan=fault_plan,
                degradation=degradation,
                obs=obs,
                obs_label=page_size,
            )
            tables[page_size] = ClusteredHashedPageTable(page_size, table)
        super().__init__(tables, self.allocator.stats)
