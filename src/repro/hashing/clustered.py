"""Page-table-entry clustering over an elastic cuckoo table.

Following Yaniv and Tsafrir ("Hash, Don't Cache the Page Table") — and the
ECPT design the paper baselines on — each HPT slot is one 64-byte cache
line holding 8 page-table entries for 8 *contiguous* virtual pages, with
the hash tag compacted into the line.  Clustering restores spatial
locality (one line serves 8 neighbouring pages) and amortises the tag.

:class:`ClusteredHashedPageTable` implements one page size.  Keys into the
underlying cuckoo table are *block numbers* (page number >> 3); values are
8-entry PPN lists.  Both the ECPT baseline and ME-HPT instantiate this
class — they differ only in the storage layout and resize policy of the
cuckoo table underneath.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.mapping import MapResult
from repro.hashing.cuckoo import ElasticCuckooTable
from repro.hashing.hashes import hash_array

#: log2 of extra page-number bits per page size relative to 4KB pages.
PAGE_SHIFT = {"4K": 0, "2M": 9, "1G": 18}

#: Pages clustered per HPT slot (8 PTEs per 64B line).
PAGES_PER_BLOCK = 8
_BLOCK_SHIFT = 3
_BLOCK_MASK = PAGES_PER_BLOCK - 1


class ClusteredHashedPageTable:
    """A hashed page table for one page size, with entry clustering.

    ``vpn`` arguments are always 4KB-granular virtual page numbers; the
    table converts to its own page granularity internally, so the kernel
    can address every organization uniformly.
    """

    def __init__(self, page_size: str, table: ElasticCuckooTable) -> None:
        if page_size not in PAGE_SHIFT:
            raise ConfigurationError(f"unknown page size {page_size!r}")
        self.page_size = page_size
        self.table = table
        self.mapped_pages = 0
        self._shift = PAGE_SHIFT[page_size]

    # -- address math ------------------------------------------------------

    def _split(self, vpn: int):
        page = vpn >> self._shift
        return page >> _BLOCK_SHIFT, page & _BLOCK_MASK

    def aligned(self, vpn: int) -> bool:
        """Whether ``vpn`` is aligned to this table's page size."""
        return vpn & ((1 << self._shift) - 1) == 0

    # -- mapping ------------------------------------------------------------

    def map(self, vpn: int, ppn: int) -> MapResult:
        """Map the page containing ``vpn`` to ``ppn``."""
        if not self.aligned(vpn):
            raise ConfigurationError(
                f"vpn {vpn:#x} is not {self.page_size}-aligned"
            )
        block, sub = self._split(vpn)
        entries = self.table.lookup(block)
        if entries is not None:
            if entries[sub] is None:
                self.mapped_pages += 1
            entries[sub] = ppn
            return MapResult(new_block=False, kicks=0)
        entries = [None] * PAGES_PER_BLOCK
        entries[sub] = ppn
        kicks = self.table.insert(block, entries)
        self.mapped_pages += 1
        return MapResult(new_block=True, kicks=kicks)

    def fill(self, vpns: Sequence[int], start: int, ppn: int, vma, larger) -> int:
        """Map a run of ``vpns`` from ``start`` into one existing HPT line.

        Writes ``vpns[start]``, ``vpns[start + 1]``, ... to frames
        ``ppn``, ``ppn + 1``, ... for as long as the pages share the
        first page's line, lie in ``vma`` (anything with ``start_vpn``
        and ``end_vpn``) and are unmapped; returns how many it wrote.
        Each written page counts the two lookups a :meth:`translate`
        that returns None and a :meth:`map` that inserts nothing make.
        Returns 0, changing nothing and counting nothing, when the line
        is absent, the first page is mapped or outside ``vma``, or a
        table in ``larger`` :meth:`covers` it (one check serves the run:
        a line never straddles a larger page).  ``vpns`` must be aligned
        for this table's page size.
        """
        vpn = vpns[start]
        shift = self._shift
        line = vpn >> shift >> _BLOCK_SHIFT
        entries = self.table.peek(line)
        if entries is None:
            return 0
        for table in larger:
            if table.covers(vpn):
                return 0
        lo = max(vma.start_vpn, line << _BLOCK_SHIFT << shift)
        hi = min(vma.end_vpn, (line + 1) << _BLOCK_SHIFT << shift)
        i = start
        while i < len(vpns):
            vpn = vpns[i]
            sub = (vpn >> shift) & _BLOCK_MASK
            if not lo <= vpn < hi or entries[sub] is not None:
                break
            entries[sub] = ppn
            ppn += 1
            i += 1
        written = i - start
        self.mapped_pages += written
        self.table.stats.lookups += 2 * written
        return written

    def unmap(self, vpn: int) -> bool:
        """Remove the mapping for the page containing ``vpn``."""
        block, sub = self._split(vpn)
        entries = self.table.lookup(block)
        if entries is None or entries[sub] is None:
            return False
        entries[sub] = None
        self.mapped_pages -= 1
        if all(e is None for e in entries):
            self.table.delete(block)
        return True

    # -- translation ---------------------------------------------------------

    def translate(self, vpn: int) -> Optional[int]:
        """Return the PPN mapping the page containing ``vpn``, or None."""
        block, sub = self._split(vpn)
        entries = self.table.lookup(block)
        if entries is None:
            return None
        return entries[sub]

    def covers(self, vpn: int) -> bool:
        """Whether a page of this table maps ``vpn``, counting no lookup."""
        page = vpn >> self._shift
        entries = self.table.peek(page >> _BLOCK_SHIFT)
        return entries is not None and entries[page & _BLOCK_MASK] is not None

    def probe_line_addrs(self, vpn: int) -> List[int]:
        """Cache-line addresses a hardware lookup probes: one per way.

        The rehash-pointer comparison selects old vs new location per way
        (Section II-B), so exactly W lines are probed regardless of any
        resize in progress.
        """
        block, _sub = self._split(vpn)
        lines = []
        for way in self.table.ways:
            storage, idx = way.locate(way.hash(block))
            lines.append(storage.line_addr(idx))
        return lines

    def probe_line_addrs_batch(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`probe_line_addrs` — shape ``(len(vpns), W)``.

        Row ``i`` equals ``probe_line_addrs(int(vpns[i]))``.  Valid only
        while no insert or delete runs on the underlying cuckoo table
        (insert-separated segments in the batched walk engine).
        """
        shift = PAGE_SHIFT[self.page_size] + _BLOCK_SHIFT
        blocks = vpns.astype(np.uint64) >> np.uint64(shift)
        cols = [
            way.line_addrs_batch(hash_array(way.hash, blocks))
            for way in self.table.ways
        ]
        return np.stack(cols, axis=1)

    # -- accounting -----------------------------------------------------------

    def total_bytes(self) -> int:
        return self.table.total_bytes()

    def occupancy(self) -> float:
        return self.table.occupancy()

    def __len__(self) -> int:
        return self.mapped_pages
