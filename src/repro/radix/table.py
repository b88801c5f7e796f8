"""The x86-64 radix-tree page table.

Four levels — PGD, PUD, PMD, PTE — each a 4KB node of 512 eight-byte
entries, indexed by successive 9-bit slices of the virtual page number
(Figure 1 of the paper).  A five-level mode models Intel's LA57 extension
(the paper's scalability argument for why radix trees keep getting
slower).

Leaves can sit at three levels, giving the three page sizes:

* PTE level — 4KB pages,
* PMD level — 2MB huge pages,
* PUD level — 1GB giant pages.

Memory accounting is by node: every node is one 4KB physical page, which
is why the radix tree's *contiguous* allocation requirement is always one
page (Table I, column 3).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.mapping import MapResult
from repro.common.units import CACHE_LINE, PAGE_4K, PTE_SIZE

#: Entries per node (512 for 4KB nodes of 8-byte entries).
FANOUT = PAGE_4K // PTE_SIZE
#: Bits consumed per level.
LEVEL_BITS = 9
#: PTEs per cache line within a node.
ENTRIES_PER_LINE = CACHE_LINE // PTE_SIZE

#: Page sizes by the level at which the leaf sits (4-level naming).
PAGE_SIZE_BITS = {"4K": 0, "2M": LEVEL_BITS, "1G": 2 * LEVEL_BITS}


class _Node:
    """One radix node: a 4KB page of 512 entries."""

    __slots__ = ("addr", "entries")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.entries: Dict[int, object] = {}


class _Leaf:
    """A leaf entry: physical page number plus the mapping's page size."""

    __slots__ = ("ppn", "page_size")

    def __init__(self, ppn: int, page_size: str) -> None:
        self.ppn = ppn
        self.page_size = page_size


class RadixPageTable:
    """A radix page table for one address space.

    ``levels`` is 4 (x86-64) or 5 (LA57).  VPNs are 4KB-granular virtual
    page numbers; 2MB/1GB mappings are registered once under their
    512/262144-aligned base VPN.
    """

    _node_ids = itertools.count(1)

    def __init__(self, levels: int = 4) -> None:
        if levels not in (4, 5):
            raise ConfigurationError("radix tables support 4 or 5 levels")
        self.levels = levels
        self.root = self._new_node()
        self.node_count = 1
        self.mapped_pages = {"4K": 0, "2M": 0, "1G": 0}

    def _new_node(self) -> _Node:
        # Synthetic physical placement: spread nodes across distinct pages.
        return _Node(next(self._node_ids) * PAGE_4K)

    # -- index math ---------------------------------------------------------

    def _indices(self, vpn: int) -> List[int]:
        """Per-level 9-bit indices, root level first."""
        shifts = range((self.levels - 1) * LEVEL_BITS, -1, -LEVEL_BITS)
        return [(vpn >> shift) & (FANOUT - 1) for shift in shifts]

    def _leaf_depth(self, page_size: str) -> int:
        """Number of levels walked to reach the leaf for ``page_size``."""
        skipped = PAGE_SIZE_BITS[page_size] // LEVEL_BITS
        return self.levels - skipped

    @staticmethod
    def align_vpn(vpn: int, page_size: str) -> int:
        """The base 4KB-VPN of the ``page_size`` page containing ``vpn``."""
        return vpn & ~((1 << PAGE_SIZE_BITS[page_size]) - 1)

    # -- mapping ------------------------------------------------------------

    def map(self, vpn: int, ppn: int, page_size: str = "4K") -> MapResult:
        """Map ``vpn`` -> ``ppn``; the result counts the nodes it created.

        ``vpn`` must be aligned for the page size.  Remapping an existing
        page replaces its translation.
        """
        if page_size not in PAGE_SIZE_BITS:
            raise ConfigurationError(f"unknown page size {page_size!r}")
        if vpn != self.align_vpn(vpn, page_size):
            raise ConfigurationError(f"vpn {vpn:#x} not aligned for {page_size}")
        depth = self._leaf_depth(page_size)
        indices = self._indices(vpn)
        node = self.root
        created = 0
        for level in range(depth - 1):
            child = node.entries.get(indices[level])
            if child is None:
                child = self._new_node()
                node.entries[indices[level]] = child
                created += 1
            elif isinstance(child, _Leaf):
                raise ConfigurationError(
                    f"vpn {vpn:#x}: a larger page already maps this range"
                )
            node = child
        leaf_index = indices[depth - 1]
        existing = node.entries.get(leaf_index)
        if existing is None:
            self.mapped_pages[page_size] += 1
        elif isinstance(existing, _Node):
            raise ConfigurationError(
                f"vpn {vpn:#x}: smaller pages already map inside this range"
            )
        node.entries[leaf_index] = _Leaf(ppn, page_size)
        self.node_count += created
        return MapResult(nodes=created)

    def fill(self, vpns: Sequence[int], start: int, ppn: int, vma) -> int:
        """Map a run of 4KB pages of ``vpns`` into one existing PTE node.

        The MAP_POPULATE shortcut
        (:meth:`~repro.kernel.address_space.AddressSpace.fault_in`):
        writes ``vpns[start]`` and every following page that shares its
        PTE node, lies in ``vma`` (anything with ``start_vpn`` and
        ``end_vpn``) and is unmapped, to frames ``ppn``, ``ppn + 1``,
        ..., and returns how many it wrote.  Each written page is
        equivalent to a :meth:`translate` that returns None followed by
        a ``map(vpn, ppn, "4K")`` that allocates no node.  Returns 0,
        changing nothing, when the PTE node is absent, the first page is
        mapped, or a 2MB or 1GB page covers it.
        """
        vpn = vpns[start]
        node = self.root
        for shift in range((self.levels - 1) * LEVEL_BITS, 0, -LEVEL_BITS):
            node = node.entries.get((vpn >> shift) & (FANOUT - 1))
            if not isinstance(node, _Node):
                return 0
        entries = node.entries
        base = vpn & ~(FANOUT - 1)
        lo = max(vma.start_vpn, base)
        hi = min(vma.end_vpn, base + FANOUT)
        i = start
        while i < len(vpns):
            vpn = vpns[i]
            index = vpn & (FANOUT - 1)
            if not lo <= vpn < hi or index in entries:
                break
            entries[index] = _Leaf(ppn, "4K")
            ppn += 1
            i += 1
        written = i - start
        self.mapped_pages["4K"] += written
        return written

    def unmap(self, vpn: int, page_size: str = "4K") -> bool:
        """Remove a mapping; empty intermediate nodes are retained (as the
        Linux kernel does until teardown).  Returns presence."""
        vpn = self.align_vpn(vpn, page_size)
        depth = self._leaf_depth(page_size)
        indices = self._indices(vpn)
        node = self.root
        for level in range(depth - 1):
            child = node.entries.get(indices[level])
            if not isinstance(child, _Node):
                return False
            node = child
        leaf = node.entries.get(indices[depth - 1])
        if isinstance(leaf, _Leaf):
            del node.entries[indices[depth - 1]]
            self.mapped_pages[leaf.page_size] -= 1
            return True
        return False

    # -- translation ----------------------------------------------------

    def walk(self, vpn: int) -> Tuple[Optional[_Leaf], List[int]]:
        """Walk the tree for ``vpn``.

        Returns ``(leaf_or_None, line_addresses)`` where the addresses are
        the cache lines touched, one per level walked, root first.  The
        walk stops early at a huge-page leaf.
        """
        indices = self._indices(vpn)
        node = self.root
        lines: List[int] = []
        for level in range(self.levels):
            index = indices[level]
            lines.append((node.addr + (index // ENTRIES_PER_LINE) * CACHE_LINE) // CACHE_LINE)
            entry = node.entries.get(index)
            if entry is None:
                return None, lines
            if isinstance(entry, _Leaf):
                return entry, lines
            node = entry
        return None, lines

    def translate(self, vpn: int) -> Optional[Tuple[int, str]]:
        """Return ``(ppn, page_size)`` for ``vpn`` or None if unmapped.

        For huge pages the returned PPN is the base frame of the huge
        page; callers add the in-page offset.  Descends the same entries
        as :meth:`walk` without computing the per-level cache lines,
        which only the timing model needs.
        """
        node = self.root
        for shift in range((self.levels - 1) * LEVEL_BITS, -1, -LEVEL_BITS):
            entry = node.entries.get((vpn >> shift) & (FANOUT - 1))
            if entry is None:
                return None
            if isinstance(entry, _Leaf):
                return entry.ppn, entry.page_size
            node = entry
        return None

    def node_for_prefix(self, prefix: int, depth: int) -> Optional[_Node]:
        """The node probed at level ``depth`` for a VPN whose top index
        slices equal ``prefix`` (``depth`` 9-bit slices; 0 = the root).

        Returns None when the path is absent or blocked by a huge-page
        leaf.  Used by the batched walk engine to resolve node base
        addresses once per prefix: nodes are only ever created, never
        moved or removed, so a resolved address stays valid for the rest
        of the run.
        """
        node = self.root
        for level in range(depth):
            entry = node.entries.get(
                (prefix >> ((depth - 1 - level) * LEVEL_BITS)) & (FANOUT - 1)
            )
            if not isinstance(entry, _Node):
                return None
            node = entry
        return node

    def check_invariants(self) -> None:
        """No check: the model verifies no radix-tree invariant.

        Present so the simulator runs every organization's check alike.
        """

    # -- accounting -------------------------------------------------------

    def table_bytes(self) -> int:
        """Total page-table memory: one 4KB page per node."""
        return self.node_count * PAGE_4K

    def max_contiguous_bytes(self) -> int:
        """Largest contiguous allocation a radix table ever needs: one page."""
        return PAGE_4K

    def iter_mappings(self) -> Iterator[Tuple[int, int, str]]:
        """Yield (vpn, ppn, page_size) for every mapping."""

        def recurse(node: _Node, prefix: int, level: int):
            shift = (self.levels - 1 - level) * LEVEL_BITS
            for index, entry in node.entries.items():
                vpn = prefix | (index << shift)
                if isinstance(entry, _Leaf):
                    yield vpn, entry.ppn, entry.page_size
                else:
                    yield from recurse(entry, vpn, level + 1)

        yield from recurse(self.root, 0, 0)
