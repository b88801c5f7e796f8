"""The result of mapping one page, shared by every page-table organization.

:meth:`~repro.ecpt.tables.HashedPageTableSet.map` and
:meth:`~repro.radix.table.RadixPageTable.map` both return a
:class:`MapResult`, so the kernel's fault handler bills any
organization's map from the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MapResult:
    """Outcome of mapping one page."""

    #: A new HPT line was inserted (cuckoo insertion).
    new_block: bool = False
    #: Cuckoo re-insertions the insertion caused.
    kicks: int = 0
    #: Allocator cycles the map spent on page-table memory.  Set by
    #: :class:`~repro.ecpt.tables.HashedPageTableSet`, which owns the
    #: allocator's stats; a single clustered table leaves it 0.0.
    alloc_cycles: float = 0.0
    #: Radix nodes the map created.  They bypass the allocator, so the
    #: kernel prices them from its own cost model.
    nodes: int = 0
