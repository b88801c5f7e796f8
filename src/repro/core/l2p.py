"""The Logical-to-Physical (L2P) table (Sections IV-A, V-A, V-C).

The L2P table is a small MMU-resident indirection table: on a page walk,
the hash key is divided by the chunk size to select an L2P entry, whose
contents point to the physical chunk; the remainder indexes within the
chunk (Figure 2b).  Because chunk sizes are powers of two this is a shift
and a mask in hardware.

Capacity and layout (Figure 6): per way, three 32-entry subtables — one
per page size — laid out contiguously with the 1GB subtable in the middle
(least likely to be used).  The 4KB and 2MB subtables grow toward the
middle and may *steal* the 1GB subtable's entries; a displaced 1GB entry
takes the most significant entry of the 2MB subtable.  The net capacity
rule is: each subtable can reach at most ``2x32 = 64`` entries, and one
way-group's three subtables can use at most ``3x32 = 96`` together.

With 3 ways and 3 page sizes the whole table has 288 entries; at 33 bits
per chunk base pointer that is 1.16KB of MMU state.  On a context switch
the OS saves/restores only the *valid* entries, so the cost scales with
usage (Figure 14 reports the usage; Section V-C the cost).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.hashing.storage import ChunkBudget

PAGE_SIZES = ("4K", "2M", "1G")

#: Table III / Section V-A parameters.
ENTRIES_PER_SUBTABLE = 32
#: Stealing lets one subtable absorb exactly one neighbour's entries.
MAX_STEAL_FACTOR = 2
#: Bits stored per entry (chunk base pointer for a 46-bit PA, 8KB aligned).
ENTRY_BITS = 33


class L2PSubtable(ChunkBudget):
    """One (way, page size) subtable; acts as a storage chunk budget.

    Reservation succeeds when both the per-subtable limit (32 entries,
    or 64 with stealing) and the way-group limit (96 entries across the
    three page sizes) hold.
    """

    def __init__(self, group: "_WayGroup", page_size: str) -> None:
        self.group = group
        self.page_size = page_size
        self.in_use = 0
        self.peak_in_use = 0

    @property
    def capacity_with_steal(self) -> int:
        return ENTRIES_PER_SUBTABLE * MAX_STEAL_FACTOR

    def reserve(self, count: int) -> bool:
        if count < 0:
            raise ConfigurationError("cannot reserve a negative entry count")
        if self.in_use + count > self.capacity_with_steal:
            return False
        if self.group.in_use() + count > self.group.capacity():
            return False
        self.in_use += count
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return True

    def release(self, count: int) -> None:
        if count > self.in_use:
            raise ConfigurationError(
                f"releasing {count} entries but only {self.in_use} in use"
            )
        self.in_use -= count

    @property
    def stealing(self) -> bool:
        """Whether this subtable currently uses stolen neighbour entries."""
        return self.in_use > ENTRIES_PER_SUBTABLE


class _WayGroup:
    """The three subtables of one way, sharing 96 physical entries."""

    def __init__(self) -> None:
        self.subtables: Dict[str, L2PSubtable] = {
            page_size: L2PSubtable(self, page_size) for page_size in PAGE_SIZES
        }

    def in_use(self) -> int:
        return sum(sub.in_use for sub in self.subtables.values())

    @staticmethod
    def capacity() -> int:
        return ENTRIES_PER_SUBTABLE * len(PAGE_SIZES)


class L2PTable:
    """The full per-process L2P table: ``ways`` way-groups of 96 entries."""

    def __init__(self, ways: int = 3) -> None:
        if ways < 1:
            raise ConfigurationError("L2P table needs at least one way")
        self.ways = ways
        self._groups: List[_WayGroup] = [_WayGroup() for _ in range(ways)]

    def subtable(self, way: int, page_size: str) -> L2PSubtable:
        """The chunk budget for (``way``, ``page_size``)."""
        if page_size not in PAGE_SIZES:
            raise ConfigurationError(f"unknown page size {page_size!r}")
        return self._groups[way].subtables[page_size]

    # -- reporting (Figure 14, Section V-C) --------------------------------

    def entries_used(self) -> int:
        """Valid entries right now, across all ways and page sizes."""
        return sum(group.in_use() for group in self._groups)

    def peak_entries_used(self) -> int:
        """Highest per-subtable usage ever, summed (upper bound on live peak)."""
        return sum(
            sub.peak_in_use
            for group in self._groups
            for sub in group.subtables.values()
        )

    def entries_used_for(self, page_size: str) -> int:
        return sum(group.subtables[page_size].in_use for group in self._groups)

    def total_entries(self) -> int:
        return self.ways * _WayGroup.capacity()

    def table_bits(self) -> int:
        """MMU storage: 288 entries x 33 bits = 1.16KB in the paper."""
        return self.total_entries() * ENTRY_BITS

    def usage_by_subtable(self) -> List[Tuple[int, str, int]]:
        """(way, page_size, in_use) triples for inspection."""
        return [
            (way, page_size, group.subtables[page_size].in_use)
            for way, group in enumerate(self._groups)
            for page_size in PAGE_SIZES
        ]

    def context_switch_cycles(self, cycles_per_entry: int = 4) -> int:
        """Cycles to save+restore the valid entries on a context switch.

        Only in-use entries are transferred (they cluster at the subtable
        extremes, Section V-C), once out and once in.
        """
        return 2 * self.entries_used() * cycles_per_entry

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the capacity rules of Section V-A.

        Every subtable must hold ``0 <= in_use <= 64`` entries (32 plus at
        most one stolen neighbour subtable), ``peak_in_use`` must dominate
        ``in_use``, and each way-group's three subtables must fit in its 96
        physical entries.  Raises
        :class:`~repro.common.errors.SimulationError` with structured
        context on violation.
        """
        for way, group in enumerate(self._groups):
            for page_size, sub in group.subtables.items():
                if not 0 <= sub.in_use <= sub.capacity_with_steal:
                    raise SimulationError(
                        "L2P subtable usage outside [0, 2x32]",
                        component="l2p", way=way, page_size=page_size,
                        in_use=sub.in_use, limit=sub.capacity_with_steal,
                    )
                if sub.peak_in_use < sub.in_use:
                    raise SimulationError(
                        "L2P subtable peak below current usage",
                        component="l2p", way=way, page_size=page_size,
                        in_use=sub.in_use, peak_in_use=sub.peak_in_use,
                    )
            if group.in_use() > group.capacity():
                raise SimulationError(
                    "L2P way-group exceeds its 96 physical entries",
                    component="l2p", way=way,
                    in_use=group.in_use(), capacity=group.capacity(),
                )
