"""A cuckoo coherence directory with ME-HPT-style resizing.

Section VIII ("Scalable Secure Directories"): hash-based directories
such as Cuckoo Directory and SecDir track sharers per cache line in
set-associative cuckoo structures; per-core private directories face the
same sizing problem as per-process page tables.  This model applies
in-place and per-way resizing to a directory keyed by physical line
address, holding a sharer bitmask and coherence state per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay
from repro.hashing.hashes import HashFamily
from repro.hashing.policies import PerWayResizePolicy
from repro.hashing.storage import ChunkedStorage, UnlimitedChunkBudget

VALID_STATES = ("S", "E", "M")


@dataclass
class DirectoryEntry:
    """Sharers and state for one tracked cache line."""

    sharers: int  # bitmask, one bit per core
    state: str    # S(hared), E(xclusive), M(odified)


class CuckooDirectory:
    """An elastic cuckoo directory for ``cores`` cores.

    The API follows the classic directory operations: a read records a
    sharer, a write claims exclusive ownership (returning the cores to
    invalidate), and an eviction drops the line.
    """

    def __init__(
        self,
        cores: int = 8,
        ways: int = 4,
        initial_slots: int = 256,
        chunk_bytes: int = 8 * 1024,
        seed: int = 0,
    ) -> None:
        if cores < 1 or cores > 64:
            raise ConfigurationError("directory model supports 1-64 cores")
        self.cores = cores
        family = HashFamily(seed=seed + 17)
        budget = UnlimitedChunkBudget()
        way_objs = [
            ElasticWay(
                w,
                family.function(w),
                ChunkedStorage(initial_slots, chunk_bytes=chunk_bytes, budget=budget),
            )
            for w in range(ways)
        ]
        self._table = ElasticCuckooTable(
            way_objs,
            PerWayResizePolicy(min_way_slots=initial_slots),
            lambda w, slots: ChunkedStorage(
                slots, chunk_bytes=chunk_bytes, budget=budget
            ),
            rng=DeterministicRng(seed),
        )

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.cores:
            raise ConfigurationError(f"core {core} out of range")

    # -- coherence operations ----------------------------------------------

    def record_read(self, line_addr: int, core: int) -> None:
        """Core ``core`` reads ``line_addr``: add it to the sharer set."""
        self._check_core(core)
        entry = self._table.lookup(line_addr)
        if entry is None:
            self._table.insert(line_addr, DirectoryEntry(1 << core, "E"))
            return
        entry.sharers |= 1 << core
        if entry.state != "M" and bin(entry.sharers).count("1") > 1:
            entry.state = "S"

    def record_write(self, line_addr: int, core: int) -> int:
        """Core ``core`` writes ``line_addr``; returns the invalidation mask
        of other cores that held the line."""
        self._check_core(core)
        mine = 1 << core
        entry = self._table.lookup(line_addr)
        if entry is None:
            self._table.insert(line_addr, DirectoryEntry(mine, "M"))
            return 0
        invalidate = entry.sharers & ~mine
        entry.sharers = mine
        entry.state = "M"
        return invalidate

    def evict(self, line_addr: int) -> bool:
        """Drop tracking for ``line_addr`` (e.g. LLC eviction)."""
        return self._table.delete(line_addr)

    def sharers_of(self, line_addr: int) -> Optional[int]:
        entry = self._table.lookup(line_addr)
        return entry.sharers if entry is not None else None

    def state_of(self, line_addr: int) -> Optional[str]:
        entry = self._table.lookup(line_addr)
        return entry.state if entry is not None else None

    # -- sizing behaviour -----------------------------------------------------

    def tracked_lines(self) -> int:
        return len(self._table)

    def total_bytes(self) -> int:
        return self._table.total_bytes()

    def way_sizes(self) -> list:
        return [way.size for way in self._table.ways]

    def drain(self) -> None:
        self._table.drain()
