"""A memory-efficient key-value store on the ME-HPT hashing engine.

Section VIII: "The ideas developed in ME-HPTs can be applied to many
existing key-value stores, which require dynamic resizing — one cannot
know the proper size of the key-value store in advance."

The store demonstrates all four techniques outside the page-table
context: ways live in chunks (bounded contiguous allocations), grow in
place with the one-extra-bit rule, one way at a time, with the
weighted-random insertion policy.  String keys are hashed to 64-bit
integers; values are arbitrary Python objects.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.common.rng import DeterministicRng
from repro.common.units import KB
from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay
from repro.hashing.hashes import HashFamily, mix64
from repro.hashing.policies import PerWayResizePolicy
from repro.hashing.storage import ChunkedStorage, UnlimitedChunkBudget
from repro.mem.allocator import CostModelAllocator


def _hash_key(key: str) -> int:
    """Map a string key to a 64-bit integer (FNV-1a folded through mix64)."""
    h = 0xCBF29CE484222325
    for byte in key.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return mix64(h)


class MemEfficientKVStore:
    """An elastic, chunk-backed key-value store.

    Parameters
    ----------
    ways:
        Cuckoo associativity (3, as in ME-HPT, by default).
    initial_slots:
        Starting capacity per way.
    chunk_bytes:
        Contiguous-allocation unit; the store never asks the allocator
        for more than one chunk at a time.
    allocator:
        The allocator the store's chunks are charged to; a
        :class:`~repro.mem.allocator.CostModelAllocator` of its own when
        omitted.  Its stats are the store's memory count:
        :meth:`peak_bytes` and :meth:`max_contiguous_bytes` read them.
    """

    def __init__(
        self,
        ways: int = 3,
        initial_slots: int = 128,
        chunk_bytes: int = 8 * KB,
        allocator: Any = None,
        seed: int = 0,
    ) -> None:
        family = HashFamily(seed=seed)
        budget = UnlimitedChunkBudget()
        if allocator is None:
            allocator = CostModelAllocator()
        self._allocator = allocator
        way_objs = [
            ElasticWay(
                w,
                family.function(w),
                ChunkedStorage(
                    initial_slots,
                    chunk_bytes=chunk_bytes,
                    allocator=allocator,
                    budget=budget,
                ),
            )
            for w in range(ways)
        ]
        self._table = ElasticCuckooTable(
            way_objs,
            PerWayResizePolicy(min_way_slots=initial_slots),
            lambda w, slots: ChunkedStorage(
                slots, chunk_bytes=chunk_bytes, allocator=allocator, budget=budget
            ),
            rng=DeterministicRng(seed + 1),
        )

    # -- mapping interface --------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Insert or update ``key``."""
        # Collision-safe key check: the stored value carries the key string.
        self._table.insert(_hash_key(key), (key, value))

    def get(self, key: str, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        slot = self._table.lookup(_hash_key(key))
        if slot is None or slot[0] != key:
            return default
        return slot[1]

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it was present."""
        slot = self._table.lookup(_hash_key(key))
        if slot is None or slot[0] != key:
            return False
        return self._table.delete(_hash_key(key))

    def __contains__(self, key: str) -> bool:
        slot = self._table.lookup(_hash_key(key))
        return slot is not None and slot[0] == key

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Yield (key, value) pairs (order unspecified)."""
        for _hash, (key, value) in self._table.items():
            yield key, value

    # -- memory behaviour ---------------------------------------------------

    def total_bytes(self) -> int:
        """Physical bytes across all ways."""
        return self._table.total_bytes()

    def peak_bytes(self) -> int:
        """Peak allocated bytes (in-place resizing keeps this ~= final)."""
        return self._allocator.stats.peak_bytes

    def max_contiguous_bytes(self) -> int:
        """Largest single allocation so far: one chunk at most."""
        return self._allocator.stats.max_contiguous_bytes

    def occupancy(self) -> float:
        return self._table.occupancy()

    def mean_kicks(self) -> float:
        return self._table.stats.mean_kicks()
