"""Elastic W-way cuckoo hash table with gradual in-place/out-of-place resizing.

This is the engine under both page-table organizations the paper studies.
Every way sits on a :class:`~repro.hashing.storage.ChunkedStorage`, and
:meth:`ElasticCuckooTable.start_resize` is the one place that decides how
a way resizes:

* **ECPT baseline** — one-chunk ways, an all-way resize policy and
  ``inplace_enabled=False``, and therefore out-of-place gradual resizes
  exactly as in Elastic Cuckoo Page Tables.
* **ME-HPT** — ways of ladder-sized chunks, a per-way resize policy, and
  in-place resizes using the paper's one-extra-hash-bit rule
  (Section IV-C): an upsized way keeps its hash function and indexes with
  ``hash & (2*size - 1)``, so an entry either stays in place (new bit 0)
  or moves to ``old_index + old_size`` (bit 1).

Gradual resizing follows Section II-B: each way under resize carries a
*rehash pointer* ``P``; indices below ``P`` form the migrated region and
indices at or above it the live region.  Placement, kicks, rehashing and
the slot an update or delete writes pick the old or new index by
comparing the old-mask index against ``P``, so each of them still probes
exactly one slot per way.

The slots are the only geometry.  Next to them the table keeps a key ->
value index that answers :meth:`ElasticCuckooTable.lookup` and the
existence checks of ``insert`` and ``delete`` with one dict read; the W
parallel probes a hardware lookup makes are charged by the walkers from
``probe_line_addrs``, and :meth:`ElasticCuckooTable.check_invariants`
verifies that every stored key is reachable through its real probes.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    ContiguousAllocationError,
    SimulationError,
    TableFullError,
)
from repro.common.rng import DeterministicRng, make_rng
from repro.common.units import is_power_of_two
from repro.faults.log import (
    EVENT_DEGRADE_OOP,
    EVENT_EAGER_RETRY,
    EVENT_FAULT,
    EVENT_ROLLBACK,
    DegradationLog,
)
from repro.faults.plan import SITE_CUCKOO_KICKS, FaultPlan
from repro.hashing.storage import ChunkedStorage
from repro.obs.trace import (
    EVENT_CUCKOO_KICK,
    EVENT_RESIZE_BEGIN,
    EVENT_RESIZE_COMMIT,
    EVENT_RESIZE_ROLLBACK,
)

#: Factory signature for out-of-place resize targets.  Called with
#: ``(way_index, new_slots)``; may return ``None`` to request an eager
#: stop-the-world migration (used when a chunk-size transition cannot hold
#: old and new chunks simultaneously).
StorageFactory = Callable[[int, int], Optional[ChunkedStorage]]


class TableStats:
    """Instrumentation counters for one elastic cuckoo table.

    ``kick_histogram`` maps the number of cuckoo re-insertions caused by
    one insertion or one rehash to its occurrence count — this is exactly
    the distribution of the paper's Figure 16.
    """

    def __init__(self) -> None:
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.lookups = 0
        self.rehash_steps = 0
        self.rehash_conflicts = 0
        self.eager_migrations = 0
        self.kick_histogram: Counter = Counter()

    def record_op_kicks(self, kicks: int) -> None:
        self.kick_histogram[kicks] += 1

    def total_kick_samples(self) -> int:
        return sum(self.kick_histogram.values())

    def mean_kicks(self) -> float:
        samples = self.total_kick_samples()
        if samples == 0:
            return 0.0
        return sum(k * n for k, n in self.kick_histogram.items()) / samples

    def kick_distribution(self, max_kicks: int = 11) -> List[float]:
        """Return P(0 re-insertions) .. P(max_kicks re-insertions)."""
        samples = self.total_kick_samples()
        if samples == 0:
            return [0.0] * (max_kicks + 1)
        dist = []
        for k in range(max_kicks + 1):
            if k == max_kicks:
                count = sum(n for kk, n in self.kick_histogram.items() if kk >= k)
            else:
                count = self.kick_histogram.get(k, 0)
            dist.append(count / samples)
        return dist


class ElasticWay:
    """One way of an elastic cuckoo table.

    A way owns its hash function for the whole table lifetime (required by
    the in-place resize rule), its storage, and its resize state.  ``size``
    is the logical slot count — during a resize it is the *new* size, while
    ``old_size`` retains the previous one until the rehash completes.
    """

    def __init__(self, index: int, hash_fn: Callable[[int], int], storage: ChunkedStorage) -> None:
        self.index = index
        self.hash = hash_fn
        self.storage = storage
        self.size = storage.size_slots
        self.old_size: Optional[int] = None
        self.old_storage: Optional[ChunkedStorage] = None
        self.rehash_ptr: Optional[int] = None
        self.direction = 0  # +1 upsizing, -1 downsizing, 0 idle
        self.count = 0
        # Lifetime statistics (Figures 11 and 13).
        self.upsizes = 0
        self.downsizes = 0
        self.inplace_upsizes = 0
        self.rollbacks = 0
        self.rehash_examined = 0
        self.rehash_relocated = 0

    # -- geometry ----------------------------------------------------------

    @property
    def resizing(self) -> bool:
        return self.direction != 0

    def occupancy(self) -> float:
        return self.count / self.size if self.size else 0.0

    def locate(self, h: int) -> Tuple[ChunkedStorage, int]:
        """Map a hash value to the single (storage, index) slot to probe.

        Implements the paper's lookup rule during resizing: compare the
        old-mask index against the rehash pointer; the live region is
        probed at the old index, the migrated region at the new index.
        """
        if self.direction == 0:
            return self.storage, h & (self.size - 1)
        old_idx = h & (self.old_size - 1)
        if old_idx >= self.rehash_ptr:
            if self.old_storage is not None:
                return self.old_storage, old_idx
            return self.storage, old_idx
        return self.storage, h & (self.size - 1)

    def line_addrs_batch(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized ``storage.line_addr(*locate(h))`` over a hash array.

        Element ``i`` equals ``s.line_addr(i)`` for ``s, i = locate(h[i])``.
        Only valid between mutations: the batched walk engine calls this
        inside an insert-separated segment where ``size``/``old_size``/
        ``rehash_ptr``/``direction`` and the storages are all frozen.
        """
        h = hashes.astype(np.uint64)
        if self.direction == 0:
            return self.storage.line_addr_array(
                (h & np.uint64(self.size - 1)).astype(np.int64)
            )
        old_idx = (h & np.uint64(self.old_size - 1)).astype(np.int64)
        new_idx = (h & np.uint64(self.size - 1)).astype(np.int64)
        live = self.old_storage if self.old_storage is not None else self.storage
        return np.where(
            old_idx >= np.int64(self.rehash_ptr),
            live.line_addr_array(old_idx),
            self.storage.line_addr_array(new_idx),
        )

    # -- resize state ------------------------------------------------------

    def begin_resize(self, new_size: int, new_storage: Optional[ChunkedStorage]) -> None:
        if self.resizing:
            raise ConfigurationError("way is already resizing")
        if not is_power_of_two(new_size):
            raise ConfigurationError(f"new way size {new_size} must be a power of two")
        self.old_size = self.size
        self.size = new_size
        self.rehash_ptr = 0
        self.direction = 1 if new_size > self.old_size else -1
        if new_storage is not None:
            self.old_storage = self.storage
            self.storage = new_storage
        if self.direction > 0:
            self.upsizes += 1
            if new_storage is None:
                self.inplace_upsizes += 1
        else:
            self.downsizes += 1

    def total_bytes(self) -> int:
        total = self.storage.total_bytes()
        if self.old_storage is not None:
            total += self.old_storage.total_bytes()
        return total

    def moved_fraction(self) -> float:
        """Fraction of rehash-examined entries physically relocated (Fig 13)."""
        if self.rehash_examined == 0:
            return 0.0
        return self.rehash_relocated / self.rehash_examined


class ElasticCuckooTable:
    """W-way elastic cuckoo hash table (keys are ints, values arbitrary).

    Parameters
    ----------
    ways:
        The :class:`ElasticWay` objects (hash function + storage each).
    policy:
        A resize policy (:mod:`repro.hashing.policies`) deciding insertion
        way choice and when/which ways resize.
    storage_factory:
        Creates storage for out-of-place resize targets; see
        :data:`StorageFactory`.
    rng:
        Deterministic randomness for way selection.
    max_kicks:
        Cuckoo re-insertion bound before an emergency resize is forced.
    rehashes_per_insert:
        Gradual-rehash work performed per insert per resizing way
        (the paper rehashes "a single entry or a small group of them").
    """

    def __init__(
        self,
        ways: List[ElasticWay],
        policy: "ResizePolicy",
        storage_factory: StorageFactory,
        rng: Optional[DeterministicRng] = None,
        max_kicks: int = 32,
        rehashes_per_insert: int = 2,
        inplace_enabled: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        degradation: Optional[DegradationLog] = None,
        obs: Optional[Any] = None,
        obs_label: str = "",
    ) -> None:
        if len(ways) < 2:
            raise ConfigurationError("cuckoo hashing needs at least 2 ways")
        self.ways = ways
        self.policy = policy
        self.storage_factory = storage_factory
        self.rng = make_rng(rng)
        self.max_kicks = max_kicks
        self.rehashes_per_insert = rehashes_per_insert
        self.fault_plan = fault_plan
        self.degradation = degradation
        #: Optional repro.obs.Observability plus a label (the page size)
        #: identifying this table in trace events, since the table itself
        #: does not know which page size it serves.
        self.obs = obs
        self.obs_label = obs_label
        #: Whether ways may resize in place: False for ECPT's one-chunk
        #: ways and for the Figure 10 ablation, whose resizes always go
        #: out of place.
        self.inplace_enabled = inplace_enabled
        self.stats = TableStats()
        self.count = 0
        #: key -> value for every stored item: the functional view the
        #: slots hold, read by lookups instead of probing each way.
        self._index: Dict[int, Any] = {}
        self._emergency_depth = 0

    # -- basic queries -------------------------------------------------

    @property
    def num_ways(self) -> int:
        return len(self.ways)

    def capacity(self) -> int:
        return sum(way.size for way in self.ways)

    def occupancy(self) -> float:
        cap = self.capacity()
        return self.count / cap if cap else 0.0

    def total_bytes(self) -> int:
        return sum(way.total_bytes() for way in self.ways)

    def resizing(self) -> bool:
        return any(way.resizing for way in self.ways)

    def lookup(self, key: int) -> Optional[Any]:
        """Return the value stored under ``key`` or None.

        Reads the key index; the W way probes a hardware lookup makes are
        modelled by the walkers.  Counts one ``stats.lookups`` per call.
        """
        self.stats.lookups += 1
        return self._index.get(key)

    def peek(self, key: int) -> Optional[Any]:
        """:meth:`lookup` without counting it in ``stats.lookups``."""
        return self._index.get(key)

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None

    def __len__(self) -> int:
        return self.count

    def items(self):
        """Yield all (key, value) pairs (order unspecified)."""
        for way in self.ways:
            yield from self._way_items(way)

    def _way_items(self, way: ElasticWay):
        if way.old_storage is not None:
            # Live region of the old storage.
            for idx in range(way.rehash_ptr, way.old_size):
                slot = way.old_storage.get(idx)
                if slot is not None:
                    yield slot
            for idx in range(way.size):
                slot = way.storage.get(idx)
                if slot is not None:
                    yield slot
        else:
            limit = max(way.size, way.old_size or 0)
            limit = min(limit, way.storage.size_slots)
            for idx in range(limit):
                slot = way.storage.get(idx)
                if slot is not None:
                    yield slot

    # -- mutation --------------------------------------------------------

    def insert(self, key: int, value: Any) -> int:
        """Insert or update ``key``; return the number of cuckoo re-insertions."""
        if key in self._index:
            _way, storage, idx = self._find_slot(key)
            storage.put(idx, (key, value))
            self._index[key] = value
            self.stats.updates += 1
            return 0
        self.maintenance()
        way_idx = self.policy.choose_insert_way(self)
        kicks = self._place((key, value), way_idx)
        self._index[key] = value
        self.count += 1
        self.stats.inserts += 1
        self.stats.record_op_kicks(kicks)
        if self.obs is not None and kicks:
            self.obs.emit(EVENT_CUCKOO_KICK, table=self.obs_label, kicks=kicks)
        self.policy.check_resize(self)
        return kicks

    def delete(self, key: int) -> bool:
        """Remove ``key``; return True if it was present."""
        if key not in self._index:
            return False
        way, storage, idx = self._find_slot(key)
        storage.clear(idx)
        del self._index[key]
        way.count -= 1
        self.count -= 1
        self.stats.deletes += 1
        self.maintenance()
        self.policy.check_resize(self)
        return True

    def maintenance(self, steps: Optional[int] = None) -> None:
        """Perform gradual rehash work on every resizing way."""
        budget = self.rehashes_per_insert if steps is None else steps
        for way in self.ways:
            for _ in range(budget):
                if not way.resizing:
                    break
                self._rehash_one(way)

    def drain(self) -> None:
        """Complete all in-flight resizes immediately."""
        for way in self.ways:
            self.drain_way(way)

    def drain_way(self, way: ElasticWay) -> None:
        while way.resizing:
            self._rehash_one(way)

    # -- resize initiation (called by policies) ---------------------------

    def start_resize(self, way: ElasticWay, grow: bool) -> None:
        """Double (``grow``) or halve ``way``.

        A resize already in flight on ``way`` finishes first, so the new
        size is read after the drain (which may itself have resized the
        way).  The resize is in place when :attr:`inplace_enabled` is set
        and the way shrinks or its storage extends; otherwise the storage
        factory supplies the target, or returns None to have the way
        migrated eagerly.
        """
        self.drain_way(way)
        new_size = way.size * 2 if grow else way.size // 2
        if self.inplace_enabled and (not grow or self._try_extend(way, new_size)):
            way.begin_resize(new_size, None)
            self._emit_resize(
                EVENT_RESIZE_BEGIN, way, new_size=new_size, inplace=True,
            )
            return
        new_storage = self.storage_factory(way.index, new_size)
        if new_storage is None:
            self._eager_migrate(way, new_size)
        else:
            way.begin_resize(new_size, new_storage)
            self._emit_resize(
                EVENT_RESIZE_BEGIN, way, new_size=new_size, inplace=False,
            )

    def _try_extend(self, way: ElasticWay, new_size: int) -> bool:
        """Attempt the in-place extension, degrading on allocation failure.

        ``extend_to`` is atomic (a mid-batch chunk-allocation failure
        rolls the storage back), so when it raises the way is untouched
        and the resize can safely *degrade* to a gradual out-of-place
        resize instead of aborting — the paper's chunked layout never
        needs a large contiguous region, so the out-of-place path remains
        viable when the in-place chunk allocations are failing.
        """
        try:
            return way.storage.extend_to(new_size)
        except ContiguousAllocationError as exc:
            if self.degradation is not None:
                self.degradation.record(
                    EVENT_DEGRADE_OOP, "inplace_extend",
                    way=way.index, new_size=new_size,
                    size_bytes=exc.size_bytes,
                )
            return False

    def rollback_resize(self, way: ElasticWay) -> None:
        """Atomically abandon ``way``'s in-flight resize.

        Restores the pre-resize geometry and re-places every surviving
        item at its old-mask index, cuckooing conflicts into other ways
        (during a partial gradual rehash two keys may share one old
        index: one still in the live region, one already migrated to a
        new index that maps back onto the same old slot).  The table's
        total count is conserved, and :meth:`check_invariants` passes
        afterwards — callers use this to recover from allocation
        failures striking sibling ways mid-resize.
        """
        if not way.resizing:
            return
        items = list(self._way_items(way))
        old_size = way.old_size
        direction = way.direction
        out_of_place = way.old_storage is not None
        if out_of_place:
            way.storage.release()
            way.storage = way.old_storage
            way.old_storage = None
        # Undo the lifetime counters begin_resize charged.
        if direction > 0:
            way.upsizes -= 1
            if not out_of_place:
                way.inplace_upsizes -= 1
        else:
            way.downsizes -= 1
        way.rollbacks += 1
        way.size = old_size
        way.old_size = None
        way.rehash_ptr = None
        way.direction = 0
        for idx in range(way.storage.size_slots):
            way.storage.clear(idx)
        if not out_of_place and direction > 0:
            way.storage.shrink_to(old_size)
        way.count = 0
        for item in items:
            idx = way.hash(item[0]) & (old_size - 1)
            if way.storage.get(idx) is None:
                way.storage.put(idx, item)
                way.count += 1
            else:
                # If this raises, _place has resynced the index from the
                # slots, dropping the items not re-placed yet.
                self._place(item, self._other_way(way.index))
        if self.degradation is not None:
            self.degradation.record(
                EVENT_ROLLBACK, "resize",
                way=way.index, size=old_size,
                direction=direction, items=len(items),
            )
        self._emit_resize(
            EVENT_RESIZE_ROLLBACK, way, size=old_size, direction=direction,
            items=len(items),
        )

    # -- internals ---------------------------------------------------------

    def _find_slot(self, key: int):
        for way in self.ways:
            storage, idx = way.locate(way.hash(key))
            slot = storage.get(idx)
            if slot is not None and slot[0] == key:
                return way, storage, idx
        return None

    def _other_way(self, way_idx: int) -> int:
        j = self.rng.randint(0, self.num_ways - 2)
        return j + 1 if j >= way_idx else j

    def _place(self, item: Tuple[int, Any], way_idx: int) -> int:
        """Cuckoo-place ``item`` starting at ``way_idx``; return kick count.

        An exception escaping the kick chain loses the item in flight at
        that moment, which may be one kicked out of its slot, so the key
        index and counts are rebuilt from the slots before it propagates.
        """
        try:
            if (
                self.fault_plan is not None
                and self.fault_plan.decide(SITE_CUCKOO_KICKS) is not None
            ):
                # Injected kick-bound overrun: behave exactly as if the
                # kick chain had exceeded max_kicks — force an emergency
                # resize, then place into the enlarged index space.
                if self.degradation is not None:
                    self.degradation.record(
                        EVENT_FAULT, SITE_CUCKOO_KICKS, way=way_idx,
                    )
                self._emergency_resize()
            kicks = 0
            kicks_since_resize = 0
            while True:
                way = self.ways[way_idx]
                storage, idx = way.locate(way.hash(item[0]))
                slot = storage.get(idx)
                if slot is None:
                    storage.put(idx, item)
                    way.count += 1
                    return kicks
                storage.put(idx, item)
                item = slot
                kicks += 1
                kicks_since_resize += 1
                if kicks_since_resize >= self.max_kicks:
                    # The kick chain is too long: force the policy to grow
                    # the table, then keep kicking the in-flight item into
                    # the enlarged index space.
                    self._emergency_resize()
                    kicks_since_resize = 0
                way_idx = self._other_way(way_idx)
        except BaseException:
            self._resync()
            raise

    def _emergency_resize(self) -> None:
        if self._emergency_depth >= 8:
            raise TableFullError(
                f"cuckoo table stuck at occupancy {self.occupancy():.2f} "
                f"after {self._emergency_depth} emergency resizes"
            )
        self._emergency_depth += 1
        try:
            self.policy.emergency_resize(self)
        finally:
            self._emergency_depth -= 1

    def _rehash_one(self, way: ElasticWay) -> None:
        """Move one element across ``way``'s rehash pointer (Section IV-C)."""
        if not way.resizing:
            return
        ptr = way.rehash_ptr
        old_storage = way.old_storage if way.old_storage is not None else way.storage
        item = old_storage.get(ptr)
        way.rehash_ptr += 1
        self.stats.rehash_steps += 1
        if item is not None:
            way.rehash_examined += 1
            h = way.hash(item[0])
            new_idx = h & (way.size - 1)
            stays = way.old_storage is None and new_idx == ptr
            if stays:
                self.stats.record_op_kicks(0)
            else:
                old_storage.clear(ptr)
                way.count -= 1
                way.rehash_relocated += 1
                target = way.storage.get(new_idx)
                if target is None:
                    way.storage.put(new_idx, item)
                    way.count += 1
                    self.stats.record_op_kicks(0)
                else:
                    # Conflict: the rehashed entry claims its slot and the
                    # occupant is cuckooed into a different way (paper,
                    # Figure 5d-f discussion).  The way's count is net
                    # unchanged: the rehashed entry enters, the occupant
                    # leaves.
                    way.storage.put(new_idx, item)
                    self.stats.rehash_conflicts += 1
                    kicks = self._place(target, self._other_way(way.index))
                    self.stats.record_op_kicks(kicks + 1)
        if way.rehash_ptr >= way.old_size:
            self._finish_resize(way)

    def _finish_resize(self, way: ElasticWay) -> None:
        inplace = way.old_storage is None
        if way.old_storage is not None:
            way.old_storage.release()
            way.old_storage = None
        elif way.direction < 0:
            way.storage.shrink_to(way.size)
        way.old_size = None
        way.rehash_ptr = None
        way.direction = 0
        self._emit_resize(
            EVENT_RESIZE_COMMIT, way, size=way.size, inplace=inplace,
            relocated=way.rehash_relocated,
        )

    def _eager_migrate(self, way: ElasticWay, new_size: int) -> None:
        """Stop-the-world migration for chunk-size transitions that cannot
        hold old and new storage simultaneously."""
        items = list(self._way_items(way))
        old_size = way.size
        way.storage.release()
        try:
            new_storage, new_size = self._recreate_storage(way, new_size)
        except BaseException:
            # Nothing replaced the released storage: the way's items are
            # lost and the way is left empty.
            self._resync()
            raise
        way.storage = new_storage
        way.size = new_size
        way.old_size = None
        way.old_storage = None
        way.rehash_ptr = None
        way.direction = 0
        way.count = 0
        self.stats.eager_migrations += 1
        if new_size > old_size:
            way.upsizes += 1
        elif new_size < old_size:
            way.downsizes += 1
        for item in items:
            h = way.hash(item[0])
            idx = h & (new_size - 1)
            slot = way.storage.get(idx)
            if slot is None:
                way.storage.put(idx, item)
                way.count += 1
            else:
                # If this raises, _place has resynced the index from the
                # slots, dropping the items not re-placed yet.
                kicks = self._place(item, self._other_way(way.index))
                self.stats.record_op_kicks(kicks)
        # An eager migration begins and commits atomically: one commit
        # event with eager=True, no matching resize_begin.
        self._emit_resize(
            EVENT_RESIZE_COMMIT, way, size=new_size, inplace=False, eager=True,
        )

    def _recreate_storage(self, way: ElasticWay, new_size: int) -> Tuple[ChunkedStorage, int]:
        """Storage for ``way`` after its old storage was released:
        ``(storage, size)`` at ``new_size``, else at the way's old size."""
        old_size = way.size
        try:
            new_storage = self.storage_factory(way.index, new_size)
        except ContiguousAllocationError:
            new_storage = None
        if new_storage is not None:
            return new_storage, new_size
        # Even with the old way's space returned, the target size is
        # unallocatable.  Re-create the way at its old size so it
        # survives (the resize is abandoned, not the table).
        new_storage = self.storage_factory(way.index, old_size)
        if new_storage is None:
            raise ConfigurationError(
                "storage factory failed even after releasing the old way",
                way=way.index, old_size=old_size, new_size=new_size,
            )
        if self.degradation is not None:
            self.degradation.record(
                EVENT_EAGER_RETRY, "eager_migrate",
                way=way.index, old_size=old_size,
                abandoned_size=new_size,
            )
        return new_storage, old_size

    def _resync(self) -> None:
        """Rebuild the key index and the entry counts from the slots.

        Only the abort paths call this: when an exception escapes while
        items are outside the slots (a kick chain's in-flight item, a
        released way), whatever the slots still hold is the table.
        """
        for way in self.ways:
            way.count = sum(1 for _ in self._way_items(way))
        self._index = dict(self.items())
        self.count = len(self._index)

    def _emit_resize(self, kind: str, way: ElasticWay, **payload) -> None:
        if self.obs is not None:
            self.obs.emit(kind, table=self.obs_label, way=way.index, **payload)

    # -- validation (used by tests) ---------------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency.

        Raises :class:`~repro.common.errors.SimulationError` with
        structured context on the first violation: per-way and table
        entry counts, power-of-two geometry, rehash-pointer bounds,
        per-storage structural invariants, reachability of every stored
        key through its ways' real probes (:meth:`_find_slot`, never the
        key index), and a key index equal to the stored items.
        """
        total = 0
        for way in self.ways:
            way_count = sum(1 for _ in self._way_items(way))
            if way_count != way.count:
                raise SimulationError(
                    "way entry count does not match tracked count",
                    component="cuckoo", way=way.index,
                    counted=way_count, tracked=way.count,
                )
            total += way_count
            if not is_power_of_two(way.size):
                raise SimulationError(
                    "way size is not a power of two",
                    component="cuckoo", way=way.index, size=way.size,
                )
            if way.resizing and not 0 <= way.rehash_ptr <= way.old_size:
                raise SimulationError(
                    "rehash pointer outside the old index space",
                    component="cuckoo", way=way.index,
                    rehash_ptr=way.rehash_ptr, old_size=way.old_size,
                )
            way.storage.check_invariants()
            if way.old_storage is not None:
                way.old_storage.check_invariants()
        if total != self.count:
            raise SimulationError(
                "table count does not match sum of way counts",
                component="cuckoo", tracked=self.count, counted=total,
            )
        stored = list(self.items())
        for key, value in stored:
            if self._find_slot(key) is None:
                raise SimulationError(
                    "stored key unreachable through its way probes",
                    component="cuckoo", key=key,
                )
            if self.lookup(key) is not value:
                raise SimulationError(
                    "key index disagrees with the stored value",
                    component="cuckoo", key=key,
                )
        if len(self._index) != len(stored):
            raise SimulationError(
                "key index holds keys the slots do not",
                component="cuckoo", indexed=len(self._index), stored=len(stored),
            )
