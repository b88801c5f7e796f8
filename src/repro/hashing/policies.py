"""Resize and insertion policies for elastic cuckoo tables.

Two policies are modelled, matching the paper's two designs:

* :class:`AllWayResizePolicy` — the ECPT baseline (Section II-B): one
  occupancy counter for the whole table; crossing the upsize threshold
  doubles *every* way, crossing the downsize threshold halves every way.
  Insertions pick a way uniformly at random.

* :class:`PerWayResizePolicy` — ME-HPT (Section IV-D): per-way occupancy
  counters; a way resizes alone, subject to the balance rule ("the
  candidate way cannot already be larger than another way" on an upsize,
  nor smaller on a downsize, keeping sizes within 2x of each other).
  Insertions are weighted-random with P(way i) = FREE_i / FREE_total, and
  a way that is larger than others and already at the upsize threshold
  gets weight zero.

Both use the occupancy thresholds of Table III: upsize at 0.6, downsize
at 0.2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay

#: Table III occupancy thresholds.
DEFAULT_UPSIZE_THRESHOLD = 0.6
DEFAULT_DOWNSIZE_THRESHOLD = 0.2


class ResizePolicy:
    """Base policy: thresholds plus the three hooks the table calls."""

    def __init__(
        self,
        upsize_threshold: float = DEFAULT_UPSIZE_THRESHOLD,
        downsize_threshold: float = DEFAULT_DOWNSIZE_THRESHOLD,
        min_way_slots: int = 128,
        allow_downsize: bool = True,
    ) -> None:
        if not 0.0 < upsize_threshold <= 1.0:
            raise ConfigurationError(f"bad upsize threshold {upsize_threshold}")
        if not 0.0 <= downsize_threshold < upsize_threshold:
            raise ConfigurationError(
                f"downsize threshold {downsize_threshold} must be below "
                f"upsize threshold {upsize_threshold}"
            )
        self.upsize_threshold = upsize_threshold
        self.downsize_threshold = downsize_threshold
        self.min_way_slots = min_way_slots
        self.allow_downsize = allow_downsize

    def choose_insert_way(self, table: "ElasticCuckooTable") -> int:
        raise NotImplementedError

    def check_resize(self, table: "ElasticCuckooTable") -> None:
        raise NotImplementedError

    def emergency_resize(self, table: "ElasticCuckooTable") -> None:
        """Grow the table when a cuckoo kick chain exceeds its bound."""
        raise NotImplementedError


class AllWayResizePolicy(ResizePolicy):
    """ECPT policy: uniform insertion, all ways resize together."""

    def choose_insert_way(self, table: "ElasticCuckooTable") -> int:
        return table.rng.randint(0, table.num_ways - 1)

    def check_resize(self, table: "ElasticCuckooTable") -> None:
        occupancy = table.occupancy()
        if occupancy >= self.upsize_threshold:
            self._resize_all(table, grow=True)
        elif (
            self.allow_downsize
            and occupancy <= self.downsize_threshold
            and all(way.size > self.min_way_slots for way in table.ways)
            and not table.resizing()
        ):
            self._resize_all(table, grow=False)

    def emergency_resize(self, table: "ElasticCuckooTable") -> None:
        self._resize_all(table, grow=True)

    @staticmethod
    def _resize_all(table: "ElasticCuckooTable", grow: bool) -> None:
        # All ways resize together; if a later way's allocation fails,
        # roll back the ways already started so the table is not left
        # straddling two generations (atomicity of the group resize).
        started = []
        try:
            for way in table.ways:
                table.start_resize(way, grow)
                started.append(way)
        except Exception:
            for way in reversed(started):
                table.rollback_resize(way)
            raise


class PerWayResizePolicy(ResizePolicy):
    """ME-HPT policy: weighted-random insertion, one way resizes at a time."""

    def choose_insert_way(self, table: "ElasticCuckooTable") -> int:
        weights = self.insertion_weights(table)
        if all(weight <= 0 for weight in weights):
            # Every way is full or blocked; fall back to uniform choice and
            # let the kick chain / emergency resize sort it out.
            return table.rng.randint(0, table.num_ways - 1)
        return table.rng.weighted_index(weights)

    def insertion_weights(self, table: "ElasticCuckooTable") -> list:
        """FREE_i / FREE_total weights with the paper's zero-weight rule.

        A way larger than a sibling is blocked once it reaches the upsize
        threshold.  Being larger than some sibling is being larger than
        the smallest way, so one minimum serves every way.
        """
        smallest = min(way.size for way in table.ways)
        weights = []
        for way in table.ways:
            free = max(0, way.size - way.count)
            blocked = (
                way.size > smallest
                and way.occupancy() >= self.upsize_threshold
            )
            weights.append(0.0 if blocked else float(free))
        return weights

    def check_resize(self, table: "ElasticCuckooTable") -> None:
        for way in table.ways:
            if way.occupancy() >= self.upsize_threshold and self._may_upsize(table, way):
                table.start_resize(way, grow=True)
        if not self.allow_downsize:
            return
        for way in table.ways:
            if (
                way.occupancy() <= self.downsize_threshold
                and way.size > self.min_way_slots
                and self._may_downsize(table, way)
                and not way.resizing
            ):
                table.start_resize(way, grow=False)

    def emergency_resize(self, table: "ElasticCuckooTable") -> None:
        # Grow the fullest way that the balance rule permits; if the rule
        # blocks everything (all equal sizes means nothing is blocked, so
        # this only happens transiently), grow the smallest way.
        candidates = [w for w in table.ways if self._may_upsize(table, w)]
        if not candidates:
            candidates = sorted(table.ways, key=lambda w: w.size)[:1]
        fullest = max(candidates, key=lambda w: w.occupancy())
        table.start_resize(fullest, grow=True)

    @staticmethod
    def _may_upsize(table: "ElasticCuckooTable", way: "ElasticWay") -> bool:
        """Balance rule: a way may not upsize past a smaller sibling."""
        return all(way.size <= other.size for other in table.ways if other is not way)

    @staticmethod
    def _may_downsize(table: "ElasticCuckooTable", way: "ElasticWay") -> bool:
        """Balance rule: a way may not downsize below a larger sibling."""
        return all(way.size >= other.size for other in table.ways if other is not way)
