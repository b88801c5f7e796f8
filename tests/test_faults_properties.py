"""Property-based tests for fault injection and rollback.

Hypothesis drives (a) random alloc/free sequences through the buddy
allocator — with and without injected transient failures — checking the
structural invariants after every operation, and (b) random partial
gradual resizes that are then rolled back, checking the rollback leaves
the table indistinguishable (to lookups and invariants) from one that
never resized.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ContiguousAllocationError, OutOfMemoryError
from repro.common.units import PAGE_4K
from repro.faults import (
    SITE_CHUNK_ALLOC,
    DegradationLog,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
)
from repro.mem.allocator import BuddyBackedAllocator
from repro.mem.buddy import BuddyAllocator
from tests.conftest import contiguous, make_chunked_table, make_contiguous_table

pytestmark = pytest.mark.faults

#: (op, size_exponent) — op >= 0 allocates 2**op frames, -1 frees the oldest.
OPS = st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=120)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_buddy_invariants_hold_under_random_ops(ops):
    buddy = BuddyAllocator(256 * PAGE_4K, max_order=6)
    live = []
    for op in ops:
        if op < 0:
            if live:
                buddy.free(live.pop(0))
        else:
            try:
                live.append(buddy.alloc_order(op))
            except OutOfMemoryError:
                pass
        buddy.check_invariants()
    for start in live:
        buddy.free(start)
    buddy.check_invariants()
    assert buddy.free_frames() == buddy.total_frames


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, seed=st.integers(0, 50))
def test_buddy_backed_allocator_survives_injected_faults(ops, seed):
    """Transient faults plus real exhaustion: after recovery or abort the
    buddy state stays structurally sound and the stats stay consistent."""
    plan = FaultPlan(
        [FaultSpec(SITE_CHUNK_ALLOC, probability=0.3, max_failures=20)],
        seed=seed,
    )
    log = DegradationLog()
    alloc = BuddyBackedAllocator(
        BuddyAllocator(128 * PAGE_4K, max_order=5),
        fault_plan=plan,
        recovery=RecoveryPolicy(max_retries=1, backoff_base_cycles=10.0),
        degradation=log,
    )
    live = []
    for op in ops:
        if op < 0:
            if live:
                alloc.free(live.pop(0))
        else:
            try:
                live.append(alloc.alloc((1 << op) * PAGE_4K))
            except (OutOfMemoryError, ContiguousAllocationError):
                pass
        alloc.buddy.check_invariants()
    assert alloc.stats.allocations == len(live) + alloc.stats.frees
    assert alloc.stats.cycles >= log.recovery_cycles
    for start in live:
        alloc.free(start)
    alloc.buddy.check_invariants()
    assert alloc.buddy.free_frames() == alloc.buddy.total_frames


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=0, max_value=60),
    way_index=st.integers(min_value=0, max_value=2),
    rehash_steps=st.integers(min_value=0, max_value=40),
    seed=st.integers(0, 20),
    chunked=st.booleans(),
)
def test_rollback_after_partial_rehash_is_invisible(
    n, way_index, rehash_steps, seed, chunked
):
    """Start an out-of-place upsize, rehash an arbitrary prefix, roll it
    back: geometry restored, count conserved, every key still resolvable."""
    maker = make_chunked_table if chunked else make_contiguous_table
    table = maker(initial_slots=16, seed=seed)
    keys = [0x2000 + i * 16 for i in range(n)]
    for key in keys:
        table.insert(key, key ^ 0xFF)
    way = table.ways[way_index]
    if way.resizing:
        table.drain_way(way)
    count_before = table.count
    if chunked:
        started_inplace = way.storage.extend_to(way.size * 2)
        new_storage = None if started_inplace else contiguous(way.size * 2)
    else:
        new_storage = contiguous(way.size * 2)
    way.begin_resize(way.size * 2, new_storage)
    table.maintenance(steps=rehash_steps)
    # Enough steps may finish the resize first; rollback is then a no-op.
    finished = not way.resizing
    table.rollback_resize(way)
    assert not way.resizing
    assert way.rollbacks == (0 if finished else 1)
    assert table.count == count_before
    table.check_invariants()
    for key in keys:
        assert table.lookup(key) == key ^ 0xFF
