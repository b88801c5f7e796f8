"""Fault-injection framework tests (repro.faults + hooks).

Covers the graceful-degradation contracts end to end: deterministic
fault plans, cycle-charged retry/backoff in the allocators, atomic
resize rollback (the mid-resize allocation-failure acceptance test),
degrade-to-out-of-place, chunk-size fallback, L2P reservation refusal,
injected cuckoo kick-bound overruns, the cuckoo key index after aborts
that lose items, the invariant checkers' ability to actually detect
corruption, and pickle/repr round-trips of the structured errors.
"""

from __future__ import annotations

import pickle

import pytest

from repro.common.errors import (
    ConfigurationError,
    ContiguousAllocationError,
    OutOfMemoryError,
    SimulationError,
    TableFullError,
    TransientAllocationError,
)
from repro.common.rng import DeterministicRng
from repro.common.units import KB, MB, PAGE_4K
from repro.core.chunks import ChunkLadder
from repro.core.l2p import L2PTable
from repro.core.mehpt import MeHptPageTables
from repro.faults import (
    DEFAULT_RECOVERY,
    EVENT_ABORT,
    EVENT_DEGRADE_OOP,
    EVENT_FALLBACK,
    EVENT_FAULT,
    EVENT_RETRY,
    EVENT_ROLLBACK,
    SITE_CHUNK_ALLOC,
    SITE_CONTIGUOUS_ALLOC,
    SITE_CUCKOO_KICKS,
    SITE_L2P_RESERVE,
    DegradationLog,
    FaultInjectedBudget,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
)
from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay
from repro.hashing.hashes import HashFamily
from repro.hashing.policies import AllWayResizePolicy
from repro.hashing.storage import ChunkedStorage, UnlimitedChunkBudget
from repro.mem.allocator import BuddyBackedAllocator, CostModelAllocator
from repro.mem.buddy import BuddyAllocator
from tests.conftest import contiguous, make_chunked_table, make_contiguous_table

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("disk_io", every=1)

    def test_exactly_one_mode_required(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(SITE_CHUNK_ALLOC)  # neither
        with pytest.raises(ConfigurationError):
            FaultSpec(SITE_CHUNK_ALLOC, every=2, probability=0.5)  # both

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(SITE_CHUNK_ALLOC, probability=1.5)

    def test_negative_max_failures_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(SITE_CHUNK_ALLOC, every=1, max_failures=-1)


class TestFaultPlan:
    def test_every_mode_fires_deterministically(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=3)])
        fired = [plan.decide(SITE_CHUNK_ALLOC) is not None for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_site_mismatch_never_fires(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=1)])
        assert plan.decide(SITE_L2P_RESERVE) is None
        assert plan.opportunities() == 0

    def test_min_bytes_gate(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=1, min_bytes=1 * MB)])
        assert plan.decide(SITE_CHUNK_ALLOC, nbytes=8 * KB) is None
        assert plan.decide(SITE_CHUNK_ALLOC, nbytes=1 * MB) is not None

    def test_fmfi_gate(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=1, fmfi_above=0.7)])
        assert plan.decide(SITE_CHUNK_ALLOC, fmfi=0.7) is None
        assert plan.decide(SITE_CHUNK_ALLOC, fmfi=0.75) is not None

    def test_max_failures_caps_firing(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=1, max_failures=2)])
        results = [plan.decide(SITE_CHUNK_ALLOC) is not None for _ in range(5)]
        assert results == [True, True, False, False, False]
        assert plan.fired(SITE_CHUNK_ALLOC) == 2

    def test_probability_mode_replicates_identically(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, probability=0.3)], seed=99)
        first = [plan.decide(SITE_CHUNK_ALLOC) is not None for _ in range(200)]
        again = plan.replicate()
        second = [again.decide(SITE_CHUNK_ALLOC) is not None for _ in range(200)]
        assert first == second
        assert any(first) and not all(first)

    def test_replicate_zeroes_counters(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=2)])
        for _ in range(4):
            plan.decide(SITE_CHUNK_ALLOC)
        fresh = plan.replicate()
        assert fresh.fired() == 0 and fresh.opportunities() == 0
        assert plan.fired() == 2 and plan.opportunities() == 4


# ---------------------------------------------------------------------------
# Structured errors: repr + pickle round-trips (multiprocessing contract)
# ---------------------------------------------------------------------------


class TestErrorRoundTrips:
    def test_contiguous_error_pickles(self):
        exc = ContiguousAllocationError(64 * MB, 0.8, attempt=2)
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is ContiguousAllocationError
        assert (clone.size_bytes, clone.fmfi, clone.attempt) == (64 * MB, 0.8, 2)
        assert clone.transient is False

    def test_transient_error_pickles_and_subclasses(self):
        exc = TransientAllocationError(8 * KB, 0.1, attempt=1)
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is TransientAllocationError
        assert isinstance(clone, ContiguousAllocationError)
        assert clone.transient is True

    def test_simulation_error_context_pickles(self):
        exc = SimulationError("boom", component="cuckoo", way=1, counted=3)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.context == {"component": "cuckoo", "way": 1, "counted": 3}
        assert "component='cuckoo'" in repr(clone)

    def test_repr_sorts_context(self):
        exc = SimulationError("x", zebra=1, apple=2)
        assert repr(exc).index("apple") < repr(exc).index("zebra")


# ---------------------------------------------------------------------------
# Recovery policy + allocator retry/backoff accounting
# ---------------------------------------------------------------------------


class TestRecoveryPolicy:
    def test_backoff_is_geometric(self):
        policy = RecoveryPolicy(max_retries=3, backoff_base_cycles=100.0, backoff_factor=2.0)
        assert [policy.backoff_cycles(a) for a in (1, 2, 3)] == [100.0, 200.0, 400.0]

    def test_default_policy_shape(self):
        assert DEFAULT_RECOVERY.max_retries >= 1
        assert DEFAULT_RECOVERY.backoff_base_cycles > 0


class TestAllocatorRecovery:
    def test_transient_failures_retried_with_charged_backoff(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=1, max_failures=2)])
        log = DegradationLog()
        alloc = CostModelAllocator(fmfi=0.0, fault_plan=plan, degradation=log)
        handle = alloc.alloc(PAGE_4K)
        assert handle is not None
        assert alloc.stats.failed_allocations == 2
        assert log.count(EVENT_FAULT) == 2
        assert log.count(EVENT_RETRY) == 2
        assert log.count(EVENT_ABORT) == 0
        expected_backoff = DEFAULT_RECOVERY.backoff_cycles(1) + DEFAULT_RECOVERY.backoff_cycles(2)
        assert log.recovery_cycles == expected_backoff
        assert alloc.stats.cycles >= expected_backoff  # backoff charged to the clock

    def test_unbounded_transient_faults_abort_after_max_retries(self):
        plan = FaultPlan([FaultSpec(SITE_CHUNK_ALLOC, every=1)])
        log = DegradationLog()
        recovery = RecoveryPolicy(max_retries=2, backoff_base_cycles=10.0)
        alloc = CostModelAllocator(
            fmfi=0.0, fault_plan=plan, recovery=recovery, degradation=log
        )
        with pytest.raises(TransientAllocationError):
            alloc.alloc(PAGE_4K)
        # initial attempt + 2 retries, then the abort propagates.
        assert log.count(EVENT_FAULT) == 3
        assert log.count(EVENT_RETRY) == 2
        assert log.count(EVENT_ABORT) == 1
        assert alloc.stats.allocations == 0

    def test_permanent_injected_failure_never_retried(self):
        plan = FaultPlan([FaultSpec(SITE_CONTIGUOUS_ALLOC, every=1)])
        log = DegradationLog()
        alloc = CostModelAllocator(fmfi=0.8, fault_plan=plan, degradation=log)
        with pytest.raises(ContiguousAllocationError) as info:
            alloc.alloc(64 * MB)
        assert not info.value.transient
        assert log.count(EVENT_RETRY) == 0
        assert log.count(EVENT_ABORT) == 1

    def test_scale_applied_before_gates(self):
        # An 8KB request at scale 128 is a 1MB full-scale request.
        plan = FaultPlan([FaultSpec(SITE_CONTIGUOUS_ALLOC, every=1, min_bytes=1 * MB)])
        alloc = CostModelAllocator(fmfi=0.0, scale=128, fault_plan=plan)
        with pytest.raises(ContiguousAllocationError):
            alloc.alloc(8 * KB)

    def test_buddy_backed_exhaustion_records_abort(self):
        log = DegradationLog()
        buddy = BuddyAllocator(4 * PAGE_4K, max_order=2)
        alloc = BuddyBackedAllocator(buddy, degradation=log)
        alloc.alloc(4 * PAGE_4K)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(PAGE_4K)
        assert log.count(EVENT_ABORT) == 1
        assert alloc.stats.failed_allocations == 1


# ---------------------------------------------------------------------------
# Resize rollback (the mid-resize failure acceptance test)
# ---------------------------------------------------------------------------


def _fill(table: ElasticCuckooTable, n: int, base: int = 0x1000):
    keys = [base + i * 8 for i in range(n)]
    for key in keys:
        table.insert(key, key * 3)
    return keys


class TestRollbackResize:
    def test_rollback_idle_way_is_noop(self, contiguous_table):
        way = contiguous_table.ways[0]
        contiguous_table.rollback_resize(way)
        assert way.rollbacks == 0

    def test_out_of_place_rollback_restores_geometry_and_items(self):
        table = make_contiguous_table(initial_slots=16)
        keys = _fill(table, 8)
        way = table.ways[0]
        way.begin_resize(32, contiguous(32))
        table.maintenance(steps=5)  # partial gradual rehash
        assert way.resizing
        table.rollback_resize(way)
        assert not way.resizing
        assert way.size == 16 and way.old_storage is None
        assert way.upsizes == 0 and way.rollbacks == 1
        table.check_invariants()
        for key in keys:
            assert table.lookup(key) == key * 3

    def test_inplace_rollback_shrinks_storage_back(self):
        table = make_chunked_table(initial_slots=16, chunk_bytes=256)
        keys = _fill(table, 9)
        way = table.ways[1]
        assert way.storage.extend_to(32)
        way.begin_resize(32, None)
        table.maintenance(steps=7)
        table.rollback_resize(way)
        assert way.size == 16
        assert way.storage.size_slots == 16
        assert way.inplace_upsizes == 0 and way.rollbacks == 1
        table.check_invariants()
        for key in keys:
            assert table.lookup(key) == key * 3

    def test_downsize_rollback(self):
        table = make_chunked_table(initial_slots=16, chunk_bytes=256)
        keys = _fill(table, 5)
        way = table.ways[0]
        way.begin_resize(8, None)
        table.maintenance(steps=3)
        table.rollback_resize(way)
        assert way.size == 16 and way.downsizes == 0
        table.check_invariants()
        for key in keys:
            assert table.lookup(key) == key * 3

    def test_rollback_records_degradation_event(self):
        table = make_contiguous_table(initial_slots=16)
        table.degradation = DegradationLog()
        _fill(table, 6)
        way = table.ways[2]
        way.begin_resize(32, contiguous(32))
        table.rollback_resize(way)
        assert table.degradation.count(EVENT_ROLLBACK) == 1
        (event,) = list(table.degradation)
        assert dict(event.detail)["way"] == 2

    def test_allway_resize_failure_mid_group_rolls_back_atomically(self):
        """The acceptance test: a contiguous-allocation failure striking a
        sibling way mid-all-way-resize leaves the table consistent and every
        prior translation resolvable."""
        family = HashFamily(seed=7)
        calls = {"n": 0}

        def factory(way_index, slots):
            calls["n"] += 1
            if calls["n"] == 2:  # way 0 succeeds, way 1 fails
                raise ContiguousAllocationError(slots * 64, 0.8)
            return contiguous(slots)

        ways = [ElasticWay(i, family.function(i), contiguous(16)) for i in range(3)]
        table = ElasticCuckooTable(
            ways,
            AllWayResizePolicy(min_way_slots=16),
            factory,
            rng=DeterministicRng(8),
            inplace_enabled=False,
            degradation=DegradationLog(),
        )
        inserted = []
        with pytest.raises(ContiguousAllocationError):
            for i in range(200):
                key = 0x1000 + i * 8
                table.insert(key, key)
                inserted.append(key)
        # The triggering key was placed before the resize tripped.
        inserted.append(0x1000 + len(inserted) * 8)
        assert calls["n"] == 2
        assert all(not way.resizing for way in table.ways)
        assert [way.size for way in table.ways] == [16, 16, 16]
        assert table.ways[0].rollbacks == 1
        assert table.degradation.count(EVENT_ROLLBACK) == 1
        table.check_invariants()
        for key in inserted:
            assert table.lookup(key) == key


# ---------------------------------------------------------------------------
# Degrade-to-out-of-place and chunk-size fallback
# ---------------------------------------------------------------------------


class _FlakyChunkAllocator(CostModelAllocator):
    """Fails the next ``fail_times`` allocations, then recovers."""

    def __init__(self, fail_times: int = 0, fail_at_bytes: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.fail_times = fail_times
        self.fail_at_bytes = fail_at_bytes

    def alloc(self, nbytes: int) -> int:
        if self.fail_times > 0:
            self.fail_times -= 1
            raise ContiguousAllocationError(nbytes, self.fmfi)
        if self.fail_at_bytes and nbytes >= self.fail_at_bytes:
            raise ContiguousAllocationError(nbytes, self.fmfi)
        return super().alloc(nbytes)


class TestDegradeToOutOfPlace:
    def test_failed_inplace_extend_degrades_to_gradual_oop(self):
        allocator = _FlakyChunkAllocator(fmfi=0.8)
        budget = UnlimitedChunkBudget()
        family = HashFamily(seed=7)

        def storage(slots):
            return ChunkedStorage(
                slots, chunk_bytes=1024, allocator=allocator, budget=budget
            )

        ways = [ElasticWay(i, family.function(i), storage(16)) for i in range(3)]
        from repro.hashing.policies import PerWayResizePolicy

        log = DegradationLog()
        table = ElasticCuckooTable(
            ways,
            PerWayResizePolicy(min_way_slots=16),
            lambda w, slots: storage(slots),
            rng=DeterministicRng(9),
            degradation=log,
        )
        target = table.ways[0]
        # Arm the failure just before the in-place extension attempt: the
        # extend fails atomically, the resize degrades to out-of-place.
        allocator.fail_times = 1
        table.start_resize(target, True)
        assert log.count(EVENT_DEGRADE_OOP) == 1
        assert target.resizing and target.old_storage is not None
        table.drain()
        table.check_invariants()

    def test_atomic_extend_failure_leaves_storage_untouched(self):
        allocator = _FlakyChunkAllocator(fmfi=0.8)
        budget = UnlimitedChunkBudget()
        storage = ChunkedStorage(16, chunk_bytes=256, allocator=allocator, budget=budget)
        chunks_before = storage.chunk_count
        budget_before = budget.in_use
        allocator.fail_times = 1
        with pytest.raises(ContiguousAllocationError):
            storage.extend_to(64)  # needs several new 256B chunks
        assert storage.size_slots == 16
        assert storage.chunk_count == chunks_before
        assert budget.in_use == budget_before
        storage.check_invariants()
        # With the transient gone the same extension succeeds.
        assert storage.extend_to(64)


class TestChunkFallback:
    def _tables(self, allocator, log):
        return MeHptPageTables(
            allocator=allocator,
            initial_slots=16,
            chunk_ladder=ChunkLadder((8 * KB, 1 * MB)),
            degradation=log,
        )

    def test_fallback_chunk_walks_ladder_down(self):
        tables = self._tables(CostModelAllocator(), DegradationLog())
        # 128KB way: 16 x 8KB chunks fit the 64-chunk budget.
        assert tables._fallback_chunk(1 * MB, 128 * KB) == 8 * KB
        # 600KB way: 75 x 8KB chunks exceed it -> no fallback possible.
        assert tables._fallback_chunk(1 * MB, 600 * KB) is None

    def test_resize_storage_falls_back_to_smaller_chunks(self):
        log = DegradationLog()
        allocator = _FlakyChunkAllocator(fmfi=0.8, fail_at_bytes=1 * MB)
        tables = self._tables(allocator, log)
        storage = tables._resize_storage("4K", 0, 2048)
        assert storage is not None
        assert storage.chunk_bytes == 8 * KB
        assert log.count(EVENT_FALLBACK) == 1
        detail = dict(list(log)[0].detail)
        assert detail["from_chunk"] == 1 * MB and detail["to_chunk"] == 8 * KB
        tables.check_invariants()

    def test_fallback_exhausted_reraises(self):
        log = DegradationLog()
        allocator = _FlakyChunkAllocator(fmfi=0.8)
        tables = self._tables(allocator, log)
        allocator.fail_at_bytes = 8 * KB  # every ladder size now fails
        with pytest.raises(ContiguousAllocationError):
            tables._resize_storage("4K", 0, 2048)


# ---------------------------------------------------------------------------
# L2P reservation and cuckoo-kick injection
# ---------------------------------------------------------------------------


class TestL2PReservationInjection:
    def test_injected_budget_refuses_and_logs(self):
        inner = UnlimitedChunkBudget()
        log = DegradationLog()
        plan = FaultPlan([FaultSpec(SITE_L2P_RESERVE, every=1)])
        budget = FaultInjectedBudget(inner, plan, log)
        assert budget.reserve(2) is False
        assert inner.in_use == 0
        assert log.count(EVENT_FAULT) == 1
        assert dict(list(log)[0].detail)["count"] == 2

    def test_release_proxies_to_inner(self):
        inner = UnlimitedChunkBudget()
        plan = FaultPlan([FaultSpec(SITE_L2P_RESERVE, every=2)])
        budget = FaultInjectedBudget(inner, plan)
        assert budget.reserve(3)  # opportunity 1: no fire
        assert budget.in_use == 3
        budget.release(3)
        assert inner.in_use == 0

    def test_refused_reservation_stops_inplace_extension(self):
        plan = FaultPlan([FaultSpec(SITE_L2P_RESERVE, every=2)])
        budget = FaultInjectedBudget(UnlimitedChunkBudget(), plan)
        storage = ChunkedStorage(16, chunk_bytes=256, budget=budget)  # reserve #1 passes
        assert storage.extend_to(64) is False  # reserve #2 injected
        assert storage.size_slots == 16
        storage.check_invariants()


class TestCuckooKickInjection:
    def test_injected_kick_overrun_forces_emergency_resize(self):
        table = make_chunked_table(initial_slots=16)
        table.fault_plan = FaultPlan([FaultSpec(SITE_CUCKOO_KICKS, every=40)])
        table.degradation = DegradationLog()
        keys = _fill(table, 120)
        faults = table.degradation.count(EVENT_FAULT)
        assert faults >= 1
        assert table.capacity() > 3 * 16  # emergency resizes grew the table
        table.check_invariants()
        for key in keys:
            assert table.lookup(key) == key * 3


# ---------------------------------------------------------------------------
# Aborts that lose items leave the key index equal to the slots
# ---------------------------------------------------------------------------


class _WayZeroFirst(AllWayResizePolicy):
    """Every insert starts its kick chain at way 0."""

    def choose_insert_way(self, table):
        return 0


def _way_zero_table(**kwargs) -> ElasticCuckooTable:
    """A contiguous table whose way 0 indexes by the key itself, so a
    test decides which keys share a slot there."""
    family = HashFamily(seed=7)
    ways = [ElasticWay(0, lambda key: key, contiguous(16))]
    ways += [ElasticWay(i, family.function(i), contiguous(16)) for i in (1, 2)]
    return ElasticCuckooTable(
        ways,
        _WayZeroFirst(min_way_slots=16),
        lambda w, slots: contiguous(slots),
        rng=DeterministicRng(8),
        inplace_enabled=False,
        **kwargs,
    )


def _failing_factory(way_index, slots):
    raise ContiguousAllocationError(slots * 64, 0.9)


def _assert_index_matches_probes(table: ElasticCuckooTable, keys):
    """check_invariants passes and, for every key, ``lookup`` (the key
    index) returns what the ways' real probes find."""
    table.check_invariants()
    for key in keys:
        probed = None
        located = table._find_slot(key)
        if located is not None:
            _way, storage, idx = located
            probed = storage.get(idx)[1]
        assert table.lookup(key) is probed


class TestAbortsKeepKeyIndex:
    def test_kick_chain_ending_in_table_full_error(self):
        table = _way_zero_table(max_kicks=1)
        table.insert(3, 30)
        # As if eight emergency resizes were already nested: the next
        # kick chain that reaches max_kicks cannot grow the table.
        table._emergency_depth = 8
        with pytest.raises(TableFullError):
            table.insert(19, 190)  # takes way 0's slot 3, kicking 3 out
        table._emergency_depth = 0
        _assert_index_matches_probes(table, [3, 19])
        assert table.lookup(3) is None  # in flight when the chain gave up
        assert table.lookup(19) == 190
        assert len(table) == 1

    @pytest.mark.parametrize("maker", [make_contiguous_table, make_chunked_table])
    def test_eager_migration_whose_factory_fails_after_release(self, maker):
        table = maker(initial_slots=16)
        table.inplace_enabled = False  # chunked ways would grow in place
        keys = _fill(table, 20)
        # A way whose storage cannot be re-created has no slots left to
        # probe, so take the last way: probes for the other ways' keys
        # find them before they reach it.
        dead = table.ways[-1]
        lost = {key for key, _value in table._way_items(dead)}
        assert lost
        calls = []

        def factory(way_index, slots):
            calls.append(slots)
            if len(calls) == 1:
                return None  # old and new cannot coexist: migrate eagerly
            raise ContiguousAllocationError(slots * 64, 0.9)

        table.storage_factory = factory
        with pytest.raises(ContiguousAllocationError):
            table.start_resize(dead, True)
        assert calls == [32, 32, 16]  # start_resize, eager target, old size
        assert dead.storage.size_slots == 0 and dead.count == 0
        table.check_invariants()
        survivors = [key for key in keys if key not in lost]
        _assert_index_matches_probes(table, survivors)
        assert dict(table.items()) == {key: key * 3 for key in survivors}
        for key in lost:
            assert table.lookup(key) is None

    def test_rollback_whose_replacement_raises(self):
        table = _way_zero_table(rehashes_per_insert=0)
        table.insert(3, 30)
        table.insert(5, 50)
        way = table.ways[0]
        way.begin_resize(32, contiguous(32))
        table.maintenance(steps=4)  # 3 moves to the new way; pointer at 4
        table.insert(19, 190)  # old index 3 is migrated: new index 19
        # Rolling back puts 3 and 19 on old index 3 again; re-placing 19
        # hits an injected kick overrun whose emergency resize fails.
        table.fault_plan = FaultPlan([FaultSpec(SITE_CUCKOO_KICKS, every=1)])
        table.storage_factory = _failing_factory
        with pytest.raises(ContiguousAllocationError):
            table.rollback_resize(way)
        assert not way.resizing and way.size == 16
        _assert_index_matches_probes(table, [3, 5, 19])
        assert table.lookup(19) is None
        assert len(table) == 2

    def test_injected_kick_fault_whose_emergency_resize_raises(self):
        table = _way_zero_table()
        table.insert(3, 30)
        table.insert(11, 110)
        way = table.ways[0]
        way.begin_resize(8, contiguous(8))
        table.fault_plan = FaultPlan([FaultSpec(SITE_CUCKOO_KICKS, every=1)])
        table.storage_factory = _failing_factory
        # 3 and 11 meet at new index 3: 11 claims it and 3 is cuckooed
        # out, straight into the injected overrun.
        with pytest.raises(ContiguousAllocationError):
            table.maintenance(steps=16)
        _assert_index_matches_probes(table, [3, 11])
        assert table.lookup(3) is None
        assert table.lookup(11) == 110
        assert len(table) == 1


# ---------------------------------------------------------------------------
# Invariant checkers actually detect corruption
# ---------------------------------------------------------------------------


class TestInvariantDetection:
    def test_buddy_healthy_passes(self):
        buddy = BuddyAllocator(64 * PAGE_4K, max_order=4)
        handles = [buddy.alloc_bytes(PAGE_4K) for _ in range(5)]
        buddy.free(handles[2])
        buddy.check_invariants()

    def test_buddy_detects_overlap(self):
        buddy = BuddyAllocator(64 * PAGE_4K, max_order=4)
        buddy.alloc_bytes(PAGE_4K)
        buddy.free_lists[0].add(0)  # frame 0 is allocated: overlap/leak
        with pytest.raises(SimulationError) as info:
            buddy.check_invariants()
        assert info.value.context["component"] == "buddy"

    def test_buddy_detects_uncoalesced_pair(self):
        buddy = BuddyAllocator(2 * PAGE_4K)
        buddy.free_lists[buddy.max_order].clear()
        buddy.free_lists[0].update({0, 1})
        with pytest.raises(SimulationError, match="uncoalesced"):
            buddy.check_invariants()

    def test_cuckoo_detects_count_drift(self):
        table = make_contiguous_table()
        _fill(table, 6)
        table.ways[0].count += 1
        with pytest.raises(SimulationError) as info:
            table.check_invariants()
        assert info.value.context["component"] == "cuckoo"

    def test_cuckoo_detects_table_count_drift(self):
        table = make_contiguous_table()
        _fill(table, 6)
        table.count += 1
        with pytest.raises(SimulationError, match="table count"):
            table.check_invariants()

    def test_cuckoo_detects_key_off_its_probe_path(self):
        # lookup reads the key index, so only the invariant check's real
        # probes notice a key stored where its way's locate does not point.
        table = make_contiguous_table()
        keys = _fill(table, 6)
        way, storage, idx = table._find_slot(keys[0])
        spare = next(i for i in range(way.size) if storage.get(i) is None)
        storage.put(spare, storage.get(idx))
        storage.clear(idx)
        assert table.lookup(keys[0]) == keys[0] * 3
        with pytest.raises(SimulationError, match="unreachable through its way probes"):
            table.check_invariants()

    def test_cuckoo_detects_key_index_drift(self):
        table = make_contiguous_table()
        keys = _fill(table, 6)
        table._index[keys[0]] = -1
        with pytest.raises(SimulationError, match="key index disagrees"):
            table.check_invariants()
        table = make_contiguous_table()
        _fill(table, 6)
        table._index[0x7777] = 1
        with pytest.raises(SimulationError, match="key index holds keys"):
            table.check_invariants()

    def test_chunked_storage_detects_handle_mismatch(self):
        storage = ChunkedStorage(32, chunk_bytes=256)
        storage._handles.pop()
        with pytest.raises(SimulationError, match="handle"):
            storage.check_invariants()

    def test_chunked_storage_detects_budget_undercount(self):
        budget = UnlimitedChunkBudget()
        storage = ChunkedStorage(32, chunk_bytes=256, budget=budget)
        budget.in_use = 0
        with pytest.raises(SimulationError, match="budget"):
            storage.check_invariants()

    def test_l2p_detects_negative_usage(self):
        l2p = L2PTable(3)
        l2p.subtable(1, "4K").in_use = -1
        with pytest.raises(SimulationError) as info:
            l2p.check_invariants()
        assert info.value.context["component"] == "l2p"

    def test_l2p_detects_group_overflow(self):
        l2p = L2PTable(3)
        for page_size in ("4K", "2M", "1G"):
            sub = l2p.subtable(0, page_size)
            sub.in_use = 33
            sub.peak_in_use = 33
        with pytest.raises(SimulationError, match="96"):
            l2p.check_invariants()

    def test_l2p_healthy_passes(self):
        l2p = L2PTable(3)
        assert l2p.subtable(0, "4K").reserve(40)
        l2p.check_invariants()


# ---------------------------------------------------------------------------
# End-to-end determinism: same seed + plan => identical degradation logs
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _signature(self):
        from repro.experiments.runner import ExperimentSettings
        from repro.sim.simulator import memory_result
        from repro.workloads import get_workload

        settings = ExperimentSettings(scale=64)
        plan = FaultPlan(
            [FaultSpec(SITE_CHUNK_ALLOC, every=5, max_failures=8)], seed=7
        )
        config = settings.config(
            "mehpt", thp=False, fault_plan=plan, invariant_check_every=512
        )
        workload = get_workload("MUMmer", scale=64, seed=settings.seed)
        system = config.build(workload)
        result = memory_result(system)
        assert not result.failed
        assert sum(result.degradation_counts.values()) > 0
        return system.degradation.signature()

    def test_repeated_builds_yield_identical_logs(self):
        assert self._signature() == self._signature()

    def test_allocator_level_determinism(self):
        def run():
            plan = FaultPlan(
                [FaultSpec(SITE_CHUNK_ALLOC, probability=0.4, max_failures=6)],
                seed=3,
            ).replicate()
            log = DegradationLog()
            alloc = CostModelAllocator(fmfi=0.2, fault_plan=plan, degradation=log)
            for i in range(30):
                try:
                    alloc.alloc(PAGE_4K << (i % 4))
                except ContiguousAllocationError:
                    pass
            return log.signature()

        assert run() == run()
