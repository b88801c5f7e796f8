"""Unit tests for the elastic cuckoo engine (repro.hashing.cuckoo)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hashing.cuckoo import ElasticCuckooTable
from repro.mem.allocator import CostModelAllocator
from tests.conftest import make_chunked_table, make_contiguous_table


class TestBasicOperations:
    def test_insert_lookup(self, contiguous_table):
        contiguous_table.insert(10, "a")
        contiguous_table.insert(20, "b")
        assert contiguous_table.lookup(10) == "a"
        assert contiguous_table.lookup(20) == "b"
        assert contiguous_table.lookup(30) is None

    def test_insert_updates_existing(self, contiguous_table):
        contiguous_table.insert(10, "a")
        contiguous_table.insert(10, "b")
        assert contiguous_table.lookup(10) == "b"
        assert len(contiguous_table) == 1
        assert contiguous_table.stats.updates == 1

    def test_delete(self, contiguous_table):
        contiguous_table.insert(10, "a")
        assert contiguous_table.delete(10)
        assert contiguous_table.lookup(10) is None
        assert not contiguous_table.delete(10)
        assert len(contiguous_table) == 0

    def test_contains(self, contiguous_table):
        contiguous_table.insert(5, "x")
        assert 5 in contiguous_table
        assert 6 not in contiguous_table

    def test_items_yield_everything(self, contiguous_table):
        expected = {k: k * 2 for k in range(30)}
        for key, value in expected.items():
            contiguous_table.insert(key, value)
        assert dict(contiguous_table.items()) == expected

    def test_needs_at_least_two_ways(self):
        with pytest.raises(ConfigurationError):
            make_contiguous_table(ways=1)


class TestResizingOutOfPlace:
    """ECPT-style behaviour: contiguous ways resize out of place."""

    def test_upsize_triggers_at_threshold(self):
        table = make_contiguous_table(initial_slots=16)
        for key in range(40):
            table.insert(key, key)
        assert all(way.size > 16 for way in table.ways)
        assert all(way.upsizes >= 1 for way in table.ways)
        table.check_invariants()

    def test_all_ways_resize_together(self):
        table = make_contiguous_table(initial_slots=16)
        for key in range(200):
            table.insert(key, key)
        table.drain()
        sizes = {way.size for way in table.ways}
        assert len(sizes) == 1  # all-way policy keeps them equal

    def test_lookup_during_gradual_resize(self):
        table = make_contiguous_table(initial_slots=64)
        keys = list(range(120))
        for key in keys:
            table.insert(key, key * 3)
        # At least one way should still be mid-resize right after trigger.
        for key in keys:
            assert table.lookup(key) == key * 3
        table.check_invariants()

    def test_out_of_place_moves_everything(self):
        table = make_contiguous_table(initial_slots=16)
        for key in range(100):
            table.insert(key, key)
        table.drain()
        for way in table.ways:
            if way.rehash_examined:
                assert way.moved_fraction() == 1.0

    def test_old_storage_released_after_drain(self):
        table = make_contiguous_table(initial_slots=16)
        for key in range(100):
            table.insert(key, key)
        table.drain()
        assert all(way.old_storage is None for way in table.ways)

    def test_peak_counts_old_plus_new(self):
        allocator = CostModelAllocator(fmfi=0.1)
        table = make_contiguous_table(initial_slots=64, allocator=allocator)
        for key in range(110):
            table.insert(key, key)
        # Peak during out-of-place resize is at least old+new of one way.
        assert allocator.stats.peak_bytes > table.ways[0].size * 64 * len(table.ways) / 2


class TestResizingInPlace:
    """ME-HPT-style behaviour: chunked ways resize in place."""

    def test_inplace_upsize_keeps_half_in_place(self):
        table = make_chunked_table(initial_slots=64)
        for key in range(2000):
            table.insert(key, key)
        table.drain()
        fractions = [w.moved_fraction() for w in table.ways if w.rehash_examined > 100]
        assert fractions, "no way rehashed enough entries"
        for fraction in fractions:
            assert 0.4 < fraction < 0.6

    def test_no_old_storage_in_inplace_resize(self):
        table = make_chunked_table(initial_slots=16)
        for key in range(40):
            table.insert(key, key)
        resizing = [w for w in table.ways if w.resizing]
        for way in resizing:
            assert way.old_storage is None

    def test_lookups_correct_through_resizes(self):
        table = make_chunked_table(initial_slots=16)
        for key in range(3000):
            table.insert(key, key + 7)
            if key % 500 == 0:
                table.check_invariants()
        for key in range(0, 3000, 17):
            assert table.lookup(key) == key + 7

    def test_inplace_flag_disables_inplace(self):
        table = make_chunked_table(initial_slots=16)
        table.inplace_enabled = False
        for key in range(200):
            table.insert(key, key)
        table.drain()
        assert all(way.inplace_upsizes == 0 for way in table.ways)
        assert any(way.upsizes > 0 for way in table.ways)


class TestResizeInFlight:
    @pytest.mark.parametrize("maker", [make_chunked_table, make_contiguous_table])
    def test_start_resize_finishes_the_resize_in_flight(self, maker):
        table = maker(initial_slots=16)
        keys = [0x1000 + i * 8 for i in range(8)]
        for key in keys:
            table.insert(key, key * 3)
        way = table.ways[0]
        assert not table.resizing()
        table.start_resize(way, True)
        table.maintenance(steps=5)
        assert way.resizing and way.old_size == 16 and way.size == 32
        inplace = maker is make_chunked_table
        assert (way.old_storage is None) == inplace
        # The resize in flight completes first, then the way doubles
        # from its new size.
        table.start_resize(way, True)
        assert way.resizing and way.old_size == 32 and way.size == 64
        assert way.upsizes == 2
        assert way.inplace_upsizes == (2 if inplace else 0)
        table.check_invariants()
        table.drain()
        assert way.size == 64 and way.storage.size_slots == 64
        table.check_invariants()
        for key in keys:
            assert table.lookup(key) == key * 3


class TestDownsizing:
    def test_downsize_after_deletes(self):
        table = make_contiguous_table(initial_slots=16)
        for key in range(300):
            table.insert(key, key)
        table.drain()
        size_before = table.ways[0].size
        for key in range(290):
            table.delete(key)
        table.drain()
        assert table.ways[0].size < size_before
        for key in range(290, 300):
            assert table.lookup(key) == key
        table.check_invariants()

    def test_never_below_min_way_slots(self):
        table = make_contiguous_table(initial_slots=16)
        for key in range(50):
            table.insert(key, key)
        for key in range(50):
            table.delete(key)
        table.drain()
        assert all(way.size >= 16 for way in table.ways)

    def test_inplace_downsize_shrinks_storage(self):
        table = make_chunked_table(initial_slots=16, chunk_bytes=1024)
        for key in range(2000):
            table.insert(key, key)
        table.drain()
        bytes_before = table.total_bytes()
        for key in range(1900):
            table.delete(key)
        table.drain()
        assert table.total_bytes() < bytes_before
        table.check_invariants()

    def test_downsize_disabled(self):
        table = make_contiguous_table(initial_slots=16, allow_downsize=False)
        for key in range(300):
            table.insert(key, key)
        table.drain()
        size = table.ways[0].size
        for key in range(300):
            table.delete(key)
        assert table.ways[0].size == size


class TestKickAccounting:
    def test_kick_histogram_populated(self):
        table = make_contiguous_table(initial_slots=64)
        for key in range(500):
            table.insert(key, key)
        stats = table.stats
        assert stats.total_kick_samples() >= 500
        assert stats.kick_histogram[0] > 0
        assert 0.0 <= stats.mean_kicks() < 3.0

    def test_distribution_sums_to_one(self):
        table = make_contiguous_table(initial_slots=64)
        for key in range(500):
            table.insert(key, key)
        dist = table.stats.kick_distribution()
        assert abs(sum(dist) - 1.0) < 1e-9


class TestEagerMigration:
    def test_factory_none_triggers_eager_migration(self):
        calls = {"count": 0}
        table = make_chunked_table(initial_slots=16)

        original_factory = table.storage_factory

        def flaky_factory(way, slots):
            calls["count"] += 1
            if calls["count"] % 2 == 1:
                return None  # force the eager path every other resize
            return original_factory(way, slots)

        table.storage_factory = flaky_factory
        table.inplace_enabled = False  # force out-of-place, exercising factory
        for key in range(500):
            table.insert(key, key)
        table.drain()
        assert table.stats.eager_migrations > 0
        for key in range(0, 500, 13):
            assert table.lookup(key) == key
        table.check_invariants()
