"""Unit tests for resize/insertion policies (repro.hashing.policies)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hashing.policies import AllWayResizePolicy, PerWayResizePolicy
from tests.conftest import make_chunked_table, make_contiguous_table


class TestThresholdValidation:
    def test_defaults_are_paper_values(self):
        policy = AllWayResizePolicy()
        assert policy.upsize_threshold == 0.6
        assert policy.downsize_threshold == 0.2

    def test_invalid_upsize(self):
        with pytest.raises(ConfigurationError):
            AllWayResizePolicy(upsize_threshold=1.5)

    def test_downsize_must_be_below_upsize(self):
        with pytest.raises(ConfigurationError):
            PerWayResizePolicy(upsize_threshold=0.5, downsize_threshold=0.6)


class TestAllWayPolicy:
    def test_uniform_insertion_spreads_over_ways(self):
        table = make_contiguous_table(initial_slots=256)
        for key in range(400):
            table.insert(key, key)
        counts = [way.count for way in table.ways]
        assert max(counts) - min(counts) < 120

    def test_resize_triggered_at_total_occupancy(self):
        table = make_contiguous_table(initial_slots=16)
        # 3 ways x 16 slots = 48; threshold 0.6 -> 29 entries.
        for key in range(28):
            table.insert(key, key)
        assert not any(way.upsizes for way in table.ways)
        for key in range(28, 32):
            table.insert(key, key)
        assert all(way.upsizes == 1 for way in table.ways)


class TestPerWayPolicy:
    def test_one_way_resizes_at_a_time(self):
        table = make_chunked_table(initial_slots=16)
        upsizes_seen = []
        for key in range(60):
            table.insert(key, key)
            upsizes_seen.append(tuple(way.upsizes for way in table.ways))
        # At some point the ways had unequal upsize counts.
        assert any(len(set(counts)) > 1 for counts in upsizes_seen)

    def test_balance_rule_keeps_sizes_within_2x(self):
        table = make_chunked_table(initial_slots=16)
        for key in range(5000):
            table.insert(key, key)
            sizes = [way.size for way in table.ways]
            assert max(sizes) <= 2 * min(sizes)

    def test_weights_proportional_to_free_slots(self):
        table = make_chunked_table(initial_slots=64)
        policy = table.policy
        for key in range(30):
            table.insert(key, key)
        weights = policy.insertion_weights(table)
        frees = [way.size - way.count for way in table.ways]
        assert weights == [float(f) for f in frees]

    def test_blocked_way_gets_zero_weight(self):
        table = make_chunked_table(initial_slots=16)
        policy = table.policy
        # Make way 0 bigger and nearly full.
        table.start_resize(table.ways[0], True)
        table.drain()
        way = table.ways[0]
        way.count = int(way.size * policy.upsize_threshold) + 1
        weights = policy.insertion_weights(table)
        assert weights[0] == 0.0
        way.count = 0  # restore for teardown sanity

    def test_two_larger_ways_weighted_independently(self):
        table = make_chunked_table(initial_slots=16)
        policy = table.policy
        for way in table.ways[:2]:
            table.start_resize(way, True)
        table.drain()
        full_big, roomy_big, small = table.ways
        assert [way.size for way in table.ways] == [32, 32, 16]
        assert policy.upsize_threshold == 0.6
        # Past the threshold a larger way is blocked, the smallest is not.
        full_big.count = 20
        roomy_big.count = 1
        small.count = 10
        assert policy.insertion_weights(table) == [0.0, 31.0, 6.0]
        for way in table.ways:
            way.count = 0  # restore for teardown sanity

    def test_upsizes_balanced_long_run(self):
        table = make_chunked_table(initial_slots=16)
        for key in range(4000):
            table.insert(key, key)
        upsizes = [way.upsizes for way in table.ways]
        assert max(upsizes) - min(upsizes) <= 1

    def test_emergency_resize_grows_a_way(self):
        table = make_chunked_table(initial_slots=16)
        before = sum(way.size for way in table.ways)
        table.policy.emergency_resize(table)
        assert sum(way.size for way in table.ways) > before
