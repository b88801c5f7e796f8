"""Property-based tests: the elastic cuckoo table against a dict model.

Hypothesis drives random operation sequences (insert/update/delete and
explicit resize triggers) against both table flavours and checks that
the table always agrees with a plain dict and that its internal
invariants hold — including *during* gradual resizes, which is where the
rehash-pointer index math could go wrong.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.conftest import make_chunked_table, make_contiguous_table

KEYS = st.integers(min_value=0, max_value=400)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.tuples(st.sampled_from(["put", "del"]), KEYS), max_size=300))
@pytest.mark.parametrize("maker", [make_contiguous_table, make_chunked_table])
def test_matches_dict_model(maker, ops):
    table = maker(initial_slots=16)
    model = {}
    for op, key in ops:
        if op == "put":
            table.insert(key, key * 31)
            model[key] = key * 31
        else:
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        assert len(table) == len(model)
    for key, value in model.items():
        assert table.lookup(key) == value
    for key in range(401):
        if key not in model:
            assert table.lookup(key) is None
    table.check_invariants()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=1, max_value=800), seed=st.integers(0, 10))
@pytest.mark.parametrize("maker", [make_contiguous_table, make_chunked_table])
def test_bulk_insert_then_full_scan(maker, n, seed):
    table = maker(initial_slots=16, seed=seed)
    for key in range(n):
        table.insert(key, key)
    assert len(table) == n
    assert dict(table.items()) == {k: k for k in range(n)}
    table.check_invariants()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=50, max_value=600))
def test_drain_preserves_contents(n):
    table = make_chunked_table(initial_slots=16)
    for key in range(n):
        table.insert(key, -key)
    table.drain()
    assert not table.resizing()
    assert dict(table.items()) == {k: -k for k in range(n)}
    table.check_invariants()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=100, max_value=500),
       keep_every=st.integers(min_value=2, max_value=7))
def test_grow_then_shrink_cycle(n, keep_every):
    """Insert a lot, delete most, and verify survivors after downsizing."""
    table = make_chunked_table(initial_slots=16)
    for key in range(n):
        table.insert(key, key)
    survivors = {}
    for key in range(n):
        if key % keep_every == 0:
            survivors[key] = key
        else:
            table.delete(key)
    table.drain()
    assert dict(table.items()) == survivors
    table.check_invariants()


class CuckooMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary interleavings of operations and rehash work."""

    def __init__(self):
        super().__init__()
        self.table = make_chunked_table(initial_slots=16)
        self.model = {}

    @rule(key=KEYS, value=st.integers())
    def put(self, key, value):
        self.table.insert(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def drop(self, key):
        assert self.table.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def read(self, key):
        assert self.table.lookup(key) == self.model.get(key)

    @rule()
    def rehash_step(self):
        self.table.maintenance(steps=1)

    @rule()
    def drain_all(self):
        self.table.drain()

    @invariant()
    def count_matches(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def probes_reach_every_key(self):
        # ``read`` answers from the key index; this finds every stored key
        # through its ways' real probes, mid-resize included.
        self.table.check_invariants()


TestCuckooMachine = CuckooMachine.TestCase
TestCuckooMachine.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
