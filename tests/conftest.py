"""Shared fixtures for the ME-HPT reproduction test suite."""

from __future__ import annotations

import pytest

from repro.common.rng import DeterministicRng
from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay
from repro.hashing.hashes import HashFamily
from repro.hashing.policies import AllWayResizePolicy, PerWayResizePolicy
from repro.hashing.storage import ChunkedStorage, UnlimitedChunkBudget


def contiguous(slots: int, allocator=None) -> ChunkedStorage:
    """An ECPT-layout way: one chunk as large as the way."""
    return ChunkedStorage(slots, chunk_bytes=slots * 64, allocator=allocator)


def make_contiguous_table(
    ways: int = 3,
    initial_slots: int = 16,
    seed: int = 7,
    policy=None,
    allow_downsize: bool = True,
    allocator=None,
) -> ElasticCuckooTable:
    """A small ECPT-style table: contiguous ways, all-way policy."""
    family = HashFamily(seed=seed)
    way_objs = [
        ElasticWay(
            i,
            family.function(i),
            contiguous(initial_slots, allocator=allocator),
        )
        for i in range(ways)
    ]
    if policy is None:
        policy = AllWayResizePolicy(min_way_slots=initial_slots,
                                    allow_downsize=allow_downsize)
    return ElasticCuckooTable(
        way_objs,
        policy,
        lambda w, slots: contiguous(slots, allocator=allocator),
        rng=DeterministicRng(seed + 1),
        inplace_enabled=False,
    )


def make_chunked_table(
    ways: int = 3,
    initial_slots: int = 16,
    chunk_bytes: int = 1024,
    seed: int = 7,
    budget=None,
    allow_downsize: bool = True,
    allocator=None,
) -> ElasticCuckooTable:
    """A small ME-HPT-style table: chunked ways, per-way policy."""
    family = HashFamily(seed=seed)
    shared_budget = budget if budget is not None else UnlimitedChunkBudget()
    way_objs = [
        ElasticWay(
            i,
            family.function(i),
            ChunkedStorage(
                initial_slots, chunk_bytes=chunk_bytes,
                allocator=allocator, budget=shared_budget,
            ),
        )
        for i in range(ways)
    ]
    policy = PerWayResizePolicy(min_way_slots=initial_slots,
                                allow_downsize=allow_downsize)
    return ElasticCuckooTable(
        way_objs,
        policy,
        lambda w, slots: ChunkedStorage(
            slots, chunk_bytes=chunk_bytes,
            allocator=allocator, budget=shared_budget,
        ),
        rng=DeterministicRng(seed + 2),
    )


@pytest.fixture
def contiguous_table() -> ElasticCuckooTable:
    return make_contiguous_table()


@pytest.fixture
def chunked_table() -> ElasticCuckooTable:
    return make_chunked_table()
