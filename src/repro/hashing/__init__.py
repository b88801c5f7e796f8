"""Generic hashing substrate: hash families, storages, elastic cuckoo tables.

This package implements the hash-table machinery that both the ECPT
baseline and the ME-HPT contribution are built on, exactly as the paper
factors it (Sections II-B and IV):

* :mod:`repro.hashing.hashes` — CRC and 64-bit-mix hash families, one
  independent function per cuckoo way.
* :mod:`repro.hashing.storage` — slot storage: chunks behind an
  L2P-style chunk budget (the ME-HPT layout), where the ECPT layout is a
  way of one chunk as large as itself (one large allocation per way).
* :mod:`repro.hashing.cuckoo` — the W-way elastic cuckoo table with
  gradual resizing via rehash pointers: out of place (ECPT) or, when the
  table's ``inplace_enabled`` flag allows, in place with the
  one-extra-hash-bit rule (ME-HPT).
* :mod:`repro.hashing.policies` — when/what to resize: all-way (ECPT) or
  per-way with the balance rule and weighted-random insertion (ME-HPT).

The same machinery also backs the Section VIII generalisations in
:mod:`repro.applications` (key-value store, coherence directory).
"""

from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay, TableStats
from repro.hashing.hashes import HashFamily, crc32c, mix64
from repro.hashing.policies import AllWayResizePolicy, PerWayResizePolicy, ResizePolicy
from repro.hashing.storage import ChunkBudget, ChunkedStorage, UnlimitedChunkBudget

__all__ = [
    "HashFamily",
    "crc32c",
    "mix64",
    "ChunkedStorage",
    "ChunkBudget",
    "UnlimitedChunkBudget",
    "ElasticCuckooTable",
    "ElasticWay",
    "TableStats",
    "ResizePolicy",
    "AllWayResizePolicy",
    "PerWayResizePolicy",
]
