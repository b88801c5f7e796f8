"""Shared low-level utilities for the ME-HPT reproduction.

This package holds the pieces every other subsystem relies on: size and
cycle units (:mod:`repro.common.units`), the exception hierarchy
(:mod:`repro.common.errors`), deterministic random-number helpers
(:mod:`repro.common.rng`), and the result every page-table
organization's ``map`` returns (:mod:`repro.common.mapping`).
"""

from repro.common.errors import (
    ContiguousAllocationError,
    L2POverflowError,
    MEHPTError,
    OutOfMemoryError,
    SimulationError,
    TableFullError,
    TransientAllocationError,
)
from repro.common.rng import DeterministicRng
from repro.common.units import (
    GB,
    KB,
    MB,
    PB,
    TB,
    align_down,
    align_up,
    format_bytes,
    is_power_of_two,
    log2_int,
    next_power_of_two,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "align_down",
    "align_up",
    "format_bytes",
    "is_power_of_two",
    "log2_int",
    "next_power_of_two",
    "DeterministicRng",
    "MEHPTError",
    "ContiguousAllocationError",
    "TransientAllocationError",
    "OutOfMemoryError",
    "TableFullError",
    "L2POverflowError",
    "SimulationError",
]
