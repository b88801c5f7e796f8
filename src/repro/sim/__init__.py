"""Trace-driven address-translation simulation.

* :mod:`repro.sim.config` — the Table III machine parameters and the
  factory that assembles a system (page tables + walker + TLBs + kernel)
  for any organization at any footprint scale.
* :mod:`repro.sim.organizations` — one object per page-table
  organization, owning every decision that depends on which one a run
  uses.
* :mod:`repro.sim.simulator` — the trace simulator and the footprint
  populator used by the memory experiments.
* :mod:`repro.sim.fastpath` — the scalar reference engine, the
  vectorized batched engine (bit-identical results, selected via
  ``SimulationConfig.engine``) and the single-process driver for both.
* :mod:`repro.sim.quantum` — the quantum driver the multi-process and
  datacenter schedulers run each process's trace through.
* :mod:`repro.sim.results` — result containers, the differential
  performance model (cycles per access), and speedup computation.
"""

from repro.sim.config import SimulationConfig, SimulatedSystem, table3_parameters
from repro.sim.results import MemoryFootprintResult, PerformanceResult
from repro.sim.simulator import TranslationSimulator, populate_tables

__all__ = [
    "SimulationConfig",
    "SimulatedSystem",
    "table3_parameters",
    "TranslationSimulator",
    "populate_tables",
    "MemoryFootprintResult",
    "PerformanceResult",
]
