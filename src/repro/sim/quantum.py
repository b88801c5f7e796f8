"""Batched quantum engine for multi-tenant and multi-process runs.

:class:`QuantumEngine` drives the single-process fast path's
:class:`~repro.sim.fastpath.BatchedEngine` one scheduling quantum at a
time.  One engine per process holds suspendable batched state —
:class:`~repro.mmu.tlb_array.ArrayTlb` mirrors of the process's L1/L2
TLBs, a :class:`~repro.sim.fastpath.StaticThpSizer`, and a
:mod:`repro.mmu.walk_batch` Plan/Seal/Flush batcher — that survives
across context switches, so each quantum is processed as one numpy
chunk instead of one Python int at a time.

Bit-identity contract (mirrors :meth:`repro.kernel.process.Process.
run_quantum` exactly):

* Per-quantum hit levels come from the engine's offline-LRU batch
  probes; the leave-at-MRU invariant holds across quanta because
  nothing outside the process's own accesses touches its TLBs (the
  datacenter shootdown model is accounting-only).
* The per-walk NUMA charge (``machine.on_walk``) that the scalar
  :meth:`~repro.mmu.hierarchy.TlbHierarchy.translate` applies per walk
  is replicated as batched per-socket adds at each drain — exact,
  because the active socket is fixed for the whole quantum and cycle
  values are integer-valued floats below 2**53.
* On an abort raised by the fault handler the engine settles the
  prefix — pending walks flushed, counters applied through the aborting
  access, TLB contents written back as they stood before it — and the
  exception propagates with the process cursor and cycles untouched:
  the scalar loop's exact exception semantics.
* TLB mirrors are written back into the real TLB lists when the process
  finishes (or is torn down mid-run, or a datacenter run fails), so
  final TLB contents equal the scalar engine's.

The datacenter simulator shares one
:class:`~repro.mmu.walk_batch.NumaCacheBatch` across every tenant's
batcher — tenants share the machine's cache hierarchy, and per-quantum
flushing keeps the global line stream in exactly the scalar
interleaving.  The multi-process simulator gives each engine its own
private cache mirror, matching its per-process hierarchies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mmu.walk_batch import CacheBatch
from repro.sim.fastpath import BatchedEngine


class QuantumEngine(BatchedEngine):
    """One process's batched engine, run a scheduling quantum at a time."""

    def __init__(
        self,
        process,
        system,
        caches: Optional[CacheBatch] = None,
        machine=None,
    ) -> None:
        super().__init__(system, caches=caches, machine=machine)
        self.process = process
        self._finalized = False

    def run_quantum(self, quantum: int) -> float:
        """Execute up to ``quantum`` accesses; returns the cycles spent.

        Drop-in replacement for the scalar
        :meth:`~repro.kernel.process.Process.run_quantum`: updates the
        same process fields, returns the same float, raises the same
        exceptions at the same access.
        """
        process = self.process
        start = process.cursor
        end = min(start + quantum, len(process.trace))
        self.run_chunk(
            np.ascontiguousarray(process.trace[start:end], dtype=np.int64)
        )
        total = float(self.cycles.sum())
        process.accesses_done += end - start
        process.cursor = end
        process.cycles += total
        if process.cursor >= len(process.trace):
            process.finished = True
            self.finalize()
        return total

    def finalize(self) -> None:
        """Write the mirrors back once; later calls are no-ops.

        Called when the process finishes, is torn down mid-run or its
        datacenter run fails, so the real TLB lists hold exactly what
        the scalar engine leaves behind.
        """
        if not self._finalized:
            self._finalized = True
            self.write_back()
