"""The quantum driver for multi-tenant runs.

:class:`QuantumEngine` runs one process's trace a scheduling quantum at
a time.  It owns the process cursor and holds the engine
:func:`~repro.sim.fastpath.make_engine` builds once, when the driver is
built — the same factory the single-process driver uses: a
:class:`~repro.sim.fastpath.ScalarEngine` steps the quantum access by
access on the real objects, a
:class:`~repro.sim.fastpath.BatchedEngine` resolves it as one numpy
chunk.  Batched state — :class:`~repro.mmu.tlb_array.ArrayTlb` mirrors
of the process's L1/L2 TLBs, a
:class:`~repro.sim.fastpath.StaticThpSizer`, and a
:mod:`repro.mmu.walk_batch` Plan/Seal/Flush batcher — survives across
context switches.

Bit-identity contract (the batched engine against the scalar one):

* Per-quantum hit levels come from the engine's offline-LRU batch
  probes; the leave-at-MRU invariant holds across quanta because
  nothing outside the process's own accesses touches its TLBs (the
  datacenter shootdown model is accounting-only).
* The per-walk NUMA charge (``machine.on_walk``) that the scalar
  :meth:`~repro.mmu.hierarchy.TlbHierarchy.translate` applies per walk
  is replicated as batched per-socket adds at each drain — exact,
  because the active socket is fixed for the whole quantum and cycle
  values are integer-valued floats below 2**53.
* On an abort raised by the fault handler the batched engine settles
  the prefix — pending walks flushed, counters applied through the
  aborting access, TLB contents written back as they stood before it.
  Under either engine the exception propagates with the process
  cursor, cycles and access count untouched.
* TLB mirrors are written back into the real TLB lists when the process
  finishes (or is torn down mid-run, or its datacenter run fails), so
  final TLB contents equal the scalar engine's.

The datacenter simulator shares one
:class:`~repro.mmu.walk_batch.NumaCacheBatch` across every tenant's
batcher — tenants share the machine's cache hierarchy, and per-quantum
flushing keeps the global line stream in exactly the scalar
interleaving.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mmu.walk_batch import CacheBatch
from repro.sim.fastpath import make_engine


class QuantumEngine:
    """One process's trace cursor over the engine its config picks.

    ``caches`` and ``machine`` go to
    :func:`~repro.sim.fastpath.make_engine`, which hands them only to a
    batched engine.
    """

    def __init__(
        self,
        process,
        system,
        caches: Optional[CacheBatch] = None,
        machine=None,
    ) -> None:
        self.process = process
        self.engine = make_engine(system, caches=caches, machine=machine)
        self._finalized = False

    def run_quantum(self, quantum: int) -> float:
        """Execute up to ``quantum`` accesses; returns the cycles spent.

        An abort raised by the fault handler propagates and leaves the
        process's cursor, cycles and access count unchanged.
        """
        process = self.process
        start = process.cursor
        end = min(start + quantum, len(process.trace))
        total = self.engine.run_chunk(
            np.ascontiguousarray(process.trace[start:end], dtype=np.int64)
        )
        process.accesses_done += end - start
        process.cursor = end
        process.cycles += total
        if process.cursor >= len(process.trace):
            process.finished = True
            self.finalize()
        return total

    def finalize(self) -> None:
        """Write the engine back once; later calls are no-ops.

        Called when the process finishes, is torn down mid-run or its
        datacenter run fails, so the real TLB lists hold exactly what
        the scalar engine leaves behind.
        """
        if not self._finalized:
            self._finalized = True
            self.engine.write_back()
