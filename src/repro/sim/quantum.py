"""Vectorized quantum engine for multi-tenant and multi-process runs.

:class:`QuantumEngine` is the scheduler-friendly sibling of
:func:`repro.sim.fastpath.run_vectorized`: one engine per process holds
suspendable vectorized state — :class:`~repro.mmu.tlb_array.ArrayTlb`
mirrors of the process's L1/L2 TLBs, a
:class:`~repro.sim.fastpath.StaticThpSizer`, and a
:mod:`repro.mmu.walk_batch` Plan/Seal/Flush batcher — that survives
across context switches, so each scheduling quantum is processed as one
numpy chunk instead of one Python int at a time.

Bit-identity contract (mirrors :meth:`repro.kernel.process.Process.
run_quantum` exactly):

* Per-quantum hit levels come from the same offline-LRU batch probes as
  the single-process fast path; the leave-at-MRU invariant holds across
  quanta because nothing outside the process's own accesses touches its
  TLBs (the datacenter shootdown model is accounting-only).
* Misses are planned in trace order against the real walker state and
  sealed per insert-separated HPT segment or drain-separated radix
  segment, with predicted hits not re-probed; only demand faults run
  the real kernel fault path.  The per-walk NUMA
  charge (``machine.on_walk``) that the scalar
  :meth:`~repro.mmu.hierarchy.TlbHierarchy.translate` applies per walk
  is replicated as batched per-socket adds at flush — exact, because the
  active socket is fixed for the whole quantum and cycle values are
  integer-valued floats below 2**53.
* On an abort raised by the fault handler, pending walks are flushed
  (their translate() completed in the scalar loop before the fault
  raised) and counters are applied for the prefix through the aborting
  access, but the process cursor/cycles are left untouched — exactly
  the scalar loop's exception semantics.
* TLB mirrors are written back into the real TLB lists when the process
  finishes (or is torn down mid-run), so final TLB contents equal the
  scalar engine's.  Aborted runs' TLB contents are unspecified in both
  engines; their counters are exact.

The datacenter simulator shares one
:class:`~repro.mmu.walk_batch.NumaCacheBatch` across every tenant's
batcher — tenants share the machine's cache hierarchy, and per-quantum
flushing keeps the global line stream in exactly the scalar
interleaving.  The multi-process simulator gives each engine its own
private cache mirror, matching its per-process hierarchies.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.hashing.clustered import PAGE_SHIFT
from repro.mmu.tlb_array import ArrayTlb
from repro.mmu.walk_batch import CacheBatch, make_walk_batch


class QuantumEngine:
    """Suspendable vectorized execution state for one process."""

    def __init__(
        self,
        process,
        system,
        caches: Optional[CacheBatch] = None,
        machine=None,
    ) -> None:
        # Lazy: repro.sim.fastpath pulls in repro.sim.simulator, which
        # would close an import cycle through repro.sim.results when
        # this module is loaded by the datacenter package.
        from repro.sim.fastpath import StaticThpSizer, _apply_counters

        self._apply_counters = _apply_counters
        tlb = system.tlb
        self.process = process
        self.system = system
        #: NUMA accounting hook (the datacenter machine) or None.
        self.machine = machine
        self.sizes = list(tlb.l1.keys())
        self.sizer = StaticThpSizer(system.address_space, self.sizes)
        self._shifts = [PAGE_SHIFT[size] for size in self.sizes]
        self._l2_hit_cycles = [tlb.l2[size].hit_cycles for size in self.sizes]
        self._l2_probe_cycles = tlb.l2_miss_probe_cycles
        self.l1_arr: Dict[str, ArrayTlb] = {
            size: ArrayTlb.from_tlb(t) for size, t in tlb.l1.items()
        }
        self.l2_arr: Dict[str, ArrayTlb] = {
            size: ArrayTlb.from_tlb(t) for size, t in tlb.l2.items()
        }
        self._owns_caches = caches is None
        self.batcher = make_walk_batch(system, self.sizes, caches=caches)
        #: False when the walker/cache geometry has no batched
        #: implementation; the caller must then run scalar quanta.
        self.supported = self.batcher is not None
        self._finalized = False

    def run_quantum(self, quantum: int) -> float:
        """Execute up to ``quantum`` accesses; returns the cycles spent.

        Drop-in replacement for the scalar
        :meth:`~repro.kernel.process.Process.run_quantum`: updates the
        same process fields, returns the same float, raises the same
        exceptions at the same access.
        """
        process = self.process
        trace = process.trace
        start = process.cursor
        end = min(start + quantum, len(trace))
        n = end - start
        sizes = self.sizes
        chunk = np.ascontiguousarray(trace[start:end], dtype=np.int64)
        stream = self.sizer.codes(chunk)
        level = np.zeros(n, dtype=np.int8)
        cycles = np.zeros(n, dtype=np.int64)
        for code, size in enumerate(sizes):
            if self.sizer.enabled:
                idx = np.flatnonzero(stream == code)
            elif code == 0:
                idx = np.arange(n, dtype=np.int64)  # all accesses are 4K
            else:
                break
            if idx.size == 0:
                continue
            numbers = chunk[idx] >> np.int64(self._shifts[code])
            l1_hit = self.l1_arr[size].batch_probe(numbers)
            l1_miss = idx[~l1_hit]
            l2_hit = self.l2_arr[size].batch_probe(numbers[~l1_hit])
            hit2 = l1_miss[l2_hit]
            level[hit2] = 1
            cycles[hit2] = self._l2_hit_cycles[code]
            level[l1_miss[~l2_hit]] = 2

        batcher = self.batcher
        fault_fn = process.address_space.handle_fault
        tlb = self.system.tlb
        aborted_at = -1
        try:
            misses = np.flatnonzero(level >= 2)
            for local, vpn, code in zip(
                misses.tolist(), chunk[misses].tolist(), stream[misses].tolist()
            ):
                aborted_at = local
                if batcher.plan(local, vpn, code):
                    # Demand fault: the batcher seals its pending walks
                    # only if the fault inserts a cuckoo line, then the
                    # real fault handler runs in trace order.
                    batcher.before_fault()
                    level[local] = 3
                    fault = fault_fn(vpn)
                    batcher.after_fault()
                    assert fault.page_size == sizes[code], (
                        "static page-size prediction diverged from the kernel"
                    )
        except Exception:
            # The aborting access's translate() completed in the scalar
            # loop (walk charged, counters bumped) before the fault
            # handler raised; cursor/cycles never advance.
            self._drain(cycles)
            done = aborted_at + 1
            self._apply_counters(tlb, sizes, level[:done], stream[:done])
            if self._owns_caches:
                batcher.caches.write_back()
            raise
        self._drain(cycles)
        self._apply_counters(tlb, sizes, level, stream)
        total = float(cycles.sum())
        process.accesses_done += n
        process.cursor = end
        process.cycles += total
        if process.cursor >= len(trace):
            process.finished = True
            self.finalize()
        return total

    def _drain(self, cycles: np.ndarray) -> None:
        """Flush pending walks: scatter cycles, charge the NUMA hook."""
        result = self.batcher.flush()
        if result is None:
            return
        cycles[result.locals_] = self._l2_probe_cycles + result.cycles
        machine = self.machine
        if machine is not None:
            # Replicates translate()'s per-walk on_walk(walk.cycles):
            # the active socket is fixed for the whole quantum and walk
            # cycles are integer-valued, so the batched sum is exact.
            socket = machine.active_socket
            machine.walks_by_socket[socket] += int(result.locals_.size)
            machine.walk_cycles_by_socket[socket] += float(result.cycles.sum())

    def finalize(self) -> None:
        """Write TLB mirrors (and an owned cache mirror) back; idempotent.

        Called when the process finishes or is torn down mid-run so the
        real TLB lists hold exactly what the scalar engine leaves
        behind.  A shared cache mirror is written back by its owner (the
        datacenter simulator) instead.
        """
        if self._finalized:
            return
        self._finalized = True
        tlb = self.system.tlb
        for size in self.sizes:
            self.l1_arr[size].write_back(tlb.l1[size])
            self.l2_arr[size].write_back(tlb.l2[size])
        if self._owns_caches and self.batcher is not None:
            self.batcher.caches.write_back()
