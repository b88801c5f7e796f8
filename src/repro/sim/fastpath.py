"""The vectorized batched translation engine (the simulation fast path).

:func:`run_vectorized` replays a trace through the TLB hierarchy in
numpy chunks instead of one Python int at a time.  Per chunk it decides
— exactly, via :class:`~repro.mmu.tlb_array.ArrayTlb`'s offline LRU
computation — which accesses hit L1 (zero cycles), which hit L2, and
which are full misses.  The misses are then *batch-walked*
(:mod:`repro.mmu.walk_batch`): walk outcomes are predicted from first
touch, so predicted hits are not re-probed, and the walkers' cache-line
streams are resolved with vectorized gathers (cuckoo-way addresses,
radix node memos) per insert-separated HPT segment or drain-separated
radix segment, then probed against array mirrors of the cache
hierarchy; only accesses that mutate simulator state — demand faults,
with their kicks, resizes and allocations — run through the real fault
handler, in global trace order.  Results are
**bit-identical** to
:class:`~repro.sim.simulator.TranslationSimulator`'s scalar loop: every
``PerformanceResult`` field, every TLB/cache/walker counter, metrics
snapshots, abort/warmup accounting, and — when a trace sink is attached
— the traced event stream byte-for-byte (property-tested in
``tests/test_sim_fastpath.py`` and ``tests/test_obs_trace_equivalence.py``).

What makes exactness possible:

* Every completed access leaves its tag at the MRU position of the TLBs
  of its resolved page size, so per-chunk hit levels are a pure function
  of the VPN stream (see :mod:`repro.mmu.tlb_array`).  The same
  invariant holds for cache-hierarchy lines, which is what lets the
  batched walker mirror the caches as arrays.
* THP page-size decisions are stateless and per-2MB-region consistent
  (:meth:`~repro.kernel.thp.ThpPolicy.page_size_for` plus the VMA clip
  in :meth:`~repro.kernel.address_space.AddressSpace.handle_fault`), so
  each access's resolved size is computed up front by
  :class:`StaticThpSizer` and the chunk splits into independent per-size
  probe streams.
* Faults are the only operations that mutate page tables or CWT
  contents, and only a fault that inserts a cuckoo line moves the lines
  a walk probes (radix nodes never move), so the walk batcher resolves
  line addresses for every walk between two inserts at once; the cache
  hierarchy is touched by nothing but walks, so its probes can be
  deferred across fault boundaries and batched per chunk.
* Cycle totals are integer-valued floats below 2**53, so batched sums
  equal the scalar engine's one-by-one accumulation exactly.

Event tracing composes with this engine: the scalar engine's per-access
events (``walk_start``/``walk_end``/``tlb_miss``/``measure_start``) are
synthesized from the batch results in per-access order with the exact
scalar clock values, while fault-path events (``fault_serviced``,
kicks, resizes, chunk transitions) are emitted live by the real fault
machinery.  The synthesized emit-call sequence equals the scalar
engine's, so per-kind sampling counters, sequence numbers and therefore
the JSONL/ring-buffer output are byte-identical.

Ordering contract for invariant checks (satellite of PR 7): the scalar
engine checks invariants after every ``invariant_check_every``-th
access; this engine performs the same *set* of checks against the same
page-table states — faults are the only mutations and checks are
caught up before each fault and at chunk end — so any check that fails
in one engine fails in the other with the same ``progress`` value.  The
only divergence is *when* a failing check raises relative to hit-only
accesses between two faults: the vectorized engine may execute those
accesses (and, when tracing, emit later walks' events) before the
deferred check fires.  Counters and traces of *completed* runs are
unaffected; only the partial state observed after an uncaught
``SimulationError`` differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ContiguousAllocationError
from repro.faults.log import EVENT_ABORT
from repro.hashing.clustered import PAGE_SHIFT
from repro.hashing.hashes import mix64_array
from repro.kernel.address_space import AddressSpace
from repro.kernel.thp import PAGES_PER_2M, REGION_SHIFT
from repro.mmu.tlb_array import ArrayTlb
from repro.mmu.walk_batch import make_walk_batch
from repro.obs.trace import (
    EVENT_MEASURE_START,
    EVENT_TLB_MISS,
    EVENT_WALK_END,
    EVENT_WALK_START,
)
from repro.sim.simulator import (
    ABORT_ERRORS,
    LoopOutcome,
    check_system_invariants,
)

#: Default trace events per engine chunk.
DEFAULT_CHUNK_VALUES = 65536

_REGION_SHIFT = REGION_SHIFT


class StaticThpSizer:
    """Vectorized, exact replica of the kernel's page-size decision.

    ``ThpPolicy.page_size_for`` is a pure function of the 2MB region
    number, and ``AddressSpace.handle_fault`` clips 2MB mappings to 4KB
    unless some VMA fully covers the region — also a pure region-level
    predicate (VMAs never change mid-run and cannot overlap).  So every
    access's resolved page size is known before simulation, which is
    what lets the engine split a chunk into per-size probe streams.
    """

    def __init__(self, aspace: AddressSpace, probe_sizes: List[str]) -> None:
        thp = aspace.thp
        self.enabled = thp.enabled and thp.coverage > 0.0 and "2M" in probe_sizes
        self.seed = thp.seed
        self.coverage = thp.coverage
        self.code_2m = probe_sizes.index("2M") if self.enabled else 0
        self._vmas = [(vma.start_vpn, vma.end_vpn) for vma in aspace.vmas]

    def codes(self, chunk: np.ndarray) -> np.ndarray:
        """Per-access probe-stream codes (indices into the probe order)."""
        codes = np.zeros(chunk.size, dtype=np.int64)
        if not self.enabled:
            return codes
        regions = chunk >> np.int64(_REGION_SHIFT)
        uniq, inverse = np.unique(regions, return_inverse=True)
        # The policy's deterministic per-region coin, bit-exactly.
        draw = (mix64_array(uniq, self.seed) >> np.uint64(11)).astype(
            np.float64
        ) / float(1 << 53)
        backed = draw < self.coverage
        base = uniq << np.int64(_REGION_SHIFT)
        covered = np.zeros(uniq.size, dtype=bool)
        for start, end in self._vmas:
            covered |= (base >= start) & (base + PAGES_PER_2M <= end)
        codes[(backed & covered)[inverse]] = self.code_2m
        return codes


def _apply_counters(
    tlb, sizes: List[str], level: np.ndarray, stream: np.ndarray
) -> None:
    """Add one (possibly partial) chunk's TLB counters, exactly.

    ``level`` holds each access's resolution (0 = L1 hit, 1 = L2 hit,
    2 = walk, 3 = fault) and ``stream`` its page-size probe code.  The
    scalar probe cascade determines which TLBs each access touched: an
    access resolving at level L in stream s probes every earlier-order
    TLB of its resolving level (misses) and all TLBs of lower levels.
    """
    nsizes = len(sizes)
    joint = np.bincount(
        level.astype(np.int64) * nsizes + stream, minlength=4 * nsizes
    ).reshape(4, nsizes)
    per_level = joint.sum(axis=1)
    n = int(level.size)
    ge1 = n - int(per_level[0])
    ge2 = int(per_level[2] + per_level[3])
    for order, size in enumerate(sizes):
        l1 = tlb.l1[size]
        l2 = tlb.l2[size]
        l1.hits += int(joint[0, order])
        l1.misses += int(joint[0, order + 1:].sum()) + ge1
        l2.hits += int(joint[1, order])
        l2.misses += int(joint[1, order + 1:].sum()) + ge2
    tlb.translations += n
    tlb.l1_hits += int(per_level[0])
    tlb.l2_hits += int(per_level[1])
    tlb.walks += ge2
    tlb.faults += int(per_level[3])


def run_vectorized(
    system,
    workload,
    trace_length: int,
    warmup_events: int,
    chunk_values: Optional[int] = None,
) -> LoopOutcome:
    """Run the trace through ``system`` with the batched engine.

    Mirrors the scalar loop of
    :meth:`~repro.sim.simulator.TranslationSimulator.run` exactly —
    counters, cycles, warmup snapshot, abort accounting, invariant
    checks and traced events — and returns the same :class:`LoopOutcome`.
    """
    tlb = system.tlb
    aspace = system.address_space
    config = system.config
    obs = system.obs
    tracer_on = obs is not None and obs.tracer is not None
    sizes = list(tlb.l1.keys())
    sizer = StaticThpSizer(aspace, sizes)
    shifts = [PAGE_SHIFT[size] for size in sizes]
    l2_hit_cycles = [tlb.l2[size].hit_cycles for size in sizes]
    l2_probe_cycles = tlb.l2_miss_probe_cycles
    l1_arr: Dict[str, ArrayTlb] = {
        size: ArrayTlb.from_tlb(t) for size, t in tlb.l1.items()
    }
    l2_arr: Dict[str, ArrayTlb] = {
        size: ArrayTlb.from_tlb(t) for size, t in tlb.l2.items()
    }
    batcher = make_walk_batch(system, sizes)
    walk_fn = system.walker.walk
    fault_fn = aspace.handle_fault
    check_every = config.invariant_check_every
    next_check = check_every
    boundary = warmup_events - 1  # global index completing the warmup
    warm_taken = warmup_events == 0
    # When warmup_events == 0 the simulator emits measure_start itself.
    measure_emitted = (not tracer_on) or warmup_events == 0

    outcome = LoopOutcome()
    base = 0
    for chunk in workload.trace_chunks(
        trace_length, chunk_values or DEFAULT_CHUNK_VALUES
    ):
        n = int(chunk.size)
        before_cycles = outcome.total_cycles
        before = (tlb.l1_hits, tlb.l2_hits, tlb.walks, tlb.faults)
        stream = sizer.codes(chunk)
        level = np.zeros(n, dtype=np.int8)
        cycles = np.zeros(n, dtype=np.int64)
        for code, size in enumerate(sizes):
            if sizer.enabled:
                idx = np.flatnonzero(stream == code)
            elif code == 0:
                idx = np.arange(n, dtype=np.int64)  # all accesses are 4K
            else:
                break
            if idx.size == 0:
                continue
            numbers = chunk[idx] >> np.int64(shifts[code])
            l1_hit = l1_arr[size].batch_probe(numbers)
            l1_miss = idx[~l1_hit]
            l2_hit = l2_arr[size].batch_probe(numbers[~l1_hit])
            hit2 = l1_miss[l2_hit]
            level[hit2] = 1
            cycles[hit2] = l2_hit_cycles[code]
            level[l1_miss[~l2_hit]] = 2

        def _warm_snapshot(prefix: int) -> None:
            """Record the warmup boundary from this chunk's prefix."""
            outcome.warm_cycles = before_cycles + float(cycles[:prefix].sum())
            outcome.warm_l1 = before[0] + int((level[:prefix] == 0).sum())
            outcome.warm_l2 = before[1] + int((level[:prefix] == 1).sum())
            outcome.warm_walks = before[2] + int((level[:prefix] >= 2).sum())
            outcome.warm_faults = before[3] + int((level[:prefix] == 3).sum())

        # -- traced-mode clock / event synthesis -------------------------
        # Events of access i carry the clock at the access's start: the
        # cumulative translation cycles through access i-1, exactly as
        # the scalar loop stamps them.  ``emit_state`` tracks how far
        # the per-access cycle prefix sum has been folded in; cycles of
        # batched walks are final before any event referencing them is
        # emitted (the flush scatters them first).
        boundary_local = boundary - base
        emit_state = [0, 0.0]  # [accesses folded into the sum, their sum]

        def _clock_before(local: int) -> int:
            if local > emit_state[0]:
                emit_state[1] += float(cycles[emit_state[0]:local].sum())
                emit_state[0] = local
            return int(before_cycles + emit_state[1])

        def _measure_before(local: int) -> None:
            # The scalar loop emits measure_start right after the
            # warmup-completing access; replicate it before emitting any
            # later access's events (hit-only accesses emit nothing, so
            # this preserves the exact event sequence).
            nonlocal measure_emitted
            if not measure_emitted and boundary_local < local:
                obs.advance_clock(_clock_before(boundary_local + 1))
                obs.emit(EVENT_MEASURE_START, event=warmup_events)
                measure_emitted = True

        def _emit_walk(local, walk_id, vpn, walk_cycles, accesses, is_fault):
            _measure_before(local)
            obs.advance_clock(_clock_before(local))
            obs.emit(EVENT_WALK_START, walk=walk_id, vpn=vpn)
            obs.emit(
                EVENT_WALK_END, walk=walk_id, cycles=walk_cycles,
                accesses=accesses,
            )
            obs.emit(
                EVENT_TLB_MISS, vpn=vpn,
                level="fault" if is_fault else "walk",
                cycles=l2_probe_cycles + walk_cycles,
            )

        def _drain() -> None:
            """Probe pending batched walks; scatter cycles, emit events."""
            if batcher is None:
                return
            result = batcher.flush()
            if result is None:
                return
            cycles[result.locals_] = l2_probe_cycles + result.cycles
            if tracer_on:
                for j in range(result.locals_.size):
                    _emit_walk(
                        int(result.locals_[j]), result.walk_ids[j],
                        result.vpns[j], int(result.cycles[j]),
                        int(result.accesses[j]), result.faults[j],
                    )

        aborted_at = -1
        try:
            misses = np.flatnonzero(level >= 2)
            for local, vpn, code in zip(
                misses.tolist(), chunk[misses].tolist(), stream[misses].tolist()
            ):
                index = base + local
                while next_check and next_check < index:
                    check_system_invariants(system, next_check)
                    next_check += check_every
                aborted_at = local
                if batcher is not None:
                    if batcher.plan(local, vpn, code):
                        # Demand fault, run through the real handler in
                        # trace order.  The batcher seals its pending
                        # walks first only if the fault inserts a cuckoo
                        # line (radix walks seal at drain); traced runs
                        # drain so fault-path events land at the right
                        # clock.
                        if tracer_on:
                            _drain()
                        else:
                            batcher.before_fault()
                        level[local] = 3
                        fault = fault_fn(vpn)
                        batcher.after_fault()
                        assert fault.page_size == sizes[code], (
                            "static page-size prediction diverged from the kernel"
                        )
                else:
                    # No batched implementation for this walker/cache
                    # geometry: scalar walker per miss, still exact.
                    if tracer_on:
                        _measure_before(local)
                        obs.advance_clock(_clock_before(local))
                    walk = walk_fn(vpn)
                    cycles[local] = l2_probe_cycles + walk.cycles
                    if tracer_on:
                        obs.emit(
                            EVENT_TLB_MISS, vpn=vpn,
                            level="fault" if walk.fault else "walk",
                            cycles=int(l2_probe_cycles + walk.cycles),
                        )
                    if walk.fault:
                        level[local] = 3
                        fault = fault_fn(vpn)
                        assert fault.page_size == sizes[code], (
                            "static page-size prediction diverged from the kernel"
                        )
                    elif walk.page_size is not None:
                        assert walk.page_size == sizes[code], (
                            "static page-size prediction diverged from the walker"
                        )
                if next_check and next_check == index:
                    check_system_invariants(system, index)
                    next_check += check_every
            _drain()
            while next_check and next_check <= base + n - 1:
                check_system_invariants(system, next_check)
                next_check += check_every
        except ABORT_ERRORS as exc:
            outcome.failed = True
            outcome.reason = str(exc)
            if not isinstance(exc, ContiguousAllocationError):
                system.degradation.record(
                    EVENT_ABORT, "trace", error=type(exc).__name__,
                )
            # Finalize the pending batched walks (all planned at or
            # before the aborting access) so their cycles and cache
            # counters are exact.  In traced mode this is a no-op: the
            # drain already ran before the fault handler raised.
            _drain()
            done = aborted_at + 1  # aborting access counted, not completed
            outcome.events_done = base + aborted_at
            _apply_counters(tlb, sizes, level[:done], stream[:done])
            outcome.total_cycles += float(cycles[:done].sum())
            # The aborting access never *completes* (the scalar loop's
            # events_done stops just before it), so the warmup window is
            # only closed when the boundary access lies strictly before
            # it — `boundary < base + aborted_at` is events_done-based,
            # intentionally one tighter than the clean path's
            # `boundary < base + n`.  An abort exactly at the boundary
            # leaves the run inside warmup, as in the scalar engine.
            if not warm_taken and boundary < base + aborted_at:
                _warm_snapshot(boundary - base + 1)
                warm_taken = True
            if batcher is not None:
                batcher.caches.write_back()
            return outcome

        _apply_counters(tlb, sizes, level, stream)
        outcome.total_cycles += float(cycles.sum())
        if not warm_taken and boundary < base + n:
            _warm_snapshot(boundary - base + 1)
            warm_taken = True
        if tracer_on:
            # measure_start for a warmup boundary inside a hit-only
            # chunk tail, then the scalar loop's end-of-access clock.
            _measure_before(n)
            obs.advance_clock(int(outcome.total_cycles))
        base += n
        outcome.events_done = base

    # Clean completion: the array states are the TLB contents after the
    # last access — install them so post-run inspection (and equivalence
    # tests) see exactly what the scalar engine leaves behind.  After an
    # abort the arrays hold full-chunk (future) state, so they are
    # deliberately not written back; aborted runs' TLB *contents* are
    # unspecified, their counters exact.  (The cache mirrors *are*
    # written back on abort: they only ever advance walk by walk.)
    for size in sizes:
        l1_arr[size].write_back(tlb.l1[size])
        l2_arr[size].write_back(tlb.l2[size])
    if batcher is not None:
        batcher.caches.write_back()
    return outcome
