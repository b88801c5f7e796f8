"""The translation engines: one scalar step, one batched fast path.

:class:`ScalarEngine` is the per-access reference: translate, service a
demand fault, fill the TLBs, one Python int at a time on the real
objects.  It is the oracle every other path is checked against.

:class:`BatchedEngine` resolves one process's accesses through its TLB
hierarchy in numpy chunks instead of one Python int at a time.  Per
chunk it decides — exactly, via :class:`~repro.mmu.tlb_array.ArrayTlb`'s
offline LRU computation — which accesses hit L1 (zero cycles), which
hit L2, and which are full misses.  The misses are then *batch-walked*
(:mod:`repro.mmu.walk_batch`): walk outcomes are predicted from first
touch, so predicted hits are not re-probed, and the walkers' cache-line
streams are resolved with vectorized gathers (cuckoo-way addresses,
radix node memos) per insert-separated HPT segment or drain-separated
radix segment, then probed against array mirrors of the cache
hierarchy; only accesses that mutate simulator state — demand faults,
with their kicks, resizes and allocations — run through the real fault
handler, in global trace order.

Both engines expose ``run_chunk(chunk) -> cycles`` and ``write_back()``,
so :class:`~repro.sim.quantum.QuantumEngine` drives either one a
scheduling quantum per call.  Single-process runs drive them through
their own loops, which add the warmup snapshot, the invariant-check
cadence, tracing and abort recording:
:meth:`~repro.sim.simulator.TranslationSimulator._scalar_loop` steps
the scalar engine per access, and :func:`run_vectorized` streams the
trace through the batched engine chunk by chunk.  Batched results are
**bit-identical** to the scalar engine's: every result field,
every TLB/cache/walker counter, final TLB contents, metrics snapshots,
abort/warmup accounting, and — when a trace sink is attached — the
traced event stream byte-for-byte (property-tested in
``tests/test_sim_fastpath.py``, ``tests/test_sim_quantum.py`` and
``tests/test_obs_trace_equivalence.py``).

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
* An access aborted by the fault handler has only looked its TLBs up,
  and a lookup miss changes no LRU state, so the TLB contents after an
  abort are those after the completed prefix: the engine rewinds its
  mirrors to the chunk start and re-probes the prefix.

Event tracing composes with this engine: the scalar engine's per-access
events (``walk_start``/``walk_end``/``tlb_miss``/``measure_start``) are
synthesized from the batch results in per-access order with the exact
scalar clock values, while fault-path events (``fault_serviced``,
kicks, resizes, chunk transitions) are emitted live by the real fault
machinery.  The synthesized emit-call sequence equals the scalar
engine's, so per-kind sampling counters, sequence numbers and therefore
the JSONL/ring-buffer output are byte-identical.

Ordering contract for invariant checks: the scalar engine checks
invariants after every ``invariant_check_every``-th access; this engine
performs the same *set* of checks against the same page-table states —
faults are the only mutations and checks are caught up around each
miss and at chunk end — so any check that fails in one engine fails in
the other with the same ``progress`` value.  The only divergence is
*when* a failing check raises relative to hit-only accesses between two
faults: the vectorized engine may execute those accesses (and, when
tracing, emit later walks' events) before the deferred check fires.
Counters and traces of *completed* runs are unaffected; only the
partial state observed after an uncaught ``SimulationError`` differs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.common.errors import MEHPTError
from repro.hashing.clustered import PAGE_SHIFT
from repro.hashing.hashes import mix64_array
from repro.kernel.address_space import AddressSpace
from repro.kernel.thp import PAGES_PER_2M, REGION_SHIFT
from repro.mmu.tlb_array import ArrayTlb
from repro.mmu.walk_batch import CacheBatch, WalkFlush, make_walk_batch
from repro.obs.trace import (
    EVENT_MEASURE_START,
    EVENT_TLB_MISS,
    EVENT_WALK_END,
    EVENT_WALK_START,
)

#: Default trace events per engine chunk.
DEFAULT_CHUNK_VALUES = 65536


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
        regions = chunk >> np.int64(REGION_SHIFT)
        uniq, inverse = np.unique(regions, return_inverse=True)
        # The policy's deterministic per-region coin, bit-exactly.
        draw = (mix64_array(uniq, self.seed) >> np.uint64(11)).astype(
            np.float64
        ) / float(1 << 53)
        backed = draw < self.coverage
        base = uniq << np.int64(REGION_SHIFT)
        covered = np.zeros(uniq.size, dtype=bool)
        for start, end in self._vmas:
            covered |= (base >= start) & (base + PAGES_PER_2M <= end)
        codes[(backed & covered)[inverse]] = self.code_2m
        return codes


class ScalarEngine:
    """The per-access reference step over the real TLBs and tables.

    :meth:`step` is the only place the translate → fault → fill
    sequence is written.  It works on the real objects, so
    :meth:`write_back` has nothing to install.
    """

    def __init__(self, system) -> None:
        tlb = system.tlb
        self._translate = tlb.translate
        self._fill = tlb.fill
        self._fault = system.address_space.handle_fault
        #: Translation cycles of every access stepped so far.  An access
        #: is charged before its fault runs, so an aborting one counts.
        self.cycles = 0.0

    def step(self, vpn: int) -> None:
        """Translate ``vpn``; on a fault, service it and fill the TLBs.

        ``fill`` shifts the VPN by the page size, so a 2MB fill of any
        VPN installs its region's entry.
        """
        outcome = self._translate(vpn)
        self.cycles += outcome.cycles
        if outcome.level == "fault":
            self._fill(vpn, self._fault(vpn).page_size)

    def run_chunk(self, chunk: np.ndarray) -> float:
        """Step through ``chunk``; returns its translation cycles."""
        start = self.cycles
        step = self.step
        # One bulk numpy->int conversion per chunk; the loop then runs
        # on plain ints.
        for vpn in chunk.tolist():
            step(vpn)
        return self.cycles - start

    def write_back(self) -> None:
        """Nothing to install: every step updated the real TLBs."""


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


class BatchedEngine:
    """Suspendable batched translation state for one process.

    Holds :class:`~repro.mmu.tlb_array.ArrayTlb` mirrors of the
    process's L1/L2 TLBs, its :class:`StaticThpSizer`, its walk batcher
    and an optional NUMA hook.  The state survives between
    :meth:`run_chunk` calls, so a chunk can be a slice of a streamed
    trace or one scheduling quantum.

    ``caches`` shares one cache mirror across several engines (the
    datacenter's :class:`~repro.mmu.walk_batch.NumaCacheBatch`, written
    back by its owner); by default the engine owns a private one.
    ``machine`` is the datacenter machine whose per-socket walk counters
    each drain charges, or None.
    """

    def __init__(
        self, system, caches: Optional[CacheBatch] = None, machine=None
    ) -> None:
        tlb = system.tlb
        self.system = system
        self.machine = machine
        self.sizes = list(tlb.l1.keys())
        self.sizer = StaticThpSizer(system.address_space, self.sizes)
        self.l2_probe_cycles = tlb.l2_miss_probe_cycles
        self._shifts = [PAGE_SHIFT[size] for size in self.sizes]
        self._l2_hit_cycles = [tlb.l2[size].hit_cycles for size in self.sizes]
        self.l1_arr = {size: ArrayTlb.from_tlb(t) for size, t in tlb.l1.items()}
        self.l2_arr = {size: ArrayTlb.from_tlb(t) for size, t in tlb.l2.items()}
        self._owns_caches = caches is None
        self.batcher = make_walk_batch(system, self.sizes, caches=caches)
        #: The last chunk's per-access resolutions (0 = L1 hit, 1 = L2
        #: hit, 2 = walk, 3 = fault) and cycles, and the chunk index of
        #: the access that aborted it (-1 = none).
        self.level = self.cycles = None
        self.aborted_at = -1

    def _probe(self, chunk: np.ndarray, stream: np.ndarray):
        """Run ``chunk`` through the per-size L1/L2 mirrors.

        Returns each access's resolution level and cycles so far (L2
        hits only; walks are charged at drain).
        """
        n = int(chunk.size)
        level = np.zeros(n, dtype=np.int8)
        cycles = np.zeros(n, dtype=np.int64)
        for code, size in enumerate(self.sizes):
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
        return level, cycles

    def run_chunk(
        self,
        chunk: np.ndarray,
        around_miss: Optional[Callable[[int], None]] = None,
        on_flush: Optional[Callable[[WalkFlush], None]] = None,
    ) -> float:
        """Resolve ``chunk`` exactly as the scalar engine would.

        The misses are planned in trace order.  Before a planned fault
        the batcher seals its pending walks if the fault inserts a
        cuckoo line; then the real fault handler runs.  Pending walks
        are drained at the end and the chunk's TLB counters applied;
        :attr:`level` and :attr:`cycles` hold the per-access results
        and their sum is returned.

        ``around_miss(local)`` runs before each miss and
        ``around_miss(local + 1)`` after it (the invariant cadence).
        With ``on_flush`` every drain passes its
        :class:`~repro.mmu.walk_batch.WalkFlush` to it, and pending
        walks are drained before every fault instead of sealed, so
        traced fault-path events land at the right clock.

        If the fault handler (or a hook) raises a model error, the
        prefix is settled before it propagates: pending walks are
        drained, counters cover the accesses through :attr:`aborted_at`
        (whose lookups all missed), and the TLB mirrors are rewound to
        the chunk start, re-probed with the completed accesses and
        written back.
        """
        stream = self.sizer.codes(chunk)
        mirrors = [*self.l1_arr.values(), *self.l2_arr.values()]
        saved = [(arr.tags.copy(), arr.ages.copy()) for arr in mirrors]
        level, cycles = self._probe(chunk, stream)
        self.level, self.cycles = level, cycles
        self.aborted_at = -1
        batcher = self.batcher
        sizes = self.sizes
        fault_fn = self.system.address_space.handle_fault
        counted = int(chunk.size)
        local = -1
        try:
            misses = np.flatnonzero(level >= 2)
            for local, vpn, code in zip(
                misses.tolist(), chunk[misses].tolist(), stream[misses].tolist()
            ):
                if around_miss is not None:
                    around_miss(local)
                if batcher.plan(local, vpn, code):
                    if on_flush is None:
                        batcher.before_fault()
                    else:
                        self._drain(on_flush)
                    level[local] = 3
                    fault = fault_fn(vpn)
                    batcher.after_fault()
                    assert fault.page_size == sizes[code], (
                        "static page-size prediction diverged from the kernel"
                    )
                if around_miss is not None:
                    around_miss(local + 1)
            self._drain(on_flush)
            return float(cycles.sum())
        except MEHPTError:
            self.aborted_at = local
            counted = local + 1
            self._drain(on_flush)
            for arr, (tags, ages) in zip(mirrors, saved):
                arr.tags, arr.ages = tags, ages
            self._probe(chunk[:local], stream[:local])
            self.write_back()
            raise
        finally:
            _apply_counters(
                self.system.tlb, sizes, level[:counted], stream[:counted]
            )

    def _drain(self, on_flush) -> None:
        """Flush pending walks: scatter cycles, charge the NUMA hook."""
        result = self.batcher.flush()
        if result is None:
            return
        self.cycles[result.locals_] = self.l2_probe_cycles + result.cycles
        machine = self.machine
        if machine is not None:
            # Replicates translate()'s per-walk on_walk(walk.cycles):
            # the active socket is fixed for the whole chunk and walk
            # cycles are integer-valued, so the batched sum is exact.
            socket = machine.active_socket
            machine.walks_by_socket[socket] += int(result.locals_.size)
            machine.walk_cycles_by_socket[socket] += float(result.cycles.sum())
        if on_flush is not None:
            on_flush(result)

    def write_back(self) -> None:
        """Install the TLB mirrors (and an owned cache mirror) for real."""
        tlb = self.system.tlb
        for size in self.sizes:
            self.l1_arr[size].write_back(tlb.l1[size])
            self.l2_arr[size].write_back(tlb.l2[size])
        if self._owns_caches:
            self.batcher.caches.write_back()


def run_vectorized(
    system,
    workload,
    trace_length: int,
    warmup_events: int,
    chunk_values: Optional[int] = None,
):
    """Run the trace through ``system`` with the batched engine.

    Mirrors the scalar loop of
    :meth:`~repro.sim.simulator.TranslationSimulator.run` exactly —
    counters, cycles, warmup snapshot, abort accounting, invariant
    checks, traced events and final TLB contents — and returns the same
    :class:`~repro.sim.simulator.LoopOutcome`.
    """
    # Lazy: repro.sim.simulator imports repro.sim.results, whose
    # datacenter results pull in repro.sim.quantum and so this module.
    from repro.sim.simulator import (
        ABORT_ERRORS,
        LoopOutcome,
        check_system_invariants,
        record_abort,
    )

    engine = BatchedEngine(system)
    tlb = system.tlb
    obs = system.obs
    tracer_on = obs is not None and obs.tracer is not None
    check_every = system.config.invariant_check_every
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

        def _warm_snapshot(prefix: int) -> None:
            """Record the warmup boundary from this chunk's prefix."""
            level = engine.level[:prefix]
            outcome.warm_cycles = before_cycles + float(
                engine.cycles[:prefix].sum()
            )
            outcome.warm_l1 = before[0] + int((level == 0).sum())
            outcome.warm_l2 = before[1] + int((level == 1).sum())
            outcome.warm_walks = before[2] + int((level >= 2).sum())
            outcome.warm_faults = before[3] + int((level == 3).sum())

        def _catch_up(limit: int) -> None:
            """Run the invariant checks due before chunk index ``limit``."""
            nonlocal next_check
            while next_check and next_check < base + limit:
                check_system_invariants(system, next_check)
                next_check += check_every

        # -- traced-mode clock / event synthesis -------------------------
        # Events of access i carry the clock at the access's start: the
        # cumulative translation cycles through access i-1, exactly as
        # the scalar loop stamps them.  ``emit_state`` tracks how far
        # the per-access cycle prefix sum has been folded in; cycles of
        # batched walks are final before any event referencing them is
        # emitted (the drain scatters them first).
        boundary_local = boundary - base
        emit_state = [0, 0.0]  # [accesses folded into the sum, their sum]

        def _clock_before(local: int) -> int:
            if local > emit_state[0]:
                emit_state[1] += float(engine.cycles[emit_state[0]:local].sum())
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

        def _emit_walks(result: WalkFlush) -> None:
            """Emit the drained walks' events in per-access order."""
            l2_probe_cycles = engine.l2_probe_cycles
            for j in range(result.locals_.size):
                local = int(result.locals_[j])
                vpn = result.vpns[j]
                walk_cycles = int(result.cycles[j])
                _measure_before(local)
                obs.advance_clock(_clock_before(local))
                obs.emit(EVENT_WALK_START, walk=result.walk_ids[j], vpn=vpn)
                obs.emit(
                    EVENT_WALK_END, walk=result.walk_ids[j],
                    cycles=walk_cycles, accesses=int(result.accesses[j]),
                )
                obs.emit(
                    EVENT_TLB_MISS, vpn=vpn,
                    level="fault" if result.faults[j] else "walk",
                    cycles=l2_probe_cycles + walk_cycles,
                )

        try:
            total = engine.run_chunk(
                chunk,
                around_miss=_catch_up if check_every else None,
                on_flush=_emit_walks if tracer_on else None,
            )
            _catch_up(n)
        except ABORT_ERRORS as exc:
            outcome.failed = True
            outcome.reason = record_abort(system, exc, "trace")
            aborted_at = engine.aborted_at
            outcome.events_done = base + aborted_at
            # The aborting access is counted but never completes.
            outcome.total_cycles += float(engine.cycles[:aborted_at + 1].sum())
            # The scalar loop's events_done stops just before the
            # aborting access, so the warmup window is only closed when
            # the boundary access lies strictly before it —
            # `boundary < base + aborted_at` is events_done-based,
            # intentionally one tighter than the clean path's
            # `boundary < base + n`.  An abort exactly at the boundary
            # leaves the run inside warmup, as in the scalar engine.
            if not warm_taken and boundary < base + aborted_at:
                _warm_snapshot(boundary - base + 1)
            return outcome

        outcome.total_cycles += total
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

    # The mirrors hold the TLB contents after the last access; install
    # them so post-run inspection sees what the scalar engine leaves.
    engine.write_back()
    return outcome
