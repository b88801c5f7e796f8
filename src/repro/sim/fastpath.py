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

Both engines expose ``run_chunk(chunk) -> cycles``, a running
``cycles`` total, ``aborted_at`` and ``write_back()``, and
:func:`make_engine` builds the one ``SimulationConfig.engine`` picks.
:class:`~repro.sim.quantum.QuantumEngine` drives either one a
scheduling quantum per call; :func:`run_vectorized` is the one
single-process driver, streaming the trace through either engine piece
by piece and adding the warmup snapshot, the invariant-check cadence
and abort recording between pieces.  Batched results are
**bit-identical** to the scalar engine's: every result field,
every TLB/cache/walker counter, final TLB contents, metrics snapshots,
abort/warmup accounting, and — when a trace sink is attached — the
traced event stream byte-for-byte (property-tested in
``tests/test_sim_fastpath.py``, ``tests/test_sim_quantum.py`` and
``tests/test_obs_trace_equivalence.py``).  A failing invariant check
stops both engines after the same access, with the same state.

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

Event tracing composes with the batched engine: the scalar engine's
per-access events (``walk_start``/``walk_end``/``tlb_miss``) are
synthesized from the batch results in per-access order with the exact
scalar clock values, while fault-path events (``fault_serviced``,
kicks, resizes, chunk transitions) are emitted live by the real fault
machinery.  The synthesized emit-call sequence equals the scalar
engine's, so per-kind sampling counters, sequence numbers and therefore
the JSONL/ring-buffer output are byte-identical.
"""

from __future__ import annotations

from typing import List, Optional

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
        obs = system.obs
        # The sim-cycle clock only stamps trace events; untraced runs
        # skip the per-access advance.
        self._clock = (
            obs.advance_clock
            if obs is not None and obs.tracer is not None
            else None
        )
        #: Translation cycles of every access stepped so far.  An access
        #: is charged before its fault runs, so an aborting one counts.
        self.cycles = 0.0
        #: The chunk index of the access that aborted the last chunk
        #: (-1 = none).
        self.aborted_at = -1

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
        """Step through ``chunk``; returns its translation cycles.

        With a trace sink attached the clock moves to the running total
        after each access, so events emitted while servicing an access
        carry the clock at its start.
        """
        start = self.cycles
        step = self.step
        clock = self._clock
        self.aborted_at = -1
        # One bulk numpy->int conversion per chunk; the loops then run
        # on plain ints.
        vpns = iter(chunk.tolist())
        try:
            if clock is None:
                for vpn in vpns:
                    step(vpn)
            else:
                for vpn in vpns:
                    step(vpn)
                    clock(int(self.cycles))
        except MEHPTError:
            # The iterator stopped just past the aborting access.
            self.aborted_at = int(chunk.size) - 1 - len(list(vpns))
            raise
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
        obs = system.obs
        #: Where drained walks' events go: the traced system's
        #: observability context, or None when no trace sink is attached.
        self.obs = obs if obs is not None and obs.tracer is not None else None
        #: Translation cycles of every access resolved so far, an
        #: aborting one included.
        self.cycles = 0.0
        #: The last chunk's per-access cycles, and the chunk index of
        #: the access that aborted it (-1 = none).
        self.access_cycles = None
        self.aborted_at = -1
        # Traced runs: the chunk accesses whose cycles the trace clock
        # has folded in so far, and the clock after them.
        self._clock_local = 0
        self._clock_cycles = 0.0

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

    def run_chunk(self, chunk: np.ndarray) -> float:
        """Resolve ``chunk`` exactly as the scalar engine would.

        The misses are planned in trace order.  Before a planned fault
        the batcher seals its pending walks if the fault inserts a
        cuckoo line — or, with a trace sink attached, drains them, so
        the walks' events precede the fault's at the right clock; then
        the real fault handler runs.  Pending walks are drained at the
        end, the chunk's TLB counters applied and its cycles, which are
        returned, added to :attr:`cycles`; a traced run then advances
        the clock to that total.

        If the fault handler raises a model error, the prefix is
        settled before it propagates: pending walks are drained,
        :attr:`cycles` and the counters cover the accesses through
        :attr:`aborted_at` (whose lookups all missed), and the TLB
        mirrors are rewound to the chunk start, re-probed with the
        completed accesses and written back.
        """
        stream = self.sizer.codes(chunk)
        mirrors = [*self.l1_arr.values(), *self.l2_arr.values()]
        saved = [(arr.tags.copy(), arr.ages.copy()) for arr in mirrors]
        level, access_cycles = self._probe(chunk, stream)
        self.access_cycles = access_cycles
        self.aborted_at = -1
        self._clock_local, self._clock_cycles = 0, self.cycles
        batcher = self.batcher
        sizes = self.sizes
        obs = self.obs
        fault_fn = self.system.address_space.handle_fault
        counted = int(chunk.size)
        local = -1
        try:
            misses = np.flatnonzero(level >= 2)
            for local, vpn, code in zip(
                misses.tolist(), chunk[misses].tolist(), stream[misses].tolist()
            ):
                if batcher.plan(local, vpn, code):
                    if obs is None:
                        batcher.before_fault()
                    else:
                        self._drain()
                    level[local] = 3
                    fault = fault_fn(vpn)
                    batcher.after_fault()
                    assert fault.page_size == sizes[code], (
                        "static page-size prediction diverged from the kernel"
                    )
            self._drain()
        except MEHPTError:
            self.aborted_at = local
            counted = local + 1
            self._drain()
            for arr, (tags, ages) in zip(mirrors, saved):
                arr.tags, arr.ages = tags, ages
            self._probe(chunk[:local], stream[:local])
            self.write_back()
            raise
        finally:
            total = float(access_cycles[:counted].sum())
            self.cycles += total
            _apply_counters(
                self.system.tlb, sizes, level[:counted], stream[:counted]
            )
        if obs is not None:
            obs.advance_clock(int(self.cycles))
        return total

    def _drain(self) -> None:
        """Flush pending walks: scatter cycles, charge the NUMA hook.

        A traced run also emits the drained walks' events.
        """
        result = self.batcher.flush()
        if result is None:
            return
        self.access_cycles[result.locals_] = self.l2_probe_cycles + result.cycles
        machine = self.machine
        if machine is not None:
            # Replicates translate()'s per-walk on_walk(walk.cycles):
            # the active socket is fixed for the whole chunk and walk
            # cycles are integer-valued, so the batched sum is exact.
            socket = machine.active_socket
            machine.walks_by_socket[socket] += int(result.locals_.size)
            machine.walk_cycles_by_socket[socket] += float(result.cycles.sum())
        if self.obs is not None:
            self._emit_walks(result)

    def _emit_walks(self, result: WalkFlush) -> None:
        """Emit the scalar engine's events for drained walks, in order.

        Each walk is stamped with the cycles before the chunk plus
        those of the chunk's accesses before it: the scalar clock at
        the access's start.  Every earlier walk has been drained, so
        those cycles are final.
        """
        obs = self.obs
        access_cycles = self.access_cycles
        l2_probe_cycles = self.l2_probe_cycles
        for j, local in enumerate(result.locals_.tolist()):
            self._clock_cycles += float(
                access_cycles[self._clock_local:local].sum()
            )
            self._clock_local = local
            obs.advance_clock(int(self._clock_cycles))
            vpn = result.vpns[j]
            walk_cycles = int(result.cycles[j])
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

    def write_back(self) -> None:
        """Install the TLB mirrors (and an owned cache mirror) for real."""
        tlb = self.system.tlb
        for size in self.sizes:
            self.l1_arr[size].write_back(tlb.l1[size])
            self.l2_arr[size].write_back(tlb.l2[size])
        if self._owns_caches:
            self.batcher.caches.write_back()


def make_engine(system, caches: Optional[CacheBatch] = None, machine=None):
    """The engine ``system.config`` picks, built over ``system``.

    ``caches`` and ``machine`` reach only a :class:`BatchedEngine`; the
    scalar engine walks the system's real caches and charges its NUMA
    hook itself.
    """
    if system.config.resolve_engine() == "vectorized":
        return BatchedEngine(system, caches=caches, machine=machine)
    return ScalarEngine(system)


def run_vectorized(
    system,
    workload,
    trace_length: int,
    warmup_events: int,
    chunk_values: Optional[int] = None,
):
    """Run the trace through ``system`` with the engine its config picks.

    The one single-process driver for both engines.  (It kept its name
    when it took over the scalar loop: the benchmark's span table wraps
    ``repro.sim.fastpath.run_vectorized`` by name, so renaming it is a
    benchmark change.)  Each streamed chunk is cut where something
    happens — after the access an invariant check follows and after
    the last warmup access — and each piece runs through
    ``engine.run_chunk``.  Between pieces the driver runs the due
    check, then takes the warmup snapshot from the live TLB counters
    and emits ``measure_start``.  A failing check therefore stops
    either engine after the same access, and the mirrors are written
    back however the run ends.  With no warmup and no checks each
    chunk is one piece.

    Returns a :class:`~repro.sim.simulator.LoopOutcome`.  An aborting
    access counts in its ``total_cycles`` but not in ``events_done``.
    """
    # Lazy: repro.sim.simulator imports repro.sim.results, whose
    # datacenter results pull in repro.sim.quantum and so this module.
    from repro.sim.simulator import (
        ABORT_ERRORS,
        LoopOutcome,
        check_system_invariants,
        record_abort,
    )

    engine = make_engine(system)
    tlb = system.tlb
    obs = system.obs
    check_every = system.config.invariant_check_every
    # Events done when the next check is due (0 = never): the check
    # after access i runs once i + 1 events are done.
    next_check = check_every + 1 if check_every else 0
    outcome = LoopOutcome()
    done = 0
    try:
        for chunk in workload.trace_chunks(
            trace_length, chunk_values or DEFAULT_CHUNK_VALUES
        ):
            base = done
            end = base + int(chunk.size)
            while done < end:
                cut = min(
                    [end] + [at for at in (next_check, warmup_events) if at > done]
                )
                engine.run_chunk(chunk[done - base:cut - base])
                done = cut
                if done == next_check:
                    check_system_invariants(system, done - 1)
                    next_check += check_every
                if done == warmup_events:
                    outcome.warm_cycles = engine.cycles
                    outcome.warm_l1, outcome.warm_l2 = tlb.l1_hits, tlb.l2_hits
                    outcome.warm_walks, outcome.warm_faults = tlb.walks, tlb.faults
                    if obs is not None:
                        obs.emit(EVENT_MEASURE_START, event=done)
    except ABORT_ERRORS as exc:
        outcome.failed = True
        outcome.reason = record_abort(system, exc, "trace")
        done += engine.aborted_at
    finally:
        engine.write_back()
    outcome.events_done = done
    outcome.total_cycles = engine.cycles
    return outcome
