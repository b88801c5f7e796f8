"""Batched page walks for the vectorized engine.

The scalar walkers resolve one miss at a time: compute the cache lines
the walk touches, charge each line to the cache hierarchy, account the
walk.  This module batches that work across the misses of a chunk while
staying *bit-identical* to the scalar walkers:

* **Plan** (:meth:`HptWalkBatch.plan` / :meth:`RadixWalkBatch.plan`) runs
  per miss, in global trace order, and performs every operation whose
  *state* is inherently sequential but tiny: CWC lookups/fills, PWC
  lookups/fills, the ME-HPT L2P accounting, and the walk counter.
  Replaying them on the real objects guarantees the exact hit/miss
  sequences of the scalar walker.  Whether a walk faults is predicted
  from first touch (page tables start empty and only the fault handler
  maps pages), so predicted hits are not re-probed: their cuckoo
  ``stats.lookups`` follow from the CWC candidate set and the static
  page size, and only predicted faults call the real ``translate``.
* **Seal** (:meth:`~HptWalkBatch.seal_segment`) converts the pending
  walks into cache-line addresses with vectorized gathers:
  :meth:`~repro.hashing.clustered.ClusteredHashedPageTable.probe_line_addrs_batch`
  over the cuckoo ways (grouped by candidate-size set), or radix node
  base addresses memoized per (depth, VPN-prefix).  HPT segments are
  *insert-separated*: only a cuckoo insert (with its kicks, resize
  steps, rehash-pointer moves and chunk transitions) moves the lines a
  walk probes, so pending walks are sealed before a fault predicted to
  insert a new block and not before a fault into an existing block.
  Radix segments are *drain-separated*: faults only add nodes, never
  move them, so pending walks are sealed at flush.
* **Flush** (:meth:`~HptWalkBatch.flush`) feeds the accumulated line
  stream — still in global per-walk order — through :class:`CacheBatch`,
  an :class:`~repro.mmu.tlb_array.ArrayTlb` mirror of the cache
  hierarchy, and reduces per-line latencies to per-walk cycles
  (``max`` per probe group for the parallel HPT probes, ``sum`` for the
  sequential radix levels).  Faults never touch the cache hierarchy, so
  cache probing can be deferred across fault boundaries and amortized
  over a whole chunk.

Accesses that mutate simulator state — demand faults, and everything
they trigger (cuckoo kicks, resizes, CWT updates, allocation) — are not
batched: the engine replays them through the real fault handler in
global trace order, bracketed by :meth:`~HptWalkBatch.before_fault`
(which seals when the fault inserts) and
:meth:`~HptWalkBatch.after_fault` (which checks the predictions against
the table the handler changed).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.units import CACHE_LINE
from repro.ecpt.walker import EcptWalker, _PROBE_ORDER
from repro.hashing.clustered import PAGE_SHIFT, PAGES_PER_BLOCK
from repro.mem.cache import CacheHierarchy
from repro.mmu.tlb_array import ArrayTlb
from repro.radix.table import FANOUT, LEVEL_BITS, PAGE_SIZE_BITS, ENTRIES_PER_LINE
from repro.radix.walker import RadixWalker

#: Below this many pending walks a segment is sealed with the scalar
#: per-walk line computation — numpy call overhead would dominate.
MIN_SEAL_BATCH = 8

#: Cache-probe streams at or below this length are replayed per line on
#: the array mirror instead of paying ``batch_probe``'s stream setup.
SMALL_PROBE_STREAM = 48

_LINE_SHIFT = ENTRIES_PER_LINE.bit_length() - 1
_BLOCK_SHIFT = PAGES_PER_BLOCK.bit_length() - 1
_BLOCK_MASK = PAGES_PER_BLOCK - 1


class WalkFlush:
    """Per-walk results of one :meth:`flush`, in global walk order."""

    __slots__ = ("locals_", "walk_ids", "vpns", "faults", "cycles", "accesses")

    def __init__(self, locals_, walk_ids, vpns, faults, cycles, accesses):
        self.locals_ = locals_      # np.int64 chunk-local indices
        self.walk_ids = walk_ids    # List[int]
        self.vpns = vpns            # List[int]
        self.faults = faults        # List[bool]
        self.cycles = cycles        # np.int64 per-walk walk cycles
        self.accesses = accesses    # np.int64 per-walk memory accesses


class CacheBatch:
    """Array mirror of a :class:`~repro.mem.cache.CacheHierarchy`.

    Each :class:`~repro.mem.cache.CacheLevel` keeps MRU-first tag lists
    — exactly the layout :meth:`ArrayTlb.from_lists` mirrors — and every
    ``access`` leaves its line at MRU (hit-touch or miss-fill), which is
    the invariant :meth:`ArrayTlb.batch_probe` needs.  The cascade is
    replicated level by level: only the previous level's misses reach
    the next, and whatever misses the last level is a DRAM access.

    Counters are tracked as deltas and installed, together with the
    mirrored contents, by :meth:`write_back` at the end of the engine
    run (nothing reads cache state mid-run: the walkers are the only
    cache clients and the batched engine replaces their accesses).
    """

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self.arrays = [
            ArrayTlb.from_lists(level.name, level._sets, level.ways, level.hit_cycles)
            for level in hierarchy.levels
        ]
        self._hits = [0] * len(self.arrays)
        self._misses = [0] * len(self.arrays)
        self._dram = 0

    def probe(self, lines: np.ndarray) -> np.ndarray:
        """Per-line round-trip cycles for ``lines``, in stream order.

        Bit-identical to calling ``hierarchy.access`` per line: same
        hit/miss decisions, same LRU evolution, same counters (applied
        at :meth:`write_back`).
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        cycles = np.full(lines.size, self.hierarchy.dram_cycles, dtype=np.int64)
        idx = np.arange(lines.size, dtype=np.int64)
        stream = lines
        for li, arr in enumerate(self.arrays):
            if stream.size == 0:
                break
            if stream.size <= SMALL_PROBE_STREAM:
                hit = np.empty(stream.size, dtype=bool)
                for j, line in enumerate(stream.tolist()):
                    h = arr.lookup(line)
                    if not h:
                        arr.fill(line)
                    hit[j] = h
            else:
                hit = arr.batch_probe(stream)
            n_hit = int(np.count_nonzero(hit))
            self._hits[li] += n_hit
            self._misses[li] += int(stream.size) - n_hit
            cycles[idx[hit]] = arr.hit_cycles
            idx = idx[~hit]
            stream = stream[~hit]
        self._on_dram(stream, idx, cycles)
        return cycles

    def _on_dram(
        self, lines: np.ndarray, idx: np.ndarray, cycles: np.ndarray
    ) -> None:
        """Account the lines that missed every level (a DRAM access each).

        ``lines`` are the missing line addresses, ``idx`` their positions
        in the probed stream, ``cycles`` the full per-stream cycle array
        (already set to ``dram_cycles`` at those positions).  Subclasses
        may adjust ``cycles[idx]`` in place — the NUMA variant charges the
        remote-DRAM delta here.
        """
        self._dram += int(idx.size)

    def write_back(self) -> None:
        """Install mirrored contents and counter deltas into the real levels.

        A mirror that probed no line since its last write-back installs
        nothing, so it never overwrites what scalar walks left in the
        real levels.
        """
        if not (any(self._hits) or any(self._misses) or self._dram):
            return
        for arr, level, hits, misses in zip(
            self.arrays, self.hierarchy.levels, self._hits, self._misses
        ):
            level._sets = arr.write_back_lists()
            level.hits += hits
            level.misses += misses
        self.hierarchy.dram_accesses += self._dram
        self._hits = [0] * len(self.arrays)
        self._misses = [0] * len(self.arrays)
        self._dram = 0


class NumaCacheBatch(CacheBatch):
    """NUMA-aware :class:`CacheBatch` over a shared datacenter hierarchy.

    Mirrors :meth:`~repro.sim.datacenter.topology.NumaCacheHierarchy.access`
    bit-identically: every line that misses all levels resolves its
    home socket and, when homed on a socket other than the machine's
    ``active_socket`` (and not replicated everywhere), pays the
    remote-DRAM delta.  Instead of one ``home_of`` bisect per line,
    homes are resolved in batch with a ``searchsorted`` over a numpy
    interval snapshot of the :class:`LineHomeMap`, rebuilt only when
    the map's epoch moves (register / set_home / unregister).

    ``local/remote_dram_accesses`` and ``remote_delta_cycles`` are
    accumulated as deltas and installed into the machine at
    :meth:`write_back` — nothing reads them mid-run (results and
    metric snapshots are taken after the final write-back).

    Per-line latencies stay int64, so ``remote_dram_delta`` must be a
    whole number of cycles; ``DatacenterParams.validate`` rejects any
    other value.
    """

    def __init__(self, hierarchy) -> None:
        super().__init__(hierarchy)
        self.machine = hierarchy.machine
        self._delta = int(self.machine.remote_dram_delta)
        self._local_dram = 0
        self._remote_dram = 0
        self._snapshot_epoch = -1
        self._bases = self._ends = self._sockets = None

    def _remote_mask(self, lines: np.ndarray) -> np.ndarray:
        """Which of ``lines`` are homed on a non-active, non-replicated
        socket — exactly ``home_of``'s bisect, vectorized."""
        from repro.sim.datacenter.topology import ALL_SOCKETS

        home_map = self.machine.home_map
        if self._snapshot_epoch != home_map.epoch:
            self._bases, self._ends, self._sockets = home_map.as_arrays()
            self._snapshot_epoch = home_map.epoch
        if self._bases.size == 0:
            return np.zeros(lines.size, dtype=bool)
        pos = np.searchsorted(self._bases, lines, side="right") - 1
        clipped = np.maximum(pos, 0)
        within = (pos >= 0) & (lines < self._ends[clipped])
        homes = self._sockets[clipped]
        return (
            within
            & (homes != np.int64(ALL_SOCKETS))
            & (homes != np.int64(self.machine.active_socket))
        )

    def _on_dram(
        self, lines: np.ndarray, idx: np.ndarray, cycles: np.ndarray
    ) -> None:
        n = int(idx.size)
        self._dram += n
        if n == 0:
            return
        remote = self._remote_mask(lines)
        n_remote = int(np.count_nonzero(remote))
        self._local_dram += n - n_remote
        self._remote_dram += n_remote
        if n_remote:
            cycles[idx[remote]] += np.int64(self._delta)

    def write_back(self) -> None:
        """Install cache state plus the machine's NUMA DRAM counters."""
        super().write_back()
        machine = self.machine
        machine.local_dram_accesses += self._local_dram
        machine.remote_dram_accesses += self._remote_dram
        # Scalar accumulation adds the (integer-valued) float delta once
        # per remote miss; a single product lands on the same float.
        machine.remote_delta_cycles += float(self._delta * self._remote_dram)
        self._local_dram = 0
        self._remote_dram = 0


class HptWalkBatch:
    """Batched walks for :class:`~repro.ecpt.walker.EcptWalker` (and the
    ME-HPT subclass): CWC resolution happens at plan time on the real
    objects; way line addresses are gathered per candidate-size group;
    per-walk latency is ``cwc + max(cwt lines) + max(probe lines) +
    extra`` exactly as in the scalar walker.

    Walk outcomes are predicted from first touch: page tables start
    empty and only the fault handler maps pages, so an access faults iff
    it is the first touch of its (page size, page number), and the fault
    inserts a new HPT line iff it is also the first touch of its (page
    size, block), block = page number >> 3.  Only predicted faults call
    the real ``translate`` (asserting the page is unmapped); predicted
    hits add the cuckoo ``stats.lookups`` the scalar probe loop would
    make.  :meth:`after_fault` checks every prediction against the
    table the handler just changed.
    """

    def __init__(self, walker: EcptWalker, caches: CacheBatch, sizes: List[str]) -> None:
        self.walker = walker
        self.caches = caches
        self.sizes = sizes
        self.tables = walker.tables
        self._page_shift = [PAGE_SHIFT[size] for size in sizes]
        self._table_for_code = [self.tables.tables[size] for size in sizes]
        # Per static size: block -> bitmask of its pages touched so far
        # (8 pages per block, so one small int per block), and the
        # number of pages touched.
        self._seen: List[Dict[int, int]] = [dict() for _ in sizes]
        self._n_seen = [0] * len(sizes)
        # Candidate-size tuples, in the order the scalar walker iterates
        # them, interned to small ids; per id its probe-line count and,
        # per static size, the stats a hitting walk's lookups bump.
        self._cand_ids: Dict[tuple, int] = {}
        self._cand_sizes: List[tuple] = []
        self._cand_width: List[int] = []
        self._hit_stats: List[list] = []
        #: (code, predicted insert, stats.inserts before) of the planned fault.
        self._fault: Optional[tuple] = None
        self._reset_pending()

    def _reset_pending(self) -> None:
        # Pending walks, one entry per walk in each column.  Walks
        # [0, _sealed) have their line addresses in _parts/_tail.
        self._locals: List[int] = []
        self._walk_ids: List[int] = []
        self._vpns: List[int] = []
        self._faults: List[bool] = []
        self._extras: List[int] = []
        self._cands: List[int] = []
        self._n_cwt: List[int] = []
        self._cwt_lines: List[int] = []  # every walk's CWT lines, concatenated
        self._sealed = 0
        self._cwt_sealed = 0
        self._parts: List[np.ndarray] = []
        self._tail: List[int] = []

    def _intern(self, cands: tuple) -> int:
        tables = self.tables.tables
        cand = len(self._cand_sizes)
        self._cand_ids[cands] = cand
        self._cand_sizes.append(cands)
        self._cand_width.append(sum(len(tables[s].table.ways) for s in cands))
        # The scalar probe loop looks up every candidate in probe order
        # until the hit; None when the static size is not a candidate.
        self._hit_stats.append([
            [
                tables[s].table.stats
                for s in _PROBE_ORDER[: _PROBE_ORDER.index(size) + 1]
                if s in cands
            ] if size in cands else None
            for size in self.sizes
        ])
        return cand

    def plan(self, local: int, vpn: int, code: int) -> bool:
        """Phase A for one miss: the walk's sequential state updates.

        Returns True when the access will demand-fault; the caller then
        calls :meth:`before_fault` (or :meth:`flush`), runs the real
        fault handler and calls :meth:`after_fault` before planning
        further.
        """
        walker = self.walker
        self._walk_ids.append(walker.walks)
        walker.walks += 1
        candidate_sizes, cwt_lines = walker._resolve_candidates(vpn)
        n_cwt = len(cwt_lines)
        if n_cwt:
            walker.cwt_memory_reads += n_cwt
            self._cwt_lines.extend(cwt_lines)
        key = tuple(candidate_sizes)
        cand = self._cand_ids.get(key)
        if cand is None:
            cand = self._intern(key)
        page = vpn >> self._page_shift[code]
        block = page >> _BLOCK_SHIFT
        bit = 1 << (page & _BLOCK_MASK)
        seen = self._seen[code]
        touched = seen.get(block, 0)
        fault = not touched & bit
        extra = 0
        if fault:
            seen[block] = touched | bit
            self._n_seen[code] += 1
            before = self._table_for_code[code].table.stats.inserts
            # The first touch of a block inserts its cuckoo line.
            self._fault = (code, not touched, before)
            if candidate_sizes:
                extra = walker._extra_probe_cycles(vpn, candidate_sizes)
                for page_size in _PROBE_ORDER:
                    if page_size in candidate_sizes:
                        ppn = self.tables.tables[page_size].translate(vpn)
                        assert ppn is None, (
                            "fault prediction diverged: page already mapped"
                        )
        else:
            hit_stats = self._hit_stats[cand][code]
            assert hit_stats is not None, (
                "static page-size prediction diverged from the CWC"
            )
            extra = walker._extra_probe_cycles(vpn, candidate_sizes)
            for stats in hit_stats:
                stats.lookups += 1
        self._locals.append(local)
        self._vpns.append(vpn)
        self._faults.append(fault)
        self._extras.append(extra)
        self._cands.append(cand)
        self._n_cwt.append(n_cwt)
        return fault

    def before_fault(self) -> None:
        """Seal the pending walks if the planned fault inserts a line.

        A cuckoo insert is the only operation that moves the lines a
        walk probes (kicks, resize steps, rehash-pointer moves and chunk
        transitions all run inside it); a fault into an existing line
        only fills a PTE.
        """
        if self._fault[1]:
            self.seal_segment()

    def after_fault(self) -> None:
        """Check the planned fault's predictions against its table."""
        code, inserts, before = self._fault
        self._fault = None
        table = self._table_for_code[code]
        assert (table.table.stats.inserts != before) == inserts, (
            "insert prediction diverged from the cuckoo table"
        )
        assert table.mapped_pages == self._n_seen[code], (
            "fault prediction diverged: mapped pages differ from first touches"
        )

    def seal_segment(self) -> None:
        """Resolve the unsealed pending walks to cache-line addresses.

        Must run before the next cuckoo insert: line addresses depend on
        the live cuckoo geometry (rehash pointers, way sizes, chunks),
        which only an insert changes.
        """
        lo, hi = self._sealed, len(self._vpns)
        if lo == hi:
            return
        self._sealed = hi
        cwt = self._cwt_lines[self._cwt_sealed:]
        self._cwt_sealed = len(self._cwt_lines)
        vpns = self._vpns[lo:hi]
        cands = self._cands[lo:hi]
        n_cwt = self._n_cwt[lo:hi]
        tables = self.tables.tables
        if hi - lo < MIN_SEAL_BATCH:
            out = self._tail
            c = 0
            for vpn, cand, nc in zip(vpns, cands, n_cwt):
                if nc:
                    out.extend(cwt[c: c + nc])
                    c += nc
                for page_size in self._cand_sizes[cand]:
                    out.extend(tables[page_size].probe_line_addrs(vpn))
            return
        k = hi - lo
        n_cwt_arr = np.array(n_cwt, dtype=np.int64)
        cand_arr = np.array(cands, dtype=np.int64)
        width = np.array(self._cand_width, dtype=np.int64)[cand_arr]
        offs = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(n_cwt_arr + width, out=offs[1:])
        flat = np.empty(int(offs[-1]), dtype=np.int64)
        if cwt:
            rows = np.repeat(np.arange(k, dtype=np.int64), n_cwt_arr)
            firsts = np.cumsum(n_cwt_arr) - n_cwt_arr
            within = np.arange(len(cwt), dtype=np.int64) - firsts[rows]
            flat[offs[rows] + within] = cwt
        vpn_arr = np.array(vpns, dtype=np.int64)
        probe_at = offs[:-1] + n_cwt_arr
        for cand in set(cands):
            sizes = self._cand_sizes[cand]
            if not sizes:
                continue
            sel = np.flatnonzero(cand_arr == cand)
            mats = [tables[s].probe_line_addrs_batch(vpn_arr[sel]) for s in sizes]
            lines = mats[0] if len(mats) == 1 else np.hstack(mats)
            pos = probe_at[sel][:, None] + np.arange(lines.shape[1], dtype=np.int64)
            flat[pos] = lines
        self._push_tail()
        self._parts.append(flat)

    def _push_tail(self) -> None:
        """Move the short-segment lines into the sealed parts."""
        if self._tail:
            self._parts.append(np.array(self._tail, dtype=np.int64))
            self._tail = []

    def _sealed_lines(self) -> np.ndarray:
        """Every sealed line address, in pending-walk order."""
        self._push_tail()
        parts = self._parts
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def flush(self) -> Optional[WalkFlush]:
        """Probe all pending line streams; return per-walk results."""
        self.seal_segment()
        k = len(self._locals)
        if not k:
            return None
        flat = self._sealed_lines()
        lat = self.caches.probe(flat) if flat.size else flat
        n_cwt = np.array(self._n_cwt, dtype=np.int64)
        n_probe = np.array(self._cand_width, dtype=np.int64)[
            np.array(self._cands, dtype=np.int64)
        ]
        accesses = n_cwt + n_probe
        starts = np.zeros(k, dtype=np.int64)
        np.cumsum(accesses[:-1], out=starts[1:])
        lat_pad = np.concatenate([lat, np.zeros(1, dtype=np.int64)])
        bounds = np.empty(2 * k, dtype=np.int64)
        bounds[0::2] = starts
        bounds[1::2] = starts + n_cwt
        reduced = np.maximum.reduceat(lat_pad, bounds)
        # reduceat yields the element at the boundary for empty slices
        # (and the pad sentinel for a trailing one); mask those to the
        # scalar walker's access_parallel([]) == 0.
        cwt_max = np.where(n_cwt > 0, reduced[0::2], 0)
        probe_max = np.where(n_probe > 0, reduced[1::2], 0)
        cycles = (
            np.int64(self.walker.cwc_cycles) + cwt_max + probe_max
            + np.array(self._extras, dtype=np.int64)
        )
        return self._finish(cycles, accesses)

    def _finish(self, cycles: np.ndarray, accesses: np.ndarray) -> WalkFlush:
        walker = self.walker
        walker.total_cycles += int(cycles.sum())
        walker.total_accesses += int(accesses.sum())
        if walker.obs is not None and walker.walk_latency is not None:
            bins: Dict[int, int] = {}
            for value in cycles.tolist():
                bins[value] = bins.get(value, 0) + 1
            walker.walk_latency.observe_bins(bins)
        result = WalkFlush(
            np.array(self._locals, dtype=np.int64),
            self._walk_ids, self._vpns, self._faults, cycles, accesses,
        )
        self._reset_pending()
        return result


class RadixWalkBatch(HptWalkBatch):
    """Batched walks for :class:`~repro.radix.walker.RadixWalker`.

    PWC lookups/fills happen at plan time on the real caches; node line
    addresses for non-faulting walks are gathered from per-(depth,
    prefix) memos of the tree; faulting walks take their lines from the
    real ``table.walk`` at plan time, since their path depth depends on
    live tree shape.  Nodes are only ever created, never moved, so a
    pending walk's lines never change and pending walks are sealed only
    at :meth:`flush`.  Per-walk latency is ``pwc + sum(per-level
    lines)`` — the radix walk is sequential, unlike the HPT's parallel
    probes.
    """

    def __init__(self, walker: RadixWalker, caches: CacheBatch, sizes: List[str]) -> None:
        self.walker = walker
        self.caches = caches
        self.sizes = sizes
        self.table = walker.table
        self.levels = self.table.levels
        self._page_shift = [PAGE_SIZE_BITS[s] for s in sizes]
        self._depth_for_code = [self.table._leaf_depth(s) for s in sizes]
        self._seen: List[set] = [set() for _ in sizes]
        self._memo: List[Dict[int, int]] = [dict() for _ in range(self.levels)]
        self._memo[0][0] = self.table.root.addr // CACHE_LINE
        self._fault_code: Optional[int] = None
        self._reset_pending()

    def _reset_pending(self) -> None:
        self._locals: List[int] = []
        self._walk_ids: List[int] = []
        self._vpns: List[int] = []
        self._faults: List[bool] = []
        self._depths: List[int] = []
        self._pwc_starts: List[int] = []
        self._paths: List[int] = []  # faulting walks' full paths, concatenated
        self._sealed = 0
        self._paths_sealed = 0
        self._parts: List[np.ndarray] = []
        self._tail: List[int] = []

    def plan(self, local: int, vpn: int, code: int) -> bool:
        """Phase A for one radix miss.

        Fault prediction: page tables start empty and pages are only
        ever mapped by the fault handler, so an access faults iff it is
        the first touch of its (page size, page number) — tracked in
        per-size seen-sets.  Every prior fault's mapped size was
        asserted against the static prediction, so a predicted
        non-faulting walk's depth is exactly ``_leaf_depth(predicted
        size)``.
        """
        walker = self.walker
        self._walk_ids.append(walker.walks)
        walker.walks += 1
        key = vpn >> self._page_shift[code]
        seen = self._seen[code]
        fault = key not in seen
        if fault:
            seen.add(key)
            self._fault_code = code
            leaf, lines = self.table.walk(vpn)
            assert leaf is None, "fault prediction diverged: page already mapped"
            depth = len(lines)
            self._paths.extend(lines)
        else:
            depth = self._depth_for_code[code]
        start = walker.pwc.lookup(vpn, max_depth=depth - 1)
        walker.pwc.fill(vpn, depth - 1)
        self._locals.append(local)
        self._vpns.append(vpn)
        self._faults.append(fault)
        self._depths.append(depth)
        self._pwc_starts.append(start)
        return fault

    def before_fault(self) -> None:
        """Nothing to seal: a fault only adds radix nodes."""

    def after_fault(self) -> None:
        """Check the planned fault's prediction against the table."""
        code = self._fault_code
        self._fault_code = None
        assert (
            self.table.mapped_pages[self.sizes[code]] == len(self._seen[code])
        ), "fault prediction diverged: mapped pages differ from first touches"

    def _resolve(self, depth: int, prefix: int) -> int:
        node = self.table.node_for_prefix(prefix, depth)
        assert node is not None, "radix node prediction diverged from the table"
        base = node.addr // CACHE_LINE
        self._memo[depth][prefix] = base
        return base

    def _lines_for(self, vpn: int, depth: int, start: int) -> List[int]:
        out: List[int] = []
        for d in range(start, depth):
            memo = self._memo[d]
            prefix = vpn >> ((self.levels - d) * LEVEL_BITS)
            base = memo.get(prefix)
            if base is None:
                base = self._resolve(d, prefix)
            index = (vpn >> ((self.levels - 1 - d) * LEVEL_BITS)) & (FANOUT - 1)
            out.append(base + (index >> _LINE_SHIFT))
        return out

    def seal_segment(self) -> None:
        """Resolve the unsealed pending walks to cache-line addresses."""
        lo, hi = self._sealed, len(self._vpns)
        if lo == hi:
            return
        self._sealed = hi
        paths = self._paths[self._paths_sealed:]
        self._paths_sealed = len(self._paths)
        depths = self._depths[lo:hi]
        starts = self._pwc_starts[lo:hi]
        faults = self._faults[lo:hi]
        if hi - lo < MIN_SEAL_BATCH:
            out = self._tail
            p = 0
            for vpn, depth, start, fault in zip(self._vpns[lo:hi], depths, starts, faults):
                if fault:
                    out.extend(paths[p + start: p + depth])
                    p += depth
                else:
                    out.extend(self._lines_for(vpn, depth, start))
            return
        k = hi - lo
        depth_arr = np.array(depths, dtype=np.int64)
        start_arr = np.array(starts, dtype=np.int64)
        fault_arr = np.array(faults, dtype=bool)
        lens = depth_arr - start_arr
        offs = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        flat = np.empty(int(offs[-1]), dtype=np.int64)
        if paths:
            # Faulting walks: lines [start, depth) of each recorded path.
            fidx = np.flatnonzero(fault_arr)
            path_at = np.cumsum(depth_arr[fidx]) - depth_arr[fidx]
            flen = lens[fidx]
            rows = np.repeat(np.arange(fidx.size, dtype=np.int64), flen)
            within = np.arange(int(flen.sum()), dtype=np.int64) - (
                np.cumsum(flen) - flen
            )[rows]
            src = path_at[rows] + start_arr[fidx][rows] + within
            flat[offs[fidx][rows] + within] = np.array(paths, dtype=np.int64)[src]
        vpns = np.array(self._vpns[lo:hi], dtype=np.int64)
        predicted = ~fault_arr
        for d in range(int(depth_arr.max())):
            sel = np.flatnonzero(predicted & (start_arr <= d) & (d < depth_arr))
            if sel.size == 0:
                continue
            memo = self._memo[d]
            prefixes = vpns[sel] >> np.int64((self.levels - d) * LEVEL_BITS)
            uniq, inverse = np.unique(prefixes, return_inverse=True)
            bases = np.empty(uniq.size, dtype=np.int64)
            for u, prefix in enumerate(uniq.tolist()):
                base = memo.get(prefix)
                if base is None:
                    base = self._resolve(d, prefix)
                bases[u] = base
            index = (
                vpns[sel] >> np.int64((self.levels - 1 - d) * LEVEL_BITS)
            ) & np.int64(FANOUT - 1)
            flat[offs[sel] + (d - start_arr[sel])] = bases[inverse] + (
                index >> np.int64(_LINE_SHIFT)
            )
        self._push_tail()
        self._parts.append(flat)

    def flush(self) -> Optional[WalkFlush]:
        """Seal and probe all pending walks; return per-walk results."""
        self.seal_segment()
        k = len(self._locals)
        if not k:
            return None
        lat = self.caches.probe(self._sealed_lines())
        accesses = np.array(self._depths, dtype=np.int64) - np.array(
            self._pwc_starts, dtype=np.int64
        )
        starts = np.zeros(k, dtype=np.int64)
        np.cumsum(accesses[:-1], out=starts[1:])
        lat_pad = np.concatenate([lat, np.zeros(1, dtype=np.int64)])
        sums = np.add.reduceat(lat_pad, starts)
        cycles = np.int64(self.walker.pwc_cycles) + sums
        return self._finish(cycles, accesses)


def make_walk_batch(system, sizes: List[str], caches: Optional[CacheBatch] = None):
    """Build the walk batcher for ``system``'s walker.

    The system's organization names the batcher class
    (``system.org.walk_batch``, see :mod:`repro.sim.organizations`):
    :class:`HptWalkBatch` for ECPT and ME-HPT walkers,
    :class:`RadixWalkBatch` for radix.  Every system
    :meth:`~repro.sim.config.SimulationConfig.build` assembles has one,
    over a cache hierarchy whose set counts are powers of two.

    ``caches`` lets callers share one cache mirror across several
    batchers — the datacenter quantum engine passes a single
    :class:`NumaCacheBatch` over the machine-wide hierarchy so the
    shared LLC state evolves in global quantum order."""
    walker = system.walker
    if caches is None:
        caches = CacheBatch(walker.caches)
    return system.org.walk_batch(walker, caches, sizes)
