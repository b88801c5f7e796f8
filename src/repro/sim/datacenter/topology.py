"""NUMA machine topology: sockets, shared buddy pools, and line homing.

The datacenter model's physical layer.  A :class:`Machine` owns one
fragmented :class:`~repro.mem.buddy.BuddyAllocator` pool per socket and
a :class:`LineHomeMap` recording which socket every page-table
cache line lives on.  Tenants allocate through a
:class:`SocketPoolAllocator` (preferred-socket placement with
deterministic spill), and every walk probe goes through a
:class:`NumaCacheHierarchy` that charges a remote-DRAM delta whenever
the line's home socket differs from the socket the tenant is running on.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.mem.alloc_cost import AllocationCostModel
from repro.mem.allocator import AllocationStats, _FaultHooks
from repro.mem.buddy import BuddyAllocator
from repro.mem.cache import CacheHierarchy
from repro.mem.fragmentation import fmfi as fmfi_of

#: Home-map marker for replicated units: local on every socket.
ALL_SOCKETS = -1


class LineHomeMap:
    """Maps synthetic cache-line addresses to the socket that homes them.

    Units are registered as ``(base_line, n_lines)`` intervals — one per
    buddy allocation (a contiguous way, a chunk, a radix node).  Lookups
    bisect over the sorted bases; unknown lines are treated as local
    (data pages and MMU-resident structures are not modelled here).
    """

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._units: Dict[int, List[int]] = {}  # base -> [n_lines, socket]
        #: Bumped on every mutation; cached interval snapshots
        #: (:meth:`as_arrays` consumers) revalidate against it.
        self.epoch = 0

    def register(self, base_line: int, n_lines: int, socket: int) -> None:
        """Add a unit; re-registering a base updates it in place."""
        if base_line not in self._units:
            bisect.insort(self._bases, base_line)
        self._units[base_line] = [n_lines, socket]
        self.epoch += 1

    def set_home(self, base_line: int, socket: int) -> None:
        """Re-home an existing unit (migration/replication)."""
        self._units[base_line][1] = socket
        self.epoch += 1

    def unregister(self, base_line: int) -> None:
        """Drop a unit (storage released or tenant exited)."""
        if base_line in self._units:
            del self._units[base_line]
            index = bisect.bisect_left(self._bases, base_line)
            del self._bases[index]
            self.epoch += 1

    def as_arrays(self):
        """``(bases, ends, sockets)`` int64 snapshot, sorted by base.

        The batched NUMA probe path resolves line homes with one
        ``searchsorted`` over this snapshot instead of per-line
        :meth:`home_of` bisects; callers cache it keyed on
        :attr:`epoch`.
        """
        bases = np.asarray(self._bases, dtype=np.int64)
        n_lines = np.array(
            [self._units[b][0] for b in self._bases], dtype=np.int64
        )
        sockets = np.array(
            [self._units[b][1] for b in self._bases], dtype=np.int64
        )
        return bases, bases + n_lines, sockets

    def home_of(self, line_addr: int) -> Optional[int]:
        """The socket homing ``line_addr`` or None if unregistered."""
        index = bisect.bisect_right(self._bases, line_addr) - 1
        if index < 0:
            return None
        base = self._bases[index]
        n_lines, socket = self._units[base]
        if line_addr < base + n_lines:
            return socket
        return None

    def __len__(self) -> int:
        return len(self._units)


class Machine:
    """N sockets, each a fragmented buddy pool, plus NUMA accounting.

    Doubles as the ``numa`` hook threaded into
    :class:`~repro.mmu.hierarchy.TlbHierarchy` (:meth:`on_walk`) and the
    placement oracle consulted by :class:`NumaCacheHierarchy`:
    ``active_socket`` is set by the scheduler before each quantum, so
    walk cycles and DRAM locality are charged to the socket the tenant
    is actually running on.
    """

    def __init__(
        self,
        sockets: int,
        pool_bytes_per_socket: int,
        remote_dram_delta: float = 120.0,
    ) -> None:
        if sockets < 1:
            raise ConfigurationError("need at least one socket")
        self.sockets = sockets
        self.remote_dram_delta = remote_dram_delta
        self.pools = [
            BuddyAllocator(pool_bytes_per_socket) for _ in range(sockets)
        ]
        self.home_map = LineHomeMap()
        self.active_socket = 0
        self.walks_by_socket = [0] * sockets
        self.walk_cycles_by_socket = [0.0] * sockets
        self.local_dram_accesses = 0
        self.remote_dram_accesses = 0
        self.remote_delta_cycles = 0.0
        self.spill_allocations = 0

    def fragment(self, fraction: float) -> None:
        """Pre-fragment every pool deterministically (no RNG).

        Leaves each pool as allocating ``fraction`` of its frames as
        order-0 singles, then freeing every other one, would
        (:meth:`~repro.mem.buddy.BuddyAllocator.checkerboard`): the
        freed frames cannot coalesce past order 0, so large-order
        requests see a genuinely fragmented pool.  The surviving
        holdouts stay allocated for the whole run.  The pools must be
        fresh.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError("frag fraction must be in [0, 1)")
        for pool in self.pools:
            pool.checkerboard(int(pool.total_frames * fraction))

    def on_walk(self, cycles: float) -> None:
        """Attribute one finished page walk to the active socket."""
        self.walks_by_socket[self.active_socket] += 1
        self.walk_cycles_by_socket[self.active_socket] += cycles


class SocketPoolAllocator(_FaultHooks):
    """Per-tenant allocator over the machine's shared socket pools.

    Placement prefers the tenant's current socket and spills to the
    other pools in deterministic round-robin order; only when every pool
    rejects the request does the allocation fail.  Each tenant gets its
    own instance (and so its own :class:`AllocationStats`) because the
    kernel fault handler charges page-table allocation cycles by *delta*
    of the owning allocator's stats — shared stats would double-bill.

    The fault-injection sites (:mod:`repro.faults`) are armed exactly as
    on :class:`~repro.mem.allocator.BuddyBackedAllocator`: the plan is
    consulted at the preferred pool's FMFI before every attempt, and
    transient failures retry with cycle-charged backoff.
    """

    def __init__(
        self,
        machine: Machine,
        cost_model: Optional[AllocationCostModel] = None,
        stats: Optional[AllocationStats] = None,
        preferred_socket: int = 0,
        fault_plan=None,
        recovery=None,
        degradation=None,
    ) -> None:
        self.machine = machine
        self.cost_model = cost_model if cost_model is not None else AllocationCostModel()
        self.stats = stats if stats is not None else AllocationStats()
        self.preferred_socket = preferred_socket
        self._ids = itertools.count(1)
        #: handle -> (socket, start_frame, nbytes)
        self._live: Dict[int, Tuple[int, int, int]] = {}
        self.alloc_failures = 0
        #: Bumped on every successful alloc/free.  The placement scanner
        #: skips rescanning a tenant whose epoch has not moved since the
        #: last scan — placements can only change through this allocator.
        self.alloc_epoch = 0
        self._arm(fault_plan, recovery, degradation)

    def current_fmfi(self, nbytes: int) -> float:
        """FMFI of the preferred pool at the request's order."""
        pool = self.machine.pools[self.preferred_socket]
        return fmfi_of(pool, pool.order_for_bytes(nbytes))

    def _place(self, nbytes: int) -> Tuple[int, int]:
        """Try the preferred socket, then spill round-robin."""
        last_error: Optional[Exception] = None
        for offset in range(self.machine.sockets):
            socket = (self.preferred_socket + offset) % self.machine.sockets
            try:
                start = self.machine.pools[socket].alloc_bytes(nbytes)
            except OutOfMemoryError as exc:
                last_error = exc
                continue
            if offset:
                self.machine.spill_allocations += 1
            return socket, start
        raise last_error  # every pool refused

    def alloc(self, nbytes: int) -> int:
        """Place ``nbytes`` in a pool; returns an opaque handle."""
        attempt = 0
        while True:
            level = self.current_fmfi(nbytes)
            try:
                self._injected(nbytes, level, attempt)
                socket, start = self._place(nbytes)
                break
            except Exception as exc:
                self.stats.on_failure()
                if not self._recover(exc, attempt, nbytes):
                    self.alloc_failures += 1
                    raise
                attempt += 1
        cycles = self.cost_model.cycles(
            nbytes, min(level, self.cost_model.fail_fmfi)
        )
        handle = next(self._ids)
        self._live[handle] = (socket, start, nbytes)
        self.stats.on_alloc(nbytes, cycles)
        self.alloc_epoch += 1
        return handle

    def free(self, handle: int) -> None:
        """Return the placement to its pool."""
        socket, start, nbytes = self._live.pop(handle)
        self.machine.pools[socket].free(start)
        self.stats.on_free(nbytes)
        self.alloc_epoch += 1

    def socket_of(self, handle: int) -> int:
        """The socket a live handle was placed on."""
        return self._live[handle][0]

    def release_all(self) -> None:
        """Free every live placement (tenant exit teardown)."""
        for handle in list(self._live):
            self.free(handle)


class NumaCacheHierarchy(CacheHierarchy):
    """Cache hierarchy whose DRAM misses are homed by the machine.

    One shared instance serves every tenant (the shared-LLC story):
    storages claim globally-disjoint synthetic line ranges, so tenants
    never alias.  A miss to a line homed on a different socket than the
    machine's ``active_socket`` pays ``remote_dram_delta`` extra cycles;
    replicated units (home ``ALL_SOCKETS``) and unregistered lines are
    local everywhere.
    """

    def __init__(self, machine: Machine, levels=None, dram_cycles: int = 200) -> None:
        super().__init__(levels=levels, dram_cycles=dram_cycles)
        self.machine = machine

    def access(self, line_addr: int) -> float:
        """Probe the levels; on a DRAM miss, charge NUMA locality."""
        for level in self.levels:
            if level.access(line_addr):
                return level.hit_cycles
        self.dram_accesses += 1
        machine = self.machine
        home = machine.home_map.home_of(line_addr)
        if home is None or home == ALL_SOCKETS or home == machine.active_socket:
            machine.local_dram_accesses += 1
            return self.dram_cycles
        machine.remote_dram_accesses += 1
        machine.remote_delta_cycles += machine.remote_dram_delta
        return self.dram_cycles + machine.remote_dram_delta
