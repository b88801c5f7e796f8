"""The multi-tenant NUMA datacenter simulator: the one scheduler.

A machine model: N sockets with shared fragmented buddy pools
(:mod:`repro.sim.datacenter.topology`), per-tenant
ME-HPT/ECPT/radix tables placed in those pools, per-socket round-robin
scheduling with :class:`~repro.kernel.context.ContextSwitchModel`
switch costs, fork/exec/exit churn, TLB-shootdown accounting
(:mod:`repro.sim.datacenter.shootdown`), and Mitosis-style
replication/migration policies
(:mod:`repro.sim.datacenter.replication`).

Every page-table cache line a walk touches is charged local or remote
DRAM latency according to where the owning node/chunk physically lives
— which is the mechanism that lets the datacenter experiment answer
"does ME-HPT replicate more cheaply than radix?".

The paper's Section V-C context-switch claim runs on the same loop as
a one-socket cell: ``DatacenterParams(sockets=1, processes=len(apps),
policy="none", frag_fraction=0.0)`` with no churn, read through
:meth:`~repro.sim.datacenter.results.DatacenterResult.l2p_overhead`
(``examples/multiprocess_study.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, get_type_hints

from repro.common.errors import ConfigurationError, MEHPTError
from repro.common.units import MB, PAGE_4K
from repro.kernel.context import ContextSwitchModel
from repro.kernel.process import Process
from repro.mem.alloc_cost import AllocationCostModel
from repro.mmu.walk_batch import NumaCacheBatch
from repro.obs import build_observability
from repro.obs.trace import (
    EVENT_PROCESS_LIFECYCLE,
    EVENT_RUN_END,
    EVENT_RUN_START,
)
from repro.sim.config import (
    SCALAR_FIELD_TYPES,
    SimulationConfig,
    check_trace_length,
    fits_field,
)
from repro.sim.datacenter.replication import (
    POLICIES,
    PlacementUnit,
    ReplicationEngine,
)
from repro.sim.datacenter.results import DatacenterResult
from repro.sim.datacenter.shootdown import ShootdownModel
from repro.sim.datacenter.topology import (
    Machine,
    NumaCacheHierarchy,
    SocketPoolAllocator,
)
from repro.sim.quantum import QuantumEngine
from repro.workloads import get_workload

#: Prefix marking sweep-cell overrides that parameterize the datacenter
#: model rather than :class:`~repro.sim.config.SimulationConfig`.
DC_PREFIX = "dc_"


@dataclass(frozen=True)
class DatacenterParams:
    """Knobs of the machine model, set via ``dc_*`` sweep overrides.

    All fields are scalars so the sweep engine's disk cache can
    fingerprint them; :meth:`from_overrides` maps ``dc_sockets=4`` to
    ``sockets=4`` etc. and validates ranges.
    """

    sockets: int = 2
    processes: int = 8
    policy: str = "none"
    quantum: int = 2000
    cores_per_socket: int = 8
    #: Scheduler steps between churn events (0 disables churn).
    churn_every: int = 0
    #: Replacement tenants the churn model may fork over the whole run.
    max_forks: int = 8
    #: Scheduler steps between cross-socket rebalances (0 disables).
    rebalance_every: int = 3
    remote_dram_delta: float = 120.0
    #: Buddy-pool size per socket, in MB.
    pool_mb: int = 64
    #: Fraction of each pool pre-fragmented before tenants arrive.
    frag_fraction: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on wrong-typed or
        out-of-range values."""
        for name, field_type in get_type_hints(DatacenterParams).items():
            value = getattr(self, name)
            if not fits_field(value, field_type):
                raise ConfigurationError(
                    f"{DC_PREFIX}{name} must be "
                    f"{SCALAR_FIELD_TYPES[field_type][1]}, got {value!r}"
                )
        if self.sockets < 1:
            raise ConfigurationError("dc_sockets must be >= 1")
        if self.processes < 1:
            raise ConfigurationError("dc_processes must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"dc_policy {self.policy!r} not in {POLICIES}"
            )
        if self.quantum < 1:
            raise ConfigurationError("dc_quantum must be >= 1")
        if self.cores_per_socket < 1:
            raise ConfigurationError("dc_cores_per_socket must be >= 1")
        if self.churn_every < 0 or self.rebalance_every < 0:
            raise ConfigurationError("dc churn/rebalance periods must be >= 0")
        if self.max_forks < 0:
            raise ConfigurationError("dc_max_forks must be >= 0")
        if not (
            self.remote_dram_delta >= 0
            and float(self.remote_dram_delta).is_integer()
        ):
            # Batched walk latencies are int64 cycle counts.
            raise ConfigurationError(
                "dc_remote_dram_delta must be a whole number of cycles >= 0"
            )
        if self.pool_mb < 1:
            raise ConfigurationError("dc_pool_mb must be >= 1")
        if not 0.0 <= self.frag_fraction < 1.0:
            raise ConfigurationError("dc_frag_fraction must be in [0, 1)")

    @classmethod
    def from_overrides(cls, overrides: Dict[str, object]) -> "DatacenterParams":
        """Build params from ``dc_*``-prefixed override names."""
        mapping = {DC_PREFIX + f.name: f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(overrides) - set(mapping))
        if unknown:
            raise ConfigurationError(
                f"unknown datacenter override(s) {unknown}; "
                f"valid: {sorted(mapping)}"
            )
        params = cls(**{mapping[k]: v for k, v in overrides.items()})
        params.validate()
        return params


def split_overrides(
    overrides: Dict[str, object],
) -> Tuple[DatacenterParams, Dict[str, object]]:
    """Split sweep-cell overrides into (validated dc params, config kwargs)."""
    dc: Dict[str, object] = {}
    config: Dict[str, object] = {}
    for name, value in overrides.items():
        (dc if name.startswith(DC_PREFIX) else config)[name] = value
    return DatacenterParams.from_overrides(dc), config


class Tenant:
    """One tenant process plus its placement state on the machine."""

    def __init__(
        self,
        index: int,
        app: str,
        system,
        driver: QuantumEngine,
        pool: SocketPoolAllocator,
        socket: int,
        cores_per_socket: int,
    ) -> None:
        self.index = index
        self.app = app
        self.system = system
        #: Runs the tenant's quanta and owns its process cursor.
        self.driver = driver
        self.process: Process = driver.process
        self.pool = pool
        #: Socket the scheduler currently runs this tenant on.
        self.socket = socket
        #: Socket its page-table units were last homed to (migrate policy).
        self.table_home = socket
        self.cores_per_socket = cores_per_socket
        self.touched_cores = {(socket, index % cores_per_socket)}
        #: base_line -> PlacementUnit for every registered unit.
        self.units: Dict[int, PlacementUnit] = {}
        #: Radix node addr -> pool handle backing it.
        self.node_handles: Dict[int, int] = {}
        self.charged_faults = 0
        self.active = True
        #: Placement-change signature recorded after the last unit scan.
        self.scan_sig: Optional[Tuple[int, int]] = None

    @property
    def name(self) -> str:
        return self.process.name

    def touch(self) -> None:
        """Record the core about to run this tenant's quantum."""
        self.touched_cores.add((self.socket, self.index % self.cores_per_socket))

    def back_node(self, addr: int) -> int:
        """Pool handle backing radix node ``addr``, allocated on first use.

        Backing nodes with real frames from the shared pools keeps their
        placement (and fault injection) live.
        """
        if addr not in self.node_handles:
            self.node_handles[addr] = self.pool.alloc(PAGE_4K)
        return self.node_handles[addr]


class DatacenterSimulator:
    """Runs tenants to completion on the NUMA machine; see module doc."""

    def __init__(
        self,
        apps: List[str],
        config: SimulationConfig,
        params: Optional[DatacenterParams] = None,
        trace_length: int = 30_000,
        switch_model: Optional[ContextSwitchModel] = None,
    ) -> None:
        if not apps:
            raise ConfigurationError("need at least one app")
        check_trace_length(trace_length)
        self.params = params if params is not None else DatacenterParams()
        self.params.validate()
        self.config = config
        self.apps = list(apps)
        self.trace_length = trace_length
        self.switch_model = (
            switch_model if switch_model is not None else ContextSwitchModel()
        )
        self.machine = Machine(
            self.params.sockets,
            self.params.pool_mb * MB,
            remote_dram_delta=self.params.remote_dram_delta,
        )
        self.machine.fragment(self.params.frag_fraction)
        base_caches = config.build_cache_hierarchy()
        self.caches = NumaCacheHierarchy(
            self.machine,
            levels=base_caches.levels,
            dram_cycles=base_caches.dram_cycles,
        )
        self.shootdown = ShootdownModel()
        self.replication = ReplicationEngine(self.params.policy, self.machine)
        self.obs = build_observability(config.obs)
        #: Tenant build config: observability stays at the machine level
        #: (per-tenant registries would collide on shared metric names).
        self._tenant_config = dataclasses.replace(config, obs=None)
        self.tenants: List[Tenant] = []
        self._current: Dict[int, Optional[Tenant]] = {}
        self._next_index = 0
        self._rebalance_pick = 0
        self.run_cycles = 0.0
        self.switch_cycles = 0.0
        self.l2p_switch_cycles = 0.0
        self.l2p_samples: List[int] = []
        self.forks = 0
        self.exits = 0
        self.pool_alloc_failures = 0
        self.failed = False
        self.failure_reason = ""
        self._clock = 0.0
        #: The cache mirror every tenant's batched engine shares; scalar
        #: quanta never probe it, so its write-back then installs nothing.
        self._cache_batch = NumaCacheBatch(self.caches)
        if self.obs is not None and self.obs.registry is not None:
            self.obs.registry.add_collector(self._collect_metrics)

    # -- tenant lifecycle ----------------------------------------------

    def _spawn_tenant(self, app: str, socket: int, phase: str) -> Tenant:
        """Build one tenant's system from the shared pools and home it."""
        index = self._next_index
        self._next_index += 1
        plan = (
            self.config.fault_plan.replicate()
            if self.config.fault_plan is not None
            else None
        )
        pool = SocketPoolAllocator(
            self.machine,
            cost_model=AllocationCostModel(),
            preferred_socket=socket,
            fault_plan=plan,
            recovery=self.config.recovery,
        )
        workload = get_workload(
            app, scale=self.config.scale, seed=self.config.seed + index
        )
        try:
            system = self._tenant_config.build(
                workload, allocator=pool, caches=self.caches, numa=self.machine
            )
        except MEHPTError:
            pool.release_all()
            raise
        process = Process(
            name=f"{app}#{index}",
            address_space=system.address_space,
            tlb=system.tlb,
            trace=workload.trace(self.trace_length, seed_offset=index),
            org=system.org,
        )
        driver = QuantumEngine(
            process, system, caches=self._cache_batch, machine=self.machine
        )
        tenant = Tenant(
            index, app, system, driver, pool, socket,
            self.params.cores_per_socket,
        )
        self.tenants.append(tenant)
        self._scan_units(tenant)
        self._emit_lifecycle(tenant, phase)
        return tenant

    def _emit_lifecycle(self, tenant: Tenant, phase: str, **extra) -> None:
        if self.obs is not None:
            self.obs.advance_clock(int(self._clock))
            self.obs.emit(
                EVENT_PROCESS_LIFECYCLE,
                tenant=tenant.name, phase=phase, socket=tenant.socket,
                **extra,
            )

    def _exit_tenant(self, tenant: Tenant, reason: str) -> None:
        """Tear a tenant down: shootdown, unhome its units, free its pool."""
        # Install the final TLB contents (finished and churn-killed
        # tenants alike) so post-run TLB state matches scalar runs.
        tenant.driver.finalize()
        cores = len(tenant.touched_cores)
        if self.replication.policy == "replicate":
            cores += self.machine.sockets - 1
        if self.obs is not None:
            self.obs.advance_clock(int(self._clock))
        self._clock += self.shootdown.broadcast(
            cores, reason, tenant.name, obs=self.obs
        )
        for base_line in tenant.units:
            self.machine.home_map.unregister(base_line)
        tenant.units.clear()
        tenant.pool.release_all()
        tenant.active = False
        self.exits += 1
        if self._current.get(tenant.socket) is tenant:
            self._current[tenant.socket] = None
        self._emit_lifecycle(tenant, "exit", reason=reason)

    def _churn(self) -> None:
        """Kill the oldest tenant; fork a replacement if budget remains."""
        living = [t for t in self.tenants if t.active]
        if len(living) < 2:
            return
        victim = living[0]
        self._exit_tenant(victim, "churn")
        if self.forks >= self.params.max_forks:
            return
        self.forks += 1
        try:
            self._spawn_tenant(victim.app, victim.socket, "fork")
        except MEHPTError:
            # The fork's table build could not be placed (pool pressure
            # or an injected abort): the fork is dropped, not the run.
            self.pool_alloc_failures += 1

    def _rebalance(self) -> None:
        """Rotate one tenant to the next socket (cross-socket pressure)."""
        if self.machine.sockets < 2:
            return
        living = [t for t in self.tenants if t.active]
        if not living:
            return
        tenant = living[self._rebalance_pick % len(living)]
        self._rebalance_pick += 1
        tenant.socket = (tenant.socket + 1) % self.machine.sockets

    # -- placement scanning --------------------------------------------

    def _scan_sig(self, tenant: Tenant) -> Tuple[int, int]:
        """Placement-change signature: pool epoch + table growth count.

        Every event that can add/move/remove a placement unit — table
        resizes, lazy radix node backing, pool frees at teardown — goes
        through the tenant's pool allocator (bumping ``alloc_epoch``) or
        grows the table outside the pool (the organization's ``growth``
        count: the radix node count), so an unchanged signature means
        the last scan's registrations still hold.
        """
        system = tenant.system
        return tenant.pool.alloc_epoch, system.org.growth(system.page_tables)

    def _scan_units(self, tenant: Tenant) -> None:
        """Register new units, unregister stale ones (resize shootdown)."""
        if tenant.scan_sig == self._scan_sig(tenant):
            return
        live: Dict[int, Tuple[int, int, int]] = {}
        system = tenant.system
        for base_line, n_lines, nbytes, handle in system.org.placements(
            system.page_tables, tenant.back_node
        ):
            live[base_line] = (n_lines, nbytes, handle)
        stale = [base for base in tenant.units if base not in live]
        for base_line in stale:
            self.machine.home_map.unregister(base_line)
            del tenant.units[base_line]
        if stale:
            # A resize released old ways whose translations other cores
            # may cache: one batched shootdown per scan.
            if self.obs is not None:
                self.obs.advance_clock(int(self._clock))
            self._clock += self.shootdown.broadcast(
                len(tenant.touched_cores), "resize", tenant.name, obs=self.obs
            )
        for base_line, (n_lines, nbytes, handle) in live.items():
            if base_line in tenant.units:
                continue
            unit = PlacementUnit(
                base_line, n_lines, nbytes, tenant.pool.socket_of(handle)
            )
            self.machine.home_map.register(base_line, n_lines, unit.socket)
            self._clock += self.replication.on_unit_registered(unit)
            tenant.units[base_line] = unit
        # Record *after* the scan: the radix walk above may itself have
        # allocated node backing, bumping the pool epoch.
        tenant.scan_sig = self._scan_sig(tenant)

    def _migrate(self, tenant: Tenant) -> None:
        """Migrate-on-first-touch: re-home the tenant's units, once."""
        if self.obs is not None:
            self.obs.advance_clock(int(self._clock))
        before = self.replication.migrations
        self._clock += self.replication.migrate_units(
            tenant.units.values(), tenant.socket, tenant.name, obs=self.obs
        )
        if self.replication.migrations > before:
            self._clock += self.shootdown.broadcast(
                len(tenant.touched_cores), "migrate", tenant.name, obs=self.obs
            )
        tenant.table_home = tenant.socket

    # -- scheduling ----------------------------------------------------

    def _run_quantum(self, tenant: Tenant) -> None:
        self.machine.active_socket = tenant.socket
        tenant.pool.preferred_socket = tenant.socket
        tenant.touch()
        current = self._current.get(tenant.socket)
        if current is not tenant:
            base = self.switch_model.base_cycles
            cost = self.switch_model.switch_cost(
                current.process.l2p if current is not None else None,
                tenant.process.l2p,
            )
            self.switch_cycles += cost
            self.l2p_switch_cycles += cost - base
            self._clock += cost
            self._current[tenant.socket] = tenant
        if self.replication.policy == "migrate" and tenant.table_home != tenant.socket:
            self._migrate(tenant)
        cycles = tenant.driver.run_quantum(self.params.quantum)
        self.run_cycles += cycles
        self._clock += cycles
        # Sample the L2P *after* the quantum, when the table is
        # populated with this tenant's working set.
        if tenant.process.l2p is not None:
            self.l2p_samples.append(tenant.process.l2p.entries_used())
        self._scan_units(tenant)
        faults = tenant.process.address_space.totals.faults
        delta = faults - tenant.charged_faults
        tenant.charged_faults = faults
        self._clock += self.replication.on_faults(delta)
        if tenant.process.finished:
            self._exit_tenant(tenant, "exit")

    def run(self) -> DatacenterResult:
        """Run every tenant to completion; returns the aggregate result.

        Structured model failures (injected aborts that exhaust
        recovery, pool exhaustion at initial build) mark the result
        ``failed`` rather than raising, matching the sweep engine's
        record-everything contract.
        """
        if self.obs is not None:
            self.obs.emit(
                EVENT_RUN_START,
                model="datacenter",
                organization=self.config.organization,
                policy=self.params.policy,
                sockets=self.params.sockets,
                processes=self.params.processes,
            )
        try:
            for i in range(self.params.processes):
                self._spawn_tenant(
                    self.apps[i % len(self.apps)],
                    i % self.params.sockets,
                    "spawn",
                )
            step = 0
            while True:
                living = [t for t in self.tenants if t.active]
                if not living:
                    break
                for tenant in living:
                    if not tenant.active:
                        continue  # churned out earlier this round
                    step += 1
                    self._run_quantum(tenant)
                    if (
                        self.params.churn_every
                        and step % self.params.churn_every == 0
                    ):
                        self._churn()
                    if (
                        self.params.rebalance_every
                        and step % self.params.rebalance_every == 0
                    ):
                        self._rebalance()
        except MEHPTError as exc:
            self.failed = True
            self.failure_reason = f"{type(exc).__name__}: {exc}"
            # Install the live tenants' TLB contents, as scalar runs
            # leave them.
            for tenant in self.tenants:
                if tenant.active:
                    tenant.driver.finalize()
        return self._result()

    # -- reporting -----------------------------------------------------

    def total_cycles(self) -> float:
        """Quanta + switches + shootdowns + replication + migration."""
        return (
            self.run_cycles
            + self.switch_cycles
            + self.shootdown.cycles
            + self.replication.replication_cycles
            + self.replication.migration_cycles
        )

    def _collect_metrics(self, registry) -> None:
        machine = self.machine
        for socket in range(machine.sockets):
            registry.counter("numa.walks", socket=socket).set_total(
                machine.walks_by_socket[socket]
            )
            registry.counter("numa.walk_cycles", socket=socket).set_total(
                machine.walk_cycles_by_socket[socket]
            )
        registry.counter("numa.local_dram_accesses").set_total(
            machine.local_dram_accesses
        )
        registry.counter("numa.remote_dram_accesses").set_total(
            machine.remote_dram_accesses
        )
        registry.counter("numa.remote_delta_cycles").set_total(
            machine.remote_delta_cycles
        )
        registry.counter("numa.pool_spill_allocations").set_total(
            machine.spill_allocations
        )
        registry.counter("numa.replicated_bytes").set_total(
            self.replication.replicated_bytes
        )
        registry.counter("numa.replica_updates").set_total(
            self.replication.replica_updates
        )
        registry.counter("numa.migrated_bytes").set_total(
            self.replication.migrated_bytes
        )
        registry.counter("dc.shootdowns").set_total(self.shootdown.shootdowns)
        registry.counter("dc.shootdown_ipis").set_total(self.shootdown.ipis)
        registry.counter("dc.shootdown_cycles").set_total(self.shootdown.cycles)
        registry.counter("dc.context_switches").set_total(
            self.switch_model.switches
        )
        registry.counter("dc.forks").set_total(self.forks)
        registry.counter("dc.exits").set_total(self.exits)
        registry.counter("dc.pool_alloc_failures").set_total(
            self.pool_alloc_failures
        )

    def _result(self) -> DatacenterResult:
        # Deferred NUMA DRAM accounting must land on the machine before
        # the result fields below read it.
        self._cache_batch.write_back()
        total = self.total_cycles()
        result = DatacenterResult(
            organization=self.config.organization,
            policy=self.params.policy,
            sockets=self.params.sockets,
            processes=self.params.processes,
            cores_per_socket=self.params.cores_per_socket,
            tenants_spawned=self._next_index,
            total_cycles=total,
            run_cycles=self.run_cycles,
            switches=self.switch_model.switches,
            switch_cycles=self.switch_cycles,
            l2p_switch_cycles=self.l2p_switch_cycles,
            mean_l2p_entries=(
                sum(self.l2p_samples) / len(self.l2p_samples)
                if self.l2p_samples
                else 0.0
            ),
            shootdowns=self.shootdown.shootdowns,
            shootdown_ipis=self.shootdown.ipis,
            shootdown_cycles=self.shootdown.cycles,
            replicated_bytes=self.replication.replicated_bytes,
            replica_updates=self.replication.replica_updates,
            replication_cycles=self.replication.replication_cycles,
            migrations=self.replication.migrations,
            migrated_units=self.replication.migrated_units,
            migrated_bytes=self.replication.migrated_bytes,
            migration_cycles=self.replication.migration_cycles,
            walks_by_socket=list(self.machine.walks_by_socket),
            walk_cycles_by_socket=list(self.machine.walk_cycles_by_socket),
            local_dram_accesses=self.machine.local_dram_accesses,
            remote_dram_accesses=self.machine.remote_dram_accesses,
            remote_delta_cycles=self.machine.remote_delta_cycles,
            spill_allocations=self.machine.spill_allocations,
            pool_alloc_failures=self.pool_alloc_failures,
            accesses=sum(t.process.accesses_done for t in self.tenants),
            faults=sum(
                t.process.address_space.totals.faults for t in self.tenants
            ),
            forks=self.forks,
            exits=self.exits,
            failed=self.failed,
            failure_reason=self.failure_reason,
        )
        if self.obs is not None:
            self.obs.advance_clock(int(self._clock))
            self.obs.emit(
                EVENT_RUN_END,
                model="datacenter",
                total_cycles=total,
                shootdowns=self.shootdown.shootdowns,
                forks=self.forks,
                exits=self.exits,
            )
            result.metrics = self.obs.snapshot_metrics()
            self.obs.close()
        return result
