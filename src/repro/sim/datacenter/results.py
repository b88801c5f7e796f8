"""Result container for one multi-tenant NUMA datacenter run.

:class:`DatacenterResult` is deliberately dependency-free (stdlib
dataclasses only) so :mod:`repro.sim.results` can register it with the
sweep engine's record codec without an import cycle, and every field is
a native JSON type so cached cells round-trip the disk cache bit-exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List


@dataclass
class DatacenterResult:
    """Aggregate outcome of one sockets × tenants × policy run.

    Cycle totals decompose as ``total_cycles = run_cycles +
    switch_cycles + shootdown_cycles + replication_cycles +
    migration_cycles`` — the last three are the NUMA taxes the
    experiment compares across page-table organizations.
    """

    organization: str
    policy: str
    sockets: int
    processes: int
    cores_per_socket: int
    #: Tenants ever spawned (initial set + churn forks).
    tenants_spawned: int = 0
    total_cycles: float = 0.0
    run_cycles: float = 0.0
    switches: int = 0
    switch_cycles: float = 0.0
    l2p_switch_cycles: float = 0.0
    mean_l2p_entries: float = 0.0
    shootdowns: int = 0
    shootdown_ipis: int = 0
    shootdown_cycles: float = 0.0
    replicated_bytes: int = 0
    replica_updates: int = 0
    replication_cycles: float = 0.0
    migrations: int = 0
    migrated_units: int = 0
    migrated_bytes: int = 0
    migration_cycles: float = 0.0
    walks_by_socket: List[int] = field(default_factory=list)
    walk_cycles_by_socket: List[float] = field(default_factory=list)
    local_dram_accesses: int = 0
    remote_dram_accesses: int = 0
    remote_delta_cycles: float = 0.0
    spill_allocations: int = 0
    pool_alloc_failures: int = 0
    accesses: int = 0
    faults: int = 0
    forks: int = 0
    exits: int = 0
    failed: bool = False
    failure_reason: str = ""
    #: JSON-safe registry snapshot (empty when observability is off).
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def walks(self) -> int:
        """Total page walks across all sockets."""
        return sum(self.walks_by_socket)

    def remote_dram_fraction(self) -> float:
        """Fraction of walk DRAM accesses that crossed the interconnect."""
        dram = self.local_dram_accesses + self.remote_dram_accesses
        return self.remote_dram_accesses / dram if dram else 0.0

    def switch_overhead(self) -> float:
        """Context-switch share of total cycles."""
        return self.switch_cycles / self.total_cycles if self.total_cycles else 0.0

    def l2p_overhead(self) -> float:
        """L2P save/restore share of total cycles (Section V-C)."""
        return self.l2p_switch_cycles / self.total_cycles if self.total_cycles else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of every field (dataclass ``asdict``)."""
        return asdict(self)
