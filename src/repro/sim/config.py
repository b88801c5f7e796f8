"""Simulation configuration: the Table III machine, scaled assembly.

:class:`SimulationConfig` carries every knob of the modelled server;
:meth:`SimulationConfig.build` assembles a :class:`SimulatedSystem` for a
workload — page tables, walker, TLB hierarchy, and the kernel address
space — for any of the three organizations, whose page tables and
walker come from its object in :mod:`repro.sim.organizations`.

Footprint scaling (``scale``): the workload footprint, the initial HPT
way (128 entries in Table III), and the chunk ladder are all divided by
the same power of two.  Because every structure is a power of two and the
resize/transition thresholds are ratios, the scaled system performs the
*same sequence* of doublings, chunk transitions and L2P reservations as
the full-scale one, with every size exactly ``scale`` times smaller —
reported sizes are multiplied back.  Upsize counts, chunk counts and L2P
entry usage are scale-invariant outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import CACHE_LINE, KB, MB, is_power_of_two
from repro.core.chunks import DEFAULT_CHUNK_SIZES, ChunkLadder
from repro.faults.log import DegradationLog
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.kernel.address_space import AddressSpace
from repro.kernel.thp import ThpPolicy
from repro.mem.alloc_cost import AllocationCostModel
from repro.mem.allocator import CostModelAllocator
from repro.mem.cache import CacheHierarchy, CacheLevel
from repro.mmu.hierarchy import TlbHierarchy
from repro.obs import Observability, ObservabilityConfig, build_observability
from repro.obs.collectors import register_system_metrics
from repro.sim.organizations import REGISTRY
from repro.workloads.base import Workload

#: Valid values for :attr:`SimulationConfig.organization`.
ORGANIZATIONS = tuple(REGISTRY)

#: Valid values for :attr:`SimulationConfig.engine`.
ENGINES = ("auto", "scalar", "vectorized")

#: Value types a scalar config field accepts, by field type, and how
#: errors name them.
SCALAR_FIELD_TYPES = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def fits_field(value: object, field_type: type) -> bool:
    """Whether ``value`` may set a config field of scalar ``field_type``.

    A bool fits only a bool field, although ``True`` is an ``int``.
    """
    accepted = SCALAR_FIELD_TYPES[field_type][0]
    return isinstance(value, accepted) and isinstance(value, bool) == (
        field_type is bool
    )


def check_trace_length(trace_length: int) -> None:
    """Raise :class:`ConfigurationError` unless a trace length is >= 1."""
    if trace_length <= 0:
        raise ConfigurationError(
            f"trace_length {trace_length} must be > 0",
            field="trace_length", value=trace_length,
        )


def check_warmup_fraction(warmup_fraction: float) -> None:
    """Raise :class:`ConfigurationError` unless ``0 <= warmup_fraction < 1``."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction {warmup_fraction} must be in [0, 1) — the "
            f"measured window must be non-empty",
            field="warmup_fraction", value=warmup_fraction,
        )


@dataclass
class SimulationConfig:
    """All machine and methodology parameters (defaults = Table III)."""

    organization: str = "mehpt"
    thp_enabled: bool = False
    fmfi: float = 0.7
    scale: int = 16
    seed: int = 12345

    # Processor/memory model.
    base_cycles_per_access: float = 6.0
    dram_cycles: int = 200
    l2_cache_kb: int = 512
    l3_cache_mb: int = 16
    #: Share of cache capacity page-table lines hold onto while competing
    #: with the data stream of memory-intensive workloads.
    cache_pt_fraction: float = 0.03
    #: Scale the cache model's effective capacity with the footprint so a
    #: 1/scale run preserves the full-scale cache-residency relationships
    #: of the page-table structures (see module docstring).
    scale_cache_with_footprint: bool = True

    # TLBs / PWCs / CWCs (geometry defaults live in their modules).
    pwc_entries_per_level: int = 32
    pmd_cwc_entries: int = 16
    pud_cwc_entries: int = 2
    cwc_cycles: int = 4
    l2p_cycles: int = 4

    # HPT parameters.
    ways: int = 3
    initial_way_slots: int = 128
    upsize_threshold: float = 0.6
    downsize_threshold: float = 0.2
    rehashes_per_insert: int = 2
    allow_downsize: bool = False  # the paper observes no downsizes
    chunk_sizes: Tuple[int, ...] = DEFAULT_CHUNK_SIZES
    max_chunks_per_way: int = 64
    enable_inplace: bool = True
    enable_perway: bool = True

    # Radix parameters.
    radix_levels: int = 4

    # Kernel model.
    fault_overhead_cycles: float = 1200.0
    reinsert_cycles: float = 120.0
    #: OS + memory-traffic cycles per page-table entry physically moved by
    #: gradual rehashing (a line read + write + bookkeeping).  In-place
    #: resizing halves these moves (Section VII-E3).
    rehash_entry_cycles: float = 150.0
    charge_data_alloc: bool = False  # identical across organizations

    # Fault injection / robustness (repro.faults).
    #: Fault plan template; each build() replicates it (fresh counters) so
    #: repeated builds see identical, deterministic fault sequences.
    fault_plan: Optional[FaultPlan] = None
    #: Retry-with-backoff parameters; None = DEFAULT_RECOVERY when a plan
    #: is armed.
    recovery: Optional[RecoveryPolicy] = None
    #: Run check_invariants() on the page tables every N simulated
    #: accesses / populated pages (0 = disabled).
    invariant_check_every: int = 0

    # Observability (repro.obs).  None = fully disabled: no registry, no
    # tracer, and every instrumentation site short-circuits on a None
    # check — results are bit-identical to a build without the layer.
    obs: Optional[ObservabilityConfig] = None

    # Trace-driven input (repro.traces).  When set, ``build()`` may be
    # called without a workload: the ``.vpt`` file at this path is loaded
    # as a TraceWorkload and replayed instead of a synthetic generator.
    trace_file: Optional[str] = None

    # Simulation engine (repro.sim.fastpath).  "auto" picks the
    # vectorized batched engine; "scalar"/"vectorized" force one.
    # Results are bit-identical either way — including traced event
    # streams, which the vectorized engine synthesizes in per-access
    # order — so this knob is deliberately absent from the sweep
    # engine's cache keys.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.obs is not None:
            self.obs.validate()
        if self.organization not in ORGANIZATIONS:
            raise ConfigurationError(
                f"organization {self.organization!r} not in {ORGANIZATIONS}",
                field="organization", value=self.organization,
            )
        if not is_power_of_two(self.scale):
            raise ConfigurationError(
                f"scale {self.scale} must be a power of two",
                field="scale", value=self.scale,
            )
        if not 0.0 <= self.fmfi < 1.0:
            raise ConfigurationError(
                f"fmfi {self.fmfi} must be in [0, 1) — 1.0 would mean no "
                f"free memory at any granularity",
                field="fmfi", value=self.fmfi,
            )
        if self.invariant_check_every < 0:
            raise ConfigurationError(
                f"invariant_check_every {self.invariant_check_every} must be >= 0",
                field="invariant_check_every", value=self.invariant_check_every,
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine {self.engine!r} not in {ENGINES}",
                field="engine", value=self.engine,
            )

    def resolve_engine(self) -> str:
        """The engine the simulator will actually run: scalar or vectorized.

        ``auto`` selects the vectorized engine.  Tracing no longer forces
        the scalar engine: the batched engine synthesizes the per-access
        event stream from its batch results, byte-identically.
        :func:`repro.sim.fastpath.make_engine` is the one caller.
        """
        return "scalar" if self.engine == "scalar" else "vectorized"

    # -- scaled parameters -------------------------------------------------

    def scaled_initial_slots(self) -> int:
        return max(4, self.initial_way_slots // self.scale)

    def scaled_ladder(self) -> ChunkLadder:
        sizes = []
        for size in self.chunk_sizes:
            scaled = max(CACHE_LINE, size // self.scale)
            if scaled not in sizes:
                sizes.append(scaled)
        return ChunkLadder(sizes, max_chunks_per_way=self.max_chunks_per_way)

    # -- assembly ------------------------------------------------------------

    def build_cache_hierarchy(self) -> CacheHierarchy:
        divisor = self.scale if self.scale_cache_with_footprint else 1
        fraction = self.cache_pt_fraction / divisor
        return CacheHierarchy(
            levels=[
                CacheLevel("L2", self.l2_cache_kb * KB, 8, 16,
                           effective_fraction=fraction),
                CacheLevel("L3", self.l3_cache_mb * MB, 16, 56,
                           effective_fraction=fraction),
            ],
            dram_cycles=self.dram_cycles,
        )

    def load_trace_workload(self):
        """The :class:`~repro.traces.workload.TraceWorkload` for ``trace_file``."""
        if self.trace_file is None:
            raise ConfigurationError(
                "no workload given and no trace_file configured",
                field="trace_file", value=None,
            )
        from repro.traces.workload import TraceWorkload

        return TraceWorkload(self.trace_file)

    def build(
        self,
        workload: Optional[Workload] = None,
        allocator=None,
        caches=None,
        numa=None,
    ) -> "SimulatedSystem":
        """Assemble page tables, walker, TLBs, and kernel for ``workload``.

        With no workload argument the configured ``trace_file`` is loaded
        and replayed (the trace-driven path).  The datacenter model passes
        ``allocator`` (a shared-pool allocator replacing the per-system
        :class:`CostModelAllocator`), ``caches`` (a NUMA-aware hierarchy
        shared across tenants), and ``numa`` (the per-walk socket
        accounting hook threaded into :class:`TlbHierarchy`).
        """
        if workload is None:
            workload = self.load_trace_workload()
        cost_model = AllocationCostModel()
        if caches is None:
            caches = self.build_cache_hierarchy()
        obs = build_observability(self.obs)
        # Trace-backed workloads report reader/writer activity into the
        # run's registry; synthetic workloads have no such hook.
        bind_obs = getattr(workload, "bind_observability", None)
        if bind_obs is not None and obs is not None:
            bind_obs(obs)
        degradation = DegradationLog(obs=obs)
        # Replicate the plan so each build starts from fresh counters and
        # the fault sequence is identical across repeated builds.
        plan = self.fault_plan.replicate() if self.fault_plan is not None else None
        if allocator is None:
            allocator = CostModelAllocator(
                cost_model,
                fmfi=self.fmfi,
                scale=self.scale,
                fault_plan=plan,
                recovery=self.recovery,
                degradation=degradation,
            )

        tables, walker = REGISTRY[self.organization].build(
            self, allocator, caches, plan, degradation, obs
        )

        thp = ThpPolicy(
            enabled=self.thp_enabled,
            coverage=workload.spec.thp_coverage,
            seed=self.seed,
        )
        aspace = AddressSpace(
            tables,
            thp=thp,
            cost_model=cost_model,
            fmfi=self.fmfi,
            fault_overhead_cycles=self.fault_overhead_cycles,
            reinsert_cycles=self.reinsert_cycles,
            charge_data_alloc=self.charge_data_alloc,
            obs=obs,
        )
        for start, pages, name in workload.vma_layout():
            aspace.add_vma(start, pages, name)
        tlb = TlbHierarchy(walker, obs=obs, numa=numa)
        system = SimulatedSystem(
            self, workload, tables, walker, tlb, aspace, allocator, degradation,
            obs,
        )
        if obs is not None and obs.registry is not None:
            register_system_metrics(obs.registry, system)
        return system


@dataclass
class SimulatedSystem:
    """Everything one simulation run needs, assembled for one workload."""

    config: SimulationConfig
    workload: Workload
    page_tables: object
    walker: object
    tlb: TlbHierarchy
    address_space: AddressSpace
    allocator: CostModelAllocator
    #: Degradation events recorded by the allocator, resize engines and
    #: fault hooks during this run.
    degradation: DegradationLog = field(default_factory=DegradationLog)
    #: The run's observability layer (None when disabled); owns the
    #: metrics registry, the trace sink, and the sim-cycle clock.
    obs: Optional[Observability] = None

    @property
    def org(self):
        """The organization object (:mod:`repro.sim.organizations`)."""
        return REGISTRY[self.config.organization]


def table3_parameters() -> Dict[str, str]:
    """The architectural parameters of Table III, for printing/inspection."""
    return {
        "Processor": "8 OoO cores, 256-entry ROB, 2GHz",
        "L1 caches": "32KB, 8-way, 2 cycles RT",
        "L2 cache": "512KB, 8-way, 16 cycles RT",
        "L3 cache": "2MB per core, 16-way, 56 avg cycles RT",
        "L1 DTLB (4KB)": "64 entries, 4-way, 2 cycles RT",
        "L1 DTLB (2MB)": "32 entries, 4-way, 2 cycles RT",
        "L1 DTLB (1GB)": "4 entries, 2 cycles RT",
        "L2 DTLB (4KB)": "1024 entries, 8-way, 12 cycles RT",
        "L2 DTLB (2MB)": "1024 entries, 8-way, 12 cycles RT",
        "L2 DTLB (1GB)": "16 entries, 4-way, 12 cycles RT",
        "PWC (radix)": "3 levels, 32 entries/level, 4 cycles RT",
        "Memory latency": "200 cycles RT average",
        "Initial HPT": "128 entries x 3 ways per page size",
        "PMD-CWC / PUD-CWC": "16 entries / 2 entries, 4 cycles RT",
        "Hash functions": "CRC, 2-cycle latency",
        "L2P table": "32 entries x 3 ways x 3 page sizes (1.16KB)",
        "Shift + L2P + mask": "4-cycle latency",
        "Chunk sizes": "8KB, 1MB used; 8MB, 64MB unused",
        "HPT occupancy thresholds": "0.6 upsize, 0.2 downsize",
        "Memory fragmentation": "0.7 FMFI",
    }
