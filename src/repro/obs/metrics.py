"""The metrics registry: named counters, gauges and histograms.

Every number the observability layer can report is declared **once**, in
:data:`CATALOGUE`, with its kind, unit, owning module and description.
Components obtain metric instances from a :class:`MetricsRegistry`
(optionally with labels, e.g. the page size of a cuckoo table); the
registry refuses names that are not in the catalogue, so the catalogue,
the code and ``OBSERVABILITY.md`` cannot silently drift apart — the
docs-consistency check in :mod:`repro.obs.doccheck` closes the loop on
the documentation side.

Two usage styles:

* **Live metrics** — hot paths hold a metric object and update it per
  event (only the walk-latency histogram does this; the update is one
  dict increment).
* **Collectors** — components register a callback via
  :meth:`MetricsRegistry.add_collector` that copies their existing
  counters into the registry when a snapshot is taken.  This is the
  default style: the simulator already counts everything the paper's
  figures need, so observing it costs nothing until
  :meth:`MetricsRegistry.snapshot` runs.

Snapshots are plain JSON-safe dictionaries (string keys throughout) so
they round-trip bit-exactly through the sweep engine's disk cache —
``tests/test_obs_metrics.py`` asserts registry → result → disk → load
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Catalogue entry: what a metric means and who owns it."""

    kind: str
    unit: str
    owner: str
    description: str


#: Every metric name the layer may register, with unit/owner/description.
#: ``OBSERVABILITY.md``'s metric catalogue is checked against this table
#: (both directions) by :mod:`repro.obs.doccheck`.
CATALOGUE: Dict[str, MetricSpec] = {
    # -- simulator (repro.sim.simulator) --------------------------------
    "sim.trace_events": MetricSpec(
        KIND_COUNTER, "events", "repro.sim.simulator",
        "Trace events simulated, including the warmup window."),
    "sim.accesses": MetricSpec(
        KIND_COUNTER, "accesses", "repro.sim.simulator",
        "Measured-window accesses (trace events x page repeats)."),
    "sim.translation_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.sim.simulator",
        "Translation cycles accumulated in the measured window."),
    "sim.populated_pages": MetricSpec(
        KIND_COUNTER, "pages", "repro.sim.simulator",
        "Pages demand-faulted by populate_tables."),
    # -- TLB hierarchy (repro.mmu.hierarchy) ----------------------------
    "tlb.translations": MetricSpec(
        KIND_COUNTER, "translations", "repro.mmu.hierarchy",
        "Translations requested from the TLB hierarchy."),
    "tlb.l1_hits": MetricSpec(
        KIND_COUNTER, "hits", "repro.mmu.hierarchy",
        "Translations satisfied by an L1 DTLB (zero visible latency)."),
    "tlb.l2_hits": MetricSpec(
        KIND_COUNTER, "hits", "repro.mmu.hierarchy",
        "Translations satisfied by an L2 DTLB."),
    "tlb.walks": MetricSpec(
        KIND_COUNTER, "walks", "repro.mmu.hierarchy",
        "Full TLB misses that invoked the page walker."),
    "tlb.faults": MetricSpec(
        KIND_COUNTER, "faults", "repro.mmu.hierarchy",
        "Walks that found no mapping (page faults followed)."),
    # -- page walkers (repro.ecpt.walker / repro.radix.walker) ----------
    "walker.walks": MetricSpec(
        KIND_COUNTER, "walks", "repro.ecpt.walker",
        "Page walks performed by the organization's walker."),
    "walker.walk_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.ecpt.walker",
        "Total walk latency, including MMU cache lookups."),
    "walker.memory_accesses": MetricSpec(
        KIND_COUNTER, "accesses", "repro.ecpt.walker",
        "Walk references that reached the cache hierarchy."),
    "walker.walk_latency": MetricSpec(
        KIND_HISTOGRAM, "cycles", "repro.ecpt.walker",
        "Per-walk latency distribution (power-of-two bins)."),
    "walker.cwt_memory_reads": MetricSpec(
        KIND_COUNTER, "reads", "repro.ecpt.walker",
        "Cuckoo Walk Table lines read from memory on CWC misses."),
    # -- L2P indirection (repro.core.walker / repro.core.l2p) -----------
    "l2p.hidden_accesses": MetricSpec(
        KIND_COUNTER, "accesses", "repro.core.walker",
        "L2P accesses fully overlapped with the CWC lookup."),
    "l2p.exposed_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.core.walker",
        "Cycles the L2P added on paths where it could not be hidden."),
    "l2p.entries_used": MetricSpec(
        KIND_GAUGE, "entries", "repro.core.l2p",
        "Valid L2P entries across every way and page size (Figure 14)."),
    # -- elastic cuckoo tables (repro.hashing.cuckoo), labelled by size -
    "cuckoo.inserts": MetricSpec(
        KIND_COUNTER, "inserts", "repro.hashing.cuckoo",
        "Insertions into one page size's cuckoo table."),
    "cuckoo.lookups": MetricSpec(
        KIND_COUNTER, "lookups", "repro.hashing.cuckoo",
        "Lookups against one page size's cuckoo table: one per lookup "
        "call, answered from the key index (the walkers charge the "
        "modelled way probes)."),
    "cuckoo.rehash_steps": MetricSpec(
        KIND_COUNTER, "steps", "repro.hashing.cuckoo",
        "Gradual-rehash steps performed across all resizes."),
    "cuckoo.rehash_conflicts": MetricSpec(
        KIND_COUNTER, "conflicts", "repro.hashing.cuckoo",
        "Rehashed entries whose target slot was occupied (cuckooed on)."),
    "cuckoo.eager_migrations": MetricSpec(
        KIND_COUNTER, "migrations", "repro.hashing.cuckoo",
        "Stop-the-world migrations (chunk-size transitions)."),
    "cuckoo.kick_depth": MetricSpec(
        KIND_HISTOGRAM, "kicks", "repro.hashing.cuckoo",
        "Cuckoo re-insertions per operation (Figure 16's distribution)."),
    "cuckoo.occupancy": MetricSpec(
        KIND_GAUGE, "ratio", "repro.hashing.cuckoo",
        "Final occupancy of one page size's table."),
    "cuckoo.total_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.hashing.cuckoo",
        "Final physical bytes of one page size's table (scaled run)."),
    "cuckoo.way_occupancy": MetricSpec(
        KIND_GAUGE, "ratio", "repro.hashing.cuckoo",
        "Final occupancy of one way."),
    "cuckoo.way_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.hashing.cuckoo",
        "Final physical bytes of one way (Figure 12, scaled run)."),
    "cuckoo.way_upsizes": MetricSpec(
        KIND_COUNTER, "resizes", "repro.hashing.cuckoo",
        "Upsizes of one way over the run (Figure 11)."),
    "cuckoo.way_downsizes": MetricSpec(
        KIND_COUNTER, "resizes", "repro.hashing.cuckoo",
        "Downsizes of one way over the run."),
    "cuckoo.way_inplace_upsizes": MetricSpec(
        KIND_COUNTER, "resizes", "repro.hashing.cuckoo",
        "Upsizes of one way that grew storage in place."),
    "cuckoo.way_rollbacks": MetricSpec(
        KIND_COUNTER, "rollbacks", "repro.hashing.cuckoo",
        "In-flight resizes of one way abandoned atomically."),
    "cuckoo.way_rehash_relocated": MetricSpec(
        KIND_COUNTER, "entries", "repro.hashing.cuckoo",
        "Entries physically moved by one way's gradual rehashes (Fig 13)."),
    # -- ME-HPT specifics (repro.core.mehpt) ----------------------------
    "mehpt.chunk_transitions": MetricSpec(
        KIND_COUNTER, "transitions", "repro.core.mehpt",
        "Out-of-place chunk-size transitions for one page size."),
    "mehpt.chunk_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.core.mehpt",
        "Final chunk size of one way's storage."),
    # -- radix baseline (repro.radix.table) ------------------------------
    "radix.table_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.radix.table",
        "Radix page-table node bytes (scaled run)."),
    # -- page-table allocator (repro.mem.allocator) ----------------------
    "alloc.allocations": MetricSpec(
        KIND_COUNTER, "allocations", "repro.mem.allocator",
        "Page-table allocations charged to the cost model."),
    "alloc.frees": MetricSpec(
        KIND_COUNTER, "frees", "repro.mem.allocator",
        "Page-table allocations released."),
    "alloc.cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.mem.allocator",
        "Allocation (and recovery backoff) cycles, full-scale equivalent."),
    "alloc.current_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.mem.allocator",
        "Live page-table bytes at snapshot time, full-scale equivalent."),
    "alloc.peak_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.mem.allocator",
        "Peak page-table bytes, full-scale equivalent (a memory "
        "result's peak_pt_bytes)."),
    "alloc.max_contiguous_bytes": MetricSpec(
        KIND_GAUGE, "bytes", "repro.mem.allocator",
        "Largest single contiguous request (Figure 8's quantity)."),
    "alloc.failed_allocations": MetricSpec(
        KIND_COUNTER, "failures", "repro.mem.allocator",
        "Allocation attempts that failed (before any retry succeeded)."),
    # -- kernel fault handler (repro.kernel.address_space) ---------------
    "kernel.faults": MetricSpec(
        KIND_COUNTER, "faults", "repro.kernel.address_space",
        "Page faults serviced by the address space."),
    "kernel.fault_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.kernel.address_space",
        "Total fault-service cycles (overhead + allocations + kicks)."),
    "kernel.pt_alloc_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.kernel.address_space",
        "Page-table allocation cycles charged inside fault handling."),
    "kernel.data_alloc_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.kernel.address_space",
        "Data-frame allocation cycles (reported, non-differential)."),
    "kernel.reinsert_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.kernel.address_space",
        "OS cycles spent on cuckoo re-insertions during faults."),
    "kernel.kicks": MetricSpec(
        KIND_COUNTER, "kicks", "repro.kernel.address_space",
        "Cuckoo re-insertions caused by fault-path insertions."),
    "kernel.pages_mapped_4k": MetricSpec(
        KIND_COUNTER, "pages", "repro.kernel.address_space",
        "4KB pages mapped by demand faults."),
    "kernel.pages_mapped_2m": MetricSpec(
        KIND_COUNTER, "pages", "repro.kernel.address_space",
        "2MB pages mapped by demand faults (THP)."),
    # -- trace capture/replay (repro.traces.format) ----------------------
    "traces.records_written": MetricSpec(
        KIND_COUNTER, "records", "repro.traces.format",
        "VPN records encoded into .vpt trace chunks."),
    "traces.records_read": MetricSpec(
        KIND_COUNTER, "records", "repro.traces.format",
        "VPN records decoded from .vpt trace chunks."),
    "traces.chunks_written": MetricSpec(
        KIND_COUNTER, "chunks", "repro.traces.format",
        "Trace chunks encoded, checksummed and flushed."),
    "traces.chunks_read": MetricSpec(
        KIND_COUNTER, "chunks", "repro.traces.format",
        "Trace chunks read and CRC-verified."),
    "traces.checksum_failures": MetricSpec(
        KIND_COUNTER, "failures", "repro.traces.format",
        "Chunk CRC32 mismatches detected by readers and validate."),
    # -- fault injection / degradation (repro.faults.log) ----------------
    "faults.events": MetricSpec(
        KIND_COUNTER, "events", "repro.faults.log",
        "Degradation events recorded, labelled by kind."),
    "faults.recovery_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.faults.log",
        "Cycles spent in recovery paths (retries, rollbacks, fallbacks)."),
    # -- adversarial fuzzing (repro.fuzz) --------------------------------
    "fuzz.scenarios_run": MetricSpec(
        KIND_COUNTER, "scenarios", "repro.fuzz.runner",
        "Adversarial scenarios executed across organizations."),
    "fuzz.failures_found": MetricSpec(
        KIND_COUNTER, "scenarios", "repro.fuzz.runner",
        "Scenarios whose aggregate classification was not 'ok'."),
    "fuzz.divergence_checks": MetricSpec(
        KIND_COUNTER, "checks", "repro.fuzz.runner",
        "Scalar-vs-vectorized engine comparisons run on scenario traces."),
    "fuzz.minimizer_evals": MetricSpec(
        KIND_COUNTER, "evaluations", "repro.fuzz.minimize",
        "Candidate traces the delta-debugging minimizer re-validated."),
    "fuzz.minimizer_records_removed": MetricSpec(
        KIND_COUNTER, "records", "repro.fuzz.minimize",
        "Trace records removed by successful minimizations."),
    "fuzz.corpus_replays": MetricSpec(
        KIND_COUNTER, "entries", "repro.fuzz.corpus",
        "Reproducer corpus entries replayed and re-classified."),
    "fuzz.corpus_mismatches": MetricSpec(
        KIND_COUNTER, "entries", "repro.fuzz.corpus",
        "Corpus replays whose classification drifted from the manifest."),
    # -- translation service (repro.serve) -------------------------------
    "serve.requests": MetricSpec(
        KIND_COUNTER, "requests", "repro.serve.server",
        "HTTP requests handled, labelled by route."),
    "serve.queue_depth": MetricSpec(
        KIND_GAUGE, "jobs", "repro.serve.queue",
        "Jobs admitted and waiting for a worker shard."),
    "serve.admission_rejections": MetricSpec(
        KIND_COUNTER, "jobs", "repro.serve.queue",
        "Submissions refused with back-pressure, labelled by reason."),
    "serve.inflight_jobs": MetricSpec(
        KIND_GAUGE, "jobs", "repro.serve.workers",
        "Jobs currently executing on worker shards."),
    "serve.jobs_completed": MetricSpec(
        KIND_COUNTER, "jobs", "repro.serve.server",
        "Jobs that finished and streamed a final done event."),
    "serve.jobs_failed": MetricSpec(
        KIND_COUNTER, "jobs", "repro.serve.server",
        "Jobs that ended with a structured error event."),
    "serve.jobs_cancelled": MetricSpec(
        KIND_COUNTER, "jobs", "repro.serve.server",
        "Jobs cancelled by clients (queued or reaped mid-run)."),
    "serve.job_timeouts": MetricSpec(
        KIND_COUNTER, "jobs", "repro.serve.server",
        "Jobs whose execution deadline expired (worker reaped)."),
    "serve.worker_restarts": MetricSpec(
        KIND_COUNTER, "restarts", "repro.serve.workers",
        "Worker processes reaped (cancel/timeout) or respawned after a crash."),
    "serve.cache_hit_ratio": MetricSpec(
        KIND_GAUGE, "ratio", "repro.serve.server",
        "Sweep-engine disk-cache hits / lookups across all served jobs."),
    "serve.trace_uploads": MetricSpec(
        KIND_COUNTER, "uploads", "repro.serve.server",
        "Validated .vpt traces accepted into the upload spool."),
    "serve.streamed_events": MetricSpec(
        KIND_COUNTER, "events", "repro.serve.server",
        "Progress/result/obs events streamed to event-stream subscribers."),
    # -- NUMA machine model (repro.sim.datacenter) -----------------------
    "numa.walks": MetricSpec(
        KIND_COUNTER, "walks", "repro.sim.datacenter.topology",
        "Page walks completed, labelled by the socket that ran them."),
    "numa.walk_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.sim.datacenter.topology",
        "Page-walk cycles, labelled by the socket that ran them."),
    "numa.local_dram_accesses": MetricSpec(
        KIND_COUNTER, "accesses", "repro.sim.datacenter.topology",
        "Walk cache-line probes served from the local socket's DRAM."),
    "numa.remote_dram_accesses": MetricSpec(
        KIND_COUNTER, "accesses", "repro.sim.datacenter.topology",
        "Walk cache-line probes that crossed the socket interconnect."),
    "numa.remote_delta_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.sim.datacenter.topology",
        "Extra cycles paid for remote DRAM over the local latency."),
    "numa.replicated_bytes": MetricSpec(
        KIND_COUNTER, "bytes", "repro.sim.datacenter.replication",
        "Page-table bytes copied to replica sockets (Mitosis-style)."),
    "numa.replica_updates": MetricSpec(
        KIND_COUNTER, "updates", "repro.sim.datacenter.replication",
        "Fault-driven PTE updates mirrored into remote replicas."),
    "numa.migrated_bytes": MetricSpec(
        KIND_COUNTER, "bytes", "repro.sim.datacenter.replication",
        "Page-table bytes re-homed by migrate-on-first-touch."),
    "numa.pool_spill_allocations": MetricSpec(
        KIND_COUNTER, "allocations", "repro.sim.datacenter.topology",
        "Allocations that spilled off the preferred socket's pool."),
    # -- datacenter tenancy (repro.sim.datacenter.simulator) -------------
    "dc.shootdowns": MetricSpec(
        KIND_COUNTER, "shootdowns", "repro.sim.datacenter.shootdown",
        "TLB shootdown broadcasts (exit, churn, migration, resize batches)."),
    "dc.shootdown_ipis": MetricSpec(
        KIND_COUNTER, "ipis", "repro.sim.datacenter.shootdown",
        "Inter-processor interrupts delivered by shootdown broadcasts."),
    "dc.shootdown_cycles": MetricSpec(
        KIND_COUNTER, "cycles", "repro.sim.datacenter.shootdown",
        "Cycles charged for shootdowns (initiator + per-IPI cost)."),
    "dc.context_switches": MetricSpec(
        KIND_COUNTER, "switches", "repro.sim.datacenter.simulator",
        "Tenant context switches performed by the per-socket scheduler."),
    "dc.forks": MetricSpec(
        KIND_COUNTER, "forks", "repro.sim.datacenter.simulator",
        "Tenants forked (and exec'd) by the churn model."),
    "dc.exits": MetricSpec(
        KIND_COUNTER, "exits", "repro.sim.datacenter.simulator",
        "Tenants torn down (natural completion or churn kill)."),
    "dc.pool_alloc_failures": MetricSpec(
        KIND_COUNTER, "failures", "repro.sim.datacenter.simulator",
        "Tenant page-table allocations that failed on every socket."),
}


def format_metric_name(base: str, labels: Optional[Dict[str, object]] = None) -> str:
    """Render ``base`` plus sorted ``labels`` as ``base[k=v,...]``."""
    if not labels:
        return base
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{base}[{inner}]"


def base_name(full_name: str) -> str:
    """Strip the label suffix from a full metric name."""
    return full_name.split("[", 1)[0]


def pow2_bin(value: float) -> str:
    """The power-of-two bucket label covering ``value`` (0 and 1 exact)."""
    if value <= 0:
        return "0"
    bucket = 1
    while bucket < value:
        bucket *= 2
    return str(bucket)


def exact_bin(value: float) -> str:
    """Exact integer bucket label (kick depths are small integers)."""
    return str(int(value))


class Metric:
    """Base class: a named metric bound to its catalogue spec."""

    __slots__ = ("name", "spec")

    def __init__(self, name: str, spec: MetricSpec) -> None:
        self.name = name
        self.spec = spec

    def to_record(self) -> Dict[str, object]:
        """Serialize to the JSON-safe snapshot form."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically-increasing value."""

    __slots__ = ("value",)

    def __init__(self, name: str, spec: MetricSpec) -> None:
        super().__init__(name, spec)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        self.value += amount

    def set_total(self, value: float) -> None:
        """Collector style: overwrite with an externally-kept total."""
        self.value = value

    def to_record(self) -> Dict[str, object]:
        return {"kind": KIND_COUNTER, "unit": self.spec.unit, "value": self.value}


class Gauge(Metric):
    """A point-in-time value that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self, name: str, spec: MetricSpec) -> None:
        super().__init__(name, spec)
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def to_record(self) -> Dict[str, object]:
        return {"kind": KIND_GAUGE, "unit": self.spec.unit, "value": self.value}


class Histogram(Metric):
    """A binned distribution with string bucket labels.

    ``bucketer`` maps an observed value to its bucket label: ``"exact"``
    for small integers (kick depths), ``"pow2"`` for wide ranges (walk
    latencies).  String labels keep the snapshot JSON-safe without a
    key-conversion step on cache load.
    """

    __slots__ = ("bins", "count", "total", "_bucket")

    def __init__(self, name: str, spec: MetricSpec, bucketer: str = "exact") -> None:
        super().__init__(name, spec)
        if bucketer not in ("exact", "pow2"):
            raise ConfigurationError(
                f"unknown histogram bucketer {bucketer!r}",
                field="bucketer", value=bucketer,
            )
        self.bins: Dict[str, int] = {}
        self.count = 0
        self.total: float = 0
        self._bucket = exact_bin if bucketer == "exact" else pow2_bin

    def observe(self, value: float) -> None:
        """Record one sample."""
        label = self._bucket(value)
        self.bins[label] = self.bins.get(label, 0) + 1
        self.count += 1
        self.total += value

    def observe_bins(self, bins: Dict[int, int]) -> None:
        """Collector style: merge an externally-kept ``{value: count}`` map."""
        for value, count in bins.items():
            label = self._bucket(value)
            self.bins[label] = self.bins.get(label, 0) + count
            self.count += count
            self.total += value * count

    def set_from_bins(self, bins: Dict[int, int]) -> None:
        """Idempotent collector style: *replace* contents with ``bins``.

        Collectors run once per snapshot; replacing (rather than merging)
        keeps repeated snapshots from double-counting.
        """
        self.bins = {}
        self.count = 0
        self.total = 0
        self.observe_bins(bins)

    def mean(self) -> float:
        """Mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": KIND_HISTOGRAM,
            "unit": self.spec.unit,
            "bins": {label: self.bins[label] for label in sorted(self.bins)},
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Creates, validates and snapshots the run's metrics.

    Metric names must exist in :data:`CATALOGUE` with a matching kind;
    labels (``registry.counter("cuckoo.inserts", size="4K")``) create
    independent instances under ``name[size=4K]``-style full names.
    Collectors added with :meth:`add_collector` run once per
    :meth:`snapshot`, in registration order, so component counters are
    copied in deterministically.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- creation -----------------------------------------------------

    def _get_or_create(self, name: str, kind: str, factory, /, **labels) -> Metric:
        spec = CATALOGUE.get(name)
        if spec is None:
            raise ConfigurationError(
                f"metric {name!r} is not in the repro.obs catalogue",
                field="name", value=name,
            )
        if spec.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {spec.kind}, not a {kind}",
                field="name", value=name,
            )
        full = format_metric_name(name, labels)
        metric = self._metrics.get(full)
        if metric is None:
            metric = factory(full, spec)
            self._metrics[full] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name`` (labels select an instance)."""
        return self._get_or_create(name, KIND_COUNTER, Counter, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, KIND_GAUGE, Gauge, **labels)

    def histogram(self, name: str, bucketer: str = "exact", **labels) -> Histogram:
        """Get or create the histogram ``name`` with the given bucketer."""
        return self._get_or_create(
            name, KIND_HISTOGRAM,
            lambda full, spec: Histogram(full, spec, bucketer=bucketer),
            **labels,
        )

    # -- collection -----------------------------------------------------

    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback that fills metrics at snapshot time."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector once."""
        for collector in self._collectors:
            collector(self)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Collect, then serialize every metric to a JSON-safe dict.

        The result is sorted by full metric name and built from native
        JSON types only, so it survives the sweep engine's disk cache
        bit-exactly.
        """
        self.collect()
        return {
            name: self._metrics[name].to_record()
            for name in sorted(self._metrics)
        }

    def __contains__(self, full_name: str) -> bool:
        return full_name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)
