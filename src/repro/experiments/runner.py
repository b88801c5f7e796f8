"""Shared sweep machinery for the experiment drivers.

``memory_sweep`` populates each workload's footprint into each requested
(organization, THP) system and collects
:class:`~repro.sim.results.MemoryFootprintResult`; ``perf_sweep`` runs
traces and collects :class:`~repro.sim.results.PerformanceResult`.

Both submit through the :mod:`repro.experiments.engine` — a process-pool
fan-out with a persistent on-disk cache — and additionally memoise
results within the process so that e.g. the Figure 8 and Figure 10
drivers (which need the same populate runs) don't repeat the work.
Cache keys are *normalized* per sweep kind: memory results depend only
on which pages exist, so changing ``trace_length`` (or any other
trace-window knob) neither evicts nor misses memory entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.experiments import engine as _engine
from repro.sim.config import SimulationConfig, check_trace_length, fits_field
from repro.sim.results import MemoryFootprintResult, PerformanceResult
from repro.workloads import workload_names

MemKey = Tuple[str, str, bool]  # (workload, organization, thp)


@dataclass(frozen=True)
class ExperimentSettings:
    """Methodology knobs shared by all experiment drivers.

    ``scale`` divides the footprints (power of two; sizes are reported at
    full-scale equivalents — see DESIGN.md).  ``fast`` presets are used by
    the pytest benchmarks; the defaults favour fidelity.
    """

    scale: int = 32
    trace_length: int = 100_000
    seed: int = 12345
    fmfi: float = 0.7
    base_cycles_per_access: float = 30.0
    apps: Tuple[str, ...] = ()
    #: Leading fraction of the trace that warms TLBs/tables unmeasured.
    warmup_fraction: float = 0.0

    def __post_init__(self) -> None:
        """Reject settings no run could use, before any worker sees them."""
        for name in ("scale", "trace_length", "seed"):
            value = getattr(self, name)
            if not fits_field(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}",
                    field=name, value=value,
                )
        check_trace_length(self.trace_length)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction {self.warmup_fraction} must be in [0, 1)",
                field="warmup_fraction", value=self.warmup_fraction,
            )

    def app_list(self) -> List[str]:
        return list(self.apps) if self.apps else workload_names()

    def config(self, organization: str, thp: bool, **overrides) -> SimulationConfig:
        params = dict(
            organization=organization,
            thp_enabled=thp,
            scale=self.scale,
            seed=self.seed,
            fmfi=self.fmfi,
            base_cycles_per_access=self.base_cycles_per_access,
        )
        params.update(overrides)
        return SimulationConfig(**params)

    def fast(self) -> "ExperimentSettings":
        """A cheaper variant for benchmark smoke runs."""
        return replace(self, scale=max(self.scale, 64), trace_length=30_000)


class _LruDict(OrderedDict):
    """A dict memo with an LRU size cap.

    Long-lived processes (the benchmark suite, a notebook sweeping many
    settings) would otherwise accumulate one result per distinct
    (settings, run, overrides) triple forever; results hold whole kick
    histograms, so the cap matters.
    """

    def __init__(self, maxsize: int = 128) -> None:
        super().__init__()
        self.maxsize = maxsize

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)


#: In-process memo layers, keyed by the engine's normalized content hash
#: (the same key addresses the disk cache).
_MEMORY_CACHE: Dict[str, MemoryFootprintResult] = _LruDict()
_PERF_CACHE: Dict[str, PerformanceResult] = _LruDict()
_DATACENTER_CACHE: Dict[str, object] = _LruDict()


def _sweep(
    kind: str,
    memo: Dict[str, object],
    settings: ExperimentSettings,
    organizations: Iterable[str],
    thp_options: Iterable[bool],
    apps: Optional[Iterable[str]],
    config_overrides: Dict[str, object],
) -> Dict[MemKey, object]:
    """Resolve the sweep grid: memo, then disk cache / pool via the engine."""
    grid: List[Tuple[MemKey, str]] = []
    for app in apps if apps is not None else settings.app_list():
        for org in organizations:
            for thp in thp_options:
                cell = (app, org, thp)
                key, _ = _engine.cell_key(kind, settings, cell, config_overrides)
                grid.append((cell, key))
    missing = [cell for cell, key in grid if key not in memo]
    if missing:
        resolved = _engine.get_engine().run_cells(
            kind, settings, missing, config_overrides
        )
        for cell, result in resolved.items():
            key, _ = _engine.cell_key(kind, settings, cell, config_overrides)
            memo[key] = result
    return {cell: memo[key] for cell, key in grid}


def memory_sweep(
    settings: ExperimentSettings,
    organizations: Iterable[str] = ("ecpt", "mehpt"),
    thp_options: Iterable[bool] = (False, True),
    apps: Optional[Iterable[str]] = None,
    **config_overrides,
) -> Dict[MemKey, MemoryFootprintResult]:
    """Populate footprints and collect memory results for the sweep grid."""
    return _sweep(
        "memory", _MEMORY_CACHE, settings, organizations, thp_options, apps,
        config_overrides,
    )


def perf_sweep(
    settings: ExperimentSettings,
    organizations: Iterable[str] = ("radix", "ecpt", "mehpt"),
    thp_options: Iterable[bool] = (False, True),
    apps: Optional[Iterable[str]] = None,
    **config_overrides,
) -> Dict[MemKey, PerformanceResult]:
    """Run traces and collect performance results for the sweep grid."""
    return _sweep(
        "perf", _PERF_CACHE, settings, organizations, thp_options, apps,
        config_overrides,
    )


def datacenter_sweep(
    settings: ExperimentSettings,
    organizations: Iterable[str] = ("radix", "ecpt", "mehpt"),
    apps: Optional[Iterable[str]] = None,
    **overrides,
):
    """Run multi-tenant NUMA cells for the sweep grid.

    ``overrides`` mixes ``dc_*`` machine-model knobs (sockets, policy,
    churn — see
    :class:`~repro.sim.datacenter.simulator.DatacenterParams`) with
    plain :class:`~repro.sim.config.SimulationConfig` fields; the engine
    splits them per cell.  THP is not swept here (the datacenter story
    is about placement, not page size), so every cell uses ``thp=False``.
    """
    return _sweep(
        "datacenter", _DATACENTER_CACHE, settings, organizations, (False,),
        apps, overrides,
    )


def clear_caches() -> None:
    """Drop memoised sweep results (tests use this for isolation).

    Only the in-process memo is dropped; the engine's disk cache is
    persistent by design and is invalidated by content hash instead.
    """
    _MEMORY_CACHE.clear()
    _PERF_CACHE.clear()
    _DATACENTER_CACHE.clear()
