"""The four benchmark workloads.

Each workload resolves one sweep cell per page-table organization
(``mehpt``, ``ecpt``, ``radix``) through
:class:`~repro.experiments.engine.SweepEngine` at ``jobs=1``.  Inputs
come only from the seed.  Simulated caches and TLBs start empty
(``warmup_fraction=0``) and observability stays off
(``SimulationConfig.obs=None``).

* ``replay-hit`` — a recorded GUPS ``.vpt`` replay with THP on: trace
  decode, THP sizing and TLB batch probes, almost no walks or faults.
* ``replay-miss`` — the ``repro.fuzz`` fragmentation-storm ``.vpt``:
  more than 90% of accesses walk, and the first touch of each page
  demand-faults.
* ``populate`` — SysBench memory cells (the largest footprint, fast
  settings, THP off): the fault/insert/resize/allocate write path, and
  the disk-cache path on the warm pass.
* ``tenants`` — the NUMA datacenter model with 8 GUPS tenants on 2
  sockets, THP on, ``replicate`` policy and churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.engine import TRACE_APP_PREFIX
from repro.experiments.runner import ExperimentSettings
from repro.fuzz.scenario import Scenario, StressorSpec
from repro.sim.datacenter import DatacenterSimulator, split_overrides
from repro.sim.simulator import TranslationSimulator, memory_result
from repro.traces.record import record_workload
from repro.workloads import get_workload

from oracle import digest, table_counts
from spans import ORGS

Cell = Tuple[str, str, bool]


@dataclass
class Plan:
    """What one round resolves: a sweep kind, its settings and cells."""

    kind: str
    settings: ExperimentSettings
    cells: Dict[str, Cell]
    overrides: Dict[str, object]


class BenchWorkload:
    """A named, seeded workload; subclasses fix the inputs and checks.

    Guard counts are the result's own counts (:meth:`result_guards`)
    plus :func:`oracle.table_counts` summed over every system the cell
    built.
    """

    name = ""
    #: References computed before timing (False: the first cold round's
    #: results are the reference, because memory cells have no second
    #: engine to compare against).
    precompute_oracle = True
    sizes: Dict[str, object] = {}

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    # -- inputs ------------------------------------------------------------

    def make_inputs(self) -> None:
        """Write whatever input files the cells read."""

    def plan(self) -> Plan:
        raise NotImplementedError

    def setup(self) -> None:
        """Make the inputs and build each organization's system once."""
        self.make_inputs()
        plan = self.plan()
        s = plan.settings
        for org, (app, _org, thp) in plan.cells.items():
            workload = get_workload(app, scale=s.scale, seed=s.seed)
            s.config(org, thp, **plan.overrides).build(workload)

    # -- reference ---------------------------------------------------------

    def oracle(self) -> Dict[str, Dict]:
        """Each cell run with ``engine="scalar"``: digest and guard counts."""
        plan = self.plan()
        s = plan.settings
        out = {}
        for org, (app, _org, thp) in plan.cells.items():
            workload = get_workload(app, scale=s.scale, seed=s.seed)
            config = s.config(org, thp, engine="scalar", **plan.overrides)
            sim = TranslationSimulator(
                workload, config, trace_length=s.trace_length,
                warmup_fraction=s.warmup_fraction,
            )
            result = sim.run()
            guards = dict(self.result_guards(result))
            guards.update(table_counts(sim.system.page_tables))
            out[org] = {"digest": digest(result), "guards": guards}
        return out

    # -- per-result accounting ---------------------------------------------

    def accesses(self, result) -> int:
        """Simulated accesses (trace events, or pages populated)."""
        return self.plan().settings.trace_length

    def result_guards(self, result) -> Dict[str, object]:
        """Deterministic counts carried by the result itself."""
        return {
            "failed": result.failed,
            "events": self.plan().settings.trace_length,
            "walks": result.walks,
            "faults": result.faults,
        }

    def check_guards(self, guards: Dict[str, object]) -> List[str]:
        """Problems with one cell's guard counts (empty = the shape holds)."""
        return ["cell failed"] if guards["failed"] else []

    def check_layers(self, layers: Dict[str, float], reference: Dict) -> List[str]:
        """Problems visible only in the traced run's per-layer counts."""
        problems = []
        for org in ORGS:
            guards = reference[org]["guards"]
            for count, key in (("mmu.walks", "walks"), ("kernel.faults", "faults")):
                if key in guards and layers[f"{count}.{org}"] != guards[key]:
                    problems.append(
                        f"{count}.{org} = {layers[f'{count}.{org}']} per round, "
                        f"result says {guards[key]}"
                    )
        return problems


class ReplayHit(BenchWorkload):
    name = "replay-hit"
    EVENTS = 500_000
    #: 256 THP regions: every walk is a compulsory miss, 0.05% of events.
    SCALE = 128
    sizes = {"app": "GUPS", "events": EVENTS, "scale": SCALE, "thp": True}

    @property
    def trace(self) -> str:
        return str(self.work_dir / "gups.vpt")

    def make_inputs(self) -> None:
        workload = get_workload("GUPS", scale=self.SCALE, seed=self.seed)
        record_workload(workload, self.EVENTS, self.trace)

    def plan(self) -> Plan:
        settings = ExperimentSettings(
            scale=self.SCALE, seed=self.seed, trace_length=self.EVENTS
        )
        app = TRACE_APP_PREFIX + self.trace
        return Plan("perf", settings, {org: (app, org, True) for org in ORGS}, {})

    def check_guards(self, guards):
        problems = super().check_guards(guards)
        if guards["walks"] >= 0.001 * guards["events"]:
            problems.append(f"walk share {guards['walks']}/{guards['events']} >= 0.1%")
        return problems


class ReplayMiss(BenchWorkload):
    name = "replay-miss"
    EVENTS = 100_000
    BLOCKS = 2048
    FMFI = 0.5
    sizes = {"stressor": "fragmentation_storm", "events": EVENTS,
             "blocks": BLOCKS, "fmfi": FMFI}

    @property
    def trace(self) -> str:
        return str(self.work_dir / "frag-storm.vpt")

    def make_inputs(self) -> None:
        self.scenario().generate_trace(self.trace)

    def scenario(self) -> Scenario:
        return Scenario(
            name="frag-storm-bench", seed=self.seed, sim_seed=self.seed,
            trace_length=self.EVENTS,
            stressors=(StressorSpec.make(
                "fragmentation_storm", blocks=self.BLOCKS, fmfi=self.FMFI,
            ),),
            overrides=(("fmfi", self.FMFI),),
        )

    def plan(self) -> Plan:
        scenario = self.scenario()
        settings = ExperimentSettings(
            scale=scenario.scale, seed=scenario.sim_seed,
            fmfi=scenario.merged_overrides()["fmfi"], trace_length=self.EVENTS,
        )
        app = TRACE_APP_PREFIX + self.trace
        return Plan("perf", settings, {org: (app, org, False) for org in ORGS}, {})

    def check_guards(self, guards):
        problems = super().check_guards(guards)
        if guards["walks"] <= 0.9 * guards["events"]:
            problems.append(f"walk share {guards['walks']}/{guards['events']} <= 90%")
        return problems


class Populate(BenchWorkload):
    name = "populate"
    APP = "SysBench"
    #: An eighth of the fast settings' footprint (scale 512, not 64):
    #: 12,888 pages, so a run holds about 30 cells per organization
    #: (see README.md, "Noise").
    SCALE = 512
    precompute_oracle = False
    sizes = {"app": APP, "settings": "fast", "scale": SCALE, "thp": False}

    def make_inputs(self) -> None:
        s = self.plan().settings
        get_workload(self.APP, scale=s.scale, seed=s.seed).page_set()

    def plan(self) -> Plan:
        settings = ExperimentSettings(seed=self.seed, scale=self.SCALE).fast()
        return Plan(
            "memory", settings, {org: (self.APP, org, False) for org in ORGS}, {}
        )

    def oracle(self) -> Dict[str, Dict]:
        plan = self.plan()
        s = plan.settings
        out = {}
        for org, (app, _org, thp) in plan.cells.items():
            workload = get_workload(app, scale=s.scale, seed=s.seed)
            system = s.config(org, thp).build(workload)
            result = memory_result(system)
            guards = dict(self.result_guards(result))
            guards.update(table_counts(system.page_tables))
            out[org] = {"digest": digest(result), "guards": guards}
        return out

    def accesses(self, result) -> int:
        """Pages populated: on this workload an access is a page mapped."""
        return result.pages_mapped_4k + result.pages_mapped_2m

    def result_guards(self, result):
        return {"failed": result.failed, "pages": self.accesses(result)}

    def check_guards(self, guards):
        problems = super().check_guards(guards)
        if guards["pages"] <= 0:
            problems.append("no pages populated")
        return problems

    def check_layers(self, layers, reference):
        return [
            f"{name} = {layers[name]} on a populate-only workload"
            for name in ("mmu.walks", "mmu.tlb_probed")
            if layers[name] != 0
        ]


class Tenants(BenchWorkload):
    name = "tenants"
    #: Events per tenant: a 0.5 s cell, so a run holds about 15 rounds.
    EVENTS = 15_000
    SCALE = 64
    OVERRIDES = {
        "dc_sockets": 2, "dc_processes": 8, "dc_quantum": 2000,
        "dc_policy": "replicate", "dc_churn_every": 8,
    }
    sizes = {"app": "GUPS", "events_per_tenant": EVENTS, "scale": SCALE,
             "thp": True, **OVERRIDES}

    def plan(self) -> Plan:
        settings = ExperimentSettings(
            scale=self.SCALE, seed=self.seed, trace_length=self.EVENTS
        )
        return Plan(
            "datacenter", settings, {org: ("GUPS", org, True) for org in ORGS},
            dict(self.OVERRIDES),
        )

    def _simulator(self, org: str, cell: Cell, engine: Optional[str] = None):
        plan = self.plan()
        s = plan.settings
        params, config_overrides = split_overrides(plan.overrides)
        if engine is not None:
            config_overrides["engine"] = engine
        config = s.config(org, cell[2], **config_overrides)
        return DatacenterSimulator(
            [cell[0]], config, params=params, trace_length=s.trace_length
        )

    def setup(self) -> None:
        """Generate the first tenant's trace and build each machine."""
        s = self.plan().settings
        get_workload("GUPS", scale=s.scale, seed=s.seed).trace(s.trace_length)
        for org, cell in self.plan().cells.items():
            self._simulator(org, cell)

    def oracle(self) -> Dict[str, Dict]:
        out = {}
        for org, cell in self.plan().cells.items():
            sim = self._simulator(org, cell, engine="scalar")
            result = sim.run()
            guards = dict(self.result_guards(result))
            for tenant in sim.tenants:
                for key, value in table_counts(tenant.system.page_tables).items():
                    guards[key] = guards.get(key, 0) + value
            out[org] = {"digest": digest(result), "guards": guards}
        return out

    def accesses(self, result) -> int:
        return result.accesses

    def result_guards(self, result):
        return {
            "failed": result.failed,
            "accesses": result.accesses,
            "walks": result.walks(),
            "faults": result.faults,
            "switches": result.switches,
            "replicated_bytes": result.replicated_bytes,
        }

    def check_guards(self, guards):
        problems = super().check_guards(guards)
        for key in ("accesses", "switches", "replicated_bytes"):
            if guards[key] <= 0:
                problems.append(f"{key} = {guards[key]}")
        return problems

    def check_layers(self, layers, reference):
        return super().check_layers(layers, reference) + [
            f"{name} = {layers[name]}"
            for name in ("sim.quanta", "kernel.switches")
            if layers[name] <= 0
        ]


WORKLOADS = {cls.name: cls for cls in (ReplayHit, ReplayMiss, Populate, Tenants)}
