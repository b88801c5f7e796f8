"""Host-time spans around the public entry points of each layer.

:class:`SpanRecorder` keeps every span in memory — name, start, end,
parent and the organization whose cell was running — in flat arrays,
and writes them out once, when the run ends.  :class:`Instrumentation`
installs the wrappers listed in :data:`LAYERS` for the duration of a
``with`` block and restores the original functions afterwards, so a
round outside that block runs the program exactly as shipped.

A layer's self time is its span's duration minus the time its child
spans cover.  Entry points that return generators get one span per
``next()`` call, so the time the consumer spends between chunks is not
charged to the producer.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ORGS = ("mehpt", "ecpt", "radix")


def _one(args, result) -> int:
    return 1


def _probed(args, result) -> int:
    return len(args[1])


def _hit(args, result) -> int:
    return 0 if result is None else 1


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module[.owner].attr`` recorded as ``name``."""

    name: str
    module: str
    owner: Optional[str]
    attr: str
    count: Optional[str] = None
    count_fn: Callable = _one
    generator: bool = False
    #: Calls made while this layer is the innermost open span are not
    #: recorded (``ArrayTlb`` also mirrors the cache levels inside
    #: ``CacheBatch.probe``; those calls are cache-probe time).
    skip_within: Optional[str] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("traces.decode", "repro.traces.workload", "TraceWorkload",
          "trace_chunks", generator=True),
    Layer("workloads.generate", "repro.workloads.base", "Workload", "trace"),
    Layer("workloads.generate", "repro.workloads.base", "Workload",
          "trace_chunks", generator=True),
    Layer("workloads.generate", "repro.workloads.base", "Workload", "page_set"),
    Layer("sim.build", "repro.sim.config", "SimulationConfig", "build"),
    Layer("sim.thp_sizing", "repro.sim.fastpath", "StaticThpSizer", "codes"),
    Layer("sim.loop", "repro.sim.fastpath", None, "run_vectorized"),
    Layer("sim.loop", "repro.sim.simulator", "TranslationSimulator", "run"),
    Layer("sim.populate", "repro.sim.simulator", None, "populate_tables"),
    Layer("sim.result", "repro.sim.simulator", None, "memory_result"),
    Layer("mmu.tlb_probe", "repro.mmu.tlb_array", "ArrayTlb", "batch_probe",
          count="mmu.tlb_probed", count_fn=_probed,
          skip_within="mmu.cache_probe"),
    Layer("mmu.walk_plan", "repro.mmu.walk_batch", "HptWalkBatch", "plan",
          count="mmu.walks"),
    Layer("mmu.walk_plan", "repro.mmu.walk_batch", "RadixWalkBatch", "plan",
          count="mmu.walks"),
    Layer("mmu.walk_seal", "repro.mmu.walk_batch", "HptWalkBatch", "seal_segment"),
    Layer("mmu.walk_seal", "repro.mmu.walk_batch", "RadixWalkBatch", "seal_segment"),
    Layer("mmu.walk_flush", "repro.mmu.walk_batch", "HptWalkBatch", "flush"),
    Layer("mmu.walk_flush", "repro.mmu.walk_batch", "RadixWalkBatch", "flush"),
    Layer("mmu.cache_probe", "repro.mmu.walk_batch", "CacheBatch", "probe"),
    Layer("kernel.fault", "repro.kernel.address_space", "AddressSpace",
          "handle_fault", count="kernel.faults"),
    Layer("ecpt.map", "repro.ecpt.tables", "HashedPageTableSet", "map"),
    Layer("ecpt.translate", "repro.ecpt.tables", "HashedPageTableSet", "translate"),
    Layer("radix.map", "repro.radix.table", "RadixPageTable", "map"),
    Layer("radix.translate", "repro.radix.table", "RadixPageTable", "translate"),
    Layer("hashing.insert", "repro.hashing.cuckoo", "ElasticCuckooTable",
          "insert", count="hashing.inserts"),
    Layer("mem.alloc", "repro.mem.allocator", "CostModelAllocator", "alloc",
          count="mem.allocs"),
    Layer("mem.alloc", "repro.mem.allocator", "BuddyBackedAllocator", "alloc",
          count="mem.allocs"),
    Layer("mem.alloc", "repro.sim.datacenter.topology", "SocketPoolAllocator",
          "alloc", count="mem.allocs"),
    Layer("sim.quantum", "repro.sim.quantum", "QuantumEngine", "run_quantum",
          count="sim.quanta"),
    Layer("kernel.switch", "repro.kernel.context", "ContextSwitchModel",
          "switch_cost", count="kernel.switches"),
    Layer("sim.datacenter", "repro.sim.datacenter.simulator",
          "DatacenterSimulator", "__init__"),
    Layer("sim.datacenter", "repro.sim.datacenter.simulator",
          "DatacenterSimulator", "run"),
    Layer("experiments.sweep", "repro.experiments.engine", "SweepEngine",
          "run_cells"),
    Layer("experiments.cache_load", "repro.experiments.engine", "ResultCache",
          "load", count="experiments.cache_hits", count_fn=_hit),
    Layer("experiments.cache_store", "repro.experiments.engine", "ResultCache",
          "store"),
)

#: Layers whose code differs by organization: reported in total and
#: per organization.  Each maps to the organizations it can run under.
ORG_SPLIT: Dict[str, Tuple[str, ...]] = {
    "mmu.tlb_probe": ORGS, "mmu.walk_plan": ORGS, "mmu.walk_seal": ORGS,
    "mmu.walk_flush": ORGS, "mmu.cache_probe": ORGS, "kernel.fault": ORGS,
    "ecpt.map": ("mehpt", "ecpt"), "ecpt.translate": ("mehpt", "ecpt"),
    "radix.map": ("radix",), "radix.translate": ("radix",),
    "hashing.insert": ("mehpt", "ecpt"), "mem.alloc": ORGS,
}

#: Counts per layer, split like the layer they are recorded at.
COUNT_SPLIT: Dict[str, Tuple[str, ...]] = {
    "mmu.tlb_probed": ORGS, "mmu.walks": ORGS, "kernel.faults": ORGS,
    "hashing.inserts": ("mehpt", "ecpt"), "mem.allocs": ORGS,
    "sim.quanta": (), "kernel.switches": (), "experiments.cache_hits": (),
}


def layer_names() -> List[str]:
    """Distinct span names, in table order."""
    return list(dict.fromkeys(layer.name for layer in LAYERS))


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names: List[str] = []
    for name in layer_names():
        names.append(f"{name}_s")
        names.extend(f"{name}_s.{org}" for org in ORG_SPLIT.get(name, ()))
    for count, orgs in COUNT_SPLIT.items():
        names.append(count)
        names.extend(f"{count}.{org}" for org in orgs)
    names.append("trace.spans")
    return names


class SpanRecorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.names = layer_names()
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("q")
        self.org = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.name_stack: List[int] = []
        self.counts: Dict[Tuple[str, int], int] = defaultdict(int)
        #: Index into ORGS of the cell being resolved (-1 = none).
        self.current_org = -1
        #: Summed duration of spans with no parent.
        self.root_time = 0.0

    # -- wrappers ----------------------------------------------------------

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        nid = self.name_ids[layer.name]
        skip = self.name_ids[layer.skip_within] if layer.skip_within else None
        count = layer.count
        count_fn = layer.count_fn
        perf = time.perf_counter
        rec = self

        def open_span() -> Tuple[int, float]:
            stack = rec.stack
            sid = len(rec.start)
            rec.parent.append(stack[-1] if stack else -1)
            rec.name.append(nid)
            rec.org.append(rec.current_org)
            rec.end.append(0.0)
            stack.append(sid)
            rec.name_stack.append(nid)
            t0 = perf()
            rec.start.append(t0)
            return sid, t0

        def close_span(sid: int, t0: float) -> None:
            t1 = perf()
            rec.end[sid] = t1
            rec.stack.pop()
            rec.name_stack.pop()
            if not rec.stack:
                rec.root_time += t1 - t0

        if layer.generator:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        sid, t0 = open_span()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close_span(sid, t0)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names = rec.name_stack
            if skip is not None and names and names[-1] == skip:
                return fn(*args, **kwargs)
            sid, t0 = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid, t0)
            if count is not None:
                rec.counts[(count, rec.current_org)] += count_fn(args, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "org": np.frombuffer(self.org, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> Dict[Tuple[str, int], float]:
        """Summed self time per (layer, organization index)."""
        a = self.arrays()
        n = a["start"].size
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        own = dur - child
        slots = len(ORGS) + 1
        key = a["name"] * slots + (a["org"] + 1)
        sums = np.bincount(key, weights=own, minlength=len(self.names) * slots)
        out: Dict[Tuple[str, int], float] = {}
        for k in np.flatnonzero(sums):
            out[(self.names[k // slots], int(k % slots) - 1)] = float(sums[k])
        return out

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Per-round self seconds and counts, in total and per organization."""
        per_round = 1.0 / max(rounds, 1)
        metrics: Dict[str, float] = {}
        times = self.self_times()
        for name in self.names:
            total = sum(v for (n, _org), v in times.items() if n == name)
            metrics[f"{name}_s"] = total * per_round
            for org in ORG_SPLIT.get(name, ()):
                value = times.get((name, ORGS.index(org)), 0.0)
                metrics[f"{name}_s.{org}"] = value * per_round
        for count, orgs in COUNT_SPLIT.items():
            total = sum(v for (c, _org), v in self.counts.items() if c == count)
            metrics[count] = total * per_round
            for org in orgs:
                value = self.counts.get((count, ORGS.index(org)), 0)
                metrics[f"{count}.{org}"] = value * per_round
        metrics["trace.spans"] = len(self.start) * per_round
        return metrics

    def write(self, path: str) -> None:
        """Write every span (and the name/organization tables) to ``path``."""
        np.savez(
            path, names=np.array(self.names), orgs=np.array(ORGS),
            **self.arrays(),
        )


class Instrumentation:
    """Installs :data:`LAYERS` wrappers on enter and restores on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            target = getattr(module, layer.owner) if layer.owner else module
            original = vars(target)[layer.attr]
            self._saved.append((target, layer.attr, original))
            setattr(target, layer.attr, self.recorder.wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)
