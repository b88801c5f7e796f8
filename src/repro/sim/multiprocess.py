"""Multi-process scheduling simulation: context-switch costs (Section V-C).

The one new cost ME-HPT adds to a context switch is saving/restoring the
MMU-resident L2P table — only its *valid* entries, which average ~53 per
process in the paper, so the overhead is a few hundred cycles against a
switch that already costs thousands.  In a virtualized system even that
disappears (guests have no L2P; the host table is not switched).

:class:`MultiProcessSimulator` runs N processes round-robin with a fixed
quantum, charges per-switch costs through
:class:`~repro.kernel.context.ContextSwitchModel`, and reports the share
of total cycles the L2P movement adds — making the paper's "modest
overhead" claim checkable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.kernel.context import ContextSwitchModel
from repro.kernel.process import Process
from repro.sim.config import SimulationConfig, check_trace_length
from repro.sim.quantum import QuantumEngine
from repro.workloads import get_workload


@dataclass
class MultiProcessResult:
    """Outcome of one multi-process run."""

    organization: str
    processes: int
    switches: int
    total_cycles: float
    switch_cycles: float
    l2p_switch_cycles: float
    mean_l2p_entries: float

    def switch_overhead(self) -> float:
        return self.switch_cycles / self.total_cycles if self.total_cycles else 0.0

    def l2p_overhead(self) -> float:
        return self.l2p_switch_cycles / self.total_cycles if self.total_cycles else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe field dump (reports, tests, ad-hoc tooling)."""
        return asdict(self)


class MultiProcessSimulator:
    """Round-robin execution of several workloads, each its own process."""

    def __init__(
        self,
        apps: List[str],
        config: SimulationConfig,
        trace_length: int = 30_000,
        quantum: int = 2_000,
        switch_model: Optional[ContextSwitchModel] = None,
    ) -> None:
        if not apps:
            raise ConfigurationError("need at least one process")
        check_trace_length(trace_length)
        if quantum < 1:
            raise ConfigurationError("quantum must be positive")
        if config.obs is not None:
            raise ConfigurationError(
                "MultiProcessSimulator takes no obs config; trace multi-tenant "
                "runs with the datacenter model (repro.sim.datacenter)"
            )
        self.config = config
        self.quantum = quantum
        self.switch_model = switch_model if switch_model is not None else ContextSwitchModel()
        self.processes: List[Process] = []
        self._systems = []
        #: One quantum driver per process, each with a private cache
        #: mirror when the engine is batched.
        self.drivers: List[QuantumEngine] = []
        for index, app in enumerate(apps):
            workload = get_workload(app, scale=config.scale, seed=config.seed + index)
            system = config.build(workload)
            process = Process(
                name=f"{app}#{index}",
                address_space=system.address_space,
                tlb=system.tlb,
                trace=workload.trace(trace_length, seed_offset=index),
                l2p=getattr(system.page_tables, "l2p", None),
            )
            self._systems.append(system)
            self.processes.append(process)
            self.drivers.append(QuantumEngine(process, system))

    def run(self) -> MultiProcessResult:
        """Run every process to completion; return aggregate costs.

        However the run ends, every driver is finalized, so an abort
        leaves each process's real TLB lists as the scalar engine would.
        """
        total_cycles = 0.0
        switch_cycles = 0.0
        l2p_cycles = 0.0
        l2p_samples: List[int] = []
        current: Optional[Process] = None
        runnable = [d for d in self.drivers if not d.process.finished]
        try:
            while runnable:
                for driver in runnable:
                    process = driver.process
                    if current is not process:
                        base = self.switch_model.base_cycles
                        cost = self.switch_model.switch_cost(
                            current.l2p if current is not None else None,
                            process.l2p,
                        )
                        switch_cycles += cost
                        l2p_cycles += cost - base
                        current = process
                    total_cycles += driver.run_quantum(self.quantum)
                    # Sample after the quantum: the entries the process
                    # has actually populated are what the next switch
                    # must save.  (Sampling before the first quantum
                    # reads a cold L2P and biases the mean low.)
                    if process.l2p is not None:
                        l2p_samples.append(process.l2p.entries_used())
                runnable = [d for d in self.drivers if not d.process.finished]
        finally:
            for driver in self.drivers:
                driver.finalize()
        total_cycles += switch_cycles
        return MultiProcessResult(
            organization=self.config.organization,
            processes=len(self.processes),
            switches=self.switch_model.switches,
            total_cycles=total_cycles,
            switch_cycles=switch_cycles,
            l2p_switch_cycles=l2p_cycles,
            mean_l2p_entries=(
                sum(l2p_samples) / len(l2p_samples) if l2p_samples else 0.0
            ),
        )
