"""Unit tests for the process model (repro.kernel.process) and the
quantum driver that runs it (repro.sim.quantum), under both engines."""

import pytest

from repro.common.errors import MEHPTError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.kernel.process import Process
from repro.sim.config import SimulationConfig
from repro.sim.quantum import QuantumEngine
from repro.workloads import get_workload

pytestmark = pytest.mark.fastpath

SCALE = 256
ENGINES = ("scalar", "vectorized")


def make_driver(app="TC", trace_length=3_000, engine="vectorized",
                organization="mehpt", **overrides):
    workload = get_workload(app, scale=SCALE)
    config = SimulationConfig(
        organization=organization, scale=SCALE, engine=engine, **overrides
    )
    system = config.build(workload)
    process = Process(
        name=f"{app}#0",
        address_space=system.address_space,
        tlb=system.tlb,
        trace=workload.trace(trace_length),
        org=system.org,
    )
    return QuantumEngine(process, system)


def tlb_state(tlb):
    """TLB contents and hit/miss counters, as plain data."""
    return {
        (level, size): (list(t._sets), t.hits, t.misses)
        for level in ("l1", "l2")
        for size, t in getattr(tlb, level).items()
    }


@pytest.mark.parametrize("engine", ENGINES)
class TestQuantumExecution:
    def test_runs_in_quanta(self, engine):
        driver = make_driver(trace_length=2_500, engine=engine)
        process = driver.process
        cycles = driver.run_quantum(1_000)
        assert cycles > 0
        assert process.cursor == 1_000
        assert not process.finished
        driver.run_quantum(1_000)
        driver.run_quantum(1_000)  # clipped to the remaining 500
        assert process.cursor == 2_500
        assert process.finished
        assert process.accesses_done == 2_500

    def test_remaining(self, engine):
        driver = make_driver(trace_length=2_000, engine=engine)
        process = driver.process
        assert process.remaining() == 2_000
        driver.run_quantum(700)
        assert process.remaining() == 1_300

    def test_cycles_accumulate(self, engine):
        driver = make_driver(engine=engine)
        process = driver.process
        driver.run_quantum(500)
        first = process.cycles
        driver.run_quantum(500)
        assert process.cycles > first

    def test_demand_paging_happens(self, engine):
        driver = make_driver(engine=engine)
        process = driver.process
        driver.run_quantum(2_000)
        assert process.address_space.totals.faults > 0
        # Faulted pages really are mapped.
        vpn = int(process.trace[0])
        assert process.address_space.page_tables.translate(vpn) is not None


class TestQuantumAbort:
    QUANTUM = 100

    def _run_until_abort(self, engine):
        # Every 24th contiguous allocation fails permanently: ECPT's
        # build survives, and a resize in the third quantum aborts.
        driver = make_driver(
            engine=engine, organization="ecpt",
            fault_plan=FaultPlan([FaultSpec("contiguous_alloc", every=24)], seed=1),
        )
        process = driver.process
        quanta = 0
        with pytest.raises(MEHPTError) as excinfo:
            while not process.finished:
                before = (process.cursor, process.cycles, process.accesses_done)
                driver.run_quantum(self.QUANTUM)
                quanta += 1
        assert (process.cursor, process.cycles, process.accesses_done) == before
        driver.finalize()
        return type(excinfo.value), quanta, before, tlb_state(process.tlb)

    def test_abort_leaves_driver_unchanged(self):
        scalar = self._run_until_abort("scalar")
        vectorized = self._run_until_abort("vectorized")
        error, quanta, before, _ = scalar
        assert quanta >= 1 and before[0] == quanta * self.QUANTUM
        assert vectorized == scalar, error.__name__


class TestTeardown:
    def test_teardown_counts_own_entries_only(self):
        a = make_driver("TC")
        b = make_driver("MUMmer")
        a.run_quantum(3_000)
        b.run_quantum(3_000)
        a, b = a.process, b.process
        # Per-process tables: teardown cost is each process's own entry
        # count, independent of the other process (Section II-B).
        assert a.teardown_entries() > 0
        assert b.teardown_entries() > 0
        total = a.teardown_entries() + b.teardown_entries()
        assert a.teardown_entries() < total

    def test_radix_process_reports_zero_hpt_entries(self):
        workload = get_workload("TC", scale=SCALE)
        system = SimulationConfig(organization="radix", scale=SCALE).build(workload)
        process = Process("r", system.address_space, system.tlb,
                          workload.trace(100), org=system.org)
        assert process.teardown_entries() == 0
