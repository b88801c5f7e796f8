"""Unit tests for the multi-process simulation (repro.sim.multiprocess)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.kernel.context import ContextSwitchModel
from repro.sim.config import SimulationConfig
from repro.sim.datacenter import DatacenterSimulator
from repro.sim.multiprocess import MultiProcessSimulator

SCALE = 256


def make_sim(org="mehpt", apps=("TC", "MUMmer"), virtualized=False, **kwargs):
    config = SimulationConfig(organization=org, scale=SCALE)
    return MultiProcessSimulator(
        list(apps),
        config,
        trace_length=kwargs.pop("trace_length", 6_000),
        quantum=kwargs.pop("quantum", 1_000),
        switch_model=ContextSwitchModel(virtualized=virtualized),
        **kwargs,
    )


class TestScheduling:
    def test_all_processes_complete(self):
        sim = make_sim()
        result = sim.run()
        assert all(p.finished for p in sim.processes)
        assert all(p.accesses_done == 6_000 for p in sim.processes)
        assert result.processes == 2

    def test_switch_count_round_robin(self):
        sim = make_sim(trace_length=4_000, quantum=1_000)
        result = sim.run()
        # 2 processes x 4 quanta each = 8 dispatches, all of them switches
        # under strict round-robin.
        assert result.switches == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_sim(apps=())
        with pytest.raises(ConfigurationError):
            make_sim(quantum=0)

    @pytest.mark.parametrize("trace_length", (0, -5))
    @pytest.mark.parametrize(
        "scheduler", (MultiProcessSimulator, DatacenterSimulator),
        ids=("multiprocess", "datacenter"),
    )
    def test_bad_trace_length_rejected(self, scheduler, trace_length):
        # The single-process simulator's one-line error, raised before
        # any workload is generated.
        config = SimulationConfig(organization="mehpt", scale=SCALE)
        with pytest.raises(
            ConfigurationError, match=f"^trace_length {trace_length} must be > 0$"
        ):
            scheduler(["GUPS", "BFS"], config, trace_length=trace_length)


class TestSectionVC:
    """The paper's context-switch cost claims."""

    def test_mehpt_pays_l2p_movement(self):
        result = make_sim(org="mehpt").run()
        assert result.l2p_switch_cycles > 0
        assert result.mean_l2p_entries > 0

    def test_radix_pays_none(self):
        result = make_sim(org="radix").run()
        assert result.l2p_switch_cycles == 0.0

    def test_l2p_overhead_is_modest(self):
        """Section V-C: the save/restore overhead is small."""
        result = make_sim(org="mehpt").run()
        assert result.l2p_overhead() < 0.02
        # ...and small relative to the switches themselves.
        assert result.l2p_switch_cycles < result.switch_cycles / 2

    def test_virtualized_switches_skip_l2p(self):
        result = make_sim(org="mehpt", virtualized=True).run()
        assert result.l2p_switch_cycles == 0.0

    def test_teardown_is_table_drop_not_scan(self):
        sim = make_sim(org="mehpt")
        sim.run()
        # Per-process tables: the entries to reclaim are exactly the
        # process's own (no global scan over other processes' entries).
        entries = [p.teardown_entries() for p in sim.processes]
        assert all(e > 0 for e in entries)
        assert entries[0] != sum(entries)  # not a shared global table
