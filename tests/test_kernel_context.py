"""Unit tests for the context-switch model (repro.kernel.context)."""

from repro.core.l2p import L2PTable
from repro.kernel.context import ContextSwitchModel
from repro.sim.config import SimulationConfig
from repro.sim.datacenter import DatacenterParams, DatacenterSimulator


class TestContextSwitchModel:
    def test_non_mehpt_pays_base_only(self):
        model = ContextSwitchModel(base_cycles=1000)
        assert model.switch_cost(None, None) == 1000

    def test_l2p_cost_scales_with_usage(self):
        model = ContextSwitchModel(base_cycles=1000, l2p_entry_cycles=4)
        out = L2PTable()
        out.subtable(0, "4K").reserve(50)
        incoming = L2PTable()
        incoming.subtable(1, "2M").reserve(10)
        cost = model.switch_cost(out, incoming)
        assert cost == 1000 + 50 * 4 + 10 * 4

    def test_virtualized_guest_skips_l2p(self):
        """Section V-C: no guest L2P tables; host table not switched."""
        model = ContextSwitchModel(base_cycles=1000, virtualized=True)
        l2p = L2PTable()
        l2p.subtable(0, "4K").reserve(64)
        assert model.switch_cost(l2p, l2p) == 1000

    def test_statistics(self):
        model = ContextSwitchModel(base_cycles=100)
        model.switch_cost(None, None)
        model.switch_cost(None, None)
        assert model.switches == 2
        assert model.mean_cost() == 100

    def test_paper_average_usage_is_cheap(self):
        # 53 entries on average (Section V-C) -> few hundred cycles.
        model = ContextSwitchModel(base_cycles=1500, l2p_entry_cycles=4)
        l2p = L2PTable()
        l2p.subtable(0, "4K").reserve(53)
        overhead = model.switch_cost(l2p, None) - 1500
        assert overhead == 53 * 4
        assert overhead < 500


class TestSwitchAccountingInSchedulers:
    """The model's counters against the schedulers that drive it."""

    def test_multiprocess_charges_save_and_restore(self):
        # Two processes on a one-socket cell (the Section V-C setting).
        model = ContextSwitchModel(base_cycles=1000, l2p_entry_cycles=4)
        config = SimulationConfig(organization="mehpt", scale=512, seed=7)
        params = DatacenterParams(
            sockets=1, processes=2, policy="none", frag_fraction=0.0,
            quantum=400,
        )
        result = DatacenterSimulator(
            ["GUPS", "GUPS"], config, params=params, trace_length=1_200,
            switch_model=model,
        ).run()
        assert not result.failed
        assert result.switches == model.switches > 0
        # Every switch between live ME-HPT processes saves the outgoing
        # L2P and restores the incoming one; the per-switch surcharge
        # over base_cycles is exactly what the result attributes to L2P.
        assert result.switch_cycles == (
            model.switches * 1000 + result.l2p_switch_cycles
        )
        assert result.l2p_switch_cycles > 0
        assert result.mean_l2p_entries > 0
        assert result.to_dict()["switches"] == result.switches

    def test_datacenter_churn_deterministic_across_seeds(self):
        def run(seed):
            config = SimulationConfig(
                organization="mehpt", scale=512, seed=seed
            )
            params = DatacenterParams(
                sockets=2, processes=3, policy="migrate", quantum=400,
                churn_every=2, max_forks=4, rebalance_every=2, pool_mb=16,
            )
            return DatacenterSimulator(
                ["GUPS"], config, params=params, trace_length=1_200
            ).run()

        a, b, c = run(7), run(7), run(11)
        # Same seed: the whole fork/exec/exit schedule and every counter
        # replays identically.  A different seed runs to completion too
        # (determinism is per-seed, not a constant outcome).
        assert a.to_dict() == b.to_dict()
        assert a.forks > 0 and a.exits > a.forks - 1
        assert not c.failed
        assert c.to_dict() != a.to_dict()
