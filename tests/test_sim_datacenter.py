"""Tests for the multi-tenant NUMA machine model (repro.sim.datacenter).

Covers the topology primitives (line homing, socket pools, NUMA-aware
DRAM charging), the shootdown/replication cost models, the tenant
scheduler (churn, rebalance, determinism), the paper's Section V-C
context-switch claims on one-socket cells, the sweep-engine integration
(caching, overrides splitting, result codec) and the experiment CLI.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.common.units import CACHE_LINE, KB, MB, PAGE_4K
from repro.experiments import engine
from repro.experiments.datacenter import format_result, main, run
from repro.experiments.runner import (
    ExperimentSettings,
    clear_caches,
    datacenter_sweep,
)
from repro.kernel.context import ContextSwitchModel
from repro.mem.alloc_cost import AllocationCostModel
from repro.mem.cache import CacheLevel
from repro.sim.config import SimulationConfig
from repro.sim.datacenter import (
    ALL_SOCKETS,
    DatacenterParams,
    DatacenterSimulator,
    LineHomeMap,
    Machine,
    NumaCacheHierarchy,
    PlacementUnit,
    ReplicationEngine,
    ShootdownModel,
    SocketPoolAllocator,
    split_overrides,
)
from repro.sim.datacenter.shootdown import INITIATOR_CYCLES, PER_IPI_CYCLES
from repro.sim.results import result_from_record, result_to_record

pytestmark = pytest.mark.datacenter


def tiny_config(organization="mehpt", **overrides):
    return SimulationConfig(
        organization=organization, scale=512, seed=7, **overrides
    )


def tiny_params(**overrides):
    defaults = dict(
        sockets=2, processes=3, policy="none", quantum=400,
        churn_every=0, rebalance_every=2, pool_mb=16,
    )
    defaults.update(overrides)
    return DatacenterParams(**defaults)


def tiny_run(organization="mehpt", trace_length=1_200, **param_overrides):
    sim = DatacenterSimulator(
        ["GUPS"], tiny_config(organization),
        params=tiny_params(**param_overrides), trace_length=trace_length,
    )
    return sim.run()


def one_socket_run(organization="mehpt", apps=("TC", "MUMmer"),
                   virtualized=False, trace_length=6_000, quantum=1_000):
    """Run a Section V-C cell: one socket, an unfragmented pool, no
    placement policy, no churn; returns (simulator, result)."""
    params = DatacenterParams(
        sockets=1, processes=len(apps), policy="none", frag_fraction=0.0,
        quantum=quantum,
    )
    sim = DatacenterSimulator(
        list(apps), SimulationConfig(organization=organization, scale=256),
        params=params, trace_length=trace_length,
        switch_model=ContextSwitchModel(virtualized=virtualized),
    )
    result = sim.run()
    assert not result.failed, result.failure_reason
    return sim, result


class TestParams:
    def test_validate_rejects_bad_ranges(self):
        for bad in (
            dict(sockets=0),
            dict(processes=0),
            dict(policy="teleport"),
            dict(quantum=0),
            dict(cores_per_socket=0),
            dict(churn_every=-1),
            dict(max_forks=-1),
            dict(remote_dram_delta=-1.0),
            dict(pool_mb=0),
            dict(frag_fraction=1.0),
            dict(remote_dram_delta=120.5),
            dict(remote_dram_delta=float("nan")),
            dict(remote_dram_delta=float("inf")),
            dict(remote_dram_delta="120"),
            dict(sockets="2"),
            dict(sockets=2.5),
            dict(sockets=2.0),
            dict(processes=True),
            dict(quantum=None),
            dict(policy=1),
            dict(frag_fraction=float("nan")),
            dict(frag_fraction=float("-inf")),
            dict(frag_fraction=False),
        ):
            with pytest.raises(ConfigurationError):
                DatacenterParams(**bad).validate()

    def test_from_overrides_maps_prefixed_names(self):
        params = DatacenterParams.from_overrides(
            {"dc_sockets": 4, "dc_policy": "replicate"}
        )
        assert params.sockets == 4
        assert params.policy == "replicate"
        assert params.processes == DatacenterParams().processes

    def test_from_overrides_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="dc_bogus"):
            DatacenterParams.from_overrides({"dc_bogus": 1})

    def test_split_overrides_partitions_by_prefix(self):
        params, config = split_overrides(
            {"dc_sockets": 3, "fmfi": 0.5, "dc_policy": "migrate"}
        )
        assert params.sockets == 3 and params.policy == "migrate"
        assert config == {"fmfi": 0.5}


class TestLineHomeMap:
    def test_register_and_lookup(self):
        home = LineHomeMap()
        home.register(1000, 64, 1)
        assert home.home_of(1000) == 1
        assert home.home_of(1063) == 1
        assert home.home_of(1064) is None
        assert home.home_of(999) is None

    def test_unregister_and_rehome(self):
        home = LineHomeMap()
        home.register(1000, 64, 0)
        home.set_home(1000, ALL_SOCKETS)
        assert home.home_of(1010) == ALL_SOCKETS
        home.unregister(1000)
        assert home.home_of(1000) is None


class TestMachine:
    def test_fragment_is_deterministic(self):
        stats = []
        for _ in range(2):
            machine = Machine(2, 8 * MB)
            machine.fragment(0.5)
            stats.append(
                [(pool.free_frames(), pool.largest_free_order())
                 for pool in machine.pools]
            )
        assert stats[0] == stats[1]
        # Singleton holes can't coalesce: big orders are gone.
        frames, largest = stats[0][0]
        assert 0 < frames < Machine(2, 8 * MB).pools[0].free_frames()

    def test_walks_attributed_to_active_socket(self):
        machine = Machine(2, 4 * MB)
        machine.active_socket = 1
        machine.on_walk(50.0)
        assert machine.walks_by_socket == [0, 1]
        assert machine.walk_cycles_by_socket == [0.0, 50.0]


class TestSocketPoolAllocator:
    def test_spills_to_other_socket_when_preferred_full(self):
        machine = Machine(2, 1 * MB)
        pool = SocketPoolAllocator(
            machine, cost_model=AllocationCostModel(), preferred_socket=0
        )
        handles = [pool.alloc(256 * KB) for _ in range(6)]
        sockets = {pool.socket_of(h) for h in handles}
        assert sockets == {0, 1}
        assert machine.spill_allocations > 0
        pool.release_all()

    def test_exhaustion_raises_oom(self):
        machine = Machine(1, 1 * MB)
        pool = SocketPoolAllocator(
            machine, cost_model=AllocationCostModel(), preferred_socket=0
        )
        with pytest.raises(OutOfMemoryError):
            for _ in range(10):
                pool.alloc(512 * KB)
        pool.release_all()


class TestNumaCacheHierarchy:
    def _caches(self, machine):
        return NumaCacheHierarchy(
            machine,
            levels=[CacheLevel("L1", capacity_bytes=2 * KB, ways=2,
                               hit_cycles=4)],
            dram_cycles=100,
        )

    def test_remote_home_charges_delta(self):
        machine = Machine(2, 4 * MB, remote_dram_delta=80.0)
        machine.home_map.register(5000, 64, 1)
        caches = self._caches(machine)
        machine.active_socket = 0
        remote = caches.access(5000)
        assert remote == pytest.approx(100.0 + 80.0)
        assert machine.remote_dram_accesses == 1
        machine.active_socket = 1
        local = caches.access(6000)  # unknown line -> local DRAM
        assert local == pytest.approx(100.0)
        assert machine.local_dram_accesses == 1

    def test_replicated_home_is_always_local(self):
        machine = Machine(2, 4 * MB)
        machine.home_map.register(5000, 64, ALL_SOCKETS)
        caches = self._caches(machine)
        machine.active_socket = 0
        caches.access(5000)
        machine.active_socket = 1
        caches.access(5064 - 1)
        assert machine.remote_dram_accesses == 0


class TestShootdownAndReplication:
    def test_broadcast_cost_and_counters(self):
        model = ShootdownModel()
        cost = model.broadcast(3, "exit", "t#0")
        assert cost == pytest.approx(INITIATOR_CYCLES + 3 * PER_IPI_CYCLES)
        assert model.shootdowns == 1
        assert model.ipis == 3

    def test_replicate_policy_homes_units_everywhere(self):
        machine = Machine(4, 4 * MB)
        rep = ReplicationEngine("replicate", machine)
        unit = PlacementUnit(1000, 64, 64 * CACHE_LINE, 0)
        machine.home_map.register(1000, 64, 0)
        rep.on_unit_registered(unit)
        assert machine.home_map.home_of(1000) == ALL_SOCKETS
        assert rep.replicated_bytes == 64 * CACHE_LINE * 3
        rep.on_faults(10)
        assert rep.replica_updates == 10 * 3

    def test_migrate_units_rehomes(self):
        machine = Machine(2, 4 * MB)
        rep = ReplicationEngine("migrate", machine)
        machine.home_map.register(1000, 64, 0)
        unit = PlacementUnit(1000, 64, 64 * CACHE_LINE, 0)
        rep.migrate_units([unit], 1, "t#0")
        assert machine.home_map.home_of(1000) == 1
        assert unit.socket == 1
        assert rep.migrated_units == 1
        # Already-there units are skipped.
        before = rep.migrated_units
        rep.migrate_units([unit], 1, "t#0")
        assert rep.migrated_units == before


class TestDatacenterSimulator:
    def test_deterministic_across_runs(self):
        a = tiny_run(churn_every=2, policy="migrate")
        b = tiny_run(churn_every=2, policy="migrate")
        assert a.to_dict() == b.to_dict()

    def test_final_cache_state_engine_independent(self):
        # Scalar quanta walk the shared hierarchy directly; the batched
        # engines' shared mirror must not overwrite it at result time.
        # Storage line bases come from a process-wide counter, so the
        # second run's lines are shifted: compare set occupancy.
        state = {}
        for engine in ("scalar", "vectorized"):
            sim = DatacenterSimulator(
                ["GUPS"], tiny_config(engine=engine),
                params=tiny_params(churn_every=2), trace_length=1_200,
            )
            assert not sim.run().failed
            caches = sim.caches
            state[engine] = [
                ([len(s) for s in level._sets], level.hits, level.misses)
                for level in caches.levels
            ], caches.dram_accesses
        assert all(sum(occupancy) for occupancy, _, _ in state["scalar"][0])
        assert state["scalar"] == state["vectorized"]

    def test_total_cycles_identity(self):
        result = tiny_run(policy="replicate", churn_every=3)
        assert result.total_cycles == pytest.approx(
            result.run_cycles + result.switch_cycles
            + result.shootdown_cycles + result.replication_cycles
            + result.migration_cycles
        )

    def test_churn_forks_and_exits(self):
        result = tiny_run(churn_every=2, max_forks=4)
        assert result.forks > 0
        assert result.exits >= result.forks
        assert result.tenants_spawned == 3 + result.forks

    def test_replicate_kills_remote_dram(self):
        none = tiny_run(policy="none")
        replicate = tiny_run(policy="replicate")
        assert none.remote_dram_accesses > 0
        assert replicate.remote_dram_accesses == 0
        assert replicate.replicated_bytes > 0

    def test_migrate_rehomes_tables(self):
        result = tiny_run(policy="migrate")
        assert result.migrations > 0
        assert result.migrated_bytes > 0
        assert result.shootdowns > 0

    def test_mehpt_replicates_less_than_radix(self):
        mehpt = tiny_run("mehpt", policy="replicate")
        radix = tiny_run("radix", policy="replicate")
        assert not mehpt.failed and not radix.failed
        assert 0 < mehpt.replicated_bytes < radix.replicated_bytes

    def test_l2p_sampled_after_quantum(self):
        result = tiny_run("mehpt")
        assert result.mean_l2p_entries > 0

    def test_radix_has_no_l2p_samples(self):
        result = tiny_run("radix")
        assert result.mean_l2p_entries == 0.0

    def test_walks_split_across_sockets(self):
        result = tiny_run(rebalance_every=2)
        assert len(result.walks_by_socket) == 2
        assert all(w > 0 for w in result.walks_by_socket)

    def test_result_codec_round_trip(self):
        result = tiny_run(policy="replicate", churn_every=2)
        clone = result_from_record(result_to_record(result))
        assert clone == result

    def test_metrics_snapshot_when_observed(self):
        from repro.obs import ObservabilityConfig

        config = tiny_config(obs=ObservabilityConfig(metrics=True))
        result = DatacenterSimulator(
            ["GUPS"], config, params=tiny_params(policy="replicate"),
            trace_length=1_200,
        ).run()
        assert {"numa.walks[socket=0]", "numa.walks[socket=1]",
                "numa.replicated_bytes", "dc.shootdowns",
                "dc.context_switches"} <= set(result.metrics)
        assert result.metrics["numa.replicated_bytes"]["value"] == (
            result.replicated_bytes
        )


class TestOneSocketCell:
    """Round-robin scheduling of several processes on one socket."""

    def test_all_processes_complete(self):
        sim, result = one_socket_run()
        assert all(t.process.finished for t in sim.tenants)
        assert all(t.process.accesses_done == 6_000 for t in sim.tenants)
        assert result.processes == 2

    def test_switch_count_round_robin(self):
        _, result = one_socket_run(trace_length=4_000, quantum=1_000)
        # 2 processes x 4 quanta each = 8 dispatches, all of them switches
        # under strict round-robin.
        assert result.switches == 8

    def test_no_apps_rejected(self):
        with pytest.raises(ConfigurationError):
            DatacenterSimulator([], tiny_config())

    @pytest.mark.parametrize("trace_length", (0, -5))
    def test_bad_trace_length_rejected(self, trace_length):
        # The single-process simulator's one-line error, raised before
        # any workload is generated.
        with pytest.raises(
            ConfigurationError, match=f"^trace_length {trace_length} must be > 0$"
        ):
            DatacenterSimulator(
                ["GUPS", "BFS"], tiny_config(), trace_length=trace_length
            )


class TestSectionVC:
    """The paper's context-switch cost claims, on one-socket cells."""

    def test_mehpt_pays_l2p_movement(self):
        _, result = one_socket_run("mehpt")
        assert result.l2p_switch_cycles > 0
        assert result.mean_l2p_entries > 0

    def test_radix_pays_none(self):
        _, result = one_socket_run("radix")
        assert result.l2p_switch_cycles == 0.0

    def test_l2p_overhead_is_modest(self):
        """Section V-C: the save/restore overhead is small."""
        _, result = one_socket_run("mehpt")
        assert result.l2p_overhead() < 0.02
        # ...and small relative to the switches themselves.
        assert result.l2p_switch_cycles < result.switch_cycles / 2

    def test_virtualized_switches_skip_l2p(self):
        _, result = one_socket_run("mehpt", virtualized=True)
        assert result.l2p_switch_cycles == 0.0

    def test_teardown_is_table_drop_not_scan(self):
        sim, _ = one_socket_run("mehpt")
        # Per-process tables: the entries to reclaim are exactly the
        # process's own (no global scan over other processes' entries).
        entries = [t.process.teardown_entries() for t in sim.tenants]
        assert all(e > 0 for e in entries)
        assert entries[0] != sum(entries)  # not a shared global table


class TestEngineIntegration:
    OVERRIDES = dict(
        dc_sockets=2, dc_processes=3, dc_policy="replicate",
        dc_quantum=400, dc_pool_mb=16,
    )

    def settings(self):
        return ExperimentSettings(scale=512, trace_length=1_200)

    def test_sweep_grid_and_memo(self):
        clear_caches()
        results = datacenter_sweep(
            self.settings(), organizations=("mehpt",), apps=("GUPS",),
            **self.OVERRIDES,
        )
        again = datacenter_sweep(
            self.settings(), organizations=("mehpt",), apps=("GUPS",),
            **self.OVERRIDES,
        )
        (cell, result), = results.items()
        assert cell == ("GUPS", "mehpt", False)
        assert again[cell] is result  # in-process memo hit

    def test_disk_cache_hit_on_second_run(self, tmp_path):
        engine.configure(jobs=1, cache_dir=str(tmp_path), use_cache=True)
        try:
            clear_caches()
            first = datacenter_sweep(
                self.settings(), organizations=("mehpt",), apps=("GUPS",),
                **self.OVERRIDES,
            )
            clear_caches()  # drop the memo; force the disk path
            second = datacenter_sweep(
                self.settings(), organizations=("mehpt",), apps=("GUPS",),
                **self.OVERRIDES,
            )
            stats = engine.get_engine().cache_stats()
            assert stats["hits"] >= 1
            key = ("GUPS", "mehpt", False)
            assert first[key].to_dict() == second[key].to_dict()
        finally:
            engine.configure(jobs=1, cache_dir=None, use_cache=False)
            clear_caches()


class TestExperimentDriver:
    def test_run_and_format(self):
        clear_caches()
        result = run(
            ExperimentSettings(scale=512, trace_length=1_200),
            sockets=2, processes=3,
            policies=("none", "replicate"),
            organizations=("radix", "mehpt"),
            dc_quantum=400, dc_pool_mb=16,
        )
        assert set(result.grid) == {
            (org, pol)
            for org in ("radix", "mehpt") for pol in ("none", "replicate")
        }
        report = format_result(result)
        assert "replication cost by organization" in report
        assert "more page-table bytes than ME-HPT" in report

    def test_cli_smoke(self, capsys):
        clear_caches()
        main([
            "--no-cache", "--scale", "512", "--trace-length", "1200",
            "--processes", "2", "--policies", "none",
            "--organizations", "mehpt",
        ])
        out = capsys.readouterr().out
        assert "mehpt" in out and "Datacenter: 2 sockets" in out


class TestServeProtocol:
    def test_datacenter_kind_accepted(self):
        from repro.serve.protocol import parse_job_request

        request = parse_job_request({
            "kind": "datacenter",
            "cells": [{"app": "GUPS", "organization": "mehpt"}],
            "overrides": {"dc_sockets": 2, "dc_policy": "replicate",
                          "fmfi": 0.5},
        })
        assert request.kind == "datacenter"
        assert request.overrides["dc_sockets"] == 2

    def test_dc_overrides_rejected_for_perf(self):
        from repro.serve.protocol import ProtocolError, parse_job_request

        with pytest.raises(ProtocolError, match="dc_sockets"):
            parse_job_request({
                "kind": "perf",
                "cells": [{"app": "GUPS", "organization": "mehpt"}],
                "overrides": {"dc_sockets": 2},
            })

    def test_bad_dc_override_rejected(self):
        from repro.serve.protocol import ProtocolError, parse_job_request

        with pytest.raises(ProtocolError, match="datacenter overrides"):
            parse_job_request({
                "kind": "datacenter",
                "cells": [{"app": "GUPS", "organization": "mehpt"}],
                "overrides": {"dc_policy": "teleport"},
            })


class TestFaultComposition:
    def test_injected_transient_faults_recover(self):
        from repro.faults.plan import FaultPlan, FaultSpec

        config = tiny_config(
            fault_plan=FaultPlan([FaultSpec("chunk_alloc", every=5)], seed=3),
        )
        result = DatacenterSimulator(
            ["GUPS"], config, params=tiny_params(), trace_length=1_200
        ).run()
        assert not result.failed
        assert result.accesses > 0
