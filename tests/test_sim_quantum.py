"""Scalar vs vectorized quantum-engine bit-identity (repro.sim.quantum).

The vectorized quantum engine must be a pure performance change: for
every (organization, policy, quantum, churn, seed) cell the datacenter
simulator must produce byte-identical results, metrics snapshots, event
streams and final TLB contents under either engine, aborted runs and
the one-socket Section V-C cells included.  These tests pin that
contract, the scan-skip optimisation's determinism, the adversarial
tenant-storm replay, and the sweep cache's deliberate
engine-independence.
"""

import itertools

import pytest

from repro.experiments import engine as engine_mod
from repro.experiments.runner import (
    ExperimentSettings,
    clear_caches,
    datacenter_sweep,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fuzz.scenario import PRESETS
from repro.obs import ObservabilityConfig
from repro.sim.config import SimulationConfig
from repro.sim.datacenter import DatacenterParams, DatacenterSimulator
from repro.sim.fastpath import BatchedEngine, ScalarEngine
from repro.sim.quantum import QuantumEngine

pytestmark = [pytest.mark.fastpath, pytest.mark.datacenter]

SCALE = 64


def dc_config(organization="mehpt", engine="vectorized", **overrides):
    return SimulationConfig(
        organization=organization, scale=SCALE, engine=engine, **overrides
    )


def dc_run(engine, organization="mehpt", policy="none", quantum=700,
           churn_every=0, seed=7, apps=("GUPS", "BFS"), trace_length=3_000,
           config=None, **param_overrides):
    if config is None:
        config = dc_config(organization, engine=engine, seed=seed)
    defaults = dict(
        sockets=2, processes=4, policy=policy, quantum=quantum,
        churn_every=churn_every, pool_mb=64,
    )
    defaults.update(param_overrides)
    params = DatacenterParams(**defaults)
    sim = DatacenterSimulator(
        list(apps), config, params=params, trace_length=trace_length
    )
    return sim, sim.run()


def tlb_state(system):
    """Final TLB contents and hit/miss counters, as plain data."""
    state = {}
    for level in ("l1", "l2"):
        for size, tlb in getattr(system.tlb, level).items():
            state[(level, size)] = (list(tlb._sets), tlb.hits, tlb.misses)
    return state


# The grid varies quantum/churn/seed alongside organization x policy so
# one parametrized test covers the full product the contract promises.
GRID = [
    (org, policy, quantum, churn, seed)
    for (org, policy), (quantum, churn, seed) in zip(
        itertools.product(
            ("mehpt", "ecpt", "radix"), ("none", "replicate", "migrate")
        ),
        itertools.cycle([(700, 4, 7), (333, 0, 11), (1500, 6, 3)]),
    )
]


class TestDatacenterBitIdentity:
    @pytest.mark.parametrize("org,policy,quantum,churn,seed", GRID)
    def test_grid_cell_identical(self, org, policy, quantum, churn, seed):
        s_sim, s = dc_run("scalar", org, policy, quantum, churn, seed)
        v_sim, v = dc_run("vectorized", org, policy, quantum, churn, seed)
        assert all(isinstance(t.driver.engine, BatchedEngine) for t in v_sim.tenants)
        assert all(isinstance(t.driver.engine, ScalarEngine) for t in s_sim.tenants)
        assert not s.failed and not v.failed
        assert s.to_dict() == v.to_dict()
        for ts, tv in zip(s_sim.tenants, v_sim.tenants):
            assert tlb_state(ts.system) == tlb_state(tv.system), ts.name

    def test_metrics_and_events_identical(self):
        def run(engine):
            config = dc_config(
                "mehpt", engine=engine, seed=5,
                obs=ObservabilityConfig(trace_buffer=200_000),
            )
            sim, result = dc_run(
                engine, policy="migrate", quantum=600, churn_every=5,
                config=config,
            )
            assert not result.failed
            return result, sim.obs.ring.events

        scalar, scalar_events = run("scalar")
        vector, vector_events = run("vectorized")
        assert scalar.to_dict() == vector.to_dict()
        assert scalar.metrics == vector.metrics
        assert scalar.metrics  # non-empty: the comparison is meaningful
        assert scalar_events == vector_events

    def test_failed_run_identical(self):
        # Injected aborts surface as failed results at the same point
        # under both engines (the vectorized path re-raises without
        # advancing the aborting tenant's cursor, like the scalar loop).
        def run(engine):
            config = dc_config(
                "mehpt", engine=engine, seed=3,
                fault_plan=FaultPlan(
                    # every=1 defeats the retry ladder: every retry
                    # fails too, so recovery exhausts and the run aborts.
                    [FaultSpec("chunk_alloc", every=1)], seed=3
                ),
            )
            return dc_run(engine, quantum=500, config=config)

        _, s = run("scalar")
        _, v = run("vectorized")
        assert s.failed and v.failed
        assert s.to_dict() == v.to_dict()

    @pytest.mark.parametrize("org", ("mehpt", "ecpt", "radix"))
    def test_one_socket_cell_identical(self, org):
        # The Section V-C setting: three processes round-robin on one
        # socket with an unfragmented pool.
        runs = {
            engine: dc_run(
                engine, org, quantum=1_500, seed=3,
                apps=("GUPS", "SysBench", "BFS"), trace_length=6_000,
                sockets=1, processes=3, frag_fraction=0.0,
            )
            for engine in ("scalar", "vectorized")
        }
        (s_sim, s), (v_sim, v) = runs["scalar"], runs["vectorized"]
        assert all(isinstance(t.driver.engine, BatchedEngine) for t in v_sim.tenants)
        assert not s.failed and not v.failed
        assert s.to_dict() == v.to_dict()
        for ts, tv in zip(s_sim.tenants, v_sim.tenants):
            assert tlb_state(ts.system) == tlb_state(tv.system), ts.name

    def test_mid_quantum_abort_identical(self):
        # Pool exhaustion raising out of handle_fault mid-quantum: the
        # vectorized engine must flush pending walks, charge the prefix
        # counters and re-raise without advancing the cursor, exactly
        # like the scalar loop's exception semantics.
        def run(engine):
            return dc_run(
                engine, seed=3, apps=("GUPS",), quantum=500,
                trace_length=4_000, processes=6, pool_mb=2,
                frag_fraction=0.6,
            )

        s_sim, s = run("scalar")
        v_sim, v = run("vectorized")
        assert s.failed and v.failed
        assert "OutOfMemoryError" in s.failure_reason
        # The abort hit the batched path.
        assert all(isinstance(t.driver.engine, BatchedEngine) for t in v_sim.tenants)
        assert 0 < s.accesses  # ... mid-run, not at the initial build
        assert s.to_dict() == v.to_dict()
        # Every tenant, not only the aborting one, stops mid-run at the
        # same access and has its engine written back.
        cursors = [t.process.cursor for t in s_sim.tenants]
        assert cursors == [t.process.cursor for t in v_sim.tenants]
        assert 0 < min(cursors) and max(cursors) < 4_000
        for ts, tv in zip(s_sim.tenants, v_sim.tenants):
            assert tlb_state(ts.system) == tlb_state(tv.system), ts.name

    def test_abort_leaves_same_tlbs(self):
        # ECPT on a small fragmented one-socket pool cannot make the
        # large contiguous allocation a resize needs: one tenant's
        # quantum raises mid-run, and every other tenant must still have
        # its engine written back.
        def run(engine):
            return dc_run(
                engine, "ecpt", seed=3, apps=("GUPS",) * 3, quantum=1_000,
                trace_length=30_000, sockets=1, processes=3, pool_mb=8,
                frag_fraction=0.6,
            )

        s_sim, s = run("scalar")
        v_sim, v = run("vectorized")
        assert s.failed and v.failed
        assert "OutOfMemoryError: no free block of order" in s.failure_reason
        assert all(isinstance(t.driver.engine, BatchedEngine) for t in v_sim.tenants)
        assert s.to_dict() == v.to_dict()
        cursors = [t.process.cursor for t in s_sim.tenants]
        assert cursors == [t.process.cursor for t in v_sim.tenants]
        assert 0 < min(cursors) and max(cursors) < 30_000
        for ts, tv in zip(s_sim.tenants, v_sim.tenants):
            assert tlb_state(ts.system) == tlb_state(tv.system), ts.name

    def test_tenant_storm_replay_identical(self, tmp_path):
        # The adversarial tenancy-churn stressor from the fuzz corpus,
        # replayed as every tenant's trace under both engines.
        scenario = PRESETS["tenant-storm"](seed=0)
        path = str(tmp_path / "tenant-storm.vpt")
        scenario.generate_trace(path)
        results = {}
        for engine in ("scalar", "vectorized"):
            sim, result = dc_run(
                engine, policy="migrate", quantum=800, churn_every=5,
                apps=("trace:" + path,), trace_length=scenario.trace_length,
            )
            assert not result.failed, result.failure_reason
            if engine == "vectorized":
                assert all(
                    isinstance(t.driver.engine, BatchedEngine) for t in sim.tenants
                )
            results[engine] = result.to_dict()
        assert results["scalar"] == results["vectorized"]


class TestScanSkip:
    def test_skip_is_deterministic(self, monkeypatch):
        # The allocation-epoch scan skip must be invisible: forcing a
        # full rescan after every quantum yields the same result.
        _, skipping = dc_run("scalar", policy="migrate", churn_every=4)

        counter = itertools.count()
        monkeypatch.setattr(
            DatacenterSimulator, "_scan_sig",
            lambda self, tenant: next(counter),
        )
        _, rescanning = dc_run("scalar", policy="migrate", churn_every=4)
        assert skipping.to_dict() == rescanning.to_dict()

    def test_scans_actually_skipped(self):
        sim, result = dc_run("scalar", policy="none")
        assert not result.failed
        # With no churn and no placement changes after warmup, most
        # post-quantum scans see an unmoved signature and return early.
        assert all(t.scan_sig is not None for t in sim.tenants)
        epochs = [t.pool.alloc_epoch for t in sim.tenants]
        assert all(epoch > 0 for epoch in epochs)


class TestSweepCacheEngineIndependence:
    def test_engine_absent_from_cell_key(self):
        settings = ExperimentSettings(scale=SCALE, trace_length=1_200)
        cell = ("GUPS", "mehpt", False)
        keys = {
            engine_mod.cell_key(
                "datacenter", settings, cell,
                {"dc_policy": "migrate", "engine": engine},
            )[0]
            for engine in ("scalar", "vectorized")
        }
        assert len(keys) == 1

    def test_cached_scalar_cell_serves_vectorized_rerun(self, tmp_path):
        # A cell computed under one engine is served, byte-identical,
        # to a re-run under the other: the disk cache key deliberately
        # ignores the engine knob.
        engine_mod.set_engine(
            engine_mod.SweepEngine(cache_dir=str(tmp_path / "cache"))
        )
        try:
            settings = ExperimentSettings(scale=SCALE, trace_length=1_200)
            kwargs = dict(
                organizations=("mehpt",), apps=["GUPS"],
                dc_sockets=2, dc_processes=3, dc_quantum=400, dc_pool_mb=16,
            )
            clear_caches()
            scalar = datacenter_sweep(settings, engine="scalar", **kwargs)
            clear_caches()  # drop the in-process memo, keep the disk cache
            vector = datacenter_sweep(settings, engine="vectorized", **kwargs)
            (s_result,) = scalar.values()
            (v_result,) = vector.values()
            assert s_result.to_dict() == v_result.to_dict()
        finally:
            engine_mod.reset_engine()
            clear_caches()


class TestEngineUnit:
    def test_finalize_is_idempotent(self):
        from repro.kernel.process import Process
        from repro.workloads import get_workload

        config = dc_config("mehpt", engine="vectorized")
        workload = get_workload("GUPS", scale=SCALE, seed=1)
        system = config.build(workload)
        process = Process(
            name="p", address_space=system.address_space, tlb=system.tlb,
            trace=workload.trace(2_000), org=system.org,
        )
        engine = QuantumEngine(process, system)
        while not process.finished:
            engine.run_quantum(500)
        state = tlb_state(system)
        engine.finalize()
        assert tlb_state(system) == state
