"""Engine-equivalence tests for the vectorized fast path (repro.sim.fastpath).

The contract under test: for every organization, workload, warmup
fraction, chunk size and abort scenario, ``engine="vectorized"`` and
``engine="scalar"`` produce the *same* ``PerformanceResult`` — dataclass
equality, every field — and identical final TLB contents, aborted runs
included.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.ecpt import cwt
from repro.hashing import storage
from repro.obs import ObservabilityConfig
from repro.obs.trace import read_jsonl
from repro.radix.table import RadixPageTable
from repro.sim import simulator
from repro.sim.config import ENGINES, SimulationConfig
from repro.sim.simulator import TranslationSimulator, memory_result
from repro.traces.format import TraceMeta, TraceReader, TraceWriter
from repro.traces.workload import TraceWorkload
from repro.workloads import get_workload
from tests.test_mmu_walk_batch import observed

pytestmark = pytest.mark.fastpath

SCALE = 64


def run_engine(engine, org="mehpt", app="GUPS", n=6_000, warmup=0.0,
               thp=False, chunk=None, scale=SCALE, seed=3, **config_kw):
    workload = get_workload(app, scale=scale, seed=seed)
    config = SimulationConfig(
        organization=org, thp_enabled=thp, scale=scale, seed=seed,
        engine=engine, **config_kw,
    )
    sim = TranslationSimulator(
        workload, config, trace_length=n, warmup_fraction=warmup,
        engine_chunk=chunk,
    )
    result = sim.run()
    return result, sim.system


def tlb_contents(system):
    tlb = system.tlb
    return {
        (level, size): [list(s) for s in t._sets]
        for level, group in (("l1", tlb.l1), ("l2", tlb.l2))
        for size, t in group.items()
    }


class TestEngineEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        org=st.sampled_from(["radix", "ecpt", "mehpt"]),
        thp=st.booleans(),
        warmup=st.sampled_from([0.0, 0.25, 0.617]),
        chunk=st.sampled_from([1, 257, 4096, None]),
        app=st.sampled_from(["GUPS", "TC"]),
        seed=st.integers(0, 2**16),
    )
    def test_results_bit_identical(self, org, thp, warmup, chunk, app, seed):
        scalar, s_sys = run_engine(
            "scalar", org=org, app=app, thp=thp, warmup=warmup,
            chunk=chunk, seed=seed,
        )
        vector, v_sys = run_engine(
            "vectorized", org=org, app=app, thp=thp, warmup=warmup,
            chunk=chunk, seed=seed,
        )
        assert scalar == vector
        assert tlb_contents(s_sys) == tlb_contents(v_sys)

    @pytest.mark.parametrize("chunk", [257, 1024, None])
    def test_aborted_run_bit_identical(self, chunk):
        # ecpt at fmfi 0.75 hits the paper's contiguous-allocation
        # failure mid-trace; the prefix accounting must match exactly.
        scalar, s_sys = run_engine(
            "scalar", org="ecpt", scale=512, n=30_000, warmup=0.1,
            chunk=chunk, fmfi=0.75,
        )
        vector, v_sys = run_engine(
            "vectorized", org="ecpt", scale=512, n=30_000, warmup=0.1,
            chunk=chunk, fmfi=0.75,
        )
        assert scalar.failed and vector.failed
        assert scalar == vector
        assert tlb_contents(s_sys) == tlb_contents(v_sys)

    def test_invariant_checks_run_in_vectorized_mode(self):
        scalar, _ = run_engine("scalar", invariant_check_every=777)
        vector, _ = run_engine("vectorized", invariant_check_every=777)
        assert scalar == vector

    def test_invariant_cadence_below_chunk_size(self):
        # Satellite of PR 7: several checkpoints per chunk, with demand
        # faults landing between them (warmup-free GUPS faults heavily
        # early on).  The driver cuts each chunk after every access a
        # check follows, which must not change any result of a
        # completed run.
        for every in (3, 64, 100):
            scalar, _ = run_engine(
                "scalar", n=3_000, chunk=512, invariant_check_every=every,
            )
            vector, _ = run_engine(
                "vectorized", n=3_000, chunk=512, invariant_check_every=every,
            )
            assert scalar == vector


class TestAbortWarmupBoundary:
    """Satellite of PR 7: the abort path's warmup-snapshot condition.

    The driver cuts the chunk after the last warmup access and closes
    the warmup window only if that piece completes, because the
    aborting access never completes (``events_done`` excludes it).  Pin
    scalar/vectorized equivalence with the boundary placed exactly at,
    just before, and just after the aborting access.
    """

    N = 30_000

    @pytest.fixture(scope="class")
    def abort_index(self):
        result, _ = run_engine(
            "scalar", org="ecpt", scale=512, n=self.N, fmfi=0.75, warmup=0.0,
        )
        assert result.failed
        # events_done == index of the aborting access (it never
        # completes); with warmup 0, accesses == events_done * repeats.
        repeats = max(
            1, get_workload("GUPS", scale=512, seed=3).spec.pattern.page_repeats
        )
        assert result.accesses % repeats == 0
        return result.accesses // repeats

    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    def test_abort_straddles_warmup_boundary(self, abort_index, delta):
        # warmup_events = int(frac * N); choose frac to land the warmup
        # boundary (warmup_events - 1) at abort_index + delta.
        warmup_events = abort_index + delta + 1
        if not 0 < warmup_events < self.N:
            pytest.skip("boundary out of range for this trace")
        frac = (warmup_events + 0.5) / self.N
        scalar, _ = run_engine(
            "scalar", org="ecpt", scale=512, n=self.N, fmfi=0.75,
            warmup=frac,
        )
        vector, _ = run_engine(
            "vectorized", org="ecpt", scale=512, n=self.N, fmfi=0.75,
            warmup=frac,
        )
        assert scalar.failed and vector.failed
        assert scalar == vector

    @pytest.mark.parametrize("chunk", [64, 257])
    def test_abort_boundary_with_small_chunks(self, abort_index, chunk):
        # Same straddle with the abort mid-chunk rather than in the
        # first chunk, exercising the base-relative index arithmetic.
        warmup_events = abort_index  # boundary one before the abort
        frac = (warmup_events + 0.5) / self.N
        scalar, _ = run_engine(
            "scalar", org="ecpt", scale=512, n=self.N, fmfi=0.75,
            warmup=frac, chunk=chunk,
        )
        vector, _ = run_engine(
            "vectorized", org="ecpt", scale=512, n=self.N, fmfi=0.75,
            warmup=frac, chunk=chunk,
        )
        assert scalar.failed and vector.failed
        assert scalar == vector


def plant_check_failure(monkeypatch, fail_at):
    """Make the ``fail_at``-th invariant check raise ``SimulationError``."""
    calls = itertools.count(1)
    real = simulator.check_system_invariants

    def check(system, progress):
        if next(calls) == fail_at:
            raise SimulationError("planted invariant failure", progress=progress)
        real(system, progress)

    monkeypatch.setattr(simulator, "check_system_invariants", check)


def left_state(system):
    """The walker-side state a run leaves behind, plus TLB counters."""
    tlb = system.tlb
    tlbs = [t for group in (tlb.l1, tlb.l2) for t in group.values()]
    counters = [(t.hits, t.misses) for t in tlbs] + [
        tlb.translations, tlb.l1_hits, tlb.l2_hits, tlb.walks, tlb.faults,
    ]
    return observed(system), counters


class TestCheckFailureState:
    """A failing invariant check stops both engines at the same access.

    The driver runs each check between pieces, so the exception, the
    trace written so far and every TLB, cache and walk-cache state the
    run leaves behind are engine-independent.
    """

    @staticmethod
    def run_failing(monkeypatch, path, engine, org, every, fail_at):
        # Synthetic line addresses come from process-wide counters;
        # restart them so both builds place their tables at the same
        # addresses and cache contents compare across runs.
        monkeypatch.setattr(storage, "_STORAGE_IDS", itertools.count(1))
        monkeypatch.setattr(cwt, "_cwt_bases", itertools.count(1))
        monkeypatch.setattr(RadixPageTable, "_node_ids", itertools.count(1))
        plant_check_failure(monkeypatch, fail_at)
        config = SimulationConfig(
            organization=org, scale=SCALE, seed=3, engine=engine,
            invariant_check_every=every,
            obs=ObservabilityConfig(trace_path=str(path)),
        )
        sim = TranslationSimulator(
            get_workload("GUPS", scale=SCALE, seed=3), config,
            trace_length=4_000, engine_chunk=512,
        )
        with pytest.raises(SimulationError) as info:
            sim.run()
        return info.value, sim.system

    @pytest.mark.parametrize("every, fail_at", [(3, 40), (100, 7), (777, 2)])
    @pytest.mark.parametrize("org", ["radix", "ecpt", "mehpt"])
    def test_failed_check_leaves_same_state(
        self, monkeypatch, tmp_path, org, every, fail_at
    ):
        left = {}
        for engine in ("scalar", "vectorized"):
            path = tmp_path / f"{engine}.jsonl"
            exc, system = self.run_failing(
                monkeypatch, path, engine, org, every, fail_at
            )
            system.obs.close()
            left[engine] = (exc.context["progress"], path.read_bytes(),
                            left_state(system))
        s_progress, s_trace, s_state = left["scalar"]
        v_progress, v_trace, v_state = left["vectorized"]
        assert s_progress == v_progress == every * fail_at
        assert s_trace == v_trace
        assert s_state == v_state

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_trace_sink_closed_when_run_raises(
        self, monkeypatch, tmp_path, engine
    ):
        path = tmp_path / "t.jsonl"
        _, system = self.run_failing(monkeypatch, path, engine, "mehpt", 100, 7)
        sink = system.obs.tracer.sink
        assert sink.events_written > 0
        assert len(read_jsonl(str(path))) == sink.events_written

    def test_trace_sink_closed_when_populate_raises(self, monkeypatch, tmp_path):
        path = tmp_path / "p.jsonl"
        plant_check_failure(monkeypatch, 3)
        config = SimulationConfig(
            organization="mehpt", scale=SCALE, seed=3,
            invariant_check_every=100,
            obs=ObservabilityConfig(trace_path=str(path)),
        )
        system = config.build(get_workload("GUPS", scale=SCALE, seed=3))
        with pytest.raises(SimulationError):
            memory_result(system)
        sink = system.obs.tracer.sink
        assert sink.events_written > 0
        assert len(read_jsonl(str(path))) == sink.events_written


class TestEngineSelection:
    def test_engine_validated(self):
        assert SimulationConfig(engine="auto").engine == "auto"
        with pytest.raises(ConfigurationError):
            SimulationConfig(engine="turbo")
        assert "vectorized" in ENGINES

    def test_auto_prefers_vectorized(self):
        assert SimulationConfig().resolve_engine() == "vectorized"
        assert SimulationConfig(engine="scalar").resolve_engine() == "scalar"

    def test_tracing_composes_with_vectorized(self):
        # Tracing no longer forces the scalar loop (PR 7): the batched
        # engine synthesizes the per-access event stream itself.
        traced = SimulationConfig(obs=ObservabilityConfig(trace_buffer=64))
        assert traced.resolve_engine() == "vectorized"
        metrics_only = SimulationConfig(obs=ObservabilityConfig())
        assert metrics_only.resolve_engine() == "vectorized"

    def test_vectorized_with_tracing_accepted(self):
        config = SimulationConfig(
            engine="vectorized", obs=ObservabilityConfig(trace_buffer=64),
        )
        assert config.resolve_engine() == "vectorized"
        result, _ = run_engine(
            "vectorized", n=2_000, obs=ObservabilityConfig(trace_buffer=256),
        )
        assert result.accesses > 0

    def test_traced_auto_run_enters_fastpath(self, monkeypatch):
        import repro.sim.fastpath as fastpath

        entered = []
        real = fastpath.run_vectorized

        def spy(*args, **kwargs):
            entered.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(fastpath, "run_vectorized", spy)
        result, _ = run_engine(
            "auto", n=2_000, obs=ObservabilityConfig(trace_buffer=256),
        )
        assert result.accesses > 0
        assert entered

    def test_engine_chunk_validated(self):
        workload = get_workload("GUPS", scale=SCALE)
        with pytest.raises(ConfigurationError):
            TranslationSimulator(
                workload, SimulationConfig(scale=SCALE), engine_chunk=0
            )


class TestObservabilityEquivalence:
    def test_metrics_snapshots_match_across_engines(self):
        scalar, _ = run_engine(
            "scalar", n=4_000, obs=ObservabilityConfig(metrics=True),
        )
        vector, _ = run_engine(
            "vectorized", n=4_000, obs=ObservabilityConfig(metrics=True),
        )
        assert scalar.metrics == vector.metrics
        assert scalar == vector

    def test_clock_skip_does_not_change_results(self):
        # The scalar loop only advances the sim-cycle clock when a trace
        # sink is attached; a traced run must still compute the same
        # performance numbers as an untraced one.
        plain, _ = run_engine("scalar", n=4_000)
        traced, _ = run_engine(
            "scalar", n=4_000,
            obs=ObservabilityConfig(metrics=False, trace_buffer=100_000),
        )
        assert plain == traced


class TestChunkedTraceFeeds:
    @pytest.mark.parametrize("chunk_values", [1, 100, 4096, 65536])
    def test_workload_chunks_concatenate_to_trace(self, chunk_values):
        workload = get_workload("TC", scale=SCALE)
        whole = workload.trace(5_000)
        parts = list(get_workload("TC", scale=SCALE).trace_chunks(
            5_000, chunk_values=chunk_values,
        ))
        assert all(p.size == chunk_values for p in parts[:-1])
        assert np.array_equal(np.concatenate(parts), whole)

    def test_chunk_values_validated(self):
        workload = get_workload("TC", scale=SCALE)
        with pytest.raises(ConfigurationError):
            next(workload.trace_chunks(100, chunk_values=0))

    def test_reader_window_matches_read(self, tmp_path):
        path = str(tmp_path / "t.vpt")
        rng = np.random.default_rng(5)
        with TraceWriter(path, meta=TraceMeta(), chunk_values=64) as writer:
            writer.append(rng.integers(0, 1 << 30, size=500))
        with TraceReader(path) as reader:
            whole = reader.read(300)
        with TraceReader(path) as reader:
            parts = list(reader.iter_window(300))
        assert np.array_equal(np.concatenate(parts), whole)
        with TraceReader(path) as reader:
            looped = reader.read(1200, loop=True)
        with TraceReader(path) as reader:
            looped_parts = list(reader.iter_window(1200, loop=True))
        assert np.array_equal(np.concatenate(looped_parts), looped)

    def test_reader_window_validates_like_read(self, tmp_path):
        path = str(tmp_path / "t.vpt")
        with TraceWriter(path, meta=TraceMeta()) as writer:
            writer.append(np.arange(10, dtype=np.int64))
        with TraceReader(path) as reader:
            with pytest.raises(ConfigurationError):
                list(reader.iter_window(11))
            with pytest.raises(ConfigurationError):
                list(reader.iter_window(-1))


class TestTraceReplayStreaming:
    def make_trace(self, path, total, chunk=65_536):
        # Synthesize a trace directly through the writer (the generator's
        # burst loop would dominate the test's runtime).  The 512-page
        # footprint fits the L2 TLB, keeping the replay hit-dominated.
        meta = TraceMeta(scale=SCALE, seed=9)
        rng = np.random.default_rng(9)
        with TraceWriter(path, meta=meta, chunk_values=chunk) as writer:
            remaining = total
            while remaining:
                n = min(chunk, remaining)
                writer.append(rng.integers(0, 512, size=n).astype(np.int64))
                remaining -= n

    def test_replay_engines_agree(self, tmp_path):
        path = str(tmp_path / "r.vpt")
        self.make_trace(path, 50_000)
        results = {}
        for engine in ("scalar", "vectorized"):
            config = SimulationConfig(
                organization="mehpt", scale=SCALE, engine=engine,
            )
            sim = TranslationSimulator(
                TraceWorkload(path), config, trace_length=50_000,
            )
            results[engine] = sim.run()
        assert results["scalar"] == results["vectorized"]

    def test_large_replay_streams_without_materializing(self, tmp_path):
        # 4M records would be ~32MB as one int64 array (and far more as
        # a Python list); the streaming replay must stay under 20MB.
        total = 4_000_000
        path = str(tmp_path / "big.vpt")
        self.make_trace(path, total)
        config = SimulationConfig(
            organization="mehpt", scale=SCALE, engine="vectorized",
        )
        sim = TranslationSimulator(
            TraceWorkload(path), config, trace_length=total,
        )
        tracemalloc.start()
        result = sim.run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert not result.failed
        assert result.accesses == total
        assert peak < 20 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
        with TraceReader(path) as reader:
            assert reader.total_values == total  # really 4M records on disk
