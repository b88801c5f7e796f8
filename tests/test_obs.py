"""Tests for the observability layer (repro.obs): metric registry,
event tracing, run manifests, the report CLI, and the contract that a
disabled layer changes nothing."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.engine import SweepEngine
from repro.experiments.runner import ExperimentSettings
from repro.obs import Observability, ObservabilityConfig, build_observability
from repro.obs.manifest import read_manifest
from repro.obs.metrics import (
    CATALOGUE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metric_name,
    pow2_bin,
)
from repro.obs.report import attribute, record_cell
from repro.obs.trace import (
    ALL_KINDS,
    EVENT_CUCKOO_KICK,
    EVENT_FAULT_SERVICED,
    EVENT_MEASURE_START,
    EVENT_RESIZE_BEGIN,
    EVENT_RESIZE_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_START,
    EVENT_TLB_MISS,
    EVENT_WALK_END,
    EVENT_WALK_START,
    SAMPLED_KINDS,
    JsonlTraceSink,
    RingBufferTraceSink,
    Tracer,
    filter_kind,
    first_of_kind,
    read_jsonl,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulator import TranslationSimulator, memory_result, populate_tables
from repro.workloads import get_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_perf(organization, obs=None, scale=64, trace_length=4000, warmup=0.1,
             app="GUPS"):
    workload = get_workload(app, scale=scale)
    config = SimulationConfig(organization=organization, scale=scale, obs=obs)
    simulator = TranslationSimulator(
        workload, config, trace_length=trace_length, warmup_fraction=warmup
    )
    return simulator.run(), simulator.system


# -- registry and metric primitives ---------------------------------------


class TestMetricsRegistry:
    def test_unknown_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("nonsense.metric")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.gauge("tlb.walks")  # catalogued as a counter

    def test_labels_render_sorted(self):
        assert (
            format_metric_name("cuckoo.way_bytes", {"way": 0, "size": "4K"})
            == "cuckoo.way_bytes[size=4K,way=0]"
        )

    def test_labelled_instances_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("cuckoo.inserts", size="4K").inc(3)
        registry.counter("cuckoo.inserts", size="2M").inc(5)
        snapshot = registry.snapshot()
        assert snapshot["cuckoo.inserts[size=4K]"]["value"] == 3
        assert snapshot["cuckoo.inserts[size=2M]"]["value"] == 5

    def test_snapshot_is_json_safe_and_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("alloc.peak_bytes").set(123)
        registry.histogram("cuckoo.kick_depth", size="4K").observe(2)
        snapshot = registry.snapshot()
        # Round-trips through JSON without key coercion surprises.
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert list(snapshot) == sorted(snapshot)

    def test_histogram_set_from_bins_is_idempotent(self):
        histogram = Histogram("cuckoo.kick_depth", CATALOGUE["cuckoo.kick_depth"])
        for _ in range(3):  # repeated snapshots must not double-count
            histogram.set_from_bins({0: 10, 2: 1})
        assert histogram.count == 11
        assert histogram.bins == {"0": 10, "2": 1}

    def test_pow2_binning(self):
        assert [pow2_bin(v) for v in (0, 1, 2, 3, 9)] == ["0", "1", "2", "4", "16"]


# -- tracer ----------------------------------------------------------------


class TestTracer:
    def test_ring_buffer_keeps_tail(self):
        sink = RingBufferTraceSink(capacity=4)
        tracer = Tracer(sink)
        for i in range(10):
            tracer.emit(EVENT_CUCKOO_KICK, cycle=i, kicks=1)
        assert len(sink.events) == 4
        assert sink.events_seen == 10

    def test_sampling_keeps_every_nth_per_kind(self):
        sink = RingBufferTraceSink()
        tracer = Tracer(sink, sample_every=3)
        for i in range(9):
            tracer.emit(EVENT_TLB_MISS, cycle=i, vpn=i)
        tracer.emit(EVENT_RUN_END, cycle=9)  # lifecycle kind: always kept
        kinds = [event["kind"] for event in sink.events]
        assert kinds.count(EVENT_TLB_MISS) == 3
        assert kinds.count(EVENT_RUN_END) == 1

    def test_jsonl_sink_writes_sorted_keys(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path)
        Tracer(sink).emit(EVENT_WALK_START, cycle=5, walk=1, vpn=2)
        sink.close()
        (line,) = open(path).read().splitlines()
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(trace_path="x", trace_buffer=10).validate()
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(trace_sample_every=0).validate()
        assert build_observability(None) is None


# -- disabled observability changes nothing --------------------------------


class TestDisabledIsFree:
    @pytest.mark.parametrize("organization", ["radix", "ecpt", "mehpt"])
    def test_results_identical_except_metrics(self, organization):
        enabled, _ = run_perf(organization, obs=ObservabilityConfig())
        disabled, _ = run_perf(organization, obs=None)
        on = dataclasses.asdict(enabled)
        off = dataclasses.asdict(disabled)
        assert on.pop("metrics") and off.pop("metrics") == {}
        assert on == off

    def test_memory_results_identical_except_metrics(self):
        workload = get_workload("GUPS", scale=64)
        results = []
        for obs in (ObservabilityConfig(), None):
            system = SimulationConfig(
                organization="mehpt", scale=64, obs=obs
            ).build(workload)
            results.append(dataclasses.asdict(memory_result(system)))
        on, off = results
        assert on.pop("metrics") and off.pop("metrics") == {}
        assert on == off


# -- metric snapshots ------------------------------------------------------


class TestSnapshots:
    def test_run_covers_catalogue(self, tmp_path):
        """One mehpt run, one radix run, one ecpt run, one trace
        record/replay and one datacenter run together must instantiate
        every catalogued base name — otherwise the catalogue documents
        metrics nothing produces."""
        seen = set()
        for organization in ("mehpt", "radix", "ecpt"):
            result, _ = run_perf(organization, obs=ObservabilityConfig())
            for name in result.metrics:
                seen.add(name.split("[", 1)[0])
        # The traces.* counters come from trace-backed runs: record with
        # a registry attached, then replay through the simulator.
        from repro.traces import record_workload

        registry = MetricsRegistry()
        trace_path = str(tmp_path / "gups.vpt")
        record_workload(
            get_workload("GUPS", scale=64), 4000, trace_path, registry=registry
        )
        seen.update(
            name for name, metric in registry.snapshot().items()
            if metric["value"]
        )
        replay, _ = run_perf(
            "mehpt", obs=ObservabilityConfig(), app="trace:" + trace_path
        )
        for name in replay.metrics:
            seen.add(name.split("[", 1)[0])
        # The numa.*/dc.* gauges and counters come from the datacenter
        # machine model; one tiny churning run registers all of them.
        from repro.sim.datacenter import DatacenterParams, DatacenterSimulator

        dc = DatacenterSimulator(
            ["GUPS"],
            SimulationConfig(
                organization="mehpt", scale=64, seed=3,
                obs=ObservabilityConfig(),
            ),
            params=DatacenterParams(
                sockets=2, processes=3, policy="migrate", quantum=400,
                churn_every=2, rebalance_every=2, pool_mb=16,
            ),
            trace_length=1_200,
        ).run()
        for name in dc.metrics:
            seen.add(name.split("[", 1)[0])
        # faults.events needs a degradation event (counted via the
        # always-registered recovery counter instead);
        # traces.checksum_failures needs a corrupted file (covered by
        # tests/test_traces.py); fuzz.* only fire inside the fuzzer
        # pipeline (covered by tests/test_fuzz_*.py); serve.* only fire
        # inside the translation service (covered by
        # tests/test_serve_server.py).
        missing = set(CATALOGUE) - seen - {
            "faults.events", "sim.populated_pages", "traces.checksum_failures",
        }
        missing = {
            name for name in missing
            if not name.startswith(("fuzz.", "serve."))
        }
        assert not missing, f"catalogued but never produced: {sorted(missing)}"

    def test_populate_sets_populated_pages(self):
        workload = get_workload("GUPS", scale=64)
        system = SimulationConfig(
            organization="mehpt", scale=64, obs=ObservabilityConfig()
        ).build(workload)
        populate_tables(system)
        result = memory_result(system, populate=False)
        assert result.metrics["sim.populated_pages"]["value"] > 0

    def test_snapshot_round_trips_through_disk_cache(self, tmp_path):
        settings = ExperimentSettings(scale=256, trace_length=2000)
        cells = [("GUPS", "mehpt", False)]
        overrides = {}
        cold_engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        # ObservabilityConfig is a non-scalar override: memo-only, so we
        # verify the *metrics field* round-trips, using a plain cell
        # whose (empty) metrics dict must survive, plus a direct
        # record-level round-trip of a populated snapshot.
        cold = cold_engine.run_cells("perf", settings, cells, overrides)
        warm_engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        warm = warm_engine.run_cells("perf", settings, cells, overrides)
        assert warm == cold
        assert warm_engine.cache_stats()["hits"] == 1

        from repro.sim.results import result_from_record, result_to_record

        result, _ = run_perf("mehpt", obs=ObservabilityConfig())
        assert result.metrics
        restored = result_from_record(
            json.loads(json.dumps(result_to_record(result)))
        )
        assert restored == result

    def test_walk_latency_histogram_counts_walks(self):
        result, _ = run_perf("mehpt", obs=ObservabilityConfig())
        histogram = result.metrics["walker.walk_latency"]
        assert histogram["kind"] == "histogram"
        assert histogram["count"] == result.metrics["walker.walks"]["value"]


# -- traces ----------------------------------------------------------------


class TestTraces:
    def test_trace_is_deterministic_for_fixed_seed(self, tmp_path):
        paths = [str(tmp_path / f"t{i}.jsonl") for i in range(2)]
        for path in paths:
            run_perf(
                "mehpt",
                obs=ObservabilityConfig(trace_path=path, trace_sample_every=4),
            )
        a, b = (open(path, "rb").read() for path in paths)
        assert a == b

    def test_sampling_thins_only_sampled_kinds(self, tmp_path):
        dense_path = str(tmp_path / "dense.jsonl")
        sparse_path = str(tmp_path / "sparse.jsonl")
        run_perf("mehpt", obs=ObservabilityConfig(trace_path=dense_path))
        run_perf(
            "mehpt",
            obs=ObservabilityConfig(trace_path=sparse_path, trace_sample_every=5),
        )
        dense = read_jsonl(dense_path)
        sparse = read_jsonl(sparse_path)
        for kind in SAMPLED_KINDS:
            dense_count = len(filter_kind(dense, kind))
            if dense_count:
                assert len(filter_kind(sparse, kind)) < dense_count
        for kind in ALL_KINDS - SAMPLED_KINDS:
            assert len(filter_kind(sparse, kind)) == len(filter_kind(dense, kind))

    def test_cycle_stamps_are_monotonic(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        run_perf("ecpt", obs=ObservabilityConfig(trace_path=path))
        events = read_jsonl(path)
        cycles = [event["cycle"] for event in events]
        assert cycles == sorted(cycles)
        assert [event["seq"] for event in events] == list(range(len(events)))

    def test_lifecycle_events_present_and_ordered(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        run_perf("mehpt", obs=ObservabilityConfig(trace_path=path))
        events = read_jsonl(path)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == EVENT_RUN_START
        assert kinds[-1] == EVENT_RUN_END
        assert kinds.index(EVENT_MEASURE_START) < kinds.index(EVENT_RUN_END)

    def test_resize_begin_commit_pair_up(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        run_perf("mehpt", obs=ObservabilityConfig(trace_path=path))
        events = read_jsonl(path)
        begins = filter_kind(events, EVENT_RESIZE_BEGIN)
        commits = [
            event
            for event in filter_kind(events, EVENT_RESIZE_COMMIT)
            if not event.get("eager")
        ]
        assert begins
        # Every non-eager commit closes an earlier begin (some begins may
        # still be in flight at run end).
        assert len(commits) <= len(begins)

    def test_walk_start_end_pair_by_id(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        run_perf("radix", obs=ObservabilityConfig(trace_path=path))
        events = read_jsonl(path)
        starts = {event["walk"] for event in filter_kind(events, EVENT_WALK_START)}
        ends = {event["walk"] for event in filter_kind(events, EVENT_WALK_END)}
        assert starts == ends


# -- the report CLI --------------------------------------------------------


class TestReport:
    @pytest.mark.parametrize("organization", ["radix", "ecpt", "mehpt"])
    def test_reproduces_cpa_terms_from_events_alone(self, tmp_path, organization):
        """The acceptance criterion: record one Figure-9 cell with JSONL
        tracing and rebuild that cell's cpa terms from events only."""
        path = str(tmp_path / "t.jsonl")
        record_cell(
            "GUPS", organization, False, path, scale=64, trace_length=4000
        )
        attribution = attribute(read_jsonl(path))
        assert attribution["exact"]
        for name, check in attribution["crosscheck"].items():
            assert check["match"] is True, (name, check)

    def test_matches_simulator_result_dataclass(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        workload = get_workload("GUPS", scale=64)
        config = SimulationConfig(
            organization="mehpt",
            scale=64,
            obs=ObservabilityConfig(trace_path=path),
        )
        simulator = TranslationSimulator(
            workload, config, trace_length=4000, warmup_fraction=0.1
        )
        result = simulator.run()
        terms = attribute(read_jsonl(path))["terms"]
        assert terms["translation_cycles"] == pytest.approx(result.translation_cycles)
        assert terms["pt_alloc_cycles"] == pytest.approx(result.pt_alloc_cycles)
        assert terms["cycles_per_access"] == pytest.approx(result.cycles_per_access())

    def test_sampled_trace_is_flagged_estimate(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record_cell(
            "GUPS", "ecpt", False, path,
            sample_every=7, scale=64, trace_length=4000,
        )
        attribution = attribute(read_jsonl(path))
        assert not attribution["exact"]
        check = attribution["crosscheck"]["translation_cycles"]
        assert check["match"] == "sampled-estimate"
        # Still a close estimate: within 5% of the simulator's value.
        assert check["events"] == pytest.approx(check["simulator"], rel=0.05)
        # OS-side terms stay exact under sampling.
        assert attribution["crosscheck"]["pt_alloc_cycles"]["match"] is True

    def test_trace_without_run_start_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"kind": "tlb_miss", "cycle": 0, "seq": 0}) + "\n")
        with pytest.raises(ConfigurationError):
            attribute(read_jsonl(str(path)))

    def test_trace_with_unknown_organization_rejected(self):
        run_start = {"kind": "run_start", "cycle": 0, "seq": 0,
                     "organization": "utopia", "scale": 64}
        with pytest.raises(ConfigurationError, match="unknown organization"):
            attribute([run_start])

    def test_cli_end_to_end(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.obs.report",
                "--record", "GUPS", "mehpt", "--out", trace,
                "--scale", "64", "--trace-length", "3000", "--json",
            ],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        attribution = json.loads(completed.stdout)
        assert attribution["organization"] == "mehpt"
        assert all(c["match"] is True for c in attribution["crosscheck"].values())


# -- manifests -------------------------------------------------------------


class TestManifests:
    def test_engine_writes_manifest_next_to_record(self, tmp_path):
        settings = ExperimentSettings(scale=256, trace_length=2000)
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_cells("memory", settings, [("GUPS", "mehpt", False)], {})
        records = [f for f in os.listdir(tmp_path) if not f.endswith(".manifest.json")]
        manifests = [f for f in os.listdir(tmp_path) if f.endswith(".manifest.json")]
        assert len(records) == len(manifests) == 1
        manifest = read_manifest(os.path.join(str(tmp_path), manifests[0]))
        assert manifest["cell"] == {
            "app": "GUPS", "organization": "mehpt", "thp": False,
        }
        assert manifest["kind"] == "memory"
        assert manifest["seed"] == settings.seed
        assert manifest["elapsed_seconds"] > 0
        assert manifest["key"] == records[0].removesuffix(".json")

    def test_manifests_never_gate_cache_hits(self, tmp_path):
        settings = ExperimentSettings(scale=256, trace_length=2000)
        cells = [("GUPS", "radix", False)]
        SweepEngine(jobs=1, cache_dir=str(tmp_path)).run_cells(
            "memory", settings, cells, {}
        )
        for name in os.listdir(tmp_path):
            if name.endswith(".manifest.json"):
                os.unlink(os.path.join(str(tmp_path), name))
        warm = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        warm.run_cells("memory", settings, cells, {})
        assert warm.cache_stats()["hits"] == 1

    def test_no_cache_writes_no_manifests(self, tmp_path):
        settings = ExperimentSettings(scale=256, trace_length=2000)
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path), use_cache=False)
        engine.run_cells("memory", settings, [("GUPS", "radix", False)], {})
        assert os.listdir(tmp_path) == []


# -- degradation + fault_injected event ------------------------------------


class TestFaultEvents:
    def test_injected_fault_emits_event_and_metric(self):
        from repro.faults.plan import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(site="chunk_alloc", every=3)], seed=9)
        workload = get_workload("GUPS", scale=64)
        config = SimulationConfig(
            organization="mehpt",
            scale=64,
            fault_plan=plan,
            obs=ObservabilityConfig(trace_buffer=100000),
        )
        system = config.build(workload)
        populate_tables(system)
        result = memory_result(system, populate=False)
        injected = [
            event
            for event in system.obs.ring.events
            if event["kind"] == "fault_injected"
        ]
        assert injected, "plan should have fired at least once"
        fault_metrics = [
            name for name in result.metrics if name.startswith("faults.events[")
        ]
        assert fault_metrics


# -- doccheck tooling -------------------------------------------------------


class TestDoccheck:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "doccheck.py"), *args],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )

    def test_obs_docs_pass_on_repo(self):
        completed = self._run("obs-docs")
        assert completed.returncode == 0, completed.stdout

    def test_coverage_meets_ci_floor(self):
        # The floor CI's docs job pins, read from the workflow so the two
        # cannot drift apart.
        with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as handle:
            match = re.search(r"doccheck\.py coverage --min ([0-9.]+)", handle.read())
        assert match, "ci.yml has no doccheck coverage step"
        completed = self._run("coverage", "--min", match.group(1))
        assert completed.returncode == 0, completed.stdout

    def test_coverage_gate_can_fail(self):
        completed = self._run("coverage", "--min", "100.0")
        assert completed.returncode == 1

    def test_doc_drift_detected(self, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "doccheck", os.path.join(REPO_ROOT, "tools", "doccheck.py")
        )
        doccheck = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(doccheck)
        doc = tmp_path / "OBS.md"
        doc.write_text(
            "## Metric catalogue\n\n| metric |\n|---|\n| `made.up_metric` |\n"
        )
        names = doccheck.doc_table_names(str(doc), "Metric catalogue")
        assert names == {"made.up_metric"}
        assert "made.up_metric" not in CATALOGUE
