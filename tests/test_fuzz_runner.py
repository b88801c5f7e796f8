"""Outcome classification and scenario execution.

The planted-fault preset is the suite's workhorse: its injected
contiguous-allocation failure is cheap (scale 512), graceful, and
organization-specific, so classification, determinism and the
divergence machinery can all be asserted against a known ground truth.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.fuzz import runner
from repro.fuzz.runner import (
    CLASS_ABORT_CONTIGUOUS,
    CLASS_ABORT_L2P,
    CLASS_ABORT_OTHER,
    CLASS_ABORT_TABLE_FULL,
    CLASS_CYCLE_BLOWUP,
    CLASS_DIVERGENCE,
    CLASS_NON_GRACEFUL,
    CLASS_OK,
    CLASS_SEVERITY,
    OrgOutcome,
    ScenarioOutcome,
    classify_failure_reason,
    run_scenario,
)
from repro.fuzz.scenario import make_preset
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.fuzz


class TestClassification:
    @pytest.mark.parametrize("reason, expected", [
        ("cannot allocate 67108864 contiguous bytes at FMFI 0.78",
         CLASS_ABORT_CONTIGUOUS),
        ("way 2 chunk ladder is exhausted", CLASS_ABORT_L2P),
        ("no chunk size above 8192 bytes", CLASS_ABORT_L2P),
        ("cuckoo table stuck at occupancy 0.93 after 3 emergency resizes",
         CLASS_ABORT_TABLE_FULL),
        ("something else entirely", CLASS_ABORT_OTHER),
    ])
    def test_reason_vocabulary(self, reason, expected):
        assert classify_failure_reason(reason) == expected

    def test_severity_covers_every_class(self):
        assert CLASS_SEVERITY[-1] == CLASS_OK
        assert len(set(CLASS_SEVERITY)) == len(CLASS_SEVERITY)

    def test_aggregation_picks_worst(self):
        scenario = make_preset("planted-fault", seed=0)
        outcome = ScenarioOutcome(scenario=scenario, trace_path="x.vpt")
        outcome.outcomes["radix"] = OrgOutcome("radix", CLASS_OK)
        outcome.outcomes["ecpt"] = OrgOutcome("ecpt", CLASS_CYCLE_BLOWUP)
        outcome.outcomes["mehpt"] = OrgOutcome("mehpt", CLASS_NON_GRACEFUL)
        assert outcome.failure_class == CLASS_NON_GRACEFUL
        assert outcome.affected_orgs == ("ecpt", "mehpt")

    def test_downsize_probe_feeds_aggregate(self):
        scenario = make_preset("churn-oscillation", seed=0)
        outcome = ScenarioOutcome(scenario=scenario, trace_path="x.vpt")
        outcome.outcomes["mehpt"] = OrgOutcome("mehpt", CLASS_OK)
        outcome.downsize_probe = CLASS_ABORT_L2P
        assert outcome.failure_class == CLASS_ABORT_L2P

    def test_summary_mentions_every_org(self):
        scenario = make_preset("planted-fault", seed=2)
        outcome = ScenarioOutcome(scenario=scenario, trace_path="x.vpt")
        outcome.outcomes["ecpt"] = OrgOutcome("ecpt", CLASS_ABORT_CONTIGUOUS)
        text = outcome.summary()
        assert "planted-fault" in text and "seed=2" in text
        assert "ecpt=abort:contiguous" in text


class TestPlantedFaultExecution:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("planted"))
        scenario = make_preset("planted-fault", seed=0)
        return run_scenario(scenario, orgs=("radix", "ecpt"), workdir=workdir)

    def test_planted_fault_aborts_gracefully(self, outcome):
        ecpt = outcome.outcomes["ecpt"]
        assert ecpt.failure_class == CLASS_ABORT_CONTIGUOUS
        assert ecpt.failed
        assert "contiguous" in ecpt.failure_reason

    def test_radix_baseline_unaffected(self, outcome):
        assert outcome.outcomes["radix"].failure_class == CLASS_OK
        assert outcome.outcomes["radix"].cycles_per_access > 0

    def test_classification_is_deterministic(self, outcome, tmp_path):
        scenario = make_preset("planted-fault", seed=0)
        again = run_scenario(
            scenario, orgs=("radix", "ecpt"), workdir=str(tmp_path)
        )
        assert again.failure_class == outcome.failure_class
        assert again.affected_orgs == outcome.affected_orgs
        assert dataclasses.asdict(again.outcomes["ecpt"]) == dataclasses.asdict(
            outcome.outcomes["ecpt"]
        )

    def test_registry_counters(self, tmp_path):
        registry = MetricsRegistry()
        scenario = make_preset("planted-fault", seed=0)
        run_scenario(
            scenario, orgs=("ecpt",), workdir=str(tmp_path), registry=registry,
        )
        snapshot = registry.snapshot()
        assert snapshot["fuzz.scenarios_run"]["value"] == 1
        assert snapshot["fuzz.failures_found"]["value"] == 1

    def test_divergence_check_runs_both_engines(
        self, outcome, tmp_path, monkeypatch
    ):
        engines = []
        real = runner._run_engine

        def spy(*args):
            engines.append(args[-1])
            return real(*args)

        monkeypatch.setattr(runner, "_run_engine", spy)
        scenario = make_preset("planted-fault", seed=0)
        checked = run_scenario(
            scenario, trace_path=outcome.trace_path, orgs=("ecpt",),
            check_divergence=True,
        )
        org = checked.outcomes["ecpt"]
        assert org.divergence_checked
        # Engines agree, so the class stays the graceful abort.
        assert org.failure_class == CLASS_ABORT_CONTIGUOUS
        # Each engine runs exactly once: the check compares the scalar
        # run against the primary (vectorized) one.
        assert sorted(engines) == ["scalar", "vectorized"]

    def test_engine_disagreement_classified_divergence(
        self, outcome, monkeypatch
    ):
        real = runner._run_engine

        def skewed(*args):
            result = real(*args)
            if args[-1] == "scalar":
                result = dataclasses.replace(result, walks=result.walks + 1)
            return result

        monkeypatch.setattr(runner, "_run_engine", skewed)
        scenario = make_preset("planted-fault", seed=0)
        checked = run_scenario(
            scenario, trace_path=outcome.trace_path, orgs=("ecpt",),
            check_divergence=True,
        )
        org = checked.outcomes["ecpt"]
        assert org.failure_class == CLASS_DIVERGENCE
        assert "disagree" in org.detail

    def test_empty_trace_rejected(self, tmp_path):
        import numpy as np

        from repro.traces.format import TraceMeta, TraceWriter

        path = str(tmp_path / "empty.vpt")
        with TraceWriter(path, meta=TraceMeta(source="fuzz")) as writer:
            writer.append(np.empty(0, dtype=np.uint64))
        scenario = make_preset("planted-fault", seed=0)
        with pytest.raises(ConfigurationError, match="empty"):
            run_scenario(scenario, trace_path=path, orgs=("ecpt",))
