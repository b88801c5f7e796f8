"""Unit tests for request validation: every 400 the service can produce.

``parse_job_request`` is the service's only gate between untrusted JSON
and the worker processes, so the tests enumerate the rejection classes:
malformed shapes, unknown fields, bad kinds/priorities, unregistered
workloads, unresolvable traces, non-scalar overrides, reserved override
names, and cells whose ``SimulationConfig`` would not construct.
"""

import pytest

from repro.serve.protocol import (
    EVENT_TYPES,
    JobRequest,
    ProtocolError,
    job_event,
    parse_job_request,
    settings_to_dict,
)
from repro.common.errors import ConfigurationError

pytestmark = pytest.mark.serve


def _body(**overrides):
    """A minimal valid perf submission, with overrides applied on top."""
    payload = {
        "kind": "perf",
        "cells": [{"app": "GUPS", "organization": "mehpt", "thp": False}],
        "settings": {"scale": 1024, "trace_length": 2000},
    }
    payload.update(overrides)
    return payload


class TestValidRequests:
    def test_minimal_perf_request(self):
        request = parse_job_request(_body())
        assert request.kind == "perf"
        assert request.cells == (("GUPS", "mehpt", False),)
        assert request.settings.scale == 1024
        assert request.priority == 1 and request.client == "anonymous"

    def test_selftest_needs_no_cells(self):
        request = parse_job_request(
            {"kind": "selftest", "duration_seconds": 2.5}
        )
        assert request.duration_seconds == 2.5
        assert request.cells == ()

    def test_events_and_metrics_knobs(self):
        request = parse_job_request(
            _body(events={"sample_every": 10}, metrics=True)
        )
        assert request.events_sample_every == 10
        assert request.metrics is True

    def test_trace_cell_resolved_through_resolver(self):
        request = parse_job_request(
            _body(cells=[{"app": "trace:sha256:abcd", "organization": "mehpt",
                          "thp": False}]),
            trace_resolver=lambda handle: f"/spool/{handle}.vpt",
        )
        assert request.cells[0][0] == "trace:/spool/sha256:abcd.vpt"

    def test_scalar_overrides_accepted(self):
        request = parse_job_request(_body(overrides={"fmfi": 0.3}))
        assert request.overrides == {"fmfi": 0.3}

    def test_describe_and_settings_roundtrip_are_json_safe(self):
        import json

        request = parse_job_request(_body())
        json.dumps(request.describe())
        json.dumps(settings_to_dict(request.settings))


class TestRejections:
    @pytest.mark.parametrize("payload, fragment", [
        (None, "JSON object"),
        ([], "JSON object"),
        (_body(kind="nope"), "kind"),
        (_body(priority=9), "priority"),
        (_body(priority="high"), "priority"),
        (_body(client=""), "client"),
        (_body(timeout_seconds=-1), "timeout_seconds"),
        (_body(timeout_seconds=True), "timeout_seconds"),
        (_body(metrics="yes"), "metrics"),
        (_body(cells=[]), "non-empty"),
        (_body(cells=["GUPS"]), "object"),
        (_body(cells=[{"app": "GUPS", "organization": "mehpt",
                       "extra": 1}]), "unknown keys"),
        (_body(cells=[{"app": "NotAWorkload",
                       "organization": "mehpt"}]), "not a registered"),
        (_body(cells=[{"app": "GUPS", "organization": "mehpt",
                       "thp": "yes"}]), "boolean"),
        (_body(cells=[{"app": "GUPS", "organization": 7}]), "organization"),
        (_body(settings={"scale": 1024, "bogus": 1}), "unknown fields"),
        (_body(settings={"scale": "big"}), "number"),
        (_body(settings=[1]), "settings must be an object"),
        (_body(overrides={"not_a_field": 1}), "not an overridable"),
        (_body(overrides={"obs": {}}), "not an overridable"),
        (_body(overrides={"fault_plan": None}), "not an overridable"),
        (_body(overrides={"fmfi": [0.1]}), "JSON scalar"),
        (_body(events={"sample_every": 0}), ">= 1"),
        (_body(events={"weird": 1}), "unknown keys"),
        ({"kind": "selftest", "duration_seconds": 1e9}, "duration_seconds"),
        (_body(overrides={"fmfi": "0.5"}), "must be a number"),
        (_body(overrides={"fmfi": True}), "must be a number"),
        (_body(overrides={"fmfi": None}), "must be a number"),
        (_body(overrides={"scale": "16"}), "must be an integer"),
        (_body(overrides={"scale": 16.0}), "must be an integer"),
        (_body(overrides={"thp_enabled": 1}), "must be a boolean"),
        (_body(overrides={"engine": 0}), "must be a string"),
        (_body(overrides={"chunk_sizes": 4096}), "not an overridable"),
        (_body(kind="datacenter", overrides={"dc_sockets": "2"}),
         "dc_sockets must be an integer"),
        (_body(kind="datacenter", overrides={"dc_sockets": 2.5}),
         "dc_sockets must be an integer"),
        (_body(kind="datacenter", overrides={"dc_sockets": True}),
         "dc_sockets must be an integer"),
        (_body(kind="datacenter",
               overrides={"dc_remote_dram_delta": float("nan")}),
         "dc_remote_dram_delta"),
        (_body(kind="datacenter", overrides={"dc_remote_dram_delta": 120.5}),
         "whole number"),
        (_body(kind="datacenter",
               overrides={"dc_frag_fraction": float("inf")}),
         "dc_frag_fraction"),
        (_body(settings={"trace_length": 0}), "trace_length 0 must be > 0"),
        (_body(settings={"trace_length": -5}), "trace_length -5 must be > 0"),
        (_body(settings={"trace_length": 1.5}), "trace_length must be an integer"),
        (_body(kind="datacenter", settings={"trace_length": 0}),
         "trace_length 0 must be > 0"),
        (_body(settings={"seed": 1.5}), "seed must be an integer"),
        (_body(settings={"scale": 2.0}), "scale must be an integer"),
        (_body(settings={"warmup_fraction": 1.0}), "warmup_fraction"),
        (_body(settings={"warmup_fraction": -0.1}), "warmup_fraction"),
    ])
    def test_bad_payload_raises_protocol_error(self, payload, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(payload)
        assert fragment in excinfo.value.message

    def test_invalid_organization_caught_at_parse_time(self):
        """The dry config build rejects cells a worker would crash on."""
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(_body(
                cells=[{"app": "GUPS", "organization": "hogwarts"}]
            ))
        assert "hogwarts" in excinfo.value.message

    def test_invalid_override_value_caught_at_parse_time(self):
        with pytest.raises(ProtocolError):
            parse_job_request(_body(overrides={"fmfi": 7.5}))

    def test_trace_without_resolver_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(_body(
                cells=[{"app": "trace:sha256:abcd", "organization": "mehpt"}]
            ))
        assert "no trace store" in excinfo.value.message

    def test_resolver_protocol_error_propagates(self):
        def resolver(handle):
            raise ProtocolError(f"unknown trace {handle}")

        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(
                _body(cells=[{"app": "trace:ghost", "organization": "mehpt"}]),
                trace_resolver=resolver,
            )
        assert "unknown trace ghost" in excinfo.value.message


class TestJobEvents:
    def test_every_declared_type_builds(self):
        for event in EVENT_TYPES:
            record = job_event(event, "job-1", extra=1)
            assert record["event"] == event and record["job"] == "job-1"

    def test_unknown_type_raises(self):
        with pytest.raises(ConfigurationError):
            job_event("exploded", "job-1")


class TestJobRequestShape:
    def test_frozen(self):
        request = parse_job_request(_body())
        with pytest.raises(Exception):
            request.kind = "memory"

    def test_direct_construction_for_internal_use(self):
        from repro.experiments.runner import ExperimentSettings

        request = JobRequest(kind="perf", cells=(), overrides={},
                             settings=ExperimentSettings())
        assert request.timeout_seconds is None
