"""Request/response schema of the translation service.

Everything a client can send and everything the server can stream back
is defined here, as plain JSON-safe dictionaries validated up front —
the full wire reference lives in ``SERVING.md``, whose endpoint and
event tables are checked two-way against this module and
:data:`repro.serve.server.ROUTES` by ``tools/doccheck.py serving-docs``.

A submission is parsed into a :class:`JobRequest`: the sweep ``kind``
(``perf``, ``memory`` or ``datacenter`` — exactly the kinds the sweep
engine resolves — plus the diagnostics-only ``selftest``), the grid
``cells``, the
:class:`~repro.experiments.runner.ExperimentSettings` fields, scalar
``SimulationConfig`` overrides, and the serving knobs (priority, client
identity, timeout, event streaming).  Validation is eager and complete:
every cell's config is *constructed* via ``settings.config(...)`` at
parse time, so a request that would crash a worker process is rejected
with a 400 before it ever reaches the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, get_type_hints

from repro.common.errors import ConfigurationError, MEHPTError
from repro.experiments.engine import TRACE_APP_PREFIX
from repro.experiments.runner import ExperimentSettings
from repro.workloads import workload_names

#: Job kinds the service accepts.  ``perf``, ``memory`` and
#: ``datacenter`` are the sweep engine's kinds; ``selftest`` runs a
#: worker-side sleep for drain, timeout and cancellation diagnostics
#: (documented in SERVING.md).
JOB_KINDS = ("perf", "memory", "datacenter", "selftest")

#: Priorities: 0 = interactive, 1 = normal (default), 2 = batch.
PRIORITIES = (0, 1, 2)

#: Terminal job statuses (no further events will be streamed).
TERMINAL_STATUSES = ("done", "error", "cancelled", "timeout")

#: All job statuses a client can observe via ``GET /v1/jobs/{id}``.
JOB_STATUSES = ("queued", "running") + TERMINAL_STATUSES

#: Every event type the server may stream on ``GET /v1/jobs/{id}/events``.
#: SERVING.md's "Event stream" table is checked against this tuple.
EVENT_TYPES = (
    "queued", "started", "progress", "cell_result", "obs_event",
    "done", "error", "cancelled", "timeout",
)

#: ExperimentSettings fields a request may set (``apps`` is implied by
#: the cells themselves and deliberately not accepted).
SETTINGS_FIELDS = (
    "scale", "trace_length", "seed", "fmfi", "base_cycles_per_access",
    "warmup_fraction",
)

#: Override values must be JSON scalars — exactly the engine's
#: disk-cacheable types, so a served cell and a direct engine call share
#: one cache key.  (The server adds non-scalar obs overrides itself for
#: event-streaming jobs; clients cannot.)
_SCALAR_TYPES = (bool, int, float, str, type(None))


class ProtocolError(MEHPTError):
    """A malformed or invalid request (mapped to HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One validated job submission, ready for the queue.

    ``cells`` hold resolved ``trace:`` paths (uploads are translated to
    their spool location before validation).  ``events_sample_every``
    being non-None marks an event-streaming job: the worker runs with a
    JSONL trace sink and the server tails it back to the client.
    """

    kind: str
    cells: Tuple[Tuple[str, str, bool], ...]
    settings: ExperimentSettings
    overrides: Dict[str, object]
    client: str = "anonymous"
    priority: int = 1
    timeout_seconds: Optional[float] = None
    #: None = no obs event streaming; N = trace_sample_every for the run.
    events_sample_every: Optional[int] = None
    #: Collect the obs metric catalogue into results (and the server's
    #: aggregate /metrics exposition).
    metrics: bool = False
    #: selftest only: how long the worker sleeps.
    duration_seconds: float = 0.0

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary used in status responses."""
        return {
            "kind": self.kind,
            "cells": [list(cell) for cell in self.cells],
            "client": self.client,
            "priority": self.priority,
            "timeout_seconds": self.timeout_seconds,
            "events": self.events_sample_every,
            "metrics": self.metrics,
        }


def _require(condition: bool, message: str, **context) -> None:
    """Raise :class:`ProtocolError` with ``context`` unless ``condition``."""
    if not condition:
        raise ProtocolError(message, **context)


def _parse_cells(payload: object, trace_resolver) -> List[Tuple[str, str, bool]]:
    """Validate the ``cells`` array and resolve ``trace:`` app names."""
    _require(isinstance(payload, list) and payload,
             "cells must be a non-empty array", field="cells")
    known = set(workload_names())
    cells: List[Tuple[str, str, bool]] = []
    for index, entry in enumerate(payload):
        _require(isinstance(entry, dict),
                 f"cells[{index}] must be an object", field="cells")
        unknown = set(entry) - {"app", "organization", "thp"}
        _require(not unknown,
                 f"cells[{index}] has unknown keys {sorted(unknown)}",
                 field="cells")
        app = entry.get("app")
        organization = entry.get("organization")
        thp = entry.get("thp", False)
        _require(isinstance(app, str) and app,
                 f"cells[{index}].app must be a workload or trace name",
                 field="cells")
        _require(isinstance(thp, bool),
                 f"cells[{index}].thp must be a boolean", field="cells")
        if app.startswith(TRACE_APP_PREFIX):
            app = TRACE_APP_PREFIX + trace_resolver(
                app[len(TRACE_APP_PREFIX):]
            )
        else:
            _require(app in known,
                     f"cells[{index}].app {app!r} is not a registered "
                     f"workload (upload a trace or use one of "
                     f"{sorted(known)})", field="cells")
        # Organization validity is enforced by SimulationConfig below;
        # check the type here so the error names the cell.
        _require(isinstance(organization, str) and organization,
                 f"cells[{index}].organization must be a string",
                 field="cells")
        cells.append((app, organization, thp))
    return cells


def _parse_settings(payload: object) -> ExperimentSettings:
    """Build ``ExperimentSettings`` from the request's settings object."""
    if payload is None:
        return ExperimentSettings()
    _require(isinstance(payload, dict), "settings must be an object",
             field="settings")
    unknown = set(payload) - set(SETTINGS_FIELDS)
    _require(not unknown,
             f"settings has unknown fields {sorted(unknown)} "
             f"(accepted: {list(SETTINGS_FIELDS)})", field="settings")
    for name, value in payload.items():
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"settings.{name} must be a number", field="settings")
    try:
        return ExperimentSettings(**payload)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid settings: {exc}", field="settings") from exc


def _parse_overrides(payload: object, kind: str = "perf") -> Dict[str, object]:
    """Validate config overrides: known scalar fields only, each given a
    JSON value of its field's type.

    ``datacenter`` jobs may additionally pass ``dc_*`` machine-model
    knobs (see :class:`~repro.sim.datacenter.simulator.DatacenterParams`);
    those are validated against the params dataclass here, and kept out
    of the per-cell ``SimulationConfig`` dry-build by the caller.
    """
    if payload is None:
        return {}
    _require(isinstance(payload, dict), "overrides must be an object",
             field="overrides")
    from repro.sim.config import SCALAR_FIELD_TYPES, SimulationConfig, fits_field
    from repro.sim.datacenter import DC_PREFIX

    hints = get_type_hints(SimulationConfig)
    # Fields a JSON scalar can fill, minus serving-internal knobs a
    # request must not smuggle in directly.
    allowed = {name for name, hint in hints.items() if hint in SCALAR_FIELD_TYPES}
    for reserved in ("obs", "fault_plan", "recovery", "trace_file"):
        allowed.discard(reserved)
    overrides: Dict[str, object] = {}
    dc_overrides: Dict[str, object] = {}
    for name, value in payload.items():
        if kind == "datacenter" and name.startswith(DC_PREFIX):
            _require(isinstance(value, _SCALAR_TYPES),
                     f"overrides.{name} must be a JSON scalar",
                     field="overrides")
            dc_overrides[name] = value
            overrides[name] = value
            continue
        _require(name in allowed,
                 f"overrides.{name} is not an overridable SimulationConfig "
                 f"field", field="overrides")
        _require(isinstance(value, _SCALAR_TYPES),
                 f"overrides.{name} must be a JSON scalar", field="overrides")
        _require(fits_field(value, hints[name]),
                 f"overrides.{name} must be {SCALAR_FIELD_TYPES[hints[name]][1]}",
                 field="overrides")
        overrides[name] = value
    if dc_overrides:
        from repro.sim.datacenter import DatacenterParams

        try:
            DatacenterParams.from_overrides(dc_overrides)
        except ConfigurationError as exc:
            raise ProtocolError(
                f"invalid datacenter overrides: {exc}", field="overrides"
            ) from exc
    return overrides


def parse_job_request(payload: object, trace_resolver=None) -> JobRequest:
    """Validate one ``POST /v1/jobs`` body into a :class:`JobRequest`.

    ``trace_resolver`` maps an uploaded trace handle (or a literal path,
    when the server allows it) to a readable ``.vpt`` path; it raises
    :class:`ProtocolError` for unknown handles.  Every cell's
    ``SimulationConfig`` is constructed here so organization names,
    scale, FMFI and every override are checked before admission.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    kind = payload.get("kind", "perf")
    _require(kind in JOB_KINDS, f"kind {kind!r} not in {list(JOB_KINDS)}",
             field="kind")
    client = payload.get("client", "anonymous")
    _require(isinstance(client, str) and client,
             "client must be a non-empty string", field="client")
    priority = payload.get("priority", 1)
    _require(priority in PRIORITIES,
             f"priority {priority!r} not in {list(PRIORITIES)}",
             field="priority")
    timeout = payload.get("timeout_seconds")
    if timeout is not None:
        _require(isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
                 and timeout > 0,
                 "timeout_seconds must be a positive number", field="timeout_seconds")
        timeout = float(timeout)
    metrics = payload.get("metrics", False)
    _require(isinstance(metrics, bool), "metrics must be a boolean",
             field="metrics")

    if kind == "selftest":
        duration = payload.get("duration_seconds", 0.0)
        _require(isinstance(duration, (int, float)) and not isinstance(duration, bool)
                 and 0 <= duration <= 600,
                 "duration_seconds must be a number in [0, 600]",
                 field="duration_seconds")
        return JobRequest(
            kind=kind, cells=(), settings=ExperimentSettings(), overrides={},
            client=client, priority=priority, timeout_seconds=timeout,
            duration_seconds=float(duration),
        )

    resolver = trace_resolver if trace_resolver is not None else _reject_traces
    cells = _parse_cells(payload.get("cells"), resolver)
    settings = _parse_settings(payload.get("settings"))
    overrides = _parse_overrides(payload.get("overrides"), kind)

    events = payload.get("events")
    sample_every: Optional[int] = None
    if events is not None:
        _require(isinstance(events, dict), "events must be an object",
                 field="events")
        unknown = set(events) - {"sample_every"}
        _require(not unknown, f"events has unknown keys {sorted(unknown)}",
                 field="events")
        sample_every = events.get("sample_every", 1)
        _require(isinstance(sample_every, int) and not isinstance(sample_every, bool)
                 and sample_every >= 1,
                 "events.sample_every must be an integer >= 1", field="events")

    # Dry-build every cell's config: organization names, overrides and
    # settings all validate here (ConfigurationError -> 400).  The dc_*
    # machine-model knobs were already validated above and are not
    # SimulationConfig fields, so they stay out of the dry-build.
    config_overrides = {
        name: value for name, value in overrides.items()
        if not name.startswith("dc_")
    } if kind == "datacenter" else overrides
    for app, organization, thp in cells:
        try:
            settings.config(organization, thp, **config_overrides)
        except ConfigurationError as exc:
            raise ProtocolError(
                f"invalid cell ({app}, {organization}, thp={thp}): {exc}",
            ) from exc

    return JobRequest(
        kind=kind, cells=tuple(cells), settings=settings, overrides=overrides,
        client=client, priority=priority, timeout_seconds=timeout,
        events_sample_every=sample_every, metrics=metrics,
    )


def _reject_traces(handle: str) -> str:
    """Default resolver: no upload store configured."""
    raise ProtocolError(
        f"trace:{handle} cannot be resolved (no trace store configured)",
        field="cells",
    )


def job_event(event: str, job_id: str, **payload) -> Dict[str, object]:
    """Build one stream event (NDJSON line) with a checked type."""
    if event not in EVENT_TYPES:
        raise ConfigurationError(
            f"unknown stream event type {event!r}", field="event", value=event
        )
    record: Dict[str, object] = {"event": event, "job": job_id}
    record.update(payload)
    return record


def settings_to_dict(settings: ExperimentSettings) -> Dict[str, object]:
    """The JSON-safe settings fields (worker-side reconstruction)."""
    return {name: getattr(settings, name) for name in SETTINGS_FIELDS}
