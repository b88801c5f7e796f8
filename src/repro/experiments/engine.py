"""Parallel sweep engine with a persistent on-disk result cache.

The experiment grid — (workload, organization, THP, config overrides) —
is embarrassingly parallel: every cell builds an independent
:class:`~repro.sim.config.SimulatedSystem` from a seeded config, so the
same inputs always produce the same outputs.  :class:`SweepEngine`
exploits both properties:

* **Fan-out.** With ``jobs > 1`` pending cells are distributed over a
  ``concurrent.futures.ProcessPoolExecutor``; with ``jobs == 1`` they
  run inline (no pool, no pickling), which is also the bit-identical
  reference path the parallel path is tested against.

* **Persistence.** Each computed cell may be written to a JSON record
  under ``cache_dir``, keyed by a content hash of the *relevant*
  methodology fields (see :func:`settings_fingerprint`), the cell
  coordinates, the config overrides, and :data:`CACHE_SCHEMA_VERSION`.
  Repeated ``run_all`` / benchmark invocations — including across
  processes and sessions — then skip already-computed cells.  Aborted
  cells (the paper's >0.7-FMFI ECPT failures) are cached too: failures
  are *recorded* in the result dataclasses (``failed=True``), never
  raised, so a warm cache reproduces them faithfully.  Every stored
  record gets a ``<key>.manifest.json`` provenance sidecar (see
  :mod:`repro.obs.manifest`) with the cell coordinates, seed, wall-time,
  host, and the run's metric snapshot.

Cache invalidation: records embed :data:`CACHE_SCHEMA_VERSION`; bump it
whenever simulator or result semantics change so stale records are
treated as misses.  Corrupt or unreadable records are deleted and
recomputed.  ``repro.experiments.run_all --no-cache`` bypasses the disk
entirely.

Worker errors other than the recorded abort modes (e.g. a
:class:`~repro.common.errors.ConfigurationError`) propagate to the
caller exactly as they would inline — every library error pickles with
its structured context (see :mod:`repro.common.errors`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.manifest import build_manifest, manifest_path, write_manifest
from repro.sim.results import SweepResult, result_from_record, result_to_record

logger = logging.getLogger(__name__)

#: Stamped into every disk record and hashed into every key.  Bump when
#: simulator or result semantics change: old records then hash to
#: different keys and are never served.  v3: results grew the
#: ``metrics`` snapshot field (repro.obs).
CACHE_SCHEMA_VERSION = 3

#: (workload, organization, thp) — one cell of the sweep grid.
Cell = Tuple[str, str, bool]

#: App names with this prefix are trace files (see repro.traces).
TRACE_APP_PREFIX = "trace:"

#: Override values of these types are hashed by value and may be served
#: from disk; anything else (e.g. a FaultPlan) is hashed by ``repr`` and
#: only memoised within the process.
_SCALAR_TYPES = (bool, int, float, str, type(None))


def settings_fingerprint(kind: str, settings) -> Dict[str, object]:
    """The fields of ``ExperimentSettings`` that can affect a ``kind`` cell.

    Memory results are populate-only — which pages exist, not how they
    are accessed — so ``trace_length``, ``base_cycles_per_access`` and
    ``warmup_fraction`` are excluded from the memory key (changing them
    must not evict memory results).  ``apps`` never matters: the cell's
    own workload is part of the key.
    """
    fingerprint: Dict[str, object] = {
        "scale": settings.scale,
        "seed": settings.seed,
        "fmfi": settings.fmfi,
    }
    if kind in ("perf", "datacenter"):
        fingerprint["trace_length"] = settings.trace_length
    if kind == "perf":
        fingerprint["base_cycles_per_access"] = settings.base_cycles_per_access
        fingerprint["warmup_fraction"] = settings.warmup_fraction
    return fingerprint


def _canonical_overrides(overrides: Dict[str, object]) -> Tuple[List[List[object]], bool]:
    """Sort overrides into a JSON-stable list; flag non-scalar values.

    The ``engine`` override is excluded from the key: scalar and
    vectorized runs are bit-identical by contract (enforced by
    tests/test_sim_quantum.py and the fastpath equivalence suite), so a
    cell computed under either engine serves re-runs under the other.
    """
    canonical: List[List[object]] = []
    disk_cacheable = True
    for name in sorted(overrides):
        if name == "engine":
            continue
        value = overrides[name]
        if isinstance(value, _SCALAR_TYPES):
            canonical.append([name, value])
        else:
            canonical.append([name, repr(value)])
            disk_cacheable = False
    return canonical, disk_cacheable


def _normalize_app(app: str) -> str:
    """Replace a trace-file app's *path* with its *content* identity.

    A ``trace:<path>`` cell keys on ``trace:sha256:<digest>`` — the
    digest of the trace's encoded payload stored in its footer — so
    renaming or moving the file still hits the cache, while any change
    to the trace's contents misses it.  Synthetic app names pass
    through untouched.
    """
    if app.startswith(TRACE_APP_PREFIX):
        from repro.traces.format import trace_content_id

        digest = trace_content_id(app[len(TRACE_APP_PREFIX):])
        return f"{TRACE_APP_PREFIX}sha256:{digest}"
    return app


def cell_key(
    kind: str, settings, cell: Cell, overrides: Dict[str, object]
) -> Tuple[str, bool]:
    """Content-hash one grid cell.

    Returns ``(digest, disk_cacheable)``.  The digest keys both the
    in-process memo and the disk cache; ``disk_cacheable`` is False when
    an override value has no stable serialization (object ``repr`` may
    embed addresses), in which case the cell is only memoised in-process.
    Trace-backed cells are normalized via :func:`_normalize_app` so the
    key tracks trace *content*, never its filesystem location.
    """
    app, organization, thp = cell
    canonical, disk_cacheable = _canonical_overrides(overrides)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": kind,
        "settings": settings_fingerprint(kind, settings),
        "app": _normalize_app(app),
        "organization": organization,
        "thp": thp,
        "overrides": canonical,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), disk_cacheable


def _compute_cell(
    kind: str, settings, cell: Cell, override_items: Tuple[Tuple[str, object], ...]
) -> SweepResult:
    """Run one grid cell to completion (also the worker entry point).

    Abort-mode failures are recorded inside the returned dataclass, so
    the only exceptions that escape are genuine errors, which pickle
    with their structured context across the pool boundary.
    """
    from repro.sim.simulator import TranslationSimulator, memory_result
    from repro.workloads import get_workload

    app, organization, thp = cell
    if kind == "datacenter":
        from repro.sim.datacenter import DatacenterSimulator, split_overrides

        params, config_overrides = split_overrides(dict(override_items))
        config = settings.config(organization, thp, **config_overrides)
        return DatacenterSimulator(
            [app], config, params=params, trace_length=settings.trace_length
        ).run()
    workload = get_workload(app, scale=settings.scale, seed=settings.seed)
    config = settings.config(organization, thp, **dict(override_items))
    if kind == "memory":
        return memory_result(config.build(workload))
    simulator = TranslationSimulator(
        workload,
        config,
        trace_length=settings.trace_length,
        warmup_fraction=settings.warmup_fraction,
    )
    return simulator.run()


def _timed_compute_cell(
    kind: str, settings, cell: Cell, override_items: Tuple[Tuple[str, object], ...]
) -> Tuple[SweepResult, float]:
    """:func:`_compute_cell` plus its wall-clock seconds (for manifests).

    Timing wraps the worker side of the pool boundary, so a parallel
    sweep's manifests record per-cell compute time, not queue time.
    """
    start = time.perf_counter()
    result = _compute_cell(kind, settings, cell, override_items)
    return result, time.perf_counter() - start


class ResultCache:
    """One-file-per-cell JSON cache of sweep results.

    Records are written atomically (temp file + ``os.replace``) so
    concurrent engines sharing a directory never observe torn writes.
    Unreadable or malformed records count as ``corrupt``, are deleted,
    and the cell is recomputed.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load(self, key: str, kind: str) -> Optional[SweepResult]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if record["schema"] != CACHE_SCHEMA_VERSION or record["kind"] != kind:
                raise ValueError("stale or mismatched cache record")
            result = result_from_record(record["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.corrupt += 1
            self.misses += 1
            logger.warning("dropping corrupt cache record %s (%s)", path, exc)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def store(self, key: str, kind: str, result: SweepResult) -> None:
        os.makedirs(self.directory, exist_ok=True)
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "result": result_to_record(result),
        }
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp_path, self._path(key))
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass
class SweepEngine:
    """Resolves sweep cells through the disk cache and the process pool.

    ``jobs == 1`` runs cells inline in submission order — the reference
    path.  ``jobs > 1`` fans pending cells out over worker processes;
    seeded configs make the two paths produce identical results, which
    the test suite asserts dataclass-for-dataclass.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(
                f"jobs {self.jobs} must be >= 1", field="jobs", value=self.jobs
            )
        self._cache: Optional[ResultCache] = (
            ResultCache(self.cache_dir)
            if (self.cache_dir and self.use_cache)
            else None
        )

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    def cache_stats(self) -> Optional[Dict[str, int]]:
        return self._cache.stats() if self._cache is not None else None

    def run_cells(
        self,
        kind: str,
        settings,
        cells: Sequence[Cell],
        overrides: Dict[str, object],
    ) -> Dict[Cell, SweepResult]:
        """Resolve every cell: disk cache first, then compute the rest."""
        if kind not in ("memory", "perf", "datacenter"):
            raise ConfigurationError(
                f"unknown sweep kind {kind!r}", field="kind", value=kind
            )
        out: Dict[Cell, SweepResult] = {}
        pending: List[Tuple[Cell, str, bool]] = []
        for cell in cells:
            key, disk_cacheable = cell_key(kind, settings, cell, overrides)
            if self._cache is not None and disk_cacheable:
                cached = self._cache.load(key, kind)
                if cached is not None:
                    out[cell] = cached
                    continue
            pending.append((cell, key, disk_cacheable))
        if pending:
            for (cell, key, disk_cacheable), (result, elapsed) in zip(
                pending, self._compute(kind, settings, pending, overrides)
            ):
                out[cell] = result
                if self._cache is not None and disk_cacheable:
                    self._cache.store(key, kind, result)
                    # Provenance sidecar; ResultCache never reads these,
                    # so a damaged manifest cannot poison a cache hit.
                    write_manifest(
                        manifest_path(self._cache.directory, key),
                        build_manifest(
                            key=key,
                            kind=kind,
                            cell=cell,
                            cache_schema=CACHE_SCHEMA_VERSION,
                            settings=settings_fingerprint(kind, settings),
                            seed=settings.seed,
                            elapsed_seconds=elapsed,
                            metrics=result.metrics,
                        ),
                    )
        return out

    def _compute(
        self,
        kind: str,
        settings,
        pending: Sequence[Tuple[Cell, str, bool]],
        overrides: Dict[str, object],
    ) -> List[Tuple[SweepResult, float]]:
        override_items = tuple(sorted(overrides.items()))
        if self.jobs == 1 or len(pending) == 1:
            return [
                _timed_compute_cell(kind, settings, cell, override_items)
                for cell, _key, _cacheable in pending
            ]
        workers = min(self.jobs, len(pending))
        logger.info(
            "fanning %d %s cells out over %d workers", len(pending), kind, workers
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_timed_compute_cell, kind, settings, cell, override_items)
                for cell, _key, _cacheable in pending
            ]
            return [future.result() for future in futures]


_DEFAULT_ENGINE = SweepEngine()

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()


def get_engine() -> SweepEngine:
    """The engine ``memory_sweep``/``perf_sweep`` submit through."""
    return _DEFAULT_ENGINE


def configure(jobs=_UNSET, cache_dir=_UNSET, use_cache=_UNSET) -> SweepEngine:
    """Reconfigure the default engine (run_all / benchmark CLI flags)."""
    global _DEFAULT_ENGINE
    changes = {}
    if jobs is not _UNSET:
        changes["jobs"] = jobs
    if cache_dir is not _UNSET:
        changes["cache_dir"] = cache_dir
    if use_cache is not _UNSET:
        changes["use_cache"] = use_cache
    _DEFAULT_ENGINE = replace(_DEFAULT_ENGINE, **changes)
    return _DEFAULT_ENGINE


def set_engine(engine: SweepEngine) -> None:
    """Install ``engine`` as the default (tests swap engines in and out)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine


def reset_engine() -> None:
    """Restore the stock serial, disk-less engine."""
    set_engine(SweepEngine())
