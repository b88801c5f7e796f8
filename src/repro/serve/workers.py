"""Sharded worker pool: long-lived processes running the sweep engine.

Each :class:`WorkerShard` owns one OS process executing
:func:`_shard_main`: a loop that receives job payloads over a
``multiprocessing`` pipe, resolves every cell through a
:class:`~repro.experiments.engine.SweepEngine` — the *same* fan-out and
disk cache a direct ``run_cells`` call uses, so a served cell and a
script-driven cell share one cache key and one result byte-for-byte —
and streams per-cell results back as they complete.

Process lifecycle is the point of the shard layer:

* **Isolation.** A crashing or wedged job takes down only its shard's
  process; the pool reports the death, respawns the worker, and the
  other shards never notice.
* **Reaping.** Cancellation and timeouts cannot interrupt a running
  simulation cooperatively, so :meth:`WorkerShard.kill` terminates the
  process outright and respawns it — the ``serve.worker_restarts``
  counter records every such reap.
* **Fan-out reuse.** A multi-cell job is resolved in groups of
  ``engine_jobs`` cells; each group runs through ``SweepEngine``'s own
  ``ProcessPoolExecutor``, so a figure sweep submitted to one shard
  still fans out across cores while streaming group-by-group results.

The asyncio side never blocks: pipe reads run on executor threads and
feed messages back into the event loop via an ``on_message`` callback.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import time
from typing import Callable, Dict, List, Optional

logger = logging.getLogger(__name__)

#: Seconds a graceful stop waits for a worker to drain before terminating.
_STOP_GRACE_SECONDS = 5.0


def _run_sweep_job(payload: Dict, conn) -> None:
    """Resolve one perf/memory job cell-group by cell-group (worker side)."""
    from repro.experiments.engine import SweepEngine
    from repro.experiments.runner import ExperimentSettings
    from repro.sim.results import result_to_record

    settings = ExperimentSettings(**payload["settings"])
    overrides = dict(payload["overrides"])
    obs_spec = payload.get("obs")
    if obs_spec is not None:
        from repro.obs import ObservabilityConfig

        overrides["obs"] = ObservabilityConfig(
            metrics=obs_spec.get("metrics", False),
            trace_path=obs_spec.get("trace_path"),
            trace_sample_every=obs_spec.get("sample_every", 1),
        )
    engine = SweepEngine(
        jobs=payload.get("engine_jobs", 1),
        cache_dir=payload.get("cache_dir"),
        use_cache=payload.get("cache_dir") is not None,
    )
    cells = [tuple(cell) for cell in payload["cells"]]
    group_size = max(1, payload.get("engine_jobs", 1))
    for start in range(0, len(cells), group_size):
        group = cells[start:start + group_size]
        resolved = engine.run_cells(payload["kind"], settings, group, overrides)
        for cell in group:
            conn.send({
                "type": "cell",
                "job": payload["job"],
                "cell": list(cell),
                "result": result_to_record(resolved[cell]),
            })
    conn.send({
        "type": "done",
        "job": payload["job"],
        "cache": engine.cache_stats(),
    })


def _run_selftest_job(payload: Dict, conn) -> None:
    """Sleep in one-second ticks, reporting progress (worker side)."""
    deadline = time.monotonic() + payload.get("duration", 0.0)
    tick = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(1.0, remaining))
        tick += 1
        conn.send({"type": "progress", "job": payload["job"], "tick": tick})
    conn.send({"type": "done", "job": payload["job"], "cache": None})


def _shard_main(conn) -> None:
    """Worker-process entry point: serve jobs until told to stop.

    Every library error is caught and reported as a structured
    ``error`` message — the process survives bad jobs; only a kill by
    the parent (cancellation, timeout) or a hard crash ends it.
    """
    import signal

    # The parent owns shutdown; a terminal's Ctrl-C must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload.get("op") == "stop":
            conn.close()
            return
        try:
            if payload["kind"] == "selftest":
                _run_selftest_job(payload, conn)
            else:
                _run_sweep_job(payload, conn)
        except Exception as exc:  # noqa: BLE001 - reported, never fatal
            conn.send({
                "type": "error",
                "job": payload.get("job", "?"),
                "error": type(exc).__name__,
                "message": str(exc),
                "context": getattr(exc, "context", {}),
            })


class WorkerShard:
    """One worker process plus its pipe and busy/idle bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        #: Job currently executing on this shard (None = idle).
        self.job_id: Optional[str] = None
        self.restarts = 0
        #: Set while a deliberate kill is in flight so the reader does
        #: not report the death as a crash.
        self.expect_death = False

    def spawn(self) -> None:
        """Start (or restart) the worker process with a fresh pipe."""
        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_shard_main, args=(child_conn,), daemon=True,
            name=f"repro-serve-shard-{self.index}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> Optional[int]:
        """The worker process id (None before the first spawn)."""
        return self.process.pid if self.process is not None else None

    @property
    def busy(self) -> bool:
        """Whether a job is executing on this shard."""
        return self.job_id is not None

    def send(self, payload: Dict) -> None:
        """Ship one job payload to the worker (cheap; never blocks long)."""
        self.conn.send(payload)

    def kill(self) -> None:
        """Terminate the worker process and respawn it (reaping).

        Used for cancellation and timeouts: the simulation cannot be
        interrupted cooperatively, so the process is reaped and the
        shard restarted.  The caller owns marking the job's fate.
        """
        self.expect_death = True
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        self.restarts += 1
        self.job_id = None
        self.spawn()

    def stop(self) -> None:
        """Graceful shutdown: ask the loop to exit, then join."""
        try:
            self.conn.send({"op": "stop"})
        except (OSError, ValueError):
            pass
        if self.process is not None:
            self.process.join(timeout=_STOP_GRACE_SECONDS)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardPool:
    """The asyncio-facing pool of :class:`WorkerShard` processes.

    ``on_message(shard_index, message)`` runs in the event loop for
    every worker message; ``on_worker_death(shard_index, job_id)`` runs
    when a worker dies *unexpectedly* while a job was in flight (the
    pool has already respawned the shard by then).
    """

    def __init__(
        self,
        shards: int,
        on_message: Callable[[int, Dict], None],
        on_worker_death: Callable[[int, Optional[str]], None],
    ) -> None:
        self.shards: List[WorkerShard] = [WorkerShard(i) for i in range(shards)]
        self._on_message = on_message
        self._on_worker_death = on_worker_death
        self._readers: List[asyncio.Task] = []
        self._stopping = False

    async def start(self) -> None:
        """Spawn every shard and start its pipe-reader task."""
        for shard in self.shards:
            shard.spawn()
            self._readers.append(
                asyncio.get_running_loop().create_task(self._read_loop(shard))
            )

    async def _read_loop(self, shard: WorkerShard) -> None:
        """Forward worker messages into the loop; handle worker death."""
        loop = asyncio.get_running_loop()
        while not self._stopping:
            conn = shard.conn
            try:
                message = await loop.run_in_executor(None, conn.recv)
            except (EOFError, OSError):
                if self._stopping:
                    return
                if shard.expect_death:
                    # Deliberate kill: the killer already respawned the
                    # process; just re-attach to the fresh pipe.
                    shard.expect_death = False
                    continue
                dead_job = shard.job_id
                shard.job_id = None
                shard.restarts += 1
                logger.warning(
                    "shard %d worker died (job %s); respawning",
                    shard.index, dead_job,
                )
                shard.spawn()
                self._on_worker_death(shard.index, dead_job)
                continue
            self._on_message(shard.index, message)

    def idle_shard(self) -> Optional[WorkerShard]:
        """Any idle shard, lowest index first (deterministic placement)."""
        for shard in self.shards:
            if not shard.busy:
                return shard
        return None

    def shard_for_job(self, job_id: str) -> Optional[WorkerShard]:
        """The shard currently executing ``job_id``, if any."""
        for shard in self.shards:
            if shard.job_id == job_id:
                return shard
        return None

    @property
    def busy_count(self) -> int:
        """Shards with a job in flight."""
        return sum(1 for shard in self.shards if shard.busy)

    async def stop(self) -> None:
        """Stop reader tasks and shut every worker down."""
        self._stopping = True
        for shard in self.shards:
            shard.stop()
        for reader in self._readers:
            reader.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        self._readers.clear()
