"""The repository benchmark: end-to-end host throughput and per-layer host time.

Run from the repository root::

    python3 perfbench/run.py --workload replay-hit --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload populate --seed 3 --seconds 25 --trace 1
    python3 perfbench/run.py --workload tenants --seed 0 --write-reference

Workloads: ``replay-hit``, ``replay-miss``, ``populate``, ``tenants``
(see ``suite.py`` and README.md).  The timed cells run in one process,
on one thread, through the sweep engine at ``jobs=1``.  Each workload
is a closed loop of rounds: a cold pass resolves one cell per
organization into a fresh disk cache, then new engines re-resolve the
same cells from the warm cache.  Rounds run back to back until
``--seconds`` would be exceeded.  A child process makes the inputs,
computes the references and times the set-ups in slots spread over the
run, while the timed process waits.  Every resolved cell is checked
against the reference digests (stored for the default seed, computed
with the scalar engine before timing otherwise), and every cold cell's
guard counts against the workload's shape guards and the reference's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints per-layer self time and counts
per traced round, the time no span covers, and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when ``correct`` is false.  Full results, with the environment
fingerprint, go to ``perfbench/out/results/``; the traced run's spans
go to ``perfbench/out/spans/``.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS pools would otherwise add run-to-run noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402  (numpy only; oracle and suite need repro first)

#: The seed whose references are stored in ``reference/``.
DEFAULT_SEED = 0
#: A set-up slot runs before a round once this many seconds have passed
#: since the last slot, so slots spread over the whole run.
SLOT_EVERY = 2.0
#: Each slot repeats the set-up until this many seconds have passed.
SLOT_SECONDS = 0.25
#: Warm re-resolutions of every cell per round, each by a new engine.
WARM_REPEATS = 10


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    init = src / "repro" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no repro package at {init}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {init}")


def setup_process(workload, oracle) -> int:
    """The set-up process (``--setup-process``): answers requests on stdin.

    ``reference`` returns the stored references for the seed, or runs
    every cell with the scalar engine, or returns ``{}`` (the first cold
    round is then the reference).  ``setup`` repeats the workload's
    set-up for at least :data:`SLOT_SECONDS` and returns each one's
    seconds.  ``stop`` ends the process.  Each reply is one JSON line.
    """
    replies, sys.stdout = sys.stdout, sys.stderr  # keep other output apart
    perf = time.perf_counter
    for line in sys.stdin:
        request = line.strip()
        if request == "stop":
            break
        try:
            start = perf()
            if request == "reference":
                name, seed = workload.name, workload.seed
                reference = oracle.load_reference(name, seed, workload.sizes)
                source = "stored"
                if reference is None and workload.precompute_oracle:
                    workload.make_inputs()
                    reference, source = workload.oracle(), "scalar engine"
                elif reference is None:
                    reference, source = {}, "first cold round"
                value = [reference, source, perf() - start]
            else:
                value = []
                while not value or perf() - start < SLOT_SECONDS:
                    t0 = perf()
                    workload.setup()
                    value.append(perf() - t0)
            reply = {"ok": True, "value": value}
        except Exception:
            reply = {"ok": False, "error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


class SetupProcess:
    """A child process that makes the inputs, times set-ups and computes
    references, so the timed process's peak memory is its rounds' own.

    Requests are answered one at a time while this process waits, so
    the two never run at once.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-process"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request: str):
        self.process.stdin.write(request + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up process ended on {request!r}")
        reply = json.loads(line)
        if not reply["ok"]:
            raise RuntimeError(
                f"set-up process failed on {request!r}:\n{reply['error']}"
            )
        return reply["value"]

    def close(self) -> None:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class BuildLog:
    """Keeps every system ``SimulationConfig.build`` makes while installed.

    :meth:`take` sums :func:`oracle.table_counts` over them and forgets
    them, so each cold cell's kicks, resizes and chunk transitions are
    counted from the systems that cell built.
    """

    def __init__(self, table_counts) -> None:
        self.table_counts = table_counts
        self.systems: List[object] = []

    def __enter__(self) -> "BuildLog":
        from repro.sim.config import SimulationConfig

        self.original = vars(SimulationConfig)["build"]
        original, systems = self.original, self.systems

        @functools.wraps(original)
        def build(config, *args, **kwargs):
            system = original(config, *args, **kwargs)
            systems.append(system)
            return system

        SimulationConfig.build = build
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.config import SimulationConfig

        SimulationConfig.build = self.original

    def take(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for system in self.systems:
            for key, value in self.table_counts(system.page_tables).items():
                counts[key] = counts.get(key, 0) + value
        self.systems.clear()
        return counts


@dataclass
class Round:
    """One cold pass plus its warm re-resolutions."""

    wall: float
    cold: Dict[str, float]
    accesses: int
    warm: List[float] = field(default_factory=list)
    #: Seconds covered by spans with no parent (traced rounds only).
    covered: float = 0.0


class Runner:
    """Resolves rounds of one workload and checks every result."""

    def __init__(self, workload, reference: Dict, digest, builds: BuildLog,
                 recorder=None) -> None:
        self.workload = workload
        self.reference = reference
        self.digest = digest
        self.builds = builds
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        #: Guard counts of each organization's latest cold cell.
        self.measured: Dict[str, Dict] = {}
        #: Distinct problem messages and how often each was seen.
        self.problems: Counter = Counter()

    def _check(self, org: str, result, cold: bool) -> List[str]:
        got = self.digest(result)
        expected = self.reference.get(org)
        if not cold and expected is not None:
            return [] if got == expected["digest"] else [
                f"digest {got[:12]} != reference {expected['digest'][:12]}"
            ]
        guards = dict(self.workload.result_guards(result))
        guards.update(self.builds.take())
        self.measured[org] = guards
        problems = self.workload.check_guards(guards)
        if expected is None:
            # No precomputed reference: the first cold result is it.
            self.reference[org] = {"digest": got, "guards": guards}
            return problems
        if got != expected["digest"]:
            problems.append(f"digest {got[:12]} != reference {expected['digest'][:12]}")
        problems.extend(
            f"guard {key} = {guards.get(key)}, reference {value}"
            for key, value in sorted(expected["guards"].items())
            if guards.get(key) != value
        )
        return problems

    def resolve(self, engine, plan, org: str, cold: bool):
        """One cell through ``engine``: (result or None, seconds)."""
        label = "cold" if cold else "warm"
        cell = plan.cells[org]
        self.attempted += 1
        self.builds.systems.clear()  # a cell that raised may have left some
        start = time.perf_counter()
        try:
            result = engine.run_cells(
                plan.kind, plan.settings, [cell], plan.overrides
            )[cell]
        except Exception:  # a failing cell is counted, the run goes on
            seconds = time.perf_counter() - start
            traceback.print_exc()
            self.failed += 1
            self.problems[f"{label} {org}: raised"] += 1
            return None, seconds
        seconds = time.perf_counter() - start
        problems = self._check(org, result, cold)
        if problems:
            self.failed += 1
            self.problems.update(f"{label} {org}: {p}" for p in problems)
        return result, seconds

    def run_round(self, plan, cache_dir: Path) -> Round:
        from repro.experiments.engine import SweepEngine

        orgs = spans.ORGS
        shutil.rmtree(cache_dir, ignore_errors=True)
        rec = self.recorder
        covered_before = rec.root_time if rec is not None else 0.0
        start = time.perf_counter()
        cold: Dict[str, float] = {}
        accesses = 0
        engine = SweepEngine(jobs=1, cache_dir=str(cache_dir))
        for index, org in enumerate(orgs):
            if rec is not None:
                rec.current_org = index
            result, cold[org] = self.resolve(engine, plan, org, cold=True)
            if result is not None:
                accesses += self.workload.accesses(result)
        warm: List[float] = []
        for _ in range(WARM_REPEATS):
            engine = SweepEngine(jobs=1, cache_dir=str(cache_dir))
            for index, org in enumerate(orgs):
                if rec is not None:
                    rec.current_org = index
                warm.append(self.resolve(engine, plan, org, cold=False)[1])
            hits = engine.cache_stats()["hits"]
            if hits != len(orgs):
                self.problems[f"warm pass hit {hits} of {len(orgs)} cells"] += 1
        wall = time.perf_counter() - start
        covered = 0.0
        if rec is not None:
            rec.current_org = -1
            covered = rec.root_time - covered_before
        return Round(wall, cold, accesses, warm, covered)


#: The bounded end-to-end metrics (``end_to_end`` in BENCHMARK.json).
END_TO_END = ("accesses_per_s", "setup_s", "peak_rss_mb")
#: Host-time summaries of untraced rounds that are reported per layer:
#: on this class of machine they swing by more than any bound allows
#: (see README.md, "Noise").
UNTRACED_LAYER = tuple(f"cell_s.{org}" for org in spans.ORGS) + (
    "experiments.warm_cell_ms",
)


def per_layer_names() -> List[str]:
    """Every metric ``--trace 1`` reports (``per_layer`` in BENCHMARK.json)."""
    return spans.metric_names() + list(UNTRACED_LAYER) + [
        "trace.unattributed_s", "trace.overhead",
    ]


def host_summary(rounds: List[Round], slots: List[List[float]]) -> Dict[str, float]:
    """Throughput, set-up time and peak memory; per-cell times.

    Every host time is the fastest of its samples over the whole run:
    each organization's cold cells, the warm resolutions, the set-ups.
    Host speed here switches between a fast and a slow level for
    seconds to minutes at a time, so a median or a whole-run mean moves
    with the share of the run spent at each level, while the fastest
    sample stays at the fast level whenever the run reaches it once
    (see README.md, "Noise").  ``accesses_per_s`` is one round's work
    over the sum of the organizations' cell times.
    """
    summary: Dict[str, float] = {}
    for org in spans.ORGS:
        summary[f"cell_s.{org}"] = min(r.cold[org] for r in rounds)
    cell_seconds = sum(summary[f"cell_s.{org}"] for org in spans.ORGS)
    summary.update({
        "accesses_per_s": statistics.median(r.accesses for r in rounds) / cell_seconds,
        "setup_s": min(t for slot in slots for t in slot),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "experiments.warm_cell_ms": 1000.0 * min(t for r in rounds for t in r.warm),
    })
    return summary


UNITS = {
    "accesses_per_s": "1/s", "setup_s": "s",
    "experiments.warm_cell_ms": "ms", "peak_rss_mb": "MB",
    "error_rate": "ratio", "trace.overhead": "ratio",
}


def unit_of(name: str) -> str:
    """A metric's unit: listed in UNITS, else ``s`` for ``*_s``, else a count."""
    if name in UNITS:
        return UNITS[name]
    stem = name.split(".")
    return "s" if any(part.endswith("_s") for part in stem) else "count"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="compute the scalar-engine reference for --seed and store it",
    )
    parser.add_argument(
        "--setup-process", action="store_true",
        help="serve set-up and reference requests for a running benchmark",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_repro()
    import oracle
    import suite

    if args.workload not in suite.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(suite.WORKLOADS)}")
    work_dir = OUT_DIR / "work" / args.workload
    workload = suite.WORKLOADS[args.workload](args.seed, work_dir)
    if args.setup_process:
        return setup_process(workload, oracle)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        return run(args, workload, oracle, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, workload, oracle, work_dir: Path) -> int:
    name = workload.name
    fingerprint = oracle.fingerprint(ROOT, args.seed)
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))

    if args.write_reference:
        workload.make_inputs()
        cells = workload.oracle()
        for org, entry in cells.items():
            problems = workload.check_guards(entry["guards"])
            if problems:
                sys.exit(f"perfbench: {org} reference breaks its guards: {problems}")
        path = oracle.write_reference(name, args.seed, workload.sizes, cells)
        print(f"wrote {path}")
        return 0

    helper = SetupProcess(name, args.seed)
    try:
        reference, source, seconds = helper.ask("reference")
        print(f"reference: {source} ({seconds:.2f} s)")
        with BuildLog(oracle.table_counts) as builds:
            return measure(args, workload, oracle, work_dir, helper, builds,
                           reference, fingerprint)
    finally:
        helper.close()


def measure(args, workload, oracle, work_dir: Path, helper: SetupProcess,
            builds: BuildLog, reference: Dict, fingerprint: Dict) -> int:
    name = workload.name
    recorder = spans.SpanRecorder() if args.trace else None
    runner = Runner(workload, reference, oracle.digest, builds, recorder)
    for org, entry in reference.items():
        runner.problems.update(
            f"reference {org}: {p}" for p in workload.check_guards(entry["guards"])
        )
    plan = workload.plan()
    cache_dir = work_dir / "cache"
    untraced: List[Round] = []
    traced: List[Round] = []
    slots: List[List[float]] = []
    start = last_slot = time.perf_counter()
    while True:
        if not slots or time.perf_counter() - last_slot >= SLOT_EVERY:
            slots.append(helper.ask("setup"))
            last_slot = time.perf_counter()
        gc.collect()
        untraced.append(runner.run_round(plan, cache_dir))
        if recorder is not None:
            gc.collect()
            with spans.Instrumentation(recorder):
                traced.append(runner.run_round(plan, cache_dir))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break
    for org, guards in sorted(runner.measured.items()):
        print(f"guards {org}: " + " ".join(
            f"{k}={v}" for k, v in sorted(guards.items())))

    summary = host_summary(untraced, slots)
    if recorder is not None:
        metrics = recorder.layer_metrics(len(traced))
        metrics.update((key, summary[key]) for key in UNTRACED_LAYER)
        metrics["trace.unattributed_s"] = statistics.median(
            r.wall - r.covered for r in traced
        )
        metrics["trace.overhead"] = (
            statistics.median(r.wall for r in traced)
            / statistics.median(r.wall for r in untraced) - 1.0
        )
        runner.problems.update(workload.check_layers(metrics, reference))
        (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
        recorder.write(str(OUT_DIR / "spans" / f"{name}.npz"))
        extra = {}
    else:
        metrics = {key: summary[key] for key in END_TO_END}
        extra = {key: summary[key] for key in UNTRACED_LAYER}

    extra["error_rate"] = runner.failed / runner.attempted
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up slots: {len(slots)}; cells attempted {runner.attempted}, "
          f"failed {runner.failed}")
    for metric, value in list(metrics.items()) + list(extra.items()):
        print(f"  {metric:<34} {value:>16.6g} {unit_of(metric)}")
    for problem, times in runner.problems.items():
        print(f"problem (x{times}): {problem}")

    correct = not runner.problems and runner.failed == 0
    record = {
        "workload": name,
        "fingerprint": fingerprint,
        "sizes": workload.sizes,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": extra["error_rate"],
        "problems": dict(runner.problems),
        "metrics": {**metrics, **extra},
        "guards": runner.measured,
        "reference_guards": {org: e["guards"] for org, e in reference.items()},
        "setup_slots": slots,
        "rounds": [asdict(r) for r in untraced],
        "traced_rounds": [asdict(r) for r in traced],
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
