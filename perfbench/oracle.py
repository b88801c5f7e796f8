"""Result digests, stored references and the environment fingerprint.

A cell's digest is the SHA-256 of its result serialized by
:func:`repro.sim.results.result_to_record` as canonical JSON (sorted
keys, no whitespace), so two results share a digest exactly when every
field is equal.  References for the default seed are stored in
``reference/<workload>.json`` beside this file; for any other seed the
benchmark computes them before timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Dict, Optional

from repro.sim.results import result_to_record

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(result) -> str:
    """Canonical-JSON SHA-256 of one sweep result."""
    blob = json.dumps(
        result_to_record(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def table_counts(page_tables) -> Dict[str, int]:
    """Cuckoo kicks, way resizes and chunk transitions of one system."""
    if not hasattr(page_tables, "kick_histogram"):
        return {"kicks": 0, "resizes": 0, "chunk_transitions": 0}
    ways = [
        way for table in page_tables.tables.values() for way in table.table.ways
    ]
    transitions = getattr(page_tables, "total_chunk_transitions", None)
    return {
        "kicks": sum(
            depth * count for depth, count in page_tables.kick_histogram().items()
        ),
        "resizes": sum(way.upsizes + way.downsizes for way in ways),
        "chunk_transitions": transitions() if transitions is not None else 0,
    }


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int, sizes: Dict) -> Optional[Dict]:
    """The stored ``{org: {"digest", "guards"}}`` for this seed, or None.

    A stored file made with other workload sizes is an error: the
    benchmark's inputs changed without its references being remade.
    """
    path = reference_path(workload)
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    if stored["seed"] != seed:
        return None
    if stored["sizes"] != sizes:
        raise ValueError(
            f"{path.name} was made with sizes {stored['sizes']}, the "
            f"workload now uses {sizes}; remake it with --write-reference"
        )
    return stored["cells"]


def write_reference(workload: str, seed: int, sizes: Dict, cells: Dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "sizes": sizes, "cells": cells}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- environment fingerprint ----------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path, seed: int) -> Dict[str, object]:
    """Python/numpy versions, CPU, nproc, git commit, source digest, seed."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": nproc,
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
    }
