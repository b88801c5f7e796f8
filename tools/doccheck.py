#!/usr/bin/env python3
"""Documentation gates for CI — stdlib only, no third-party tools.

Three checks (run all with ``all``) and one report:

``coverage``
    AST-based public docstring coverage over ``src/repro``: every module,
    public class, and public function/method counts one slot; the check
    fails when the documented fraction drops below ``--min`` (CI pins the
    baseline so coverage can only ratchet up).

``obs-docs``
    Two-way consistency between ``OBSERVABILITY.md`` and the code: every
    metric in the doc's "Metric catalogue" table must exist in
    ``repro.obs.metrics.CATALOGUE`` and vice versa, and every event kind
    in the "Event schema" table must exist in ``repro.obs.trace`` and
    vice versa.  Documentation that drifts from the registry fails CI.

``serving-docs``
    Two-way consistency between ``SERVING.md`` and the service: every
    endpoint in the doc's "Endpoints" table must exist in
    ``repro.serve.server.ROUTES`` and vice versa, and every event type
    in the "Event stream" table must exist in
    ``repro.serve.protocol.EVENT_TYPES`` and vice versa.

``loc``
    Code lines — no docstring, comment or blank line — per given file or
    directory tree and in total: the size measure ROADMAP.md and
    CHANGES.md quote.  It reports and never fails.

Usage::

    python tools/doccheck.py coverage --min 90.0 [--verbose]
    python tools/doccheck.py obs-docs
    python tools/doccheck.py serving-docs
    python tools/doccheck.py all --min 90.0
    python tools/doccheck.py loc src/repro/sim src/repro/kernel
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from typing import Dict, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
OBS_DOC = os.path.join(REPO_ROOT, "OBSERVABILITY.md")
SERVING_DOC = os.path.join(REPO_ROOT, "SERVING.md")

#: A documentable name is public when no path component is dunder/private
#: (``_helper``; ``__init__`` and friends are implementation detail).
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


# -- docstring coverage ----------------------------------------------------


def iter_py_files(root: str) -> List[str]:
    """Every ``.py`` file under ``root``, sorted for stable output."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def file_coverage(path: str) -> Tuple[int, int, List[str]]:
    """(slots, documented, missing-qualnames) for one source file."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    slots = 1
    documented = 0
    missing: List[str] = []
    if ast.get_docstring(tree) is not None:
        documented += 1
    else:
        missing.append(f"{rel}: module")

    def visit(body, prefix: str) -> None:
        nonlocal slots, documented
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not _is_public(node.name):
                    continue
                slots += 1
                if ast.get_docstring(node) is not None:
                    documented += 1
                else:
                    missing.append(f"{rel}:{node.lineno} {prefix}{node.name}")
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return slots, documented, missing


def cmd_coverage(minimum: float, verbose: bool) -> int:
    """Gate public docstring coverage of ``src/repro`` at ``minimum`` %."""
    total = documented = 0
    missing: List[str] = []
    for path in iter_py_files(SRC_ROOT):
        file_slots, file_documented, file_missing = file_coverage(path)
        total += file_slots
        documented += file_documented
        missing.extend(file_missing)
    pct = 100.0 * documented / total if total else 100.0
    print(
        f"docstring coverage: {documented}/{total} public slots "
        f"({pct:.1f}%), floor {minimum:.1f}%"
    )
    if verbose or pct < minimum:
        for entry in missing:
            print(f"  undocumented: {entry}")
    if pct < minimum:
        print(f"FAIL: coverage {pct:.1f}% is below the {minimum:.1f}% floor")
        return 1
    return 0


# -- code line counts ------------------------------------------------------


def file_code_lines(path: str) -> int:
    """Lines of ``path`` holding code, not docstring, comment or blank.

    A docstring is what ``ast.get_docstring`` finds, as in the coverage
    walk, but on every module, class and function, private and nested
    ones included.
    """
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    docstring_lines: Set[int] = set()
    for node in ast.walk(ast.parse(source, filename=path)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    count = 0
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if text and not text.startswith("#") and number not in docstring_lines:
            count += 1
    return count


def cmd_loc(paths: List[str]) -> int:
    """Print the code lines of each path (file or tree) and their total."""
    total = 0
    for path in paths:
        files = [path] if os.path.isfile(path) else iter_py_files(path)
        count = sum(file_code_lines(name) for name in files)
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


# -- OBSERVABILITY.md consistency ------------------------------------------


def doc_table_names(doc_path: str, section: str) -> Set[str]:
    """Backticked names from the first column of ``section``'s table.

    ``section`` is matched against ``##``-level headings; scanning stops
    at the next heading.  Only table rows (lines starting with ``|``)
    contribute, so prose mentions never count as catalogue entries.
    """
    names: Set[str] = set()
    in_section = False
    with open(doc_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("##"):
                in_section = line.lstrip("#").strip().lower() == section.lower()
                continue
            if not in_section or not line.lstrip().startswith("|"):
                continue
            first_cell = line.lstrip().lstrip("|").split("|", 1)[0]
            for token in re.findall(r"`([^`]+)`", first_cell):
                names.add(token)
    return names


def _diff(kind: str, documented: Set[str], actual: Set[str]) -> List[str]:
    problems = []
    for name in sorted(documented - actual):
        problems.append(f"{kind} `{name}` is documented but not defined in code")
    for name in sorted(actual - documented):
        problems.append(f"{kind} `{name}` is defined in code but not documented")
    return problems


def cmd_obs_docs() -> int:
    """Check OBSERVABILITY.md against the metric catalogue and event kinds."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.obs.metrics import CATALOGUE
    from repro.obs.trace import ALL_KINDS

    if not os.path.exists(OBS_DOC):
        print(f"FAIL: {OBS_DOC} does not exist")
        return 1
    problems = _diff(
        "metric", doc_table_names(OBS_DOC, "Metric catalogue"), set(CATALOGUE)
    )
    problems += _diff(
        "event", doc_table_names(OBS_DOC, "Event schema"), set(ALL_KINDS)
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print(
        f"OBSERVABILITY.md is consistent: {len(CATALOGUE)} metrics, "
        f"{len(ALL_KINDS)} event kinds"
    )
    return 0


def cmd_serving_docs() -> int:
    """Check SERVING.md against the service's routes and event types."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.serve.protocol import EVENT_TYPES
    from repro.serve.server import ROUTES

    if not os.path.exists(SERVING_DOC):
        print(f"FAIL: {SERVING_DOC} does not exist")
        return 1
    actual_routes = {f"{method} {path}" for method, path in ROUTES}
    problems = _diff(
        "endpoint", doc_table_names(SERVING_DOC, "Endpoints"), actual_routes
    )
    problems += _diff(
        "event type",
        doc_table_names(SERVING_DOC, "Event stream"),
        set(EVENT_TYPES),
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print(
        f"SERVING.md is consistent: {len(ROUTES)} endpoints, "
        f"{len(EVENT_TYPES)} event types"
    )
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "check", choices=["coverage", "obs-docs", "serving-docs", "all", "loc"]
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories for loc to count"
    )
    parser.add_argument(
        "--min",
        type=float,
        default=90.0,
        help="minimum docstring coverage percent (default 90)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="list undocumented slots"
    )
    args = parser.parse_args(argv)
    if args.check == "loc":
        if not args.paths:
            parser.error("loc needs at least one PATH")
        return cmd_loc(args.paths)
    status = 0
    if args.check in ("coverage", "all"):
        status |= cmd_coverage(args.min, args.verbose)
    if args.check in ("obs-docs", "all"):
        status |= cmd_obs_docs()
    if args.check in ("serving-docs", "all"):
        status |= cmd_serving_docs()
    return status


if __name__ == "__main__":
    sys.exit(main())
