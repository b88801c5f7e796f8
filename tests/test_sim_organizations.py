"""The organization registry is the only place that branches on one
(repro.sim.organizations).

Every organization-dependent decision — build, batched walker, OS-cost
terms, memory-result fields, metric collectors, NUMA placement — goes
through the organization object a system reaches as ``system.org``.
These tests parse the simulator, observability, MMU and kernel packages
and fail on any comparison against an organization name, any
``isinstance`` check against a walker or page-table class, and any
``getattr``/``hasattr`` probe of a ``page_tables`` object outside the
registry, so the organization knowledge cannot drift back out of it.
"""

import ast
import inspect
import pathlib

import pytest

import repro
from repro.core import mehpt, walker as mehpt_walker
from repro.ecpt import tables as ecpt_tables, walker as ecpt_walker
from repro.radix import table as radix_table, walker as radix_walker
from repro.sim import config as sim_config
from repro.sim.organizations import REGISTRY

SRC = pathlib.Path(repro.__file__).parent
PACKAGES = ("sim", "obs", "mmu", "kernel")
REGISTRY_MODULE = SRC / "sim" / "organizations.py"

#: Classes whose ``isinstance`` would be a per-organization branch.
ORGANIZATION_CLASSES = {
    name
    for module in (
        radix_table, radix_walker, ecpt_tables, ecpt_walker, mehpt, mehpt_walker
    )
    for name, cls in vars(module).items()
    if inspect.isclass(cls) and cls.__module__ == module.__name__
}


def _modules():
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            if path != REGISTRY_MODULE:
                yield path


def _constants(node):
    """String constants of ``node``, looking inside tuple/list/set literals."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [value for elt in node.elts for value in _constants(elt)]
    return []


def _names(node):
    """Class names an ``isinstance`` second argument refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    return []


def _is_page_tables(node):
    """Whether ``node`` is a ``page_tables`` name or attribute."""
    return (
        isinstance(node, ast.Name) and node.id == "page_tables"
    ) or (isinstance(node, ast.Attribute) and node.attr == "page_tables")


def organization_branches(source: str):
    """``(line, description)`` of every organization branch in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                for value in _constants(operand):
                    if value in REGISTRY:
                        found.append((node.lineno, f"compares against {value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            for name in _names(node.args[1]):
                if name in ORGANIZATION_CLASSES:
                    found.append((node.lineno, f"isinstance against {name}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and node.args
            and _is_page_tables(node.args[0])
        ):
            found.append((node.lineno, f"{node.func.id} on page tables"))
    return found


def test_registry_names_the_config_organizations():
    assert sim_config.ORGANIZATIONS == tuple(REGISTRY) == ("radix", "ecpt", "mehpt")


@pytest.mark.parametrize(
    "source",
    (
        'if config.organization == "radix": pass',
        'if "mehpt" != org: pass',
        'ok = organization in ("ecpt", "mehpt")',
        "ok = isinstance(walker, RadixWalker)",
        "ok = isinstance(walker, (walker_mod.EcptWalker, int))",
        "ok = isinstance(tables, MeHptPageTables)",
        "ok = isinstance(tables, radix.RadixPageTable)",
        'l2p = getattr(system.page_tables, "l2p", None)',
        'tables = getattr(self.address_space.page_tables, "tables", None)',
        'ok = hasattr(page_tables, "check_invariants")',
    ),
)
def test_guard_detects_branches(source):
    assert organization_branches(source)


@pytest.mark.parametrize(
    "source",
    (
        'ok = hasattr(walker, "cwt_memory_reads")',
        'bind = getattr(workload, "bind_observability", None)',
        "tables = system.page_tables",
    ),
)
def test_guard_passes_other_probes(source):
    assert not organization_branches(source)


def test_no_organization_branches_outside_the_registry():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in _modules()
        for line, what in organization_branches(path.read_text())
    ]
    assert not offenders, "\n".join(offenders)
