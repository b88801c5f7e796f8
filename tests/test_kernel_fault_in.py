"""MAP_POPULATE a leaf container at a time (AddressSpace.fault_in).

``populate_tables`` hands the page set to ``AddressSpace.fault_in``,
which writes each run of pages that share an HPT line or radix PTE node
an earlier page created through one call to the tables' ``fill`` and
sends every other page through ``translate`` and ``handle_fault``.  These tests compare it against the
page-at-a-time loop it replaced -- ``translate``, then ``handle_fault``,
with the same invariant-check and progress cadence -- on everything a
populate leaves behind: the result record with its metrics snapshot,
the trace bytes, the fault totals and frame counter, the CWTs and CWCs,
every HPT line and radix mapping, and the exception and state of a
failed check or an abort.  The ``fill`` unit tests pin down that each
decline changes nothing and counts nothing, and where a run stops.
"""

import itertools
import logging

import pytest

from repro.common.errors import SimulationError
from repro.core.mehpt import MeHptPageTables
from repro.ecpt import cwt
from repro.ecpt.tables import EcptPageTables
from repro.experiments.runner import ExperimentSettings
from repro.faults.plan import SITES, FaultPlan, FaultSpec
from repro.hashing import storage
from repro.kernel.address_space import AddressSpace, SegmentationFault, Vma
from repro.kernel.thp import PAGES_PER_2M, ThpPolicy
from repro.mem.allocator import CostModelAllocator
from repro.obs import ObservabilityConfig
from repro.radix.table import RadixPageTable
from repro.sim import simulator
from repro.workloads import get_workload

pytestmark = pytest.mark.fastpath

ORGS = ("radix", "ecpt", "mehpt")
APPS = ("SysBench", "BFS", "GUPS")
SETTINGS = ExperimentSettings(seed=0, scale=512).fast()


def reference_populate(system, progress_every=0):
    """The page-at-a-time populate loop: translate, then handle_fault."""
    aspace = system.address_space
    translate = system.page_tables.translate
    check_every = system.config.invariant_check_every
    pages = 0
    for i, vpn in enumerate(system.workload.page_set().tolist()):
        if translate(vpn) is None:
            aspace.handle_fault(vpn)
        if check_every and i % check_every == 0 and i:
            simulator.check_system_invariants(system, i)
        if progress_every and i % progress_every == 0 and i:
            simulator.logger.info("populated %d pages...", i)
        pages = i + 1
    if check_every:
        simulator.check_system_invariants(system, -1)
    if progress_every:
        simulator.logger.info(
            "populated %d pages (%.0f fault cycles)", pages, aspace.totals.cycles
        )
    if system.obs is not None:
        system.obs.advance_clock(int(aspace.totals.cycles))
        if system.obs.registry is not None:
            system.obs.registry.counter("sim.populated_pages").set_total(pages)


def state(system):
    """Everything a populate leaves in the kernel and the page tables."""
    aspace = system.address_space
    tables = system.page_tables
    out = {
        "totals": aspace.totals,
        "next_frame": aspace._next_frame,
        "degradation": dict(system.degradation.counts()),
    }
    if hasattr(tables, "pmd_cwt"):
        out["cwt"] = [dict(t._counts) for t in (tables.pmd_cwt, tables.pud_cwt)]
        out["cwc"] = [
            (c.hits, c.misses, list(c._tags), dict(c._values))
            for c in (system.walker.pmd_cwc, system.walker.pud_cwc)
        ]
        out["lines"] = {
            size: [(key, list(value)) for key, value in t.table.items()]
            for size, t in tables.tables.items()
        }
        out["mapped"] = {size: t.mapped_pages for size, t in tables.tables.items()}
        out["stats"] = {size: vars(t.table.stats) for size, t in tables.tables.items()}
    else:
        out["mappings"] = list(tables.iter_mappings())
        out["nodes"] = tables.node_count
        out["mapped"] = dict(tables.mapped_pages)
    return out


def populate(
    monkeypatch, tmp_path, name, org, thp, app, reference, fail_check=0, **overrides
):
    """One memory cell; returns (result or raised exception, state, trace).

    ``fail_check`` > 0 plants a page-table invariant check that fails on
    its ``fail_check``-th call.
    """
    # Synthetic line and node addresses come from process-wide counters;
    # restart them so both runs place their tables at the same addresses.
    monkeypatch.setattr(storage, "_STORAGE_IDS", itertools.count(1))
    monkeypatch.setattr(cwt, "_cwt_bases", itertools.count(1))
    monkeypatch.setattr(RadixPageTable, "_node_ids", itertools.count(1))
    trace = tmp_path / f"{name}.jsonl"
    config = SETTINGS.config(
        org, thp, obs=ObservabilityConfig(metrics=True, trace_path=str(trace)),
        **overrides,
    )
    system = config.build(get_workload(app, scale=SETTINGS.scale, seed=SETTINGS.seed))
    if fail_check:
        calls = itertools.count(1)

        def planted():
            if next(calls) == fail_check:
                raise SimulationError("planted check failure")

        system.page_tables.check_invariants = planted
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(simulator, "populate_tables", reference_populate)
        try:
            outcome = simulator.memory_result(system)
        except SimulationError as exc:
            outcome = (type(exc), str(exc), exc.context)
    return outcome, state(system), trace.read_bytes()


def assert_same(monkeypatch, tmp_path, org, thp, app, **kwargs):
    filled = populate(monkeypatch, tmp_path, "fill", org, thp, app, False, **kwargs)
    ref = populate(monkeypatch, tmp_path, "ref", org, thp, app, True, **kwargs)
    assert filled[0] == ref[0]
    assert filled[1] == ref[1]
    assert filled[2] == ref[2]
    return filled


class TestPopulateEquivalence:
    @pytest.mark.parametrize("fmfi", [0.5, 0.75])
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("thp", [False, True])
    @pytest.mark.parametrize("org", ORGS)
    def test_same_as_page_at_a_time(self, monkeypatch, tmp_path, org, thp, app, fmfi):
        result, _state, trace = assert_same(
            monkeypatch, tmp_path, org, thp, app, fmfi=fmfi
        )
        assert b'"fault_serviced"' in trace
        assert result.pages_mapped_4k + result.pages_mapped_2m > 0
        # The contiguous-allocation aborts of the paper's ECPT above 0.7.
        assert result.failed == (
            org == "ecpt" and not thp and fmfi > 0.7 and app != "BFS"
        )

    @pytest.mark.parametrize("org", ORGS)
    def test_check_cadence(self, monkeypatch, tmp_path, org):
        assert_same(
            monkeypatch, tmp_path, org, False, "GUPS", invariant_check_every=777,
        )

    @pytest.mark.parametrize("fail_at", [1, 5])
    @pytest.mark.parametrize("org", ORGS)
    def test_failed_check_leaves_same_state(self, monkeypatch, tmp_path, org, fail_at):
        outcome = assert_same(
            monkeypatch, tmp_path, org, False, "SysBench",
            fail_check=fail_at, invariant_check_every=997,
        )[0]
        assert outcome[0] is SimulationError
        assert outcome[2]["progress"] == 997 * fail_at

    @pytest.mark.faults
    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("org", ["ecpt", "mehpt"])
    def test_fault_plan_at_each_site(self, monkeypatch, tmp_path, org, site):
        # The build makes 9 (ECPT) or 36 (ME-HPT) allocations and 9
        # L2P reservations; the first firing falls inside the populate.
        every = {"ecpt": 10, "mehpt": 37}[org]
        plan = FaultPlan([FaultSpec(site, every=every, max_failures=3)], seed=2)
        _result, after, _trace = assert_same(
            monkeypatch, tmp_path, org, False, "GUPS", fault_plan=plan, fmfi=0.5,
        )
        assert after["degradation"] or (org, site) == ("ecpt", "l2p_reserve")

    @pytest.mark.parametrize("org", ORGS)
    def test_progress_lines(self, monkeypatch, caplog, org):
        logs = []
        for fn in (simulator.populate_tables, reference_populate):
            monkeypatch.setattr(storage, "_STORAGE_IDS", itertools.count(1))
            monkeypatch.setattr(cwt, "_cwt_bases", itertools.count(1))
            monkeypatch.setattr(RadixPageTable, "_node_ids", itertools.count(1))
            config = SETTINGS.config(org, False, invariant_check_every=500)
            system = config.build(get_workload("BFS", scale=SETTINGS.scale))
            caplog.clear()
            with caplog.at_level(logging.INFO, logger=simulator.logger.name):
                fn(system, progress_every=300)
            logs.append(([r.getMessage() for r in caplog.records], state(system)))
        assert len(logs[0][0]) > 2
        assert logs[0] == logs[1]


def hpt(cls):
    return cls(CostModelAllocator(fmfi=0.3))


def hpt_counters(tables):
    return (
        {size: vars(t.table.stats).copy() for size, t in tables.tables.items()},
        {size: t.mapped_pages for size, t in tables.tables.items()},
        [dict(c._counts) for c in (tables.pmd_cwt, tables.pud_cwt)],
        {
            size: [(key, list(value)) for key, value in t.table.items()]
            for size, t in tables.tables.items()
        },
    )


#: A 2MB-aligned VPN inside the first 1GB region.
BASE = PAGES_PER_2M * 64


#: A VMA around every page the table tests touch.
VMA = Vma(BASE - PAGES_PER_2M, BASE + 2 * PAGES_PER_2M)


def run_by_map(tables, vpns, ppn):
    """What a filled run must equal: ``translate`` + ``map`` per page."""
    for offset, vpn in enumerate(vpns):
        assert tables.translate(vpn) is None
        tables.map(vpn, ppn + offset, "4K")


class TestHptFill:
    @pytest.mark.parametrize("cls", [EcptPageTables, MeHptPageTables])
    def test_fill_counts_what_translate_and_map_count(self, cls):
        filled, mapped = hpt(cls), hpt(cls)
        for tables in (filled, mapped):
            tables.map(BASE, 1, "4K")
        assert filled.fill([BASE + 3], 0, 7, VMA) == 1
        assert mapped.translate(BASE + 3) is None
        mapped.map(BASE + 3, 7, "4K")
        assert hpt_counters(filled) == hpt_counters(mapped)
        assert filled.translate(BASE + 3) == (7, "4K")

    @pytest.mark.parametrize("case", ["absent", "mapped", "2M", "1G"])
    @pytest.mark.parametrize("cls", [EcptPageTables, MeHptPageTables])
    def test_fill_declines_with_nothing_moved(self, cls, case):
        tables = hpt(cls)
        vpn = BASE + 8  # a block of its own
        if case == "mapped":
            tables.map(vpn, 5, "4K")
        elif case in ("2M", "1G"):
            # A 4KB line exists next to the page; a larger page covers it.
            tables.map(vpn + 1, 5, "4K")
            huge = RadixPageTable.align_vpn(vpn, case)
            tables.map(huge, 9, case)
        before = hpt_counters(tables)
        assert tables.fill([vpn, vpn + 2], 0, 42, VMA) == 0
        assert hpt_counters(tables) == before

    # (piece, VMA, pages the run writes); page BASE + 4 of the line
    # BASE .. BASE + 7 is mapped beforehand.
    RUNS = {
        # Stops at the 9th page of the line: the next line's first page.
        "line_edge": ([BASE + 5, BASE + 6, BASE + 7, BASE + 8], VMA, 3),
        # Stops at a page mapped in the middle of the piece.
        "mapped": ([BASE + 1, BASE + 2, BASE + 3, BASE + 4, BASE + 5], VMA, 3),
        # Two VMAs share the line: [.., BASE + 6) and [BASE + 6, ..).
        "vma_end": ([BASE + 5, BASE + 6, BASE + 7], Vma(BASE - 8, BASE + 6), 1),
        "vma_start": ([BASE + 7, BASE + 6, BASE + 5], Vma(BASE + 6, BASE + 99), 2),
        # Out of order within the line, then a repeat of a written page.
        "unsorted": ([BASE + 6, BASE + 1, BASE + 7, BASE + 3, BASE + 1], VMA, 4),
    }

    @pytest.mark.parametrize("case", sorted(RUNS))
    @pytest.mark.parametrize("cls", [EcptPageTables, MeHptPageTables])
    def test_run_stops_where_the_line_or_vma_does(self, cls, case):
        vpns, vma, expected = self.RUNS[case]
        filled, mapped = hpt(cls), hpt(cls)
        for tables in (filled, mapped):
            tables.map(BASE + 4, 1, "4K")
        assert filled.fill(vpns, 0, 100, vma) == expected
        run_by_map(mapped, vpns[:expected], 100)
        assert hpt_counters(filled) == hpt_counters(mapped)

    @pytest.mark.parametrize("cls", [EcptPageTables, MeHptPageTables])
    def test_run_from_a_later_start(self, cls):
        filled, mapped = hpt(cls), hpt(cls)
        for tables in (filled, mapped):
            tables.map(BASE + 8, 1, "4K")
        vpns = list(range(BASE, BASE + 24))
        assert filled.fill(vpns, 9, 50, VMA) == 7
        run_by_map(mapped, vpns[9:16], 50)
        assert hpt_counters(filled) == hpt_counters(mapped)


def radix_state(table):
    return (
        list(table.iter_mappings()), table.node_count, dict(table.mapped_pages),
    )


class TestRadixFill:
    def test_fill_maps_like_map(self):
        filled, mapped = RadixPageTable(), RadixPageTable()
        for table in (filled, mapped):
            table.map(BASE, 1)
        assert filled.fill([BASE + 3], 0, 7, VMA) == 1
        mapped.map(BASE + 3, 7)
        assert radix_state(filled) == radix_state(mapped)
        assert filled.translate(BASE + 3) == (7, "4K")

    @pytest.mark.parametrize("case", ["absent", "mapped", "2M", "1G"])
    def test_fill_declines_with_nothing_moved(self, case):
        table = RadixPageTable()
        vpn = BASE + 8
        if case == "mapped":
            table.map(vpn, 5)
        elif case in ("2M", "1G"):
            table.map(RadixPageTable.align_vpn(vpn, case), 9, case)
        before = radix_state(table)
        assert table.fill([vpn, vpn + 1], 0, 42, VMA) == 0
        assert radix_state(table) == before

    # (piece, VMA, pages the run writes); page BASE + 100 of the node
    # BASE .. BASE + 511 is mapped beforehand.
    RUNS = {
        # Stops at the 513th page of the node: the next node's first.
        "node_edge": (list(range(BASE + 101, BASE + 600)), VMA, 411),
        "mapped": (list(range(BASE + 90, BASE + 120)), VMA, 10),
        # Two VMAs share the node: [.., BASE + 300) and [BASE + 300, ..).
        "vma_end": (
            list(range(BASE + 290, BASE + 310)), Vma(BASE - 8, BASE + 300), 10,
        ),
        "vma_start": (
            list(range(BASE + 310, BASE + 290, -1)), Vma(BASE + 300, BASE + 999), 11,
        ),
        "unsorted": ([BASE + 7, BASE + 3, BASE + 511, BASE, BASE + 3], VMA, 4),
    }

    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_run_stops_where_the_node_or_vma_does(self, case):
        vpns, vma, expected = self.RUNS[case]
        filled, mapped = RadixPageTable(), RadixPageTable()
        for table in (filled, mapped):
            table.map(BASE + 100, 1)
        assert filled.fill(vpns, 0, 100, vma) == expected
        run_by_map(mapped, vpns[:expected], 100)
        assert radix_state(filled) == radix_state(mapped)


class TestFaultIn:
    @pytest.mark.parametrize("cls", [EcptPageTables, MeHptPageTables, RadixPageTable])
    def test_matches_handle_fault_per_page(self, cls):
        thp = ThpPolicy(enabled=True, coverage=0.5, seed=4)
        runs = []
        for per_page in (False, True):
            tables = cls() if cls is RadixPageTable else hpt(cls)
            aspace = AddressSpace(tables, thp=thp, fmfi=0.3)
            # Two VMAs, one clipping a THP region to 4KB pages.
            aspace.add_vma(BASE, PAGES_PER_2M * 3 + 100, "a")
            aspace.add_vma(BASE + PAGES_PER_2M * 5 + 7, 900, "b")
            vpns = [
                v for vma in aspace.vmas
                for v in range(vma.start_vpn, vma.end_vpn, 3)
            ]
            if per_page:
                for vpn in vpns:
                    if tables.translate(vpn) is None:
                        aspace.handle_fault(vpn)
            else:
                aspace.fault_in(vpns)
            runs.append((aspace.totals, aspace._next_frame, [
                tables.translate(v) for v in vpns
            ]))
        assert runs[0] == runs[1]
        assert runs[0][0].pages_mapped_2m > 0

    @pytest.mark.parametrize("cls", [EcptPageTables, MeHptPageTables, RadixPageTable])
    def test_dense_runs_total_like_handle_fault(self, cls):
        # Every page of two VMAs that share an HPT line and a PTE node,
        # so runs reach 7 pages in a line and 511 in a node.  At FMFI
        # 0.3 a 4KB page's data cost is not a whole number of cycles:
        # only one float addition per page, in page order, gives the
        # totals handle_fault gives.
        totals = []
        for per_page in (False, True):
            tables = cls() if cls is RadixPageTable else hpt(cls)
            aspace = AddressSpace(tables, fmfi=0.3)
            aspace.add_vma(BASE + 5, 1_000, "a")
            aspace.add_vma(BASE + 1_005, 1_500, "b")
            vpns = list(range(BASE + 5, BASE + 2_505))
            if per_page:
                for vpn in vpns:
                    aspace.handle_fault(vpn)
            else:
                aspace.fault_in(vpns)
            assert [tables.translate(v)[0] for v in vpns] == [
                (1 << 20) + i for i in range(len(vpns))
            ]
            totals.append([(f, repr(v)) for f, v in vars(aspace.totals).items()])
        assert totals[0] == totals[1]
        assert aspace.totals.data_alloc_cycles % 1

    def test_outside_every_vma_raises(self):
        aspace = AddressSpace(RadixPageTable(), fmfi=0.3)
        aspace.add_vma(BASE, 16)
        aspace.fault_in(range(BASE, BASE + 16))
        with pytest.raises(SegmentationFault):
            aspace.fault_in([BASE + 3, BASE + 16])
        assert aspace.totals.faults == 16
