"""The allocator's stats are the one count of hashed page-table memory.

``memory_result`` reports ``peak_pt_bytes`` and ``total_pt_bytes`` from
the allocator's :class:`~repro.mem.allocator.AllocationStats`.  These
tests check that count against the table structure: each cell samples
``total_bytes() * scale``, the sum over the way storages, after every
``map`` call the populate makes.  The reported peak must equal the
largest sample, and the allocator's current bytes the structure's.
"""

import pytest

from repro.experiments.runner import ExperimentSettings
from repro.faults.plan import SITES, FaultPlan, FaultSpec
from repro.sim.simulator import memory_result
from repro.workloads import get_workload

SETTINGS = ExperimentSettings(seed=0, scale=512).fast()

#: Table variant -> (organization, config overrides).
VARIANTS = {
    "ecpt": ("ecpt", {}),
    "mehpt": ("mehpt", {}),
    "mehpt-no-inplace": ("mehpt", {"enable_inplace": False}),
    "mehpt-no-perway": ("mehpt", {"enable_perway": False}),
}


def populate_sampled(org, thp, app, **overrides):
    """Populate one memory cell; returns (result, tables, samples)."""
    config = SETTINGS.config(org, thp, **overrides)
    system = config.build(get_workload(app, scale=SETTINGS.scale, seed=SETTINGS.seed))
    tables = system.page_tables
    samples = [tables.total_bytes() * config.scale]
    inner = tables.map

    def map_and_sample(*args, **kwargs):
        result = inner(*args, **kwargs)
        samples.append(tables.total_bytes() * config.scale)
        return result

    tables.map = map_and_sample
    return memory_result(system), tables, samples


def assert_ledger_matches(result, tables, samples):
    current = tables.total_bytes() * SETTINGS.scale
    assert result.peak_pt_bytes == max(samples)
    assert tables.allocation_stats.current_bytes == current
    assert result.total_pt_bytes == current


class TestLedgerMatchesStructure:
    @pytest.mark.parametrize("app", ["SysBench", "GUPS"])
    @pytest.mark.parametrize("thp", [False, True])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_populate(self, variant, thp, app):
        org, overrides = VARIANTS[variant]
        result, tables, samples = populate_sampled(org, thp, app, **overrides)
        assert not result.failed
        assert_ledger_matches(result, tables, samples)

    @pytest.mark.faults
    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("org", ["ecpt", "mehpt"])
    def test_fault_plan_at_each_site(self, org, site):
        # The same plans as the populate equivalence suite: the first
        # firing falls inside the populate.
        every = {"ecpt": 10, "mehpt": 37}[org]
        plan = FaultPlan([FaultSpec(site, every=every, max_failures=3)], seed=2)
        result, tables, samples = populate_sampled(
            org, False, "GUPS", fault_plan=plan, fmfi=0.5,
        )
        assert result.degradation_counts or (org, site) == ("ecpt", "l2p_reserve")
        assert_ledger_matches(result, tables, samples)

    @pytest.mark.faults
    def test_ecpt_abort(self):
        # Above FMFI 0.7 a 64MB contiguous way cannot be allocated.
        result, tables, samples = populate_sampled("ecpt", False, "GUPS", fmfi=0.75)
        assert result.failed
        assert_ledger_matches(result, tables, samples)
