"""Insert-separated walk batching (repro.mmu.walk_batch).

HPT walks are sealed only before a fault that inserts a cuckoo line and
radix walks only at drain, and walks whose outcome first touch decides
are not re-probed.  Untraced runs therefore batch long insert-free
segments (traced runs drain before every fault and never do), so these
tests compare the engines untraced on stressor traces that move the
cuckoo geometry — in-flight resizes and ME-HPT chunk transitions, kick
chains — and check that the batcher's predictions are verified.
"""

import itertools

import pytest

from repro.ecpt import cwt
from repro.fuzz.scenario import Scenario, StressorSpec
from repro.hashing import storage
from repro.mmu.walk_batch import make_walk_batch
from repro.obs import ObservabilityConfig
from repro.radix.table import RadixPageTable
from repro.sim.config import SimulationConfig
from repro.sim.simulator import TranslationSimulator
from repro.workloads import get_workload

pytestmark = pytest.mark.fastpath

ORGS = ("mehpt", "ecpt", "radix")

SCENARIOS = {
    # 2048 blocks at FMFI 0.5: 27 way resizes, some still in flight at
    # the end, and 3 ME-HPT chunk transitions within 20K records.
    "fragmentation_storm": Scenario(
        name="frag-storm", seed=5, trace_length=20_000,
        stressors=(
            StressorSpec.make("fragmentation_storm", blocks=2048, fmfi=0.5),
        ),
        overrides=(("fmfi", 0.5),),
    ),
    # Hash-colliding blocks: long kick chains and emergency resizes.
    "collision_cluster": Scenario(
        name="collision-cluster", seed=5, trace_length=12_000,
        stressors=(
            StressorSpec.make(
                "collision_cluster", mask_bits=8, buckets=8, max_blocks=1024,
            ),
        ),
    ),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("walk-batch")
    paths = {}
    for name, scenario in SCENARIOS.items():
        paths[name] = str(root / f"{name}.vpt")
        scenario.generate_trace(paths[name])
    return paths


def observed(system):
    """Every walker-side state an engine leaves behind."""
    tlb = system.tlb
    walker = system.walker
    caches = walker.caches
    state = {
        "tlb": {
            (level, size): [list(s) for s in t._sets]
            for level, group in (("l1", tlb.l1), ("l2", tlb.l2))
            for size, t in group.items()
        },
        "caches": [
            (level._sets, level.hits, level.misses) for level in caches.levels
        ],
        "dram": caches.dram_accesses,
    }
    if hasattr(walker, "pmd_cwc"):
        state["cwc"] = [
            (cwc.hits, cwc.misses, list(cwc._tags))
            for cwc in (walker.pmd_cwc, walker.pud_cwc)
        ]
    else:
        state["pwc"] = {
            depth: (cache.hits, cache.misses, list(cache._tags))
            for depth, cache in walker.pwc._caches.items()
        }
    return state


def run(monkeypatch, scenario, path, org, engine, chunk=None):
    # Synthetic line addresses come from process-wide counters; restart
    # them so every build places its tables at the same addresses and
    # cache contents compare across runs.
    monkeypatch.setattr(storage, "_STORAGE_IDS", itertools.count(1))
    monkeypatch.setattr(cwt, "_cwt_bases", itertools.count(1))
    monkeypatch.setattr(RadixPageTable, "_node_ids", itertools.count(1))
    config = scenario.config_for(org, path)
    config.engine = engine
    config.obs = ObservabilityConfig(metrics=True)
    sim = TranslationSimulator(
        config.load_trace_workload(), config,
        trace_length=scenario.trace_length, engine_chunk=chunk,
    )
    return sim.run(), sim.system


class TestUntracedStressorEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("org", ORGS)
    def test_engines_agree(self, monkeypatch, traces, name, org):
        scenario = SCENARIOS[name]
        scalar, s_sys = run(monkeypatch, scenario, traces[name], org, "scalar")
        assert not scalar.failed
        metrics = scalar.metrics
        if org == "radix":
            assert s_sys.page_tables.node_count > 1
        else:
            tables = s_sys.page_tables
            assert metrics["cuckoo.lookups[size=4K]"]["value"] > 0
            assert metrics["walker.cwt_memory_reads"]["value"] > 0
            if name == "fragmentation_storm":
                assert any(
                    way.resizing
                    for table in tables.tables.values()
                    for way in table.table.ways
                )
            else:
                assert sum(
                    depth * count
                    for depth, count in tables.kick_histogram().items()
                ) > 0
        if org == "mehpt":
            assert metrics["l2p.hidden_accesses"]["value"] > 0
            if name == "fragmentation_storm":
                assert s_sys.page_tables.total_chunk_transitions() == 3
        for chunk in (257, None):
            vector, v_sys = run(
                monkeypatch, scenario, traces[name], org, "vectorized", chunk,
            )
            assert vector == scalar
            assert vector.metrics == metrics
            assert observed(v_sys) == observed(s_sys)


def _built(org):
    config = SimulationConfig(organization=org, scale=64, seed=3)
    system = config.build(get_workload("GUPS", scale=64, seed=3))
    vma = system.address_space.vmas[0]
    vpn = -(-vma.start_vpn // 8) * 8  # first block-aligned page in the VMA
    return system, vpn


def _fault(system, batcher, local, vpn):
    assert batcher.plan(local, vpn, 0)  # first touch of a 4K page
    batcher.before_fault()
    system.address_space.handle_fault(vpn)
    batcher.after_fault()


class TestPredictionChecks:
    """The batcher raises when a fault breaks its first-touch model
    instead of going on with walks sealed against a stale geometry."""

    def test_fault_into_existing_block_passes(self):
        system, vpn = _built("mehpt")
        batcher = make_walk_batch(system, list(system.tlb.l1))
        _fault(system, batcher, 0, vpn)
        _fault(system, batcher, 1, vpn + 1)  # same block: no insert
        stats = system.page_tables.tables["4K"].table.stats
        assert stats.inserts == 1

    def test_reinserted_block_raises(self):
        system, vpn = _built("mehpt")
        batcher = make_walk_batch(system, list(system.tlb.l1))
        _fault(system, batcher, 0, vpn)
        assert system.page_tables.unmap(vpn)
        assert system.page_tables.tables["4K"].table.stats.deletes == 1
        # Page 1 of the block was never touched (a predicted fault) but
        # its block was, so no insert is predicted; the handler
        # re-inserts the deleted block.
        assert batcher.plan(1, vpn + 1, 0)
        batcher.before_fault()
        system.address_space.handle_fault(vpn + 1)
        with pytest.raises(AssertionError, match="insert prediction"):
            batcher.after_fault()

    def test_radix_unmapped_page_raises(self):
        system, vpn = _built("radix")
        batcher = make_walk_batch(system, list(system.tlb.l1))
        _fault(system, batcher, 0, vpn)
        assert system.page_tables.unmap(vpn)
        assert batcher.plan(1, vpn + 1, 0)
        system.address_space.handle_fault(vpn + 1)
        with pytest.raises(AssertionError, match="mapped pages"):
            batcher.after_fault()
