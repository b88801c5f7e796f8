"""Address spaces, VMAs and the demand-paging fault handler.

The fault handler is where the page-table organizations differ in *cost*:

* allocating the data frame (identical across organizations — charged
  from the measured cost curve at the configured fragmentation);
* inserting the translation, which for HPTs may trigger cuckoo
  re-insertions (OS work) and — crucially — HPT resizes whose *page-table
  allocations* are cheap small chunks for ME-HPT but huge contiguous
  regions for ECPT.  Those allocation cycles are charged to the faulting
  process, which is exactly the effect behind Figure 9's ME-HPT > ECPT
  performance gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, MEHPTError
from repro.kernel.thp import PAGES_PER_2M, REGION_SHIFT, ThpPolicy
from repro.mem.alloc_cost import AllocationCostModel
from repro.obs.trace import EVENT_FAULT_SERVICED

#: OS entry/exit + fault bookkeeping, beyond the allocation itself.
FAULT_OVERHEAD_CYCLES = 1200
#: OS cycles per cuckoo re-insertion performed inside an insert.
REINSERT_CYCLES = 120


class SegmentationFault(MEHPTError):
    """Access outside every VMA."""


@dataclass
class Vma:
    """One virtual memory area: [start_vpn, end_vpn) 4KB-granular."""

    start_vpn: int
    end_vpn: int
    name: str = "anon"

    def __post_init__(self) -> None:
        if self.end_vpn <= self.start_vpn:
            raise ConfigurationError(f"empty VMA {self.name}")

    def covers(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def pages(self) -> int:
        return self.end_vpn - self.start_vpn


@dataclass
class FaultResult:
    """Cost breakdown of one serviced page fault."""

    page_size: str
    cycles: float
    data_alloc_cycles: float
    pt_alloc_cycles: float
    reinsert_cycles: float
    kicks: int


@dataclass
class FaultTotals:
    """Aggregated fault costs for one address space."""

    faults: int = 0
    cycles: float = 0.0
    data_alloc_cycles: float = 0.0
    pt_alloc_cycles: float = 0.0
    reinsert_cycles: float = 0.0
    kicks: int = 0
    pages_mapped_4k: int = 0
    pages_mapped_2m: int = 0

    def absorb(self, result: FaultResult) -> None:
        self.faults += 1
        self.cycles += result.cycles
        self.data_alloc_cycles += result.data_alloc_cycles
        self.pt_alloc_cycles += result.pt_alloc_cycles
        self.reinsert_cycles += result.reinsert_cycles
        self.kicks += result.kicks


class AddressSpace:
    """One process's virtual address space over any page-table organization.

    ``page_tables`` is duck-typed: radix
    (:class:`~repro.radix.table.RadixPageTable`) and hashed
    (:class:`~repro.ecpt.tables.HashedPageTableSet`) organizations both
    provide ``map``/``translate``/``fill``, and every ``map`` returns a
    :class:`~repro.common.mapping.MapResult`.  :meth:`handle_fault`
    bills a fault's page-table allocation from it: the allocator cycles
    the map spent (hashed tables), plus each radix node it created
    charged as one 4KB allocation from the kernel's cost model at the
    configured FMFI (capped at the model's ``fail_fmfi``), because
    radix nodes bypass the allocator.  Its cuckoo kicks are billed as
    re-insertion work.

    :meth:`fault_in` is the MAP_POPULATE loop behind
    :func:`~repro.sim.simulator.populate_tables` and :meth:`populate`.
    Beside :meth:`handle_fault` it has a fill path: a run of 4KB pages
    that share an HPT line or radix PTE node which already exists is
    written by one call to the tables' ``fill`` and billed page by page
    as :meth:`handle_fault` would bill it, without the per-page fault
    path.
    """

    def __init__(
        self,
        page_tables,
        thp: Optional[ThpPolicy] = None,
        cost_model: Optional[AllocationCostModel] = None,
        fmfi: float = 0.7,
        fault_overhead_cycles: float = FAULT_OVERHEAD_CYCLES,
        reinsert_cycles: float = REINSERT_CYCLES,
        charge_data_alloc: bool = True,
        obs=None,
    ) -> None:
        self.page_tables = page_tables
        self.thp = thp if thp is not None else ThpPolicy(enabled=False)
        self.cost_model = cost_model if cost_model is not None else AllocationCostModel()
        self.fmfi = fmfi
        self.fault_overhead_cycles = fault_overhead_cycles
        self.reinsert_cycles = reinsert_cycles
        self.charge_data_alloc = charge_data_alloc
        #: Optional repro.obs.Observability; every serviced fault emits a
        #: ``fault_serviced`` trace event carrying its cycle bill.
        self.obs = obs
        self.vmas: List[Vma] = []
        self.totals = FaultTotals()
        self._next_frame = 1 << 20  # synthetic physical frame numbers

    # -- VMA management ------------------------------------------------------

    def add_vma(self, start_vpn: int, pages: int, name: str = "anon") -> Vma:
        """Register a VMA; overlapping VMAs are rejected."""
        vma = Vma(start_vpn, start_vpn + pages, name)
        for existing in self.vmas:
            if vma.start_vpn < existing.end_vpn and existing.start_vpn < vma.end_vpn:
                raise ConfigurationError(
                    f"VMA {name} overlaps {existing.name}"
                )
        self.vmas.append(vma)
        return vma

    def vma_for(self, vpn: int) -> Optional[Vma]:
        for vma in self.vmas:
            if vma.covers(vpn):
                return vma
        return None

    def total_vma_pages(self) -> int:
        return sum(vma.pages for vma in self.vmas)

    # -- fault handling -----------------------------------------------------

    def _alloc_frames(self, page_size: str) -> int:
        frames = PAGES_PER_2M if page_size == "2M" else 1
        frame = self._next_frame
        # Keep huge frames aligned to their size.
        if frames > 1 and frame % frames:
            frame += frames - frame % frames
        self._next_frame = frame + frames
        return frame

    def handle_fault(self, vpn: int) -> FaultResult:
        """Service a page fault at ``vpn`` (demand paging).

        Raises :class:`SegmentationFault` outside every VMA.  Returns the
        cycle cost breakdown; the caller adds it to the faulting access.
        """
        vma = self.vma_for(vpn)
        if vma is None:
            raise SegmentationFault(f"access to unmapped vpn {vpn:#x}")
        page_size = self._page_size(vpn, vma)
        map_vpn = self.thp.region_base(vpn) if page_size == "2M" else vpn
        frame = self._alloc_frames(page_size)
        data_cycles = self._data_alloc_cycles(page_size)

        result = self.page_tables.map(map_vpn, frame, page_size)
        pt_cycles = result.alloc_cycles
        if result.nodes:
            # Each new radix node is one 4KB allocation.
            pt_cycles += result.nodes * self.cost_model.cycles(
                4096, min(self.fmfi, self.cost_model.fail_fmfi)
            )
        fault = self._bill(page_size, data_cycles, pt_cycles, result.kicks)
        self._account(vpn, fault)
        return fault

    def fault_in(self, vpns: Sequence[int]) -> None:
        """Fault in every unmapped page of ``vpns``, in order (MAP_POPULATE).

        At a page whose fault would map 4KB (it lies in a VMA, and THP's
        choice clipped to that VMA is 4KB) the tables' ``fill`` first
        writes the run of pages from it that share an HPT line or radix
        PTE node an earlier page created, lie in the same VMA and are
        unmapped.  The run takes the next frames and is charged,
        totalled and traced exactly as :meth:`handle_fault` would charge
        its pages one by one: overhead plus data allocation, no table
        allocation, no kicks, the float totals added once per page in
        page order.  Every other page -- the first of each line or node,
        2MB pages, anything ``fill`` declines -- takes ``translate`` and,
        if unmapped, :meth:`handle_fault`, so inserts, resizes,
        allocations and aborts keep their one code path.
        """
        fill = self.page_tables.fill
        translate = self.page_tables.translate
        totals = self.totals
        # What handle_fault bills a 4KB map that allocates no table
        # memory: the allocator totals do not move, so 0.0 table cycles,
        # and adding 0.0 leaves the (never -0.0) totals as they are.
        filled = self._bill("4K", self._data_alloc_cycles("4K"), 0.0, 0)
        cycles = filled.cycles
        data_cycles = filled.data_alloc_cycles
        vma = None
        region = -1
        small = False
        i = 0
        while i < len(vpns):
            vpn = vpns[i]
            # A fault's page size is fixed per 2MB region and VMA.
            if vpn >> REGION_SHIFT != region or vma is None or not vma.covers(vpn):
                region = vpn >> REGION_SHIFT
                vma = self.vma_for(vpn)
                small = vma is not None and self._page_size(vpn, vma) == "4K"
            run = fill(vpns, i, self._next_frame, vma) if small else 0
            if run:
                # The frames _alloc_frames("4K") hands out, one per page.
                self._next_frame += run
                totals.faults += run
                totals.pages_mapped_4k += run
                # One float addition per page, as absorb makes them.
                total, data_total = totals.cycles, totals.data_alloc_cycles
                for _ in range(run):
                    total += cycles
                    data_total += data_cycles
                totals.cycles, totals.data_alloc_cycles = total, data_total
                if self.obs is not None:
                    for page in vpns[i:i + run]:
                        self._trace(page, filled)
            elif translate(vpn) is None:
                self.handle_fault(vpn)
            i += run or 1

    def _page_size(self, vpn: int, vma: Vma) -> str:
        """The page size a fault at ``vpn`` inside ``vma`` maps."""
        if self.thp.page_size_for(vpn) == "2M":
            # Clip huge mappings to the VMA: fall back to 4KB if the 2MB
            # region pokes outside it (as Linux does).
            base = self.thp.region_base(vpn)
            if vma.covers(base) and vma.covers(base + PAGES_PER_2M - 1):
                return "2M"
        return "4K"

    def _data_alloc_cycles(self, page_size: str) -> float:
        if not self.charge_data_alloc:
            return 0.0
        nbytes = (PAGES_PER_2M if page_size == "2M" else 1) * 4096
        return self.cost_model.cycles(
            nbytes, min(self.fmfi, self.cost_model.fail_fmfi)
        )

    def _bill(
        self, page_size: str, data_cycles: float, pt_cycles: float, kicks: int
    ) -> FaultResult:
        """The cost breakdown of one serviced fault."""
        reinsert = kicks * self.reinsert_cycles
        return FaultResult(
            page_size=page_size,
            cycles=self.fault_overhead_cycles + data_cycles + pt_cycles + reinsert,
            data_alloc_cycles=data_cycles,
            pt_alloc_cycles=pt_cycles,
            reinsert_cycles=reinsert,
            kicks=kicks,
        )

    def _account(self, vpn: int, fault: FaultResult) -> None:
        """Total and trace one serviced fault."""
        self.totals.absorb(fault)
        if fault.page_size == "2M":
            self.totals.pages_mapped_2m += 1
        else:
            self.totals.pages_mapped_4k += 1
        if self.obs is not None:
            self._trace(vpn, fault)

    def _trace(self, vpn: int, fault: FaultResult) -> None:
        """Emit one serviced fault's ``fault_serviced`` event."""
        self.obs.emit(
            EVENT_FAULT_SERVICED,
            vpn=vpn, page_size=fault.page_size, cycles=fault.cycles,
            pt_alloc_cycles=fault.pt_alloc_cycles,
            reinsert_cycles=fault.reinsert_cycles,
            data_alloc_cycles=fault.data_alloc_cycles, kicks=fault.kicks,
        )

    # -- convenience -------------------------------------------------------

    def touch(self, vpn: int) -> Tuple[int, str]:
        """Fault ``vpn`` in if needed; return its translation."""
        translated = self.page_tables.translate(vpn)
        if translated is None:
            self.handle_fault(vpn)
            translated = self.page_tables.translate(vpn)
        return translated

    def populate(self, vma: Vma) -> None:
        """Pre-fault every page of ``vma`` (like MAP_POPULATE)."""
        self.fault_in(range(vma.start_vpn, vma.end_vpn))
