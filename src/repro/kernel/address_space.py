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
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError, MEHPTError
from repro.kernel.thp import PAGES_PER_2M, ThpPolicy
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
    provide ``map``/``translate``.  :meth:`handle_fault` bills the
    page-table allocation a fault causes in one of two ways.  When the
    tables have an ``allocation_cycles()`` method (the hashed tables'
    cumulative allocator total), the fault is charged that total's
    growth across ``map``.  When ``map`` returns a positive node count
    (radix), each new node is charged as one 4KB allocation from the
    cost model at the configured FMFI (capped at the model's
    ``fail_fmfi``).
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
        if self.vma_for(vpn) is None:
            raise SegmentationFault(f"access to unmapped vpn {vpn:#x}")
        page_size = self.thp.page_size_for(vpn)
        if page_size == "2M":
            # Clip huge mappings to the VMA: fall back to 4KB if the 2MB
            # region pokes outside it (as Linux does).
            base = self.thp.region_base(vpn)
            vma = self.vma_for(vpn)
            if not (vma.covers(base) and vma.covers(base + PAGES_PER_2M - 1)):
                page_size = "4K"
        map_vpn = self.thp.region_base(vpn) if page_size == "2M" else vpn
        frame = self._alloc_frames(page_size)

        data_cycles = 0.0
        if self.charge_data_alloc:
            nbytes = (PAGES_PER_2M if page_size == "2M" else 1) * 4096
            data_cycles = self.cost_model.cycles(
                nbytes, min(self.fmfi, self.cost_model.fail_fmfi)
            )

        pt_cycles_before = self._pt_alloc_cycles()
        result = self.page_tables.map(map_vpn, frame, page_size)
        pt_cycles = self._pt_alloc_cycles() - pt_cycles_before
        if isinstance(result, int) and result > 0:
            # Radix organization: ``result`` new 4KB nodes were allocated.
            pt_cycles += result * self.cost_model.cycles(
                4096, min(self.fmfi, self.cost_model.fail_fmfi)
            )
        kicks = getattr(result, "kicks", 0) or 0
        reinsert = kicks * self.reinsert_cycles

        total = self.fault_overhead_cycles + data_cycles + pt_cycles + reinsert
        fault = FaultResult(
            page_size=page_size,
            cycles=total,
            data_alloc_cycles=data_cycles,
            pt_alloc_cycles=pt_cycles,
            reinsert_cycles=reinsert,
            kicks=kicks,
        )
        self.totals.absorb(fault)
        if page_size == "2M":
            self.totals.pages_mapped_2m += 1
        else:
            self.totals.pages_mapped_4k += 1
        if self.obs is not None:
            self.obs.emit(
                EVENT_FAULT_SERVICED,
                vpn=vpn, page_size=page_size, cycles=total,
                pt_alloc_cycles=pt_cycles, reinsert_cycles=reinsert,
                data_alloc_cycles=data_cycles, kicks=kicks,
            )
        return fault

    def _pt_alloc_cycles(self) -> float:
        cycles_fn = getattr(self.page_tables, "allocation_cycles", None)
        return cycles_fn() if cycles_fn is not None else 0.0

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
        vpn = vma.start_vpn
        while vpn < vma.end_vpn:
            if self.page_tables.translate(vpn) is None:
                fault = self.handle_fault(vpn)
                vpn = (
                    self.thp.region_base(vpn) + PAGES_PER_2M
                    if fault.page_size == "2M"
                    else vpn + 1
                )
            else:
                vpn += 1
