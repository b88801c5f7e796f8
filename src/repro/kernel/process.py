"""Process model: a schedulable entity owning page tables and a trace.

Per-process HPTs are the paper's setting (a global HPT cannot support
sharing/page sizes or cheap teardown — Section II-B), so a process here
bundles its own page tables, address space, and workload stream, plus
the process-lifetime operations a multi-tenant scheduler needs
(:class:`~repro.sim.datacenter.DatacenterSimulator` runs each tenant as
one).  :class:`~repro.sim.quantum.QuantumEngine` runs the trace in
quanta and advances the cursor fields.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.address_space import AddressSpace


class Process:
    """One runnable process with its own translation machinery.

    ``trace`` is the process's (possibly very long) virtual-page access
    stream; the scheduler consumes it in quanta.  ``org`` is the page
    tables' organization (:mod:`repro.sim.organizations`), which answers
    for them: ``l2p`` is its L2P table for ME-HPT and None otherwise —
    the context-switch model uses it to price the L2P save/restore.
    """

    def __init__(
        self,
        name: str,
        address_space: AddressSpace,
        tlb,
        trace: np.ndarray,
        org,
    ) -> None:
        self.name = name
        self.address_space = address_space
        self.tlb = tlb
        self.trace = trace
        self.org = org
        self.l2p = org.l2p(address_space.page_tables)
        self.cursor = 0
        self.cycles = 0.0
        self.accesses_done = 0
        self.finished = False

    def remaining(self) -> int:
        return len(self.trace) - self.cursor

    def teardown_entries(self) -> int:
        """Entries to delete at process death.

        For per-process HPTs this is a table drop (free the chunks); the
        global-HPT alternative would need a linear scan of everything —
        the Section II-B argument for per-process tables.
        """
        return self.org.teardown_entries(self.address_space.page_tables)
