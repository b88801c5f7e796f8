"""Transparent Huge Page (THP) policy.

The paper evaluates every configuration with and without THP for
application data.  Real THP behaviour is workload dependent: GUPS and
SysBench get almost full 2MB coverage, while the graph workloads' sparse
irregular heaps stay mostly on 4KB pages ("even with THP, some
applications do not use huge pages", Section VII-E2).

We model this with a *coverage* knob: each 2MB-aligned virtual region is
deterministically huge-page-backed with probability ``coverage`` (hashed
on the region number, so the decision is stable across configurations
and runs).  A fault inside a backed region maps the whole 2MB page.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.hashing.hashes import mix64

#: 4KB pages per 2MB region.
PAGES_PER_2M = 512

#: ``log2(PAGES_PER_2M)`` — ``region_base(vpn) == (vpn >> REGION_SHIFT)
#: << REGION_SHIFT`` for non-negative VPNs.  The batched engine's static
#: page-size decision uses it to compute regions exactly as
#: :meth:`ThpPolicy.region_base` does.
REGION_SHIFT = PAGES_PER_2M.bit_length() - 1


class ThpPolicy:
    """Decides the backing page size for a faulting virtual page."""

    def __init__(self, enabled: bool = False, coverage: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ConfigurationError(f"THP coverage {coverage} out of [0,1]")
        self.enabled = enabled
        self.coverage = coverage
        self.seed = seed

    def page_size_for(self, vpn: int) -> str:
        """``"2M"`` when the 2MB region containing ``vpn`` is THP-backed."""
        if not self.enabled or self.coverage <= 0.0:
            return "4K"
        region = vpn // PAGES_PER_2M
        # Deterministic per-region coin weighted by coverage.
        draw = (mix64(region, self.seed) >> 11) / float(1 << 53)
        return "2M" if draw < self.coverage else "4K"

    def region_base(self, vpn: int) -> int:
        """The first 4KB VPN of ``vpn``'s 2MB region."""
        return (vpn >> REGION_SHIFT) << REGION_SHIFT
