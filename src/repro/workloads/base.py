"""Workload model: footprint construction and trace generation.

A workload is defined by a :class:`WorkloadSpec` (calibrated constants)
and materialised by :class:`Workload` at a given scale:

* ``page_set()`` — the 4KB virtual pages the application touches, built
  block-first so HPT slot (64B line = 8 pages) occupancy is controlled
  explicitly via ``density``;
* ``trace(length)`` — a virtual-page access trace over that footprint
  following the spec's :class:`AccessPattern` mix.

Traces are numpy arrays of VPNs for speed; the simulator iterates them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import GB, is_power_of_two

#: 4KB pages per HPT block (one clustered cache line).
PAGES_PER_BLOCK = 8

#: Base VPN where the main data VMA starts (above code/stack).
DATA_VMA_BASE = 0x7F00 << 16


@dataclass(frozen=True)
class AccessPattern:
    """Mixture weights for trace generation (must sum to 1).

    ``sequential`` — streaming runs of consecutive pages;
    ``uniform`` — uniform random pages over the footprint;
    ``zipf`` — skewed popularity (hot structures);
    ``run_length`` — pages per sequential burst;
    ``page_repeats`` — accesses issued per visited page (cache-line
    granularity within a 4KB page: a streaming workload touches a page
    ~64 times, a random-update one ~1-2).  Repeated accesses hit the L1
    TLB and only scale the access count, so the trace stays one event per
    page visit.
    """

    sequential: float = 0.0
    uniform: float = 1.0
    zipf: float = 0.0
    zipf_alpha: float = 0.8
    run_length: int = 32
    page_repeats: int = 1

    def __post_init__(self) -> None:
        total = self.sequential + self.uniform + self.zipf
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"pattern weights sum to {total}, not 1")


@dataclass(frozen=True)
class WorkloadSpec:
    """Calibrated constants for one application (see registry docstring).

    ``touched_blocks`` is the *full-scale* number of distinct HPT blocks
    (64B lines) the application populates; it is chosen so the ECPT way
    size matches Table I.  ``density`` is the fraction of each block's 8
    pages actually touched.  ``thp_coverage`` is the fraction of 2MB
    regions THP backs with huge pages when THP is on.
    """

    name: str
    kind: str
    data_gb: float
    touched_blocks: int
    density: float
    thp_coverage: float
    pattern: AccessPattern
    #: Memory operations in the paper's measured window (the first 550M
    #: instructions per thread — early execution, where the page tables
    #: are still being built, so per-window OS costs are front-loaded).
    fullscale_accesses: float = 80e6
    description: str = ""


class Workload:
    """A workload instance: footprint and traces at a given scale.

    ``scale`` divides the footprint (power of two); reported sizes in the
    experiments are multiplied back.  The random stream is derived from
    ``seed`` only, so footprints are stable across configurations — the
    same pages fault in under radix, ECPT and ME-HPT.
    """

    def __init__(self, spec: WorkloadSpec, scale: int = 1, seed: int = 12345) -> None:
        if scale < 1 or not is_power_of_two(scale):
            raise ConfigurationError(f"scale {scale} must be a power of two >= 1")
        self.spec = spec
        self.scale = scale
        self.seed = seed
        # zlib.crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED) and would make footprints nondeterministic.
        name_digest = zlib.crc32(spec.name.encode("utf-8")) & 0x7FFFFFFF
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed, name_digest])
        )
        self._page_set: Optional[np.ndarray] = None

    # -- footprint -------------------------------------------------------

    @property
    def blocks(self) -> int:
        return max(16, self.spec.touched_blocks // self.scale)

    @property
    def span_pages(self) -> int:
        """Virtual span of the data VMA in 4KB pages.

        Dense workloads have span == touched region; sparse kinds spread
        their blocks over a larger VMA (matching their bigger data_gb).
        """
        touched_span = self.blocks * PAGES_PER_BLOCK
        declared = int(self.spec.data_gb * GB / 4096) // self.scale
        return max(touched_span, min(declared, touched_span * 4))

    def vma_layout(self) -> List[Tuple[int, int, str]]:
        """(start_vpn, pages, name) for the address space."""
        return [(DATA_VMA_BASE, self.span_pages, f"{self.spec.name}-data")]

    def block_set(self) -> np.ndarray:
        """The distinct block numbers (VPN >> 3) the workload populates."""
        span_blocks = self.span_pages // PAGES_PER_BLOCK
        base_block = DATA_VMA_BASE // PAGES_PER_BLOCK
        if self.blocks >= span_blocks:
            chosen = np.arange(span_blocks, dtype=np.int64)
        elif self.blocks * 2 >= span_blocks:
            # Nearly dense: drop a random subset.
            chosen = self._rng.choice(span_blocks, size=self.blocks, replace=False)
        else:
            # Sparse: uniform blocks over the span.
            chosen = self._rng.choice(span_blocks, size=self.blocks, replace=False)
        chosen.sort()
        return chosen + base_block

    def page_set(self) -> np.ndarray:
        """All 4KB VPNs touched, density applied per block, sorted."""
        if self._page_set is not None:
            return self._page_set
        blocks = self.block_set()
        density = self.spec.density
        per_block = max(1, round(PAGES_PER_BLOCK * density))
        if per_block >= PAGES_PER_BLOCK:
            pages = (blocks[:, None] * PAGES_PER_BLOCK + np.arange(PAGES_PER_BLOCK)).ravel()
        else:
            offsets = np.argsort(
                self._rng.random((blocks.size, PAGES_PER_BLOCK)), axis=1
            )[:, :per_block]
            pages = (blocks[:, None] * PAGES_PER_BLOCK + offsets).ravel()
        pages.sort()
        self._page_set = pages
        return pages

    # -- traces ---------------------------------------------------------

    def _trace_runs(self, length: int, seed_offset: int):
        """Yield the trace's constituent bursts, in order.

        One shared generator backs both :meth:`trace` and
        :meth:`trace_chunks`: the random stream is consumed identically,
        so the concatenation of the yielded runs is byte-identical to a
        single materialized trace of the same ``length``.
        """
        pages = self.page_set()
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, seed_offset, len(pages)])
        )
        pattern = self.spec.pattern
        pos = 0
        n = len(pages)
        while pos < length:
            draw = rng.random()
            if draw < pattern.sequential:
                run = min(pattern.run_length, length - pos)
                start = int(rng.integers(0, n))
                idx = (start + np.arange(run)) % n
            elif draw < pattern.sequential + pattern.uniform:
                run = min(64, length - pos)
                idx = rng.integers(0, n, size=run)
            else:
                run = min(64, length - pos)
                # Zipf-ish skew via a power-law index transform.
                u = rng.random(run)
                idx = ((u ** (1.0 / (1.0 - pattern.zipf_alpha * 0.5))) * n).astype(
                    np.int64
                )
                np.clip(idx, 0, n - 1, out=idx)
                # Hash the rank so hot pages are scattered over the VA space.
                idx = (idx * 2654435761) % n
            yield pages[idx]
            pos += run

    def trace(self, length: int, seed_offset: int = 0) -> np.ndarray:
        """Generate ``length`` VPN accesses following the spec's pattern."""
        out = np.empty(length, dtype=np.int64)
        pos = 0
        for burst in self._trace_runs(length, seed_offset):
            out[pos : pos + burst.size] = burst
            pos += burst.size
        return out

    def trace_chunks(self, length: int, chunk_values: int = 65536, seed_offset: int = 0):
        """Yield the same trace as :meth:`trace` in ``chunk_values`` pieces.

        Peak memory is O(``chunk_values``) instead of O(``length``); the
        concatenation of the yielded int64 arrays is byte-identical to
        ``trace(length, seed_offset)``.  Every chunk except possibly the
        last holds exactly ``chunk_values`` VPNs.
        """
        if chunk_values < 1:
            raise ConfigurationError(
                f"chunk_values {chunk_values} must be >= 1",
                field="chunk_values", value=chunk_values,
            )
        pending: List[np.ndarray] = []
        have = 0
        for burst in self._trace_runs(length, seed_offset):
            pending.append(burst)
            have += burst.size
            while have >= chunk_values:
                buffered = np.concatenate(pending)
                yield buffered[:chunk_values]
                rest = buffered[chunk_values:]
                pending = [rest] if rest.size else []
                have = int(rest.size)
        if have:
            yield np.concatenate(pending)

    # -- reporting helpers -------------------------------------------------

    def unscale_bytes(self, nbytes: int) -> int:
        """Convert a scaled measurement back to full-scale bytes."""
        return nbytes * self.scale

    def describe(self) -> str:
        return (
            f"{self.spec.name}: {self.spec.kind}, {self.spec.data_gb}GB data, "
            f"{self.blocks} blocks at 1/{self.scale} scale, "
            f"THP coverage {self.spec.thp_coverage:.0%}"
        )
