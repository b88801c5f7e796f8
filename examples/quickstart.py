#!/usr/bin/env python3
"""Quickstart: build ME-HPT page tables, map memory, translate, resize.

This walks through the library's core objects in ~60 lines:

1. create per-process ME-HPT page tables (the paper's design),
2. map 4KB and 2MB pages and translate addresses,
3. watch the tables grow — in place, one way at a time, in small chunks —
   and compare the contiguous-memory bill against the ECPT baseline.

Run:  python examples/quickstart.py
"""

from repro.common.units import format_bytes
from repro.core import MeHptPageTables
from repro.ecpt import EcptPageTables
from repro.mem import CostModelAllocator


def main() -> None:
    # Allocators model a busy machine fragmented to 0.7 FMFI (the paper's
    # setting); every page-table allocation is charged real cycle costs.
    mehpt = MeHptPageTables(CostModelAllocator(fmfi=0.7))
    ecpt = EcptPageTables(CostModelAllocator(fmfi=0.7))

    # -- basic mapping ------------------------------------------------------
    mehpt.map(vpn=0x1000, ppn=0xCAFE, page_size="4K")
    mehpt.map(vpn=512 * 10, ppn=0xBEEF, page_size="2M")  # one huge page

    print("translate(0x1000)      ->", mehpt.translate(0x1000))
    print("translate(512*10 + 33) ->", mehpt.translate(512 * 10 + 33))
    print("translate(unmapped)    ->", mehpt.translate(0xDEAD))
    print()

    # -- growth under load ----------------------------------------------------
    # Map 200K scattered pages (one per 8-page cluster, the worst case for
    # table growth) into both organizations.
    print("mapping 200,000 scattered pages into ME-HPT and ECPT...")
    for i in range(200_000):
        mehpt.map(0x100000 + i * 8, i)
        ecpt.map(0x100000 + i * 8, i)

    print()
    print(f"{'':24}{'ME-HPT':>12}{'ECPT':>12}")
    print(f"{'page-table memory':24}"
          f"{format_bytes(mehpt.allocation_stats.current_bytes):>12}"
          f"{format_bytes(ecpt.allocation_stats.current_bytes):>12}")
    print(f"{'peak memory':24}"
          f"{format_bytes(mehpt.allocation_stats.peak_bytes):>12}"
          f"{format_bytes(ecpt.allocation_stats.peak_bytes):>12}")
    print(f"{'max contiguous alloc':24}"
          f"{format_bytes(mehpt.max_contiguous_bytes()):>12}"
          f"{format_bytes(ecpt.max_contiguous_bytes()):>12}")
    print(f"{'allocation cycles':24}"
          f"{mehpt.allocation_cycles():>12,.0f}"
          f"{ecpt.allocation_cycles():>12,.0f}")
    print()

    # -- the four techniques, visible --------------------------------------
    table = mehpt.tables["4K"].table
    print("4KB-page HPT state:")
    print("  way sizes (slots):   ", [way.size for way in table.ways])
    print("  upsizes per way:     ", [way.upsizes for way in table.ways],
          " (per-way resizing)")
    print("  in-place upsizes:    ", [way.inplace_upsizes for way in table.ways])
    print("  entries moved/upsize:",
          [f"{way.moved_fraction():.2f}" for way in table.ways],
          " (~0.50 expected: the one-extra-bit rule)")
    print("  chunk size per way:  ",
          [format_bytes(c) for c in mehpt.chunk_bytes_per_way("4K")],
          " (dynamically-changing chunks)")
    print("  L2P entries in use:  ", mehpt.l2p_entries_used(), "of",
          mehpt.l2p.total_entries())


if __name__ == "__main__":
    main()
