"""Calibrated operation costs.

Every constant in :class:`CostModel` is expressed at *paper scale* (the
authors' i7-4790 @ 3.6 GHz, DDR3-1600, SATA SSD with 560 MB/s reads —
Section 5.1).  Because the synthetic kernels are built at ``1/scale`` of the
paper's image sizes (see DESIGN.md §7), all size- and count-proportional
charges are multiplied by ``scale`` so that reported simulated times
correspond to full-size kernels.  Constant overheads (VMM startup, guest
entry, ...) are scale-independent.

The throughput and per-entry constants were calibrated once against the
paper's reported aggregates (Figures 4, 5, 6, 9 and the Section 5.2 prose)
and are never tuned per-experiment; all figures are regenerated from this
single model.
"""

from __future__ import annotations

import math
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

MIB = 1024 * 1024
NS_PER_S = 1_000_000_000

#: Every charge kind a :class:`CostModel` method can report through its
#: :meth:`CostModel.charge` chokepoint.  The profile additionally folds
#: dynamic ``uncosted.<step>`` kinds for clock charges that no cost method
#: produced (milestone writes, overrides fed raw constants, ...), so the
#: attribution always covers 100% of simulated time.
CHARGE_KINDS: tuple[str, ...] = (
    "artifact_cache_lookup",
    "decompress",
    "disk_read",
    "elf_parse",
    "kallsyms_fixup",
    "kernel_init",
    "kernel_mem_init",
    "loader_heap_zero",
    "loader_init",
    "loader_jump",
    "loader_memcpy",
    "loader_pagetable",
    "memcpy",
    "memzero",
    "reloc_apply",
    "reloc_search",
    "rng",
    "segment_load",
    "shuffle",
    "snapshot_capture",
    "snapshot_restore",
    "table_fixup",
    "vmm_boot_params",
    "vmm_guest_entry",
    "vmm_pagetable",
    "vmm_startup",
)


class _PendingCosts(threading.local):
    """The cost records made on one thread since its last clock charge.

    Kept per thread, not per model: a charge may pay for a cost computed
    on another model (a snapshot capture is priced by the snapshot
    manager's model and charged on the booted VM's clock).
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float]] = []


_PENDING = _PendingCosts()


def take_pending_costs() -> tuple[tuple[str, float], ...]:
    """Hand this thread's pending cost records to the charge paying them.

    Each boot runs wholly on one thread, so the records a clock charge
    drains are the costs computed for it since the previous charge.
    """
    records = _PENDING.records
    if not records:
        return ()
    _PENDING.records = []
    return tuple(records)


def _ns_for_throughput(nbytes: int, mib_per_s: float) -> float:
    """Nanoseconds to move ``nbytes`` at ``mib_per_s`` MiB/s."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    if mib_per_s <= 0:
        raise ValueError(f"throughput must be positive: {mib_per_s}")
    return nbytes / (mib_per_s * MIB) * NS_PER_S


@dataclass
class JitterModel:
    """Multiplicative run-to-run noise.

    The paper reports min/max error bars over 100 boots; this model supplies
    the equivalent spread deterministically.  Each charge is multiplied by a
    factor drawn from a clipped Gaussian around 1.0.  A ``sigma`` of 0
    disables noise entirely (the default for unit tests).
    """

    sigma: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def factor(self) -> float:
        if self.sigma <= 0:
            return 1.0
        # Clip at 4 sigma so a single unlucky draw cannot dominate a boot.
        draw = self._rng.gauss(0.0, self.sigma)
        draw = max(-4 * self.sigma, min(4 * self.sigma, draw))
        return 1.0 + draw


# Decompression throughputs in MiB/s of *output* bytes, calibrated to the
# Figure 3 compression bakeoff (LZ4 fastest, bzip2/lzma slowest).
DEFAULT_DECOMPRESS_MIB_S: dict[str, float] = {
    "none": 3_200.0,  # a copy to the run location, at early-boot copy speed
    "lz4": 2_400.0,
    "lzo": 1_600.0,
    "gzip": 330.0,
    "bzip2": 110.0,
    "lzma": 75.0,
    "xz": 88.0,
}


@dataclass
class CostModel:
    """Single source of truth for simulated operation costs."""

    #: Size divisor between paper-scale kernels and the bytes we actually
    #: build.  Size/count-proportional charges multiply by this.
    scale: int = 16

    jitter: JitterModel = field(default_factory=JitterModel)

    # --- host I/O ----------------------------------------------------------
    ssd_read_mib_s: float = 560.0
    page_cache_read_mib_s: float = 9_000.0
    io_request_overhead_ns: float = 120_000.0  # per file open/read request

    # --- memory ------------------------------------------------------------
    memcpy_mib_s: float = 11_000.0
    memzero_mib_s: float = 14_000.0
    #: bulk copies inside the bootstrap loader run well below streaming
    #: speed (early identity-mapped environment, simple copy loops) — this
    #: is what makes uncompressed ("none") bzImages the slowest method in
    #: Figure 6: they move the full image twice at this rate
    loader_memcpy_mib_s: float = 3_200.0

    # --- decompression -----------------------------------------------------
    decompress_mib_s: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DECOMPRESS_MIB_S)
    )

    # --- ELF parsing -------------------------------------------------------
    elf_header_parse_ns: float = 2_000.0
    elf_section_parse_ns: float = 450.0  # per section header handled
    elf_symbol_parse_ns: float = 60.0  # per symbol table entry scanned

    # --- randomization -----------------------------------------------------
    #: host getrandom()-style draw (in-monitor path, Section 4.3)
    host_rng_draw_ns: float = 700.0
    #: in-guest rdrand/rdtsc entropy gathering (bootstrap loader path)
    guest_rng_draw_ns: float = 9_000.0
    #: applying one relocation entry (add/subtract + bounds check)
    reloc_apply_ns: float = 18.0
    #: FGKASLR per-relocation binary search over shuffled sections is
    #: ``reloc_search_factor_ns * log2(n_sections)`` (Section 3.2)
    reloc_search_factor_ns: float = 14.0
    #: Fisher-Yates pick + section bookkeeping, per shuffled section
    shuffle_section_ns: float = 500.0
    #: per-entry fixup of the exception table / ORC unwind table
    table_fixup_entry_ns: float = 120.0
    #: per-symbol kallsyms address rewrite + re-sort share (Section 4.3:
    #: "fixing up /proc/kallsyms amounts to 22% of overall boot times")
    kallsyms_fixup_symbol_ns: float = 1_100.0
    #: probing the monitor's content-addressed boot-artifact cache (digest
    #: compare + pin); replaces the full parse on the fleet hot path
    artifact_cache_lookup_ns: float = 1_800.0

    #: per-PT_LOAD-segment bookkeeping when the monitor loads straight from
    #: the page cache into guest memory (the byte copy itself is the
    #: storage-read charge; Section 5.2 — "reads the kernel image one
    #: segment at a time directly into guest memory")
    segment_load_overhead_ns: float = 25_000.0

    # --- monitor constants ---------------------------------------------------
    vmm_startup_ns: float = 1_400_000.0  # Firecracker process + API + KVM init
    vmm_boot_params_ns: float = 60_000.0
    vmm_pagetable_base_ns: float = 40_000.0
    vmm_pagetable_per_mib_ns: float = 90.0
    vmm_guest_entry_ns: float = 110_000.0

    # --- bootstrap loader constants -----------------------------------------
    loader_init_ns: float = 2_600_000.0  # stack/GDT/IDT bring-up
    loader_bss_zero_bytes: int = 1 * MIB  # loader's own .bss (paper scale)
    loader_pagetable_ns: float = 2_200_000.0  # identity + kernel map, early env
    loader_jump_ns: float = 15_000.0
    #: early-boot memory zeroing runs far below streaming-memset speed (no
    #: warmed caches, primitive memset) — Section 5.2 attributes the
    #: compression-none Bootstrap Setup gap to "allocating and zeroing" the
    #: boot heap and the loader's own structures
    loader_zero_slowdown: float = 8.0
    #: in-guest relocation handling vs the monitor's (Section 4.3 credits
    #: the monitor's mature host libraries and warm execution environment)
    loader_reloc_slowdown: float = 3.0

    # --- snapshot / restore ---------------------------------------------------
    #: serializing resident guest pages into a snapshot
    snapshot_capture_mib_s: float = 4_500.0
    #: restore constant (open snapshot, rebuild VM shell, CoW-map memory)
    snapshot_restore_base_ns: float = 2_500_000.0
    #: per-MiB of resident snapshot state mapped at restore
    snapshot_restore_per_mib_ns: float = 9_000.0

    # --- guest kernel boot ----------------------------------------------------
    #: per-MiB of guest RAM initialized by the early kernel (memblock,
    #: struct-page init); drives the Figure 10 linear trend.
    kernel_mem_init_per_mib_ns: float = 12_000.0

    #: >0 while inside a composite cost method, so inner helper calls
    #: (e.g. the memcpy share of ``shuffle_ns``) are not double-reported
    _depth: int = field(default=0, init=False, repr=False, compare=False)

    # -- helpers -------------------------------------------------------------

    def _scaled(self, ns: float) -> float:
        return ns * self.scale * self.jitter.factor()

    def _const(self, ns: float) -> float:
        return ns * self.jitter.factor()

    def charge(self, kind: str, ns: float) -> float:
        """The cost chokepoint: report ``ns`` under ``kind`` and return it.

        Every public cost method funnels its result through here, filing
        one ``(kind, ns)`` record per cost site on the calling thread; the
        next clock charge (:meth:`repro.simtime.clock.SimClock.charge`)
        carries the records it pays for on its trace event.  No jitter is
        drawn here — the chokepoint observes values, it never changes them.
        """
        if self._depth == 0:
            _PENDING.records.append((kind, float(ns)))
        return ns

    @contextmanager
    def _nested(self) -> Iterator[None]:
        """Suppress reporting of helper calls inside a composite cost."""
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    # --- host I/O ------------------------------------------------------------

    def disk_read_ns(self, nbytes: int, cached: bool) -> float:
        """Read ``nbytes`` of a kernel image from storage (or page cache)."""
        rate = self.page_cache_read_mib_s if cached else self.ssd_read_mib_s
        ns = self._scaled(_ns_for_throughput(nbytes, rate)) + self._const(
            self.io_request_overhead_ns
        )
        return self.charge("disk_read", ns)

    # --- memory ---------------------------------------------------------------

    def memcpy_ns(self, nbytes: int) -> float:
        return self.charge(
            "memcpy", self._scaled(_ns_for_throughput(nbytes, self.memcpy_mib_s))
        )

    def loader_memcpy_ns(self, nbytes: int) -> float:
        """Bulk byte movement performed by the bootstrap loader."""
        return self.charge(
            "loader_memcpy",
            self._scaled(_ns_for_throughput(nbytes, self.loader_memcpy_mib_s)),
        )

    def memzero_ns(self, nbytes: int) -> float:
        return self.charge(
            "memzero", self._scaled(_ns_for_throughput(nbytes, self.memzero_mib_s))
        )

    # --- decompression ----------------------------------------------------------

    def decompress_ns(self, codec: str, out_bytes: int) -> float:
        """Decompress to ``out_bytes`` of output with ``codec``."""
        try:
            rate = self.decompress_mib_s[codec]
        except KeyError:
            raise KeyError(
                f"no decompression throughput calibrated for codec {codec!r}"
            ) from None
        return self.charge(
            "decompress", self._scaled(_ns_for_throughput(out_bytes, rate))
        )

    # --- ELF ---------------------------------------------------------------------

    def elf_parse_ns(self, n_sections: int, n_symbols: int = 0) -> float:
        ns = self._const(self.elf_header_parse_ns) + self._scaled(
            n_sections * self.elf_section_parse_ns
            + n_symbols * self.elf_symbol_parse_ns
        )
        return self.charge("elf_parse", ns)

    # --- randomization --------------------------------------------------------

    def rng_ns(self, draws: int, in_guest: bool) -> float:
        per = self.guest_rng_draw_ns if in_guest else self.host_rng_draw_ns
        return self.charge("rng", self._const(draws * per))

    def reloc_apply_batch_ns(self, n_entries: int, in_guest: bool = False) -> float:
        factor = self.loader_reloc_slowdown if in_guest else 1.0
        return self.charge(
            "reloc_apply", self._scaled(n_entries * self.reloc_apply_ns * factor)
        )

    def reloc_search_batch_ns(self, n_entries: int, n_sections: int) -> float:
        """Binary-search cost for FGKASLR relocation handling."""
        depth = math.log2(n_sections + 1) if n_sections > 0 else 0.0
        return self.charge(
            "reloc_search",
            self._scaled(n_entries * self.reloc_search_factor_ns * depth),
        )

    def shuffle_ns(self, n_sections: int, text_bytes: int) -> float:
        """Shuffle function sections and repack them contiguously."""
        with self._nested():
            ns = self._scaled(
                n_sections * self.shuffle_section_ns
            ) + self.memcpy_ns(text_bytes)
        return self.charge("shuffle", ns)

    def table_fixup_ns(self, n_entries: int) -> float:
        return self.charge(
            "table_fixup", self._scaled(n_entries * self.table_fixup_entry_ns)
        )

    def kallsyms_fixup_ns(self, n_symbols: int) -> float:
        return self.charge(
            "kallsyms_fixup",
            self._scaled(n_symbols * self.kallsyms_fixup_symbol_ns),
        )

    def artifact_cache_lookup(self) -> float:
        """One boot-artifact cache probe (constant; hit path only)."""
        return self.charge(
            "artifact_cache_lookup", self._const(self.artifact_cache_lookup_ns)
        )

    # --- monitor ------------------------------------------------------------------

    def vmm_startup(self) -> float:
        return self.charge("vmm_startup", self._const(self.vmm_startup_ns))

    def vmm_boot_params(self) -> float:
        return self.charge("vmm_boot_params", self._const(self.vmm_boot_params_ns))

    def vmm_pagetable_ns(self, mapped_bytes: int) -> float:
        mib = mapped_bytes / MIB * self.scale
        return self.charge(
            "vmm_pagetable",
            self._const(
                self.vmm_pagetable_base_ns + mib * self.vmm_pagetable_per_mib_ns
            ),
        )

    def vmm_guest_entry(self) -> float:
        return self.charge("vmm_guest_entry", self._const(self.vmm_guest_entry_ns))

    # --- bootstrap loader ------------------------------------------------------

    def loader_init(self) -> float:
        with self._nested():
            bss_zero = (
                self.memzero_ns(self.loader_bss_zero_bytes // self.scale)
                * self.loader_zero_slowdown
            )
            ns = self._const(self.loader_init_ns) + bss_zero
        return self.charge("loader_init", ns)

    def loader_pagetable(self) -> float:
        return self.charge("loader_pagetable", self._const(self.loader_pagetable_ns))

    def loader_heap_zero_ns(self, heap_bytes: int) -> float:
        with self._nested():
            ns = self.memzero_ns(heap_bytes) * self.loader_zero_slowdown
        return self.charge("loader_heap_zero", ns)

    def loader_jump(self) -> float:
        return self.charge("loader_jump", self._const(self.loader_jump_ns))

    # --- segment loading --------------------------------------------------------

    def segment_load_ns(self, n_segments: int) -> float:
        """Per-PT_LOAD-segment bookkeeping (deliberately jitter-free: the
        constant models fixed syscall/bookkeeping work, and the seed
        behaviour charged the raw attribute)."""
        return self.charge(
            "segment_load", n_segments * self.segment_load_overhead_ns
        )

    # --- snapshot / restore --------------------------------------------------

    def snapshot_capture_ns(self, resident_bytes: int) -> float:
        return self.charge(
            "snapshot_capture",
            self._scaled(
                _ns_for_throughput(resident_bytes, self.snapshot_capture_mib_s)
            ),
        )

    def snapshot_restore_ns(self, resident_bytes: int) -> float:
        mib = resident_bytes / MIB * self.scale
        return self.charge(
            "snapshot_restore",
            self._const(
                self.snapshot_restore_base_ns + mib * self.snapshot_restore_per_mib_ns
            ),
        )

    # --- guest kernel ------------------------------------------------------------

    def kernel_mem_init_ns(self, mem_mib: int) -> float:
        """Early-kernel memory init (memblock, struct-page) for ``mem_mib``."""
        return self.charge(
            "kernel_mem_init",
            self._const(mem_mib * self.kernel_mem_init_per_mib_ns),
        )

    def kernel_init_ns(self, base_ms: float) -> float:
        """The config-dependent remainder of the guest kernel's own boot.

        ``base_ms`` comes from the kernel config (it depends only on how
        much subsystem bring-up the config compiles in, not on
        randomization — Section 5.1 notes Linux Boot varies at most 4%
        across variants).
        """
        return self.charge("kernel_init", self._const(base_ms * 1e6))
