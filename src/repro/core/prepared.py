"""The cacheable parse phase of the randomization pipeline.

The in-monitor pipeline (Figure 7) starts with work that depends only on
the kernel *image*: decoding the ELF, inventorying sections and symbols,
sizing the load footprint, and validating the kernel-constants contract.
None of it depends on the per-boot seed, so a monitor serving a fleet of
microVMs can do it once per distinct image and reuse the result for every
boot — only the per-instance shuffle + offset draw + relocation pass stays
on the hot path.

:class:`PreparedImage` is that reusable product.  It is immutable, reads
its content digest from the ELF it was parsed from (computed once, on
first read, and pickled with the ELF), and exposes a :meth:`fingerprint`
over every derived datum so tests can prove a cached entry is
byte-identical to a cold parse.  A boot hashes its image only when a
cache key or an FGKASLR plan key reads the digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.fgkaslr import FgkaslrEngine, SectionInventory
from repro.core.inmonitor import RandomizeMode
from repro.elf.reader import ElfImage


@dataclass(frozen=True)
class PreparedImage:
    """Everything the parse phase derives from one kernel image.

    Frozen so a cache may hand the same instance to concurrent boots.
    The wrapped :class:`ElfImage` is itself an immutable parsed view.
    """

    elf: ElfImage
    mode: RandomizeMode
    n_sections: int
    #: symbol count scanned during parse (0 outside FGKASLR mode)
    n_symbols: int
    #: span of the PT_LOAD footprint in guest physical memory (0 when the
    #: image has no load segments; segment loading rejects it later)
    image_mem_bytes: int
    #: FGKASLR section inventory (None outside FGKASLR mode)
    fg_inventory: SectionInventory | None
    #: whether the kernel-constants note contract was validated
    constants_checked: bool

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the ELF file bytes (the content address)."""
        return self.elf.digest

    def fingerprint(self) -> str:
        """Digest over every parse product (cache-correctness oracle)."""
        h = hashlib.sha256()
        h.update(self.digest.encode())
        h.update(str(self.mode).encode())
        h.update(
            f"{self.n_sections}:{self.n_symbols}:{self.image_mem_bytes}".encode()
        )
        for section in self.elf.sections:
            h.update(
                f"{section.name}:{section.vaddr}:{section.size}:"
                f"{section.flags}:{section.sh_type}".encode()
            )
            h.update(section.data)
        if self.fg_inventory is not None:
            for (name, vaddr, size), offset in zip(
                self.fg_inventory.ordered, self.fg_inventory.offsets
            ):
                h.update(f"{name}:{vaddr}:{size}:{offset}".encode())
            h.update(
                f"{self.fg_inventory.region_start}:"
                f"{self.fg_inventory.region_end}".encode()
            )
        return h.hexdigest()


def prepare_image(elf: ElfImage, mode: RandomizeMode) -> PreparedImage:
    """Run the seed-independent parse phase over an ELF image.

    Pure with respect to the boot: charges nothing, draws nothing.  The
    caller accounts simulated parse time (cold) or a cache probe (hit).
    """
    from repro.core.inmonitor import check_kernel_constants

    n_symbols = len(elf.symbols) if mode is RandomizeMode.FGKASLR else 0
    check_kernel_constants(elf)
    segments = elf.load_segments()
    if segments:
        lo = min(s.p_paddr for s in segments)
        hi = max(s.p_paddr + s.p_memsz for s in segments)
        image_mem_bytes = hi - lo
    else:
        image_mem_bytes = 0
    fg_inventory = (
        FgkaslrEngine.inventory(elf) if mode is RandomizeMode.FGKASLR else None
    )
    return PreparedImage(
        elf=elf,
        mode=mode,
        n_sections=len(elf.sections),
        n_symbols=n_symbols,
        image_mem_bytes=image_mem_bytes,
        fg_inventory=fg_inventory,
        constants_checked=True,
    )
