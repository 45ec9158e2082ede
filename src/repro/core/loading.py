"""Shared ELF segment loading into guest memory.

Used by the monitor's direct boot path (bytes stream from the page cache
into guest memory) and by the bootstrap loader (decompression already
wrote the image to its run location).  Neither pays a bulk copy here, so
only per-segment bookkeeping is charged; the loader's redundant copies of
the kernel are charged where they happen (copy-aside, decompression and
the in-place FGKASLR shuffle).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import RandoContext
from repro.elf.reader import ElfImage
from repro.errors import BootProtocolError
from repro.kernel import layout as kl
from repro.vm.memory import GuestMemory


@dataclass(frozen=True)
class LoadedImage:
    """Where an ELF landed in guest physical memory."""

    phys_load: int
    image_bytes: int  # file-backed bytes
    mem_bytes: int  # including NOBITS (.bss)
    entry_vaddr: int


def load_elf_segments(
    elf: ElfImage,
    memory: GuestMemory,
    ctx: RandoContext,
    phys_load: int = kl.PHYS_LOAD_ADDR,
    skip_text: bool = False,
) -> LoadedImage:
    """Copy every PT_LOAD segment to its physical location.

    ``phys_load`` replaces the link-time physical base (segments keep their
    relative layout).  ``skip_text`` lets the FGKASLR path own the
    executable segment (it places sections in shuffled order instead).
    """
    segments = elf.load_segments()
    if not segments:
        raise BootProtocolError("kernel ELF has no PT_LOAD segments")
    phys_shift = phys_load - kl.PHYS_LOAD_ADDR
    lo = min(s.p_paddr for s in segments) + phys_shift
    hi_mem = max(s.p_paddr + s.p_memsz for s in segments) + phys_shift
    hi_file = max(s.p_paddr + s.p_filesz for s in segments) + phys_shift
    for phdr in segments:
        executable = bool(phdr.p_flags & 0x1)
        if skip_text and executable:
            continue
        memory.write(phdr.p_paddr + phys_shift, elf.segment_bytes(phdr))
    ctx.charge(
        ctx.costs.segment_load_ns(len(segments)),
        ctx.steps.segment_load,
        label=f"load {len(segments)} segments",
    )
    return LoadedImage(
        phys_load=lo,
        image_bytes=hi_file - lo,
        mem_bytes=hi_mem - lo,
        entry_vaddr=elf.entry,
    )
