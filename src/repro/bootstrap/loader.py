"""Bootstrap-loader phases.

The numbered steps of a bzImage boot from Section 3.3, one function per
phase; the boot pipeline's loader stages (:mod:`repro.pipeline.stages`)
call them in order:

1. the monitor has already placed the bzImage in guest memory and jumped
   to the loader entry point (:func:`bring_up`);
2. the loader copies the compressed kernel out of the way for in-place
   decompression (*eliminated* by the optimized layout);
3. the kernel is decompressed to its run location (*eliminated* when the
   payload is uncompressed and pre-aligned) — :func:`decompress` covers
   both;
4. the loader parses the ELF (:func:`parse_payload`), loads segments,
   self-randomizes if configured, and jumps to ``startup_64``
   (:func:`jump`).

The randomization itself is the shared :class:`~repro.core.InMonitorRandomizer`
pipeline running under a *guest* :class:`~repro.core.RandoContext` — in-guest
entropy costs, bootstrap-attributed trace events, and the in-place shuffle
that needs a scratch copy of the whole text region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bzimage.format import BzImage, SetupHeader
from repro.compress import get_codec
from repro.core.context import RandoContext
from repro.core.policy import RandomizationPolicy
from repro.elf.reader import ElfImage
from repro.elf.relocs import RelocationTable
from repro.errors import BzImageError
from repro.simtime.trace import BootCategory, BootStep
from repro.vm.portio import (
    MILESTONE_DECOMPRESS_END,
    MILESTONE_DECOMPRESS_START,
    MILESTONE_LOADER_ENTRY,
    TRACE_PORT,
    PortIoBus,
)


@dataclass
class LoaderOptions:
    """Which optional work the loader performs.

    The defaults match the paper's apples-to-apples comparison loader
    (Section 4.3): kallsyms fixup and ORC updates removed.  Enable them to
    model the stock FGKASLR C implementation.
    """

    kallsyms_fixup: bool = False
    orc_fixup: bool = False
    policy: RandomizationPolicy = field(default_factory=RandomizationPolicy)


def bring_up(header: SetupHeader, ctx: RandoContext, bus: PortIoBus) -> None:
    """Step 1b: stack, GDT/IDT, early page tables, .bss, boot heap.

    FGKASLR's heap is up to 8x larger and the zeroing cost shows up in
    Bootstrap Setup (Section 5.2).
    """
    costs = ctx.costs
    bus.write(TRACE_PORT, MILESTONE_LOADER_ENTRY)
    ctx.charge(costs.loader_init(), BootStep.LOADER_INIT, label="loader bring-up")
    ctx.charge(
        costs.loader_pagetable(),
        BootStep.LOADER_INIT,
        label="early page tables (identity + kernel map)",
    )
    # heap_size is in (scaled) image bytes; the cost model projects
    # byte counts back to paper scale.
    ctx.charge(
        costs.loader_heap_zero_ns(header.heap_size),
        BootStep.LOADER_HEAP_ZERO,
        label=f"zero {header.heap_size} byte boot heap",
    )


def decompress(bzimage: BzImage, ctx: RandoContext, bus: PortIoBus) -> bytes:
    """Steps 2-3: copy the payload aside, then decompress it.

    Both charges vanish under the optimized layout (uncompressed,
    pre-aligned payload); codec "none" still pays the plain copy.
    """
    header = bzimage.header
    costs = ctx.costs
    if not header.optimized:
        ctx.charge(
            costs.loader_memcpy_ns(header.payload_size),
            BootStep.LOADER_COPY_KERNEL,
            label="copy compressed kernel out of the way",
        )
    bus.write(TRACE_PORT, MILESTONE_DECOMPRESS_START)
    blob = get_codec(header.codec).decompress(bzimage.payload())
    if not header.optimized:
        ctx.clock.charge(
            costs.decompress_ns(header.codec, len(blob)),
            category=BootCategory.DECOMPRESSION,
            step=BootStep.LOADER_DECOMPRESS,
            label=f"{header.codec} decompress {len(blob)} bytes",
        )
    bus.write(TRACE_PORT, MILESTONE_DECOMPRESS_END)
    return blob


def parse_payload(
    bzimage: BzImage, blob: bytes
) -> tuple[ElfImage, RelocationTable | None]:
    """Split the decompressed payload into (vmlinux, relocs table)."""
    vmlinux, relocs_blob = bzimage.split_decompressed(blob)
    try:
        elf = ElfImage(vmlinux)
    except Exception as exc:  # corrupt payloads surface as boot failures
        raise BzImageError(f"decompressed payload is not a vmlinux: {exc}") from exc
    table = RelocationTable.decode(relocs_blob) if relocs_blob is not None else None
    return elf, table


def jump(ctx: RandoContext) -> None:
    """Hand control to ``startup_64``."""
    ctx.charge(ctx.costs.loader_jump(), BootStep.LOADER_JUMP, label="jump to kernel")
