"""The in-monitor randomization pipeline (Figure 7, right side).

Steps, in order, all executed by the monitor before guest entry:

1. read/parse the (uncompressed) kernel ELF,
2. choose a physical offset (fixed by default; Section 3.2 decouples it),
3. FGKASLR only: parse function sections and plan the shuffle,
4. load segments into guest memory (shuffled text lands directly at its
   randomized location — the amortization the paper highlights),
5. choose a random virtual offset,
6. handle relocations in the virtual address space,
7. FGKASLR only: fix the exception table, kallsyms (optionally lazily),
   and the ORC tables when present.

The same object also serves the bootstrap loader's self-randomization path
(Figure 7, left) — the loader passes a :class:`RandoContext` whose
principal is the guest, which flips entropy costs, trace attribution, and
the in-place (extra-copy) shuffle behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.context import RandoContext
from repro.core.fgkaslr import FgkaslrEngine
from repro.core.layout_result import LayoutResult
from repro.core.loading import LoadedImage, load_elf_segments
from repro.core.policy import RandomizationPolicy
from repro.core.relocator import Relocator
from repro.elf.reader import ElfImage
from repro.elf.relocs import RelocationTable
from repro.errors import RandomizationError
from repro.kernel import layout as kl
from repro.vm.memory import GuestMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.prepared import PreparedImage


class RandomizeMode(enum.Enum):
    """How much randomization to perform."""

    NONE = "none"
    KASLR = "kaslr"
    FGKASLR = "fgkaslr"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class InMonitorRandomizer:
    """Randomizes and loads a kernel image into guest memory."""

    policy: RandomizationPolicy = field(default_factory=RandomizationPolicy)
    #: defer the kallsyms fixup until first use (Section 4.3 optimization)
    lazy_kallsyms: bool = True
    #: update ORC unwind tables when the kernel carries them
    update_orc: bool = True
    engine: FgkaslrEngine = field(default_factory=FgkaslrEngine)

    def run(
        self,
        elf: ElfImage,
        relocs: RelocationTable | None,
        memory: GuestMemory,
        ctx: RandoContext,
        mode: RandomizeMode,
        guest_ram_bytes: int,
        scale: int = 1,
        in_place: bool = False,
    ) -> tuple[LayoutResult, LoadedImage]:
        """Parse, then randomize; returns the final layout and load info.

        ``scale`` is the build-size divisor, used only so reported entropy
        corresponds to a paper-scale image.  ``in_place`` selects the
        bootstrap-loader shuffle (the image already sits in guest memory,
        so the shuffle needs a scratch copy of the text).
        """
        from repro.core.prepared import prepare_image

        prepared = prepare_image(elf, mode)
        ctx.charge(
            ctx.costs.elf_parse_ns(prepared.n_sections, prepared.n_symbols),
            ctx.steps.parse,
            label=f"parse ELF ({prepared.n_sections} sections)",
        )
        return self.run_prepared(
            prepared,
            relocs,
            memory,
            ctx,
            guest_ram_bytes=guest_ram_bytes,
            scale=scale,
            in_place=in_place,
        )

    def run_prepared(
        self,
        prepared: "PreparedImage",
        relocs: RelocationTable | None,
        memory: GuestMemory,
        ctx: RandoContext,
        guest_ram_bytes: int,
        scale: int = 1,
        in_place: bool = False,
    ) -> tuple[LayoutResult, LoadedImage]:
        """The per-boot randomize phase, fed by a (possibly cached) parse.

        Charges nothing for the parse: whoever produced ``prepared`` has
        (the monitor's prepare stage, or :meth:`run`).
        """
        elf = prepared.elf
        mode = prepared.mode

        if mode is not RandomizeMode.NONE and relocs is None:
            raise RandomizationError(
                f"{mode} requested but no relocation information supplied "
                "(build the kernel with CONFIG_RELOCATABLE and pass "
                "vmlinux.relocs — Figure 8)"
            )

        layout = LayoutResult(link_vbase=kl.LINK_VBASE)
        phys_load = kl.PHYS_LOAD_ADDR
        if mode is not RandomizeMode.NONE:
            phys_load = self.policy.choose_physical_offset(
                ctx, prepared.image_mem_bytes, guest_ram_bytes
            )
            layout.phys_load = phys_load

        plan = None
        if mode is RandomizeMode.FGKASLR:
            assert prepared.fg_inventory is not None  # set by prepare_image
            plan = self.engine.plan_from_inventory(prepared.fg_inventory, ctx)
            layout.moved = list(plan.moved)
            layout.entropy_bits_fg = plan.permutation_entropy_bits(scale)

        # Load segments (the shuffled text goes straight to its new home).
        loaded = load_elf_segments(
            elf,
            memory,
            ctx,
            phys_load=phys_load,
            skip_text=plan is not None,
        )
        if plan is not None:
            self.engine.load_text_shuffled(
                elf, plan, memory, phys_load, ctx, in_place=in_place
            )
        layout.image_bytes = loaded.image_bytes
        layout.mem_bytes = loaded.mem_bytes

        if mode is RandomizeMode.NONE:
            return layout.finalize(), loaded

        layout.voffset = self.policy.choose_virtual_offset(ctx, loaded.mem_bytes)
        layout.entropy_bits_base = self.policy.entropy_bits(
            loaded.mem_bytes, paper_scale_bytes=loaded.mem_bytes * scale
        )
        layout.finalize()

        assert relocs is not None  # checked above
        Relocator(memory, layout, elf).apply(relocs, ctx)

        if mode is RandomizeMode.FGKASLR:
            self.engine.fixup_extable(elf, memory, layout, ctx)
            self.engine.fixup_kallsyms(
                elf, memory, layout, ctx, lazy=self.lazy_kallsyms
            )
            if self.update_orc:
                self.engine.fixup_orc(elf, memory, layout, ctx)
        return layout, loaded


def check_kernel_constants(elf: ElfImage) -> None:
    """Validate the layout contract via the kernel-constants ELF note.

    Section 4.3: the prototype hardcodes CONFIG_PHYSICAL_START & co.;
    when the kernel carries the proposed constants note, the monitor
    verifies agreement instead of trusting blindly.  Kernels without
    the note keep the paper's hardcoded behaviour.
    """
    from repro.elf.notes import parse_notes
    from repro.kernel.constants_note import KernelConstants

    if not elf.has_section(".notes"):
        return
    constants = KernelConstants.from_notes(parse_notes(elf.section(".notes").data))
    if constants is not None:
        constants.check_monitor_contract()
