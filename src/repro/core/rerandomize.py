"""In-place re-randomization (rebasing) of a running guest.

Section 7 observes that snapshot/zygote platforms either give every clone
an identical layout (nullifying ASLR) or must maintain pools of diverse
zygotes (Morula).  In-monitor randomization enables a third option the
paper's design makes cheap: because the monitor holds the relocation
table, it can *rebase* a paused guest from its current virtual offset to a
fresh one by applying the offset delta to every fixup site — no reboot, no
decompression, no reload.

Rebasing covers base-KASLR layouts.  FGKASLR section shuffles are not
re-randomized in place (moving code under a paused kernel would break
saved instruction pointers); callers re-randomize fine-grained layouts by
restoring a different zygote instead.
"""

from __future__ import annotations

from repro.core.context import RandoContext
from repro.core.layout_result import LayoutResult
from repro.core.policy import RandomizationPolicy
from repro.core.relocator import check_kernel_vaddr, fix_sites, low32_to_vaddr
from repro.elf.relocs import RelocationTable
from repro.errors import RandomizationError
from repro.vm.memory import GuestMemory


class Rerandomizer:
    """Applies a fresh virtual offset to an already-relocated guest."""

    def __init__(self, policy: RandomizationPolicy | None = None) -> None:
        self.policy = policy or RandomizationPolicy()

    def rebase(
        self,
        memory: GuestMemory,
        layout: LayoutResult,
        relocs: RelocationTable,
        ctx: RandoContext,
    ) -> int:
        """Move the guest to a new random offset; returns the new offset.

        Every relocation site currently holds ``link + old_offset`` (plus
        any FGKASLR displacement); adding ``new - old`` to each re-derives
        a valid layout.  The delta application is the same three-class fix
        as boot-time relocation and is charged identically.
        """
        if layout.fine_grained:
            raise RandomizationError(
                "in-place rebase is limited to base-KASLR layouts; "
                "restore a different zygote to re-randomize FGKASLR guests"
            )
        old = layout.voffset
        new = self.policy.choose_virtual_offset(ctx, layout.mem_bytes)
        delta = new - old
        if delta == 0:
            return new

        def abs64(value: int, off: int) -> int:
            check_kernel_vaddr(value - old, "rebase ABS64 at +", off)
            return (value + delta) & 0xFFFF_FFFF_FFFF_FFFF

        def abs32(low: int, off: int) -> int:
            check_kernel_vaddr(low32_to_vaddr(low) - old, "rebase ABS32 at +", off)
            return (low + delta) & 0xFFFF_FFFF

        def inv32(stored: int, off: int) -> int:
            return (stored - delta) & 0xFFFF_FFFF

        fix_sites(memory, layout, relocs, abs64, abs32, inv32)
        ctx.charge(
            ctx.costs.reloc_apply_batch_ns(relocs.entry_count, in_guest=ctx.in_guest),
            ctx.steps.relocate,
            label=f"rebase {relocs.entry_count} relocations by {delta:#x}",
        )
        layout.voffset = new
        return new
