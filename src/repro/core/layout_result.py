"""The outcome of randomization: where everything ended up.

Produced by whichever principal randomized the kernel; consumed by the
monitor (to program page tables and the entry point), by the post-boot
verifier (to recompute expected relocation values), and by the security
analyses (to measure entropy and leak value).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.kernel import layout as kl

#: a bound beyond every address
_UNBOUNDED = 1 << 128


@dataclass
class LayoutResult:
    """Final address-space layout of one booted kernel."""

    #: KASLR virtual offset added to every kernel virtual address
    voffset: int = 0
    #: physical address the image was loaded at
    phys_load: int = kl.PHYS_LOAD_ADDR
    #: link-time virtual base of the image
    link_vbase: int = kl.LINK_VBASE
    #: bytes of the loaded file image (excludes .bss)
    image_bytes: int = 0
    #: in-memory span including .bss
    mem_bytes: int = 0
    #: FGKASLR section moves as (orig_start_vaddr, size, delta),
    #: sorted by orig_start_vaddr; empty when only base KASLR ran
    moved: list[tuple[int, int, int]] = field(default_factory=list)
    #: offset entropy (bits) available to this boot, at paper scale
    entropy_bits_base: float = 0.0
    #: added FGKASLR permutation entropy (bits), at paper scale
    entropy_bits_fg: float = 0.0
    #: whether kallsyms was eagerly fixed up (False under lazy fixup)
    kallsyms_fixed: bool = True
    #: number of relocation entries applied
    relocs_applied: int = 0
    #: bisect index over ``moved``: link vaddr ``v`` has displacement
    #: ``_deltas[j]`` where ``_bounds[j] <= v < _bounds[j + 1]``
    _bounds: list[int] = field(default_factory=list, repr=False)
    _deltas: list[int] = field(default_factory=list, repr=False)

    def finalize(self) -> "LayoutResult":
        """Sort the move map and build the bisect index.

        The index alternates each section's span with the unmoved gap
        after it.  A section ends early where the next one starts, so an
        address belongs to the last section starting at or before it.
        """
        self.moved.sort(key=lambda m: m[0])
        nexts = [m[0] for m in self.moved[1:]] + [_UNBOUNDED]
        self._bounds = [-_UNBOUNDED]
        self._deltas = [0]
        for (start, size, delta), nxt in zip(self.moved, nexts):
            self._bounds += (start, min(start + size, nxt))
            self._deltas += (delta, 0)
        self._bounds.append(_UNBOUNDED)
        return self

    def clone(self) -> "LayoutResult":
        """An independent, finalized copy (snapshot restores hand these out)."""
        return LayoutResult(
            voffset=self.voffset,
            phys_load=self.phys_load,
            link_vbase=self.link_vbase,
            image_bytes=self.image_bytes,
            mem_bytes=self.mem_bytes,
            moved=list(self.moved),
            entropy_bits_base=self.entropy_bits_base,
            entropy_bits_fg=self.entropy_bits_fg,
            kallsyms_fixed=self.kallsyms_fixed,
            relocs_applied=self.relocs_applied,
        ).finalize()

    @property
    def randomized(self) -> bool:
        return self.voffset != 0 or bool(self.moved)

    @property
    def fine_grained(self) -> bool:
        return bool(self.moved)

    def displacement_for(self, link_vaddr: int) -> int:
        """Intra-image displacement of a link-time address (FGKASLR moves)."""
        if not self.moved:
            return 0
        if not self._bounds:
            self.finalize()
        return self._deltas[bisect.bisect_right(self._bounds, link_vaddr) - 1]

    def site_view(self, memory, link_offset: int, width: int, writable: bool = False):
        """In-place access to the site at image offset ``link_offset``, for sweeps.

        Returns ``(buf, k, lo, hi)``: every ``width``-byte site at an offset
        ``off`` with ``lo <= off <= hi`` shares this site's moved-section
        window (one section, or the unmoved gap after it) and memory chunk,
        and its word is at ``off + k`` in ``buf`` (see
        :meth:`GuestMemory.word_view`).  A sweep over a table therefore
        re-resolves — one bisect — only when a site leaves the span, which
        in an ascending table (the relocs sidecar's order) is once per
        section boundary or chunk crossed rather than once per site.  Any
        order gives the same words.  Returns ``None`` when the word
        straddles two chunks.
        """
        if not self._bounds:
            self.finalize()
        bounds = self._bounds
        vbase = self.link_vbase
        j = bisect.bisect_right(bounds, vbase + link_offset) - 1
        shift = self.phys_load + self._deltas[j]
        view = memory.word_view(link_offset + shift, width, writable)
        if view is None:
            return None
        buf, base, last = view
        return (
            buf,
            shift - base,
            max(bounds[j] - vbase, base - shift),
            min(bounds[j + 1] - 1 - vbase, last - shift),
        )

    def final_vaddr(self, link_vaddr: int) -> int:
        """Virtual address after all randomization."""
        return link_vaddr + self.displacement_for(link_vaddr) + self.voffset

    def final_vaddrs(self) -> dict[int, int]:
        """A fresh memo of :meth:`final_vaddr`: ``memo[v]`` computes each
        distinct ``v`` once.  Keep it local to one pass over a layout."""
        return _FinalVaddrs(self)

    def final_image_offset(self, link_offset: int) -> int:
        """Image offset after FGKASLR moves (where the byte physically is)."""
        return (
            link_offset
            + self.displacement_for(self.link_vbase + link_offset)
        )

    def final_paddr(self, link_vaddr: int) -> int:
        """Guest physical address after loading and moves."""
        return (
            self.final_image_offset(link_vaddr - self.link_vbase) + self.phys_load
        )

    @property
    def entry_vaddr(self) -> int:
        """Final virtual address of ``startup_64`` (start of base .text)."""
        return self.link_vbase + self.voffset

    @property
    def total_entropy_bits(self) -> float:
        return self.entropy_bits_base + self.entropy_bits_fg


class _FinalVaddrs(dict):
    """See :meth:`LayoutResult.final_vaddrs`."""

    def __init__(self, layout: LayoutResult) -> None:
        super().__init__()
        self.layout = layout

    def __missing__(self, link_vaddr: int) -> int:
        final = self[link_vaddr] = self.layout.final_vaddr(link_vaddr)
        return final
