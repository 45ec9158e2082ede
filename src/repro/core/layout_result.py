"""The outcome of randomization: where everything ended up.

Produced by whichever principal randomized the kernel; consumed by the
monitor (to program page tables and the entry point), by the post-boot
verifier (to recompute expected relocation values), and by the security
analyses (to measure entropy and leak value).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from repro.kernel import layout as kl

#: a bound beyond every address
_UNBOUNDED = 1 << 128


@dataclass(frozen=True)
class Windows:
    """The window layout of a move map, and one content key for it.

    Window ``j`` holds the link vaddrs ``v`` with ``bounds[j] <= v <
    bounds[j + 1]``: one moved section, or the unmoved gap after one.
    Every FGKASLR boot of an image has the same windows, so a
    :class:`~repro.core.fgkaslr.SectionInventory` derives them once and
    each layout planned from it reuses them.  The site-plan stores
    (:mod:`repro.core.siteplan`) are keyed by ``key``, a digest of the
    bounds, so a plan lookup hashes one short string.
    """

    bounds: tuple[int, ...]
    key: str

    @classmethod
    def of(cls, moved: Sequence[tuple[int, int, int]]) -> "Windows":
        """The windows of ``moved`` (``(start, size, delta)``, by start).

        The bounds alternate each section's span with the unmoved gap
        after it.  A section ends early where the next one starts, so an
        address belongs to the last section starting at or before it.
        """
        nexts = [m[0] for m in moved[1:]] + [_UNBOUNDED]
        bounds = [-_UNBOUNDED]
        for (start, size, _delta), nxt in zip(moved, nexts):
            bounds += (start, min(start + size, nxt))
        bounds.append(_UNBOUNDED)
        key = hashlib.sha256(repr(bounds).encode()).hexdigest()
        return cls(tuple(bounds), key)


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
    #: ``_deltas[j]`` where ``bounds[j] <= v < bounds[j + 1]``
    _windows: Windows | None = field(default=None, repr=False)
    _deltas: list[int] = field(default_factory=list, repr=False)

    def finalize(self, windows: Windows | None = None) -> "LayoutResult":
        """Sort the move map and build the bisect index.

        ``windows`` are the move map's :class:`Windows` when the caller
        already holds them (a layout planned from a section inventory);
        otherwise they are derived from ``moved``.  Window ``2k + 1`` is
        the ``k``-th section's, and moves by its delta; the gaps stay.
        """
        self.moved.sort(key=itemgetter(0))
        self._windows = windows if windows is not None else Windows.of(self.moved)
        deltas = [0] * (2 * len(self.moved) + 1)
        deltas[1::2] = [delta for _, _, delta in self.moved]
        self._deltas = deltas
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
        ).finalize(self._windows)

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
        if self._windows is None:
            self.finalize()
        return self._deltas[bisect.bisect_right(self._windows.bounds, link_vaddr) - 1]

    def windows(self) -> tuple[tuple[int, ...], list[int]]:
        """``(bounds, deltas)``: the window layout and this boot's moves.

        Window ``j`` holds the link vaddrs ``v`` with ``bounds[j] <= v <
        bounds[j + 1]`` — one moved section, or the unmoved gap after
        one — and moves them by ``deltas[j]``.  Every FGKASLR boot of an
        image has the same bounds; only the deltas differ.  A layout
        without moves has the one window of every address.
        """
        if self._windows is None:
            self.finalize()
        return self._windows.bounds, self._deltas

    @property
    def window_key(self) -> str:
        """The content key of :meth:`windows`' bounds (see :class:`Windows`)."""
        if self._windows is None:
            self.finalize()
        return self._windows.key

    def final_vaddr(self, link_vaddr: int) -> int:
        """Virtual address after all randomization."""
        return link_vaddr + self.displacement_for(link_vaddr) + self.voffset

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
