"""The in-guest bootstrap loader (bzImage boot path).

This is bootstrap self-randomization, Figure 1(a)/Figure 7(left): the
loader brings up its own stack/heap/page tables, optionally copies the
compressed kernel aside and decompresses it, parses the ELF, loads
segments, self-randomizes using the *same* algorithms as the in-monitor
path (:mod:`repro.core`), and jumps to the kernel — charging every step to
the guest's share of the boot timeline.  :mod:`repro.bootstrap.loader`
holds the phases; the bzImage boot pipeline's loader stages run them.
"""

from repro.bootstrap.loader import LoaderOptions

__all__ = ["LoaderOptions"]
