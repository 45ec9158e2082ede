"""In-monitor (FG)KASLR — the paper's primary contribution.

The same randomization algorithms run under two *controlling principals*
(the paper's framing): the virtual machine monitor (in-monitor KASLR,
Section 4) or the guest's bootstrap loader (bootstrap self-randomization,
Section 3.2).  A :class:`~repro.core.context.RandoContext` carries which
principal is executing — it selects the entropy source cost, the trace
category, and the per-step labels, while the algorithms in
:mod:`~repro.core.relocator` and :mod:`~repro.core.fgkaslr` stay shared,
mirroring Section 4.3's "the computational steps are the same" claim.
"""

from repro.core.context import LOADER_STEPS, MONITOR_STEPS, RandoContext, RandoSteps
from repro.core.fgkaslr import FgkaslrEngine, SectionInventory, ShufflePlan
from repro.core.inmonitor import InMonitorRandomizer, RandomizeMode
from repro.core.layout_result import LayoutResult
from repro.core.policy import RandomizationPolicy
from repro.core.prepared import PreparedImage, prepare_image
from repro.core.relocator import Relocator

__all__ = [
    "FgkaslrEngine",
    "InMonitorRandomizer",
    "LayoutResult",
    "LOADER_STEPS",
    "MONITOR_STEPS",
    "prepare_image",
    "PreparedImage",
    "RandoContext",
    "RandoSteps",
    "RandomizationPolicy",
    "RandomizeMode",
    "Relocator",
    "SectionInventory",
    "ShufflePlan",
]
