"""Snapshot / re-randomization substrate (Section 7).

Zygote-style platforms restore pre-booted VM images to dodge cold-start
latency, but copy-on-write clones share one memory layout, nullifying
ASLR.  :class:`~repro.snapshot.checkpoint.SnapshotManager` captures a
booted microVM and restores copy-on-write clones in milliseconds, either
as-is or **rebased** in place to a fresh offset
(:class:`repro.core.rerandomize.Rerandomizer`) — the option in-monitor
randomization enables, because the monitor holds the relocation table.
:class:`repro.workloads.ServerlessPlatform` builds the paper's three
zygote strategies on it: one shared zygote, a Morula-style pool of
diverse zygotes (``zygotes=N``), and rebase-on-restore.
"""

from repro.snapshot.checkpoint import Snapshot, SnapshotManager

__all__ = [
    "Snapshot",
    "SnapshotManager",
]
