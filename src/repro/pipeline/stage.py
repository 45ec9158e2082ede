"""The BootStage protocol and the context stages operate on.

The paper accounts boot work *per stage* (Figures 5/7): monitor setup,
bootstrap self-randomization, decompression, relocation, guest bring-up.
This module makes that accounting structural — a boot is a list of
:class:`BootStage` objects run in order over one :class:`StageContext`,
and every stage's window lands as a
:class:`~repro.simtime.trace.StageSpan` on the boot's timeline.

A stage reads its inputs from the context and publishes its products back
onto it (loaded image, layout, page-table walker, verification report, a
restored VM).  Composition, not inheritance: boot flavors differ only in
which stages the builder assembles, so a monitor variant substitutes a
stage instead of overriding a private method.  The span is the only
record a run writes; telemetry is derived from the finished timeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.simtime.clock import SimClock
from repro.simtime.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.context import RandoContext
    from repro.core.layout_result import LayoutResult
    from repro.core.loading import LoadedImage
    from repro.core.policy import RandomizationPolicy
    from repro.core.prepared import PreparedImage
    from repro.elf.relocs import RelocationTable
    from repro.faults.plan import FaultPlan
    from repro.host.entropy import HostEntropyPool
    from repro.host.storage import HostStorage
    from repro.kernel.verify import VerificationReport
    from repro.monitor.artifact_cache import BootArtifactCache, CacheScope
    from repro.monitor.config import VmConfig
    from repro.monitor.vm_handle import MicroVm
    from repro.snapshot.checkpoint import Snapshot
    from repro.vm.memory import GuestMemory
    from repro.vm.pagetable import PageTableWalker
    from repro.vm.portio import PortIoBus

#: the executing principals a stage can charge work to
PRINCIPAL_MONITOR = "monitor"
PRINCIPAL_GUEST = "guest"
PRINCIPAL_KERNEL = "kernel"


@dataclass(frozen=True)
class StageResult:
    """What one stage reports back: identity, attribution, and detail."""

    stage: str
    category: str
    principal: str
    detail: str = ""
    #: True/False when a cache served/missed the stage; None otherwise
    cache_hit: bool | None = None


@runtime_checkable
class BootStage(Protocol):
    """One composable unit of boot work.

    ``run`` performs the work — charging the context's clock, mutating the
    context's products — and returns a :class:`StageResult` describing
    what happened.  The pipeline wraps the call in a begin/end span.
    """

    name: str
    category: str
    principal: str

    def run(self, ctx: "StageContext") -> StageResult: ...


class Stage:
    """Convenience base: carries identity and builds results."""

    name: str = "stage"
    category: str = "monitor_setup"
    principal: str = PRINCIPAL_MONITOR

    def result(
        self, detail: str = "", cache_hit: bool | None = None
    ) -> StageResult:
        return StageResult(
            stage=self.name,
            category=self.category,
            principal=self.principal,
            detail=detail,
            cache_hit=cache_hit,
        )

    def run(self, ctx: "StageContext") -> StageResult:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class StageContext:
    """Everything a boot's stages share: substrate, knobs, and products.

    One context serves exactly one pipeline run.  The first block is
    provided by whoever builds the boot (monitor or snapshot manager); the
    second block is populated by stages as they execute.
    """

    # -- provided by the caller ------------------------------------------------
    clock: SimClock
    costs: CostModel
    rng: random.Random
    cfg: "VmConfig | None" = None
    storage: "HostStorage | None" = None
    entropy: "HostEntropyPool | None" = None
    artifact_cache: "BootArtifactCache | None" = None
    #: per-launch cache attribution scope; the prepare stage notes its
    #: hits/misses/parses here so concurrent launches sharing one cache
    #: each account exactly their own traffic
    cache_scope: "CacheScope | None" = None
    bus: "PortIoBus | None" = None
    #: monitor-profile plumbing (Section 2.2: these vary by VMM)
    vmm_name: str = "monitor"
    startup_override_ns: float | None = None
    guest_entry_override_ns: float | None = None
    #: snapshot-restore inputs
    snapshot: "Snapshot | None" = None
    policy: "RandomizationPolicy | None" = None
    #: the boot identity fault draws and failure attribution key on
    #: (``<kernel>:<seed hex>``, or a restore id)
    boot_id: str = ""
    #: fault injection: the seeded plan probed at every stage boundary
    #: (None = no injection points, zero overhead), plus the fleet index
    #: and retry attempt the plan keys its deterministic decisions on
    fault_plan: "FaultPlan | None" = None
    boot_index: int = 0
    attempt: int = 0
    #: set by a fired ``cache-drop`` fault: this boot's prepare stage
    #: skips both cache tiers, counts a miss and re-parses
    cache_miss_forced: bool = False

    # -- populated by stages ---------------------------------------------------
    memory: "GuestMemory | None" = None
    relocs: "RelocationTable | None" = None
    prepared: "PreparedImage | None" = None
    prepared_from_cache: bool = False
    loader_ctx: "RandoContext | None" = None
    payload_blob: bytes | None = None
    layout: "LayoutResult | None" = None
    loaded: "LoadedImage | None" = None
    walker: "PageTableWalker | None" = None
    pt_tables_bytes: int = 0
    verification: "VerificationReport | None" = None
    vm: "MicroVm | None" = None
