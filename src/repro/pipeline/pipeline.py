"""The BootPipeline composer and per-flavor pipeline builders.

A :class:`BootPipeline` is an ordered list of stages plus the machinery
that runs them: each stage executes against the shared
:class:`~repro.pipeline.stage.StageContext`, and the pipeline brackets it
with a begin/end :class:`~repro.simtime.trace.StageSpan` on the boot's
timeline — charged nanoseconds, executing principal, and cache-hit
attribution included.  Nothing else is written per stage: telemetry and
the cost profile are derived from the finished timeline
(:func:`repro.monitor.vmm.record_boot`).

:data:`FLAVOR_STAGES` lists each boot flavor's stage classes once
(Figure 5/7's columns); the builders instantiate them and
:data:`PIPELINE_FLAVORS` names them:

* ``direct``   — in-monitor (FG)KASLR over a vmlinux: startup, image
  read, prepare (served by the artifact cache when the monitor has one),
  randomize+load, then the shared tail;
* ``bzimage``  — bootstrap self-randomization: startup, container read,
  loader bring-up, decompress, self-randomize, jump, shared tail;
* ``restore``  — snapshot restore (optionally rebased to a fresh offset).

Unikernel monitors run the ``direct`` pipeline; asking one for a bzImage
is a build-time error because the flavor has no loader stages to compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import MonitorError
from repro.pipeline.stage import BootStage, Stage, StageContext
from repro.pipeline.stages import (
    BootParamsStage,
    BzImageReadStage,
    GuestBootStage,
    GuestEntryStage,
    KernelImageReadStage,
    LoaderBringUpStage,
    LoaderDecompressStage,
    LoaderJumpStage,
    LoaderRandomizeStage,
    MonitorStartupStage,
    PageTableStage,
    PrepareImageStage,
    RandomizeLoadStage,
    RebaseStage,
    SnapshotRestoreStage,
)
from repro.simtime.trace import StageSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.config import VmConfig


@dataclass(frozen=True)
class BootPipeline:
    """An ordered, instrumented composition of boot stages."""

    name: str
    stages: tuple[BootStage, ...]

    def run(self, ctx: StageContext) -> StageContext:
        """Execute every stage in order, spanning each on the timeline."""
        for stage in self.stages:
            start_ns = ctx.clock.now_ns
            try:
                if ctx.fault_plan is not None:
                    ctx.fault_plan.inject(stage, ctx)
                result = stage.run(ctx)
            except Exception as exc:
                self._attribute_failure(exc, stage, ctx)
                raise
            ctx.clock.timeline.add_span(
                StageSpan(
                    name=result.stage,
                    category=result.category,
                    principal=result.principal,
                    start_ns=start_ns,
                    end_ns=ctx.clock.now_ns,
                    cache_hit=result.cache_hit,
                    detail=result.detail,
                )
            )
        return ctx

    @staticmethod
    def _attribute_failure(
        exc: Exception, stage: BootStage, ctx: StageContext
    ) -> None:
        """Stamp failure attribution without changing the exception type.

        Existing callers keep catching the original typed error; the
        containment layer reads ``boot_stage``/``boot_id`` off it, and a
        process worker ships ``boot_timeline`` to the parent.  The
        timeline is marked aborted in ``stage``, so the cost profile
        gives it a zero-ns ``aborted.<stage>`` cell: the aborted boot is
        visible in folded stacks while the exact-attribution invariant
        (attributed ns == clock ns) holds.
        """
        try:
            if getattr(exc, "boot_stage", None) is None:
                exc.boot_stage = stage.name
                exc.boot_id = ctx.boot_id
            # outside the guard: an InjectedFault arrives with its stage set
            exc.boot_timeline = ctx.clock.timeline
        except AttributeError:  # pragma: no cover - slotted exception
            pass
        ctx.clock.abort(stage.name, stage.principal)

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]


_SHARED_TAIL = (BootParamsStage, PageTableStage, GuestEntryStage, GuestBootStage)

#: the stage classes of each boot flavor, in run order; the restore
#: flavor's last stage runs only when the restore rebases
FLAVOR_STAGES: dict[str, tuple[type[Stage], ...]] = {
    "direct": (
        MonitorStartupStage,
        KernelImageReadStage,
        PrepareImageStage,
        RandomizeLoadStage,
        *_SHARED_TAIL,
    ),
    "bzimage": (
        MonitorStartupStage,
        BzImageReadStage,
        LoaderBringUpStage,
        LoaderDecompressStage,
        LoaderRandomizeStage,
        LoaderJumpStage,
        *_SHARED_TAIL,
    ),
    "restore": (SnapshotRestoreStage, RebaseStage),
}

#: stage names per boot flavor (the ``repro faults`` listing of valid
#: injection points)
PIPELINE_FLAVORS: dict[str, tuple[str, ...]] = {
    flavor: tuple(cls.name for cls in classes)
    for flavor, classes in FLAVOR_STAGES.items()
}


def _compose(name: str, classes: tuple[type[Stage], ...]) -> BootPipeline:
    return BootPipeline(name=name, stages=tuple(cls() for cls in classes))


def build_boot_pipeline(cfg: "VmConfig", direct_only: bool = False) -> BootPipeline:
    """Assemble the stage list for one :class:`VmConfig`.

    ``direct_only`` is the unikernel-monitor constraint: no bootstrap
    loader exists in that world, so a bzImage flavor cannot be composed.
    """
    # lazy: repro.monitor imports repro.pipeline (cycle guard, see stages)
    from repro.monitor.config import BootFormat

    if cfg.boot_format is BootFormat.BZIMAGE:
        if direct_only:
            raise MonitorError(
                "unikernel monitors have no bootstrap loader; "
                "only direct image boot is supported"
            )
        return _compose("bzimage", FLAVOR_STAGES["bzimage"])
    return _compose(f"direct-{cfg.randomize}", FLAVOR_STAGES["direct"])


def build_restore_pipeline(rebase: bool = False) -> BootPipeline:
    """Assemble the snapshot-restore flavor (zygote acquisitions)."""
    if rebase:
        return _compose("restore-rebase", FLAVOR_STAGES["restore"])
    return _compose("restore", FLAVOR_STAGES["restore"][:1])
