"""The BootPipeline composer and per-flavor pipeline builders.

A :class:`BootPipeline` is an ordered list of stages plus the machinery
that runs them: each stage executes against the shared
:class:`~repro.pipeline.stage.StageContext`, and the pipeline brackets it
with a begin/end :class:`~repro.simtime.trace.StageSpan` on the boot's
timeline — charged nanoseconds, executing principal, and cache-hit
attribution included.  Nothing else is written per stage.

Builders assemble the stage list per boot flavor (Figure 5/7's columns):

* ``direct``   — in-monitor (FG)KASLR over a vmlinux: startup, image
  read, cached prepare, randomize+load, then the shared tail;
* ``bzimage``  — bootstrap self-randomization: startup, container read,
  loader bring-up, decompress, self-randomize, jump, shared tail;
* ``restore``  — snapshot restore (optionally rebased to a fresh offset).

Unikernel monitors run the ``direct`` pipeline; asking one for a bzImage
is a build-time error because the flavor has no loader stages to compose.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import MonitorError
from repro.pipeline.stage import BootStage, StageContext
from repro.pipeline.stages import (
    ArtifactCacheStage,
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
        profiler = ctx.profiler
        boot_frame = (
            profiler.boot_frame(ctx.boot_id)
            if profiler is not None
            else nullcontext()
        )
        with boot_frame:
            self._run_stages(ctx)
        return ctx

    def _run_stages(self, ctx: StageContext) -> None:
        profiler = ctx.profiler
        for stage in self.stages:
            start_ns = ctx.clock.now_ns
            try:
                if ctx.fault_plan is not None:
                    ctx.fault_plan.inject(stage, ctx)
                if profiler is not None:
                    with profiler.stage_frame(stage.name, stage.principal):
                        result = stage.run(ctx)
                else:
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

    @staticmethod
    def _attribute_failure(
        exc: Exception, stage: BootStage, ctx: StageContext
    ) -> None:
        """Stamp failure attribution without changing the exception type.

        Existing callers keep catching the original typed error; the
        containment layer reads ``boot_stage``/``boot_id`` off it, and a
        process worker ships ``boot_timeline`` to the parent.  The
        profiler gains a zero-ns ``aborted.<stage>`` frame so an aborted
        boot is visible in folded stacks while the exact-attribution
        invariant (attributed ns == clock ns) is preserved.
        """
        try:
            if getattr(exc, "boot_stage", None) is None:
                exc.boot_stage = stage.name
                exc.boot_id = ctx.boot_id
            # outside the guard: an InjectedFault arrives with its stage set
            exc.boot_timeline = ctx.clock.timeline
        except AttributeError:  # pragma: no cover - slotted exception
            pass
        profiler = ctx.profiler
        if profiler is not None:
            with profiler.stage_frame(stage.name, stage.principal):
                profiler.record_cost(f"aborted.{stage.name}", 0.0)
                profiler.commit(0, stage.name)

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]


#: stage names per boot flavor, statically derived from the stage classes
#: (the ``repro faults`` listing of valid injection points)
PIPELINE_FLAVORS: dict[str, tuple[str, ...]] = {
    "direct": (
        MonitorStartupStage.name,
        KernelImageReadStage.name,
        ArtifactCacheStage.name,
        RandomizeLoadStage.name,
        BootParamsStage.name,
        PageTableStage.name,
        GuestEntryStage.name,
        GuestBootStage.name,
    ),
    "bzimage": (
        MonitorStartupStage.name,
        BzImageReadStage.name,
        LoaderBringUpStage.name,
        LoaderDecompressStage.name,
        LoaderRandomizeStage.name,
        LoaderJumpStage.name,
        BootParamsStage.name,
        PageTableStage.name,
        GuestEntryStage.name,
        GuestBootStage.name,
    ),
    "restore": (SnapshotRestoreStage.name, RebaseStage.name),
}


def _shared_tail() -> list[BootStage]:
    return [
        BootParamsStage(),
        PageTableStage(),
        GuestEntryStage(),
        GuestBootStage(),
    ]


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
        return BootPipeline(
            name="bzimage",
            stages=(
                MonitorStartupStage(),
                BzImageReadStage(),
                LoaderBringUpStage(),
                LoaderDecompressStage(),
                LoaderRandomizeStage(),
                LoaderJumpStage(),
                *_shared_tail(),
            ),
        )
    return BootPipeline(
        name=f"direct-{cfg.randomize}",
        stages=(
            MonitorStartupStage(),
            KernelImageReadStage(),
            ArtifactCacheStage(PrepareImageStage()),
            RandomizeLoadStage(),
            *_shared_tail(),
        ),
    )


def build_restore_pipeline(rebase: bool = False) -> BootPipeline:
    """Assemble the snapshot-restore flavor (zygote acquisitions)."""
    stages: list[BootStage] = [SnapshotRestoreStage()]
    if rebase:
        stages.append(RebaseStage())
    return BootPipeline(
        name="restore-rebase" if rebase else "restore",
        stages=tuple(stages),
    )
