"""Boot timeline traces.

The paper instruments boots with ``perf`` tracepoints (port-I/O writes from
the guest) and buckets time into four categories: *In-Monitor*, *Bootstrap
Setup*, *Decompression*, and *Linux Boot* (Section 5.1).  Figure 5
additionally breaks the bootstrap loader down into individual steps.  This
module provides the equivalent event record: every simulated charge lands in
a :class:`Timeline` with both a coarse :class:`BootCategory` and a fine
:class:`BootStep`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class BootCategory(enum.Enum):
    """Coarse boot-time buckets used throughout the paper's figures."""

    IN_MONITOR = "in_monitor"
    BOOTSTRAP_SETUP = "bootstrap_setup"
    DECOMPRESSION = "decompression"
    LINUX_BOOT = "linux_boot"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class BootStep(enum.Enum):
    """Fine-grained steps, used for the Figure 5 microbenchmarks.

    Steps prefixed ``MONITOR_`` run in the VMM process; steps prefixed
    ``LOADER_`` run inside the guest's bootstrap loader; ``KERNEL_`` steps
    run in the decompressed kernel proper.
    """

    # --- monitor side -----------------------------------------------------
    MONITOR_STARTUP = "monitor_startup"
    MONITOR_IMAGE_READ = "monitor_image_read"
    MONITOR_ELF_PARSE = "monitor_elf_parse"
    MONITOR_SEGMENT_LOAD = "monitor_segment_load"
    MONITOR_RNG = "monitor_rng"
    MONITOR_SHUFFLE = "monitor_shuffle"
    MONITOR_RELOCATE = "monitor_relocate"
    MONITOR_TABLE_FIXUP = "monitor_table_fixup"
    MONITOR_BOOT_PARAMS = "monitor_boot_params"
    MONITOR_PAGETABLE = "monitor_pagetable"
    MONITOR_GUEST_ENTRY = "monitor_guest_entry"
    # --- bootstrap loader side --------------------------------------------
    LOADER_INIT = "loader_init"
    LOADER_HEAP_ZERO = "loader_heap_zero"
    LOADER_COPY_KERNEL = "loader_copy_kernel"
    LOADER_DECOMPRESS = "loader_decompress"
    LOADER_ELF_PARSE = "loader_elf_parse"
    LOADER_SEGMENT_LOAD = "loader_segment_load"
    LOADER_RNG = "loader_rng"
    LOADER_SHUFFLE = "loader_shuffle"
    LOADER_RELOCATE = "loader_relocate"
    LOADER_TABLE_FIXUP = "loader_table_fixup"
    LOADER_JUMP = "loader_jump"
    # --- kernel side -------------------------------------------------------
    KERNEL_INIT = "kernel_init"
    KERNEL_MEM_INIT = "kernel_mem_init"
    KERNEL_RUN_INIT = "kernel_run_init"
    #: deferred kallsyms fixup triggered by the first /proc/kallsyms read
    KERNEL_KALLSYMS_FIXUP = "kernel_kallsyms_fixup"
    #: insmod: loading + linking a kernel module at runtime
    KERNEL_MODULE_LOAD = "kernel_module_load"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class StageSpan:
    """One pipeline stage's begin/end window on the simulated clock.

    Emitted by :class:`~repro.pipeline.BootPipeline` around every stage it
    executes.  Spans sit *above* :class:`TraceEvent`: a span covers every
    fine-grained charge the stage made, and carries the attribution the
    per-stage reports need — the executing principal, and whether a cache
    served the stage.
    """

    #: stage name (see :mod:`repro.pipeline.stages`)
    name: str
    #: coarse stage family: "monitor_setup", "image_read", "prepare",
    #: "randomize", "bootstrap", "decompression", "vm_setup",
    #: "guest_entry", "linux_boot", "restore", "rebase"
    category: str
    #: who executed the stage: "monitor", "guest", or "kernel"
    principal: str
    start_ns: int
    end_ns: int
    #: True/False when a cache answered/missed; None when not applicable
    cache_hit: bool | None = None
    detail: str = ""

    @property
    def charged_ns(self) -> int:
        """Simulated nanoseconds charged while the stage ran."""
        return self.end_ns - self.start_ns

    @property
    def charged_ms(self) -> float:
        return self.charged_ns / 1e6

    def to_json(self) -> dict:
        return {
            "stage": self.name,
            "category": self.category,
            "principal": self.principal,
            "start_ms": self.start_ns / 1e6,
            "charged_ms": self.charged_ms,
            "cache_hit": self.cache_hit,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TraceEvent:
    """One charged operation on the simulated clock."""

    start_ns: int
    duration_ns: int
    category: BootCategory
    step: BootStep
    label: str = ""

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


@dataclass
class Timeline:
    """An append-only sequence of :class:`TraceEvent` for one boot.

    Alongside the fine-grained events, a timeline records the
    :class:`StageSpan` windows of the boot pipeline that produced them and
    the ``(stage, kind)`` of every fault the installed plan fired, so
    reports and telemetry derive every view from one record.
    """

    events: list[TraceEvent] = field(default_factory=list)
    spans: list[StageSpan] = field(default_factory=list)
    faults: list[tuple[str, str]] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        if self.events and event.start_ns < self.events[-1].end_ns:
            raise ValueError(
                "trace events must be appended in simulated-time order: "
                f"{event.start_ns} < {self.events[-1].end_ns}"
            )
        self.events.append(event)

    def add_span(self, span: StageSpan) -> None:
        """Record a pipeline-stage window; spans must not run backwards."""
        if span.end_ns < span.start_ns:
            raise ValueError(
                f"stage span {span.name!r} ends before it starts: "
                f"{span.end_ns} < {span.start_ns}"
            )
        if self.spans and span.start_ns < self.spans[-1].end_ns:
            raise ValueError(
                "stage spans must be appended in simulated-time order: "
                f"{span.start_ns} < {self.spans[-1].end_ns}"
            )
        self.spans.append(span)

    def span_totals_ns(self) -> dict[str, int]:
        """Charged ns per stage name, in first-run order."""
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + span.charged_ns
        return totals

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def total_ns(self) -> int:
        return sum(e.duration_ns for e in self.events)

    def category_totals_ns(self) -> dict[BootCategory, int]:
        """Per-category totals; every category is present (0 if unused)."""
        totals = {category: 0 for category in BootCategory}
        for event in self.events:
            totals[event.category] += event.duration_ns
        return totals

    def step_totals_ns(self) -> dict[BootStep, int]:
        """Per-step totals, only for steps that actually occurred."""
        totals: dict[BootStep, int] = {}
        for event in self.events:
            totals[event.step] = totals.get(event.step, 0) + event.duration_ns
        return totals

    def category_ns(self, category: BootCategory) -> int:
        return sum(e.duration_ns for e in self.events if e.category is category)

    def step_ns(self, step: BootStep) -> int:
        return sum(e.duration_ns for e in self.events if e.step is step)

    def filtered(self, steps: Iterable[BootStep]) -> "Timeline":
        """A new timeline holding only events whose step is in ``steps``.

        Stage spans are carried over too: the filtered timeline keeps
        every span whose window overlaps at least one kept event, so
        stage attribution survives filtering (it used to be silently
        dropped).
        """
        wanted = set(steps)
        picked = Timeline()
        picked.events = [e for e in self.events if e.step in wanted]
        picked.spans = [
            span
            for span in self.spans
            if any(_window_overlaps(span, event) for event in picked.events)
        ]
        return picked


def _window_overlaps(span: StageSpan, event: TraceEvent) -> bool:
    """Half-open window overlap; zero-width windows count by containment."""
    if event.start_ns == event.end_ns:
        return span.start_ns <= event.start_ns <= span.end_ns
    if span.start_ns == span.end_ns:
        return event.start_ns <= span.start_ns <= event.end_ns
    return event.start_ns < span.end_ns and span.start_ns < event.end_ns
