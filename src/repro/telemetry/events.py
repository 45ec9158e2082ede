"""The structured boot-event log.

Section 5.1 instruments real boots with ``perf`` tracepoints fired by
guest port-I/O writes; every figure is read out of those traces.  The
simulated equivalent is this log: an append-only, monotonically
sequenced stream of :class:`BootEvent` records, one per pipeline stage
(plus one ``boot``-kind record per fleet admission carrying the worker
and wall-clock window).  Records are JSONL-serializable so a fleet's
history can be shipped to any external trace store.

:class:`repro.telemetry.Telemetry` writes it:
:func:`~repro.monitor.vmm.record_boot` reports every completed
:class:`~repro.simtime.trace.StageSpan` of a finished boot or restore
timeline (the pipeline itself only writes the timeline), and
:class:`~repro.monitor.fleet.FleetManager` reports each boot's scheduled
wall window after admission; ``Telemetry`` also turns the same calls
into registry metrics.

Sequence numbers are assigned under a lock, so they are monotonic and
dense.  A fleet records on its launching thread in fleet-index order,
whichever executor ran its boots, so a seeded fleet logs the same events
in the same order, sequence numbers included, on every run; exporters
still canonicalize order by ``(boot_id, start_ns, seq)``.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass
from typing import Iterator

#: event kinds: a pipeline stage window, a scheduled fleet boot, a serve
#: control-plane lifecycle event, or an alert state transition
KIND_STAGE = "stage"
KIND_BOOT = "boot"
KIND_SERVE = "serve"
KIND_ALERT = "alert"


@dataclass(frozen=True)
class BootEvent:
    """One record in the boot-event log."""

    #: dense, monotonically increasing per-log sequence number
    seq: int
    #: which boot this belongs to (``<kernel>:<seed hex>``, or a restore id)
    boot_id: str
    #: ``stage`` or ``boot``
    kind: str
    #: stage name, or ``"boot"`` for admission records
    name: str
    category: str
    principal: str
    #: stage events: boot-local simulated ns; boot events: fleet wall ns
    start_ns: int
    duration_ns: int
    #: fleet worker slot (boot events only)
    worker: int | None = None
    #: True/False when a cache served/missed the stage; None otherwise
    cache_hit: bool | None = None
    detail: str = ""

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "boot_id": self.boot_id,
            "kind": self.kind,
            "name": self.name,
            "category": self.category,
            "principal": self.principal,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "detail": self.detail,
        }

    def sort_key(self) -> tuple:
        """Canonical (scheduling-independent) ordering for exporters."""
        return (self.boot_id, self.start_ns, self.seq)


class BootEventLog:
    """Append-only, thread-safe event log with monotonic sequencing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[BootEvent] = []
        self._next_seq = 0

    def record(
        self,
        *,
        boot_id: str,
        kind: str = KIND_STAGE,
        name: str,
        category: str = "",
        principal: str = "",
        start_ns: int = 0,
        duration_ns: int = 0,
        worker: int | None = None,
        cache_hit: bool | None = None,
        detail: str = "",
    ) -> BootEvent:
        """Append one record; the log assigns its sequence number."""
        if duration_ns < 0:
            raise ValueError(f"event {name!r} has negative duration {duration_ns}")
        with self._lock:
            event = BootEvent(
                seq=self._next_seq,
                boot_id=boot_id,
                kind=kind,
                name=name,
                category=category,
                principal=principal,
                start_ns=int(start_ns),
                duration_ns=int(duration_ns),
                worker=worker,
                cache_hit=cache_hit,
                detail=detail,
            )
            self._next_seq += 1
            self._events.append(event)
            return event

    def events(self) -> tuple[BootEvent, ...]:
        """All records in append order."""
        with self._lock:
            return tuple(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[BootEvent]:
        return iter(self.events())

    def write_jsonl(self, fp) -> int:
        """Stream one compact JSON object per line into ``fp``.

        Unlike :meth:`to_jsonl` this never materializes the whole
        serialization, so exporting a million-event serve run costs one
        line of memory, not twice the log.  Returns lines written; every
        line (including the last) is newline-terminated.
        """
        lines = 0
        for event in self.events():
            fp.write(
                json.dumps(
                    event.to_json(), sort_keys=True, separators=(",", ":")
                )
            )
            fp.write("\n")
            lines += 1
        return lines

    def to_jsonl(self) -> str:
        """One compact JSON object per line, in append order.

        Kept for small logs and tests; the CLI export paths stream via
        :meth:`write_jsonl` instead.  No trailing newline, matching the
        original shape.
        """
        buf = io.StringIO()
        self.write_jsonl(buf)
        return buf.getvalue()[:-1] if buf.tell() else ""
