"""Zero-copy artifact transport over ``multiprocessing.shared_memory``.

The process-backend boot engine must hand every worker the kernel bytes
(vmlinux, relocs sidecar) without pickling megabytes per task.  A
:class:`SharedBlob` is a *picklable view*: it carries only the segment
name, length, and a SHA-256 of the payload, and re-attaches lazily in
whichever process unpickles it.  The :class:`SharedArtifactStore` owns
segment lifetime on the parent side — workers only ever attach read-only
and never unlink.

Integrity is content-addressed exactly like the artifact cache: the first
attach in a process verifies the payload digest, so a torn or recycled
segment surfaces as a :class:`~repro.errors.MonitorError` instead of a
corrupt boot.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

from repro.errors import MonitorError

__all__ = ["SharedArtifactStore", "SharedBlob"]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Open segment ``name`` without taking over its creator's cleanup.

    Before Python 3.13 every attach registers the segment with this
    process's resource tracker.  A tracker already running here is the
    creator's (in the creator, or in one of its multiprocessing workers
    under any start method) and already holds the name: unregistering
    would drop the creator's entry, and the creator's unlink would then
    fail inside the tracker with a ``KeyError`` traceback.  So only an
    attach that started a tracker of its own unregisters, or that
    tracker would unlink the segment when this process exits.
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - version specific
        return shared_memory.SharedMemory(name=name, track=False)
    own = getattr(resource_tracker._resource_tracker, "_fd", None) is None
    segment = shared_memory.SharedMemory(name=name)
    if own:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    return segment


@dataclass
class SharedBlob:
    """A picklable, integrity-checked view over one shared-memory segment.

    Pickling transports ``(name, size, sha256)`` — never the payload.
    ``bytes()`` attaches on first use, verifies the digest once, copies
    the payload out, and detaches immediately, so a worker holds no
    segment references between tasks.
    """

    name: str
    size: int
    sha256: str
    _cached: bytes | None = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> tuple[str, int, str]:
        return (self.name, self.size, self.sha256)

    def __setstate__(self, state: tuple[str, int, str]) -> None:
        self.name, self.size, self.sha256 = state
        self._cached = None

    def bytes(self) -> bytes:
        """The payload, attached/verified on first call and cached after."""
        if self._cached is not None:
            return self._cached
        try:
            segment = _attach(self.name)
        except FileNotFoundError as exc:
            raise MonitorError(
                f"shared artifact segment {self.name!r} is gone "
                "(store closed before workers finished?)"
            ) from exc
        try:
            data = bytes(segment.buf[: self.size])
        finally:
            segment.close()
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.sha256:
            raise MonitorError(
                f"shared artifact segment {self.name!r} failed its "
                f"integrity check ({digest[:12]} != {self.sha256[:12]})"
            )
        self._cached = data
        return data


class SharedArtifactStore:
    """Owns shared-memory segments for the life of one fleet launch.

    ``put`` publishes one payload and returns its :class:`SharedBlob`;
    ``close`` tears every segment down (close + unlink).  Context-manager
    friendly so the process executor can bracket a launch.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def put(self, data: bytes) -> SharedBlob:
        if len(data) == 0:
            # zero-size segments are rejected by the OS; carry it inline
            return SharedBlob(
                name="", size=0, sha256=hashlib.sha256(b"").hexdigest(),
                _cached=b"",
            )
        segment = shared_memory.SharedMemory(create=True, size=len(data))
        segment.buf[: len(data)] = data
        self._segments.append(segment)
        return SharedBlob(
            name=segment.name,
            size=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
            _cached=data,
        )

    def close(self) -> None:
        """Release every segment; idempotent."""
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
