"""Content-addressed boot-artifact cache.

A monitor serving a fleet boots the same few kernel images thousands of
times.  The parse phase of the randomization pipeline (section inventory,
symbol scan, constants contract — :mod:`repro.core.prepared`) depends only
on the image bytes and policy, never the per-boot seed, so the fleet path
memoizes it here and leaves only the shuffle + offset draw + relocation
pass on the per-instance hot path.

Entries are keyed on ``(image digest, policy fingerprint)``:

* the **image digest** is the SHA-256 of the ELF bytes — content
  addressing, so renaming a kernel or registering the same build twice
  cannot duplicate an entry, and any rebuilt image gets a fresh one;
* the **policy fingerprint** folds in the randomize mode (the symbol
  scan and FGKASLR inventory differ by mode) and the randomization
  policy, since a policy change invalidates planning assumptions.

:class:`BootArtifactCache` is the only code that probes, parses, inserts
and counts a parse product: :meth:`~BootArtifactCache.get_or_parse`
serves both the ``prepare_image`` stage and the monitor's warm-up.  The
in-memory tier is bounded LRU, safe for concurrent use by fleet worker
threads.  An optional :class:`DiskCacheTier` persists entries across
processes and runs: memory misses probe the disk before parsing, parses
write through, and every load is integrity-checked (payload SHA-256 +
header format and key + the prepared image's own content digest) so a
corrupt or stale file degrades to a miss, never a wrong parse.

Counting: every operation is noted once, under the cache lock, in the
cache's lifetime tally (:meth:`~BootArtifactCache.stats`), in the
caller's :class:`CacheScope` and in the registry.  A scope accumulates
only the activity of calls that carried it, so two fleets sharing one
cache each see exactly their own traffic.  A fleet boot counts into its
substrate's own cache; the parent replays each boot's counts into its
cache with :meth:`~BootArtifactCache.absorb`, so the parent's tally and
registry read the same whichever executor served the boots.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.core.policy import RandomizationPolicy
from repro.core.prepared import PreparedImage, prepare_image
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.config import VmConfig


def policy_fingerprint(policy: RandomizationPolicy) -> str:
    """Stable digest-key component for a randomization policy."""
    return (
        f"{policy.min_offset:#x}:{policy.max_offset:#x}:"
        f"{policy.align:#x}:{int(policy.randomize_physical)}"
    )


def cache_key_for(cfg: "VmConfig") -> "CacheKey":
    """The cache key a boot of ``cfg`` probes in the ``prepare_image`` stage."""
    return CacheKey(
        image_digest=cfg.kernel.elf.digest,
        policy=f"{cfg.randomize}:{policy_fingerprint(cfg.policy)}",
    )


@dataclass(frozen=True)
class CacheKey:
    """(what bytes, under which mode and policy)."""

    image_digest: str
    policy: str


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache effectiveness.

    ``disk_hits`` counts the subset of ``hits`` served by promoting a
    persistent-tier entry into memory; ``parses`` counts cold parses the
    cache could not avoid.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    disk_hits: int = 0
    parses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CacheScope:
    """Cache counts: a launch's attribution, or a cache's lifetime tally.

    Thread-safe; the threads of a launch count into one cache's tally.
    Every fleet boot ships its own scope's counts back as a plain dict
    (:meth:`counts`), which the parent's cache absorbs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("hits", "misses", "evictions", "disk_hits", "parses"), 0
        )

    def note(self, **counts: int) -> None:
        with self._lock:
            for name, n in counts.items():
                self._counts[name] += n

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def snapshot(self, entries: int = 0) -> CacheStats:
        """This scope's activity as a :class:`CacheStats`.

        ``entries`` is occupancy — a cache property, not a scope one — so
        the caller supplies it.
        """
        return CacheStats(entries=entries, **self.counts())


class _HashingWriter:
    """A file's ``write``, hashing every byte on the way through."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self._fh.write(data)


class DiskCacheTier:
    """Persistent content-addressed tier under one directory.

    One file per key, named by the SHA-256 of the key pair.  Each file is
    a small pickled header ``{format, key}``, then the payload (the
    pickled :class:`PreparedImage`), then the payload's 32-byte SHA-256.
    The store pickles the payload straight into the file through the
    hash, so it never holds the whole pickle in memory.  Writes go to a
    unique temp file and ``os.replace`` into place, so concurrent writers
    and crashes leave either the old entry or the new one, never a torn
    file.  Loads verify the trailer before unpickling the payload, then
    the format, key and the prepared image's own content digest; any
    mismatch, truncation or unpickling error degrades to ``None``, and so
    does a file of an older format (format 1 held the payload inside one
    pickled envelope, format 2's FGKASLR inventory had no section file
    offsets, format 3 keyed on a seed class and put the payload digest
    in the header).
    """

    FORMAT = 4
    SUFFIX = ".pkl"
    #: the SHA-256 trailer's length
    TRAILER = 32

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _key_tuple(self, key: CacheKey) -> tuple[str, str]:
        return (key.image_digest, key.policy)

    def file_for(self, key: CacheKey) -> Path:
        name = hashlib.sha256(
            "|".join(self._key_tuple(key)).encode("utf-8")
        ).hexdigest()
        return self.path / (name + self.SUFFIX)

    def store(self, key: CacheKey, prepared: PreparedImage) -> None:
        target = self.file_for(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.path, prefix=f"{target.stem}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                header = {"format": self.FORMAT, "key": self._key_tuple(key)}
                pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
                payload = _HashingWriter(fh)
                pickle.dump(prepared, payload, protocol=pickle.HIGHEST_PROTOCOL)
                fh.write(payload.sha256.digest())
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise

    def _read(self, file: Path) -> tuple[dict, memoryview | None]:
        """A file's header, and its payload if the trailer vouches for it."""
        with open(file, "rb") as fh:
            header = pickle.load(fh)
            rest = fh.read()
        payload = memoryview(rest)[: -self.TRAILER]
        if (
            len(rest) <= self.TRAILER
            or hashlib.sha256(payload).digest() != rest[-self.TRAILER:]
        ):
            return header, None
        return header, payload

    def load(self, key: CacheKey) -> PreparedImage | None:
        try:
            header, payload = self._read(self.file_for(key))
            if (
                payload is None
                or header["format"] != self.FORMAT
                or tuple(header["key"]) != self._key_tuple(key)
            ):
                return None
            prepared = pickle.loads(payload)
            return prepared if prepared.digest == key.image_digest else None
        except Exception:
            # no such file, a truncated header, version skew
            return None

    def entries(self) -> list[dict]:
        """Inventory for the ``repro cache`` CLI, sorted by file name."""
        rows = []
        for file in sorted(self.path.glob("*" + self.SUFFIX)):
            row: dict = {"file": file.name, "bytes": file.stat().st_size}
            try:
                header, payload = self._read(file)
                digest, policy = header["key"]
                row.update(
                    image_digest=digest,
                    policy=policy,
                    valid=payload is not None
                    and header["format"] == self.FORMAT,
                )
            except Exception:
                row["valid"] = False
            rows.append(row)
        return rows

    def evict(self, file_prefix: str) -> int:
        """Remove entries whose file name starts with ``file_prefix``."""
        removed = 0
        for file in sorted(self.path.glob("*" + self.SUFFIX)):
            if file.name.startswith(file_prefix):
                file.unlink(missing_ok=True)
                removed += 1
        return removed

    def clear(self) -> int:
        return self.evict("")


class BootArtifactCache:
    """Bounded LRU over :class:`PreparedImage` parse products.

    With ``disk_path`` set, a :class:`DiskCacheTier` backs the LRU:
    memory misses probe the disk (a disk hit counts as a hit and
    promotes), and parses write through so entries survive the process.
    Cache traffic and occupancy are published to ``registry``, when one
    is given.
    """

    def __init__(
        self,
        max_entries: int = 64,
        registry: MetricsRegistry | None = None,
        disk_path: str | os.PathLike | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"cache needs at least one entry, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, PreparedImage]" = OrderedDict()
        self._lock = threading.Lock()
        #: lifetime counts, in-process and absorbed alike
        self._tally = CacheScope()
        self._registry = registry
        self.disk = DiskCacheTier(disk_path) if disk_path is not None else None

    def _count(self, scope: CacheScope | None, **counts: int) -> None:
        """Note one operation's counts in the tally, ``scope`` and registry.

        Every caller holds ``self._lock``, so occupancy publications are
        ordered with cache state and concurrent fleet workers can never
        publish a stale (decreasing) gauge value.  The scopes' and the
        registry's locks are leaf locks; no path leads back here.
        """
        self._tally.note(**counts)
        if scope is not None:
            scope.note(**counts)
        registry = self._registry
        if registry is None:
            return
        for name in ("hits", "misses", "evictions"):
            if counts.get(name):  # zero deltas create no series
                registry.counter(
                    f"repro_cache_{name}_total", help=f"Boot-artifact cache {name}"
                ).inc(counts[name])
        registry.gauge(
            "repro_cache_entries", help="Boot-artifact cache occupancy"
        ).set(len(self._entries))

    def _place(self, key: CacheKey, prepared: PreparedImage) -> int:
        """Make ``prepared`` the newest entry; returns the LRU evictions."""
        self._entries[key] = prepared
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def lookup(
        self,
        key: CacheKey,
        scope: CacheScope | None = None,
        *,
        force_miss: bool = False,
    ) -> PreparedImage | None:
        """Probe memory then disk; counts a hit or miss, refreshes LRU order.

        A disk-tier hit promotes the entry into memory and counts as a
        hit (plus ``disk_hits``), never a miss — the parse was avoided.
        ``force_miss`` (a ``cache-drop`` fault on the calling boot) skips
        both tiers and counts a miss without touching any entry, so other
        callers' lookups are unaffected.
        """
        with self._lock:
            prepared = None if force_miss else self._entries.get(key)
            disk_hits = evictions = 0
            if prepared is not None:
                self._entries.move_to_end(key)
            elif self.disk is not None and not force_miss:
                prepared = self.disk.load(key)
                if prepared is not None:
                    disk_hits = 1
                    evictions = self._place(key, prepared)
            hit = int(prepared is not None)
            self._count(
                scope,
                hits=hit,
                misses=1 - hit,
                evictions=evictions,
                disk_hits=disk_hits,
            )
        return prepared

    def get_or_parse(
        self,
        cfg: "VmConfig",
        scope: CacheScope | None = None,
        *,
        force_miss: bool = False,
    ) -> tuple[PreparedImage, bool]:
        """Serve the parse phase of ``cfg``'s boot; returns ``(prepared, hit)``.

        A miss parses cold and inserts the product, counting the parse
        and any eviction; with a disk tier the entry is also written
        through (outside the lock — the tier's atomic rename makes
        concurrent writers safe).  Concurrent misses on the same key may
        parse twice, but content addressing makes the results
        interchangeable, so the race is benign.
        """
        key = cache_key_for(cfg)
        prepared = self.lookup(key, scope, force_miss=force_miss)
        if prepared is not None:
            return prepared, True
        prepared = prepare_image(cfg.kernel.elf, cfg.randomize)
        with self._lock:
            self._count(scope, parses=1, evictions=self._place(key, prepared))
        if self.disk is not None:
            self.disk.store(key, prepared)
        return prepared, False

    def absorb(self, counts: Mapping[str, int], scope: CacheScope) -> None:
        """Count a fleet boot (its :meth:`CacheScope.counts`) here.

        The fleet's replay calls this for every boot, so this cache's tally
        and registry read as if it had served it; a boot that probed no
        cache (a bzImage boot) publishes nothing.  Occupancy stays its own.
        """
        if any(counts.values()):
            with self._lock:
                self._count(scope, **counts)

    def peek(self, key: CacheKey) -> PreparedImage | None:
        """The memory tier's entry for ``key``, without counting or reordering."""
        with self._lock:
            return self._entries.get(key)

    def seed(self, key: CacheKey, prepared: PreparedImage) -> None:
        """Place an entry in the memory tier only: no disk write, no counts.

        A fleet substrate's fresh cache is seeded with its parent's entry
        (see :meth:`peek`); a cold launch seeds the parent's with its parse.
        """
        with self._lock:
            self._place(key, prepared)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._count(None)

    def stats(self) -> CacheStats:
        with self._lock:
            return self._tally.snapshot(entries=len(self._entries))
