"""Content-addressed boot-artifact cache.

A monitor serving a fleet boots the same few kernel images thousands of
times.  The parse phase of the randomization pipeline (section inventory,
symbol scan, constants contract — :mod:`repro.core.prepared`) depends only
on the image bytes and policy, never the per-boot seed, so the fleet path
memoizes it here and leaves only the shuffle + offset draw + relocation
pass on the per-instance hot path.

Entries are keyed on ``(image digest, policy fingerprint, seed class)``:

* the **image digest** is the SHA-256 of the ELF bytes — content
  addressing, so renaming a kernel or registering the same build twice
  cannot duplicate an entry, and any rebuilt image gets a fresh one;
* the **policy fingerprint** folds in the randomization policy, since a
  policy change invalidates planning assumptions;
* the **seed class** segregates populations whose seeds come from
  different regimes (e.g. per-VM draws vs a shared pool seed) so an
  operator can flush one class without disturbing another.

The in-memory tier is bounded LRU with hit/miss/eviction counters, safe
for concurrent use by fleet worker threads.  An optional
:class:`DiskCacheTier` persists entries across processes and runs:
memory misses probe the disk before parsing, inserts write through, and
every load is integrity-checked (envelope key + payload SHA-256 + the
prepared image's own content digest) so a corrupt or stale file degrades
to a miss, never a wrong parse.

Attribution: callers that want per-launch accounting pass a
:class:`CacheScope` to ``lookup``/``insert``/``get_or_parse`` — the scope
accumulates only the activity of calls that carried it, so two fleets
sharing one cache each see exactly their own traffic (the old
before/after ``stats()`` delta misattributed interleaved launches).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.core.inmonitor import RandomizeMode
from repro.core.policy import RandomizationPolicy
from repro.core.prepared import PreparedImage, prepare_image
from repro.elf.reader import ElfImage
from repro.telemetry import MetricsRegistry, get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.config import VmConfig

#: seed class for fleets where every instance draws its own seed
SEED_CLASS_PER_VM = "per-vm"


def policy_fingerprint(policy: RandomizationPolicy) -> str:
    """Stable digest-key component for a randomization policy."""
    return (
        f"{policy.min_offset:#x}:{policy.max_offset:#x}:"
        f"{policy.align:#x}:{int(policy.randomize_physical)}"
    )


def cache_key_for(cfg: "VmConfig") -> "CacheKey":
    """The cache key a boot of ``cfg`` probes in :class:`ArtifactCacheStage`."""
    return CacheKey(
        image_digest=cfg.kernel.elf.digest,
        policy=f"{cfg.randomize}:{policy_fingerprint(cfg.policy)}",
        seed_class=cfg.seed_class,
    )


@dataclass(frozen=True)
class CacheKey:
    """(what bytes, under which policy, for which seed population)."""

    image_digest: str
    policy: str
    seed_class: str


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache effectiveness.

    ``disk_hits`` counts the subset of ``hits`` served by promoting a
    persistent-tier entry into memory; ``parses`` counts cold parses the
    cache could not avoid.  Both default to zero so older snapshots and
    call sites keep working.
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


#: counter fields a scope tracks (also the worker->parent wire format)
_SCOPE_FIELDS = ("hits", "misses", "evictions", "disk_hits", "parses")


class CacheScope:
    """Per-launch cache attribution: counts only the calls that carry it.

    Thread-safe; fleet workers on many threads note into one scope.  The
    process backend ships each worker's counts back as a plain dict
    (:meth:`counts`) which the parent folds in with :meth:`absorb`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(_SCOPE_FIELDS, 0)

    def note(
        self,
        *,
        hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
        disk_hits: int = 0,
        parses: int = 0,
    ) -> None:
        with self._lock:
            self._counts["hits"] += hits
            self._counts["misses"] += misses
            self._counts["evictions"] += evictions
            self._counts["disk_hits"] += disk_hits
            self._counts["parses"] += parses

    def absorb(self, counts: Mapping[str, int]) -> None:
        """Fold in a worker's counts dict (unknown keys ignored)."""
        self.note(**{f: int(counts.get(f, 0)) for f in _SCOPE_FIELDS})

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def snapshot(self, entries: int = 0) -> CacheStats:
        """This scope's activity as a :class:`CacheStats`.

        ``entries`` is global occupancy — a cache property, not a scope
        one — so the caller supplies it (usually ``cache.stats().entries``).
        """
        counts = self.counts()
        return CacheStats(entries=entries, **counts)


class DiskCacheTier:
    """Persistent content-addressed tier under one directory.

    One file per key, named by the SHA-256 of the key triple.  Each file
    is a pickled envelope ``{format, key, sha256, payload}`` where
    ``payload`` is the pickled :class:`PreparedImage` and ``sha256``
    covers the payload bytes.  Writes go to a unique temp file and
    ``os.replace`` into place, so concurrent writers and crashes leave
    either the old entry or the new one, never a torn file.  Loads verify
    format, key, payload digest, and the prepared image's own content
    digest; any mismatch or unpickling error degrades to ``None``.
    """

    FORMAT = 1
    SUFFIX = ".pkl"

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _key_tuple(self, key: CacheKey) -> tuple[str, str, str]:
        return (key.image_digest, key.policy, key.seed_class)

    def file_for(self, key: CacheKey) -> Path:
        name = hashlib.sha256(
            "|".join(self._key_tuple(key)).encode("utf-8")
        ).hexdigest()
        return self.path / (name + self.SUFFIX)

    def store(self, key: CacheKey, prepared: PreparedImage) -> None:
        payload = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = pickle.dumps(
            {
                "format": self.FORMAT,
                "key": self._key_tuple(key),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload": payload,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        target = self.file_for(key)
        tmp = target.with_name(f"{target.stem}.{os.getpid()}.tmp")
        tmp.write_bytes(envelope)
        os.replace(tmp, target)

    def load(self, key: CacheKey) -> PreparedImage | None:
        target = self.file_for(key)
        try:
            envelope = pickle.loads(target.read_bytes())
            if envelope["format"] != self.FORMAT:
                return None
            if tuple(envelope["key"]) != self._key_tuple(key):
                return None
            payload = envelope["payload"]
            if hashlib.sha256(payload).hexdigest() != envelope["sha256"]:
                return None
            prepared = pickle.loads(payload)
            if prepared.digest != key.image_digest:
                return None
            return prepared
        except FileNotFoundError:
            return None
        except Exception:
            # torn write from a pre-atomic world, truncation, version skew
            return None

    def entries(self) -> list[dict]:
        """Inventory for the ``repro cache`` CLI, sorted by file name."""
        rows = []
        for file in sorted(self.path.glob("*" + self.SUFFIX)):
            row: dict = {"file": file.name, "bytes": file.stat().st_size}
            try:
                envelope = pickle.loads(file.read_bytes())
                digest, policy, seed_class = envelope["key"]
                row.update(
                    image_digest=digest,
                    policy=policy,
                    seed_class=seed_class,
                    sha256=envelope["sha256"],
                    valid=hashlib.sha256(envelope["payload"]).hexdigest()
                    == envelope["sha256"],
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


def record_cache_traffic(
    registry: MetricsRegistry, hits: int = 0, misses: int = 0, evictions: int = 0
) -> None:
    """Tick the cache traffic counters (zero deltas create no series).

    Every cache operation publishes here, and so does the process
    executor's replay of a worker's :meth:`CacheScope.counts`.
    """
    if hits:
        registry.counter(
            "repro_cache_hits_total", help="Boot-artifact cache hits"
        ).inc(hits)
    if misses:
        registry.counter(
            "repro_cache_misses_total", help="Boot-artifact cache misses"
        ).inc(misses)
    if evictions:
        registry.counter(
            "repro_cache_evictions_total", help="Boot-artifact cache evictions"
        ).inc(evictions)


class BootArtifactCache:
    """Bounded LRU over :class:`PreparedImage` parse products.

    With ``disk_path`` set, a :class:`DiskCacheTier` backs the LRU:
    memory misses probe the disk (a disk hit counts as a hit and
    promotes), and inserts write through so entries survive the process.
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
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._parses = 0
        self._registry = registry
        self.disk = DiskCacheTier(disk_path) if disk_path is not None else None

    def _metrics(self) -> MetricsRegistry:
        # resolved per operation so a scoped telemetry sees cache traffic
        # from caches built before the scope was installed
        return self._registry if self._registry is not None else get_telemetry().registry

    def _record(
        self,
        *,
        hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
        entries: int,
    ) -> None:
        """Publish one operation's metric deltas and occupancy snapshot.

        ``entries`` is the occupancy captured under ``self._lock`` by the
        caller — and every call site still *holds* the lock, so occupancy
        publications are ordered with cache state and concurrent fleet
        workers can never publish a stale (decreasing) gauge value.  The
        registry's own locks are leaf locks; no path leads back here.
        """
        registry = self._metrics()
        record_cache_traffic(registry, hits, misses, evictions)
        registry.gauge(
            "repro_cache_entries", help="Boot-artifact cache occupancy"
        ).set(entries)

    # -- raw access ----------------------------------------------------------

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
        disk_hit = False
        with self._lock:
            prepared = None if force_miss else self._entries.get(key)
            if prepared is not None:
                self._entries.move_to_end(key)
            elif self.disk is not None and not force_miss:
                prepared = self.disk.load(key)
                if prepared is not None:
                    disk_hit = True
                    self._entries[key] = prepared
                    self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            if prepared is None:
                self._misses += 1
            else:
                self._hits += 1
            self._disk_hits += 1 if disk_hit else 0
            self._evictions += evicted
            self._record(
                hits=1 if prepared is not None else 0,
                misses=1 if prepared is None else 0,
                evictions=evicted,
                entries=len(self._entries),
            )
        if scope is not None:
            scope.note(
                hits=1 if prepared is not None else 0,
                misses=1 if prepared is None else 0,
                evictions=evicted,
                disk_hits=1 if disk_hit else 0,
            )
        return prepared

    def insert(
        self, key: CacheKey, prepared: PreparedImage, scope: CacheScope | None = None
    ) -> None:
        """Add (or refresh) an entry, evicting LRU entries past the bound.

        Write-through: with a disk tier configured the entry also lands
        on disk (outside the lock — the tier's atomic rename makes
        concurrent writers safe).
        """
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
            self._record(evictions=evicted, entries=len(self._entries))
        if scope is not None and evicted:
            scope.note(evictions=evicted)
        if self.disk is not None:
            self.disk.store(key, prepared)

    def note_parse(self, scope: CacheScope | None = None) -> None:
        """Count one cold parse the cache could not serve."""
        with self._lock:
            self._parses += 1
        if scope is not None:
            scope.note(parses=1)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._record(entries=0)

    # -- the fleet-facing API --------------------------------------------------

    def get_or_parse(
        self,
        elf: ElfImage,
        mode: RandomizeMode,
        policy: RandomizationPolicy,
        seed_class: str = SEED_CLASS_PER_VM,
        scope: CacheScope | None = None,
    ) -> tuple[PreparedImage, bool]:
        """Serve the parse phase; returns ``(prepared, was_hit)``.

        On a miss the image is parsed cold and inserted; concurrent misses
        on the same key may parse twice, but content addressing makes the
        results interchangeable, so the race is benign.

        The randomize mode folds into the policy component: the symbol scan
        and FGKASLR inventory differ by mode, so each mode owns an entry.
        """
        digest = elf.digest
        key = CacheKey(
            image_digest=digest,
            policy=f"{mode}:{policy_fingerprint(policy)}",
            seed_class=seed_class,
        )
        prepared = self.lookup(key, scope=scope)
        if prepared is not None:
            return prepared, True
        fresh = prepare_image(elf, mode, digest=digest)
        self.note_parse(scope=scope)
        self.insert(key, fresh, scope=scope)
        return fresh, False

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                disk_hits=self._disk_hits,
                parses=self._parses,
            )
