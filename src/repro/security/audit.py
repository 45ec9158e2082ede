"""Live KASLR entropy auditing: is the fleet actually diverse?

The paper's headline trade-off (Sections 4.3 and 6) is that snapshot
restores clone one randomized layout across every instance — the fleet
*looks* randomized per boot but every leaked address stays valid on
every clone.  Nothing in the cumulative metrics watches that property;
this module is the sink that does.

:class:`KaslrAuditor` fingerprints every produced instance's
:class:`~repro.core.layout_result.LayoutResult` (a short digest over the
virtual offset and the FGKASLR move map) and maintains, per production
strategy:

* **distinct-layout fraction** — distinct digests / boots.  Cold boots
  and rebase-on-restore hold ~1.0; plain restore collapses toward
  ``1/pool_size`` (the zygote's single layout, re-served);
* **duplicate detections** — boots whose digest was already live;
* **empirical entropy bits** — Shannon entropy of the observed layout
  distribution (a fleet of clones reads ~0 bits regardless of per-boot
  KASLR), computed from a histogram of digest counts so each record
  costs the number of distinct counts, not the number of boots so far;
* **address-validity lifetime** — per digest, how long a leaked address
  would have stayed correct: from the digest's first appearance to the
  last instant an instance carrying it was observed alive (the
  :mod:`repro.security.attacks` model's window of opportunity —
  ``touch`` extends it on every lease, completion, and eviction).

The auditor adds zero simulated time (it never touches a clock) and is
feed-order deterministic, so its JSON export is byte-stable for seeded
runs and a run without an auditor is bit-for-bit unchanged.
"""

from __future__ import annotations

import hashlib
import math
import threading

from repro.core.layout_result import LayoutResult

__all__ = ["KaslrAuditor", "layout_digest"]

SCHEMA_VERSION = 1

_NS_PER_MS = 1e6


def layout_digest(layout: LayoutResult) -> str:
    """A short, stable fingerprint of one randomized layout.

    Covers exactly what an attacker's leaked address depends on: the
    KASLR virtual offset and the FGKASLR section move map.  Two boots
    share a digest iff every kernel address resolves identically.
    """
    h = hashlib.sha256()
    h.update(str(layout.voffset).encode())
    for start, size, delta in layout.moved:
        h.update(f"|{start},{size},{delta}".encode())
    return h.hexdigest()[:16]


class _StrategyAudit:
    """Per-strategy accounting (one production strategy's layouts)."""

    __slots__ = ("boots", "duplicates", "digests", "counts", "by_count")

    def __init__(self) -> None:
        self.boots = 0
        self.duplicates = 0
        #: digest -> [first_seen_ns, last_seen_ns]
        self.digests: dict[str, list[int]] = {}
        #: digest -> boots observed with it (the entropy sample weights)
        self.counts: dict[str, int] = {}
        #: boot count -> digests observed exactly that many times
        self.by_count: dict[int, int] = {}

    def add(self, digest: str) -> None:
        """One more boot carried ``digest``: O(1) on both tallies."""
        before = self.counts.get(digest, 0)
        self.counts[digest] = before + 1
        by_count = self.by_count
        if before:
            if by_count[before] == 1:
                del by_count[before]
            else:
                by_count[before] -= 1
        by_count[before + 1] = by_count.get(before + 1, 0) + 1

    def entropy_bits(self) -> float:
        """Shannon entropy (bits) of the observed layout distribution.

        One term per distinct count in :attr:`by_count`: one for an
        all-distinct fleet, at most the sample-table size under serve's
        cyclic replay, never more than ``sqrt(2 * boots)``.  Nothing is
        carried between records, so every prefix is summed afresh and a
        dyadic distribution (each ``p`` a power of two) reads exactly.
        """
        entropy = 0.0
        for count, digests in self.by_count.items():
            p = count / self.boots
            entropy -= digests * (p * math.log2(p))
        return entropy


class KaslrAuditor:
    """Fingerprints every boot's layout and keeps live diversity metrics."""

    def __init__(self, telemetry=None) -> None:
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._strategies: dict[str, _StrategyAudit] = {}
        #: (metric name, strategy) -> instrument, resolved on first use
        self._instruments: dict[tuple[str, str], object] = {}

    # -- feeding ---------------------------------------------------------------

    def record(
        self,
        boot_id: str,
        *,
        strategy: str,
        t_ns: int,
        layout: LayoutResult | None = None,
        digest: str | None = None,
    ) -> str:
        """One instance came up at ``t_ns`` carrying ``layout``.

        Accepts either the live :class:`LayoutResult` or a pre-computed
        digest (the serve backend fingerprints at sampling time so the
        event loop stays arithmetic-only).  Returns the digest so
        callers can ``touch`` it later.
        """
        if digest is None:
            if layout is None:
                raise ValueError(f"boot {boot_id!r}: need a layout or a digest")
            digest = layout_digest(layout)
        t = int(t_ns)
        with self._lock:
            audit = self._strategies.setdefault(strategy, _StrategyAudit())
            audit.boots += 1
            duplicate = digest in audit.digests
            if duplicate:
                audit.duplicates += 1
                span = audit.digests[digest]
                span[1] = max(span[1], t)
            else:
                audit.digests[digest] = [t, t]
            audit.add(digest)
            distinct = len(audit.digests)
            boots = audit.boots
            entropy = audit.entropy_bits()
        self._export(strategy, boots, distinct, entropy, duplicate)
        return digest

    def touch(self, strategy: str, digest: str, t_ns: int) -> None:
        """An instance carrying ``digest`` was observed alive at ``t_ns``.

        Extends the digest's address-validity lifetime; unknown digests
        are ignored (an instance that predates the auditor).
        """
        with self._lock:
            audit = self._strategies.get(strategy)
            if audit is None:
                return
            span = audit.digests.get(digest)
            if span is not None:
                span[1] = max(span[1], int(t_ns))

    def _export(
        self,
        strategy: str,
        boots: int,
        distinct: int,
        entropy: float,
        duplicate: bool,
    ) -> None:
        if self.telemetry is None:
            return
        self._metric(
            "counter",
            "repro_audit_boots_total",
            "Boots fingerprinted by the KASLR auditor",
            strategy,
        ).inc()
        if duplicate:
            self._metric(
                "counter",
                "repro_audit_duplicate_layouts_total",
                "Boots that came up with an already-live layout",
                strategy,
            ).inc()
        self._metric(
            "gauge",
            "repro_audit_distinct_layout_fraction",
            "Distinct layout digests / boots (1.0 = fully diverse)",
            strategy,
        ).set(round(distinct / boots, 6))
        self._metric(
            "gauge",
            "repro_audit_entropy_bits",
            "Shannon entropy of the observed layout distribution",
            strategy,
        ).set(round(entropy, 4))

    def _metric(self, kind: str, name: str, help_text: str, strategy: str):
        """The strategy's instrument ``name``, resolved on first use.

        Lazy, so the duplicate counter still appears only once a
        duplicate does; cached, so the registry validates and sorts the
        labels once per strategy instead of once per record.  Two threads
        racing here both get the registry's one instrument.
        """
        key = (name, strategy)
        metric = self._instruments.get(key)
        if metric is None:
            factory = getattr(self.telemetry.registry, kind)
            metric = self._instruments[key] = factory(
                name, help=help_text, strategy=strategy
            )
        return metric

    # -- reading ---------------------------------------------------------------

    def distinct_fraction(self, strategy: str) -> float:
        with self._lock:
            audit = self._strategies[strategy]
            return len(audit.digests) / audit.boots

    def to_json_dict(self) -> dict:
        """Byte-stable audit report, one entry per strategy."""
        with self._lock:
            strategies = {}
            for name in sorted(self._strategies):
                audit = self._strategies[name]
                lifetimes_ns = [
                    last - first for first, last in audit.digests.values()
                ]
                strategies[name] = {
                    "boots": audit.boots,
                    "distinct_layouts": len(audit.digests),
                    "distinct_fraction": round(
                        len(audit.digests) / audit.boots, 6
                    ),
                    "duplicates": audit.duplicates,
                    "entropy_bits": round(audit.entropy_bits(), 4),
                    "lifetime_ms": {
                        "mean": round(
                            sum(lifetimes_ns)
                            / len(lifetimes_ns)
                            / _NS_PER_MS,
                            4,
                        ),
                        "max": round(max(lifetimes_ns) / _NS_PER_MS, 4),
                    },
                }
        return {"schema_version": SCHEMA_VERSION, "strategies": strategies}
