"""Labeled metric instruments and the registry that owns them.

The paper reads every figure out of ``perf`` traces over repeated boots
(Section 5.1); at fleet scale (Section 6) that only works with counters
and histograms that survive a launch.  This module provides the three
instrument kinds the exporters understand:

* :class:`Counter`   — monotonically increasing event count;
* :class:`Gauge`     — last-written value (rates, cache occupancy);
* :class:`Histogram` — fixed log-scale nanosecond buckets plus an exact
  sample reservoir for nearest-rank p50/p90/p99.

Metrics are keyed by ``(name, frozenset(labels))`` inside a
:class:`MetricsRegistry`.  A registry is cheap and injectable: hand one
to every layer it should observe, for a whole run or a single fleet
launch; every instrument is thread-safe because fleet workers feed them
concurrently.

Naming convention: ``repro_<subsystem>_<name>_<unit>`` (counters end in
``_total`` per Prometheus convention).

Determinism: histograms observe **integer nanoseconds**, so bucket
counts, counts, and sums are independent of worker interleaving; two
seeded runs export byte-identical text as long as the sample multiset is
the same.  Reservoir eviction (only past ``reservoir_size`` samples) is
the one order-sensitive path, and the default reservoir is far larger
than any seeded test fleet.
"""

from __future__ import annotations

import bisect
import math
import random
import re
import threading
from dataclasses import dataclass

from repro.telemetry.stats import percentile

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: label sets are stored and exported in sorted-key order
Labels = tuple[tuple[str, str], ...]

#: fixed log-scale (1-2-5 decades) nanosecond bounds, 1 µs .. 100 s
DEFAULT_NS_BUCKETS: tuple[int, ...] = tuple(
    mantissa * 10**exponent
    for exponent in range(3, 11)
    for mantissa in (1, 2, 5)
)

#: raw-units-per-exported-unit divisor for ns observations shown in ms
#: (division keeps decade bounds exact: 50_000 / 1e6 == 0.05)
NS_PER_MS = 1e6

#: the percentiles the JSON exporter publishes for every histogram
RESERVOIR_PERCENTILES: tuple[float, ...] = (50.0, 90.0, 99.0)


def _check_labels(labels: dict[str, str]) -> Labels:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (rates, occupancy)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with an exact percentile reservoir.

    Observations are integer nanoseconds (or any integer unit); bucket
    upper bounds are inclusive, Prometheus ``le`` style.  ``scale`` is
    the raw-units-per-exported-unit divisor (e.g. ``NS_PER_MS`` when
    observations are ns but the metric name ends in ``_ms``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: tuple[int, ...] = DEFAULT_NS_BUCKETS,
        scale: float = 1.0,
        reservoir_size: int = 4096,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty list")
        if reservoir_size < 1:
            raise ValueError(f"reservoir needs at least one slot: {reservoir_size}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets)
        self.scale = scale
        self.reservoir_size = reservoir_size
        self._lock = threading.Lock()
        # one slot per bound plus the overflow (+Inf) slot
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0
        self._reservoir: list[int] = []
        # deterministic eviction stream; only consulted past the cap
        self._rng = random.Random(0x5EED)

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"histogram {self.name} observed negative {value}")
        with self._lock:
            self._bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
            self._count += 1
            self._sum += value
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.reservoir_size:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> int:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Per-bucket (non-cumulative) counts; last bound is ``+Inf``.

        The counts always sum to :attr:`count` — the exporters' property
        tests pin this invariant.
        """
        with self._lock:
            bounds = [float(b) for b in self.bounds] + [math.inf]
            return list(zip(bounds, list(self._bucket_counts)))

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``le`` buckets ending at ``+Inf``."""
        running = 0
        out = []
        for bound, count in self.bucket_counts():
            running += count
            out.append((bound, running))
        return out

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir, in raw units.

        A never-observed histogram reports 0.0 — the exporter snapshots
        every registered histogram, and "no observations yet" is ordinary
        there, unlike the undefined-empty-sample case in
        :func:`repro.telemetry.stats.percentile`.
        """
        with self._lock:
            samples = list(self._reservoir)
        if not samples:
            return 0.0
        return percentile(samples, q)

    @property
    def reservoir_dropped(self) -> int:
        """Observations no longer represented exactly by the reservoir.

        Zero until the reservoir saturates; past that, exactly
        ``count - reservoir_size`` — the number of samples the percentile
        estimate had to survive by random eviction.
        """
        with self._lock:
            return self._count - len(self._reservoir)

    @property
    def reservoir_saturated(self) -> bool:
        """True once percentiles are estimates rather than exact ranks."""
        return self.reservoir_dropped > 0


@dataclass(frozen=True)
class MetricPoint:
    """One labeled sample inside a family, ready for export."""

    labels: Labels
    value: float
    #: histogram-only extras (None for counters/gauges); bounds and sum
    #: are already in the exported unit (``scale`` applied)
    buckets: tuple[tuple[float, int], ...] | None = None
    count: int | None = None
    percentiles: tuple[tuple[str, float], ...] | None = None
    reservoir_size: int | None = None
    reservoir_dropped: int | None = None

    @property
    def reservoir_saturated(self) -> bool:
        """True when the reservoir evicted samples (percentiles inexact)."""
        return bool(self.reservoir_dropped)


@dataclass(frozen=True)
class MetricFamily:
    """Every sample sharing one metric name, kind, and help string."""

    name: str
    kind: str
    help: str
    points: tuple[MetricPoint, ...]


class ScopedRegistry:
    """A label-injecting view over a base registry.

    Every instrument handed out carries the scope's labels merged with
    the call-site labels (call-site wins on conflict, so a layer that
    already labels explicitly keeps doing so).  Instruments live in the
    *base* registry — a scope is a view, not a store — which is how
    `repro serve` keeps per-strategy metrics separated inside one shared
    snapshot: each strategy's monitor writes through its own scope, and
    families collect with a ``strategy`` label instead of bleeding into
    one unlabeled point.
    """

    def __init__(self, base: "MetricsRegistry", labels: dict[str, str]) -> None:
        self._base = base
        self._labels = {k: str(v) for k, v in labels.items()}
        _check_labels(self._labels)  # fail at scope creation, not first use

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._base.counter(name, help=help, **{**self._labels, **labels})

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._base.gauge(name, help=help, **{**self._labels, **labels})

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[int, ...] = DEFAULT_NS_BUCKETS,
        scale: float = 1.0,
        **labels: str,
    ) -> Histogram:
        return self._base.histogram(
            name, help=help, buckets=buckets, scale=scale,
            **{**self._labels, **labels},
        )

    def collect(self) -> tuple[MetricFamily, ...]:
        """The whole base registry — a scope filters writes, not reads."""
        return self._base.collect()


class MetricsRegistry:
    """Owns every instrument; hands out get-or-create labeled metrics.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    for ``(name, labels)`` or create it; asking for the same name with a
    different kind raises, because exporters publish one kind per family.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, Labels], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # -- instrument factories --------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help, labels, lambda key: Counter(name, key))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help, labels, lambda key: Gauge(name, key))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[int, ...] = DEFAULT_NS_BUCKETS,
        scale: float = 1.0,
        **labels: str,
    ) -> Histogram:
        return self._get(
            "histogram",
            name,
            help,
            labels,
            lambda key: Histogram(name, key, buckets=buckets, scale=scale),
        )

    def _get(self, kind, name, help, labels, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        key = (name, _check_labels(labels))
        with self._lock:
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {known}, not {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(key[1])
                self._metrics[key] = metric
                self._kinds[name] = kind
                if help:
                    self._help.setdefault(name, help)
            elif help:
                self._help.setdefault(name, help)
            return metric

    # -- snapshotting ----------------------------------------------------------

    def collect(self) -> tuple[MetricFamily, ...]:
        """A frozen, canonically ordered view of every family."""
        with self._lock:
            metrics = dict(self._metrics)
            kinds = dict(self._kinds)
            helps = dict(self._help)
        families: dict[str, list[MetricPoint]] = {}
        for (name, labels), metric in metrics.items():
            if isinstance(metric, Histogram):
                point = MetricPoint(
                    labels=labels,
                    value=metric.sum / metric.scale,
                    buckets=tuple(
                        (bound / metric.scale if bound != math.inf else math.inf, n)
                        for bound, n in metric.cumulative_buckets()
                    ),
                    count=metric.count,
                    percentiles=tuple(
                        (f"p{q:g}", metric.percentile(q) / metric.scale)
                        for q in RESERVOIR_PERCENTILES
                    ),
                    reservoir_size=metric.reservoir_size,
                    reservoir_dropped=metric.reservoir_dropped,
                )
            else:
                point = MetricPoint(labels=labels, value=metric.value)
            families.setdefault(name, []).append(point)
        return tuple(
            MetricFamily(
                name=name,
                kind=kinds[name],
                help=helps.get(name, ""),
                points=tuple(sorted(points, key=lambda p: p.labels)),
            )
            for name, points in sorted(families.items())
        )
