"""Fixed-width window aggregation over simulated time (the flight recorder).

The registry (:mod:`repro.telemetry.registry`) answers "what happened
over the whole run"; this module answers "what was happening *at minute
three*".  A :class:`TimeSeriesRecorder` slices the simulated clock into
fixed-width windows and aggregates three series kinds per window:

* **counters** — per-window delta and rate/s (``count``);
* **gauges**   — last written value and window max (``set_gauge``);
* **distributions** — per-window count, sum, and nearest-rank p50/p99
  (``observe``).

Time discipline: every sample carries its simulated timestamp, so the
recorder works for both wall-time axes in the tree — the fleet's
:class:`~repro.simtime.fleetclock.FleetWallClock` windows and the serve
engine's event-loop ``now``.  ``advance(t_ns)`` closes every window
strictly before ``t``; ``close(horizon_ns)`` closes through the horizon
at end of run.  Closed windows **tile**: indices are contiguous from
window 0, and gap windows close as empty frames, so
``frame[i].end_ns == frame[i+1].start_ns`` always (the hypothesis
property test pins this).

Bounded memory: at most ``capacity`` closed frames are retained ring-
buffer style, and each frame is evicted as it closes.  Eviction is
*accounted*, never silent: ``dropped_windows`` counts evicted frames and
their counter deltas accumulate into the ``evicted`` totals, preserving
the conservation law the property test pins — ``sum(retained deltas) +
evicted == cumulative total`` per series.  With no ``on_window``
listener, a run of empty gap windows that would leave the ring anyway is
only counted, so closing a gap costs O(``capacity``), not O(gap).

Determinism: JSON export (:meth:`TimeSeriesRecorder.to_json_dict`) is a
pure function of the sample stream — sorted series names, fixed float
rounding — so seeded runs serialize byte-identically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.telemetry.stats import percentile

__all__ = ["EXEMPLAR_K", "TimeSeriesRecorder", "WindowFrame"]

SCHEMA_VERSION = 1

_NS_PER_MS = 1e6

#: the per-window distribution percentiles the exporters publish
WINDOW_PERCENTILES: tuple[float, ...] = (50.0, 99.0)

#: slowest exemplar trace ids kept per (window, distribution)
EXEMPLAR_K = 3


class _Accum:
    """Mutable per-window aggregation state (one open window)."""

    __slots__ = ("counters", "gauges", "dists", "exemplars")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, tuple[float, float]] = {}  # (last, max)
        self.dists: dict[str, list[float]] = {}
        #: name -> [(value, trace_id)] for samples that carried an exemplar
        self.exemplars: dict[str, list[tuple[float, str]]] = {}


@dataclass(frozen=True)
class WindowFrame:
    """One closed window: everything that happened in [start, end)."""

    index: int
    start_ns: int
    end_ns: int
    #: name -> {"delta": int, "rate_per_s": float}
    counters: dict
    #: name -> {"last": float, "max": float}
    gauges: dict
    #: name -> {"count": int, "sum": float, "p50": float, "p99": float}
    distributions: dict

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.distributions)

    def value(self, series: str, field: str) -> float | None:
        """Pull one field of one series; None when the series is absent.

        Fields: counters ``delta``/``rate`` (alias ``rate_per_s``),
        gauges ``last``/``max``, distributions ``count``/``sum``/
        ``p50``/``p99``.  Alert rules read through this accessor so a
        rule is just (series, field, op, threshold).
        """
        if series in self.counters:
            key = "rate_per_s" if field in ("rate", "rate_per_s") else field
            return self.counters[series].get(key)
        if series in self.gauges:
            return self.gauges[series].get(field)
        if series in self.distributions:
            return self.distributions[series].get(field)
        return None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "start_ms": round(self.start_ns / _NS_PER_MS, 6),
            "end_ms": round(self.end_ns / _NS_PER_MS, 6),
            "counters": {
                name: dict(entry) for name, entry in sorted(self.counters.items())
            },
            "gauges": {
                name: dict(entry) for name, entry in sorted(self.gauges.items())
            },
            "distributions": {
                name: dict(entry)
                for name, entry in sorted(self.distributions.items())
            },
        }


class TimeSeriesRecorder:
    """Sim-time windowed aggregation with a ring-buffer frame cap."""

    def __init__(self, window_ns: int, capacity: int = 256) -> None:
        window_ns = int(window_ns)
        if window_ns < 1:
            raise ValueError(f"window must be >= 1 ns: {window_ns}")
        if capacity < 1:
            raise ValueError(f"frame capacity must be >= 1: {capacity}")
        self.window_ns = window_ns
        self.capacity = capacity
        self._lock = threading.Lock()
        self._open: dict[int, _Accum] = {}
        self._frames: list[WindowFrame] = []
        #: lowest window index not yet closed (windows close in order)
        self._next_index = 0
        self._closed = 0
        self._dropped = 0
        self._late = 0
        self._totals: dict[str, int] = {}
        self._evicted: dict[str, int] = {}
        self._listeners: list[Callable[[WindowFrame], None]] = []

    # -- sampling --------------------------------------------------------------

    def _accum(self, t_ns: int) -> _Accum:
        index = int(t_ns) // self.window_ns
        if index < self._next_index:
            # a sample landed in an already-closed window (out-of-order
            # feed); fold it into the oldest still-open window so the
            # conservation law survives, and account the clamp
            self._late += 1
            index = self._next_index
        accum = self._open.get(index)
        if accum is None:
            accum = self._open[index] = _Accum()
        return accum

    def count(self, t_ns: int, name: str, amount: int = 1) -> None:
        """Add ``amount`` events to counter ``name`` at instant ``t``."""
        amount = int(amount)
        if amount < 0:
            raise ValueError(f"counter {name} cannot decrease: {amount}")
        if amount == 0:
            return
        with self._lock:
            accum = self._accum(t_ns)
            accum.counters[name] = accum.counters.get(name, 0) + amount
            self._totals[name] = self._totals.get(name, 0) + amount

    def set_gauge(self, t_ns: int, name: str, value: float) -> None:
        """Record gauge ``name``'s value at instant ``t`` (last + max)."""
        value = float(value)
        with self._lock:
            accum = self._accum(t_ns)
            previous = accum.gauges.get(name)
            peak = value if previous is None else max(previous[1], value)
            accum.gauges[name] = (value, peak)

    def observe(
        self, t_ns: int, name: str, value: float, exemplar: str | None = None
    ) -> None:
        """Add one sample to distribution ``name`` at instant ``t``.

        ``exemplar`` optionally attaches a trace id to the sample; the
        window keeps the :data:`EXEMPLAR_K` largest-valued exemplars, so
        a latency histogram window links straight to its slowest span
        trees.  Windows without exemplars serialize exactly as before.
        """
        with self._lock:
            accum = self._accum(t_ns)
            accum.dists.setdefault(name, []).append(float(value))
            if exemplar is not None:
                accum.exemplars.setdefault(name, []).append(
                    (float(value), str(exemplar))
                )

    # -- window lifecycle ------------------------------------------------------

    def on_window(self, listener: Callable[[WindowFrame], None]) -> None:
        """Register a close-time hook (alert evaluation rides on this)."""
        self._listeners.append(listener)

    def advance(self, t_ns: int) -> None:
        """Close every window strictly before ``t`` (event-loop hook)."""
        self._close_through(int(t_ns) // self.window_ns - 1)

    def close(self, horizon_ns: int) -> None:
        """End of run: close windows through the horizon's window.

        Also flushes any straggler open windows past the horizon, so no
        sample is ever lost between runs of different lengths.
        """
        target = int(horizon_ns) // self.window_ns
        with self._lock:
            if self._open:
                target = max(target, max(self._open))
        self._close_through(target)

    def _close_through(self, last_index: int) -> None:
        closing: list[WindowFrame] = []
        with self._lock:
            while self._next_index <= last_index:
                index = self._next_index
                if not self._listeners and index not in self._open:
                    # empty windows up to the next open one (open windows
                    # never precede ``_next_index``): all but the last
                    # ``capacity`` would be evicted unseen, so count them
                    gap_end = min(self._open, default=last_index + 1)
                    unseen = min(gap_end, last_index + 1) - index - self.capacity
                    if unseen > 0:
                        self._next_index += unseen
                        self._closed += unseen
                        self._dropped += unseen
                        continue
                self._next_index += 1
                accum = self._open.pop(index, None) or _Accum()
                frame = self._freeze(index, accum)
                self._frames.append(frame)
                self._closed += 1
                if len(self._frames) > self.capacity:
                    evicted = self._frames.pop(0)
                    self._dropped += 1
                    for name, entry in evicted.counters.items():
                        self._evicted[name] = (
                            self._evicted.get(name, 0) + entry["delta"]
                        )
                if self._listeners:
                    closing.append(frame)
        # listeners run outside the lock, in window-index order
        for frame in closing:
            for listener in self._listeners:
                listener(frame)

    def _freeze(self, index: int, accum: _Accum) -> WindowFrame:
        seconds = self.window_ns / 1e9
        counters = {
            name: {"delta": delta, "rate_per_s": round(delta / seconds, 6)}
            for name, delta in sorted(accum.counters.items())
        }
        gauges = {
            name: {"last": round(last, 4), "max": round(peak, 4)}
            for name, (last, peak) in sorted(accum.gauges.items())
        }
        dists = {}
        for name, values in sorted(accum.dists.items()):
            entry = {"count": len(values), "sum": round(sum(values), 4)}
            for q in WINDOW_PERCENTILES:
                entry[f"p{q:g}"] = round(percentile(values, q), 4)
            samples = accum.exemplars.get(name)
            if samples:
                # largest value first; insertion order breaks ties so the
                # pick is deterministic for seeded runs
                ranked = sorted(
                    enumerate(samples), key=lambda iv: (-iv[1][0], iv[0])
                )[:EXEMPLAR_K]
                entry["exemplars"] = [
                    {"trace_id": trace_id, "value": round(value, 4)}
                    for _, (value, trace_id) in ranked
                ]
            dists[name] = entry
        return WindowFrame(
            index=index,
            start_ns=index * self.window_ns,
            end_ns=(index + 1) * self.window_ns,
            counters=counters,
            gauges=gauges,
            distributions=dists,
        )

    # -- views -----------------------------------------------------------------

    def windows(self) -> tuple[WindowFrame, ...]:
        """Retained closed frames, oldest first (post-eviction view)."""
        with self._lock:
            return tuple(self._frames)

    @property
    def windows_closed(self) -> int:
        with self._lock:
            return self._closed

    @property
    def dropped_windows(self) -> int:
        with self._lock:
            return self._dropped

    def totals(self) -> dict[str, int]:
        """Cumulative counter totals over the recorder's whole lifetime."""
        with self._lock:
            return dict(self._totals)

    def evicted_totals(self) -> dict[str, int]:
        """Counter deltas that rode out of the ring with evicted frames."""
        with self._lock:
            return dict(self._evicted)

    def to_json_dict(self) -> dict:
        """Byte-stable export: a pure function of the sample stream."""
        with self._lock:
            return {
                "schema_version": SCHEMA_VERSION,
                "window_ms": round(self.window_ns / _NS_PER_MS, 6),
                "windows_closed": self._closed,
                "dropped_windows": self._dropped,
                "late_samples": self._late,
                "totals": {
                    name: self._totals[name] for name in sorted(self._totals)
                },
                "evicted": {
                    name: self._evicted[name] for name in sorted(self._evicted)
                },
                "windows": [frame.to_json() for frame in self._frames],
            }
