"""The simulated clock.

A :class:`SimClock` is the single source of time for one boot.  Subsystems
charge durations (computed by :class:`~repro.simtime.costs.CostModel`) with
a category and step, and the clock records them on a
:class:`~repro.simtime.trace.Timeline` while advancing ``now_ns``.  Each
recorded event carries the cost records its charge paid for, which is
what the cost profile (:mod:`repro.telemetry.profiler`) folds.
"""

from __future__ import annotations

from repro.simtime.costs import take_pending_costs
from repro.simtime.trace import BootCategory, BootStep, Timeline, TraceEvent


class SimClock:
    """Monotonic simulated clock with per-boot trace recording."""

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = int(start_ns)
        self.timeline = Timeline()
        # costs computed before this clock existed are no charge of its own
        take_pending_costs()

    @property
    def now_ns(self) -> int:
        return self._now_ns

    @property
    def now_ms(self) -> float:
        return self._now_ns / 1e6

    def charge(
        self,
        duration_ns: float,
        category: BootCategory,
        step: BootStep,
        label: str = "",
    ) -> TraceEvent:
        """Record ``duration_ns`` of simulated work and advance the clock.

        Durations are rounded to whole nanoseconds; negative durations are
        rejected because simulated time is monotonic.  The event carries
        the cost records made on this thread since its previous charge.
        """
        ns = int(round(duration_ns))
        if ns < 0:
            raise ValueError(f"cannot charge negative time: {duration_ns}")
        event = TraceEvent(
            start_ns=self._now_ns,
            duration_ns=ns,
            category=category,
            step=step,
            label=label,
            costs=take_pending_costs(),
        )
        self.timeline.append(event)
        self._now_ns += ns
        return event

    def abort(self, stage: str, principal: str) -> None:
        """Mark the timeline aborted in ``stage``, with its unpaid costs."""
        self.timeline.aborted = (stage, principal, take_pending_costs())

    def elapsed_ms(self) -> float:
        """Total simulated milliseconds since the clock was created."""
        return self._now_ns / 1e6
