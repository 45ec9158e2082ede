"""Deterministic cost-attribution profiler.

The paper produces its Figure 5/6 breakdowns from ftrace-style
tracepoints; the reproduction's equivalent is this module.  A
:class:`CostProfiler` attributes **every simulated nanosecond** of a boot
to a context stack

    boot id -> pipeline stage -> principal -> charge kind

where the charge kind is the :class:`~repro.simtime.costs.CostModel`
method that produced the cost (``disk_read``, ``reloc_apply``,
``kernel_mem_init``, ...; see :data:`repro.simtime.costs.CHARGE_KINDS`).

Mechanics — a fold over the boot's one record:

* every clock charge (:meth:`repro.simtime.clock.SimClock.charge`)
  carries the ``(kind, raw ns)`` records of the cost methods it paid for
  on its :class:`~repro.simtime.trace.TraceEvent`;
* :func:`repro.monitor.vmm.record_boot` hands the profiler each boot's
  ``(boot id, timeline)`` (standalone boots, fleet replays and restores
  alike), and the profile folds them when read: an event belongs to the
  pipeline stage whose span holds its position, and its **rounded**
  duration is apportioned across its records by largest remainder.

Because the fold splits the clock's own integer durations, the profile's
totals equal the clock's elapsed time *exactly* — rounding, combined
charges (several cost calls paid by one clock charge), and charges with
no cost call at all (attributed as ``uncosted.<step>``) are all covered
by construction.  Events after the last span (module loads, snapshot
capture) fall outside any boot; on an aborted timeline they belong to
the aborted stage, which also gets a zero-ns ``aborted.<stage>`` cell.

The fold reads timelines when the profile is rendered, so charges made
on a boot's clock after its boot returned still count; cells are sums
and every renderer emits canonically sorted output, making seeded runs
byte-identical regardless of thread or process interleaving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simtime.trace import Timeline

#: frame placeholders for charges outside a boot / pipeline stage
NO_BOOT = "-"
NO_STAGE = "(outside-pipeline)"
NO_PRINCIPAL = "-"
#: kind prefix for clock charges no cost method produced
UNCOSTED_PREFIX = "uncosted."
#: kind prefix of the zero-ns cell an aborted stage gets
ABORTED_PREFIX = "aborted."

NS_PER_MS = 1e6


@dataclass(frozen=True)
class ChargeKey:
    """One attribution cell's identity."""

    boot_id: str
    stage: str
    principal: str
    kind: str

    def folded(self, with_boot: bool) -> str:
        parts = [self.stage, self.principal, self.kind]
        if with_boot:
            parts.insert(0, self.boot_id)
        return ";".join(parts)


def _apportion(
    pending: list[tuple[str, float]], total_ns: int
) -> list[tuple[str, int]]:
    """Split ``total_ns`` across pending costs by largest remainder.

    Deterministic (ties break on list order) and exact: the integer
    shares always sum to ``total_ns``.
    """
    weights = [max(0.0, ns) for _, ns in pending]
    weight_sum = sum(weights)
    if weight_sum <= 0.0:
        # all-zero costs (e.g. a zero-byte memcpy): first kind takes all
        shares = [0] * len(pending)
        shares[0] = total_ns
        return [(kind, share) for (kind, _), share in zip(pending, shares)]
    exact = [total_ns * w / weight_sum for w in weights]
    shares = [int(e) for e in exact]
    remainder = total_ns - sum(shares)
    by_fraction = sorted(
        range(len(pending)), key=lambda i: (-(exact[i] - shares[i]), i)
    )
    for i in by_fraction[:remainder]:
        shares[i] += 1
    return [(kind, share) for (kind, _), share in zip(pending, shares)]


class _Fold:
    """Cells and per-boot totals of one pass over the recorded timelines."""

    def __init__(self) -> None:
        #: ChargeKey -> [ns_total, call_count]
        self.cells: dict[ChargeKey, list[int]] = {}
        #: boot id -> attributed ns
        self.boot_ns: dict[str, int] = {}

    def charge(
        self,
        owner: tuple[str, str, str],
        ns: int,
        records: tuple[tuple[str, float], ...],
        step: object,
    ) -> None:
        """Split one clock charge's ``ns`` across the records it paid for."""
        boot = owner[0]
        self.boot_ns[boot] = self.boot_ns.get(boot, 0) + ns
        if records:
            shares = _apportion(records, ns)
        else:
            shares = [(UNCOSTED_PREFIX + str(step), ns)]
        for kind, share in shares:
            cell = self.cells.setdefault(ChargeKey(*owner, kind), [0, 0])
            cell[0] += share
            cell[1] += 1

    def timeline(self, boot_id: str, timeline: "Timeline") -> None:
        events = timeline.events
        start = 0
        for span, end in zip(timeline.spans, timeline.span_ends):
            owner = (boot_id, span.name, span.principal)
            for event in events[start:end]:
                self.charge(owner, event.duration_ns, event.costs, event.step)
            start = end
        owner = (NO_BOOT, NO_STAGE, NO_PRINCIPAL)
        if timeline.aborted is not None:
            stage, principal, unpaid = timeline.aborted
            owner = (boot_id, stage, principal)
            marker = (ABORTED_PREFIX + stage, 0.0)
            self.charge(owner, 0, unpaid + (marker,), stage)
        for event in events[start:]:
            self.charge(owner, event.duration_ns, event.costs, event.step)

    def sorted_cells(self) -> list[tuple[ChargeKey, int, int]]:
        items = [(k, v[0], v[1]) for k, v in self.cells.items()]
        items.sort(key=lambda item: (
            item[0].boot_id, item[0].stage, item[0].principal, item[0].kind
        ))
        return items


class CostProfiler:
    """Folds boot timelines into exact per-(boot, stage, principal, kind)
    attributions.

    Request one with ``Telemetry(profiler=CostProfiler())``; every boot
    and restore recorded into that telemetry is then profiled.
    """

    def __init__(self) -> None:
        self._boots: list[tuple[str, "Timeline"]] = []

    def add(self, boot_id: str, timeline: "Timeline") -> None:
        """Profile ``timeline`` under ``boot_id`` (folded when read)."""
        self._boots.append((boot_id, timeline))

    def _fold(self) -> _Fold:
        fold = _Fold()
        for boot_id, timeline in self._boots:
            fold.timeline(boot_id, timeline)
        return fold

    # -- accessors -------------------------------------------------------------

    def boot_ids(self) -> list[str]:
        return sorted(self._fold().boot_ns)

    def total_ns(self, boot_id: str | None = None) -> int:
        """Attributed ns for one boot (or across every boot)."""
        boot_ns = self._fold().boot_ns
        if boot_id is None:
            return sum(boot_ns.values())
        return boot_ns.get(boot_id, 0)

    def cells(self) -> list[tuple[ChargeKey, int, int]]:
        """Every attribution cell as (key, ns, count), canonically sorted."""
        return self._fold().sorted_cells()

    # -- renderers -------------------------------------------------------------

    def to_folded(self, per_boot: bool = False) -> str:
        """Flamegraph-compatible folded stacks (``stack ns`` lines).

        By default boots are aggregated (the fleet view a flamegraph
        wants); ``per_boot=True`` keeps one stack family per boot id.
        Output is canonically sorted, so seeded runs are byte-identical.
        """
        merged: dict[str, int] = {}
        for key, ns, _count in self.cells():
            stack = key.folded(with_boot=per_boot)
            merged[stack] = merged.get(stack, 0) + ns
        return "".join(
            f"{stack} {ns}\n" for stack, ns in sorted(merged.items())
        )

    def to_json(self) -> str:
        """Machine-readable dump: per-boot totals plus every cell."""
        fold = self._fold()
        boots: dict[str, dict] = {}
        kinds: dict[str, int] = {}
        for key, ns, count in fold.sorted_cells():
            entry = boots.setdefault(
                key.boot_id, {"total_ns": fold.boot_ns[key.boot_id], "cells": []}
            )
            entry["cells"].append(
                {
                    "stage": key.stage,
                    "principal": key.principal,
                    "kind": key.kind,
                    "ns": ns,
                    "calls": count,
                }
            )
            kinds[key.kind] = kinds.get(key.kind, 0) + ns
        payload = {
            "total_ns": sum(fold.boot_ns.values()),
            "boots": boots,
            "kinds_ns": dict(sorted(kinds.items())),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        """Self/cumulative text tables over the aggregated boots."""
        fold = self._fold()
        total = sum(fold.boot_ns.values())
        if total == 0:
            return "no attributed cost (profiler saw no charges)\n"
        n_boots = len([b for b in fold.boot_ns if b != NO_BOOT]) or 1

        # self time per (stage, principal, kind), aggregated over boots
        self_rows: dict[tuple[str, str, str], list[int]] = {}
        stage_rows: dict[tuple[str, str], int] = {}
        for key, ns, count in fold.sorted_cells():
            cell = self_rows.setdefault(
                (key.stage, key.principal, key.kind), [0, 0]
            )
            cell[0] += ns
            cell[1] += count
            stage_key = (key.stage, key.principal)
            stage_rows[stage_key] = stage_rows.get(stage_key, 0) + ns

        lines = [
            f"cost attribution: {total / NS_PER_MS:.3f} ms "
            f"across {n_boots} boot(s)",
            "",
            "-- self time by charge kind --",
            f"{'stage':<20} {'principal':<9} {'kind':<24} "
            f"{'ms':>12} {'%':>6} {'calls':>7}",
        ]
        ordered = sorted(
            self_rows.items(), key=lambda item: (-item[1][0], item[0])
        )
        for (stage, principal, kind), (ns, count) in ordered:
            lines.append(
                f"{stage:<20} {principal:<9} {kind:<24} "
                f"{ns / NS_PER_MS:>12.3f} {100.0 * ns / total:>5.1f}% "
                f"{count:>7}"
            )
        lines += [
            "",
            "-- cumulative by stage --",
            f"{'stage':<20} {'principal':<9} {'ms':>12} {'%':>6}",
        ]
        for (stage, principal), ns in sorted(
            stage_rows.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(
                f"{stage:<20} {principal:<9} "
                f"{ns / NS_PER_MS:>12.3f} {100.0 * ns / total:>5.1f}%"
            )
        return "\n".join(lines) + "\n"

    def render(self, fmt: str, per_boot: bool = False) -> str:
        """Dispatch on an output format name: folded | json | table."""
        if fmt == "folded":
            return self.to_folded(per_boot=per_boot)
        if fmt == "json":
            return self.to_json()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown profile format: {fmt!r}")
