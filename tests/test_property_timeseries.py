"""Property tests for the flight recorder (hypothesis).

The two laws every consumer of the windowed series leans on:

1. **Conservation** — for any sample stream (any timestamps, amounts,
   window width, ring capacity), the retained per-window counter deltas
   plus the evicted totals sum *exactly* to the cumulative total.  No
   event is lost to window boundaries, gaps, late clamping, or ring
   eviction.
2. **Tiling** — closed frames cover simulated time with no gaps and no
   overlaps: indices are contiguous from window 0 and each frame's
   ``end_ns`` equals its successor's ``start_ns``.

The recorder evicts frames as they close and only counts the empty gap
windows no listener sees, so it is also held to the frame-by-frame
``reference.ReferenceRecorder`` on streams short enough for the latter.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro.telemetry import TimeSeriesRecorder

SETTINGS = settings(max_examples=60, deadline=None)

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000_000),  # t_ns
        st.sampled_from(("a", "b", "c")),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=80,
)


@SETTINGS
@given(
    events=events,
    window_ns=st.integers(min_value=1, max_value=500_000),
    capacity=st.integers(min_value=1, max_value=16),
    advances=st.lists(
        st.integers(min_value=0, max_value=12_000_000), max_size=8
    ),
)
def test_counter_deltas_conserve_the_total(events, window_ns, capacity, advances):
    rec = TimeSeriesRecorder(window_ns=window_ns, capacity=capacity)
    cursor = 0
    feed = list(events)
    # interleave advances with the sample feed (out-of-order advances
    # exercise the late-sample clamp path)
    for i, (t_ns, name, amount) in enumerate(feed):
        rec.count(t_ns, name, amount)
        if advances and i % 3 == 2:
            rec.advance(advances[cursor % len(advances)])
            cursor += 1
    rec.close(max(t for t, _, _ in feed))

    expected: dict[str, int] = {}
    for _, name, amount in feed:
        expected[name] = expected.get(name, 0) + amount
    assert rec.totals() == expected

    windowed: dict[str, int] = dict(rec.evicted_totals())
    for frame in rec.windows():
        for name, entry in frame.counters.items():
            windowed[name] = windowed.get(name, 0) + entry["delta"]
    assert windowed == expected


@SETTINGS
@given(
    events=events,
    window_ns=st.integers(min_value=1, max_value=500_000),
    capacity=st.integers(min_value=4, max_value=64),
)
def test_windows_tile_simulated_time(events, window_ns, capacity):
    rec = TimeSeriesRecorder(window_ns=window_ns, capacity=capacity)
    for t_ns, name, amount in events:
        rec.count(t_ns, name, amount)
    horizon = max(t for t, _, _ in events)
    rec.close(horizon)

    frames = rec.windows()
    assert frames, "closing at the horizon must close at least one window"
    # contiguous indices; frame i spans exactly [i*w, (i+1)*w)
    first_index = frames[0].index
    if rec.dropped_windows == 0:
        assert first_index == 0
    for offset, frame in enumerate(frames):
        assert frame.index == first_index + offset
        assert frame.start_ns == frame.index * window_ns
        assert frame.end_ns == frame.start_ns + window_ns
    for left, right in zip(frames, frames[1:]):
        assert left.end_ns == right.start_ns  # no gap, no overlap
    # the closed span covers the horizon sample
    assert frames[-1].end_ns > horizon


@SETTINGS
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20_000),
            st.sampled_from(("a", "b", "c")),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=40,
    ),
    window_ns=st.integers(min_value=1, max_value=2_000),
    capacity=st.integers(min_value=1, max_value=16),
    advances=st.lists(st.integers(min_value=0, max_value=24_000), max_size=6),
    listen=st.booleans(),
)
def test_gap_counting_matches_the_frame_by_frame_reference(
    events, window_ns, capacity, advances, listen
):
    fast = TimeSeriesRecorder(window_ns=window_ns, capacity=capacity)
    slow = reference.ReferenceRecorder(window_ns=window_ns, capacity=capacity)
    heard: tuple[list, list] = ([], [])
    if listen:
        fast.on_window(heard[0].append)
        slow.on_window(heard[1].append)

    def agree() -> None:
        assert fast.to_json_dict() == slow.to_json_dict()
        assert fast.windows_closed == slow.windows_closed
        assert fast.dropped_windows == slow.dropped_windows
        assert fast.evicted_totals() == slow.evicted_totals()

    # the recorders must agree after every advance, so a gap that ends a
    # feed (no later sample) is compared too, not only the closed run
    pending = iter(advances)
    for t_ns, name, amount in events:
        fast.count(t_ns, name, amount)
        slow.count(t_ns, name, amount)
        t_advance = next(pending, None)
        if t_advance is not None:
            fast.advance(t_advance)
            slow.advance(t_advance)
            agree()
    horizon = max(t for t, _, _ in events)
    fast.close(horizon)
    slow.close(horizon)
    agree()
    # a listener still hears every window, in order
    assert heard[0] == heard[1]
    if listen:
        assert [f.index for f in heard[0]] == list(range(fast.windows_closed))


@pytest.mark.parametrize("capacity", [1, 16])
def test_long_gap_without_listeners_closes_in_bounded_time(capacity):
    rec = TimeSeriesRecorder(window_ns=1, capacity=capacity)
    rec.count(10_000_000, "a", 3)
    started = time.perf_counter()
    rec.close(10_000_000)
    assert time.perf_counter() - started < 1.0
    assert rec.windows_closed == 10_000_001
    assert rec.dropped_windows == 10_000_001 - capacity
    frames = rec.windows()
    assert [f.index for f in frames] == list(
        range(10_000_001 - capacity, 10_000_001)
    )
    assert frames[-1].counters["a"]["delta"] == 3
