"""Site plans: relocation sites split into runs once per kernel.

An FGKASLR layout moves each function section by its own delta, so a
sweep over a sorted site list must find a site's *window* — the moved
section holding it, or the unmoved gap after one (see
:meth:`~repro.core.layout_result.LayoutResult.windows`) — before it can
find the site's bytes.  The window bounds are the same for every boot of
one image (only the deltas are drawn per boot), so the split of a site
list into *runs* of sites that share a window is derived once per
kernel and window layout.  A boot then resolves each run's displacement
and memory chunk once, instead of bisecting at every section boundary.

A run also stays inside one 64 KiB-aligned block of link offsets, so it
seldom straddles a 256 KiB memory chunk (never, for an unmoved window of
an image loaded on a chunk boundary), and its sites ascend without
overlapping, so one ``struct`` format with pad bytes reads them all.

A plan may carry more of what every boot of the image shares: the
relocator's (:func:`~repro.core.relocator.relocation_plan`) also holds,
per class, each distinct link-time word at the sites and its window, so
a boot fills its fix memo from this boot's deltas alone.

Plans are shared by content, never by object identity: equal site lists
under equal window layouts (a fresh build of the same kernel, a fleet
worker's own parse of the relocs sidecar) find the same plan, and the
store holds none of the objects a plan was derived from.  A key names
big inputs by a digest their object computes once (a table's
``content_key``, an image's ``digest``), so a boot's lookup hashes the
window bounds, not every site.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Callable, Sequence, TypeVar

#: runs never leave one ``1 << RUN_SHIFT``-byte block of link offsets
RUN_SHIFT = 16
#: plans kept, the least recently used dropped first; a process boots few images
_MAX_PLANS = 16
_plans: dict = {}

P = TypeVar("P")


def shared(key, derive: Callable[[], P]) -> P:
    """The plan stored under content ``key``, derived on first use."""
    plan = _plans.pop(key, None)
    if plan is None:
        plan = derive()
        if len(_plans) >= _MAX_PLANS:
            del _plans[next(iter(_plans))]
    _plans[key] = plan
    return plan


def index_array(n: int) -> array:
    """An empty array wide enough for indices below ``n``."""
    return array("H" if n <= 0x10000 else "I")


def window_indices(vaddrs: Sequence[int], bounds: Sequence[int]) -> array:
    """The window of each link vaddr: ``bounds[j] <= v < bounds[j + 1]``."""
    out = index_array(len(bounds))
    out.extend(bisect_right(bounds, v) - 1 for v in vaddrs)
    return out


def split_runs(
    offsets: Sequence[int], width: int, bounds: Sequence[int], vbase: int
) -> tuple[array, array]:
    """Split ``width``-byte sites at image ``offsets`` into runs, in order.

    Returns ``(ends, windows)``: run ``r`` is ``offsets[ends[r - 1]:ends[r]]``
    (from 0 for the first run), every site of it lies in window
    ``windows[r]`` and in one 64 KiB block, and each site starts at or
    after the end of the one before it.
    """
    ends = array("I")
    windows = index_array(len(bounds))
    j = -1
    lo = hi = 0  # link vaddrs of window j
    block = nxt = -1
    for i, off in enumerate(offsets):
        v = vbase + off
        if not lo <= v < hi:
            k = bisect_right(bounds, v) - 1
            lo, hi = bounds[k], bounds[k + 1]
        else:
            k = j
        if k != j or off >> RUN_SHIFT != block or off < nxt:
            if i:
                ends.append(i)
                windows.append(j)
            j, block = k, off >> RUN_SHIFT
        nxt = off + width
    if offsets:
        ends.append(len(offsets))
        windows.append(j)
    return ends, windows
