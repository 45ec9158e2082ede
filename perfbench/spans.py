"""In-memory spans around the library's entry points, for the traced run.

The traced run wraps entry points from outside the program: each wrapper
replaces a module or class attribute at the place the program looks it
up, times the call with ``perf_counter_ns`` and appends one span record.
A span is ``(span id, parent id, operation id, name, start ns, end ns,
count, ok)``: the parent is the innermost open span on the calling
thread, the operation id names the benchmark operation (one boot, one
serve call, one fleet launch, or one set-up) that the call ran under,
and ``count`` is the unit of work the entry point reports (relocations,
bytes, arrivals, ...).  Spans stay in memory until the run ends.

Wrappers record nothing outside an open operation, and nothing in a
forked worker process, so helper calls between operations and the fleet's
worker-side layers add no spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

_now = time.perf_counter_ns

#: indices into a span record
SID, PARENT, OP, NAME, START, END, COUNT, OK = range(8)


class SpanRecorder:
    """Collects spans from wrapped entry points while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        #: (owner, attribute, original value) per installed wrapper
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op_id: str, name: str = "op"):
        """Open the root span of one operation; wrapped calls nest under it."""
        stack = self._stack()
        sid = next(self._ids)
        self.op = op_id
        stack.append(sid)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            stack.pop()
            self.spans.append((sid, None, op_id, name, start, end, 0, True))
            self.op = None

    def timed(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        count: Callable[[tuple, dict, object], int] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``name`` may derive from the arguments."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None or os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = stack[-1] if stack else None
            sid = next(rec._ids)
            stack.append(sid)
            ok = False
            start = _now()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = _now()
                stack.pop()
                rec.spans.append(
                    (
                        sid,
                        parent,
                        rec.op,
                        name if isinstance(name, str) else name(args),
                        start,
                        end,
                        count(args, kwargs, result) if ok and count else 0,
                        ok,
                    )
                )
            return result

        return wrapper

    def timed_context(self, enter_name: str, exit_name: str, fn: Callable) -> Callable:
        """Wrap a context-manager factory: enter and exit become two spans."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedContext(rec, fn(*args, **kwargs), enter_name, exit_name)

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; undone by :meth:`unpatch`.

        Class attributes keep their descriptor kind: a classmethod stays a
        classmethod around the wrapped function.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span": span[SID],
                            "parent": span[PARENT],
                            "op": span[OP],
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "count": span[COUNT],
                            "ok": span[OK],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class _TimedContext:
    def __init__(self, rec: SpanRecorder, inner, enter_name: str, exit_name: str) -> None:
        self._rec = rec
        self._inner = inner
        self._enter_name = enter_name
        self._exit_name = exit_name

    def __enter__(self):
        return self._rec.timed(self._enter_name, self._inner.__enter__)()

    def __exit__(self, *exc_info):
        return self._rec.timed(self._exit_name, self._inner.__exit__)(*exc_info)


def self_times(spans: Iterable[tuple]) -> dict[int, int]:
    """Span id -> its duration minus the durations of its child spans."""
    spans = list(spans)
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    return {
        span[SID]: span[END] - span[START] - children[span[SID]] for span in spans
    }
