"""Span tracer that wraps the system's public entry points from outside.

Each wrapped call opens a span on one stack: its name, layer, start and
end, and the span that was open when it began (its parent).  A span's
self time is its duration minus the time its child spans cover; the
tracer sums self time per layer as spans close and keeps every span in
memory (compact arrays) until :meth:`Tracer.write_spans` writes them out.

The wrappers replace class or module attributes, so they must be
installed before the system is built: sites bind ``on_message`` at
registration and the asyncio runtime binds the wire codec when it is
constructed.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gzip
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers a span can be charged to: the repro packages, plus the
#: load generators, which run inside the sim process and are reported
#: apart so that a gain there is not mistaken for a system gain.
LAYERS = ("sim", "net", "txn", "core", "db", "runtime", "live", "workloads")

OnResult = Callable[[Tuple[Any, ...], Any, float], None]


class Tracer:
    """A span stack with per-layer self time and per-span call counts."""

    def __init__(self) -> None:
        self.enabled = True
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.span_self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Extra per-span observations made by ``on_result`` hooks.
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[List[float]] = []
        self._names: List[str] = []
        self._ids = array("q")
        self._parents = array("q")
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._next_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        on_result: Optional[OnResult] = None,
    ) -> Callable[..., Any]:
        """Return *fn* wrapped so each call is one span."""
        if layer not in self.self_s:
            raise ValueError(f"unknown layer {layer!r}")
        name_id = len(self._names)
        self._names.append(name)
        tracer = self
        stack = self._stack
        layer_self = self.self_s
        span_self = self.span_self_s
        calls = self.calls
        ids, parents, name_ids = self._ids, self._parents, self._name_ids
        starts, ends = self._starts, self._ends

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = int(stack[-1][1]) if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                layer_self[layer] += own
                span_self[name] += own
                calls[name] += 1
                ids.append(span_id)
                parents.append(parent)
                name_ids.append(name_id)
                starts.append(start)
                ends.append(end)
            if on_result is not None:
                on_result(args, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Optional[OnResult] = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced form (undone by :meth:`uninstall`)."""
        original = inspect.getattr_static(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(
                self.wrap(original.__func__, name, layer, on_result)
            )
        else:
            replacement = self.wrap(original, name, layer, on_result)
        self.substitute(owner, attr, replacement)

    def substitute(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`uninstall`."""
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back (already-bound wrappers stay
        but stop recording once :attr:`enabled` is False)."""
        self.enabled = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Output

    def summary(self) -> Dict[str, Any]:
        """JSON-safe totals: per-layer and per-span self time, call counts,
        hook counters and samples."""
        return {
            "self_s": dict(self.self_s),
            "span_self_s": dict(self.span_self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "samples": {key: list(values) for key, values in self.samples.items()},
            "spans": len(self._ids),
        }

    def write_spans(self, path: str) -> None:
        """Write every recorded span as gzipped tab-separated lines:
        ``id parent name start_s end_s`` (times from ``perf_counter``)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        names = self._names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for index in range(len(self._ids)):
                fh.write(
                    f"{self._ids[index]}\t{self._parents[index]}\t"
                    f"{names[self._name_ids[index]]}\t"
                    f"{self._starts[index]:.9f}\t{self._ends[index]:.9f}\n"
                )


class SteppedCoroutine:
    """Trace an asyncio coroutine one resumption at a time.

    A coroutine interleaves with other work at every ``await``, so one
    span around the whole request would swallow the spans of whatever
    ran meanwhile.  Each ``send``/``throw`` step is synchronous, so
    tracing the steps keeps the span stack nested correctly.
    """

    def __init__(self, coro, step: Callable[..., Any]) -> None:
        #: *step* is a traced call-through: ``step(fn, *args) -> fn(*args)``.
        self._coro = coro
        self._step = step

    def send(self, value):
        return self._step(self._coro.send, value)

    def throw(self, *exc_info):
        return self._step(self._coro.throw, *exc_info)

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)
