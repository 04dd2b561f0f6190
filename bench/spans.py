"""Spans recorded from outside the program, around each call the benchmark
makes into one of orthobranch's public functions.

With tracing off, ``Tracer.call`` is a plain call: the timed runs pay one
attribute test per call.  With tracing on, every call records a span
``[id, name, start, end, parent, query]``: times are ``perf_counter``
seconds, ``parent`` is the id of the enclosing span (the query's own span
for a layer call) and ``query`` is the id of the query being answered.
"""
from __future__ import annotations

import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._query = None

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span called ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def begin_query(self, qid: str):
        self._query = qid
        return self._open("query") if self.enabled else None

    def end_query(self, span) -> None:
        if span is not None:
            self._close(span)
        self._query = None

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self._query]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def totals(self) -> dict:
        """Seconds spent inside each layer span name.  Layer calls never
        nest (the benchmark makes them one at a time), so a plain sum is
        each layer's busy time."""
        out = {}
        for _id, name, start, end, _parent, _q in self.spans:
            if name != "query":
                out[name] = out.get(name, 0.0) + (end - start)
        return out
