"""In-memory span recording around the calls into a program's layers.

A ``Tracer`` replaces a function at every name its callers look it up by
(module globals and class attributes), records one span per call, and puts
every original back on ``uninstall``. Spans are kept in a flat list and are
written out once, after measuring.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# A span is [name, start, end, parent index, work]; the parent is -1 for a
# root, and work is a count of items the call processed (0 if not counted).
NAME, START, END, PARENT, WORK = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def root(self) -> int:
        """Index of the outermost open span, or -1 outside any span."""
        return self._stack[0] if self._stack else -1

    def _open(self, name: str, work=0) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrapper(self, name: str, fn, hook=None, work=None):
        """``fn`` recording a span per call.

        ``hook(*args, **kwargs)`` runs before each call; ``work(*args,
        **kwargs)`` gives the count stored in the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            span = self._open(name, 0 if work is None else work(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, name: str, fn, modules, work=None) -> None:
        """Wrap ``fn`` under every global of ``modules`` that is bound to it."""
        traced = self.wrapper(name, fn, work=work)
        bound = [(m, attr) for m in modules for attr, v in vars(m).items() if v is fn]
        for module, attr in bound:
            self._patch(module, attr, traced)

    def wrap_method(self, name: str, cls, attr: str, hook=None) -> None:
        self._patch(cls, attr, self.wrapper(name, cls.__dict__[attr], hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def write_spans(path, spans: list[list]) -> None:
    """One CSV line per span: index, name, start, end, parent, work."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,work\n")
        for i, (name, start, end, parent, work) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{work}\n")
