"""The two views' blocks of a step, the second one on a worker thread.

Each student is attacked on its own frozen view, so within one step the two
views' generator blocks share no data. ``per_view`` can run view 1's block on
one lazily started worker thread while view 0's runs in the caller. The
worker runs each block under a copy of the caller's context, so settings
held in context variables (``np.errstate``) carry over, and a forked child
starts its own worker, since the parent's thread does not exist there.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait


class _Worker:
    """One worker thread, started by the first ``submit``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    def forget(self) -> None:
        # In a forked child: the parent's worker thread does not exist there,
        # and the lock may have been held by a thread that was not copied.
        self._lock, self._executor = threading.Lock(), None

    def submit(self, fn, *args) -> Future:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(1, thread_name_prefix="cotriad-view")
            return self._executor.submit(fn, *args)


_worker = _Worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.forget)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def per_view(block, threaded: bool) -> list:
    """``[block(0), block(1)]``.

    With ``threaded`` and at least two usable CPUs, ``block(1)`` runs on the
    worker thread while ``block(0)`` runs here. The caller then waits for
    ``block(1)`` even when ``block(0)`` raises, and raises view 0's exception
    before view 1's, as in the sequential order.
    """
    if not threaded or usable_cpus() < 2:
        return [block(0), block(1)]
    second = _worker.submit(contextvars.copy_context().run, block, 1)
    try:
        first = block(0)
    finally:
        wait([second])
    return [first, second.result()]
