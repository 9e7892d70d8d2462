"""The two views' blocks of a step, the second one on a worker thread.

Each student is attacked on its own frozen view, so within one step the two
views' generator blocks share no data. ``per_view`` can run view 1's block on
one worker thread while view 0's runs in the caller. The executor exists
from import and starts its thread at the first submit. The worker runs each
block under a copy of the caller's context, so settings held in context
variables (``np.errstate``) carry over, and a forked child gets a fresh
executor, since the parent's thread does not exist there.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait


_worker = ThreadPoolExecutor(1, thread_name_prefix="cotriad-view")


def _new_worker_in_child() -> None:
    # The inherited executor counts the parent's worker as idle, but that
    # thread does not exist in a forked child: a submit there would wait
    # forever.
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="cotriad-view")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker_in_child)


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
