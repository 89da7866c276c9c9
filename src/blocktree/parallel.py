"""Fork-join helper for the bulk algorithms.

Bulk operations call ``fork2(ctx, work_size, fa, fb)`` for their two
recursive branches.  With one thread configured (the default) both run
inline.  With more, the coordinating (non-worker) thread offloads the second
branch to a shared pool whenever ``work_size`` exceeds 4B, four times the
context's block size; pool workers themselves never fork, which keeps the
scheme deadlock-free with a bounded pool.  Results are combined only after both branches finish,
so output trees are identical regardless of scheduling.  A branch that
raises takes the other's result with it: ``fork2`` waits for both and
releases the one that survived before the error propagates.

CPython's GIL serializes the actual compute; the pool exists to honor the
concurrency contract (deterministic parallel execution, thread-safe owner
counts), not to speed up pure-Python work.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from . import nodes

_pool = None
_threads = 1
_worker = threading.local()


def set_threads(n):
    """Configure the worker count for subsequent bulk operations."""
    global _pool, _threads
    n = max(1, int(n))
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
    _threads = n
    if n > 1:
        _pool = ThreadPoolExecutor(max_workers=n - 1,
                                   thread_name_prefix="blocktree")
    nodes.set_locked_refcounts(n > 1)


def get_threads():
    return _threads


def _run_marked(fn):
    _worker.active = True
    try:
        return fn()
    finally:
        _worker.active = False


def _release(x):
    """Release a branch result or a held piece: an owned tree, or an entry
    run (a plain list), which holds no node."""
    if type(x) is not list:
        nodes.release(x)


def fork2(ctx, work_size, fa, fb, owned=True):
    """Evaluate two thunks, possibly in parallel; returns their results.

    When one branch raises, the result of the other is released, once that
    branch has finished, and the error propagates.  Pass ``owned=False``
    for results that are user values, not owned trees (``reduce``).
    """
    future = None
    if not (_pool is None or work_size <= 4 * ctx.config.block_size
            or getattr(_worker, "active", False)):
        future = _pool.submit(_run_marked, fb)
    try:
        ra = fa()
    except BaseException:
        if owned and future is not None and future.exception() is None:
            _release(future.result())
        raise
    try:
        return ra, (fb() if future is None else future.result())
    except BaseException:
        if owned:
            _release(ra)
        raise
