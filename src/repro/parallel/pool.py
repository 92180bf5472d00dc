"""Bounded thread pool for independent whole-task jobs.

The serving engine and progressive LOD run whole layouts against each
other on :class:`TaskPool`.  The kernels inside one layout run on the
calling thread: the machine model in :mod:`repro.parallel.machine`
prices them for the paper's multicore node, and NumPy computes them
with the same bits on any core count.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, TypeVar

__all__ = ["PoolSaturated", "TaskPool"]

T = TypeVar("T")


class PoolSaturated(RuntimeError):
    """Raised by :meth:`TaskPool.submit` when the backlog limit is hit."""


class TaskPool:
    """Bounded thread pool for independent whole-task jobs.

    :class:`TaskPool` schedules many independent computations *against
    each other* — the serving layer's unit of work.  The difference from
    a plain executor that matters in production is the bound: an
    unbounded executor queue converts overload into unbounded memory
    growth and unbounded latency.  ``submit`` instead rejects
    work with :class:`PoolSaturated` once ``queue_limit`` tasks are
    already waiting for a worker, so callers can shed load explicitly.

    Parameters
    ----------
    workers:
        Worker thread count.
    queue_limit:
        Maximum tasks waiting (i.e. submitted but not yet running) before
        ``submit`` rejects.  Default ``2 * workers``.
    """

    def __init__(self, workers: int, *, queue_limit: int | None = None):
        self.workers = workers
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.queue_limit = (
            queue_limit if queue_limit is not None else 2 * self.workers
        )
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        self._pool = ThreadPoolExecutor(max_workers=self.workers)
        self._lock = threading.Lock()
        self._outstanding = 0  # submitted, not yet finished
        self._closed = False

    # -- introspection -----------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Tasks submitted and not yet finished (running + queued)."""
        with self._lock:
            return self._outstanding

    @property
    def queue_depth(self) -> int:
        """Tasks waiting for a free worker (conservative estimate)."""
        with self._lock:
            return max(0, self._outstanding - self.workers)

    # -- lifecycle ---------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------
    def submit(self, fn: Callable[..., T], *args, **kwargs) -> "Future[T]":
        """Schedule ``fn(*args, **kwargs)``; reject when saturated."""
        with self._lock:
            if self._closed:
                raise RuntimeError("TaskPool is closed")
            if self._outstanding - self.workers >= self.queue_limit:
                raise PoolSaturated(
                    f"task queue full ({self._outstanding} outstanding,"
                    f" {self.workers} workers, limit {self.queue_limit})"
                )
            self._outstanding += 1
        try:
            future = self._pool.submit(fn, *args, **kwargs)
        except BaseException:
            with self._lock:
                self._outstanding -= 1
            raise
        future.add_done_callback(self._task_done)
        return future

    def _task_done(self, _future: Future) -> None:
        with self._lock:
            self._outstanding -= 1
