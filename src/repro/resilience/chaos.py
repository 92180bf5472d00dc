"""Process/I-O-level chaos harness: named failpoints + file corruption.

:mod:`repro.validate.inject` corrupts *algebraic* intermediates to prove
the invariant checkers fire; this module injects *operational* faults —
a kernel that raises, a phase that sleeps past its budget, a disk write
that fails, a cache file whose bits flipped — to prove the resilience
machinery (ladder, retries, breaker, quarantine) actually recovers.

Instrumented code calls :func:`failpoint` with a site name
(``"parhde.bfs"``, ``"cache.disk_store"``, ...).  Unarmed sites cost one
integer comparison.  Tests and the chaos smoke harness arm sites with
:func:`inject`::

    with chaos.inject("parhde.bfs", sleep=0.3, times=1) as fp:
        engine.submit(request)          # BFS stalls once
    assert fp.hits == 1

Faults are deterministic: ``times`` bounds how many calls fire, ``skip``
delays the first firing, and the file corruptor flips a byte chosen by a
seeded RNG.  Arming is global (the instrumented sites are reached from
worker threads), so tests that arm failpoints must not run concurrently
with each other — the context manager restores the previous arming on
exit either way.

Registered site names live in :data:`SITES` so the smoke harness can
enumerate the injection matrix without grepping the source.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from .retry import TransientError

__all__ = [
    "SITES",
    "ChaosError",
    "Injection",
    "active",
    "corrupt_file",
    "failpoint",
    "inject",
    "reset",
]


class ChaosError(TransientError):
    """The error an armed ``error=True`` failpoint raises.

    Subclasses :class:`~repro.resilience.retry.TransientError`, so the
    default retry policy treats injected kernel faults as transient —
    which is exactly how a flaky real kernel should be treated.
    """


#: Known failpoint sites (name -> where it fires).  Keep in sync with the
#: ``failpoint(...)`` calls; the chaos smoke harness iterates this.
SITES: dict[str, str] = {
    "parhde.bfs": "start of the BFS/SSSP traversal phase",
    "parhde.dortho": "start of the D-orthogonalization phase",
    "parhde.tripleprod": "start of the TripleProd phase",
    "parhde.eigensolve": "before the small eigensolve",
    "cache.disk_store": "before a disk-cache archive write",
    "cache.disk_load": "before a disk-cache archive read",
    "cluster.worker.request": "start of a cluster worker layout/update",
}


class Injection:
    """One armed fault; the object ``inject`` yields for assertions."""

    def __init__(
        self,
        name: str,
        *,
        sleep: float = 0.0,
        error: bool | BaseException | None = None,
        times: int | None = None,
        skip: int = 0,
        callback: Callable[[], None] | None = None,
    ):
        self.name = name
        self.sleep = float(sleep)
        self.error = error
        self.times = times
        self.skip = int(skip)
        self.callback = callback
        self._lock = threading.Lock()
        self._calls = 0
        self._hits = 0

    @property
    def calls(self) -> int:
        """Times the site was reached while armed (fired or not)."""
        with self._lock:
            return self._calls

    @property
    def hits(self) -> int:
        """Times the fault actually fired."""
        with self._lock:
            return self._hits

    def _should_fire(self) -> bool:
        with self._lock:
            self._calls += 1
            if self._calls <= self.skip:
                return False
            if self.times is not None and self._hits >= self.times:
                return False
            self._hits += 1
            return True

    def fire(self) -> None:
        if not self._should_fire():
            return
        if self.callback is not None:
            self.callback()
        if self.sleep > 0:
            time.sleep(self.sleep)
        if self.error:
            if isinstance(self.error, BaseException):
                raise self.error
            raise ChaosError(f"chaos: injected failure at {self.name!r}")


_lock = threading.Lock()
_armed: dict[str, Injection] = {}
_armed_count = 0  # fast-path guard; reads race benignly


def failpoint(name: str) -> None:
    """Fire the fault armed at ``name``, if any (no-op otherwise)."""
    if _armed_count == 0:
        return
    with _lock:
        fault = _armed.get(name)
    if fault is not None:
        fault.fire()


@contextmanager
def inject(
    name: str,
    *,
    sleep: float = 0.0,
    error: bool | BaseException | None = None,
    times: int | None = None,
    skip: int = 0,
    callback: Callable[[], None] | None = None,
) -> Iterator[Injection]:
    """Arm ``name`` for the duration of the block.

    ``sleep`` stalls the site; ``error=True`` raises :class:`ChaosError`
    (or pass an exception instance to raise something specific); both
    combine (stall, then fail).  ``times`` caps firings, ``skip`` lets
    the first ``skip`` calls through clean, ``callback`` runs on each
    firing (e.g. corrupt a file at a precise moment).  Nested arming of
    the same site restores the outer fault on exit.
    """
    global _armed_count
    fault = Injection(
        name, sleep=sleep, error=error, times=times, skip=skip, callback=callback
    )
    with _lock:
        previous = _armed.get(name)
        _armed[name] = fault
        _armed_count = len(_armed)
    try:
        yield fault
    finally:
        with _lock:
            if previous is None:
                _armed.pop(name, None)
            else:
                _armed[name] = previous
            _armed_count = len(_armed)


def active() -> list[str]:
    """Names of currently armed failpoints."""
    with _lock:
        return sorted(_armed)


def reset() -> None:
    """Disarm everything (test teardown safety net)."""
    global _armed_count
    with _lock:
        _armed.clear()
        _armed_count = 0


def corrupt_file(path: str | Path, *, seed: int = 0, nbytes: int = 1) -> int:
    """Flip ``nbytes`` deterministic bytes of ``path`` in place.

    Returns the number of bytes flipped.  This is the disk-rot simulator
    for the cache checksum tests: a real archive, damaged the
    way storage damages things — silently, in the middle of the payload.
    """
    p = Path(path)
    data = bytearray(p.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {p}")
    rng = random.Random(seed)
    flipped = 0
    for _ in range(max(1, nbytes)):
        # Stay away from the first bytes: corrupting the magic would turn
        # every reader error into "bad zip", masking checksum coverage.
        i = rng.randrange(len(data) // 2, len(data))
        data[i] ^= 0xFF
        flipped += 1
    p.write_bytes(bytes(data))
    return flipped
