"""Deadlines and per-phase time budgets for the layout pipeline.

A :class:`Deadline` is an absolute point in (monotonic) time a piece of
work must finish by.  The pipeline cooperates with it: every solver
phase is opened as ``ledger.phase(name, deadline)``, which checks the
deadline when the phase body returns, and the degradation ladder
(:mod:`repro.resilience.ladder`) catches the resulting
:class:`DeadlineExceeded` and descends to a cheaper rung with whatever
time is left.

Two granularities compose:

* the **total budget** — ``Deadline.after(seconds)``; any check after it
  expires raises;
* optional **per-phase budgets** — ``phase_budgets={"BFS": 0.5, ...}``;
  the ``with deadline.phase("BFS"):`` context times the phase body and
  raises :class:`PhaseOverrun` when it ran past its own budget even if
  the total budget still has room.  This is what lets the ladder abandon
  the full pipeline after one stalled phase instead of burning the whole
  request deadline inside it.

Budgets can be split by wall-clock fractions (:func:`split_budget`,
default fractions follow the paper's Figure 3 phase breakdown) or by the
machine model: :func:`fractions_from_breakdown` turns a previous run's
simulated per-phase seconds on a :class:`~repro.parallel.MachineSpec`
into fractions, so the budget reflects *modeled* relative phase cost on
the serving hardware rather than a hard-coded guess.

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

__all__ = [
    "DEFAULT_PHASE_FRACTIONS",
    "Deadline",
    "DeadlineExceeded",
    "PhaseOverrun",
    "fractions_from_breakdown",
    "split_budget",
]

#: Default share of a pipeline budget per phase, following the paper's
#: Figure 3 breakdown (BFS dominates, the eigensolve is noise).
DEFAULT_PHASE_FRACTIONS: dict[str, float] = {
    "BFS": 0.55,
    "DOrtho": 0.25,
    "TripleProd": 0.15,
    "Other": 0.05,
}


class DeadlineExceeded(Exception):
    """The total time budget ran out before the work finished."""


class PhaseOverrun(DeadlineExceeded):
    """One pipeline phase ran past its own budget (total may remain)."""


def split_budget(
    total: float, fractions: Mapping[str, float] | None = None
) -> dict[str, float]:
    """Split ``total`` seconds into per-phase budgets by fraction.

    Fractions need not sum to 1; they are normalized.  Defaults to
    :data:`DEFAULT_PHASE_FRACTIONS`.
    """
    if total <= 0:
        raise ValueError(f"total budget must be > 0, got {total}")
    frac = dict(fractions if fractions is not None else DEFAULT_PHASE_FRACTIONS)
    norm = sum(frac.values())
    if norm <= 0:
        raise ValueError("phase fractions must sum to a positive value")
    return {name: total * f / norm for name, f in frac.items()}


def fractions_from_breakdown(
    phase_seconds: Mapping[str, float],
) -> dict[str, float]:
    """Phase fractions from modeled per-phase seconds.

    Feed it ``result.phase_seconds(machine, p)`` from a representative
    earlier run to budget phases by their *modeled* cost on the serving
    machine instead of the default paper-derived fractions.
    """
    total = sum(max(0.0, v) for v in phase_seconds.values())
    if total <= 0:
        return dict(DEFAULT_PHASE_FRACTIONS)
    return {k: max(0.0, v) / total for k, v in phase_seconds.items()}


class Deadline:
    """An absolute completion deadline with optional per-phase budgets.

    Parameters
    ----------
    seconds:
        Total budget from "now" (per the injected clock).
    phase_budgets:
        Optional ``phase name -> seconds`` limits enforced by the
        :meth:`phase` context manager.  Unknown phases are unbudgeted
        (only the total applies).
    clock:
        Monotonic time source; injectable for tests.
    """

    __slots__ = ("_clock", "_t0", "seconds", "phase_budgets")

    def __init__(
        self,
        seconds: float,
        *,
        phase_budgets: Mapping[str, float] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if seconds <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {seconds}")
        self._clock = clock
        self._t0 = clock()
        self.seconds = float(seconds)
        self.phase_budgets = dict(phase_budgets or {})

    # -- constructors ------------------------------------------------------
    @classmethod
    def after(
        cls,
        seconds: float,
        *,
        phase_fractions: Mapping[str, float] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """Deadline ``seconds`` from now with fraction-derived phase budgets."""
        return cls(
            seconds,
            phase_budgets=split_budget(seconds, phase_fractions),
            clock=clock,
        )

    # -- queries -----------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float:
        """Seconds left (may be negative once expired)."""
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, label: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the total budget is spent."""
        rem = self.remaining()
        if rem <= 0:
            what = f" after {label}" if label else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s exceeded{what}"
                f" (over by {-rem:.3f}s)"
            )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase; raise on phase-budget or total overrun.

        The check runs *after* the phase body (the pipeline phases are
        synchronous kernels that cannot be interrupted midway), so a
        stalled phase is detected as soon as it returns and the caller
        can stop investing in the current rung.
        """
        start = self._clock()
        yield
        took = self._clock() - start
        budget = self.phase_budgets.get(name)
        if budget is not None and took > budget:
            raise PhaseOverrun(
                f"phase {name} took {took:.3f}s, over its {budget:.3f}s"
                f" budget ({self.remaining():.3f}s of total remaining)"
            )
        self.check(f"phase {name}")

    def sub(
        self,
        fraction: float = 1.0,
        *,
        phase_fractions: Mapping[str, float] | None = None,
    ) -> "Deadline":
        """A child deadline covering ``fraction`` of the remaining time.

        The degradation ladder hands each rung a sub-deadline so one
        rung can never consume the time reserved for its fallbacks.
        Raises :class:`DeadlineExceeded` when nothing remains.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        rem = self.remaining()
        if rem <= 0:
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s already exceeded"
            )
        seconds = rem * fraction
        budgets = (
            split_budget(seconds, phase_fractions)
            if phase_fractions is not None
            else None
        )
        return Deadline(seconds, phase_budgets=budgets, clock=self._clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(seconds={self.seconds:.3f},"
            f" remaining={self.remaining():.3f})"
        )

