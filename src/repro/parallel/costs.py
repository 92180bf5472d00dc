"""Cost accounting for simulated shared-memory parallel kernels.

Every performance-relevant kernel in this library (BFS steps, SpMM,
Gram-Schmidt vector operations, ...) executes its numerics with NumPy and
*records* an abstract :class:`KernelCost` describing how much work it did,
how long its critical path is, and how it touched memory.  A
:class:`~repro.parallel.machine.MachineSpec` later converts accumulated
costs into simulated wall-clock seconds for any thread count ``p``.

This is the substitution layer documented in DESIGN.md section 2: the paper
ran on a 28-core Xeon node, while this reproduction runs on hosts where
genuine multicore speedups may be unobservable (single core, GIL).  The
costs recorded here are *measured* from the actual data-dependent behaviour
of each algorithm (real frontier sizes, real edges examined, real nnz), so
scaling shapes emerge from first principles.

Units
-----
``work``
    Scalar, branchy, irregular operations (BFS edge inspections, bucket
    bookkeeping) executed across all threads.  Charged at the machine's
    scalar rate.
``flops``
    Vectorizable floating-point operations (dots, axpys, SpMM
    multiply-adds).  Charged at the machine's much higher SIMD flop rate.
``depth``
    Operations on the critical path that cannot be parallelized —
    ``log2 n`` for a tree reduction, or the largest single adjacency
    list in a frontier (an indivisible unit of work that bounds load
    balance for skewed-degree graphs).
``bytes_streamed``
    Bytes moved to/from DRAM with a streaming (prefetchable) access
    pattern.  Subject to bandwidth saturation.
``random_lines``
    Cache lines fetched by data-dependent irregular accesses (gather /
    scatter).  Subject to latency, overlapped by memory-level parallelism.
``regions``
    Number of fork-join parallel regions (barriers).  Each one pays a
    synchronization overhead that grows with ``p``; this is the Amdahl term
    that caps BFS scaling on high-diameter graphs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

__all__ = ["KernelCost", "Ledger", "PhaseTotals", "ZERO_COST"]


@dataclass(frozen=True)
class KernelCost:
    """Abstract cost of one kernel invocation (see module docstring)."""

    work: float = 0.0
    flops: float = 0.0
    depth: float = 0.0
    bytes_streamed: float = 0.0
    random_lines: float = 0.0
    regions: int = 0

    def __add__(self, other: "KernelCost") -> "KernelCost":
        if not isinstance(other, KernelCost):
            return NotImplemented
        return KernelCost(
            work=self.work + other.work,
            flops=self.flops + other.flops,
            depth=self.depth + other.depth,
            bytes_streamed=self.bytes_streamed + other.bytes_streamed,
            random_lines=self.random_lines + other.random_lines,
            regions=self.regions + other.regions,
        )

    def __radd__(self, other):
        # Support sum() with its default integer 0 start value.
        if other == 0:
            return self
        return self.__add__(other)

    def scaled(self, factor: float) -> "KernelCost":
        """Return this cost with every additive component multiplied."""
        return KernelCost(
            work=self.work * factor,
            flops=self.flops * factor,
            depth=self.depth * factor,
            bytes_streamed=self.bytes_streamed * factor,
            random_lines=self.random_lines * factor,
            regions=int(round(self.regions * factor)),
        )

    def with_regions(self, regions: int) -> "KernelCost":
        return replace(self, regions=regions)

    @property
    def is_zero(self) -> bool:
        return (
            self.work == 0
            and self.flops == 0
            and self.depth == 0
            and self.bytes_streamed == 0
            and self.random_lines == 0
            and self.regions == 0
        )


ZERO_COST = KernelCost()


@dataclass
class _Record:
    phase: str
    subphase: str
    cost: KernelCost
    sequential: bool


@dataclass
class PhaseTotals:
    """Summed cost of one phase, split into parallel and sequential parts."""

    parallel: KernelCost = field(default_factory=KernelCost)
    sequential: KernelCost = field(default_factory=KernelCost)

    @property
    def combined(self) -> KernelCost:
        return self.parallel + self.sequential


class Ledger:
    """Accumulates :class:`KernelCost` records tagged by phase/subphase.

    Algorithms open phases with :meth:`phase` (a context manager) and record
    kernel costs with :meth:`add`.  Phases nest; a record is attributed to
    the phase stack joined by ``/`` minus the outermost level, which becomes
    its *phase*, with the remainder as *subphase*.  In practice the library
    uses a single nesting level (phase) plus an optional explicit subphase
    argument, which keeps reports legible.

    Records may be flagged ``sequential=True`` for work the paper's code
    performs on one thread regardless of ``p`` (the prior implementation's
    BFS, for example).  The machine model charges such records at ``p=1``.
    """

    def __init__(self) -> None:
        self._records: list[_Record] = []
        self._stack: list[str] = []

    # -- recording ---------------------------------------------------------
    @contextmanager
    def phase(self, name: str, deadline=None) -> Iterator["Ledger"]:
        """Attribute costs recorded inside the ``with`` block to ``name``.

        With a ``deadline`` (anything with a ``phase(name)`` context
        manager, e.g. :class:`~repro.resilience.Deadline`) the body also
        runs inside ``deadline.phase(name)``, so the overrun check fires
        after the body while this phase is still open; the stack is
        popped either way.
        """
        self._stack.append(name)
        try:
            if deadline is None:
                yield self
            else:
                with deadline.phase(name):
                    yield self
        finally:
            self._stack.pop()

    def add(
        self,
        cost: KernelCost,
        subphase: str = "",
        *,
        sequential: bool = False,
    ) -> None:
        """Record ``cost`` under the currently open phase."""
        if cost.is_zero:
            return
        phase = self._stack[0] if self._stack else "Other"
        if len(self._stack) > 1 and not subphase:
            subphase = "/".join(self._stack[1:])
        self._records.append(_Record(phase, subphase, cost, sequential))

    @property
    def current_phase(self) -> str:
        return self._stack[0] if self._stack else "Other"

    # -- aggregation -------------------------------------------------------
    def phases(self) -> list[str]:
        """Phase names in first-recorded order."""
        seen: dict[str, None] = {}
        for rec in self._records:
            seen.setdefault(rec.phase, None)
        return list(seen)

    def phase_totals(self) -> dict[str, PhaseTotals]:
        """Summed costs per phase."""
        out: dict[str, PhaseTotals] = {}
        for rec in self._records:
            tot = out.setdefault(rec.phase, PhaseTotals())
            if rec.sequential:
                tot.sequential = tot.sequential + rec.cost
            else:
                tot.parallel = tot.parallel + rec.cost
        return out

    def subphase_totals(self, phase: str) -> dict[str, PhaseTotals]:
        """Summed costs per subphase within ``phase``."""
        out: dict[str, PhaseTotals] = {}
        for rec in self._records:
            if rec.phase != phase:
                continue
            tot = out.setdefault(rec.subphase or "(main)", PhaseTotals())
            if rec.sequential:
                tot.sequential = tot.sequential + rec.cost
            else:
                tot.parallel = tot.parallel + rec.cost
        return out

    def total(self) -> PhaseTotals:
        tot = PhaseTotals()
        for rec in self._records:
            if rec.sequential:
                tot.sequential = tot.sequential + rec.cost
            else:
                tot.parallel = tot.parallel + rec.cost
        return tot

    def merge(self, other: "Ledger") -> None:
        """Append all of ``other``'s records to this ledger."""
        self._records.extend(other._records)

    def __len__(self) -> int:
        return len(self._records)
