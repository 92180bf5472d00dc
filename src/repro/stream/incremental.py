"""Incremental repair of the pivot distance matrix ``B``.

ParHDE's BFS phase dominates end-to-end time, but after a small edge
delta most of it is wasted: Buluç & Madduri's observation that traversal
cost tracks the frontier actually touched cuts both ways — when only a
few edges change, only the *affected region* of each pivot's shortest
path tree needs revisiting.  This module repairs each column of ``B``
in place:

* **Insertions** only *decrease* hop distances.  Seed a bounded
  relaxation at the inserted endpoints (``d[u] + 1 < d[v]`` or vice
  versa) and propagate decreases outward; vertices whose distance
  cannot improve are never visited.
* **Deletions** only *increase* distances, and only when the deleted
  edge was *tight* (``|d[u] - d[v]| == 1``) for that pivot.  The classic
  two-phase repair (Ramalingam-Reps specialized to unit weights):
  phase 1 identifies the affected set — vertices all of whose shortest
  path parents are themselves affected — by a worklist sweep in
  increasing old-distance order; phase 2 re-settles the affected set by
  a multi-source relaxation from its unaffected boundary.

Hop distances only (unweighted traversals); weighted sessions fall back
to full relayout.  Costs are charged to the caller's open ledger phase
under subphase ``"repair"`` with the same per-edge pricing as the BFS
kernels (``TD_OPS`` scalar ops per inspected edge, one irregular
distance-array touch per edge), so repair work and full-traversal work
are directly comparable through the machine model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..bfs.direction_optimizing import graph_miss_rate
from ..bfs.topdown import TD_OPS
from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import F64, I32
from .overlay import DynamicGraph

__all__ = ["RepairResult", "repair_distances"]

_INF = np.inf


@dataclass
class RepairResult:
    """Outcome of one incremental repair pass over all columns.

    Attributes
    ----------
    changed:
        ``int64[s]`` — entries of each column whose distance changed.
    n:
        Row count of ``B`` (vertices), the drift denominator.
    edges_examined:
        Total adjacency entries inspected across all columns (the
        modeled BFS work of the repair).
    columns_touched:
        Columns whose repair did any work at all.
    disconnected:
        True when some vertex became unreachable from a pivot — the
        repaired column holds ``inf`` there and the caller must either
        roll back or fall back to a full recompute.
    """

    changed: np.ndarray
    n: int
    edges_examined: int
    columns_touched: int
    disconnected: bool = False

    @property
    def drift(self) -> float:
        """Changed entries as a fraction of ``B``'s ``n * s`` size."""
        entries = self.n * self.changed.size
        return float(self.changed.sum()) / entries if entries else 0.0

    @property
    def column_drift(self) -> np.ndarray:
        """Per-column drift: changed entries over ``n``."""
        return self.changed.astype(np.float64) / max(self.n, 1)


def _repair_deletions(
    dyn: DynamicGraph, d: np.ndarray, deleted: np.ndarray
) -> tuple[int, bool]:
    """Raise distances broken by ``deleted`` edges; return (edges, infinite)."""
    edges = 0
    # Candidate roots: far endpoints of tight deleted edges.
    cands: list[int] = []
    for u, v in deleted:
        du, dv = d[u], d[v]
        if abs(du - dv) != 1.0:
            continue  # not on any shortest path for this pivot
        cands.append(int(v if dv > du else u))
    if not cands:
        return 0, False

    # Phase 1: affected set.  Processing in increasing old-distance order
    # means every potential parent is decided before its children.
    decided: set[int] = set()
    affected: set[int] = set()
    heap = [(d[x], x) for x in cands]
    heapq.heapify(heap)
    while heap:
        dx, x = heapq.heappop(heap)
        if x in decided:
            continue
        decided.add(x)
        nbrs = dyn.neighbors(x)
        edges += len(nbrs)
        has_parent = False
        for y in nbrs:
            if d[y] == dx - 1.0 and int(y) not in affected:
                has_parent = True
                break
        if has_parent:
            continue
        affected.add(x)
        for y in nbrs:
            y = int(y)
            if d[y] == dx + 1.0 and y not in decided:
                heapq.heappush(heap, (d[y], y))
    if not affected:
        return edges, False

    # Phase 2: re-settle the affected set from its unaffected boundary.
    for x in affected:
        d[x] = _INF
    heap = []
    for x in affected:
        nbrs = dyn.neighbors(x)
        edges += len(nbrs)
        best = _INF
        for y in nbrs:
            dy = d[int(y)]
            if dy + 1.0 < best:
                best = dy + 1.0
        if np.isfinite(best):
            heapq.heappush(heap, (best, x))
    while heap:
        dx, x = heapq.heappop(heap)
        if dx >= d[x]:
            continue
        d[x] = dx
        nbrs = dyn.neighbors(x)
        edges += len(nbrs)
        for y in nbrs:
            y = int(y)
            if dx + 1.0 < d[y]:
                heapq.heappush(heap, (dx + 1.0, y))
    infinite = any(not np.isfinite(d[x]) for x in affected)
    return edges, infinite


def _repair_insertions(
    dyn: DynamicGraph, d: np.ndarray, inserted: np.ndarray
) -> int:
    """Propagate distance decreases from inserted edges; return edges."""
    edges = 0
    heap: list[tuple[float, int]] = []
    for u, v in inserted:
        u, v = int(u), int(v)
        if d[u] + 1.0 < d[v]:
            heapq.heappush(heap, (d[u] + 1.0, v))
        if d[v] + 1.0 < d[u]:
            heapq.heappush(heap, (d[v] + 1.0, u))
    while heap:
        dx, x = heapq.heappop(heap)
        if dx >= d[x]:
            continue
        d[x] = dx
        nbrs = dyn.neighbors(x)
        edges += len(nbrs)
        for y in nbrs:
            y = int(y)
            if dx + 1.0 < d[y]:
                heapq.heappush(heap, (dx + 1.0, y))
    return edges


def repair_distances(
    dyn: DynamicGraph,
    B: np.ndarray,
    pivots: np.ndarray,
    inserted: np.ndarray,
    deleted: np.ndarray,
    *,
    ledger: Ledger | None = None,
) -> RepairResult:
    """Repair every column of ``B`` in place after an applied delta.

    Parameters
    ----------
    dyn:
        The graph *after* the delta was applied (repair walks current
        adjacency).
    B:
        ``(n, s)`` float64 hop-count matrix, column ``i`` = distances
        from ``pivots[i]`` in the pre-delta graph.  Mutated in place.
    pivots:
        Pivot vertex ids aligned with the columns.
    inserted / deleted:
        ``(k, 2)`` effective edits from
        :meth:`~repro.stream.overlay.DynamicGraph.apply`.

    Returns
    -------
    RepairResult
        Per-column change counts; if :attr:`RepairResult.disconnected`
        the matrix holds ``inf`` entries and must not be fed onward.
    """
    n, s = B.shape
    if n != dyn.n:
        raise ValueError(f"B has {n} rows but the graph has {dyn.n} vertices")
    if len(pivots) != s:
        raise ValueError("pivot count must match B's column count")
    if dyn.is_weighted:
        raise ValueError(
            "incremental repair supports hop distances only;"
            " weighted graphs require a full recompute"
        )
    changed = np.zeros(s, dtype=np.int64)
    total_edges = 0
    worst_edges = 0
    touched = 0
    disconnected = False
    miss = graph_miss_rate(dyn.base)
    for i in range(s):
        col = B[:, i]
        before = col.copy()
        col_edges = 0
        e, infinite = _repair_deletions(dyn, col, deleted)
        col_edges += e
        disconnected = disconnected or infinite
        col_edges += _repair_insertions(dyn, col, inserted)
        if col_edges:
            touched += 1
        total_edges += col_edges
        worst_edges = max(worst_edges, col_edges)
        changed[i] = int(np.count_nonzero(col != before))
        if col[int(pivots[i])] != 0.0:
            raise AssertionError("pivot distance drifted from zero")
    # Re-check reachability after insertions (an insert can reconnect a
    # region a deletion cut off).
    if disconnected:
        disconnected = not bool(np.all(np.isfinite(B)))
    if ledger is not None and total_edges:
        # Columns repair independently (one per thread); inside a column
        # the worklist is sequential, so the critical path is the
        # heaviest column.  Priced like the BFS kernels: TD_OPS scalar
        # ops + one irregular distance touch per inspected edge, plus
        # the per-column snapshot/compare sweeps.
        ledger.add(
            KernelCost(
                work=TD_OPS * total_edges,
                depth=TD_OPS * worst_edges,
                bytes_streamed=total_edges * I32 + 2.0 * n * s * F64,
                random_lines=total_edges * miss,
                regions=1,
            ),
            subphase="repair",
        )
    return RepairResult(
        changed=changed,
        n=n,
        edges_examined=total_edges,
        columns_touched=touched,
        disconnected=disconnected,
    )
