"""Direction-optimizing BFS (Beamer et al.), GAP-style, with distances.

Heuristic (GAP defaults ``alpha = 15``, ``beta = 18``):

* switch top-down -> bottom-up when the edges to scout from the frontier
  exceed ``edges_unexplored / alpha``;
* switch bottom-up -> top-down when the frontier shrinks below
  ``n / beta``.

The traversal records a :class:`KernelCost` per level (one fork-join
region each — the depth bound of Table 1 carries the level count) plus
the representation conversions, and reports per-level statistics so the
benchmarks can show the measured work-reduction factor ``gamma``.  A
top-down level only finds the next frontier; every top-down level is
priced after the loop from the final distances, in one vectorized pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import I64, stream_cost
from .bottomup import bottomup_step
from .frontier import queue_to_bitmap
from .topdown import price_topdown_levels, push_level

__all__ = [
    "BFSStats",
    "bfs_distances",
    "bfs_topdown_only",
    "bfs_sequential_cost",
    "graph_miss_rate",
]

ALPHA = 15.0
BETA = 18.0

#: Guards the per-graph miss-rate memo: concurrent traversals sharing one
#: CSRGraph (random-concurrent pivots, the serving engine's thread pool)
#: must not each recompute the gap analysis, and a racy double-write of
#: ``g._cache["miss_rate"]`` would make concurrently recorded costs
#: disagree about locality mid-run.  One process-wide lock is enough: the
#: computation is rare (once per graph) and cheap relative to a traversal.
_MISS_LOCK = threading.Lock()


@dataclass
class BFSStats:
    """Per-traversal measurements."""

    source: int
    levels: int = 0
    edges_topdown: int = 0
    edges_bottomup: int = 0
    reached: int = 0
    directions: list[str] = field(default_factory=list)

    @property
    def edges_examined(self) -> int:
        return self.edges_topdown + self.edges_bottomup

    def gamma(self, m: int) -> float:
        """Measured work-reduction factor vs. examining all 2m entries."""
        return self.edges_examined / (2 * m) if m else 0.0


def graph_miss_rate(g: CSRGraph) -> float:
    """Memoized DRAM miss-rate estimate of ``g`` (thread-safe).

    Computed once per graph under a lock and shared by every traversal —
    the ``s`` columns of a batched sweep, concurrent per-source runs on
    the engine's pool — so all of them price irregular accesses with the
    same locality number.
    """
    cached = g._cache.get("miss_rate")
    if cached is not None:
        return cached
    with _MISS_LOCK:
        cached = g._cache.get("miss_rate")
        if cached is None:
            from ..graph.gaps import miss_rate

            cached = g._cache["miss_rate"] = miss_rate(g)
    return cached


def _locality(g: CSRGraph, miss: float | None) -> float:
    if miss is not None:
        return miss
    return graph_miss_rate(g)


#: One level of a traversal: ``(direction, frontier_size,
#: frontier_edges, edges_examined, discovered)``.
_Level = tuple[str, int, int, int, int]


def _traverse(
    g: CSRGraph, source: int, miss: float, alpha: float, beta: float
) -> tuple[np.ndarray, list[_Level], list[KernelCost]]:
    """The direction-optimizing level loop, traversal only.

    Returns ``(dist, levels, bottomup_costs)``: one row per level, and
    the cost of each bottom-up level in order.  Top-down levels are left
    unpriced (:func:`~repro.bfs.topdown.price_topdown_levels`).
    """
    degrees = g.degrees
    switches = bool(np.isfinite(alpha))
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[source] = 0
    mark = np.empty(g.n, dtype=np.int32 if g.nnz < 2**31 else np.intp)
    levels: list[_Level] = []
    bottomup_costs: list[KernelCost] = []
    frontier = np.array([source], dtype=np.int64)
    direction = "td"
    edges_unexplored = g.nnz - g.degree(source)
    while len(frontier):
        counts = degrees.take(frontier)
        frontier_edges = int(counts.sum())
        if (
            direction == "td"
            and switches
            and frontier_edges > edges_unexplored / alpha
        ):
            direction = "bu"
        elif direction == "bu" and len(frontier) < g.n / beta:
            direction = "td"
        level = len(levels) + 1
        if direction == "td":
            nxt = push_level(
                g, frontier, counts, frontier_edges, dist, mark, level
            )
            edges = frontier_edges
        else:
            bitmap = queue_to_bitmap(frontier, g.n)
            nxt, edges, cost = bottomup_step(g, bitmap, dist, level, miss)
            bottomup_costs.append(cost)
        levels.append((direction, len(frontier), frontier_edges, edges, len(nxt)))
        edges_unexplored -= frontier_edges
        frontier = nxt
    return dist, levels, bottomup_costs


def bfs_distances(
    g: CSRGraph,
    source: int,
    *,
    ledger: Ledger | None = None,
    miss: float | None = None,
    alpha: float = ALPHA,
    beta: float = BETA,
    sequential: bool = False,
) -> tuple[np.ndarray, BFSStats]:
    """Distances from ``source`` by direction-optimizing BFS.

    Returns ``(dist, stats)`` with ``dist`` an ``int32[n]`` array holding
    hop counts and ``-1`` for unreachable vertices.  Costs are recorded
    into ``ledger`` (if given) under the caller's open phase, one record
    per level (a bottom-up level adds its queue-to-bitmap conversion
    first), in level order once the traversal is done; pass
    ``sequential=True`` to flag them as single-thread work (used by the
    prior-implementation baseline, which does not parallelize BFS).
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    miss = _locality(g, miss)
    dist, levels, bottomup_costs = _traverse(g, source, miss, alpha, beta)
    stats = BFSStats(source=source, levels=len(levels))
    for direction, _, _, edges, _ in levels:
        if direction == "td":
            stats.edges_topdown += edges
        else:
            stats.edges_bottomup += edges
        stats.directions.append(direction)
    stats.reached = int(np.count_nonzero(dist >= 0))
    if ledger is not None:
        pushed = [i + 1 for i, row in enumerate(levels) if row[0] == "td"]
        topdown_costs = iter(price_topdown_levels(g, dist, pushed, miss))
        pulled = iter(bottomup_costs)
        for direction, size, _, _, _ in levels:
            if direction == "td":
                cost = next(topdown_costs)
            else:
                cost = next(pulled)
                # Queue -> bitmap conversion streams the frontier + bitmap.
                ledger.add(
                    stream_cost(size * I64 + g.n, regions=0 if sequential else 1),
                    sequential=sequential,
                )
            if sequential:
                # A single-threaded traversal pays no barriers; its cost
                # is pure work/latency charged at p = 1.
                cost = cost.with_regions(0)
            ledger.add(cost, sequential=sequential)
    return dist, stats


def bfs_topdown_only(
    g: CSRGraph,
    source: int,
    *,
    ledger: Ledger | None = None,
    miss: float | None = None,
    sequential: bool = False,
) -> tuple[np.ndarray, BFSStats]:
    """Classical level-synchronous BFS (no direction optimization).

    Used as the ablation baseline showing what direction optimization
    buys on low-diameter skewed graphs.
    """
    return bfs_distances(
        g,
        source,
        ledger=ledger,
        miss=miss,
        alpha=np.inf,  # never switch to bottom-up
        sequential=sequential,
    )


#: Per-edge instruction cost of a *plain* sequential queue BFS: no
#: compare-and-swap, no shared frontier queues, no direction heuristics.
SEQ_BFS_OPS = 4.0
#: A simple sequential BFS overlaps its misses better than the charged
#: parallel kernels (its loop is a tight scan the prefetcher and reorder
#: buffer handle well); the paper-scale evidence — a plain sequential BFS
#: at ~31 ns/edge versus GAP's ~95 ns/examined-edge at one thread —
#: implies roughly 3x more memory-level parallelism.
SEQ_BFS_MISS_OVERLAP = 0.35


def bfs_sequential_cost(stats: BFSStats, g: CSRGraph) -> KernelCost:
    """Cost of one *plain sequential* traversal covering all 2m edges.

    Used by the prior-implementation baseline (Table 3), which performs
    classical FIFO-queue BFS with no parallelism and no direction
    optimization: every adjacency entry is examined exactly once.
    """
    miss = _locality(g, None)
    edges = g.nnz  # no direction optimization: the full 2m entries
    return KernelCost(
        work=SEQ_BFS_OPS * edges + 8.0 * stats.reached,
        bytes_streamed=edges * 4,
        random_lines=(edges + stats.reached) * miss * SEQ_BFS_MISS_OVERLAP,
        regions=0,
    )
