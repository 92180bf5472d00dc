"""Delta-stepping parallel SSSP (Meyer & Sanders), GAP-flavoured.

The weighted extension of ParHDE (section 3.3) replaces each BFS with a
Delta-stepping traversal.  Edges split into *light* (``w < delta``) and
*heavy* (``w >= delta``).  Buckets of width ``delta`` are processed in
order; the current bucket's light edges are relaxed repeatedly until the
bucket empties (vertices can be reinserted), then heavy edges of every
vertex settled in the bucket are relaxed once.

Each inner iteration is the GAP two-phase pattern: a relax phase (one
parallel region) followed by a local-to-shared bucket merge (a second
region).  The cost model charges both barriers, the relaxation work, and
latency for the irregular ``dist`` updates.

The paper reports (section 4.4): unit weights cost about 18% more than
the plain BFS, while random weights are 3.66x+ slower and sensitive to
``delta`` — both behaviours emerge here from the relaxation counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bfs.direction_optimizing import graph_miss_rate
from ..graph.csr import CSRGraph
from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import F64, I32
from .buckets import LazyBuckets

__all__ = ["SSSPStats", "delta_stepping", "suggest_delta", "RELAX_OPS"]

#: Scalar instructions per edge relaxation attempt: weight load, add,
#: compare, conditional min-update plus bucket bookkeeping.  Slightly
#: above the BFS top-down per-edge cost, which yields the paper's ~18%
#: unit-weight overhead over plain BFS.
RELAX_OPS = 10.0


@dataclass
class SSSPStats:
    """Per-traversal measurements for the Delta-stepping run."""

    source: int
    delta: float
    buckets_processed: int = 0
    inner_iterations: int = 0
    light_relaxations: int = 0
    heavy_relaxations: int = 0

    @property
    def relaxations(self) -> int:
        return self.light_relaxations + self.heavy_relaxations

    def work_ratio(self, m: int) -> float:
        """Relaxations per stored adjacency entry (1.0 = each edge once)."""
        return self.relaxations / (2 * m) if m else 0.0


def suggest_delta(g: CSRGraph) -> float:
    """The classic heuristic ``delta = max_weight / average_degree``.

    Degenerate graphs fall back to ``1.0``: a weighted graph with zero
    edges has no ``max()`` to take, and non-finite or non-positive
    weights would produce a bucket width that never terminates.
    """
    if g.weights is None or g.weights.size == 0:
        return 1.0
    max_w = float(g.weights.max())
    if not np.isfinite(max_w) or max_w <= 0.0:
        return 1.0
    avg_deg = max(g.average_degree, 1.0)
    return float(max_w / avg_deg)


def _gather_edges(
    g: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated ``(neighbor, weight, src_position)`` of ``vertices``."""
    counts = (g.indptr[vertices + 1] - g.indptr[vertices]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=np.float64), empty
    seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    starts = np.repeat(g.indptr[vertices], counts)
    pos = starts + (np.arange(total) - np.repeat(seg_starts, counts))
    nbrs = g.indices[pos].astype(np.int64)
    w = (
        g.weights[pos]
        if g.weights is not None
        else np.ones(total, dtype=np.float64)
    )
    src = np.repeat(vertices, counts)
    return nbrs, w, src


def _relax(
    dist: np.ndarray,
    src: np.ndarray,
    nbrs: np.ndarray,
    w: np.ndarray,
    sel: np.ndarray,
) -> int:
    """Relax selected edges in place; return the relaxation count."""
    if not np.any(sel):
        return 0
    cand = dist[src[sel]] + w[sel]
    np.minimum.at(dist, nbrs[sel], cand)
    return int(np.count_nonzero(sel))


def delta_stepping(
    g: CSRGraph,
    source: int,
    delta: float | None = None,
    *,
    ledger: Ledger | None = None,
    miss: float | None = None,
    max_buckets: int = 10_000_000,
) -> tuple[np.ndarray, SSSPStats]:
    """Shortest-path distances from ``source`` (``inf`` if unreachable).

    Unweighted graphs are traversed with unit weights; with
    ``delta = 1`` this degenerates to a level-synchronous BFS, which is
    why the unit-weight slowdown over real BFS is modest (extra float
    arithmetic and bucket bookkeeping only).
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    if delta is None:
        delta = suggest_delta(g)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if miss is None:
        miss = graph_miss_rate(g)

    dist = np.full(g.n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    buckets = LazyBuckets(dist, delta)
    stats = SSSPStats(source=source, delta=float(delta))

    k = buckets.next_nonempty(0)
    while k >= 0 and stats.buckets_processed < max_buckets:
        stats.buckets_processed += 1
        settled_this_bucket: list[np.ndarray] = []
        while True:
            members = buckets.pop(k)
            if len(members) == 0:
                break
            stats.inner_iterations += 1
            settled_this_bucket.append(members)
            nbrs, w, src = _gather_edges(g, members)
            light = w < delta
            relaxed = _relax(dist, src, nbrs, w, light)
            stats.light_relaxations += relaxed
            if ledger is not None:
                wbytes = F64 if g.weights is not None else 0
                ledger.add(
                    KernelCost(
                        work=RELAX_OPS * len(nbrs) + 10.0 * len(members),
                        bytes_streamed=len(nbrs) * (I32 + wbytes)
                        + len(members) * 8,
                        # One dist[v] probe per inspected edge; improved
                        # entries pay a second (write) touch.
                        random_lines=(len(nbrs) + relaxed) * miss,
                        regions=2,  # relax phase + bucket-merge phase
                    )
                )
        if settled_this_bucket:
            # A vertex popped several times (reinsertion) relaxes its
            # heavy edges once, with its final (settled) distance.
            settled = np.unique(np.concatenate(settled_this_bucket))
            nbrs, w, src = _gather_edges(g, settled)
            heavy = w >= delta
            relaxed = _relax(dist, src, nbrs, w, heavy)
            stats.heavy_relaxations += relaxed
            if ledger is not None and np.any(heavy):
                nheavy = int(np.count_nonzero(heavy))
                wbytes = F64 if g.weights is not None else 0
                ledger.add(
                    KernelCost(
                        work=RELAX_OPS * nheavy + 10.0 * len(settled),
                        bytes_streamed=nheavy * (I32 + wbytes),
                        random_lines=(nheavy + relaxed) * miss,
                        regions=2,
                    )
                )
        k = buckets.next_nonempty(k + 1)
    return dist, stats
