"""Top-down level-synchronous BFS step.

The classical push step: every vertex in the current frontier scans its
adjacency list and claims unvisited neighbors for the next level.  The
GAP implementation resolves races with compare-and-swap on the parent
array; our vectorized equivalent computes the same set (the unvisited
neighbors, deduplicated) and, like the paper's modification, writes the
*distance* array without extra atomics (every writer writes the same
level value, so the race is benign).

:func:`topdown_step` is one level, traversed and priced together.
:func:`~repro.bfs.bfs_distances` runs only the traversal per level
(:func:`push_level`) and prices all its top-down levels afterwards from
the final distances (:func:`price_topdown_levels`), to the same bits.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.costs import KernelCost
from ..parallel.primitives import F64, I32, I64, LINE_BYTES
from .frontier import gather_neighbors

__all__ = [
    "topdown_step",
    "push_level",
    "price_topdown_levels",
    "TD_OPS",
    "sched_chunk",
    "chunk_depth",
]

#: Scalar instructions per inspected edge in an OpenMP top-down step:
#: index load, visited check, compare-and-swap, queue push amortized.
#: The *instruction* cost is modest (~15 ns/edge); on low-locality graphs
#: the per-edge price is dominated by the additive DRAM-stall term, which
#: is what makes urand traversals slow at 1 core and near-linearly
#: scalable at 28 (paper Figure 4), while locality-friendly graphs
#: (sk-2005) traverse cheaply and shift the profile toward DOrtho.
TD_OPS = 8.0


def sched_chunk(n: int) -> int:
    """Dynamic-scheduling chunk size, scaled to the graph size.

    GAP's parallel loops use ``schedule(dynamic, 64)``.  A 64-vertex
    chunk against a 24M-vertex road network leaves thousands of chunks
    per frontier; against our ~10^3-10^4x smaller reproduction graphs it
    would serialize every level.  We preserve the dimensionless quantity
    that matters — chunks per frontier — by shrinking the chunk size
    proportionally, clamped to [4, 64].
    """
    return max(4, min(64, n // 5000))


#: Ceiling on the fraction of a level's work one scheduling unit may
#: contribute to the critical path.  Work stealing and chunk splitting on
#: a real runtime bound the damage a single hub's chunk can do; the value
#: is calibrated so R-MAT-family graphs reproduce the paper's measured
#: ~11-15x BFS scaling on 28 cores (Figure 4) instead of collapsing to
#: the raw hub/level ratio, which is a down-scaling artifact (R-MAT max
#: degree shrinks much more slowly than m).
HUB_IMBALANCE_CAP = 0.12


def chunk_depth(counts: np.ndarray, chunk: int, ops_per_edge: float) -> float:
    """Critical-path work under dynamic chunked scheduling.

    Two effects bound a level's parallelism:

    * **few chunks** — the frontier is dealt out in ``chunk``-vertex
      units, so at most ``ceil(k / chunk)`` threads can be busy; the
      critical path is at least the mean chunk load.  This is what
      flattens road_usa (tiny frontiers) together with the per-level
      barrier.
    * **heavy chunks** — a hub's chunk is an indivisible unit; the
      critical path is at least its load, capped at
      ``HUB_IMBALANCE_CAP`` of the level (see above).  This is the load
      imbalance that keeps skewed (kron/twitter) and bursty-degree (web)
      graphs below urand's near-linear scaling in Figure 4.
    """
    k = len(counts)
    if k == 0:
        return 0.0
    # Dynamic runtimes shrink the chunk when the iteration space is small
    # (OpenMP guided/dynamic degenerate to one-vertex units); never let
    # granularity alone serialize a frontier that has >= 64 vertices.
    chunk = max(1, min(chunk, k // 64)) if k >= 64 else 1
    pad = (-k) % chunk
    if pad:
        counts = np.concatenate([counts, np.zeros(pad, dtype=counts.dtype)])
    per_chunk = counts.reshape(-1, chunk).sum(axis=1)
    total = float(per_chunk.sum())
    mean_chunk = total / len(per_chunk)
    hub_bound = min(float(per_chunk.max()), HUB_IMBALANCE_CAP * total)
    return max(mean_chunk, hub_bound) * ops_per_edge


def _segment_chunk_depth(
    csum: np.ndarray, lo: np.ndarray, k: np.ndarray, chunk: int, ops_per_edge: float
) -> np.ndarray:
    """:func:`chunk_depth` of many non-empty segments at once, same bits.

    Segment ``i`` holds the counts ``c[lo[i]:lo[i] + k[i]]`` of one
    array ``c`` given by its prefix sums ``csum`` (``csum[j]`` is the sum
    of ``c[:j]``).  Chunk loads and totals are the same integer sums and
    the bounds the same float operations, so each entry equals
    ``chunk_depth(c[lo[i]:lo[i] + k[i]], chunk, ops_per_edge)``.
    """
    size = np.where(k >= 64, np.maximum(1, np.minimum(chunk, k // 64)), 1)
    nchunks = -(-k // size)
    first = np.cumsum(nchunks) - nchunks
    owner = np.repeat(np.arange(len(k)), nchunks)
    start = lo[owner] + size[owner] * (np.arange(len(owner)) - first[owner])
    stop = np.minimum(start + size[owner], (lo + k)[owner])
    per_chunk = csum[stop] - csum[start]
    total = (csum[lo + k] - csum[lo]).astype(np.float64)
    heaviest = np.maximum.reduceat(per_chunk, first).astype(np.float64)
    hub_bound = np.minimum(heaviest, HUB_IMBALANCE_CAP * total)
    return np.maximum(total / nchunks, hub_bound) * ops_per_edge


def _level_cost(
    size: int, edges: int, found: int, depth: float, miss: float
) -> KernelCost:
    """Cost of one push level: ``size`` frontier vertices scanning
    ``edges`` adjacency entries and claiming ``found`` new ones."""
    if edges == 0:
        return KernelCost(regions=1)
    return KernelCost(
        # Inspect each edge once; claimed vertices pay a queue push.
        work=TD_OPS * edges + 8.0 * (size + found),
        # Heaviest scheduling unit = critical path (load imbalance from
        # hub vertices and from frontiers smaller than one chunk).
        depth=depth,
        # Sequential streams: frontier ids, indptr pairs, adjacency lists.
        bytes_streamed=size * (I64 + 2 * I64) + edges * I32,
        # Irregular traffic: read dist[nbr] per edge, write dist for the
        # claimed set (each a cache-line touch with probability ``miss``).
        random_lines=(edges + found) * miss,
        regions=1,
    )


def topdown_step(
    g: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    level: int,
    miss: float,
) -> tuple[np.ndarray, int, KernelCost]:
    """One push level.

    Parameters
    ----------
    frontier:
        Current-level vertex ids (sorted ``int64`` array).
    dist:
        ``int32[n]`` distances, ``-1`` for unvisited; updated in place.
    level:
        Distance value assigned to newly discovered vertices.
    miss:
        DRAM miss probability for the irregular ``dist[neighbor]``
        gathers (from :func:`repro.graph.gaps.miss_rate`).

    Returns
    -------
    (next_frontier, edges_examined, cost)
    """
    nbrs, counts, _ = gather_neighbors(g, frontier)
    edges = int(counts.sum())
    if edges == 0:
        return np.zeros(0, dtype=np.int64), 0, KernelCost(regions=1)
    unvisited = dist[nbrs] < 0
    nxt = np.unique(nbrs[unvisited]).astype(np.int64)
    dist[nxt] = level
    depth = chunk_depth(counts, sched_chunk(g.n), TD_OPS)
    return nxt, edges, _level_cost(len(frontier), edges, len(nxt), depth, miss)


def push_level(
    g: CSRGraph,
    frontier: np.ndarray,
    counts: np.ndarray,
    edges: int,
    dist: np.ndarray,
    mark: np.ndarray,
    level: int,
) -> np.ndarray:
    """Traverse one push level; returns the newly discovered vertices.

    ``counts`` are the frontier's degrees and ``edges`` their sum.
    Neighbours still at ``dist == -1`` are claimed with ``level``.
    Duplicates are dropped through ``mark``, an integer scratch array of
    length ``n`` (wide enough to index ``edges``) whose contents do not
    matter on entry: each claimed vertex keeps the one occurrence whose
    index its ``mark`` slot ended up holding.  The result is in no particular order, and nothing is
    priced here (see :func:`price_topdown_levels`).
    """
    if edges == 0:
        return np.zeros(0, dtype=np.intp)
    ends = counts.cumsum()
    slots = (g.indptr.take(frontier) - (ends - counts)).repeat(counts)
    slots += np.arange(edges)
    nbrs = g.indices.take(slots).astype(np.intp)
    fresh = nbrs[dist.take(nbrs) < 0]
    ids = np.arange(len(fresh), dtype=mark.dtype)
    mark[fresh] = ids
    nxt = fresh[mark.take(fresh) == ids]
    dist[nxt] = level
    return nxt


def price_topdown_levels(
    g: CSRGraph, dist: np.ndarray, levels: list[int], miss: float
) -> list[KernelCost]:
    """The :func:`topdown_step` cost of each push level in ``levels``.

    Level ``L``'s frontier is every vertex at final distance ``L - 1``,
    in vertex-id order (the order a level-by-level traversal holds it
    in), and it discovered every vertex at distance ``L``.  One stable
    sort of ``dist`` lays all levels out as contiguous segments (int16
    keys while the depth fits, which NumPy radix-sorts); the chunked
    critical path of every segment is then one vectorized pass
    (:func:`_segment_chunk_depth`).
    """
    if not levels:
        return []
    top = int(dist.max())
    keys = dist.astype(np.int16) if top < np.iinfo(np.int16).max else dist
    order = np.argsort(keys, kind="stable")
    # hist[d + 1] vertices sit at distance d (d = -1: unreached); the
    # padding makes the deepest level's (empty) discovered set countable.
    hist = np.bincount(dist + 1, minlength=top + 3)
    bounds = np.concatenate(([0], np.cumsum(hist)))
    at = np.asarray(levels, dtype=np.int64)
    lo = bounds[at]
    size = bounds[at + 1] - lo
    # Degree prefix sums in level order, built in place (this runs once
    # per traversal, beside the caller's n x s distance matrix).
    csum = np.zeros(len(order) + 1, dtype=np.int64)
    g.degrees.take(order, out=csum[1:])
    del order
    csum.cumsum(out=csum)
    edges = csum[lo + size] - csum[lo]
    depth = _segment_chunk_depth(csum, lo, size, sched_chunk(g.n), TD_OPS)
    return [
        _level_cost(k, e, f, d, miss)
        for k, e, f, d in zip(
            size.tolist(), edges.tolist(), hist[at + 1].tolist(), depth.tolist()
        )
    ]
