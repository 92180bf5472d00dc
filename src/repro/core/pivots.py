"""Pivot (source vertex) selection strategies for the BFS phase.

The default strategy is the farthest-first traversal — the classical
2-approximation to the k-centers problem (Gonzalez): start from a random
vertex, then repeatedly add the vertex farthest from all chosen sources.
Because the next source depends on the previous traversal, the ``s``
searches are inherently sequential and each one is internally parallel.

Decoupling source selection from traversal (a ParHDE design change,
section 3) enables the *random pivots* alternative of Table 6: choose
all sources uniformly at random up front and run the traversals
concurrently, one per thread — a large win on small and high-diameter
graphs.
"""

from __future__ import annotations

import numpy as np

from ..bfs.batched import batched_bfs_distances, run_sources_batched
from ..bfs.direction_optimizing import bfs_distances
from ..bfs.runner import (
    MultiSourceResult,
    _sub,
    farthest_update_cost,
    run_sources,
    run_sources_concurrent,
)
from ..graph.csr import CSRGraph
from ..parallel.costs import Ledger
from ..parallel.primitives import F64, I32, map_cost
from ..sssp.delta_stepping import delta_stepping

__all__ = ["STRATEGIES", "TRAVERSALS", "select_and_traverse", "random_pivots"]

STRATEGIES = ("kcenters", "random", "random-concurrent")
TRAVERSALS = ("per-source", "batched")


def random_pivots(g: CSRGraph, s: int, seed: int = 0) -> np.ndarray:
    """``s`` distinct vertices chosen uniformly at random."""
    if s > g.n:
        raise ValueError(f"cannot choose {s} pivots from {g.n} vertices")
    rng = np.random.default_rng(seed)
    return rng.choice(g.n, size=s, replace=False).astype(np.int64)


def _kcenters(
    g: CSRGraph,
    s: int,
    seed: int,
    ledger: Ledger | None,
    weighted: bool,
    delta: float | None,
) -> MultiSourceResult:
    rng = np.random.default_rng(seed)
    v = int(rng.integers(g.n))
    B = np.empty((g.n, s), dtype=np.float64)
    sources = np.empty(s, dtype=np.int64)
    stats = []
    dmin = np.full(g.n, np.inf)
    for i in range(s):
        sources[i] = v
        if weighted:
            dist, st = delta_stepping(g, v, delta, ledger=_sub(ledger, "traversal"))
            col = dist
        else:
            dist, st = bfs_distances(g, v, ledger=_sub(ledger, "traversal"))
            col = dist.astype(np.float64)
        B[:, i] = col
        stats.append(st)
        if ledger is not None:
            # Column write-back (part of the traversal bookkeeping).
            ledger.add(
                map_cost(g.n, flops_per_elem=1.0, bytes_per_elem=I32 + F64),
                subphase="traversal",
            )
        # Farthest-first update: d <- min(d, b_i), next source = argmax d
        # ("BFS: Other" in Table 1; unreachable vertices are excluded so a
        # disconnected fragment cannot absorb every pivot).
        reach = col >= 0 if not weighted else np.isfinite(col)
        np.minimum(dmin, np.where(reach, col, -np.inf), out=dmin)
        if ledger is not None:
            ledger.add(farthest_update_cost(g.n), subphase="overhead")
        if i + 1 < s:
            v = int(np.argmax(dmin))
            if dmin[v] <= 0:
                # Every reachable vertex is already a source (tiny or
                # disconnected graph): fall back to any unchosen vertex.
                chosen = set(sources[: i + 1].tolist())
                v = next(u for u in range(g.n) if u not in chosen)
    return MultiSourceResult(B, sources, stats)


def _kcenters_batched(
    g: CSRGraph,
    s: int,
    seed: int,
    ledger: Ledger | None,
) -> MultiSourceResult:
    """Farthest-first selection with batched traversal rounds.

    Exact farthest-first forces the traversals to run one at a time
    (each next source depends on the previous traversal), which is
    precisely what the batched kernel cannot accelerate.  This variant
    batches the *legal* parallelism: sources are chosen in rounds of
    doubling size (1, 1, 2, 4, ...), each round picking the current
    top-``r`` farthest vertices and traversing them together in one
    frontier-matrix sweep.  The first two picks match exact
    farthest-first; later rounds approximate it (all of a round's picks
    are farthest with respect to the sources chosen *before* the round).
    Unweighted graphs only.
    """
    rng = np.random.default_rng(seed)
    B = np.empty((g.n, s), dtype=np.float64)
    sources = np.empty(s, dtype=np.int64)
    stats = []
    dmin = np.full(g.n, np.inf)
    chosen = np.zeros(g.n, dtype=bool)
    batch = [int(rng.integers(g.n))]
    filled = 0
    while filled < s:
        batch_arr = np.asarray(batch, dtype=np.int64)
        dist, sts = batched_bfs_distances(
            g, batch_arr, ledger=_sub(ledger, "traversal")
        )
        cols = dist.astype(np.float64)
        B[:, filled : filled + len(batch)] = cols
        sources[filled : filled + len(batch)] = batch_arr
        stats.extend(sts)
        chosen[batch_arr] = True
        if ledger is not None:
            ledger.add(
                map_cost(
                    g.n * len(batch),
                    flops_per_elem=1.0,
                    bytes_per_elem=I32 + F64,
                ),
                subphase="traversal",
            )
            # One farthest-first min-update+argmax per round, not per
            # source — the other half of the batching win.
            ledger.add(farthest_update_cost(g.n), subphase="overhead")
        np.minimum(
            dmin, np.where(cols >= 0, cols, -np.inf).min(axis=1), out=dmin
        )
        filled += len(batch)
        if filled >= s:
            break
        r = min(filled, s - filled)
        avail = np.where(chosen, -np.inf, dmin)
        top = np.argpartition(avail, -r)[-r:]
        top = top[np.argsort(avail[top])[::-1]]
        batch = [int(u) for u in top if avail[u] > 0]
        if len(batch) < r:
            # Every reachable vertex is already a source (tiny or
            # disconnected graph): fall back to unchosen vertices.
            have = set(batch)
            for u in range(g.n):
                if len(batch) == r:
                    break
                if not chosen[u] and u not in have:
                    batch.append(u)
                    have.add(u)
    return MultiSourceResult(B, sources, stats)


def select_and_traverse(
    g: CSRGraph,
    s: int,
    *,
    strategy: str = "kcenters",
    traversal: str = "per-source",
    seed: int = 0,
    ledger: Ledger | None = None,
    weighted: bool = False,
    delta: float | None = None,
) -> MultiSourceResult:
    """Choose ``s`` pivots and compute the ``(n, s)`` distance matrix.

    Strategies
    ----------
    ``"kcenters"``
        Farthest-first selection interleaved with parallel traversals
        (the default algorithm of Table 6).
    ``"random"``
        Random pivots, traversals still run one-at-a-time (each
        internally parallel) — isolates the selection cost.
    ``"random-concurrent"``
        Random pivots with all traversals running concurrently, one
        sequential BFS per thread (the "Rand. Pivots" column of Table 6).
        Unweighted only.

    Traversal backends
    ------------------
    ``"per-source"`` (default) runs the strategies exactly as above.
    ``"batched"`` executes traversals through the frontier-matrix
    multi-source sweep (:mod:`repro.bfs.batched`): ``random`` and
    ``random-concurrent`` keep their pivot sets and distances
    bitwise-identical (one sweep replaces the loop / the thread pool);
    ``kcenters`` switches to round-batched farthest-first selection
    (see :func:`_kcenters_batched`), an approximation whose pivot set
    may differ.  Unweighted graphs only.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if s > g.n:
        raise ValueError(f"s={s} exceeds vertex count {g.n}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; options: {STRATEGIES}")
    if traversal not in TRAVERSALS:
        raise ValueError(
            f"unknown traversal {traversal!r}; options: {TRAVERSALS}"
        )
    if traversal == "batched" and weighted:
        raise ValueError("batched traversal supports unweighted BFS only")
    if strategy == "kcenters":
        if traversal == "batched":
            return _kcenters_batched(g, s, seed, ledger)
        return _kcenters(g, s, seed, ledger, weighted, delta)
    sources = random_pivots(g, s, seed)
    if traversal == "batched":
        # One frontier-matrix sweep serves both random strategies: it IS
        # the concurrent execution, with identical distances and stats.
        return run_sources_batched(g, sources, ledger=ledger)
    if strategy == "random-concurrent":
        if weighted:
            raise ValueError("concurrent traversal supports unweighted BFS only")
        return run_sources_concurrent(g, sources, ledger=ledger)
    if weighted:
        B = np.empty((g.n, s), dtype=np.float64)
        stats = []
        for i, src in enumerate(sources):
            dist, st = delta_stepping(
                g, int(src), delta, ledger=_sub(ledger, "traversal")
            )
            B[:, i] = dist
            stats.append(st)
        return MultiSourceResult(B, sources, stats)
    return run_sources(g, sources, ledger=ledger)
