"""The lean level loop of :func:`repro.bfs.bfs_distances` against a reference.

``bfs_distances`` runs a top-down level as traversal only and prices all
its top-down levels afterwards from the final distances.  The reference
below is the per-level loop it replaced, which priced each level as it
went (:func:`repro.bfs.topdown_step`).  Both must agree bit for bit on
the distances, the :class:`BFSStats` and every ledger record, in order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parhde
from repro.bfs import (
    ALPHA,
    BETA,
    BFSStats,
    bfs_distances,
    bottomup_step,
    graph_miss_rate,
    queue_to_bitmap,
    topdown_step,
    trace_bfs,
)
from repro.graph import from_edges, grid2d, path_graph, star_graph
from repro.graph.weights import random_integer_weights
from repro.parallel.costs import KernelCost, Ledger
from repro.parallel.primitives import I64, stream_cost

from conftest import arbitrary_graph, random_connected_graph


def reference_bfs(
    g, source, *, ledger=None, miss=None, alpha=ALPHA, beta=BETA, sequential=False
):
    """The per-level loop: each level traverses and prices itself.

    Returns ``(dist, stats, rows)`` with one ``(direction, frontier_size,
    frontier_edges, edges_examined, discovered)`` row per level.
    """
    if miss is None:
        miss = graph_miss_rate(g)
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[source] = 0
    stats = BFSStats(source=source)
    rows = []
    frontier = np.array([source], dtype=np.int64)
    direction = "td"
    edges_unexplored = g.nnz - g.degree(source)
    level = 0
    while len(frontier):
        level += 1
        frontier_edges = int((g.indptr[frontier + 1] - g.indptr[frontier]).sum())
        if (
            direction == "td"
            and np.isfinite(alpha)
            and frontier_edges > edges_unexplored / alpha
        ):
            direction = "bu"
        elif direction == "bu" and len(frontier) < g.n / beta:
            direction = "td"
        size = len(frontier)
        if direction == "td":
            frontier, edges, cost = topdown_step(g, frontier, dist, level, miss)
            stats.edges_topdown += edges
        else:
            bitmap = queue_to_bitmap(frontier, g.n)
            if ledger is not None:
                ledger.add(
                    stream_cost(
                        len(frontier) * I64 + g.n,
                        regions=0 if sequential else 1,
                    ),
                    sequential=sequential,
                )
            frontier, edges, cost = bottomup_step(g, bitmap, dist, level, miss)
            stats.edges_bottomup += edges
        rows.append((direction, size, frontier_edges, edges, len(frontier)))
        stats.directions.append(direction)
        stats.levels += 1
        edges_unexplored -= frontier_edges
        if ledger is not None:
            if sequential:
                cost = KernelCost(
                    work=cost.work,
                    depth=cost.depth,
                    bytes_streamed=cost.bytes_streamed,
                    random_lines=cost.random_lines,
                    regions=0,
                )
            ledger.add(cost, sequential=sequential)
    stats.reached = int(np.count_nonzero(dist >= 0))
    return dist, stats, rows


def assert_matches_reference(g, source, **kwargs):
    ref_ledger, ledger = Ledger(), Ledger()
    with ref_ledger.phase("BFS"):
        ref_dist, ref_stats, rows = reference_bfs(
            g, source, ledger=ref_ledger, **kwargs
        )
    with ledger.phase("BFS"):
        dist, stats = bfs_distances(g, source, ledger=ledger, **kwargs)
    assert dist.dtype == ref_dist.dtype
    assert dist.tobytes() == ref_dist.tobytes()
    assert repr(stats) == repr(ref_stats)
    assert [repr(r) for r in ledger._records] == [
        repr(r) for r in ref_ledger._records
    ]
    if "miss" not in kwargs and "sequential" not in kwargs:
        trace_dist, traces = trace_bfs(g, source, **kwargs)
        assert trace_dist.tobytes() == ref_dist.tobytes()
        assert [
            (t.direction, t.frontier_size, t.frontier_edges, t.edges_examined, t.discovered)
            for t in traces
        ] == rows
        assert [t.level for t in traces] == list(range(1, len(rows) + 1))


_SETTINGS = st.sampled_from(
    [
        {},
        {"sequential": True},
        {"alpha": np.inf},
        {"alpha": np.inf, "sequential": True},
        {"alpha": 2.0, "beta": 4.0},
        {"miss": 0.37},
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 700),
    density=st.floats(0.0, 6.0),
    seed=st.integers(0, 9999),
    kwargs=_SETTINGS,
)
def test_property_disconnected_matches_reference(n, density, seed, kwargs):
    """Property: random graphs, isolated vertices and unreached parts."""
    g = arbitrary_graph(n, int(density * n), seed)
    source = int(np.random.default_rng(seed + 1).integers(0, n))
    assert_matches_reference(g, source, **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 700),
    extra=st.integers(0, 2000),
    seed=st.integers(0, 9999),
    kwargs=_SETTINGS,
)
def test_property_connected_matches_reference(n, extra, seed, kwargs):
    g = random_connected_graph(n, extra, seed)
    source = int(np.random.default_rng(seed + 1).integers(0, n))
    assert_matches_reference(g, source, **kwargs)


def test_isolated_source():
    g = from_edges(5, np.array([1, 2]), np.array([2, 3]))
    for kwargs in ({}, {"sequential": True}, {"alpha": np.inf}):
        assert_matches_reference(g, 0, **kwargs)
        assert_matches_reference(g, 4, **kwargs)
    dist, stats = bfs_distances(g, 0)
    assert dist.tolist() == [0, -1, -1, -1, -1]
    assert stats.levels == 1 and stats.edges_examined == 0


def test_chunked_frontiers_and_deep_paths():
    """Frontiers wide enough for multi-vertex chunks, and a long tail."""
    star = star_graph(900)
    for kwargs in ({}, {"alpha": np.inf}, {"sequential": True}):
        assert_matches_reference(star, 0, **kwargs)
        assert_matches_reference(star, 5, **kwargs)
        assert_matches_reference(grid2d(40, 60), 7, **kwargs)
        assert_matches_reference(path_graph(300), 150, **kwargs)


def test_one_gap_analysis_per_weighted_layout(monkeypatch):
    """Weighted k-centers, SpMM and BFS share one miss-rate memo."""
    from repro.graph import gaps

    calls = []
    real = gaps.miss_rate

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(gaps, "miss_rate", spy)
    g = random_integer_weights(grid2d(14, 15), 1, 16, seed=0)
    result = parhde(g, 10, seed=0, weighted=True)
    assert np.all(np.isfinite(result.coords))
    assert len(calls) == 1
