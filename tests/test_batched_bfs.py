"""Batched frontier-matrix multi-source BFS: parity and cost tests.

The contract of :mod:`repro.bfs.batched` is *bitwise* equivalence with
``s`` independent direction-optimizing traversals — distances (including
the ``-1`` unreached sentinel on disconnected graphs), per-column level
counts, per-level direction decisions, and the measured edge-examination
counters all match :func:`repro.bfs.bfs_distances` exactly.  What changes
is the cost model: one fork-join region per direction-group per level
instead of one per source per level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import bfs_distances
from repro.bfs.batched import batched_bfs_distances, run_sources_batched
from repro.bfs.runner import run_sources
from repro.graph import from_edges, grid2d, path_graph, uniform_random
from repro.parallel.costs import Ledger

from conftest import arbitrary_graph, random_connected_graph


def assert_batched_matches_per_source(g, sources):
    dist, stats = batched_bfs_distances(g, sources)
    assert dist.dtype == np.int32
    assert dist.shape == (g.n, len(sources))
    for j, src in enumerate(sources):
        ref_dist, ref = bfs_distances(g, int(src))
        np.testing.assert_array_equal(dist[:, j], ref_dist)
        st_j = stats[j]
        assert st_j.source == int(src)
        assert st_j.levels == ref.levels
        assert st_j.directions == ref.directions
        assert st_j.edges_topdown == ref.edges_topdown
        assert st_j.edges_bottomup == ref.edges_bottomup
        assert st_j.reached == ref.reached


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    extra=st.integers(0, 120),
    seed=st.integers(0, 9999),
    s=st.integers(1, 8),
)
def test_property_connected_bitwise_parity(n, extra, seed, s):
    """Property: batched == s independent traversals, connected graphs."""
    g = random_connected_graph(n, extra, seed)
    rng = np.random.default_rng(seed + 1)
    sources = rng.integers(0, n, size=min(s, n)).astype(np.int64)
    assert_batched_matches_per_source(g, sources)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    m=st.integers(0, 90),
    seed=st.integers(0, 9999),
    s=st.integers(1, 8),
)
def test_property_disconnected_bitwise_parity(n, m, seed, s):
    """Property: unreached vertices stay ``-1`` in every column."""
    g = arbitrary_graph(n, m, seed)
    rng = np.random.default_rng(seed + 1)
    sources = rng.integers(0, n, size=min(s, n)).astype(np.int64)
    assert_batched_matches_per_source(g, sources)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 50),
    m=st.integers(0, 80),
    seed=st.integers(0, 9999),
    s=st.integers(1, 6),
)
def test_property_stats_totals(n, m, seed, s):
    """Property: per-column counters are internally consistent."""
    g = arbitrary_graph(n, m, seed)
    rng = np.random.default_rng(seed + 2)
    sources = rng.integers(0, n, size=min(s, n)).astype(np.int64)
    dist, stats = batched_bfs_distances(g, sources)
    for j, st_j in enumerate(stats):
        assert len(st_j.directions) == st_j.levels
        assert st_j.reached == int((dist[:, j] >= 0).sum())
        # The loop always processes the deepest frontier once more (it
        # discovers nothing and empties), so levels == max dist + 1.
        assert st_j.levels == int(dist[:, j].max()) + 1
        assert st_j.edges_examined <= 2 * g.nnz * max(1, st_j.levels)


def test_duplicate_sources(small_grid):
    """The same pivot may appear twice; its columns are identical."""
    sources = np.array([5, 5, 17], dtype=np.int64)
    assert_batched_matches_per_source(small_grid, sources)


def test_high_diameter_path():
    """Path graph stresses many levels with tiny frontiers."""
    g = path_graph(80)
    sources = np.array([0, 40, 79], dtype=np.int64)
    assert_batched_matches_per_source(g, sources)


def test_dense_random_triggers_bottom_up(small_random):
    """uniform_random(9, degree=8) flips to bottom-up mid-traversal."""
    sources = np.arange(6, dtype=np.int64)
    dist, stats = batched_bfs_distances(small_random, sources)
    assert any("bu" in st_j.directions for st_j in stats)
    assert_batched_matches_per_source(small_random, sources)


def test_source_out_of_range(small_grid):
    with pytest.raises(ValueError):
        batched_bfs_distances(small_grid, np.array([small_grid.n]))
    with pytest.raises(ValueError):
        batched_bfs_distances(small_grid, np.array([-1]))


def test_run_sources_batched_matches_runner(small_grid):
    """The MultiSourceResult wrapper mirrors run_sources bitwise."""
    sources = np.array([0, 30, 99, 150], dtype=np.int64)
    batched = run_sources_batched(small_grid, sources)
    ref = run_sources(small_grid, sources)
    np.testing.assert_array_equal(batched.distances, ref.distances)
    np.testing.assert_array_equal(batched.sources, ref.sources)
    assert batched.distances.dtype == np.float64
    for a, b in zip(batched.stats, ref.stats):
        assert a.levels == b.levels
        assert a.directions == b.directions
        assert a.edges_examined == b.edges_examined


def test_batched_ledger_fewer_regions(small_random):
    """One region per direction-group per level, not per source."""
    sources = np.arange(8, dtype=np.int64)
    led_b = Ledger()
    with led_b.phase("BFS"):
        run_sources_batched(small_random, sources, ledger=led_b)
    led_p = Ledger()
    with led_p.phase("BFS"):
        run_sources(small_random, sources, ledger=led_p)
    def regions(led):
        tot = led.phase_totals()["BFS"]
        return tot.parallel.regions + tot.sequential.regions

    assert regions(led_b) < regions(led_p)


def test_batched_rejects_weighted():
    """select_and_traverse refuses batched + weighted."""
    from repro.core.pivots import select_and_traverse
    from repro.graph import random_integer_weights

    g = random_integer_weights(grid2d(6, 6), seed=0)
    with pytest.raises(ValueError, match="unweighted"):
        select_and_traverse(g, 3, traversal="batched", weighted=True)


def test_graph_miss_rate_thread_safe(small_random):
    """Concurrent first calls agree and memoize exactly one value."""
    import threading

    from repro.bfs import graph_miss_rate

    g = uniform_random(8, degree=6, seed=7)
    results = []
    barrier = threading.Barrier(8)

    def probe():
        barrier.wait()
        results.append(graph_miss_rate(g))

    threads = [threading.Thread(target=probe) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == graph_miss_rate(g)
