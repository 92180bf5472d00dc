"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    from_edges,
    grid2d,
    mesh_with_holes,
    path_graph,
    preprocess,
    uniform_random,
)


@pytest.fixture(scope="session")
def tiny_mesh() -> CSRGraph:
    """Connected barth-like mesh, ~700 vertices."""
    return preprocess(mesh_with_holes(30, 30), name="tiny-mesh")


@pytest.fixture(scope="session")
def small_grid() -> CSRGraph:
    return grid2d(12, 17)


@pytest.fixture(scope="session")
def small_random() -> CSRGraph:
    """Connected uniform random graph, ~512 vertices."""
    return preprocess(uniform_random(9, degree=8, seed=42), name="small-rand")


@pytest.fixture(scope="session")
def path10() -> CSRGraph:
    return path_graph(10)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> CSRGraph:
    """A random connected simple graph: spanning tree + random extras.

    Used by property-based tests that need arbitrary connected inputs.
    """
    rng = np.random.default_rng(seed)
    parents = np.array(
        [rng.integers(0, max(i, 1)) for i in range(1, n)], dtype=np.int64
    )
    tu = np.arange(1, n, dtype=np.int64)
    if extra_edges:
        eu = rng.integers(0, n, size=extra_edges)
        ev = rng.integers(0, n, size=extra_edges)
        u = np.concatenate([parents, eu])
        v = np.concatenate([tu, ev])
    else:
        u, v = parents, tu
    return from_edges(n, u, v)


def arbitrary_graph(n, m, seed):
    """A random simple graph, *not* necessarily connected."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    return from_edges(n, u[keep], v[keep])
