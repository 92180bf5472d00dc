"""Tests for ParHDE execution variants (coupled pipeline, plain ortho)."""

import numpy as np
import pytest

from repro import parhde, parhde_coupled
from repro.core import laplacian_layout
from repro.parallel import BRIDGES_RSM


def test_coupled_matches_decoupled(tiny_mesh):
    a = parhde(tiny_mesh, s=10, seed=3, kernels={"gs_method": "mgs"})
    b = parhde_coupled(tiny_mesh, s=10, seed=3)
    np.testing.assert_array_equal(a.pivots, b.pivots)
    np.testing.assert_allclose(a.coords, b.coords, atol=1e-8)


def test_coupled_phase_structure(tiny_mesh):
    res = parhde_coupled(tiny_mesh, s=8, seed=0)
    ph = res.phase_seconds(BRIDGES_RSM, 28)
    assert {"BFS", "DOrtho", "TripleProd", "Other"} <= set(ph)


def test_coupled_validation(tiny_mesh):
    with pytest.raises(ValueError):
        parhde_coupled(tiny_mesh, s=1, dims=2)


def test_coupled_disconnected_rejected():
    from repro.graph import from_edges

    g = from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5])
    with pytest.raises(ValueError, match="connected"):
        parhde_coupled(g, s=3)


def test_laplacian_layout_is_plain_ortho(tiny_mesh):
    a = laplacian_layout(tiny_mesh, s=8, seed=1)
    b = parhde(tiny_mesh, s=8, seed=1, kernels={"ortho": "plain"})
    np.testing.assert_allclose(a.coords, b.coords)
    assert a.params["ortho"] == "plain"


def test_plain_vs_d_ortho_similar_on_uniform_degrees(small_grid):
    """Section 4.5.1: for uniform degree distributions, the two variants
    give more or less identical drawings."""
    from repro.metrics import principal_angles

    a = parhde(small_grid, s=10, seed=0, kernels={"ortho": "D"})
    b = parhde(small_grid, s=10, seed=0, kernels={"ortho": "plain"})
    ang = principal_angles(a.coords, b.coords)
    assert ang[0] < 0.25
