"""Tests for ParHDE execution variants (plain orthogonalization)."""

from repro import parhde


def test_laplacian_layout_is_plain_ortho(tiny_mesh):
    res = parhde(tiny_mesh, s=8, seed=1, kernels={"ortho": "plain"})
    assert res.params["ortho"] == "plain"


def test_plain_vs_d_ortho_similar_on_uniform_degrees(small_grid):
    """Section 4.5.1: for uniform degree distributions, the two variants
    give more or less identical drawings."""
    from repro.metrics import principal_angles

    a = parhde(small_grid, s=10, seed=0, kernels={"ortho": "D"})
    b = parhde(small_grid, s=10, seed=0, kernels={"ortho": "plain"})
    ang = principal_angles(a.coords, b.coords)
    assert ang[0] < 0.25
