"""Tests for subspace iteration, diameter estimation, BFS tracing,
neighborhood preservation, layout serialization, and SVG/HTML export."""

import numpy as np
import pytest

from repro import parhde
from repro.baselines import spectral_layout
from repro.bfs import bfs_distances, format_trace, trace_bfs
from repro.core import load_layout, save_layout, subspace_iterate
from repro.graph import (
    cycle_graph,
    double_sweep_lower_bound,
    eccentricity_bounds,
    grid2d,
    path_graph,
    star_graph,
)
from repro.metrics import neighborhood_preservation, principal_angles


class TestSubspaceIteration:
    def test_keeps_d_orthonormal(self, tiny_mesh):
        base = parhde(tiny_mesh, s=10, seed=0)
        S = subspace_iterate(tiny_mesh, base.S, rounds=2)
        d = tiny_mesh.weighted_degrees
        G = S.T @ (d[:, None] * S)
        np.testing.assert_allclose(G, np.eye(S.shape[1]), atol=1e-8)
        np.testing.assert_allclose(S.T @ d, 0.0, atol=1e-8)

    def test_zero_rounds_identity(self, tiny_mesh):
        base = parhde(tiny_mesh, s=8, seed=0)
        S = subspace_iterate(tiny_mesh, base.S, rounds=0)
        np.testing.assert_allclose(S, base.S)

    def test_improves_spectral_approximation(self, tiny_mesh):
        """Each round rotates the layout toward the exact eigenvectors."""
        exact = spectral_layout(tiny_mesh, 2, tol=1e-10, seed=0)
        d = tiny_mesh.weighted_degrees
        plain = parhde(tiny_mesh, s=10, seed=0)
        refined = parhde(tiny_mesh, s=10, seed=0, kernels={"rounds": 6})
        a_plain = principal_angles(plain.coords, exact.coords, d)[0]
        a_ref = principal_angles(refined.coords, exact.coords, d)[0]
        assert a_ref < a_plain

    def test_eigenvalue_estimates_improve(self, tiny_mesh):
        plain = parhde(tiny_mesh, s=10, seed=0)
        refined = parhde(tiny_mesh, s=10, seed=0, kernels={"rounds": 4})
        # Projected Rayleigh values can only drop toward the true ones.
        assert refined.eigenvalues.sum() <= plain.eigenvalues.sum() + 1e-12

    def test_phase_recorded(self, tiny_mesh):
        res = parhde(tiny_mesh, s=8, seed=0, kernels={"rounds": 1})
        assert "SubspaceIter" in res.ledger.phases()
        assert res.params["rounds"] == 1

    def test_validation(self, tiny_mesh):
        base = parhde(tiny_mesh, s=6, seed=0)
        with pytest.raises(ValueError):
            subspace_iterate(tiny_mesh, base.S, rounds=-1)
        with pytest.raises(ValueError):
            subspace_iterate(tiny_mesh, np.ones((3, 2)), rounds=1)


class TestDiameter:
    def test_path_exact(self):
        est = double_sweep_lower_bound(path_graph(30), start=13)
        assert est.lower_bound == 29  # exact on trees

    def test_cycle_exact(self):
        est = double_sweep_lower_bound(cycle_graph(20))
        assert est.lower_bound == 10

    def test_star(self):
        est = double_sweep_lower_bound(star_graph(10), start=0)
        assert est.lower_bound == 2

    def test_grid_bound_sane(self):
        g = grid2d(10, 15)
        est = eccentricity_bounds(g, sweeps=4, seed=0)
        true_diam = 9 + 14
        assert est.lower_bound <= true_diam
        assert est.lower_bound >= true_diam - 2  # farthest-first is sharp here
        assert len(est.sources) == len(est.eccentricities)

    def test_bounds_never_exceed_bfs_ecc(self, small_random):
        est = eccentricity_bounds(small_random, sweeps=3, seed=1)
        for src, ecc in zip(est.sources, est.eccentricities):
            dist, _ = bfs_distances(small_random, src)
            assert ecc == dist.max()

    def test_validation(self, small_grid):
        with pytest.raises(ValueError):
            double_sweep_lower_bound(small_grid, start=-1)
        with pytest.raises(ValueError):
            eccentricity_bounds(small_grid, sweeps=0)


class TestTrace:
    def test_trace_matches_bfs(self, small_random):
        dist_ref, stats = bfs_distances(small_random, 4)
        dist, traces = trace_bfs(small_random, 4)
        np.testing.assert_array_equal(dist, dist_ref)
        assert [t.direction for t in traces] == stats.directions
        assert sum(t.edges_examined for t in traces) == stats.edges_examined

    def test_discovered_counts_sum_to_reached(self, small_grid):
        dist, traces = trace_bfs(small_grid, 0)
        assert sum(t.discovered for t in traces) == small_grid.n - 1

    def test_frontier_sizes_chain(self, path10):
        _, traces = trace_bfs(path10, 0)
        # Each level's frontier is the previous level's discoveries.
        for prev, cur in zip(traces, traces[1:]):
            assert cur.frontier_size == prev.discovered

    def test_format(self, small_grid):
        _, traces = trace_bfs(small_grid, 0)
        text = format_trace(traces)
        assert "lvl" in text and "total examined" in text
        assert len(text.splitlines()) == len(traces) + 3


class TestNeighborhoodPreservation:
    def test_perfect_grid_embedding(self):
        g = grid2d(12, 12)
        ids = np.arange(g.n)
        coords = np.column_stack([ids // 12, ids % 12]).astype(float)
        # The natural embedding has every graph neighbor among the
        # nearest layout points.
        assert neighborhood_preservation(g, coords, sample=None) > 0.9

    def test_random_layout_poor(self, tiny_mesh, rng):
        coords = rng.standard_normal((tiny_mesh.n, 2))
        assert neighborhood_preservation(tiny_mesh, coords) < 0.2

    def test_parhde_beats_random(self, tiny_mesh, rng):
        good = parhde(tiny_mesh, s=10, seed=0).coords
        bad = rng.standard_normal((tiny_mesh.n, 2))
        assert neighborhood_preservation(
            tiny_mesh, good, seed=1
        ) > 2 * neighborhood_preservation(tiny_mesh, bad, seed=1)

    def test_sampling_deterministic(self, tiny_mesh):
        coords = parhde(tiny_mesh, s=8, seed=0).coords
        a = neighborhood_preservation(tiny_mesh, coords, sample=100, seed=3)
        b = neighborhood_preservation(tiny_mesh, coords, sample=100, seed=3)
        assert a == b

    def test_validation(self, small_grid):
        with pytest.raises(ValueError):
            neighborhood_preservation(small_grid, np.zeros((3, 2)))


class TestSerialize:
    def test_roundtrip(self, tiny_mesh, tmp_path):
        res = parhde(tiny_mesh, s=8, seed=0)
        p = tmp_path / "layout.npz"
        save_layout(res, p)
        back = load_layout(p)
        np.testing.assert_array_equal(back.coords, res.coords)
        np.testing.assert_array_equal(back.B, res.B)
        np.testing.assert_array_equal(back.S, res.S)
        np.testing.assert_array_equal(back.pivots, res.pivots)
        assert back.algorithm == res.algorithm
        assert back.params["s"] == 8
        assert back.dropped == res.dropped

    def test_bad_version(self, tiny_mesh, tmp_path):
        res = parhde(tiny_mesh, s=6, seed=0)
        p = tmp_path / "layout.npz"
        save_layout(res, p)
        import numpy as np_

        data = dict(np_.load(p, allow_pickle=False))
        data["format_version"] = np_.int64(99)
        np_.savez_compressed(p, **data)
        with pytest.raises(ValueError, match="version"):
            load_layout(p)


class TestSVGExport:
    def test_svg_structure(self, tiny_mesh, tmp_path):
        from repro.drawing import write_svg

        res = parhde(tiny_mesh, s=8, seed=0)
        p = tmp_path / "mesh.svg"
        write_svg(tiny_mesh, res.coords, p, width=300, height=300)
        text = p.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == tiny_mesh.m
        assert 'viewBox="0 0 300 300"' in text

    def test_svg_max_edges(self, tiny_mesh, tmp_path):
        from repro.drawing import write_svg

        res = parhde(tiny_mesh, s=8, seed=0)
        p = tmp_path / "mesh.svg"
        write_svg(tiny_mesh, res.coords, p, max_edges=100)
        assert p.read_text().count("<line") == 100

    def test_interactive_html(self, tiny_mesh, tmp_path):
        from repro.drawing import write_interactive_html

        res = parhde(tiny_mesh, s=8, seed=0)
        p = tmp_path / "view.html"
        write_interactive_html(
            tiny_mesh, res.coords, p, title="test view", max_vertices=200
        )
        text = p.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "test view" in text
        assert text.count("<circle") == 200
        assert "addEventListener" in text  # pan/zoom script present
        assert f"m={tiny_mesh.m}" in text
