"""Tests for the ParHDE core algorithm."""

import hashlib

import numpy as np
import pytest

from repro import parhde
from repro.baselines import spectral_layout
from repro.graph import complete_graph, from_edges, random_integer_weights
from repro.metrics import principal_angles, rayleigh_quotients
from repro.parallel import BRIDGES_RSM, Ledger


class TestBasics:
    def test_output_shapes(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0)
        assert res.coords.shape == (tiny_mesh.n, 2)
        assert res.B.shape == (tiny_mesh.n, 10)
        assert res.S.shape[0] == tiny_mesh.n
        assert len(res.eigenvalues) == 2
        assert len(res.pivots) == 10
        assert np.all(np.isfinite(res.coords))

    def test_three_dims(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, dims=3, seed=0)
        assert res.coords.shape == (tiny_mesh.n, 3)
        assert len(res.eigenvalues) == 3

    def test_deterministic(self, tiny_mesh):
        a = parhde(tiny_mesh, s=8, seed=5)
        b = parhde(tiny_mesh, s=8, seed=5)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.pivots, b.pivots)

    def test_seed_changes_pivots(self, tiny_mesh):
        a = parhde(tiny_mesh, s=8, seed=1)
        b = parhde(tiny_mesh, s=8, seed=2)
        assert not np.array_equal(a.pivots, b.pivots)

    def test_subspace_d_orthonormal(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0)
        d = tiny_mesh.weighted_degrees
        G = res.S.T @ (d[:, None] * res.S)
        np.testing.assert_allclose(G, np.eye(res.S.shape[1]), atol=1e-8)

    def test_layout_centered(self, tiny_mesh):
        # x' D 1 = 0 is a constraint of Eq. 1.
        res = parhde(tiny_mesh, s=10, seed=0)
        d = tiny_mesh.weighted_degrees
        np.testing.assert_allclose(res.coords.T @ d, 0.0, atol=1e-6)

    def test_eigenvalues_sorted_nonnegative(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0)
        assert res.eigenvalues[0] >= -1e-12
        assert res.eigenvalues[0] <= res.eigenvalues[1]


class TestValidation:
    def test_disconnected_rejected(self):
        g = from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5])
        with pytest.raises(ValueError, match="connected"):
            parhde(g, s=3)

    def test_too_small(self):
        g = from_edges(2, [0], [1])
        with pytest.raises(ValueError, match="3 vertices"):
            parhde(g, s=2)

    def test_s_below_dims(self, tiny_mesh):
        with pytest.raises(ValueError, match="at least"):
            parhde(tiny_mesh, s=1, dims=2)

    def test_weighted_flag_requires_weights(self, tiny_mesh):
        with pytest.raises(ValueError, match="weighted"):
            parhde(tiny_mesh, s=5, weighted=True)

    def test_bad_options(self, tiny_mesh):
        with pytest.raises(ValueError):
            parhde(tiny_mesh, s=5, kernels={"ortho": "Q"})
        with pytest.raises(ValueError):
            parhde(tiny_mesh, s=5, kernels={"project_basis": "C"})

    def test_complete_graph_degenerate_distances(self):
        # BFS columns of K_n are 1 - e_source: independent but nearly
        # parallel; the pipeline must survive and produce a symmetric
        # layout (all projected eigenvalues equal by symmetry).
        g = complete_graph(8)
        res = parhde(g, s=5, seed=0)
        assert res.coords.shape == (8, 2)
        assert np.all(np.isfinite(res.coords))
        assert res.eigenvalues[0] == pytest.approx(res.eigenvalues[1], rel=1e-6)


class TestVariantsAndOptions:
    def test_project_basis_b(self, tiny_mesh):
        res_s = parhde(
            tiny_mesh, s=10, seed=0, kernels={"project_basis": "S"}
        )
        res_b = parhde(
            tiny_mesh, s=10, seed=0, kernels={"project_basis": "B"}
        )
        assert res_b.coords.shape == res_s.coords.shape
        assert np.all(np.isfinite(res_b.coords))
        # The paper's B-projection lands in the same subspace family;
        # the dominant direction agrees even though the bases differ.
        ang = principal_angles(res_s.coords, res_b.coords)
        assert ang[0] < 0.3

    def test_plain_ortho(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0, kernels={"ortho": "plain"})
        G = res.S.T @ res.S
        np.testing.assert_allclose(G, np.eye(res.S.shape[1]), atol=1e-8)

    def test_random_pivot_strategies(self, tiny_mesh):
        for strategy in ("random", "random-concurrent"):
            res = parhde(tiny_mesh, s=8, seed=0, kernels={"pivots": strategy})
            assert len(np.unique(res.pivots)) == 8
            assert np.all(np.isfinite(res.coords))

    def test_cgs(self, tiny_mesh):
        res_m = parhde(
            tiny_mesh, s=10, seed=0, kernels={"gs_method": "mgs"}
        )
        res_c = parhde(
            tiny_mesh, s=10, seed=0, kernels={"gs_method": "cgs"}
        )
        # Numerically identical pipelines up to rounding.
        np.testing.assert_allclose(res_m.coords, res_c.coords, atol=1e-6)

    def test_weighted_pipeline(self, tiny_mesh):
        g = random_integer_weights(tiny_mesh, 1, 8, seed=1)
        res = parhde(g, s=8, seed=0, weighted=True)
        assert np.all(np.isfinite(res.coords))
        # Weighted distances are not hop counts.
        assert res.B.max() > 8


class TestWarmBase:
    def test_distances_skip_only_bfs(self, tiny_mesh):
        cold = parhde(tiny_mesh, 8, seed=0)
        led = Ledger()
        warm = parhde(
            tiny_mesh,
            8,
            seed=0,
            warm_base={"B": cold.B, "pivots": cold.pivots},
            ledger=led,
        )

        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        assert digest(warm.coords) == digest(cold.coords)
        np.testing.assert_array_equal(warm.eigenvalues, cold.eigenvalues)
        assert warm.B is cold.B
        assert "BFS" not in led.phase_totals()
        assert {"DOrtho", "TripleProd", "Other"} <= set(led.phase_totals())


class TestQuality:
    def test_approximates_spectral_layout(self, tiny_mesh):
        """Figure 1 claim: HDE axes nearly span the true eigenvector plane."""
        hde = parhde(tiny_mesh, s=20, seed=0)
        exact = spectral_layout(tiny_mesh, 2, tol=1e-10, seed=0)
        d = tiny_mesh.weighted_degrees
        ang = principal_angles(hde.coords, exact.coords, d)
        assert ang[0] < 0.35  # first axis close

    def test_rayleigh_quotients_above_exact(self, tiny_mesh):
        """HDE minimizes Eq. 1 within a subspace: objective >= optimum."""
        hde = parhde(tiny_mesh, s=15, seed=0)
        exact = spectral_layout(tiny_mesh, 2, tol=1e-10, seed=0)
        rq_hde = np.sort(rayleigh_quotients(tiny_mesh, hde.coords))
        rq_opt = np.sort(rayleigh_quotients(tiny_mesh, exact.coords))
        assert rq_hde[0] >= rq_opt[0] - 1e-9
        # ... but within a modest factor (it is a good approximation).
        assert rq_hde[1] < 30 * max(rq_opt[1], 1e-12)

    def test_more_pivots_no_worse(self, tiny_mesh):
        small = parhde(tiny_mesh, s=4, seed=0)
        large = parhde(tiny_mesh, s=24, seed=0)
        rq_s = rayleigh_quotients(tiny_mesh, small.coords).sum()
        rq_l = rayleigh_quotients(tiny_mesh, large.coords).sum()
        assert rq_l <= rq_s * 1.25  # larger subspace ~ better objective


class TestPerformanceQueries:
    def test_phase_seconds_structure(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0)
        ph = res.phase_seconds(BRIDGES_RSM, 28)
        assert set(ph) == {"BFS", "DOrtho", "TripleProd", "Other"}
        assert all(v > 0 for v in ph.values())

    def test_subphases(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0)
        sub = res.subphase_seconds(BRIDGES_RSM, 28, "TripleProd")
        assert "LS" in sub and "S'(LS)" in sub
        bfs_sub = res.subphase_seconds(BRIDGES_RSM, 28, "BFS")
        assert "traversal" in bfs_sub and "overhead" in bfs_sub

    def test_speedup_monotone(self, tiny_mesh):
        res = parhde(tiny_mesh, s=10, seed=0)
        times = [res.simulated_seconds(BRIDGES_RSM, p) for p in (1, 2, 4, 8)]
        assert all(b <= a * 1.0001 for a, b in zip(times, times[1:]))

    def test_external_ledger(self, tiny_mesh):
        led = Ledger()
        res = parhde(tiny_mesh, s=5, seed=0, ledger=led)
        assert res.ledger is led
        assert len(led) > 0
