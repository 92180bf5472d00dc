"""Final coverage batch: remaining uncovered paths across subsystems."""

import numpy as np
import pytest

from repro import parhde
from repro.core import subspace_iterate
from repro.graph import grid2d, random_integer_weights
from repro.parallel import BRIDGES_RSM, KernelCost, Ledger, PhaseTotals


class TestSubspaceIterationWeighted:
    def test_weighted_graph_rounds(self, small_grid):
        g = random_integer_weights(small_grid, 1, 6, seed=0)
        res = parhde(g, s=6, seed=0, kernels={"rounds": 2}, weighted=True)
        assert np.all(np.isfinite(res.coords))
        d = g.weighted_degrees
        np.testing.assert_allclose(res.coords.T @ d, 0.0, atol=1e-6)

    def test_rank_drop_tolerated(self, small_grid):
        base = parhde(small_grid, s=6, seed=0)
        # Duplicate a column: the block loses rank but iteration survives.
        S = np.column_stack([base.S, base.S[:, 0]])
        out = subspace_iterate(small_grid, S, rounds=1)
        assert out.shape[1] <= S.shape[1]
        d = small_grid.weighted_degrees
        G = out.T @ (d[:, None] * out)
        np.testing.assert_allclose(G, np.eye(out.shape[1]), atol=1e-8)


class TestMachineTimeTotals:
    def test_combines_parallel_and_sequential(self):
        tot = PhaseTotals(
            parallel=KernelCost(work=28e9),
            sequential=KernelCost(work=1e9),
        )
        t28 = BRIDGES_RSM.time_totals(tot, 28)
        # parallel part: 1e9 ops/core-rate; sequential: same again.
        expected = 28e9 / (28 * 0.55e9) + 1e9 / 0.55e9
        assert t28 == pytest.approx(expected, rel=1e-6)

    def test_combined_property(self):
        tot = PhaseTotals(
            parallel=KernelCost(work=1), sequential=KernelCost(flops=2)
        )
        assert tot.combined.work == 1 and tot.combined.flops == 2


class TestCLIBenchMachines:
    @pytest.mark.parametrize("machine", ["bridges-esm", "laptop"])
    def test_bench_machine_option(self, machine, capsys):
        from repro.cli import main

        rc = main(
            ["bench", "ecology", "--scale", "tiny", "-s", "4",
             "--machine", machine, "--threads", "1", "4"]
        )
        assert rc == 0
        assert "p=4" in capsys.readouterr().out


class TestNeighborhoodWeighted:
    def test_weighted_graph_supported(self, small_grid, rng):
        from repro.metrics import neighborhood_preservation

        g = random_integer_weights(small_grid, 1, 5, seed=0)
        coords = rng.random((g.n, 2))
        score = neighborhood_preservation(g, coords, sample=50)
        assert 0.0 <= score <= 1.0


class TestLedgerPhasesAPI:
    def test_current_phase_outside_context(self):
        led = Ledger()
        assert led.current_phase == "Other"

    def test_phase_reentry_order(self):
        led = Ledger()
        with led.phase("B"):
            led.add(KernelCost(work=1))
        with led.phase("A"):
            led.add(KernelCost(work=1))
        with led.phase("B"):
            led.add(KernelCost(work=1))
        assert led.phases() == ["B", "A"]  # first-recorded order, no dup


class TestRenderEdgeColorSubsampleAlignment:
    def test_colors_follow_subsample(self, tiny_mesh, rng):
        """Subsampling edges must subsample their colors identically."""
        from repro.drawing import render_layout

        coords = rng.random((tiny_mesh.n, 2))
        u, v = tiny_mesh.edge_list()
        colors = np.zeros((len(u), 3), dtype=np.uint8)
        colors[:, 0] = 255  # all red
        canvas = render_layout(
            tiny_mesh, coords, width=60, height=60,
            edge_colors=colors, max_edges=100, seed=1,
        )
        # Only red ink (plus white background) may appear.
        px = canvas.pixels.reshape(-1, 3)
        inked = px[np.any(px != 255, axis=1)]
        assert len(inked) > 0
        assert np.all(inked[:, 0] == 255)
        assert np.all(inked[:, 1] == 0)


class TestDeltaSteppingMaxBuckets:
    def test_bucket_cap_stops_early(self, small_grid):
        g = random_integer_weights(small_grid, 1, 64, seed=0)
        dist, stats = __import__("repro").sssp.delta_stepping(
            g, 0, 4.0, max_buckets=2
        )
        assert stats.buckets_processed == 2
        assert np.isinf(dist).any()  # unfinished by construction
