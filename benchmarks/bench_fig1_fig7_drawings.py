"""Figures 1, 7 and 8: the barth5 drawings.

Renders the mesh-with-four-holes stand-in with every algorithm of
Figure 7 (ParHDE default, ParHDE with random pivots, PHDE, PivotMDS),
the exact spectral reference of Figure 1 (bottom), and the Figure 8
zoom.  PNGs land in ``benchmarks/results/``.

Quality gates replace eyeballing: each layout must (a) be far better
than random in pivot-sampled stress, (b) span two dimensions, and
(c) keep adjacent vertices close; the ParHDE layout must additionally
approximate the exact spectral plane ("captures the global structure").
"""

import numpy as np

from repro import parhde, phde, pivotmds, zoom_layout
from repro.baselines import spectral_layout
from repro.drawing import save_drawing
from repro.metrics import edge_length_stats, principal_angles, sampled_stress

from conftest import load_cached

S = 20


def _run():
    # The small preset keeps the exact-spectral reference affordable
    # (the mesh's near-degenerate lambda_2/lambda_3 pair converges
    # slowly, which is HDE's whole selling point).
    g = load_cached("barth", scale="small")
    layouts = {
        "parhde": parhde(g, S, seed=0).coords,
        "parhde-random-pivots": parhde(
            g, S, seed=0, kernels={"pivots": "random-concurrent"}
        ).coords,
        "phde": phde(g, S, seed=0).coords,
        "pivotmds": pivotmds(g, S, seed=0).coords,
        "spectral-exact": spectral_layout(g, 2, tol=1e-8, seed=0).coords,
    }
    zoom = zoom_layout(g, center=g.n // 2, hops=10, s=10, seed=0)
    return g, layouts, zoom


def test_fig1_fig7_drawings(benchmark, report, results_dir):
    g, layouts, zoom = benchmark.pedantic(_run, rounds=1, iterations=1)

    rng = np.random.default_rng(0)
    random_coords = rng.standard_normal((g.n, 2))
    random_stress = sampled_stress(g, random_coords, seed=5)

    lines = [f"graph: {g.name} n={g.n} m={g.m}", ""]
    for name, coords in layouts.items():
        save_drawing(
            g, coords, results_dir / f"fig7_{name}.png", width=500, height=500
        )
        stress = sampled_stress(g, coords, seed=5)
        stats = edge_length_stats(g, coords)
        lines.append(
            f"{name:<22} stress={stress:8.4f} (random {random_stress:6.3f})"
            f" mean-edge={stats['mean']:.4f}"
        )
        # (a) far better than random placement.
        assert stress < 0.5 * random_stress
        # (b) genuinely two-dimensional.
        var = coords.var(axis=0)
        assert var.min() > 1e-4 * var.max()
        # (c) adjacent vertices drawn close relative to the spread.
        assert stats["mean"] < 0.6

    # ParHDE approximates the exact spectral drawing (Figure 1 claim).
    ang = principal_angles(
        layouts["parhde"], layouts["spectral-exact"], g.weighted_degrees
    )
    lines.append(f"\nprincipal angle ParHDE vs exact: {ang[0]:.3f} rad")
    assert ang[0] < 0.5

    # Figure 8: the 10-hop zoom.
    save_drawing(
        zoom.subgraph,
        zoom.layout.coords,
        results_dir / "fig8_zoom.png",
        width=400,
        height=400,
    )
    lines.append(
        f"zoom: {zoom.subgraph.n} vertices within 10 hops of {zoom.center}"
    )
    assert zoom.subgraph.n < g.n

    report("fig1_fig7_drawings", "\n".join(lines))
