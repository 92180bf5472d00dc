"""Reproduce the paper's drawings (Figures 1, 7 and 8).

Renders the barth5 stand-in (triangulated plate with four holes) with
every algorithm Figure 7 compares — ParHDE (k-centers pivots), ParHDE
with random pivots, PHDE, PivotMDS — plus the exact spectral reference
of Figure 1 (bottom) and the Figure 8 ten-hop zoom.

Run:  python examples/drawing_gallery.py [output_dir]
"""

import sys
from pathlib import Path

from repro import datasets, parhde, phde, pivotmds, zoom_layout
from repro.baselines import spectral_layout
from repro.drawing import save_drawing
from repro.metrics import principal_angles, sampled_stress


def main() -> None:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    outdir.mkdir(exist_ok=True)

    g = datasets.load("barth", scale="small")
    print(f"graph: {g!r}")

    recipes = {
        "fig1_top_parhde": lambda: parhde(g, s=20, seed=0).coords,
        "fig7_parhde_random_pivots": lambda: parhde(
            g, s=20, seed=0, kernels={"pivots": "random-concurrent"}
        ).coords,
        "fig7_phde": lambda: phde(g, s=20, seed=0).coords,
        "fig7_pivotmds": lambda: pivotmds(g, s=20, seed=0).coords,
        "fig1_bottom_exact_spectral": lambda: spectral_layout(
            g, 2, tol=1e-8, seed=0
        ).coords,
    }

    layouts = {}
    for name, make in recipes.items():
        coords = make()
        layouts[name] = coords
        path = outdir / f"{name}.png"
        save_drawing(g, coords, path, width=600, height=600)
        print(
            f"{name:<28} stress={sampled_stress(g, coords):7.4f} -> {path}"
        )

    ang = principal_angles(
        layouts["fig1_top_parhde"],
        layouts["fig1_bottom_exact_spectral"],
        g.weighted_degrees,
    )
    print(f"\nParHDE vs exact spectral, principal angles: {ang.round(3)}")
    print("(small angles = the fast drawing captures the global structure)")

    # Figure 8: zoomed neighborhood of a vertex in the global layout.
    zoom = zoom_layout(g, center=g.n // 2, hops=10, s=10, seed=0)
    zpath = outdir / "fig8_zoom_10hop.png"
    save_drawing(zoom.subgraph, zoom.layout.coords, zpath, width=500, height=500)
    print(
        f"\nzoom: {zoom.subgraph.n} vertices within 10 hops of"
        f" vertex {zoom.center} -> {zpath}"
    )


if __name__ == "__main__":
    main()
