"""Layout-quality battery across every algorithm in the repository.

The paper skips drawings "because they have been comprehensively
evaluated in prior work" (§4.5.1, citing Brandes & Pich's experimental
study) and claims "we get similar drawings with our code".  This
benchmark is that evaluation for our implementations: pivot-sampled
stress (global faithfulness) and neighborhood preservation (local
faithfulness) for ParHDE, its variants, PHDE, PivotMDS, the multilevel
pipeline, subspace iteration, force-directed, and the exact spectral
reference — on a mesh and a planar geometric graph.
"""

import numpy as np

from repro import multilevel_layout, parhde, phde, pivotmds
from repro.baselines import fruchterman_reingold, spectral_layout
from repro.core import stress_majorization
from repro.metrics import neighborhood_preservation, sampled_stress

from conftest import load_cached

GRAPHS = ("barth", "pa")


def _layouts(g):
    return {
        "parhde": parhde(g, s=15, seed=0).coords,
        "parhde+subspace": parhde(
            g, s=15, seed=0, kernels={"rounds": 4}
        ).coords,
        "parhde-random-piv": parhde(
            g, s=15, seed=0, kernels={"pivots": "random-concurrent"}
        ).coords,
        "phde": phde(g, s=15, seed=0).coords,
        "pivotmds": pivotmds(g, s=15, seed=0).coords,
        "multilevel": multilevel_layout(g, s=15, seed=0).coords,
        "parhde+majorize": stress_majorization(
            g, parhde(g, s=15, seed=0).coords, max_iter=200, seed=0
        ).coords,
        "force-directed": fruchterman_reingold(
            g, iterations=200, seed=0
        ).coords,
        "spectral-exact": spectral_layout(g, 2, tol=1e-8, seed=0).coords,
    }


def _run():
    out = {}
    for key in GRAPHS:
        g = load_cached(key, scale="small")
        rng = np.random.default_rng(0)
        layouts = _layouts(g)
        layouts["random (floor)"] = rng.standard_normal((g.n, 2))
        out[g.name] = (g, layouts)
    return out


def test_quality_comparison(benchmark, report):
    runs = benchmark.pedantic(_run, rounds=1, iterations=1)

    lines = []
    for name, (g, layouts) in runs.items():
        lines.append(f"--- {name} (n={g.n}, m={g.m}) ---")
        lines.append(f"{'algorithm':<20} {'stress':>9} {'nbr-pres':>9}")
        scores = {}
        for algo, coords in layouts.items():
            stress = sampled_stress(g, coords, seed=1)
            npres = neighborhood_preservation(g, coords, seed=1)
            scores[algo] = (stress, npres)
            lines.append(f"{algo:<20} {stress:>9.4f} {npres:>9.3f}")
        lines.append("")

        floor = scores["random (floor)"]
        for algo, (stress, npres) in scores.items():
            if algo == "random (floor)":
                continue
            # Every real algorithm clears the random floor decisively.
            assert stress < 0.6 * floor[0], algo
            assert npres > 1.5 * floor[1], algo
        # Majorization polishing lands at or near the best global stress
        # (stress is exactly its objective).
        best_stress = min(v[0] for k, v in scores.items() if k != "random (floor)")
        assert scores["parhde+majorize"][0] <= best_stress * 1.4
        # Subspace iteration moves ParHDE toward the exact spectral
        # quality profile.
        d_plain = abs(
            scores["parhde"][0] - scores["spectral-exact"][0]
        )
        d_ref = abs(
            scores["parhde+subspace"][0] - scores["spectral-exact"][0]
        )
        assert d_ref <= d_plain + 0.05
    report("quality_comparison", "\n".join(lines))
