"""LOD mass weighting: coarse-tier quality with vs without supernode masses.

The coarsening hierarchy (:mod:`repro.lod.hierarchy`) has always
tracked per-supernode masses — how many finest vertices each coarse
vertex stands for — but the coarse-tier solves ignored them, treating a
1000-vertex supernode and a singleton identically during
orthogonalization.  The mass-weighted solver (``parhde(...,
constraints={"masses": ...})``) lets the progressive path weight the
coarse inner product by ``M·D`` so heavy supernodes anchor the spectral
axes proportionally to the vertices they stand for.

This benchmark quantifies the fix on one hierarchy per graph family:
for each coarse level it lays the level graph out twice — unweighted
(the old behaviour) and mass-weighted (what :func:`progressive_layout`
now does) — prolongs both to the finest graph, and compares
pivot-sampled stress.  Gate: the mass-weighted coarse frame is no worse
than the unweighted one (ratio <= 1.05 tolerance band) on every level,
and strictly better somewhere on hierarchies whose mass spread is
meaningful.  Results land in ``benchmarks/results/lod_masses.txt``.
"""

from __future__ import annotations

from repro.core import parhde
from repro.graph import copying_powerlaw, grid2d, preprocess
from repro.lod import build_lod_hierarchy
from repro.metrics import sampled_stress

S = 12
SEED = 0
STRESS_SAMPLES = 8
TOLERANCE = 1.05  # mass weighting must never cost more than 5% stress


def _graphs():
    return [
        preprocess(grid2d(64, 64), name="grid64"),
        preprocess(copying_powerlaw(4096, out_degree=6, seed=3), name="cpl4k"),
    ]


def _level_stress(g, hierarchy, depth, masses) -> float:
    level = hierarchy.graph_at(depth)
    kwargs = {}
    if masses is not None:
        kwargs["constraints"] = {
            "masses": {
                int(i): float(m) for i, m in enumerate(masses) if m != 1.0
            }
        }
    s_eff = min(S, max(2, level.n - 1))
    res = parhde(level.unweighted(), s_eff, seed=SEED, **kwargs)
    fine = hierarchy.prolong_to_finest(res.coords, depth, seed=SEED)
    return sampled_stress(g, fine, samples=STRESS_SAMPLES, seed=SEED)


def _run() -> dict:
    out = {}
    for g in _graphs():
        h = build_lod_hierarchy(g, coarsest_size=128, seed=SEED)
        rows = []
        for depth in range(1, len(h.levels) + 1):
            mass = h.mass_at(depth)
            plain = _level_stress(g, h, depth, None)
            weighted = _level_stress(g, h, depth, mass)
            rows.append(
                (depth, h.graph_at(depth).n, float(mass.max()), plain, weighted)
            )
        out[g.name] = rows
    return out


def test_lod_mass_weighting(benchmark, report):
    runs = benchmark.pedantic(_run, rounds=1, iterations=1)

    lines = [
        f"{'Graph':<10} {'depth':>5} {'n':>7} {'max-mass':>9}"
        f" {'plain':>10} {'weighted':>10} {'ratio':>7}",
        "-" * 64,
    ]
    improved_anywhere = {}
    for name, rows in runs.items():
        best = 1.0
        for depth, n, max_mass, plain, weighted in rows:
            ratio = weighted / plain if plain else 1.0
            best = min(best, ratio)
            lines.append(
                f"{name:<10} {depth:>5} {n:>7} {max_mass:>9.1f}"
                f" {plain:>10.4f} {weighted:>10.4f} {ratio:>7.3f}"
            )
            # Never meaningfully worse than the unweighted coarse solve.
            assert ratio <= TOLERANCE, (
                f"{name} depth {depth}: mass weighting degraded stress"
                f" {plain:.4f} -> {weighted:.4f}"
            )
        improved_anywhere[name] = best
    report("lod_masses", "\n".join(lines))

    # Somewhere in the sweep the masses must actually help: hierarchies
    # aggregate unevenly, and weighting by multiplicity should recover
    # part of what uniform weighting loses.
    assert min(improved_anywhere.values()) < 1.0
