"""Ablation: subspace iteration rounds vs quality vs simulated cost.

Koren's subspace refinement (``parhde(kernels={"rounds": r})``, the
kernel in ``repro.core.subspace_iteration``) trades one extra
TripleProd-sized phase per round for a better eigenvector
approximation.  This ablation sweeps the round count and records the
principal angle to the exact spectral plane next to the simulated
28-core time, exposing the quality/cost knee.
"""

from repro.baselines import spectral_layout
from repro.core import parhde
from repro.metrics import principal_angles
from repro.parallel import BRIDGES_RSM

from conftest import load_cached

ROUNDS = (0, 1, 2, 4, 8)


def _run():
    g = load_cached("barth", scale="small")
    exact = spectral_layout(g, 2, tol=1e-9, seed=0)
    results = {
        r: parhde(g, s=10, seed=0, kernels={"rounds": r}) for r in ROUNDS
    }
    return g, exact, results


def test_subspace_iteration_ablation(benchmark, report):
    g, exact, results = benchmark.pedantic(_run, rounds=1, iterations=1)
    d = g.weighted_degrees

    lines = [
        f"{'rounds':>7} {'angle to exact':>15} {'sum eigvals':>12}"
        f" {'sim 28-core (s)':>16}",
        "-" * 56,
    ]
    angles = {}
    times = {}
    for r, res in results.items():
        angles[r] = principal_angles(res.coords, exact.coords, d)[0]
        times[r] = res.simulated_seconds(BRIDGES_RSM, 28)
        lines.append(
            f"{r:>7} {angles[r]:>15.4f} {res.eigenvalues.sum():>12.6f}"
            f" {times[r]:>16.6f}"
        )
    report("subspace_iteration_ablation", "\n".join(lines))

    # More rounds, closer to the exact plane (monotone within noise).
    assert angles[8] < angles[0]
    assert angles[4] <= angles[0]
    # The projected objective (sum of the two Rayleigh values) improves.
    evs = {r: res.eigenvalues.sum() for r, res in results.items()}
    assert evs[8] <= evs[0] + 1e-12
    # And the cost grows with the rounds (each adds walk SpMMs).
    assert times[8] > times[0]
