"""Wall-clock microbenchmarks of the core kernels.

Unlike the table/figure benchmarks (which report *simulated* times from
the machine model), these time the actual NumPy kernels on this host
with pytest-benchmark's statistics — the numbers to watch for
performance regressions of the library itself.
"""

import numpy as np
import pytest

from repro.bfs import bfs_distances, bfs_topdown_only
from repro.bfs.batched import run_sources_batched
from repro.bfs.runner import run_sources
from repro.core.pivots import select_and_traverse
from repro.graph import adjacency_gaps, miss_rate
from repro.linalg import d_orthogonalize, jacobi_eigh, laplacian_spmm
from repro.sssp import delta_stepping

from conftest import load_cached


@pytest.fixture(scope="module")
def kron():
    return load_cached("kron")


@pytest.fixture(scope="module")
def road():
    return load_cached("road")


def test_kernel_bfs_direction_optimizing(benchmark, kron):
    dist, _ = benchmark(bfs_distances, kron, 0)
    assert dist.min() >= 0


def test_kernel_bfs_topdown(benchmark, kron):
    dist, _ = benchmark(bfs_topdown_only, kron, 0)
    assert dist.min() >= 0


def test_kernel_bfs_high_diameter(benchmark, road):
    dist, _ = benchmark(bfs_distances, road, 0)
    assert dist.max() > 20


def test_kernel_sssp_delta_stepping(benchmark, road):
    from repro.graph import random_integer_weights

    g = random_integer_weights(road, 1, 64, seed=0)
    dist, _ = benchmark(delta_stepping, g, 0, 32.0)
    assert np.isfinite(dist).all()


def test_kernel_laplacian_spmm(benchmark, kron, rng=np.random.default_rng(0)):
    X = rng.standard_normal((kron.n, 10))
    out = benchmark(laplacian_spmm, kron, X)
    assert out.shape == X.shape


def test_kernel_dortho_mgs(benchmark, kron):
    B = select_and_traverse(kron, 10, seed=0).distances
    d = kron.weighted_degrees
    res = benchmark(d_orthogonalize, B, d, method="mgs")
    assert res.S.shape[1] >= 2


def test_kernel_dortho_cgs(benchmark, kron):
    B = select_and_traverse(kron, 10, seed=0).distances
    d = kron.weighted_degrees
    res = benchmark(d_orthogonalize, B, d, method="cgs")
    assert res.S.shape[1] >= 2


@pytest.mark.parametrize("n", [10, 50, 100])
def test_kernel_jacobi_eigensolve(benchmark, n):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((n, n))
    M = (M + M.T) / 2
    evals, _ = benchmark(jacobi_eigh, M)
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(M), atol=1e-7)


def test_kernel_gap_analysis(benchmark, kron):
    def run():
        return adjacency_gaps(kron), miss_rate(kron)

    gaps, mr = benchmark(run)
    assert 0 <= mr <= 1


def test_kernel_multi_bfs_per_source(benchmark, kron):
    sources = np.arange(10, dtype=np.int64)
    res = benchmark(run_sources, kron, sources)
    assert res.distances.shape == (kron.n, 10)


def test_kernel_multi_bfs_batched(benchmark, kron):
    sources = np.arange(10, dtype=np.int64)
    res = benchmark(run_sources_batched, kron, sources)
    assert res.distances.shape == (kron.n, 10)


# ---------------------------------------------------------------------------
# `python bench_kernels.py --quick` — the kernels-smoke acceptance gate.
#
# Runs 10-source traversal both ways on a >=100k-vertex random graph,
# checks bitwise distance parity, and asserts the batched kernel beats
# per-source by >=2x in *modeled* time (BRIDGES_RSM, p=28) and >=3x in
# wall-clock.  Then solves an HDE-shaped s = 50 projected Laplacian with
# the Jacobi eigensolver: eigenvalues within 1e-12 of LAPACK's, V'V = I
# to 1e-13, median of 5 wall times <= 100 ms.  Wired into CI via
# `make kernels-smoke`.
# ---------------------------------------------------------------------------
def eigensolve_quick(s: int = 50, budget_s: float = 0.1) -> None:
    import time

    from repro import datasets, parhde

    g = datasets.load("kron", "small", seed=0)
    Z = parhde(g, s, seed=0, kernels={"traversal": "batched"}).warm["Z"]
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        evals, V = jacobi_eigh(Z)
        times.append(time.perf_counter() - t0)
    ref = np.linalg.eigvalsh(Z)
    err = np.abs(evals - ref).max() / np.abs(ref).max()
    orth = np.abs(V.T @ V - np.eye(len(evals))).max()
    wall = float(np.median(times))
    print(f"eigensolve: {Z.shape[0]}x{Z.shape[0]} Z in {wall * 1e3:.1f} ms "
          f"(median of 5), eigenvalue error {err:.1e}, |V'V - I| {orth:.1e}")
    assert err <= 1e-12, f"eigenvalues off LAPACK's by {err:.1e} > 1e-12"
    assert orth <= 1e-13, f"eigenvectors not orthonormal: {orth:.1e} > 1e-13"
    assert wall <= budget_s, (
        f"eigensolve took {wall * 1e3:.0f} ms > {budget_s * 1e3:.0f} ms")


def kernels_quick(scale: int = 17, degree: int = 64, s: int = 10) -> int:
    import time

    from repro.graph import preprocess, uniform_random
    from repro.parallel import BRIDGES_RSM, Ledger, simulate_ledger

    t0 = time.perf_counter()
    g = preprocess(uniform_random(scale, degree=degree, seed=1),
                   name="kernels-smoke")
    print(f"graph: n={g.n} m={g.nnz} "
          f"(built in {time.perf_counter() - t0:.1f}s)", flush=True)
    assert g.n >= 100_000, "smoke graph must have >=100k vertices"
    sources = np.arange(s, dtype=np.int64)

    led_p = Ledger()
    t0 = time.perf_counter()
    with led_p.phase("BFS"):
        ref = run_sources(g, sources, ledger=led_p)
    wall_p = time.perf_counter() - t0

    led_b = Ledger()
    t0 = time.perf_counter()
    with led_b.phase("BFS"):
        res = run_sources_batched(g, sources, ledger=led_b)
    wall_b = time.perf_counter() - t0

    np.testing.assert_array_equal(res.distances, ref.distances)
    for a, b in zip(res.stats, ref.stats):
        assert a.directions == b.directions
        assert a.edges_examined == b.edges_examined

    sim_p = simulate_ledger(led_p, BRIDGES_RSM, 28)
    sim_b = simulate_ledger(led_b, BRIDGES_RSM, 28)
    wall_x = wall_p / wall_b
    sim_x = sim_p / sim_b
    print(f"per-source: wall {wall_p:.2f}s  modeled {sim_p:.3f}s")
    print(f"batched:    wall {wall_b:.2f}s  modeled {sim_b:.3f}s")
    print(f"speedup:    wall {wall_x:.1f}x  modeled {sim_x:.2f}x")
    assert sim_x >= 2.0, f"modeled speedup {sim_x:.2f}x < 2x"
    assert wall_x >= 3.0, f"wall-clock speedup {wall_x:.1f}x < 3x"
    eigensolve_quick()
    print("kernels-smoke: OK (distances bitwise equal, speedups hold, "
          "eigensolve accurate and fast)")
    return 0


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv:
        sys.exit(kernels_quick())
    sys.exit("usage: bench_kernels.py --quick "
             "(pytest runs the benchmark tests)")
