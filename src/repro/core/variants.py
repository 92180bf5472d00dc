"""ParHDE execution variants.

Section 4.4 notes that the default MGS D-orthogonalization "can also be
executed with a coupled BFS and D-orthogonalization steps" — each
distance vector is orthogonalized as soon as its traversal finishes,
which overlaps the two phases' memory footprints and is the structure
Algorithm 1 originally had.  The result is numerically identical to the
decoupled pipeline (same projections in the same order); what changes is
phase attribution and the ability to pipeline.

This module implements that coupled variant plus a convenience wrapper
for the plain-orthogonalization layout of section 4.5.1.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..bfs.direction_optimizing import bfs_distances
from ..graph.csr import CSRGraph
from ..linalg import blas
from ..linalg.eigen import extreme_eigenpairs
from ..linalg.laplacian import laplacian_spmm
from ..parallel.costs import Ledger
from ..parallel.primitives import F64, I32, map_cost
from .hde import parhde
from .kernels import KernelConfig
from .result import LayoutResult

__all__ = ["parhde_coupled", "laplacian_layout"]


def laplacian_layout(g: CSRGraph, s: int = 10, **kwargs) -> LayoutResult:
    """Eigen-projection with plain orthogonalization (Algorithm 1).

    Approximates the *Laplacian* eigenvectors instead of the
    degree-normalized ones; for graphs with uniform degree distributions
    the drawings are nearly identical (section 4.5.1).  ``kernels`` may
    set every field except ``ortho``, which is always ``"plain"`` here;
    call :func:`parhde` for D-orthogonalization.
    """
    cfg = KernelConfig.coerce(kwargs.pop("kernels", None))
    return parhde(g, s, kernels=replace(cfg, ortho="plain"), **kwargs)


def parhde_coupled(
    g: CSRGraph,
    s: int = 10,
    *,
    dims: int = 2,
    seed: int = 0,
    drop_tol: float = 1e-3,
    project_basis: str = "S",
    ledger: Ledger | None = None,
) -> LayoutResult:
    """ParHDE with BFS and MGS D-orthogonalization interleaved.

    Equivalent output to ``parhde(...)`` (MGS DOrtho) when given the
    same pivots; exists to demonstrate the pipelining opportunity CGS
    gives up (Table 7 discussion).  K-centers pivot selection only.
    """
    if g.n < 3:
        raise ValueError("layout needs at least 3 vertices")
    if s < dims:
        raise ValueError(f"s={s} must be at least dims={dims}")
    led = ledger if ledger is not None else Ledger()
    n = g.n
    d = g.weighted_degrees
    rng = np.random.default_rng(seed)

    B = np.empty((n, s), dtype=np.float64)
    sources = np.empty(s, dtype=np.int64)
    stats = []
    cols: list[np.ndarray] = [
        np.full(n, 1.0 / np.sqrt(float(d.sum())), dtype=np.float64)
    ]
    kept: list[int] = []
    dropped: list[int] = []
    dmin = np.full(n, np.inf)
    v = int(rng.integers(n))

    for i in range(s):
        sources[i] = v
        with led.phase("BFS"):
            dist, st = bfs_distances(g, v, ledger=led)
            led.add(map_cost(n, flops_per_elem=1.0, bytes_per_elem=I32 + F64))
        stats.append(st)
        if dist.min() < 0:
            raise ValueError("graph must be connected")
        col = dist.astype(np.float64)
        B[:, i] = col
        # Orthogonalize this vector immediately against finished columns.
        with led.phase("DOrtho"):
            w = col.copy()
            for q in cols:
                coeff = blas.weighted_dot(q, d, w, led)
                blas.axpy(-coeff, q, w, led)
            nrm = blas.weighted_norm(w, d, led)
            if nrm <= drop_tol:
                dropped.append(i)
            else:
                blas.scale(1.0 / nrm, w, led)
                cols.append(w)
                kept.append(i)
        with led.phase("BFS"):
            np.minimum(dmin, col, out=dmin)
            from ..bfs.runner import farthest_update_cost

            led.add(farthest_update_cost(n), subphase="overhead")
            if i + 1 < s:
                v = int(np.argmax(dmin))
                if dmin[v] <= 0:
                    chosen = set(sources[: i + 1].tolist())
                    v = next(u for u in range(n) if u not in chosen)

    if len(cols) - 1 < dims:
        raise ValueError(
            f"only {len(cols) - 1} independent distance vectors; increase s"
        )
    S = np.column_stack(cols[1:])

    with led.phase("TripleProd"):
        P = laplacian_spmm(g, S, ledger=led, subphase="LS")
        Z = blas.dense_gemm(S.T, P, led, subphase="S'(LS)")

    with led.phase("Other"):
        evals, Y = extreme_eigenpairs(Z, dims, which="smallest")
        basis = S if project_basis == "S" else B[:, kept]
        coords = basis @ Y
        led.add(
            map_cost(n * S.shape[1] * dims, flops_per_elem=2.0, bytes_per_elem=F64)
        )

    return LayoutResult(
        coords=coords,
        algorithm="parhde-coupled",
        B=B,
        S=S,
        eigenvalues=evals,
        pivots=sources,
        bfs_stats=stats,
        dropped=dropped,
        ledger=led,
        params=dict(s=s, dims=dims, seed=seed, coupled=True),
    )
