"""Laplacian and walk-matrix products without materializing the matrix.

ParHDE never constructs ``L`` (section 3.1): for the unweighted case the
diagonal is the degree array, so ``L X = D X - A X`` needs one SpMM plus
an elementwise combine.  The paper's section 4.4 measures this design at
an average 2.5x over MKL's ``mkl_sparse_d_mm`` — and, crucially, with no
extra matrix allocation, which is what breaks the prior implementation's
memory footprint on billion-edge graphs (Table 3 discussion).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.costs import Ledger
from ..parallel.primitives import F64, map_cost
from .spmv import _blocked_product, spmm

__all__ = ["laplacian_spmm", "walk_spmm", "laplacian_quadratic_form"]


def laplacian_spmm(
    g: CSRGraph,
    X: np.ndarray,
    *,
    ledger: Ledger | None = None,
    subphase: str = "",
) -> np.ndarray:
    """``L @ X`` with ``L = D - A`` computed from the degree array.

    Step 1 of the TripleProd phase (``P = L S``).  The SpMM's row-block
    loop applies the combine to each block as it finishes, so beyond the
    output only block-sized temporaries are live (never ``A X`` or
    ``D X`` as whole ``n x k`` arrays); every entry is still
    ``d_i * x_ij - (A X)_ij``, bit for bit.
    """
    out = _blocked_product(g, X, g.weighted_degrees, ledger, subphase, None)
    k = 1 if X.ndim == 1 else X.shape[1]
    if ledger is not None:
        # Elementwise combine: read X, read AX, write out, stream d once.
        ledger.add(
            map_cost(
                g.n * k, flops_per_elem=2.0, bytes_per_elem=3 * F64
            ),
            subphase=subphase,
        )
    return out


def walk_spmm(
    g: CSRGraph,
    X: np.ndarray,
    *,
    ledger: Ledger | None = None,
    subphase: str = "",
) -> np.ndarray:
    """Transition-matrix product ``D^{-1} A @ X``.

    The power-iteration baseline and the centroid refinement both iterate
    this operator; its dominant eigenvectors are the degree-normalized
    eigenvectors HDE approximates (section 2.1).
    """
    AX = spmm(g, X, ledger=ledger, subphase=subphase)
    d = g.weighted_degrees
    if np.any(d == 0):
        raise ValueError("walk matrix undefined for isolated vertices")
    k = 1 if X.ndim == 1 else X.shape[1]
    if ledger is not None:
        ledger.add(
            map_cost(g.n * k, flops_per_elem=1.0, bytes_per_elem=3 * F64),
            subphase=subphase,
        )
    if X.ndim == 1:
        return AX / d
    return AX / d[:, None]


def laplacian_quadratic_form(g: CSRGraph, y: np.ndarray) -> float:
    """``y' L y = sum_{(i,j) in E} w_ij (y_i - y_j)^2`` (section 2.1).

    Computed edgewise, which doubles as an independent check of
    :func:`laplacian_spmm` in the tests.
    """
    u, v = g.edge_list()
    diff2 = (y[u] - y[v]) ** 2
    if g.weights is None:
        return float(diff2.sum())
    deg = g.degrees
    src = np.repeat(np.arange(g.n), deg)
    keep = src < g.indices
    return float((g.weights[keep] * diff2).sum())
