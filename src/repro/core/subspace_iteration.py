"""Subspace iteration on top of the HDE basis (Koren's refinement).

Koren's subspace-optimization paper (the HDE source, [30]) observes that
the BFS-distance subspace can be *improved* before projecting: apply the
walk operator to the whole basis a few times and re-D-orthonormalize —
block power iteration restricted to ``s`` vectors.  Each round rotates
the subspace toward the dominant eigenvectors, so the final 2D
projection approaches the exact spectral layout at the cost of a few
extra SpMMs (each round costs about one TripleProd phase, Table 1).

This sits between plain ParHDE (0 rounds) and the full §4.5.3
refinement: the iteration happens in the s-dimensional subspace, so one
round improves *all* candidate axes at once rather than just the two
chosen ones.  ``parhde(g, s, kernels={"rounds": r})`` runs it between
DOrtho and TripleProd, recorded as the ``SubspaceIter`` phase.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..linalg.laplacian import walk_spmm
from ..parallel.costs import Ledger
from ..parallel.primitives import F64, map_cost

__all__ = ["subspace_iterate"]


def _d_orthonormalize_block(
    S: np.ndarray, d: np.ndarray, ledger: Ledger | None = None
) -> np.ndarray:
    """MGS D-orthonormalization of a block against 1 and itself."""
    from ..linalg.randomized import d_orthonormalize_block

    return d_orthonormalize_block(S, d, ledger)


def subspace_iterate(
    g: CSRGraph,
    S: np.ndarray,
    rounds: int = 2,
    *,
    method: str = "deterministic",
    ledger: Ledger | None = None,
) -> np.ndarray:
    """Improve a D-orthonormal subspace by block power iteration.

    With ``method="deterministic"`` (the default) each round applies the
    lazy walk operator ``(I + D^-1 A)/2`` to every column and
    re-D-orthonormalizes the block.  ``method="randomized"`` delegates
    to :func:`repro.linalg.randomized.randomized_subspace_refine`: the
    same walk applications but a single final orthonormalization — the
    cheaper range-finding kernel (``kernels.subspace="randomized"``).
    Returns a new D-orthonormal basis of the same (or smaller, if rank
    drops) width.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if S.shape[0] != g.n:
        raise ValueError("basis rows must equal n")
    if method not in ("deterministic", "randomized"):
        raise ValueError(
            f"method must be 'deterministic' or 'randomized', got {method!r}"
        )
    if method == "randomized":
        from ..linalg.randomized import randomized_subspace_refine

        return randomized_subspace_refine(g, S, rounds, ledger=ledger)
    d = g.weighted_degrees
    X = S.astype(np.float64, copy=True)
    for _ in range(rounds):
        W = walk_spmm(g, X, ledger=ledger)
        W += X
        W *= 0.5
        if ledger is not None:
            ledger.add(
                map_cost(X.size, flops_per_elem=2.0, bytes_per_elem=3 * F64)
            )
        X = _d_orthonormalize_block(W, d, ledger)
    return X

