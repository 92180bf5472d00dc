"""A compact LOBPCG eigensolver for the generalized problem L x = mu D x.

Section 4.5.3 proposes ParHDE "as a preprocessing step for modern
eigensolvers such as LOBPCG"; this module provides that eigensolver so
the proposal can be demonstrated end to end.  It is the textbook
locally-optimal block preconditioned conjugate gradient method
[Knyazev 2001], specialized to the graph setting:

* operator ``A = L`` applied matrix-free (:func:`laplacian_spmm`);
* metric ``B = D`` (the weighted-degree diagonal);
* Jacobi preconditioner ``M^-1 = D^-1``;
* the trivial eigenvector ``1`` handled as a deflation constraint.

Each iteration performs a Rayleigh-Ritz step on the subspace spanned by
the current block ``X``, the preconditioned residuals ``W`` and the
previous search directions ``P`` — at most ``3k`` vectors, so the dense
eigensolve stays tiny (our round-robin Jacobi handles it).  Every
contraction over the ``n`` vertices goes through :mod:`.blas`'s
one-thread pieces, so the result does not depend on the core count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.costs import Ledger
from .blas import dense_gemm, dense_matvec, weighted_dot, weighted_norm
from .eigen import jacobi_eigh
from .laplacian import laplacian_spmm

__all__ = ["LOBPCGResult", "lobpcg"]


@dataclass
class LOBPCGResult:
    """Converged generalized eigenpairs of ``(L, D)``."""

    eigenvalues: np.ndarray  # ascending, excluding the trivial 0
    vectors: np.ndarray  # (n, k), D-orthonormal, D-orthogonal to 1
    iterations: int
    residual_norms: np.ndarray


def _d_orthonormalize(V: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D-orthonormal basis of span(V) (drops near-dependent columns)."""
    cols: list[np.ndarray] = []
    for j in range(V.shape[1]):
        v = V[:, j].copy()
        for q in cols:
            v -= weighted_dot(q, d, v) * q
        nrm = weighted_norm(v, d)
        if nrm > 1e-10:
            cols.append(v / nrm)
    if not cols:
        raise np.linalg.LinAlgError("search subspace collapsed")
    return np.column_stack(cols)


def lobpcg(
    g: CSRGraph,
    k: int = 2,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
    seed: int = 0,
    ledger: Ledger | None = None,
) -> LOBPCGResult:
    """Smallest ``k`` nontrivial generalized eigenpairs of ``(L, D)``.

    Parameters
    ----------
    x0:
        Optional ``(n, k)`` initial block — pass a ParHDE layout to
        reproduce the section 4.5.3 preprocessing proposal.
    tol:
        Convergence when every column's D-norm residual
        ``||L x - mu D x||_{D^-1}`` drops below ``tol``.

    Notes
    -----
    The eigenvalues relate to the walk-matrix values HDE approximates by
    ``mu = 1 - lambda_walk``; the paper's Eq. 1 objective is their sum.
    """
    n = g.n
    d = g.weighted_degrees
    if np.any(d == 0):
        raise ValueError("graph must have no isolated vertices")
    if k < 1 or k >= n - 1:
        raise ValueError(f"need 1 <= k < n - 1, got k={k}")
    rng = np.random.default_rng(seed)
    ones = np.full(n, 1.0 / np.sqrt(float(d.sum())))

    def deflate(V: np.ndarray) -> None:
        coeff = dense_matvec(V.T, ones * d)
        V -= np.outer(ones, coeff)

    X = (
        x0.astype(np.float64, copy=True)
        if x0 is not None
        else rng.standard_normal((n, k))
    )
    if X.shape != (n, k):
        raise ValueError(f"x0 must be (n, {k})")
    deflate(X)
    X = _d_orthonormalize(X, d)
    while X.shape[1] < k:  # re-seed dropped directions
        extra = rng.standard_normal((n, k - X.shape[1]))
        deflate(extra)
        X = _d_orthonormalize(np.column_stack([X, extra]), d)

    P: np.ndarray | None = None
    it = 0
    res_norms = np.full(k, np.inf)
    lam = np.zeros(k)
    while it < max_iter:
        it += 1
        LX = laplacian_spmm(g, X, ledger=ledger)
        # Rayleigh quotients and residuals under the D metric.
        lam = np.einsum("ij,ij->j", X, LX)
        R = LX - (d[:, None] * X) * lam
        res_norms = np.sqrt(
            np.maximum(np.einsum("ij,ij->j", R, R / d[:, None]), 0.0)
        )
        if np.all(res_norms < tol):
            break
        W = R / d[:, None]  # Jacobi-preconditioned residuals
        deflate(W)
        blocks = [X, W] if P is None else [X, W, P]
        S = _d_orthonormalize(np.column_stack(blocks), d)
        # Rayleigh-Ritz: S' L S y = theta y  (S' D S = I by construction).
        LS = laplacian_spmm(g, S, ledger=ledger)
        theta, Y = jacobi_eigh(dense_gemm(S.T, LS))
        Xn = S @ Y[:, :k]
        # Implicit P: the part of the update D-orthogonal to the old X.
        Pn = Xn - X @ dense_gemm(X.T, d[:, None] * Xn)
        X = _d_orthonormalize(Xn, d)
        while X.shape[1] < k:
            extra = rng.standard_normal((n, k - X.shape[1]))
            deflate(extra)
            X = _d_orthonormalize(np.column_stack([X, extra]), d)
        P = Pn

    order = np.argsort(lam)
    return LOBPCGResult(
        eigenvalues=lam[order],
        vectors=X[:, order],
        iterations=it,
        residual_norms=res_norms[order],
    )
