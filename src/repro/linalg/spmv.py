"""Sparse matrix kernels on the CSR graph: SpMV and multi-vector SpMM.

The TripleProd phase's dominant step views ``L S`` as ``s`` SpMVs (paper
section 3).  We implement ``A @ X`` directly on the CSR adjacency with a
vectorized segmented sum — no scipy matrix objects, no materialized
Laplacian — and charge the machine model the gather traffic predicted by
the adjacency-gap locality model, which is precisely how the paper
explains sk-2005's anomalously fast LS step.

Like the paper's hand-written kernel, the SpMM allocates no matrix
beyond its output.  Rows are processed in blocks whose gathered
neighbour rows ``X[indices[a:b]]`` hold about ``_GATHER_BLOCK_BYTES``
(an L2-sized buffer), never the whole ``nnz x k`` gather.  A row is never
split across blocks, so each output row is the same ``np.add.reduceat``
segment sum as a one-shot gather: blocking changes memory traffic, not
a single bit of the result.  The Laplacian product runs the same loop
and applies its ``D X - A X`` combine to each block as it finishes.
"""

from __future__ import annotations

import numpy as np

from ..bfs.direction_optimizing import graph_miss_rate
from ..graph.csr import CSRGraph
from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import F64, I32, LINE_BYTES

__all__ = ["spmm", "spmv", "spmm_cost"]


def spmm_cost(g: CSRGraph, k: int, miss: float) -> KernelCost:
    """Cost of one adjacency SpMM ``A @ X`` with ``k`` dense columns.

    Each stored entry gathers one *row* of ``X`` (``k`` doubles spanning
    ``ceil(8k / 64)`` cache lines when it misses) and streams its column
    index.  The output block is written once; the row pointer array is
    streamed once.  Arithmetic: one multiply-add per entry per column.
    """
    nnz, n = g.nnz, g.n
    lines_per_row = max(1, int(np.ceil(k * F64 / LINE_BYTES)))
    return KernelCost(
        work=1.0 * nnz,  # column-index decode per stored entry
        flops=2.0 * nnz * k,
        bytes_streamed=nnz * I32 + (n * k + n) * F64,
        random_lines=nnz * miss * lines_per_row,
        regions=1,
    )


#: Bytes of gathered neighbour rows one SpMM block materializes.
_GATHER_BLOCK_BYTES = 1 << 18


def _blocked_product(
    g: CSRGraph,
    X: np.ndarray,
    diag: np.ndarray | None,
    ledger: Ledger | None,
    subphase: str,
    miss: float | None,
) -> np.ndarray:
    """``A @ X``, or ``diag * X - A @ X`` with ``diag``, charged as one SpMM.

    Rows are processed block by block.  Each block is the longest row
    range whose gather fits ``_GATHER_BLOCK_BYTES`` (and that spans at
    most as many rows as the gather holds entries); a row longer than
    that forms a block by itself.  Within a block: gather the neighbour
    rows, scale by the edge weights, and ``np.add.reduceat`` over the
    nonempty rows.  With ``diag`` each finished block is replaced by
    ``diag * X - A @ X``, the Laplacian product, so that combine needs no
    ``n x k`` temporary.
    """
    Xm = X[:, None] if X.ndim == 1 else X
    n, k = Xm.shape
    if n != g.n:
        raise ValueError(f"X has {n} rows, graph has {g.n} vertices")
    out = np.zeros((n, k), dtype=np.float64)
    indptr, indices, weights = g.indptr, g.indices, g.weights
    budget = max(1, _GATHER_BLOCK_BYTES // (F64 * k))
    lo = 0
    while lo < n:
        a = indptr[lo]
        end = int(np.searchsorted(indptr, a + budget, side="right")) - 1
        end = min(max(end, lo + 1), n, lo + budget)
        b = indptr[end]
        if b > a:
            vals = Xm[indices[a:b]]
            if weights is not None:
                # Not in place: an integer X gathers an integer block.
                vals = vals * weights[a:b, None]
            ptr = indptr[lo : end + 1]
            nonempty = ptr[1:] > ptr[:-1]
            starts = ptr[:-1][nonempty] - a
            out[lo:end][nonempty] = np.add.reduceat(vals, starts, axis=0)
        if diag is not None:
            block = out[lo:end]
            np.subtract(diag[lo:end, None] * Xm[lo:end], block, out=block)
        lo = end
    if ledger is not None:
        if miss is None:
            miss = graph_miss_rate(g)
        ledger.add(spmm_cost(g, k, miss), subphase=subphase)
    return out[:, 0] if X.ndim == 1 else out


def spmm(
    g: CSRGraph,
    X: np.ndarray,
    *,
    ledger: Ledger | None = None,
    subphase: str = "",
    miss: float | None = None,
) -> np.ndarray:
    """``A @ X`` where ``A`` is the (weighted) adjacency matrix.

    ``X`` is ``(n, k)`` or ``(n,)``; the result matches.  Vectorized as a
    gather of neighbour rows followed by ``np.add.reduceat`` over the
    nonempty row segments, one cache-sized row block at a time: beyond
    the output, at most about ``_GATHER_BLOCK_BYTES`` of gathered rows
    are live, never an ``nnz x k`` array.
    """
    return _blocked_product(g, X, None, ledger, subphase, miss)


def spmv(
    g: CSRGraph,
    x: np.ndarray,
    *,
    ledger: Ledger | None = None,
    subphase: str = "",
    miss: float | None = None,
) -> np.ndarray:
    """``A @ x`` for a single dense vector."""
    return spmm(g, x, ledger=ledger, subphase=subphase, miss=miss)
