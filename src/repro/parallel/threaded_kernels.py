"""Genuinely threaded graph kernels built on :class:`ParallelExecutor`.

The machine model answers "what would this cost on the paper's node";
these kernels are the *actual* shared-memory parallel execution path for
hosts that have the cores.  Each one partitions its iteration space into
contiguous row ranges — the same decomposition the paper's OpenMP loops
use — and runs the NumPy slice kernels (which release the GIL) on a
thread pool.  Results are bit-identical to the sequential kernels
because every thread owns a disjoint output range and runs the same
row-range body.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..linalg.spmv import _spmm_operands, _spmm_rows
from .pool import ParallelExecutor

__all__ = ["threaded_spmm", "threaded_laplacian_spmm", "threaded_dortho_sweep"]


def threaded_spmm(
    g: CSRGraph, X: np.ndarray, executor: ParallelExecutor
) -> np.ndarray:
    """``A @ X`` with rows distributed across the executor's threads.

    Each thread runs the sequential :func:`repro.linalg.spmm` row-block
    loop on its own row range, so the result is bitwise equal to it.
    """
    Xm, out = _spmm_operands(g, X)
    executor.parallel_for(g.n, lambda lo, hi: _spmm_rows(g, Xm, out, lo, hi))
    return out[:, 0] if X.ndim == 1 else out


def threaded_laplacian_spmm(
    g: CSRGraph, X: np.ndarray, executor: ParallelExecutor
) -> np.ndarray:
    """``(D - A) @ X`` threaded, Laplacian never materialized.

    Each thread runs the sequential :func:`repro.linalg.laplacian_spmm`
    row-block loop on its own row range, so the result is bitwise equal
    to it.
    """
    Xm, out = _spmm_operands(g, X)
    d = g.weighted_degrees
    executor.parallel_for(g.n, lambda lo, hi: _spmm_rows(g, Xm, out, lo, hi, d))
    return out[:, 0] if X.ndim == 1 else out


def threaded_dortho_sweep(
    S: np.ndarray,
    d: np.ndarray,
    v: np.ndarray,
    executor: ParallelExecutor,
) -> None:
    """One MGS sweep: D-orthogonalize ``v`` in place against ``S``'s columns.

    The vector operations of the paper's DOrtho phase (line 11 of
    Algorithm 3), with each dot product and axpy chunked across threads
    exactly like the hand-written OpenMP loops the authors describe.
    ``S`` columns are assumed D-orthonormal (coefficients skip the
    denominator).
    """
    if S.shape[0] != len(v) or len(d) != len(v):
        raise ValueError("shape mismatch")
    for j in range(S.shape[1]):
        q = S[:, j]
        coeff = executor.weighted_dot(q, d, v)
        executor.axpy(-coeff, q, v)
