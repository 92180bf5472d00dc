"""Cost-accounted dense vector/matrix kernels (BLAS-1/2 flavour).

The paper's DOrtho phase uses hand-written OpenMP loops instead of MKL
(section 3.1: "we found our implementations to be generally faster").
These wrappers perform the numerics with NumPy and record the memory
traffic and fork-join regions the equivalent OpenMP kernel would incur.
"""

from __future__ import annotations

import numpy as np

from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import F64, axpy_cost, dot_cost, map_cost, reduce_cost

__all__ = [
    "dot",
    "weighted_dot",
    "axpy",
    "scale",
    "norm2",
    "weighted_norm",
    "column_means",
    "center_columns",
    "dense_matvec",
    "dense_gemm",
]


#: Longest vector handed to one ``np.dot``.  OpenBLAS splits a longer
#: ``ddot`` across its threads and adds the per-thread partial sums, so
#: the result would depend on the host's core count, and every call
#: would wait for a second core (with ~1300 calls per DOrtho at s = 50,
#: a busy sibling core tripled that phase).  Shorter calls run on the
#: calling thread.
_DOT_CHUNK = 8192


def _dot(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> float:
    """``x' diag(w) y`` as ``_DOT_CHUNK``-long partial dots summed in order.

    ``x * w`` is formed one chunk at a time, so no temporary is longer
    than a chunk.
    """
    total = 0.0
    for a in range(0, len(x), _DOT_CHUNK):
        b = a + _DOT_CHUNK
        xs = x[a:b] if w is None else x[a:b] * w[a:b]
        total += float(np.dot(xs, y[a:b]))
    return total


#: OpenBLAS runs a GEMM on the calling thread when ``M*N*K`` is at most
#: ``SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4``, and a
#: GEMV when ``M*N`` is below ``2304 * 4``.  A threaded call splits the
#: work differently on every core count, and its bits differ with it.
_GEMM_ONE_THREAD = 1 << 18
_GEMV_ONE_THREAD = 2304 * 4


def _contract(A: np.ndarray, B: np.ndarray, cutoff: int) -> np.ndarray:
    """``A @ B`` as in-order partial products over the contraction axis.

    Each piece is short enough that ``out.size * K_piece < cutoff``, so
    OpenBLAS computes it on the calling thread and the sum has the same
    bits on any core count.  An output of ``cutoff`` or more entries
    cannot be pieced that way and is one call.
    """
    k = A.shape[1]
    size = A.shape[0] * (B.shape[1] if B.ndim == 2 else 1)
    step = (cutoff - 1) // max(size, 1)
    if step == 0 or step >= k:
        return A @ B
    out = A[:, :step] @ B[:step]
    for a in range(step, k, step):
        out += A[:, a : a + step] @ B[a : a + step]
    return out


def _rec(ledger: Ledger | None, cost: KernelCost, subphase: str = "") -> None:
    if ledger is not None:
        ledger.add(cost, subphase=subphase)


def dot(x: np.ndarray, y: np.ndarray, ledger: Ledger | None = None) -> float:
    """Plain inner product ``x . y``."""
    _rec(ledger, dot_cost(len(x)))
    return _dot(x, y)


def weighted_dot(
    x: np.ndarray,
    d: np.ndarray,
    y: np.ndarray,
    ledger: Ledger | None = None,
) -> float:
    """D-inner product ``x' diag(d) y`` — the DOrtho projection kernel."""
    _rec(ledger, dot_cost(len(x), vectors=3))
    return _dot(x, y, d)


def axpy(
    alpha: float,
    x: np.ndarray,
    y: np.ndarray,
    ledger: Ledger | None = None,
) -> None:
    """``y += alpha * x`` in place."""
    _rec(ledger, axpy_cost(len(x)))
    y += alpha * x


def scale(alpha: float, x: np.ndarray, ledger: Ledger | None = None) -> None:
    """``x *= alpha`` in place."""
    _rec(ledger, map_cost(len(x), flops_per_elem=1.0, bytes_per_elem=2 * F64))
    x *= alpha


def norm2(x: np.ndarray, ledger: Ledger | None = None) -> float:
    """Euclidean norm."""
    _rec(ledger, dot_cost(len(x), vectors=1))
    return float(np.sqrt(_dot(x, x)))


def weighted_norm(
    x: np.ndarray, d: np.ndarray, ledger: Ledger | None = None
) -> float:
    """D-norm ``sqrt(x' diag(d) x)``."""
    _rec(ledger, dot_cost(len(x), vectors=2))
    return float(np.sqrt(max(_dot(x, x, d), 0.0)))


def column_means(B: np.ndarray, ledger: Ledger | None = None) -> np.ndarray:
    """Per-column means — phase 1 of PHDE's two-phase column centering."""
    n, k = B.shape
    _rec(ledger, reduce_cost(n * k, flops_per_elem=1.0, bytes_per_elem=F64))
    return B.mean(axis=0)


def center_columns(B: np.ndarray, ledger: Ledger | None = None) -> np.ndarray:
    """Column-centered copy of ``B`` (each column mean becomes zero).

    Implemented as the paper's two-phase scheme (section 3.2): a
    reduction pass computing the means, then a subtraction pass.
    """
    means = column_means(B, ledger)
    n, k = B.shape
    _rec(ledger, map_cost(n * k, flops_per_elem=1.0, bytes_per_elem=2 * F64))
    return B - means


def dense_matvec(
    A: np.ndarray, x: np.ndarray, ledger: Ledger | None = None
) -> np.ndarray:
    """Dense ``A @ x`` (tall-skinny blocks in CGS).

    A short output is summed over pieces of ``A``'s columns that each run
    on one thread, so ``Q.T @ v`` with ``n`` columns has the same bits on
    any core count.
    """
    n, k = A.shape if A.ndim == 2 else (len(A), 1)
    _rec(
        ledger,
        KernelCost(
            flops=2.0 * n * k,
            depth=np.log2(max(k, 2)),
            bytes_streamed=(n * k + n + k) * F64,
            regions=1,
        ),
    )
    return _contract(A, x, _GEMV_ONE_THREAD)


def dense_gemm(
    A: np.ndarray,
    B: np.ndarray,
    ledger: Ledger | None = None,
    *,
    subphase: str = "",
) -> np.ndarray:
    """Dense ``A @ B`` — the MKL dgemm stand-in for ``S'(LS)``.

    For the ``s x n`` by ``n x s`` shape the arithmetic intensity is
    ``s`` (Table 1), so the cost is charged as a streaming pass over both
    operands with ``2 n s^2`` flops.  The product is summed over row
    blocks of ``B`` that each run on one OpenBLAS thread, so ``Z`` has
    the same bits on any core count.
    """
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise ValueError("gemm shape mismatch")
    _rec(
        ledger,
        KernelCost(
            flops=2.0 * m * k * n,
            depth=np.log2(max(k, 2)),
            bytes_streamed=(m * k + k * n + m * n) * F64,
            regions=1,
        ),
        subphase,
    )
    return _contract(A, B, _GEMM_ONE_THREAD)
