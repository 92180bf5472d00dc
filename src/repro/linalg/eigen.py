"""Small dense symmetric eigensolver (round-robin (Brent–Luk) Jacobi).

HDE reduces the layout problem to an eigensolve on the tiny ``s x s``
projected matrix ``Z = S' L S`` (Algorithm 3 line 19), whose cost is
negligible next to the graph-sized phases — the paper's "Other" slice.
The authors call Eigen 3.3.7 for this; we implement the Jacobi rotation
method from scratch (cross-checked against ``numpy.linalg.eigh`` in the
tests) so the library has no black-box numerical dependencies.

The rotations follow the round-robin (Brent–Luk) ordering, the parallel
Jacobi ordering: each step rotates ``n / 2`` disjoint index pairs at
once, so a sweep is ``n - 1`` vectorized steps instead of
``n (n - 1) / 2`` scalar rotations.  Each returned eigenvector is
signed so that its largest-magnitude entry is positive, and a matrix
that does not converge within ``max_sweeps`` sweeps raises
``numpy.linalg.LinAlgError`` instead of returning unconverged pairs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .blas import norm2

__all__ = ["jacobi_eigh", "extreme_eigenpairs"]


def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``(p, q)``, ``p < q``, of each step of one sweep.

    The circle method for an even ``m``: players sit at seats
    ``0 .. m-1`` and seat ``i`` meets seat ``m-1-i``.  Player 0 keeps
    seat 0 and the others move one seat per step, so ``m - 1`` steps
    meet every pair exactly once.  Returns two ``(m - 1, m / 2)`` arrays.
    """
    seat = np.zeros((m - 1, m), dtype=np.int64)
    seat[:, 1:] = 1 + (np.arange(m - 1) - np.arange(m - 1)[:, None]) % (m - 1)
    a, b = seat[:, : m // 2], seat[:, : m // 2 - 1 : -1]
    return np.minimum(a, b), np.maximum(a, b)


@lru_cache(maxsize=64)
def _sweep_plan(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row orders and angle indices for a sweep over an ``m x m`` matrix.

    The solver keeps ``A`` in a permuted frame in which step ``k``'s
    pairs sit in adjacent rows ``(2i, 2i + 1)``, so a rotation is a batch
    of ``2 x 2`` products.  Row ``k`` of the first array gathers the
    rows of step ``k - 1``'s frame into step ``k``'s (step 0 starts in
    the last step's frame, so sweeps chain without a reorder); row
    ``k`` of the second holds the flat indices of ``a_pp``, ``a_qq`` and
    ``a_pq`` in the frame step ``k`` starts from.  The third maps each
    index to its row in the frame a sweep starts and ends in.
    """
    p, q = _round_robin(m)
    order = np.stack([p, q], axis=2).reshape(m - 1, m)
    pos = np.argsort(np.roll(order, 1, axis=0), axis=1)
    rows = np.take_along_axis(pos, order, axis=1)
    pp = np.take_along_axis(pos, p, axis=1)
    qq = np.take_along_axis(pos, q, axis=1)
    gathers = np.hstack([pp * (m + 1), qq * (m + 1), pp * m + qq])
    at = np.argsort(order[-1])
    for a in (rows, gathers, at):
        a.flags.writeable = False
    return rows, gathers, at


def jacobi_eigh(
    M: np.ndarray, *, tol: float = 1e-12, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric matrix by round-robin (Brent–Luk) Jacobi.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
    and ``eigenvectors[:, k]`` the unit eigenvector of ``eigenvalues[k]``,
    signed so that its largest-magnitude entry is positive (the first
    such entry on a tie).

    Each step of a sweep computes the rotation angles of ``n / 2``
    disjoint pairs ``(p, q)`` from the current matrix with the classical
    formulas (``theta = (a_qq - a_pp) / 2 a_pq``, ``t = sign(theta) /
    (|theta| + sqrt(theta^2 + 1))``, ``t = 1`` at ``theta = 0``; a pair
    with ``|a_pq| <= tol ||M||_F / n^2`` is left alone) and applies them
    all at once as ``A <- J' A J``, ``V <- V J``.  An odd ``n`` is padded
    with a zero row and column, so one index idles each step.

    Convergence: sweeps stop when the off-diagonal Frobenius norm,
    computed from the off-diagonal entries themselves, falls below
    ``tol * ||M||_F``.  For the ``s <= 51`` matrices HDE produces this
    takes about eight sweeps.  Raises ``numpy.linalg.LinAlgError`` if
    ``max_sweeps`` sweeps do not get there.

    The products are batches of ``2 x 2`` by ``2 x n`` blocks and the
    norms are :func:`.blas.norm2` sums, so no call is split across
    OpenBLAS threads and the bits do not depend on the core count.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(M, M.T, atol=1e-8 * (1.0 + np.abs(M).max())):
        raise ValueError("matrix must be symmetric")
    n = M.shape[0]
    if n == 1:
        return M.diagonal().copy(), np.eye(1)
    m = n + n % 2
    h = m // 2
    rows, gathers, at = _sweep_plan(m)
    at = at[:n]
    A = np.zeros(m * m)  # M in the frame, padded to an even size
    sym = (M + M.T) / 2.0  # exact symmetry for stability
    A[(at[:, None] * m + at).ravel()] = sym.ravel()
    A = A.reshape(m, m)
    W = np.eye(m)[:, at]  # V' in the frame: row at[i] is index i's vector
    fro = norm2(A.ravel())
    threshold = tol * (fro if fro > 0 else 1.0)
    skip = threshold / (n * n)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(max_sweeps + 1):
            off = norm2((A - np.diag(A.diagonal())).ravel())
            if off <= threshold:
                break
            if sweep == max_sweeps:
                raise np.linalg.LinAlgError(
                    f"Jacobi eigensolve did not converge in {max_sweeps}"
                    f" sweeps (off-diagonal norm {off:.3g} > {threshold:.3g})"
                )
            for step_rows, gather in zip(rows, gathers):
                app, aqq, apq = A.take(gather).reshape(3, h)
                theta = (aqq - app) / (2.0 * apq)
                t = np.sign(theta) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)
                )
                t[theta == 0] = 1.0
                t[np.abs(apq) <= skip] = 0.0
                c = 1.0 / np.hypot(t, 1.0)  # 1 / sqrt(t^2 + 1)
                s = t * c
                # G[i] = J' restricted to pair i: [[c, -s], [s, c]].
                G = np.concatenate((c, -s, s, c)).reshape(2, 2, h)
                G = G.transpose(2, 0, 1)
                # Rotate the rows of A, then the rows of the transpose
                # (its columns): R (R A)' = R A R' for a symmetric A.
                A = (G @ A[step_rows].reshape(h, 2, m)).reshape(m, m)
                A = (G @ A.T[step_rows].reshape(h, 2, m)).reshape(m, m)
                W = (G @ W[step_rows].reshape(h, 2, n)).reshape(m, n)

    evals = A.diagonal()[at]
    order = np.argsort(evals, kind="stable")
    V = np.ascontiguousarray(W[at[order]].T)
    V[:, V[np.abs(V).argmax(axis=0), np.arange(n)] < 0] *= -1.0
    return evals[order], V


def extreme_eigenpairs(
    M: np.ndarray, k: int, which: str = "smallest"
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest or largest eigenpairs of a symmetric matrix.

    HDE takes the *smallest* eigenvectors of the projected Laplacian
    ``S' L S`` (minimizing Eq. 1 in the subspace); PHDE and PivotMDS take
    the *largest* of the PCA covariance ``C' C``.  See DESIGN.md
    section 5 on the paper's "top two eigenvectors" wording.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    evals, evecs = jacobi_eigh(M)
    if k > len(evals):
        raise ValueError(f"requested {k} eigenpairs of a {len(evals)}-dim matrix")
    if which == "smallest":
        return evals[:k], evecs[:, :k]
    if which == "largest":
        return evals[::-1][:k].copy(), evecs[:, ::-1][:, :k].copy()
    raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
