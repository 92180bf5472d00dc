"""Round-robin Jacobi: schedule, convergence test, errors and signs."""

import numpy as np
import pytest

from repro.linalg import extreme_eigenpairs, jacobi_eigh
from repro.linalg.eigen import _round_robin, _sweep_plan


def _symmetric(n: int, seed: int) -> np.ndarray:
    M = np.random.default_rng(seed).standard_normal((n, n))
    return M + M.T


@pytest.mark.parametrize("m", range(2, 16, 2))
def test_round_robin_meets_every_pair_once(m):
    p, q = _round_robin(m)
    assert p.shape == q.shape == (m - 1, m // 2)
    assert np.all(p < q)
    for step in np.hstack([p, q]):
        assert len(set(step.tolist())) == m  # disjoint pairs
    pairs = set(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert len(pairs) == p.size == m * (m - 1) // 2


@pytest.mark.parametrize("m", range(2, 16, 2))
def test_sweep_plan_frames_put_each_pair_in_adjacent_rows(m):
    rows, gathers, at = _sweep_plan(m)
    p, q = _round_robin(m)
    index = np.argsort(at)  # the matrix index held at each row of the frame
    for k in range(m - 1):
        pp, qq, pq = gathers[k].reshape(3, -1)
        assert np.all(pp % (m + 1) == 0) and np.all(qq % (m + 1) == 0)
        assert np.array_equal(index[pp // (m + 1)], p[k])
        assert np.array_equal(index[qq // (m + 1)], q[k])
        assert np.array_equal(index[pq // m], p[k])
        assert np.array_equal(index[pq % m], q[k])
        index = index[rows[k]]
        assert np.array_equal(index[0::2], p[k])
        assert np.array_equal(index[1::2], q[k])
    assert np.array_equal(index[at], np.arange(m))  # sweeps chain


def test_large_norm_gram_converges():
    """``||A||_F`` dwarfs the off-diagonal norm near convergence.

    Summing ``||A||_F^2 - sum(diag^2)`` cancels every significant digit
    here, so a convergence test built on that difference never fired and
    ran out of sweeps; the direct off-diagonal norm converges in a few.
    """
    X = np.random.default_rng(0).standard_normal((4000, 20))
    M = X.T @ X
    evals, V = jacobi_eigh(M, max_sweeps=15)
    ref = np.linalg.eigvalsh(M)
    assert np.abs(evals - ref).max() <= 1e-12 * np.abs(ref).max()
    np.testing.assert_allclose(V.T @ V, np.eye(20), rtol=0, atol=1e-13)
    R = V.T @ M @ V
    assert np.linalg.norm(R - np.diag(R.diagonal())) <= 1e-12 * np.linalg.norm(M)


def test_unconverged_raises():
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 1"):
        jacobi_eigh(_symmetric(20, 1), max_sweeps=1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 50, 51])
def test_largest_entry_of_every_eigenvector_is_positive(n):
    M = _symmetric(n, n)
    evals, V = jacobi_eigh(M)
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(M), atol=1e-12 * n)
    np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-13)
    assert np.all(V[np.abs(V).argmax(axis=0), np.arange(n)] > 0)
    _, top = extreme_eigenpairs(M, 1, "largest")
    assert top[np.abs(top[:, 0]).argmax(), 0] > 0


def test_sign_tie_goes_to_the_first_entry():
    # Equal diagonal (theta = 0): both eigenvectors are (1, +-1) / sqrt 2.
    evals, V = jacobi_eigh(np.array([[1.0, 2.0], [2.0, 1.0]]))
    np.testing.assert_allclose(evals, [-1.0, 3.0])
    r = np.sqrt(0.5)
    np.testing.assert_allclose(V, [[r, r], [-r, r]], atol=1e-15)


def test_odd_size_idles_one_index_per_step():
    # Block diagonal with a decoupled last index: every eigenpair is exact.
    M = np.zeros((5, 5))
    M[:4, :4] = _symmetric(4, 7)
    M[4, 4] = 9.0
    evals, V = jacobi_eigh(M)
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(M), atol=1e-13)
    assert V[4, -1] == 1.0 and np.all(V[:4, -1] == 0) and np.all(V[4, :4] == 0)
