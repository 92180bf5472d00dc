"""Tests for the real thread-pool execution path."""

import numpy as np
import pytest

from repro.parallel import ParallelExecutor, split_range


class TestSplitRange:
    def test_covers_range_contiguously(self):
        for n, k in [(10, 3), (7, 7), (100, 8), (5, 20)]:
            parts = split_range(n, k)
            assert parts[0][0] == 0
            assert parts[-1][1] == n
            for (a, b), (c, d) in zip(parts, parts[1:]):
                assert b == c
                assert b > a

    def test_empty(self):
        assert split_range(0, 4) == [(0, 0)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            split_range(-1, 2)


@pytest.mark.parametrize("threads", [1, 2, 4])
class TestExecutor:
    def test_parallel_for_writes_disjoint(self, threads):
        out = np.zeros(1000)

        def kernel(lo, hi):
            out[lo:hi] = np.arange(lo, hi)

        with ParallelExecutor(threads) as ex:
            ex.parallel_for(1000, kernel)
        np.testing.assert_array_equal(out, np.arange(1000.0))

    def test_dot(self, threads, rng):
        x = rng.standard_normal(10_001)
        y = rng.standard_normal(10_001)
        with ParallelExecutor(threads) as ex:
            assert ex.dot(x, y) == pytest.approx(float(np.dot(x, y)))

    def test_weighted_dot(self, threads, rng):
        x = rng.standard_normal(5000)
        w = rng.random(5000)
        y = rng.standard_normal(5000)
        with ParallelExecutor(threads) as ex:
            assert ex.weighted_dot(x, w, y) == pytest.approx(
                float(np.dot(x * w, y))
            )

    def test_axpy_scale(self, threads, rng):
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        expected = y + 2.5 * x
        with ParallelExecutor(threads) as ex:
            ex.axpy(2.5, x, y)
            np.testing.assert_allclose(y, expected)
            ex.scale(0.5, y)
            np.testing.assert_allclose(y, expected * 0.5)

    def test_elementwise_min(self, threads, rng):
        a = rng.random(2000)
        b = rng.random(2000)
        expected = np.minimum(a, b)
        with ParallelExecutor(threads) as ex:
            ex.elementwise_min(a, b)
        np.testing.assert_array_equal(a, expected)

    def test_argmax_matches_numpy(self, threads, rng):
        x = rng.random(5000)
        with ParallelExecutor(threads) as ex:
            assert ex.argmax(x) == int(np.argmax(x))

    def test_argmax_tie_lowest_index(self, threads):
        x = np.zeros(100)
        x[[10, 60]] = 7.0
        with ParallelExecutor(threads) as ex:
            assert ex.argmax(x) == 10

    def test_parallel_reduce(self, threads):
        with ParallelExecutor(threads) as ex:
            total = ex.parallel_reduce(
                1000, lambda lo, hi: hi - lo, lambda a, b: a + b
            )
        assert total == 1000


class TestEdgeCases:
    def test_zero_length(self):
        with ParallelExecutor(2) as ex:
            ex.parallel_for(0, lambda lo, hi: 1 / 0)  # never called
            assert ex.parallel_map(0, lambda lo, hi: 1) == []

    def test_reduce_empty_rejected(self):
        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                ex.parallel_reduce(0, lambda lo, hi: 0, lambda a, b: a)

    def test_dot_shape_mismatch(self):
        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                ex.dot(np.ones(3), np.ones(4))

    def test_argmax_empty(self):
        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                ex.argmax(np.zeros(0))

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)


class TestThreadedKernels:
    """The real parallel execution path must match the sequential kernels."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threaded_spmm_matches(self, threads, small_random, rng):
        from repro.linalg import spmm
        from repro.parallel import threaded_spmm

        X = rng.standard_normal((small_random.n, 3))
        with ParallelExecutor(threads) as ex:
            got = threaded_spmm(small_random, X, ex)
        np.testing.assert_array_equal(got, spmm(small_random, X))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_threaded_spmm_vector_and_weighted(self, threads, small_grid, rng):
        from repro.graph import random_integer_weights
        from repro.linalg import spmm
        from repro.parallel import threaded_spmm

        g = random_integer_weights(small_grid, 1, 7, seed=0)
        x = rng.standard_normal(g.n)
        with ParallelExecutor(threads) as ex:
            got = threaded_spmm(g, x, ex)
        np.testing.assert_array_equal(got, spmm(g, x))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threaded_laplacian_matches(self, threads, small_random, rng):
        from repro.linalg import laplacian_spmm
        from repro.parallel import threaded_laplacian_spmm

        X = rng.standard_normal((small_random.n, 2))
        with ParallelExecutor(threads) as ex:
            got = threaded_laplacian_spmm(small_random, X, ex)
        np.testing.assert_array_equal(got, laplacian_spmm(small_random, X))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threaded_dortho_sweep(self, threads, rng):
        from repro.parallel import threaded_dortho_sweep

        n = 4000
        d = rng.integers(1, 6, size=n).astype(float)
        # Build a small D-orthonormal basis.
        S = rng.standard_normal((n, 3))
        for j in range(3):
            for i in range(j):
                S[:, j] -= np.dot(S[:, i] * d, S[:, j]) * S[:, i]
            S[:, j] /= np.sqrt(np.dot(S[:, j] * d, S[:, j]))
        v = rng.standard_normal(n)
        ref = v.copy()
        for j in range(3):
            ref -= np.dot(S[:, j] * d, ref) * S[:, j]
        with ParallelExecutor(threads) as ex:
            threaded_dortho_sweep(S, d, v, ex)
        np.testing.assert_allclose(v, ref, atol=1e-9)
        # Result is D-orthogonal to every basis column.
        np.testing.assert_allclose(S.T @ (d * v), 0.0, atol=1e-8)

    def test_threaded_spmm_shape_check(self, small_grid):
        from repro.parallel import threaded_spmm

        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                threaded_spmm(small_grid, np.ones((3, 2)), ex)
