"""Tests for sparse/dense linear algebra kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges, random_integer_weights
from repro.linalg import (
    laplacian_quadratic_form,
    laplacian_spmm,
    spmm,
    spmv,
    walk_spmm,
)
from repro.parallel import Ledger

from conftest import random_connected_graph


def dense_adjacency(g):
    A = np.zeros((g.n, g.n))
    for v in range(g.n):
        A[v, g.neighbors(v)] = g.edge_weights_of(v)
    return A


class TestSpMM:
    def test_matches_dense(self, small_random, rng):
        X = rng.standard_normal((small_random.n, 4))
        A = dense_adjacency(small_random)
        np.testing.assert_allclose(spmm(small_random, X), A @ X)

    def test_vector_form(self, small_grid, rng):
        x = rng.standard_normal(small_grid.n)
        A = dense_adjacency(small_grid)
        out = spmv(small_grid, x)
        assert out.shape == (small_grid.n,)
        np.testing.assert_allclose(out, A @ x)

    def test_weighted(self, small_random, rng):
        g = random_integer_weights(small_random, 1, 9, seed=4)
        X = rng.standard_normal((g.n, 3))
        np.testing.assert_allclose(spmm(g, X), dense_adjacency(g) @ X)

    def test_empty_rows(self):
        g = from_edges(5, [1], [3])  # rows 0, 2, 4 empty
        X = np.ones((5, 2))
        out = spmm(g, X)
        np.testing.assert_allclose(out[[0, 2, 4]], 0.0)
        np.testing.assert_allclose(out[1], 1.0)

    def test_shape_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            spmm(small_grid, np.ones((3, 2)))

    def test_cost_recorded(self, small_random, rng):
        led = Ledger()
        with led.phase("TripleProd"):
            spmm(small_random, rng.standard_normal((small_random.n, 2)), ledger=led)
        tot = led.total().parallel
        assert tot.flops == pytest.approx(2.0 * small_random.nnz * 2)
        assert tot.random_lines > 0

    def test_matches_scipy(self, small_random, rng):
        import scipy.sparse as sp

        A = sp.csr_matrix(
            (
                np.ones(small_random.nnz),
                small_random.indices,
                small_random.indptr,
            ),
            shape=(small_random.n, small_random.n),
        )
        X = rng.standard_normal((small_random.n, 3))
        np.testing.assert_allclose(spmm(small_random, X), A @ X)


class TestLaplacian:
    def test_laplacian_matches_dense(self, small_random, rng):
        A = dense_adjacency(small_random)
        L = np.diag(A.sum(axis=1)) - A
        X = rng.standard_normal((small_random.n, 3))
        np.testing.assert_allclose(laplacian_spmm(small_random, X), L @ X)

    def test_laplacian_weighted(self, small_grid, rng):
        g = random_integer_weights(small_grid, 1, 5, seed=1)
        A = dense_adjacency(g)
        L = np.diag(A.sum(axis=1)) - A
        x = rng.standard_normal(g.n)
        np.testing.assert_allclose(laplacian_spmm(g, x), L @ x)

    def test_laplacian_annihilates_constant(self, small_random):
        ones = np.ones(small_random.n)
        np.testing.assert_allclose(
            laplacian_spmm(small_random, ones), 0.0, atol=1e-12
        )

    def test_quadratic_form_identity(self, small_random, rng):
        """y'Ly computed via SpMM equals the edgewise sum (section 2.1)."""
        y = rng.standard_normal(small_random.n)
        via_spmm = float(y @ laplacian_spmm(small_random, y))
        assert laplacian_quadratic_form(small_random, y) == pytest.approx(via_spmm)

    def test_quadratic_form_weighted(self, small_grid, rng):
        g = random_integer_weights(small_grid, 1, 7, seed=2)
        y = rng.standard_normal(g.n)
        assert laplacian_quadratic_form(g, y) == pytest.approx(
            float(y @ laplacian_spmm(g, y))
        )

    def test_quadratic_form_nonnegative(self, small_random, rng):
        y = rng.standard_normal(small_random.n)
        assert laplacian_quadratic_form(small_random, y) >= 0

    def test_walk_matrix(self, small_random, rng):
        A = dense_adjacency(small_random)
        W = A / A.sum(axis=1, keepdims=True)
        x = rng.standard_normal(small_random.n)
        np.testing.assert_allclose(walk_spmm(small_random, x), W @ x)

    def test_walk_preserves_constant(self, small_random):
        ones = np.ones(small_random.n)
        np.testing.assert_allclose(walk_spmm(small_random, ones), ones)

    def test_walk_rejects_isolated(self):
        g = from_edges(3, [0], [1])
        with pytest.raises(ValueError, match="isolated"):
            walk_spmm(g, np.ones(3))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 25), extra=st.integers(0, 40), seed=st.integers(0, 999))
def test_spmm_property_random_graphs(n, extra, seed):
    g = random_connected_graph(n, extra, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    np.testing.assert_allclose(spmm(g, X), dense_adjacency(g) @ X, atol=1e-9)


def _one_shot_spmm(g, X):
    """The unblocked formula: one ``nnz x k`` gather, one reduceat."""
    Xm = X[:, None] if X.ndim == 1 else X
    out = np.zeros((g.n, Xm.shape[1]))
    if g.nnz:
        vals = Xm[g.indices]
        if g.weights is not None:
            vals = vals * g.weights[:, None]
        nonempty = g.degrees > 0
        out[nonempty] = np.add.reduceat(vals, g.indptr[:-1][nonempty], axis=0)
    return out[:, 0] if X.ndim == 1 else out


def _blocked_case(core, lead, trail, extra, hub, weighted, form, k, seed):
    """A graph and operand with the row-block loop's edge cases."""
    rng = np.random.default_rng(seed)
    n = lead + core + trail
    u = lead + rng.integers(0, max(core, 1), size=extra if core > 1 else 0)
    v = lead + rng.integers(0, max(core, 1), size=len(u))
    if hub and core > 1:
        u = np.concatenate([u, np.full(core, lead)])
        v = np.concatenate([v, lead + np.arange(core)])
    w = rng.uniform(0.1, 4.0, size=len(u)) if weighted else None
    g = from_edges(n, u, v, w)
    if form == "vector":
        X = rng.standard_normal(n)
    elif form == "int":
        X = rng.integers(-9, 9, size=(n, k))
    else:
        X = rng.standard_normal((n, k))
    return g, X


_BLOCKED_CASES = dict(
    core=st.integers(0, 40),
    lead=st.integers(0, 3),
    trail=st.integers(0, 3),
    extra=st.integers(0, 80),
    hub=st.booleans(),
    weighted=st.booleans(),
    form=st.sampled_from(["vector", "float", "int"]),
    k=st.integers(1, 200),
    block_bytes=st.sampled_from([8, 64, 1 << 10, 1 << 18]),
    seed=st.integers(0, 999),
)


def _spmv_module():
    import importlib

    # The package re-exports a function named ``spmv``; fetch the module.
    return importlib.import_module("repro.linalg.spmv")


@settings(max_examples=60, deadline=None)
@given(**_BLOCKED_CASES)
def test_spmm_blocked_bitwise_equals_one_shot(
    core, lead, trail, extra, hub, weighted, form, k, block_bytes, seed
):
    """Blocking never changes a bit, whatever the cut positions.

    Covers ``n = 0``, ``nnz = 0``, leading and trailing isolated
    vertices, 1-D ``X``, integer ``X`` on weighted graphs, and hub rows
    longer than a whole block (small ``block_bytes``).
    """
    from unittest import mock

    g, X = _blocked_case(core, lead, trail, extra, hub, weighted, form, k, seed)
    with mock.patch.object(_spmv_module(), "_GATHER_BLOCK_BYTES", block_bytes):
        got = spmm(g, X)
    want = _one_shot_spmm(g, X)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(**_BLOCKED_CASES)
def test_laplacian_spmm_blocked_bitwise_equals_unfused(
    core, lead, trail, extra, hub, weighted, form, k, block_bytes, seed
):
    """The per-block ``D X - A X`` combine is the whole-array formula, bit for bit."""
    from unittest import mock

    g, X = _blocked_case(core, lead, trail, extra, hub, weighted, form, k, seed)
    d = g.weighted_degrees
    with mock.patch.object(_spmv_module(), "_GATHER_BLOCK_BYTES", block_bytes):
        got = laplacian_spmm(g, X)
    want = (d * X if X.ndim == 1 else d[:, None] * X) - _one_shot_spmm(g, X)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_spmm_peak_memory_is_bounded_by_the_block():
    """No ``nnz x k`` gather: the traced peak stays near one output."""
    import tracemalloc

    from repro.linalg.spmv import _GATHER_BLOCK_BYTES

    rng = np.random.default_rng(0)
    n, m, k = 4000, 20000, 64
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                   rng.uniform(0.5, 2.0, m))
    assert g.nnz * k * 8 >= 64 * _GATHER_BLOCK_BYTES
    assert g.degrees.max() * k * 8 <= _GATHER_BLOCK_BYTES
    X = rng.standard_normal((n, k))
    tracemalloc.start()
    try:
        out = spmm(g, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    index_arrays = 8 * (n + 1) * 4
    assert peak < out.nbytes + 4 * _GATHER_BLOCK_BYTES + index_arrays


def test_laplacian_spmm_peak_memory_is_bounded_by_the_block():
    """Neither ``A X`` nor ``D X`` exists whole: the peak is one output."""
    import tracemalloc

    from repro.linalg.spmv import _GATHER_BLOCK_BYTES

    rng = np.random.default_rng(1)
    n, m, k = 4000, 20000, 64
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                   rng.uniform(0.5, 2.0, m))
    X = rng.standard_normal((n, k))
    g.weighted_degrees  # cached on the graph; not part of the product
    tracemalloc.start()
    try:
        out = laplacian_spmm(g, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    index_arrays = 8 * (n + 1) * 4
    assert peak < out.nbytes + 4 * _GATHER_BLOCK_BYTES + index_arrays


def test_long_dots_are_chunk_sums():
    """Vectors longer than one chunk are summed chunk by chunk, in order."""
    from repro.linalg import blas

    rng = np.random.default_rng(2)
    n = 3 * blas._DOT_CHUNK + 17
    x, d, y = rng.standard_normal(n), rng.uniform(1, 5, n), rng.standard_normal(n)
    c = blas._DOT_CHUNK
    want = 0.0
    for a in range(0, n, c):
        want += float(np.dot(x[a : a + c] * d[a : a + c], y[a : a + c]))
    assert blas.weighted_dot(x, d, y) == want
    terms = x * d * y
    assert abs(want - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms))
    assert blas.weighted_norm(x, d) == float(np.sqrt(blas._dot(x * d, x)))
    short = slice(0, c)
    assert blas.dot(x[short], y[short]) == float(np.dot(x[short], y[short]))


_THREAD_DIGESTS = """
import hashlib
import numpy as np
from repro import datasets, parhde
from repro.linalg.gram_schmidt import d_orthogonalize
def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
rng = np.random.default_rng(3)
n = 30000
B = rng.integers(0, 40, size=(n, 4)).astype(np.float64)
d = rng.integers(1, 9, size=n).astype(np.float64)
print(digest(d_orthogonalize(B, d).S))
print(digest(d_orthogonalize(B, d, method="cgs").S))
print(digest(parhde(datasets.load("barth", "small"), 40, seed=0).coords))
from repro.graph import grid2d
from repro.linalg import jacobi_eigh, lobpcg
M = np.random.default_rng(4).standard_normal((120, 120))
print(digest(np.vstack(jacobi_eigh(M + M.T))))
print(digest(parhde(datasets.load("kron", "small"), 50, seed=0,
                    kernels={"traversal": "batched"}).coords))
print(digest(lobpcg(grid2d(110, 100), 2, max_iter=20).vectors))
"""


def test_dortho_bits_do_not_depend_on_blas_threads():
    """One and two OpenBLAS threads give the same bases and coordinates.

    A threaded ``ddot``, ``Q.T @ v`` (CGS) or ``S.T @ P`` (TripleProd at
    s = 40) splits its work by the thread count, so before these were
    summed in one-thread pieces the results changed with the core count.
    The Jacobi eigensolve (n = 120), ParHDE at s = 50 and LOBPCG's
    D-inner products and Rayleigh-Ritz products (n = 11000) are checked
    the same way.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", _THREAD_DIGESTS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "shape", [(50, 26882, 50), (10, 117000, 10), (3, 40, 5), (600, 300, 600)]
)
def test_dense_gemm_is_an_in_order_chunk_sum(shape):
    """``dense_gemm`` sums one-thread pieces of the contraction in order."""
    from repro.linalg import blas

    m, k, n = shape
    rng = np.random.default_rng(k)
    A, B = rng.standard_normal((k, m)).T, rng.standard_normal((k, n))
    step = (blas._GEMM_ONE_THREAD - 1) // (m * n)
    if 0 < step < k:
        want = A[:, :step] @ B[:step]
        for a in range(step, k, step):
            want += A[:, a : a + step] @ B[a : a + step]
    else:
        want = A @ B
    got = blas.dense_gemm(A, B)
    assert np.array_equal(got, want)
    ref = A @ B
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
