"""Tests for the invariant-guard subsystem (repro.validate).

Covers the policy object, the per-phase checkers, the policy threading
through ``parhde``, ``phde``, ``pivotmds``, ``LayoutEngine`` and
``StreamSession`` (including strict-mode rollback),
the suite runner, and the ``parhde check`` CLI end to end — on clean
datasets (unweighted and weighted) and with every registered fault
injected, each of which must be detected with a nonzero exit status and
a named report line.
"""

import functools
import importlib
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.core import parhde, phde, pivotmds
from repro.graph import random_integer_weights
from repro.service import LayoutEngine, LayoutRequest, graph_digest
from repro.stream import StreamSession, edge_delta
from repro.validate import (
    FAULTS,
    CheckResult,
    InvariantViolation,
    ValidationPolicy,
    ValidationWarning,
    check_bfs_levels,
    check_cache_consistency,
    check_d_orthogonality,
    check_eigenpairs,
    run_injection,
    run_suite,
)


def _failing(phase="DOrtho", check="dortho.residual"):
    return CheckResult(check, phase, residual=1.0, threshold=1e-6)


class TestPolicy:
    def test_coerce(self):
        assert ValidationPolicy.coerce(None).level == "off"
        assert ValidationPolicy.coerce("warn").level == "warn"
        p = ValidationPolicy("strict")
        assert ValidationPolicy.coerce(p) is p

    def test_invalid_level_and_type(self):
        with pytest.raises(ValueError, match="level"):
            ValidationPolicy("loud")
        with pytest.raises(TypeError):
            ValidationPolicy.coerce(3.14)

    def test_deep_defaults_to_strict_only(self):
        assert not ValidationPolicy("off").run_deep
        assert not ValidationPolicy("warn").run_deep
        assert ValidationPolicy("strict").run_deep
        assert ValidationPolicy("warn", deep=True).run_deep
        assert not ValidationPolicy("strict", deep=False).run_deep

    def test_handle_strict_raises(self):
        with pytest.raises(InvariantViolation) as exc:
            ValidationPolicy("strict").handle(_failing())
        assert exc.value.result.check == "dortho.residual"
        assert "residual" in str(exc.value)

    def test_handle_warn_warns_and_returns(self):
        with pytest.warns(ValidationWarning, match="dortho.residual"):
            r = ValidationPolicy("warn").handle(_failing())
        assert not r.ok

    def test_handle_off_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ValidationPolicy("off").handle(_failing())

    def test_handle_passes_ok_results(self):
        ok = CheckResult("bfs.levels", "BFS", 0.0, 0.0)
        assert ValidationPolicy("strict").handle(ok) is ok


class TestCheckers:
    def test_bfs_levels_shape_mismatch(self, small_grid):
        r = check_bfs_levels(small_grid, np.zeros((3, 2)), np.array([0, 1]))
        assert not r.ok and "shape" in r.detail

    def test_bfs_levels_weighted_gets_epsilon(self, small_random):
        g = random_integer_weights(small_random, 1, 9, seed=0)
        from repro.sssp import dijkstra

        B = np.column_stack([dijkstra(g, 0), dijkstra(g, 5)])
        r = check_bfs_levels(g, B, np.array([0, 5]), weighted=True)
        assert r.ok and r.threshold > 0.0

    def test_d_orthogonality_detects_scaling(self):
        n = 40
        rng = np.random.default_rng(0)
        # Orthonormalize against the constant vector too (column 0 of the
        # QR factor), matching the centering invariant the check enforces.
        M = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        S = np.linalg.qr(M)[0][:, 1:]
        assert check_d_orthogonality(S, None).ok
        assert not check_d_orthogonality(S * 1.5, None).ok

    def test_eigenpairs_detects_disorder(self):
        Z = np.diag([1.0, 2.0, 3.0])
        Y = np.eye(3)[:, [1, 0]]
        r = check_eigenpairs(Z, np.array([2.0, 1.0]), Y)
        assert not r.ok and "order" in r.detail

    def test_cache_consistency_counts_mismatches(self, small_grid):
        class FakeResult:
            coords = np.zeros((small_grid.n, 2))
            algorithm = "phde"
            params = {"s": 4, "seed": 1}

        r = check_cache_consistency(
            FakeResult(), small_grid, "parhde", {"s": 8, "seed": 1}
        )
        assert r.residual == 2.0  # wrong algorithm + wrong s
        assert "algorithm" in r.detail and "params['s']" in r.detail

    def test_edge_checks_build_no_nnz_by_k_array(self):
        """The strict BFS-level and Laplacian checks run over edge blocks."""
        import tracemalloc

        from repro.graph import from_edges
        from repro.linalg.spmv import _GATHER_BLOCK_BYTES
        from repro.validate import check_laplacian_identity

        rng = np.random.default_rng(0)
        n, m, k = 4000, 20000, 64
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
        assert g.nnz * k * 8 >= 64 * _GATHER_BLOCK_BYTES
        B = rng.integers(0, 9, size=(n, k)).astype(np.float64)
        S = rng.standard_normal((n, k))
        P = np.zeros_like(S)
        # O(n k) temporaries are fine (the integrality test rounds B);
        # one nnz x k gather alone would be 20 MB.
        dense = 3 * S.nbytes
        edge_index_arrays = 3 * g.nnz * 8
        for check, args in ((check_bfs_levels, (B, np.arange(k))),
                            (check_laplacian_identity, (S, P))):
            tracemalloc.start()
            try:
                check(g, *args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            limit = dense + 4 * _GATHER_BLOCK_BYTES + edge_index_arrays
            assert peak < limit, check.__name__


class TestPipelineThreading:
    def test_parhde_strict_matches_unvalidated(self, small_random):
        checked = parhde(small_random, 6, seed=0, validate="strict")
        plain = parhde(small_random, 6, seed=0)
        np.testing.assert_array_equal(checked.coords, plain.coords)

    def test_parhde_warn_is_clean(self, small_random):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidationWarning)
            parhde(small_random, 6, seed=0, validate="warn")

    def test_parhde_weighted_strict(self, small_random):
        g = random_integer_weights(small_random, 1, 9, seed=3)
        parhde(g, 6, seed=0, weighted=True, validate="strict")

    @pytest.mark.parametrize("algo", [phde, pivotmds], ids=lambda f: f.__name__)
    def test_pca_solvers_strict_matches_unvalidated(self, small_random, algo):
        pins = {"pins": {0: (0.5, -0.5)}, "region": [(-2, 2), (-2, 2)]}
        for constraints in (None, pins):
            checked = algo(
                small_random, 6, constraints=constraints, validate="strict"
            )
            plain = algo(small_random, 6, constraints=constraints)
            np.testing.assert_array_equal(checked.coords, plain.coords)

    @pytest.mark.parametrize("algo", [phde, pivotmds], ids=lambda f: f.__name__)
    def test_pca_solvers_strict_catch_corrupted_distances(
        self, small_random, monkeypatch, algo
    ):
        module = importlib.import_module(f"repro.core.{algo.__name__}")
        traverse = module.select_and_traverse

        def corrupted(*args, **kwargs):
            ms = traverse(*args, **kwargs)
            ms.distances[ms.sources[0], 0] = 3.0  # a pivot is 0 from itself
            return ms

        monkeypatch.setattr(module, "select_and_traverse", corrupted)
        algo(small_random, 6)  # unchecked runs serve the corrupted B
        with pytest.raises(InvariantViolation, match="bfs.levels"):
            algo(small_random, 6, validate="strict")

    def test_strict_engine_hands_validate_to_every_algorithm(
        self, small_random
    ):
        seen = []

        def recorder(g, s, **kwargs):
            seen.append(kwargs.get("validate"))
            return phde(g, s, **kwargs)

        with LayoutEngine(
            validation="strict",
            algorithms={"phde": functools.wraps(phde)(recorder)},
        ) as eng:
            eng.submit(LayoutRequest(graph=small_random, s=6, algorithm="phde"))
        assert [p.level for p in seen] == ["strict"]

    def test_session_strict_violation_rolls_back(
        self, small_random, monkeypatch
    ):
        sess = StreamSession(small_random, 6, seed=0, validation="strict")
        before_epoch = sess.epoch
        before_digest = graph_digest(sess.graph)
        before_coords = np.array(sess.coords)
        monkeypatch.setattr(
            "repro.core.hde.check_d_orthogonality",
            lambda *a, **k: _failing(),
        )
        with pytest.raises(InvariantViolation):
            sess.update(edge_delta(inserts=[(0, small_random.n - 1)]))
        # The failed update must leave no trace: same epoch, same graph,
        # same coordinates.
        assert sess.epoch == before_epoch
        assert graph_digest(sess.graph) == before_digest
        np.testing.assert_array_equal(sess.coords, before_coords)


class TestRunSuite:
    def test_strict_covers_all_subsystems(self, small_random):
        report = run_suite(small_random, 6, seed=0, policy="strict")
        assert report.ok
        names = {r.check for r in report}
        assert {
            "bfs.levels",
            "dortho.residual",
            "tripleprod.laplacian",
            "eigen.residual",
            "stream.overlay",
            "stream.repair",
            "cache.consistency",
        } <= names
        assert "PASS" in report.format()

    def test_warn_skips_deep_checks(self, small_random):
        report = run_suite(small_random, 6, seed=0, policy="warn")
        assert report.ok
        names = {r.check for r in report}
        assert "stream.repair" not in names and "cache.consistency" not in names

    def test_weighted_suite(self, small_random):
        report = run_suite(
            small_random, 6, seed=0, policy="strict", weighted=True
        )
        assert report.ok


class TestCheckCLI:
    """End-to-end ``parhde check`` on seed datasets."""

    @pytest.mark.parametrize("dataset", ["barth", "ecology"])
    def test_strict_passes_unweighted(self, dataset, capsys):
        rc = main(["check", dataset, "--scale", "tiny", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        assert "stream.repair" in out  # strict runs the deep checks

    def test_strict_passes_weighted(self, capsys):
        rc = main(
            ["check", "barth", "--scale", "tiny", "--strict", "--weighted"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_inject_list_names_every_fault(self, capsys):
        rc = main(["check", "barth", "--scale", "tiny", "--inject", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in FAULTS:
            assert name in out

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_injected_fault_detected(self, fault, capsys):
        # The contract: a corrupted pipeline exits nonzero and the report
        # names the fault.
        rc = main(
            ["check", "barth", "--scale", "tiny", "--inject", fault]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert f"inject {fault}" in out
        assert "CAUGHT" in out and "MISSED" not in out

    def test_inject_all_harness_selftest(self, capsys):
        rc = main(["check", "barth", "--scale", "tiny", "--inject", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"harness: {len(FAULTS)}/{len(FAULTS)} faults caught" in out

    def test_inject_unknown_fault_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "barth", "--scale", "tiny", "--inject", "nope"])
        assert exc.value.code == 2


class TestInjectionAPI:
    def test_run_injection_unknown_name(self, small_random):
        with pytest.raises(KeyError, match="unknown"):
            run_injection(small_random, ["no-such-fault"])

    def test_registry_has_at_least_six_faults(self):
        assert len(FAULTS) >= 6

    def test_all_faults_caught_programmatically(self, small_random):
        outcomes = run_injection(small_random, s=6, seed=0)
        assert len(outcomes) == len(FAULTS)
        missed = [o.fault for o in outcomes if not o.caught]
        assert missed == []
