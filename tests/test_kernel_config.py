"""KernelConfig: the typed kernel-selection API and its wiring.

Covers the dataclass itself (validation, coercion, canonical minimal
serialization), ``parhde(kernels=...)`` and its flat params echo, the
randomized-subspace and batched-traversal kernels behind it, and the
serving engine's canonicalization: every spelling of one configuration
must produce one cache fingerprint, and contradictions must be 400s,
not cache poison.
"""

import functools

import numpy as np
import pytest

from repro import KernelConfig, parhde
from repro.core import phde, pivotmds
from repro.core.kernels import SUBSPACE_METHODS, TRAVERSALS
from repro.graph import grid2d, preprocess, uniform_random
from repro.service.engine import BadRequest, LayoutEngine, LayoutRequest
from repro.validate import ValidationPolicy, check_d_orthogonality


# ---------------------------------------------------------------------------
# The dataclass itself
# ---------------------------------------------------------------------------

class TestKernelConfig:
    def test_defaults_match_seed_behaviour(self):
        cfg = KernelConfig()
        assert cfg.pivots == "kcenters"
        assert cfg.traversal == "per-source"
        assert cfg.subspace == "deterministic"
        assert cfg.rounds == 0
        assert cfg.to_params() == {}  # minimal form: defaults vanish

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pivots", "bogus"),
            ("ortho", "Q"),
            ("gs_method", "householder"),
            ("project_basis", "X"),
            ("traversal", "simd"),
            ("subspace", "exact"),
        ],
    )
    def test_rejects_unknown_choices(self, field, value):
        with pytest.raises(ValueError, match=field):
            KernelConfig(**{field: value})

    def test_rejects_bad_rounds_and_tol(self):
        with pytest.raises(ValueError, match="rounds"):
            KernelConfig(rounds=-1)
        with pytest.raises(ValueError, match="rounds"):
            KernelConfig(rounds=1.5)
        with pytest.raises(ValueError, match="rounds"):
            KernelConfig(rounds=True)
        with pytest.raises(ValueError, match="drop_tol"):
            KernelConfig(drop_tol=0.0)

    def test_coerce_mapping_and_json_floats(self):
        cfg = KernelConfig.coerce({"traversal": "batched", "rounds": 2.0})
        assert cfg.traversal == "batched"
        assert cfg.rounds == 2 and isinstance(cfg.rounds, int)
        with pytest.raises(ValueError, match="unknown kernels keys"):
            KernelConfig.coerce({"traversel": "batched"})
        with pytest.raises(ValueError, match="mapping"):
            KernelConfig.coerce("batched")

    def test_to_params_canonical(self):
        a = KernelConfig(traversal="batched", rounds=1).to_params()
        b = KernelConfig.coerce(
            {"traversal": "batched", "rounds": 1}
        ).to_params()
        assert a == b == {"traversal": "batched", "rounds": 1}
        full = KernelConfig().to_params(minimal=False)
        assert set(full) == {
            "pivots", "ortho", "gs_method", "project_basis", "drop_tol",
            "traversal", "subspace", "rounds",
        }

    def test_choice_tuples_exported(self):
        assert "batched" in TRAVERSALS
        assert "randomized" in SUBSPACE_METHODS


# ---------------------------------------------------------------------------
# parhde(kernels=...) and the kernels behind it
# ---------------------------------------------------------------------------

class TestParhdeKernels:
    def test_kernels_equals_legacy_spelling(self, small_grid):
        """The dataclass and dict spellings give one layout, echoed in
        the flat params form saved archives have always carried."""
        via_cfg = parhde(
            small_grid, 8, seed=3,
            kernels=KernelConfig(pivots="random", traversal="batched"),
        )
        via_dict = parhde(
            small_grid, 8, seed=3,
            kernels={"pivots": "random", "traversal": "batched"},
        )
        np.testing.assert_array_equal(via_cfg.coords, via_dict.coords)
        assert via_cfg.params == via_dict.params
        flat = KernelConfig(
            pivots="random", traversal="batched"
        ).to_params(minimal=False)
        assert {k: via_cfg.params[k] for k in flat} == flat
        with pytest.raises(TypeError):
            parhde(small_grid, 8, seed=3, pivots="random")

    def test_kernels_dict_accepted(self, small_grid):
        res = parhde(small_grid, 6, kernels={"traversal": "batched"})
        assert res.params["traversal"] == "batched"

    def test_conflict_raises(self, small_grid):
        """A kernel field the solver has no phase for raises instead of
        being silently ignored."""
        with pytest.raises(ValueError, match="does not honour"):
            phde(small_grid, 6, kernels={"rounds": 2})
        with pytest.raises(ValueError, match="does not honour"):
            pivotmds(small_grid, 6, kernels={"ortho": "plain"})

    def test_batched_random_bitwise_equal(self, small_random):
        """random pivots: batched changes cost, not a single bit of B."""
        a = parhde(small_random, 8, seed=5, kernels={"pivots": "random"})
        b = parhde(
            small_random, 8, seed=5,
            kernels={"pivots": "random", "traversal": "batched"},
        )
        np.testing.assert_array_equal(a.B, b.B)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_batched_kcenters_validates(self, tiny_mesh):
        """Approximate farthest-first still passes every invariant."""
        res = parhde(
            tiny_mesh, 10, seed=1, kernels={"traversal": "batched"},
            validate="strict",
        )
        assert np.isfinite(res.coords).all()
        assert len(np.unique(res.pivots)) == 10

    def test_randomized_subspace_runs_and_stays_orthonormal(self, tiny_mesh):
        res = parhde(
            tiny_mesh, 10, seed=2,
            kernels=KernelConfig(rounds=2, subspace="randomized"),
            validate=ValidationPolicy.coerce("strict"),
        )
        assert res.params["subspace"] == "randomized"
        assert res.params["rounds"] == 2
        check = check_d_orthogonality(
            res.S, tiny_mesh.weighted_degrees, tol=1e-6
        )
        assert check.ok, check.detail

    def test_rounds_require_d_geometry(self, small_grid):
        with pytest.raises(ValueError, match="rounds"):
            parhde(small_grid, 6, kernels={"rounds": 1, "ortho": "plain"})
        with pytest.raises(ValueError, match="rounds"):
            parhde(
                small_grid, 6, kernels={"rounds": 1, "project_basis": "B"}
            )

    def test_phde_pivotmds_accept_traversal(self, small_grid):
        random = {"pivots": "random"}
        batched = {"pivots": "random", "traversal": "batched"}
        a = phde(small_grid, 6, seed=4, kernels=random)
        b = phde(small_grid, 6, seed=4, kernels=batched)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert b.params["traversal"] == "batched"
        c = pivotmds(small_grid, 8, seed=4, kernels=batched)
        assert c.params["traversal"] == "batched"
        assert np.isfinite(c.coords).all()


# ---------------------------------------------------------------------------
# Engine round-trip and fingerprint canonicalization
# ---------------------------------------------------------------------------

@pytest.fixture()
def engine():
    eng = LayoutEngine()
    yield eng
    eng.close()


def _graph():
    return preprocess(uniform_random(8, degree=6, seed=11), name="fp-rand")


class TestEngineKernels:
    def test_spellings_share_one_fingerprint(self, engine):
        g = _graph()
        first = engine.submit(LayoutRequest(
            graph=g, s=6, seed=1,
            params={"kernels": {"traversal": "batched", "rounds": 1}},
        ))
        assert not first.cache_hit
        dataclass = engine.submit(LayoutRequest(
            graph=g, s=6, seed=1,
            params={"kernels": KernelConfig(traversal="batched", rounds=1)},
        ))
        assert dataclass.cache_hit
        restated = engine.submit(LayoutRequest(
            graph=g, s=6, seed=1,
            params={"kernels": {
                "traversal": "batched", "rounds": 1.0, "pivots": "kcenters",
            }},
        ))
        assert restated.cache_hit

    def test_default_knobs_keep_bare_fingerprint(self, engine):
        g = _graph()
        bare = engine.submit(LayoutRequest(graph=g, s=5, seed=0))
        spelled = engine.submit(LayoutRequest(
            graph=g, s=5, seed=0,
            params={"kernels": {"traversal": "per-source", "rounds": 0}},
        ))
        assert spelled.cache_hit  # explicit defaults == saying nothing

    def test_conflict_is_bad_request(self, engine):
        g = _graph()
        with pytest.raises(BadRequest, match="does not honour"):
            engine.submit(LayoutRequest(
                graph=g, s=5, algorithm="pivotmds",
                params={"kernels": {"gs_method": "cgs"}},
            ))
        # A flat kernel key is no longer a spelling of anything.
        with pytest.raises(BadRequest, match="unsupported params"):
            engine.submit(LayoutRequest(
                graph=g, s=5, params={"pivots": "random"},
            ))

    def test_unknown_kernels_key_is_bad_request(self, engine):
        g = _graph()
        with pytest.raises(BadRequest, match="unknown kernels keys"):
            engine.submit(LayoutRequest(
                graph=g, s=5, params={"kernels": {"traversel": "batched"}},
            ))

    def test_rounds_rejected_for_phde(self):
        """Rejected in validation: no compute is queued for it."""
        calls = []

        @functools.wraps(phde)  # carries phde.honoured_kernels along
        def counting_phde(g, s, **kwargs):
            calls.append(kwargs)
            return phde(g, s, **kwargs)

        with LayoutEngine(algorithms={"phde": counting_phde}) as eng:
            with pytest.raises(BadRequest, match="rounds"):
                eng.submit(LayoutRequest(
                    graph=_graph(), s=5, algorithm="phde",
                    params={"kernels": {"rounds": 2}},
                ))
            assert calls == []
            assert eng.stats()["counters"].get("cache_misses", 0) == 0
            ok = eng.submit(LayoutRequest(
                graph=_graph(), s=5, algorithm="phde",
                params={"kernels": {"traversal": "batched"}},
            ))
            assert ok.result.params["traversal"] == "batched"
            assert [c["kernels"] for c in calls] == [{"traversal": "batched"}]

    def test_result_params_echo_kernels(self, engine):
        g = _graph()
        resp = engine.submit(LayoutRequest(
            graph=g, s=6, seed=2,
            params={"kernels": {
                "traversal": "batched", "subspace": "randomized", "rounds": 1,
            }},
        ))
        p = resp.result.params
        assert p["traversal"] == "batched"
        assert p["subspace"] == "randomized"
        assert p["rounds"] == 1

    def test_http_round_trip_kernels(self):
        """kernels in the POST /layout body: served, fingerprinted, cached."""
        import json
        import urllib.request

        from repro.service import make_server

        def loader(name, scale, seed):
            if name == "grid":
                return grid2d(8, 8)
            raise KeyError(name)

        eng = LayoutEngine(graph_loader=loader, timeout=30)
        srv = make_server(eng, port=0).start()
        try:
            def post(body):
                req = urllib.request.Request(
                    srv.url + "/layout",
                    data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return json.loads(resp.read())

            cold = post({"graph": "grid", "s": 6,
                         "params": {"kernels": {"traversal": "batched"}}})
            assert cold["status"] == "computed"
            warm = post({"graph": "grid", "s": 6,
                         "params": {"kernels": {"traversal": "batched",
                                                "rounds": 0}}})
            assert warm["cache_hit"]
            assert warm["fingerprint"] == cold["fingerprint"]
            other = post({"graph": "grid", "s": 6})
            assert not other["cache_hit"]
            assert other["fingerprint"] != cold["fingerprint"]
        finally:
            srv.shutdown()
            eng.close()

    def test_telemetry_counts_kernel_choices(self, engine):
        g = _graph()
        engine.submit(LayoutRequest(
            graph=g, s=5, params={"kernels": {"traversal": "batched"}},
        ))
        engine.submit(LayoutRequest(
            graph=g, s=5,
            params={"kernels": {"subspace": "randomized", "rounds": 1}},
        ))
        snap = engine.stats()
        counters = snap.get("counters", snap)
        assert counters.get("kernels.traversal.batched", 0) >= 1
        assert counters.get("kernels.subspace.randomized", 0) >= 1
