"""Tests for the layout-serving subsystem (:mod:`repro.service`)."""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import load_layout, parhde, save_layout
from repro.core.result import LayoutResult
from repro.graph import from_edges, grid2d
from repro.parallel import PoolSaturated, TaskPool
from repro.service import (
    BadRequest,
    LayoutCache,
    LayoutEngine,
    LayoutRequest,
    Overloaded,
    RequestTimeout,
    UpdateRequest,
    ValidationFailed,
    canonical_params,
    graph_digest,
    layout_fingerprint,
    layout_nbytes,
    make_server,
)
from repro.service import engine as engine_mod


def _fake_layout(n: int = 16, fill: float = 1.0) -> LayoutResult:
    """A small synthetic LayoutResult with a predictable byte size."""
    return LayoutResult(
        coords=np.full((n, 2), fill),
        algorithm="fake",
        B=np.zeros((n, 2)),
        S=np.zeros((n, 2)),
        eigenvalues=np.zeros(2),
        pivots=np.arange(2, dtype=np.int64),
        params={"s": 2, "seed": 0},
    )


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_construction_order_invariance(self):
        u = np.array([0, 1, 2, 3, 0])
        v = np.array([1, 2, 3, 0, 2])
        a = from_edges(5, u, v)
        # Same edges: reversed order, flipped direction, duplicates.
        b = from_edges(5, np.r_[v[::-1], u], np.r_[u[::-1], v])
        assert graph_digest(a) == graph_digest(b)

    def test_structure_sensitivity(self):
        a = grid2d(5, 5)
        b = grid2d(5, 6)
        assert graph_digest(a) != graph_digest(b)

    def test_name_and_dtype_independence(self):
        g = grid2d(4, 4)
        renamed = g.with_name("other")
        assert graph_digest(g) == graph_digest(renamed)

    def test_weights_change_digest(self):
        g = grid2d(4, 4)
        w = g.with_weights(np.full(g.nnz, 2.0))
        assert graph_digest(g) != graph_digest(w)

    def test_param_change_changes_fingerprint(self):
        g = grid2d(5, 5)
        base = layout_fingerprint(g, "parhde", {"s": 8, "seed": 0})
        assert base == layout_fingerprint(g, "parhde", {"seed": 0, "s": 8})
        assert base != layout_fingerprint(g, "parhde", {"s": 9, "seed": 0})
        assert base != layout_fingerprint(g, "phde", {"s": 8, "seed": 0})

    def test_numpy_scalars_normalize(self):
        assert canonical_params({"s": np.int64(8), "tol": np.float64(0.5)}) == (
            canonical_params({"s": 8, "tol": 0.5})
        )
        g = grid2d(4, 4)
        assert layout_fingerprint(g, "parhde", {"s": np.int64(8)}) == (
            layout_fingerprint(g, "parhde", {"s": 8})
        )


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class TestLayoutCache:
    def test_lru_byte_budget_eviction(self):
        one = layout_nbytes(_fake_layout())
        cache = LayoutCache(max_bytes=2 * one)
        cache.put("a", _fake_layout(fill=1))
        cache.put("b", _fake_layout(fill=2))
        assert len(cache) == 2
        cache.put("c", _fake_layout(fill=3))  # evicts "a" (LRU)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("b") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes"] <= cache.max_bytes

    def test_lru_order_updates_on_get(self):
        one = layout_nbytes(_fake_layout())
        cache = LayoutCache(max_bytes=2 * one)
        cache.put("a", _fake_layout())
        cache.put("b", _fake_layout())
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", _fake_layout())
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_oversize_entry_not_cached_in_memory(self):
        cache = LayoutCache(max_bytes=16)
        cache.put("big", _fake_layout(n=64))
        assert len(cache) == 0

    def test_disk_tier_spill_and_promote(self, tmp_path, tiny_mesh):
        res = parhde(tiny_mesh, s=6, seed=0)
        one = layout_nbytes(res)
        cache = LayoutCache(max_bytes=one + 1, disk_dir=tmp_path / "tier2")
        cache.put("x", res)
        cache.put("y", res)  # evicts "x" from memory, spills to disk
        hit = cache.get("x")
        assert hit is not None
        result, tier = hit
        assert tier == "disk"
        np.testing.assert_array_equal(result.coords, res.coords)
        # Promoted back into memory: second read is a memory hit.
        _, tier2 = cache.get("x")
        assert tier2 == "memory"
        stats = cache.stats()
        assert stats["disk_hits"] == 1 and stats["memory_hits"] >= 1

    def test_disk_tier_survives_new_cache_instance(self, tmp_path, tiny_mesh):
        res = parhde(tiny_mesh, s=6, seed=0)
        cache = LayoutCache(max_bytes=10**9, disk_dir=tmp_path / "tier2")
        cache.put("warm", res)
        fresh = LayoutCache(max_bytes=10**9, disk_dir=tmp_path / "tier2")
        hit = fresh.get("warm")
        assert hit is not None and hit[1] == "disk"

    def test_miss_accounting(self):
        cache = LayoutCache(max_bytes=1024)
        assert cache.get("nope") is None
        assert cache.stats()["misses"] == 1

    def test_failed_spill_keeps_entry_in_memory(self, tmp_path):
        # A disk tier rooted under a regular file can never be created,
        # so every spill attempt fails (works even when running as root,
        # unlike chmod-based unwritable directories).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        one = layout_nbytes(_fake_layout())
        cache = LayoutCache(max_bytes=2 * one, disk_dir=blocker / "tier2")
        cache.put("a", _fake_layout(fill=1))
        cache.put("b", _fake_layout(fill=2))
        cache.put("c", _fake_layout(fill=3))  # would evict+spill "a"
        # The spill failed, so "a" must still be served from memory
        # rather than silently vanishing from both tiers.
        hit = cache.get("a")
        assert hit is not None and hit[1] == "memory"
        stats = cache.stats()
        assert stats["disk_errors"] >= 1
        assert stats["evictions"] == 0
        # Memory runs over budget until a spill succeeds — by design.
        assert stats["bytes"] > cache.max_bytes


# ---------------------------------------------------------------------------
# task pool
# ---------------------------------------------------------------------------


class TestTaskPool:
    def test_runs_tasks(self):
        with TaskPool(2) as pool:
            futures = [pool.submit(lambda i=i: i * i) for i in range(8)]
            assert [f.result() for f in futures] == [i * i for i in range(8)]

    def test_saturation(self):
        release = threading.Event()
        with TaskPool(1, queue_limit=1) as pool:
            pool.submit(release.wait)  # occupies the worker
            pool.submit(release.wait)  # fills the queue
            with pytest.raises(PoolSaturated):
                pool.submit(release.wait)
            release.set()


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _tiny_loader(name, scale, seed):
    if name == "grid":
        return grid2d(8 + seed, 8)
    raise KeyError(name)


class TestLayoutEngine:
    def test_cache_hit_roundtrip(self):
        with LayoutEngine(graph_loader=_tiny_loader, workers=2) as eng:
            req = LayoutRequest(graph="grid", s=6)
            cold = eng.submit(req)
            warm = eng.submit(req)
            assert cold.status == "computed"
            assert warm.status == "memory-hit"
            assert warm.fingerprint == cold.fingerprint
            np.testing.assert_array_equal(
                warm.result.coords, cold.result.coords
            )
            snap = eng.stats()
            assert snap["counters"]["cache_hits"] == 1
            assert snap["cache"]["hits"] == 1

    def test_unknown_graph_and_algo(self):
        with LayoutEngine(graph_loader=_tiny_loader) as eng:
            with pytest.raises(BadRequest):
                eng.submit(LayoutRequest(graph="nope"))
            with pytest.raises(BadRequest):
                eng.submit(LayoutRequest(graph="grid", algorithm="nope"))
            with pytest.raises(BadRequest):
                eng.submit(LayoutRequest(graph="grid", s=10**9))
            with pytest.raises(BadRequest):
                eng.submit(
                    LayoutRequest(graph="grid", params={"not_a_param": 1})
                )

    def test_single_flight_dedup(self):
        calls = []
        gate = threading.Event()

        def slow_algo(g, s, **kwargs):
            calls.append(1)
            gate.wait(5)
            return _fake_layout(g.n)

        with LayoutEngine(
            graph_loader=_tiny_loader,
            algorithms={"slow": slow_algo},
            workers=2,
            queue_limit=32,
            timeout=10,
        ) as eng:
            results: list = [None] * 8
            errors: list = []

            def worker(i):
                try:
                    results[i] = eng.submit(
                        LayoutRequest(graph="grid", algorithm="slow", s=4)
                    )
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            # Wait until every thread has either joined the flight or is
            # the leader, then open the gate.
            deadline = time.time() + 5
            while eng.inflight < 1 and time.time() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)
            gate.set()
            for t in threads:
                t.join(timeout=10)
            assert not errors
            assert sum(calls) == 1, "single-flight must dedupe the compute"
            statuses = {r.status for r in results}
            assert statuses <= {"computed", "coalesced", "memory-hit"}
            assert sum(r.status == "computed" for r in results) == 1

    def test_admission_control_burst(self):
        """64-request burst, 2 workers, queue depth 8: structured rejects."""
        release = threading.Event()

        def blocking_algo(g, s, **kwargs):
            release.wait(10)
            return _fake_layout(g.n)

        with LayoutEngine(
            graph_loader=_tiny_loader,
            algorithms={"block": blocking_algo},
            workers=2,
            queue_limit=8,
            timeout=20,
        ) as eng:
            outcomes: list = [None] * 64

            def worker(i):
                try:
                    # Distinct seeds -> distinct fingerprints -> no dedup.
                    outcomes[i] = eng.submit(
                        LayoutRequest(
                            graph="grid", algorithm="block", s=4, seed=i % 32
                        )
                    ).status
                except Overloaded:
                    outcomes[i] = "overloaded"

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(64)
            ]
            for t in threads:
                t.start()
            time.sleep(0.3)
            release.set()
            for t in threads:
                t.join(timeout=30)
            assert None not in outcomes, "every request must resolve"
            rejected = outcomes.count("overloaded")
            assert rejected > 0, "burst must trip admission control"
            served = len(outcomes) - rejected
            assert served >= eng._pool.workers
            assert eng.stats()["counters"]["rejected"] == rejected

    def test_timeout_then_cached_retry(self):
        started = threading.Event()

        def slow_algo(g, s, **kwargs):
            started.set()
            time.sleep(0.3)
            return _fake_layout(g.n)

        with LayoutEngine(
            graph_loader=_tiny_loader,
            algorithms={"slow": slow_algo},
            workers=1,
            timeout=0.05,
        ) as eng:
            req = LayoutRequest(graph="grid", algorithm="slow", s=4)
            with pytest.raises(RequestTimeout):
                eng.submit(req)
            assert started.wait(5)
            # The abandoned computation still completes and lands in the
            # cache; wait for the flight to drain, then retry.
            deadline = time.time() + 5
            while eng.inflight > 0 and time.time() < deadline:
                time.sleep(0.02)
            assert eng.inflight == 0
            resp = eng.submit(req)
            assert resp.cache_hit
            assert eng.stats()["counters"]["timeouts"] >= 1

    def test_compute_error_propagates(self):
        def broken(g, s, **kwargs):
            raise RuntimeError("boom")

        with LayoutEngine(
            graph_loader=_tiny_loader, algorithms={"broken": broken}
        ) as eng:
            from repro.service import ServiceError

            with pytest.raises(ServiceError, match="boom"):
                eng.submit(LayoutRequest(graph="grid", algorithm="broken"))
            # Failed computations are not cached; engine stays usable.
            assert eng.inflight == 0


class TestGraphStateBound:
    def test_pristine_states_are_dropped_and_reload_to_a_hit(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "GRAPH_STATE_CAPACITY", 3)
        with LayoutEngine(graph_loader=_tiny_loader) as eng:
            first = eng.submit(LayoutRequest(graph="grid", s=4, seed=0))
            digest = eng._graphs[("grid", "small", 0)].digest
            eng.update(UpdateRequest(graph="grid", seed=1, inserts=((0, 20),)))
            eng.update(UpdateRequest(graph="grid", seed=2, pins=((3, (0.0, 1.0)),)))
            for seed in range(3, 8):
                eng.submit(LayoutRequest(graph="grid", s=4, seed=seed))
            assert len(eng._graphs) == 3
            assert ("grid", "small", 0) not in eng._graphs
            # Edited and pinned states are never dropped.
            assert eng._graphs[("grid", "small", 1)].epoch == 1
            assert eng._graphs[("grid", "small", 2)].pins == {3: (0.0, 1.0)}

            again = eng.submit(LayoutRequest(graph="grid", s=4, seed=0))
            assert again.status == "memory-hit"
            assert again.fingerprint == first.fingerprint
            assert eng._graphs[("grid", "small", 0)].digest == digest

    def test_an_evicted_state_is_never_mutated(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "GRAPH_STATE_CAPACITY", 1)
        with LayoutEngine(graph_loader=_tiny_loader) as eng:
            held = eng._graph_state("grid", "small", 0)
            eng._graph_state("grid", "small", 1)
            assert held.evicted
            # The update looked the state up just before it was evicted.
            lookups = iter([held])
            load = eng._graph_state
            monkeypatch.setattr(
                eng, "_graph_state", lambda *key: next(lookups, None) or load(*key)
            )
            upd = eng.update(UpdateRequest(graph="grid", inserts=((0, 20),)))
            assert upd.epoch == 1 and held.epoch == 0
            assert eng._graphs[("grid", "small", 0)].epoch == 1

    def test_concurrent_evictions_never_lose_an_update(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "GRAPH_STATE_CAPACITY", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with LayoutEngine(graph_loader=_tiny_loader) as eng:

                def churn(tid):
                    for i in range(40):
                        eng._graph_state("grid", "small", 100 + (tid + i) % 9)

                def edit():
                    for seed in range(10):
                        eng.update(
                            UpdateRequest(graph="grid", seed=seed, inserts=((0, 9),))
                        )

                threads = [
                    threading.Thread(target=churn, args=(t,)) for t in range(4)
                ] + [threading.Thread(target=edit)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for seed in range(10):
                    state = eng._graphs[("grid", "small", seed)]
                    assert (state.epoch, state.content) == (1, 1)
        finally:
            sys.setswitchinterval(interval)


class TestGoldenFingerprints:
    """Literal served fingerprints, pinned across refactors.

    Disk caches and WAL-replayed engines key on these hex strings, so a
    change to how requests canonicalize must leave every one of them
    unchanged.
    """

    GOLDEN = {
        "bare": (
            "4e9e0dcf260dd0c6fa64cf285dee6337"
            "c0a3aeb75d619a4b63e9950b4709a812"
        ),
        "kernels-batched": (
            "7fad84bd4afa42d6157091aa31f5738c"
            "d82ba80f0376c23d62582c6514047864"
        ),
        "kernels-random-cgs": (
            "04734e18d826b40cce47163153761439"
            "0c60e2781f4724ab6ce0b4591dba0446"
        ),
        "kernels-randomized": (
            "e31b9109b5590b3993d1fb9762e0eb2d"
            "1aeaa70dfacc074536df15029d81f643"
        ),
        "pins": (
            "4ccc71c8dc2ede807c067800601bd39b"
            "6621d44076c08241eb3576d4a67b335d"
        ),
        "masses-region": (
            "325a755782e55918fc60f4e7b5a56398"
            "c1fb69f9a8dcb03b87559e173beaecf3"
        ),
        "phde-batched": (
            "d20de1c29be78a0cb754d46e9609ce55"
            "c484a57e1407ddda11fd0de0de769735"
        ),
        "pivotmds-batched": (
            "a31eae0b566e5a35046bb826d49a0fb4"
            "d18341c0f30458a9acc39fdd48798b08"
        ),
        "after-update": (
            "c5cab21793626f0fb03e656b96774dac"
            "dbeff798e93dffa7e0acf204e2fe6375"
        ),
    }

    REQUESTS = {
        "bare": ("parhde", {}),
        "kernels-batched": ("parhde", {"kernels": {"traversal": "batched"}}),
        "kernels-random-cgs": (
            "parhde", {"kernels": {"pivots": "random", "gs_method": "cgs"}}
        ),
        "kernels-randomized": (
            "parhde", {"kernels": {"subspace": "randomized", "rounds": 1}}
        ),
        "pins": ("parhde", {"constraints": {"pins": {3: [0.5, -0.25]}}}),
        "masses-region": (
            "parhde",
            {
                "constraints": {
                    "masses": {0: 2.0, 5: 3.0},
                    "region": [[-1.0, 1.0], [-1.0, 1.0]],
                }
            },
        ),
        "phde-batched": ("phde", {"kernels": {"traversal": "batched"}}),
        "pivotmds-batched": ("pivotmds", {"kernels": {"traversal": "batched"}}),
    }

    def test_fingerprints_are_pinned(self):
        from repro.service import UpdateRequest

        got = {}
        with LayoutEngine(graph_loader=_tiny_loader) as eng:
            for name, (algorithm, params) in self.REQUESTS.items():
                got[name] = eng.submit(
                    LayoutRequest(
                        graph="grid", algorithm=algorithm, s=6, params=params
                    )
                ).fingerprint
            upd = eng.update(UpdateRequest(graph="grid", inserts=[[0, 9]]))
            assert upd.epoch == 1
            got["after-update"] = eng.submit(
                LayoutRequest(graph="grid", s=6)
            ).fingerprint
        assert got == self.GOLDEN


class TestDimsValidation:
    """``params.dims`` is checked before anything is queued."""

    @staticmethod
    def _request(dims) -> LayoutRequest:
        return LayoutRequest(
            graph="barth", scale="tiny", s=10, params={"dims": dims}
        )

    @pytest.mark.parametrize("dims", [0, -1, 2.5, 11, True, "2", None])
    def test_bad_dims_are_bad_requests(self, dims):
        with LayoutEngine(workers=1, timeout=30.0) as eng:
            with pytest.raises(BadRequest, match="params.dims"):
                eng.submit(self._request(dims))
            assert eng.stats()["counters"].get("cache_misses", 0) == 0

    def test_bad_dims_never_open_the_breaker(self):
        with LayoutEngine(workers=1, timeout=30.0, resilience=True) as eng:
            for _ in range(3):
                try:
                    eng.submit(self._request(0))
                except BadRequest:
                    pass
            resp = eng.submit(self._request(3))
            assert resp.status == "computed"
            assert resp.quality_tier == "full"
            assert resp.result.coords.shape == (resp.n, 3)


class TestEngineValidation:
    def test_strict_engine_serves_and_validates(self):
        with LayoutEngine(graph_loader=_tiny_loader, validation="strict") as eng:
            resp = eng.submit(LayoutRequest(graph="grid", s=6))
            assert resp.status == "computed"
            # The policy was threaded into parhde (accepts `validate`).
            resp2 = eng.submit(LayoutRequest(graph="grid", s=6))
            assert resp2.cache_hit
            counters = eng.stats()["counters"]
            assert counters.get("validation_failures", 0) == 0

    def test_stale_cache_hit_fails_closed(self):
        g = grid2d(8, 8)
        with LayoutEngine(graph_loader=_tiny_loader, validation="strict") as eng:
            # Poison the cache: a foreign layout stored under the exact
            # fingerprint the request will look up (an epoch-bump bug).
            fp = layout_fingerprint(
                graph_digest(g), "parhde", {"s": 6, "seed": 0}, epoch=0
            )
            eng.cache.put(fp, _fake_layout(n=4))
            with pytest.raises(ValidationFailed, match="consistency"):
                eng.submit(LayoutRequest(graph=g, s=6))
            assert eng.stats()["counters"]["validation_failures"] == 1
            # Same engine without strictness would have served it.
            assert eng.stats()["counters"]["errors.invalid_layout"] == 1


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------


def _post(url: str, body: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        url + "/layout",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHTTP:
    @pytest.fixture()
    def server(self):
        eng = LayoutEngine(graph_loader=_tiny_loader, workers=2, timeout=30)
        srv = make_server(eng, port=0).start()
        yield srv
        srv.shutdown()
        eng.close()

    def test_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
            assert json.loads(r.read()) == {"status": "ok", "workers": 1}

    def test_layout_cold_then_hot(self, server):
        body = {"graph": "grid", "s": 6, "scale": "tiny"}
        status, cold = _post(server.url, body)
        assert status == 200
        assert cold["status"] == "computed"
        assert len(cold["coords"]) == cold["n"]
        status, warm = _post(server.url, body)
        assert status == 200
        assert warm["status"] == "memory-hit" and warm["cache_hit"]
        assert warm["fingerprint"] == cold["fingerprint"]
        with urllib.request.urlopen(server.url + "/stats", timeout=10) as r:
            stats = json.loads(r.read())
        assert stats["counters"]["cache_hits"] == 1
        assert stats["cache"]["hits"] == 1

    def test_stats_text_page(self, server):
        _post(server.url, {"graph": "grid", "s": 4})
        url = server.url + "/stats?format=text"
        with urllib.request.urlopen(url, timeout=10) as r:
            text = r.read().decode()
        assert "# counters" in text and "latency_seconds" in text

    def test_bad_requests(self, server):
        status, err = _post(server.url, {"graph": "nope"})
        assert status == 400 and err["error"] == "bad_request"
        status, err = _post(server.url, {})
        assert status == 400
        req = urllib.request.Request(
            server.url + "/layout", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_unknown_route(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert exc.value.code == 404

    def test_include_coords_false(self, server):
        status, resp = _post(
            server.url, {"graph": "grid", "s": 4, "include_coords": False}
        )
        assert status == 200 and "coords" not in resp


class TestErrorHygiene:
    """Internal failures must never echo exception text to the client."""

    @pytest.fixture()
    def broken_server(self):
        def broken(g, s, **kwargs):
            raise RuntimeError("secret-compute-detail /private/path")

        eng = LayoutEngine(
            graph_loader=_tiny_loader,
            algorithms={"broken": broken},
            timeout=30,
        )
        srv = make_server(eng, port=0).start()
        yield srv
        srv.shutdown()
        eng.close()

    def test_internal_500_is_generic_with_error_id(self, broken_server, caplog):
        import logging

        with caplog.at_level(logging.ERROR, logger="repro.service.http"):
            status, err = _post(
                broken_server.url, {"graph": "grid", "algorithm": "broken"}
            )
        assert status == 500
        assert err["error"] == "internal"
        body = json.dumps(err)
        assert "secret-compute-detail" not in body
        assert "RuntimeError" not in body
        assert "Traceback" not in body
        # The client gets an opaque id; the operator greps the log for it.
        assert err["error_id"] in err["message"]
        assert err["error_id"] in caplog.text
        assert "secret-compute-detail" in caplog.text
        # Operators alert on the counter, not on log scraping.
        snap = broken_server.engine.telemetry.snapshot()
        assert snap["counters"]["http.internal_errors"] == 1


    def test_internal_type_error_is_500_not_400(self):
        """A solver bug that raises TypeError is the server's fault."""

        def buggy(g, s, **kwargs):
            raise TypeError("secret-type-detail unsupported operand")

        eng = LayoutEngine(
            graph_loader=_tiny_loader, algorithms={"buggy": buggy}, timeout=30
        )
        srv = make_server(eng, port=0).start()
        try:
            status, err = _post(srv.url, {"graph": "grid", "algorithm": "buggy"})
        finally:
            srv.shutdown()
            eng.close()
        assert status == 500
        assert err["error"] == "internal"
        assert err["error_id"] in err["message"]
        body = json.dumps(err)
        assert "secret-type-detail" not in body
        assert "TypeError" not in body


# ---------------------------------------------------------------------------
# serialize round-trip regressions the disk tier depends on
# ---------------------------------------------------------------------------


class TestSerializeRegressions:
    def test_params_preserve_numeric_types(self, tmp_path):
        res = _fake_layout()
        res.params = {
            "s": np.int64(8),
            "tol": np.float64(0.25),
            "weighted": np.bool_(False),
            "offsets": np.array([1, 2, 3]),
            "name": "x",
        }
        p = tmp_path / "layout.npz"
        save_layout(res, p)
        back = load_layout(p)
        assert back.params["s"] == 8 and isinstance(back.params["s"], int)
        assert back.params["tol"] == 0.25
        assert isinstance(back.params["tol"], float)
        assert back.params["weighted"] is False
        assert back.params["offsets"] == [1, 2, 3]
        assert back.params["name"] == "x"

    def test_future_version_clear_error(self, tmp_path):
        res = _fake_layout()
        p = tmp_path / "layout.npz"
        save_layout(res, p)
        data = dict(np.load(p, allow_pickle=False))
        data["format_version"] = np.int64(99)
        np.savez_compressed(p, **data)
        with pytest.raises(ValueError, match="newer"):
            load_layout(p)

    def test_saved_then_loaded_then_served(self, tmp_path, tiny_mesh):
        """A CLI-saved archive is a valid disk-cache entry for the engine."""
        res = parhde(tiny_mesh, s=6, seed=0)
        fp = layout_fingerprint(tiny_mesh, "parhde", {"s": 6, "seed": 0})
        tier2 = tmp_path / "tier2"
        tier2.mkdir()
        save_layout(res, tier2 / f"{fp}.npz")

        cache = LayoutCache(max_bytes=10**9, disk_dir=tier2)
        with LayoutEngine(
            cache=cache,
            graph_loader=lambda name, scale, seed: tiny_mesh,
        ) as eng:
            resp = eng.submit(LayoutRequest(graph="mesh", s=6, seed=0))
            assert resp.status == "disk-hit"
            np.testing.assert_allclose(resp.result.coords, res.coords)
