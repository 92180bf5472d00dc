"""Tests for :mod:`repro.cluster` — ring, protocol, policy, and the
live multi-process serving tier (router + workers + HTTP frontend).

Process-spawning fixtures are module-scoped: workers cost ~1 s of
interpreter startup each, so the integration tests share one 2-worker
cluster.  Tests that mutate cluster-wide sticky state (drain) build
their own router.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    MAX_FRAME,
    ClusterRouter,
    HashRing,
    ProtocolError,
    WorkerUnavailable,
    balanced_assignment,
    compare_policies,
    graph_key,
    hash_assignment,
    make_cluster_server,
    recv_msg,
    send_msg,
)
from repro.resilience import is_lod_tier, tier_rank
from repro.parallel import shard_times
from repro.parallel.machine import BRIDGES_RSM
from repro.service.engine import BadRequest, Overloaded

TINY = {"scale": "tiny", "s": 6, "seed": 0}


# ---------------------------------------------------------------------------
# consistent-hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_empty_ring_has_no_owner(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.owner("x")

    def test_deterministic_ownership(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for node in range(4):
                ring.add(node)
        keys = [graph_key(f"g{i}") for i in range(100)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_all_nodes_get_keys(self):
        ring = HashRing(vnodes=64)
        for node in range(4):
            ring.add(node)
        owners = {ring.owner(graph_key(f"g{i}")) for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_removal_moves_only_dead_nodes_keys(self):
        ring = HashRing(vnodes=64)
        for node in range(4):
            ring.add(node)
        keys = [graph_key(f"g{i}") for i in range(300)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove(2)
        for k in keys:
            after = ring.owner(k)
            if before[k] != 2:
                # Consistent hashing's contract: surviving shards keep
                # their keys; only the dead shard's keys move.
                assert after == before[k]
            else:
                assert after != 2

    def test_preference_lists_distinct_nodes(self):
        ring = HashRing()
        for node in range(3):
            ring.add(node)
        pref = list(ring.preference(graph_key("barth")))
        assert sorted(pref) == [0, 1, 2]
        assert pref[0] == ring.owner(graph_key("barth"))

    def test_len_and_contains(self):
        ring = HashRing()
        ring.add(7)
        assert len(ring) == 1 and 7 in ring and 8 not in ring
        ring.remove(7)
        assert len(ring) == 0 and 7 not in ring

    def test_graph_key_separates_identities(self):
        assert graph_key("a", "tiny", 0) != graph_key("a", "tiny", 1)
        assert graph_key("a", "tiny", 0) != graph_key("a", "small", 0)
        assert graph_key("ab", "c") != graph_key("a", "bc")


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            doc = {"op": "layout", "body": {"graph": "barth", "n": [1, 2]}}
            send_msg(a, doc)
            assert recv_msg(b) == doc

    def test_eof_mid_frame_raises(self):
        import struct

        a, b = socket.socketpair()
        with b:
            # Header promises 1000 bytes; the peer dies after one.
            a.sendall(struct.pack("!I", 1000) + b"{")
            a.close()
            with pytest.raises(ProtocolError):
                recv_msg(b)

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            import struct

            a.sendall(struct.pack("!I", 2**31))
            with pytest.raises(ProtocolError):
                recv_msg(b)

    def test_attachment_roundtrips_byte_identical(self):
        a, b = socket.socketpair()
        with a, b:
            blob = bytes(range(256)) * 4096  # 1 MiB, every byte value
            doc = {"ok": True, "n": 3, "coords": blob}
            sender = threading.Thread(target=send_msg, args=(a, doc))
            sender.start()
            got = recv_msg(b)
            sender.join()
            assert got == doc and got["coords"] == blob
            assert type(got["coords"]) is bytes

    def test_truncated_attachment_raises(self):
        import struct

        a, b = socket.socketpair()
        with b:
            header = json.dumps({"ok": True, "attachments": [["coords", 100]]})
            a.sendall(
                struct.pack("!I", len(header)) + header.encode() + b"[[1"
            )
            a.close()
            with pytest.raises(ProtocolError):
                recv_msg(b)

    def test_attachment_over_max_frame_rejected(self):
        import struct

        a, b = socket.socketpair()
        with a, b:
            header = json.dumps(
                {"ok": True, "attachments": [["coords", MAX_FRAME + 1]]}
            )
            a.sendall(struct.pack("!I", len(header)) + header.encode())
            with pytest.raises(ProtocolError):
                recv_msg(b)


# ---------------------------------------------------------------------------
# machine model: distributed dimension + routing policy comparison
# ---------------------------------------------------------------------------


class TestShardModel:
    def test_message_time_is_alpha_beta(self):
        from dataclasses import replace

        m = replace(BRIDGES_RSM, alpha=1e-4, beta=1e-9)
        assert m.message_time(0) == pytest.approx(1e-4)
        assert m.message_time(1e6) == pytest.approx(1e-4 + 1e-3)

    def test_with_shards(self):
        m4 = BRIDGES_RSM.with_shards(4)
        assert m4.shards == 4
        assert m4.cores == BRIDGES_RSM.cores
        assert BRIDGES_RSM.shards == 1  # original untouched

    def test_shard_times_prices_each_shard(self):
        m = BRIDGES_RSM.with_shards(2)
        assignment = {0: [(0.4, 1000.0)], 1: [(0.1, 1000.0), (0.1, 0.0)]}
        times = shard_times(assignment, m, 1)
        assert set(times) == {0, 1}
        assert times[0] > times[1] > 0

    def test_modeled_scaling_with_more_shards(self):
        # Enough uniform requests that hashing spreads them: the modeled
        # makespan must drop as the shard count grows.
        costs = {f"g{i}": (0.05, 64e3) for i in range(64)}
        mk = {
            s: compare_policies(costs, BRIDGES_RSM.with_shards(s), p=1)
            for s in (1, 2, 4)
        }
        assert mk[2]["hash"]["makespan"] < mk[1]["hash"]["makespan"]
        assert mk[4]["hash"]["makespan"] < mk[2]["hash"]["makespan"]

    def test_balanced_never_worse_than_hash(self):
        costs = {f"g{i}": (0.01 * (i + 1), 32e3) for i in range(40)}
        cmp = compare_policies(costs, BRIDGES_RSM.with_shards(4), p=1)
        assert cmp["hash_over_balanced"] >= 1.0
        assert cmp["balanced"]["imbalance"] >= 1.0

    def test_hash_assignment_covers_everything(self):
        costs = {f"g{i}": (0.01, 0.0) for i in range(50)}
        assignment = hash_assignment(costs, 4)
        assert sum(len(v) for v in assignment.values()) == 50
        balanced = balanced_assignment(
            costs, 4, BRIDGES_RSM.with_shards(4), 1
        )
        assert sum(len(v) for v in balanced.values()) == 50


# ---------------------------------------------------------------------------
# live cluster
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster():
    router = ClusterRouter(
        2,
        compute_threads=1,
        timeout=60.0,
        cache_mb=32.0,
        heartbeat_interval=0.2,
        breaker_threshold=2,
        breaker_reset=5.0,
    ).start()
    yield router
    router.close()


def _wait_workers(router: ClusterRouter, n: int, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if router.alive_workers >= n:
            return
        time.sleep(0.1)
    raise AssertionError(f"cluster never reached {n} live workers")


class TestClusterServing:
    def test_layout_cold_then_cache_hit(self, cluster):
        body = {"graph": "barth", **TINY}
        cold = cluster.layout(body)
        assert cold["status"] == "computed"
        assert len(json.loads(cold["coords"])) == cold["n"]
        warm = cluster.layout(body)
        assert warm["cache_hit"] and warm["status"] == "memory-hit"
        assert warm["fingerprint"] == cold["fingerprint"]

    def test_update_bumps_epoch_on_owning_shard(self, cluster):
        body = {"graph": "pa", **TINY}
        before = cluster.layout(body)
        up = cluster.update(
            {"graph": "pa", "scale": "tiny", "seed": 0, "inserts": [[0, 2]]}
        )
        assert up["epoch"] == 1
        after = cluster.layout(body)
        # The owning shard invalidated: fresh fingerprint, recomputed.
        assert after["fingerprint"] != before["fingerprint"]
        assert after["status"] == "computed"

    def test_include_coords_false_strips(self, cluster):
        body = {"graph": "barth", **TINY, "include_coords": False}
        resp = cluster.layout(body)
        assert "coords" not in resp and resp["cache_hit"]

    def test_bad_request_relayed_not_retried(self, cluster):
        deaths = cluster.telemetry.counter("router.worker_deaths").value
        with pytest.raises(BadRequest):
            cluster.layout({"graph": "no-such-graph", **TINY})
        assert cluster.telemetry.counter("router.worker_deaths").value == deaths

    def test_cross_worker_coalescing(self, cluster):
        body = {"graph": "ecology", **TINY}
        owner = cluster.owner_of("ecology", "tiny", 0)
        # Slow the owner down so concurrent identical requests pile up
        # behind the leader's flight.
        cluster.arm_chaos(
            owner, "cluster.worker.request", sleep=0.5, times=1
        )
        results: list[dict] = []

        def _one():
            results.append(cluster.layout(body))

        threads = [threading.Thread(target=_one) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        statuses = sorted(r["status"] for r in results)
        assert statuses.count("coalesced") >= 1
        assert len({r["fingerprint"] for r in results}) == 1
        assert cluster.telemetry.counter("router.coalesced").value >= 1

    def test_stats_aggregation(self, cluster):
        cluster.layout({"graph": "barth", **TINY})
        stats = cluster.stats()
        assert stats["mode"] == "cluster"
        assert stats["ring"]["workers"] == len(stats["workers"]) == 2
        agg = stats["aggregate"]
        assert agg["workers_up"] == 2
        assert agg["counters"]["requests"] >= 1
        # Worker counters really sum: per-worker requests add up.
        per_worker = sum(
            s["counters"].get("requests", 0)
            for s in stats["workers"].values()
        )
        assert agg["counters"]["requests"] == per_worker
        assert "breakers_open" in agg
        assert "router.requests" in stats["router"]["counters"]

    def test_healthz_schema(self, cluster):
        health = cluster.healthz()
        assert health == {"status": "ok", "workers": 2}

    def test_worker_death_mid_request_reshards_and_restarts(self, cluster):
        # Pick a graph owned by a known worker, then make that worker's
        # process die the moment the request reaches it.
        victim = cluster.owner_of("barth", "tiny", 3)
        deaths0 = cluster.telemetry.counter("router.worker_deaths").value
        restarts0 = cluster.telemetry.counter("router.restarts").value
        cluster.arm_chaos(
            victim, "cluster.worker.request", exit_code=42, times=1
        )
        resp = cluster.layout({"graph": "barth", "scale": "tiny", "s": 6,
                               "seed": 3})
        # The request survived the crash: retried on the ring successor.
        assert resp["status"] == "computed"
        assert resp.get("resharded") is True
        assert (
            cluster.telemetry.counter("router.worker_deaths").value
            == deaths0 + 1
        )
        # The monitor respawns the dead worker and re-adds it to the ring.
        _wait_workers(cluster, 2)
        deadline = time.monotonic() + 30
        while (
            cluster.telemetry.counter("router.restarts").value <= restarts0
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        assert (
            cluster.telemetry.counter("router.restarts").value == restarts0 + 1
        )
        stats = cluster.stats()
        assert stats["workers"][str(victim)]["generation"] >= 1
        assert stats["workers"][str(victim)]["state"] == "up"
        # And the reborn shard serves again (cold cache, pristine graph).
        again = cluster.layout({"graph": "barth", "scale": "tiny", "s": 6,
                                "seed": 3})
        assert again["fingerprint"] == resp["fingerprint"]


class TestClusterHTTP:
    @pytest.fixture(scope="class")
    def server(self, cluster):
        srv = make_cluster_server(cluster, port=0).start()
        yield srv
        srv.shutdown()

    def _post(self, url, body, route="/layout"):
        req = urllib.request.Request(
            url + route,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
            assert json.loads(r.read()) == {"status": "ok", "workers": 2}

    def test_layout_and_update_roundtrip(self, server):
        status, cold = self._post(
            server.url, {"graph": "barth", **TINY, "include_coords": False}
        )
        assert status == 200 and "coords" not in cold
        status, up = self._post(
            server.url,
            {"graph": "barth", "scale": "tiny", "inserts": [[0, 5]]},
            route="/update",
        )
        assert status == 200 and up["epoch"] >= 1

    def test_bad_request_maps_to_400(self, server):
        status, err = self._post(server.url, {"graph": "no-such-graph"})
        assert status == 400 and err["error"] == "bad_request"

    def test_unknown_route_404(self, server):
        status, err = self._post(server.url, {}, route="/nope")
        assert status == 404 and err["error"] == "not_found"

    def test_stats_pages(self, server):
        with urllib.request.urlopen(server.url + "/stats", timeout=10) as r:
            stats = json.loads(r.read())
        assert stats["mode"] == "cluster" and "aggregate" in stats
        url = server.url + "/stats?format=text"
        with urllib.request.urlopen(url, timeout=10) as r:
            text = r.read().decode()
        assert "# counters" in text and "ring" in text


class TestDrainAndLifecycle:
    def test_drain_refuses_new_work_and_close_is_idempotent(self):
        router = ClusterRouter(
            1, compute_threads=1, cache_mb=16.0, heartbeat_interval=0.2
        ).start()
        try:
            router.layout({"graph": "barth", **TINY})
            assert router.drain(10.0) is True
            assert router.healthz()["status"] == "draining"
            with pytest.raises(Overloaded):
                router.layout({"graph": "barth", **TINY})
        finally:
            router.close()
            router.close()  # second close is a no-op

    def test_all_workers_down_raises_unavailable(self):
        router = ClusterRouter(
            1,
            compute_threads=1,
            cache_mb=16.0,
            heartbeat_interval=0.2,
            breaker_threshold=2,
            restart=False,  # observe the degraded ring, no respawn
        ).start()
        try:
            router.arm_chaos(0, "cluster.worker.request", exit_code=9)
            with pytest.raises(WorkerUnavailable):
                router.layout({"graph": "barth", **TINY})
            deadline = time.monotonic() + 10
            while router.alive_workers and time.monotonic() < deadline:
                time.sleep(0.1)
            assert router.healthz() == {"status": "down", "workers": 0}
            with pytest.raises(WorkerUnavailable):
                router.layout({"graph": "barth", **TINY})
        finally:
            router.close()


# ---------------------------------------------------------------------------
# progressive LOD over the live cluster
# ---------------------------------------------------------------------------

_LOD_OPTS = {"min_vertices": 1, "coarsest_size": 64, "refine_sweeps": 1}


@pytest.fixture(scope="module")
def lod_cluster():
    router = ClusterRouter(
        2,
        compute_threads=2,
        timeout=60.0,
        cache_mb=32.0,
        heartbeat_interval=0.2,
        lod_opts=_LOD_OPTS,
    ).start()
    yield router
    router.close()


def _poll_to_full(router, body, budget=30.0):
    tiers = []
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        resp = router.layout(body)
        if not tiers or resp["quality_tier"] != tiers[-1]:
            tiers.append(resp["quality_tier"])
        if resp["quality_tier"] == "full":
            return tiers, resp
        time.sleep(0.05)
    raise AssertionError(f"never converged to full; saw {tiers}")


class TestLodCluster:
    def test_first_paint_then_monotone_convergence(self, lod_cluster):
        body = {"graph": "barth", **TINY, "lod": "auto",
                "include_coords": False}
        first = lod_cluster.layout(body)
        assert first["status"] == "computed"
        assert is_lod_tier(first["quality_tier"])
        tiers, final = _poll_to_full(lod_cluster, body)
        ranks = [tier_rank(t) for t in [first["quality_tier"]] + tiers]
        assert ranks == sorted(ranks, reverse=True)
        assert final["quality_tier"] == "full"

    def test_tier_parity_with_in_process_engine(self, lod_cluster):
        """Satellite: quality_tier must be identical between --workers N
        and in-process serving for the same request and LOD config."""
        from repro.lod import LodConfig
        from repro.service import LayoutEngine, LayoutRequest

        body = {"graph": "web", **TINY, "lod": "auto",
                "include_coords": False}
        cluster_first = lod_cluster.layout(body)["quality_tier"]
        eng = LayoutEngine(workers=2, lod_config=LodConfig(**_LOD_OPTS))
        try:
            local = eng.submit(
                LayoutRequest(graph="web", scale="tiny", s=6, lod="auto")
            )
            assert local.result.quality_tier == cluster_first
        finally:
            eng.close()

    def test_every_response_carries_quality_tier(self, lod_cluster):
        body = {"graph": "barth", **TINY, "include_coords": False}
        resp = lod_cluster.layout(body)
        assert resp["quality_tier"] == "full"

    def test_coalesced_followers_get_leaders_tier(self, lod_cluster):
        body = {"graph": "ecology", **TINY, "lod": "auto",
                "include_coords": False}
        owner = lod_cluster.owner_of("ecology", "tiny", 0)
        lod_cluster.arm_chaos(
            owner, "cluster.worker.request", sleep=0.5, times=1
        )
        results: list[dict] = []

        def _one():
            results.append(lod_cluster.layout(dict(body)))

        threads = [threading.Thread(target=_one) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(results) == 4
        statuses = sorted(r["status"] for r in results)
        assert statuses.count("coalesced") >= 1
        # Followers relay the leader's payload verbatim (bar status):
        # same fingerprint, same quality_tier.
        assert len({r["fingerprint"] for r in results}) == 1
        assert len({r["quality_tier"] for r in results}) == 1
        _poll_to_full(lod_cluster, body)

    def test_lod_mode_splits_coalescing_flights(self, lod_cluster):
        on = {"graph": "barth", **TINY, "lod": "auto"}
        off = {"graph": "barth", **TINY}
        assert (
            ClusterRouter._coalesce_key(on)
            != ClusterRouter._coalesce_key(off)
        )

    def test_placement_stats_and_affinity(self, lod_cluster):
        # Sticky affinity: the owner never changes between requests.
        owner = lod_cluster.owner_of("barth", "tiny", 0)
        for _ in range(3):
            lod_cluster.layout(
                {"graph": "barth", **TINY, "include_coords": False}
            )
            assert lod_cluster.owner_of("barth", "tiny", 0) == owner

    def test_get_layout_polling_route(self, lod_cluster):
        srv = make_cluster_server(lod_cluster, port=0).start()
        try:
            url = (
                srv.url + "/layout?graph=barth&scale=tiny&s=6&lod=auto"
                "&include_coords=false"
            )
            with urllib.request.urlopen(url, timeout=60) as r:
                payload = json.loads(r.read())
            assert "quality_tier" in payload and "coords" not in payload
            bad = srv.url + "/layout?graph=barth&bogus=1"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bad, timeout=30)
            assert err.value.code == 400
        finally:
            srv.shutdown()
