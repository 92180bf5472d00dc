"""Served coordinates travel as bytes, bitwise-exact, in both serving modes.

A layout's coordinates are encoded to JSON once per cache entry, relayed
through the cluster hop as a raw frame attachment and spliced into the
HTTP body.  These tests pin down what a client sees: the served floats
are the bits a direct ``parhde`` call produces whatever path answered
(``computed``, ``coalesced``, ``memory-hit``, ``disk-hit``), the
metadata comes first, and keep-alive replies do not stall.
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro import datasets
from repro.cluster import ClusterRouter, make_cluster_server
from repro.core import load_layout, parhde
from repro.core.result import LayoutResult
from repro.service import LayoutCache, LayoutEngine, layout_nbytes, make_server
from repro.service.cache import encode_coords
from repro.service.http import parse_layout_doc

BODY = {"graph": "barth", "scale": "tiny", "s": 6, "seed": 0}
#: Memory-tier budget per cluster worker: one barth@tiny entry with its
#: encoded coordinates fits, two do not, so a second layout on the same
#: shard evicts the first to the disk tier.
CLUSTER_CACHE_MB = 0.0625


@pytest.fixture(scope="module")
def reference() -> np.ndarray:
    g = datasets.load("barth", "tiny", seed=0)
    return parhde(g, 6, seed=0).coords.view(np.uint64)


class _Client:
    """One persistent keep-alive connection."""

    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=60)

    def post(self, body: dict) -> tuple[int, bytes]:
        self.conn.request(
            "POST", "/layout", json.dumps(body).encode(),
            {"Content-Type": "application/json"},
        )
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def close(self) -> None:
        self.conn.close()


def _post(address, body: dict) -> dict:
    client = _Client(address)
    try:
        status, raw = client.post(body)
    finally:
        client.close()
    assert status == 200, raw
    return {"raw": raw, **json.loads(raw)}


def _check_served(
    reply: dict, reference: np.ndarray, status: str | None = None
) -> None:
    assert status is None or reply["status"] == status
    bits = np.asarray(reply["coords"], dtype=np.float64).view(np.uint64)
    assert np.array_equal(bits, reference)
    head = reply["raw"][:512]
    assert b'"fingerprint": ' in head and b'"status": ' in head


def _concurrent(address, n: int, started=None) -> list[dict]:
    """``n`` identical requests at once; ``started`` runs after the
    first is sent (so the rest join its flight)."""
    replies: list[dict] = []
    threads = [
        threading.Thread(target=lambda: replies.append(_post(address, BODY)))
        for _ in range(n)
    ]
    threads[0].start()
    if started is not None:
        started()
    for t in threads[1:]:
        t.start()
    for t in threads:
        t.join(60)
    return replies


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _healthz_median_ms(address) -> float:
    client = _Client(address)
    times = []
    try:
        for _ in range(20):
            t0 = time.perf_counter()
            status, _ = client.get("/healthz")
            times.append(time.perf_counter() - t0)
            assert status == 200
    finally:
        client.close()
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------------------
# the cache's encoded coordinates under contention
# ---------------------------------------------------------------------------


def test_concurrent_encoding_keeps_byte_accounting():
    """Readers encoding coordinates race writers that insert and evict:
    every reply is the exact encoding, and the charged bytes always equal
    the entries' sizes (a lost update to the budget would break it)."""
    rng = np.random.default_rng(0)
    layouts = [
        LayoutResult(
            coords=rng.standard_normal((64, 2)),
            algorithm="fake",
            B=np.zeros((64, 4)),
            S=np.zeros((64, 4)),
            eigenvalues=np.zeros(2),
            pivots=np.arange(4, dtype=np.int64),
        )
        for _ in range(6)
    ]
    expected = [encode_coords(r.coords) for r in layouts]
    # Room for about three entries with their encodings.
    cache = LayoutCache(max_bytes=3 * layout_nbytes(layouts[0], expected[0]))
    errors: list[str] = []

    def worker(seed: int) -> None:
        local = np.random.default_rng(seed)
        for _ in range(300):
            i = int(local.integers(len(layouts)))
            fp = f"fp{i}"
            if local.random() < 0.3:
                cache.put(fp, layouts[i])
            elif cache.coords_json(fp, layouts[i].coords) != expected[i]:
                errors.append(f"wrong encoding for {fp}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    entries = list(cache._mem.values())
    assert cache.stats()["bytes"] == sum(
        layout_nbytes(e.result, e.coords_json) for e in entries
    )
    assert cache.stats()["bytes"] <= cache.max_bytes


def test_encoding_that_cannot_fit_is_not_kept():
    """An entry whose encoding would exceed the whole budget keeps no
    encoding, rather than evicting every other entry to make room."""
    small, big = (
        LayoutResult(
            coords=np.full((n, 2), 0.1),
            algorithm="fake",
            B=np.zeros((n, 2)),
            S=np.zeros((n, 2)),
            eigenvalues=np.zeros(2),
            pivots=np.arange(2, dtype=np.int64),
        )
        for n in (4, 200)
    )
    cache = LayoutCache(max_bytes=layout_nbytes(small) + layout_nbytes(big))
    cache.put("small", small)
    cache.put("big", big)
    assert cache.coords_json("big", big.coords) == encode_coords(big.coords)
    assert len(cache) == 2 and cache.stats()["evictions"] == 0
    assert cache._mem["big"].coords_json is None


# ---------------------------------------------------------------------------
# in-process engine
# ---------------------------------------------------------------------------


class TestInProcess:
    @pytest.fixture
    def served(self, tmp_path):
        gate = threading.Event()

        def gated_parhde(g, s, **kwargs):
            gate.wait(30)
            return parhde(g, s, **kwargs)

        engine = LayoutEngine(
            cache=LayoutCache(disk_dir=tmp_path / "tier2"),
            algorithms={"parhde": gated_parhde},
            workers=2,
            timeout=60,
        )
        server = make_server(engine, port=0).start()
        yield engine, server, gate
        server.shutdown()
        engine.close()

    def test_every_path_serves_the_same_bits(self, served, reference):
        engine, server, gate = served
        coalesced = engine.telemetry.counter("coalesced")

        def release_after_follower_joins():
            _wait_for(lambda: engine.inflight >= 1)
            threading.Thread(
                target=lambda: (
                    _wait_for(lambda: coalesced.value >= 1), gate.set()
                ),
                daemon=True,
            ).start()

        replies = _concurrent(server.address, 2, release_after_follower_joins)
        for reply in replies:
            _check_served(reply, reference)
        assert sorted(r["status"] for r in replies) == ["coalesced", "computed"]
        _check_served(_post(server.address, BODY), reference, "memory-hit")
        engine.cache.clear()
        _check_served(_post(server.address, BODY), reference, "disk-hit")
        _check_served(_post(server.address, BODY), reference, "memory-hit")

    def test_no_coords_when_not_asked(self, served):
        _, server, gate = served
        gate.set()
        for _ in range(2):  # computed, then a memory hit
            reply = _post(server.address, {**BODY, "include_coords": False})
            assert "coords" not in reply

    def test_memory_tier_keeps_and_charges_what_a_hit_serves(
        self, served, tmp_path
    ):
        engine, server, gate = served
        gate.set()
        _post(server.address, BODY)
        _post(server.address, {**BODY, "s": 5, "include_coords": False})
        cache = engine.cache
        entries = list(cache._mem.values())
        assert len(entries) == 2
        assert sum(e.coords_json is not None for e in entries) == 1
        assert cache.stats()["bytes"] == sum(
            layout_nbytes(e.result, e.coords_json) for e in entries
        )
        hit = engine.submit(parse_layout_doc(dict(BODY))[0])
        assert hit.status == "memory-hit"
        assert hit.result.B.size == 0 and hit.result.S.size == 0
        assert hit.result.warm is None and not hit.result.bfs_stats
        archive = load_layout(tmp_path / "tier2" / f"{hit.fingerprint}.npz")
        assert archive.B.size == 0 and archive.S.size == 0

    def test_keepalive_replies_do_not_stall(self, served):
        _, server, _ = served
        assert _healthz_median_ms(server.address) < 10.0


# ---------------------------------------------------------------------------
# 2-worker cluster
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    router = ClusterRouter(
        2,
        compute_threads=1,
        timeout=60.0,
        cache_mb=CLUSTER_CACHE_MB,
        cache_dir=str(tmp_path_factory.mktemp("tier2")),
    ).start()
    server = make_cluster_server(router, port=0).start()
    yield router, server
    server.shutdown()
    router.close()


class TestCluster:
    def test_every_path_serves_the_same_bits(self, cluster, reference):
        router, server = cluster
        owner = router.owner_of("barth", "tiny", 0)
        # Hold the leader in the worker so the followers join its flight.
        router.arm_chaos(owner, "cluster.worker.request", sleep=0.5, times=1)
        replies = _concurrent(server.address, 3)
        for reply in replies:
            _check_served(reply, reference)
        statuses = {r["status"] for r in replies}
        assert {"computed", "coalesced"} <= statuses
        _check_served(_post(server.address, BODY), reference, "memory-hit")
        # Same graph, same shard: a second layout with its coordinates
        # pushes the first out of the worker's memory tier.
        _post(server.address, {**BODY, "s": 5})
        _check_served(_post(server.address, BODY), reference, "disk-hit")
        _check_served(_post(server.address, BODY), reference, "memory-hit")

    def test_no_coords_when_not_asked(self, cluster):
        _, server = cluster
        body = {**BODY, "seed": 1, "include_coords": False}
        for status in ("computed", "memory-hit"):
            reply = _post(server.address, body)
            assert reply["status"] == status and "coords" not in reply
        assert "coords" in _post(server.address, {**body, "include_coords": True})

    def test_keepalive_replies_do_not_stall(self, cluster):
        _, server = cluster
        assert _healthz_median_ms(server.address) < 10.0
