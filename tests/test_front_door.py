"""One HTTP front door for both serving modes.

The in-process :class:`~repro.service.http.LayoutServer` and the cluster
server (``make_cluster_server`` over a 1-worker
:class:`~repro.cluster.ClusterRouter`) share one handler and one error
classifier, so a client mistake must get the same ``(status, error,
message)`` from either, and a drained server must refuse work the same
way in both.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.cluster import ClusterRouter, make_cluster_server
from repro.service import LayoutEngine, LayoutServer

BARTH = {"graph": "barth", "scale": "tiny"}

#: (method, route, body) triples; ``body`` is a dict (sent as JSON),
#: raw bytes, or ``None`` for no body at all.
BAD_INPUTS = {
    "seed": ("POST", "/layout", {**BARTH, "seed": "abc"}),
    "null seed": ("POST", "/layout", {**BARTH, "seed": None}),
    "negative seed": ("POST", "/layout", {**BARTH, "seed": -1}),
    "s": ("POST", "/layout", {**BARTH, "s": "abc"}),
    "s out of range": ("POST", "/layout", {**BARTH, "s": 0}),
    "timeout": ("POST", "/layout", {**BARTH, "timeout": "abc"}),
    "lod": ("POST", "/layout", {**BARTH, "lod": "sideways"}),
    "lod budget": ("POST", "/layout", {**BARTH, "lod": -5}),
    "params not an object": ("POST", "/layout", {**BARTH, "params": [1]}),
    "no graph": ("POST", "/layout", {"scale": "tiny"}),
    "unknown graph": ("POST", "/layout", {"graph": "no-such-graph"}),
    "unknown scale": ("POST", "/layout", {"graph": "barth", "scale": "galactic"}),
    "unknown algorithm": ("POST", "/layout", {**BARTH, "algorithm": "nope"}),
    "unknown param": ("POST", "/layout", {**BARTH, "params": {"pivots": 3}}),
    "bad kernels": (
        "POST", "/layout", {**BARTH, "params": {"kernels": {"traversal": "sideways"}}},
    ),
    "pin out of range": (
        "POST", "/layout",
        {**BARTH, "params": {"constraints": {"pins": {"999999": [0, 0]}}}},
    ),
    "dims 0": ("POST", "/layout", {**BARTH, "params": {"dims": 0}}),
    "dims true": ("POST", "/layout", {**BARTH, "params": {"dims": True}}),
    "dims 2.5": ("POST", "/layout", {**BARTH, "params": {"dims": 2.5}}),
    "dims above s": ("POST", "/layout", {**BARTH, "s": 10, "params": {"dims": 11}}),
    "GET seed": ("GET", "/layout?graph=barth&scale=tiny&seed=abc", None),
    "GET negative seed": ("GET", "/layout?graph=barth&scale=tiny&seed=-1", None),
    "GET unknown key": ("GET", "/layout?graph=barth&bogus=1", None),
    "update seed": ("POST", "/update", {**BARTH, "seed": "abc", "inserts": [[0, 1]]}),
    "update negative seed": (
        "POST", "/update", {**BARTH, "seed": -1, "inserts": [[0, 1]]},
    ),
    "update inserts": ("POST", "/update", {**BARTH, "inserts": "0-1"}),
    "update insert row": ("POST", "/update", {**BARTH, "inserts": [[0]]}),
    "update unpins": ("POST", "/update", {**BARTH, "unpins": 3}),
    "update unpin id": ("POST", "/update", {**BARTH, "unpins": ["x"]}),
    "empty update": ("POST", "/update", dict(BARTH)),
    "update no graph": ("POST", "/update", {"inserts": [[0, 1]]}),
    "non-JSON body": ("POST", "/layout", b"not json"),
    "non-object body": ("POST", "/layout", b"[1, 2]"),
    "missing body": ("POST", "/layout", None),
    "unknown POST route": ("POST", "/nope", {}),
    "unknown GET route": ("GET", "/nope", None),
}


def _call(url: str, method: str, route: str, body=None) -> tuple[int, dict]:
    data = json.dumps(body).encode() if isinstance(body, dict) else body
    if method == "POST" and data is None:
        data = b""
    req = urllib.request.Request(
        url + route,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _in_process():
    engine = LayoutEngine(workers=1, timeout=60.0)
    return engine, LayoutServer(engine, port=0).start()


def _cluster():
    router = ClusterRouter(
        1, compute_threads=1, timeout=60.0, cache_mb=16.0
    ).start()
    return router, make_cluster_server(router, port=0).start()


@pytest.fixture(scope="module")
def router_and_servers():
    engine, local = _in_process()
    router, sharded = _cluster()
    yield router, (local.url, sharded.url)
    local.shutdown()
    sharded.shutdown()
    engine.close()
    router.close()


@pytest.fixture()
def servers(router_and_servers):
    return router_and_servers[1]


class TestModeParity:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_same_client_error_in_both_modes(self, servers, case):
        method, route, body = BAD_INPUTS[case]
        answers = [_call(url, method, route, body) for url in servers]
        (status, err), (c_status, c_err) = answers
        assert status in (400, 404), (case, status, err)
        assert (status, err["error"], err["message"]) == (
            c_status, c_err["error"], c_err["message"]
        ), case

    @pytest.mark.parametrize("route", ["/layout", "/update"])
    def test_bad_content_length_is_a_bad_request(self, servers, route):
        answers = []
        for url in servers:
            conn = http.client.HTTPConnection(urlparse(url).netloc, timeout=60)
            conn.putrequest("POST", route)
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            answers.append((resp.status, json.loads(resp.read())))
            conn.close()
        for status, err in answers:
            assert (status, err["error"]) == (400, "bad_request")
            assert err["message"] == "Content-Length must be an integer"

    def test_success_bodies_match_in_both_modes(self, servers):
        body = {**BARTH, "s": 6, "seed": 5}
        answers = [_call(url, "POST", "/layout", body) for url in servers]
        (status, local), (c_status, sharded) = answers
        assert status == c_status == 200
        for key in ("fingerprint", "n", "m", "algorithm", "coords"):
            assert local[key] == sharded[key], key


class TestWorkerEnvelope:
    """The worker's socket replies use the same classifier as HTTP."""

    def test_unknown_op_and_chaos_without_site_are_bad_requests(
        self, router_and_servers
    ):
        router, _ = router_and_servers
        worker = router._workers[0]
        reply = worker.request({"op": "bogus"}, 10.0)
        assert (reply["ok"], reply["status"], reply["error"]) == (
            False, 400, "bad_request"
        )
        assert reply["message"] == "unknown op 'bogus'"
        reply = worker.request({"op": "chaos", "spec": {}}, 10.0)
        assert (reply["status"], reply["error"]) == (400, "bad_request")

    def test_worker_fault_is_an_opaque_500_over_http(self, router_and_servers):
        router, (_, url) = router_and_servers
        router.arm_chaos(0, "cluster.worker.request", error=True, times=1)
        status, err = _call(url, "POST", "/layout", {**BARTH, "s": 6})
        assert (status, err["error"]) == (500, "internal")
        assert err["message"].startswith("internal server error (id ")
        assert "Chaos" not in json.dumps(err)


class TestDrainParity:
    @pytest.mark.parametrize("mode", ["in-process", "cluster"])
    def test_drained_server_refuses_every_serving_route(self, mode):
        backend, server = _in_process() if mode == "in-process" else _cluster()
        try:
            assert server.drain(5.0) is True
            status, health = _call(server.url, "GET", "/healthz")
            assert status == 503 and health["status"] == "draining"
            for method, route, body in (
                ("POST", "/layout", dict(BARTH)),
                ("GET", "/layout?graph=barth&scale=tiny", None),
                ("POST", "/update", {**BARTH, "inserts": [[0, 5]]}),
            ):
                status, err = _call(server.url, method, route, body)
                assert (status, err["error"]) == (503, "overloaded"), route
        finally:
            server.shutdown()
            backend.close()
