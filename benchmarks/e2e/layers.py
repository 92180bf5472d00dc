"""Out-of-program tracing for the traced benchmark run.

The benchmark measures each layer from outside: :class:`Tracer` replaces
the public functions the layers call each other through (module globals
and class attributes) with wrappers that record one span per call, and
restores them afterwards.  No file under ``src/`` knows about it.

A span holds its name, start, end, parent span (same thread), thread and
request id.  Spans stay in memory; :meth:`Tracer.dump` writes them out
when the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.

Requests are matched across threads afterwards: a client span knows the
local port of its persistent connection and a handler span the peer port
it serves, so each handler span adopts the id of the client request whose
window contains it.  Engine pool-thread spans carry no id and are
aggregated per layer (carrying the id through the pool needs in-program
changes).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import Any, Callable

import repro
import repro.cluster.router as cluster_router
import repro.core.hde as hde
import repro.service.engine as service_engine
import repro.service.http as service_http
from repro.cluster import ClusterRouter
from repro.parallel.machine import BRIDGES_RSM, phase_times
from repro.service import LayoutCache, LayoutEngine
from repro.stream import DynamicGraph
from repro.wal import WriteAheadLog

PHASES = ("BFS", "DOrtho", "TripleProd", "Other")
#: Bytes per irregular cache-line access, the machine model's line size.
LINE_BYTES = 64.0
#: Roots of the span trees that belong to request processing; any other
#: root (router heartbeats on the monitor thread) is background work.
REQUEST_ROOTS = ("http.handler", "core.parhde", "service.cache_put")
#: Pool-thread roots: their time is also inside the submit call that
#: waits for them, so it is taken out of that call's self time.
POOL_ROOTS = ("core.parhde", "service.cache_put")


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    rid: str | None = None
    children_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Records spans around wrapped layer calls while ``recording`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **extra) -> Span | None:
        if not self.recording:
            return None
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
            extra=extra,
        )
        stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, **extra) -> None:
        """Add a finished span measured by the caller (client requests)."""
        if self.recording:
            self.spans.append(
                Span(name, start, end, thread=threading.get_ident(), extra=extra)
            )

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        # functools.wraps keeps __wrapped__, so the engine's signature
        # sniffing (validate= / warm_base= support) still sees the original.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if span is not None and observe is not None:
                    observe(span, args, kwargs, result)
                return result
            finally:
                self.close(span)

        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, observe)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, observe))
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every traced layer entry point (before engines are built)."""
        p = self.patch
        p(repro, "parhde", "core.parhde", _observe_parhde)
        p(service_engine.DEFAULT_ALGORITHMS, "parhde", "core.parhde", _observe_parhde)
        p(hde, "select_and_traverse", "bfs.select_and_traverse", _observe_bfs)
        p(hde, "d_orthogonalize", "linalg.d_orthogonalize")
        p(hde, "laplacian_spmm", "linalg.laplacian_spmm", _observe_spmm)
        p(hde, "dense_gemm", "linalg.dense_gemm")
        p(hde, "extreme_eigenpairs", "linalg.extreme_eigenpairs")
        p(hde, "deflate_basis", "core.deflate_basis")
        p(hde, "carrier_field", "core.carrier_field")
        p(service_engine, "layout_fingerprint", "service.layout_fingerprint")
        p(LayoutEngine, "submit", "service.engine_submit")
        p(LayoutEngine, "update", "service.engine_update")
        p(LayoutEngine, "resolve_versioned", "service.resolve_versioned")
        p(LayoutCache, "get", "service.cache_get")
        p(LayoutCache, "put", "service.cache_put")
        p(DynamicGraph, "apply", "stream.overlay_apply")
        p(DynamicGraph, "to_csr", "stream.overlay_to_csr")
        p(WriteAheadLog, "append", "wal.append")
        p(service_http, "parse_layout_doc", "http.parse_layout_doc")
        p(service_http, "layout_payload", "http.layout_payload")
        p(ClusterRouter, "layout", "cluster.router_layout", _observe_router)
        p(cluster_router, "send_msg", "cluster.send_msg")
        p(cluster_router, "recv_msg", "cluster.recv_msg")
        self._install_handler()
        return self

    def _install_handler(self) -> None:
        # A keep-alive handler blocks in handle_one_request reading the
        # next request line, so the span opens when parsing starts (the
        # request has arrived) and closes when the response is written.
        tracer = self
        handle = BaseHTTPRequestHandler.handle_one_request
        parse = BaseHTTPRequestHandler.parse_request

        @functools.wraps(handle)
        def handle_one_request(handler):
            tracer._local.handler = None
            try:
                return handle(handler)
            finally:
                tracer.close(tracer._local.handler)
                tracer._local.handler = None

        @functools.wraps(parse)
        def parse_request(handler):
            if getattr(tracer._local, "handler", "absent") is None:
                tracer._local.handler = tracer.open(
                    "http.handler", port=handler.client_address[1]
                )
            return parse(handler)

        BaseHTTPRequestHandler.handle_one_request = handle_one_request
        BaseHTTPRequestHandler.parse_request = parse_request
        self._patches.append((BaseHTTPRequestHandler, "handle_one_request", handle))
        self._patches.append((BaseHTTPRequestHandler, "parse_request", parse))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- request ids -------------------------------------------------------
    def link_requests(self) -> None:
        """Give each handler tree the id of the client request it served."""
        clients: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.name == "client.request":
                clients.setdefault(span.extra.get("port"), []).append(span)
        for spans in clients.values():
            spans.sort(key=lambda s: s.start)
        for span in self.spans:
            if span.name == "client.request" and span.rid is None:
                span.rid = f"{span.extra.get('port')}:{span.start:.6f}"
        for span in self.spans:
            if span.name != "http.handler":
                continue
            # Requests on one connection are sequential, so the handler
            # that starts inside a client window served that request (its
            # end may trail the client's last read by a thread switch).
            for client in clients.get(span.extra.get("port"), ()):
                if client.start <= span.start <= client.end:
                    span.rid = client.rid
                    client.extra["handler"] = span
                    break
        for span in self.spans:
            if span.rid is None and span.parent is not None:
                span.rid = span.root().rid

    def dump(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        doc = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent else None,
                "thread": s.thread,
                "rid": s.rid,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- observers (run inside the span, on the layer's own result) ------------
def _observe_bfs(span: Span, args, kwargs, result) -> None:
    stats = getattr(result, "stats", None) or []
    span.extra["edges"] = sum(int(getattr(st, "edges_examined", 0)) for st in stats)
    span.extra["levels"] = sum(int(getattr(st, "levels", 0)) for st in stats)
    span.extra["bu_levels"] = sum(
        list(getattr(st, "directions", ())).count("bu") for st in stats
    )


def _observe_spmm(span: Span, args, kwargs, result) -> None:
    # Computed (compulsory) bytes: the CSR arrays and degree vector read
    # once, the dense operand read once, the product written once.
    g, X = args[0], args[1]
    nbytes = g.indptr.nbytes + g.indices.nbytes + X.nbytes + result.nbytes
    nbytes += g.n * 8
    if getattr(g, "weights", None) is not None:
        nbytes += g.weights.nbytes
    span.extra["bytes"] = nbytes


def _observe_parhde(span: Span, args, kwargs, result) -> None:
    ledger = result.ledger
    totals = ledger.phase_totals()
    modeled = phase_times(ledger, BRIDGES_RSM, 1)
    for phase in PHASES:
        tot = totals.get(phase)
        cost = tot.combined if tot is not None else None
        # Operations: scalar work plus vector flops (DOrtho is all flops).
        span.extra[f"work.{phase}"] = cost.work + cost.flops if cost else 0.0
        span.extra[f"bytes.{phase}"] = (
            cost.bytes_streamed + LINE_BYTES * cost.random_lines if cost else 0.0
        )
        span.extra[f"model.{phase}"] = modeled.get(phase, 0.0)


def _observe_router(span: Span, args, kwargs, result) -> None:
    span.extra["engine_s"] = float(result.get("elapsed_seconds") or 0.0)


# -- per-layer metrics -----------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, service: dict) -> tuple[dict, dict]:
    """Per-operation layer figures from the traced window.

    ``service`` carries what the layers count themselves, as totals over
    the traced window (response bytes, coalesced requests, WAL appends and
    fsyncs), hit ratios over the window, and queue-wait / compute
    medians.  Returns ``(metrics, health)`` where ``health`` has the
    attribution totals.
    """
    tracer.link_requests()
    spans = tracer.spans
    per_op = max(ops, 1)
    inclusive: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span in spans:
        if span.name == "client.request":
            continue
        if span.root().name not in REQUEST_ROOTS:
            continue
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        selfs[span.name] = selfs.get(span.name, 0.0) + span.self_s
        for key, value in span.extra.items():
            if isinstance(value, (int, float)) and key != "port":
                ckey = f"{span.name}:{key}"
                counts[ckey] = counts.get(ckey, 0.0) + value

    def inc(name: str) -> float:
        return inclusive.get(name, 0.0)

    def cnt(name: str, key: str) -> float:
        return counts.get(f"{name}:{key}", 0.0)

    # Pool-thread computations overlap the submit call waiting on them.
    # (Solve loops call parhde inline on the thread that times the op.)
    op_threads = {s.thread for s in spans if s.name == "client.request"}
    pool_s = sum(
        s.duration
        for s in spans
        if s.parent is None and s.name in POOL_ROOTS and s.thread not in op_threads
    )
    if "service.engine_submit" in selfs:
        selfs["service.engine_submit"] -= pool_s

    client_s = transport_s = matched_s = 0.0
    for span in spans:
        if span.name != "client.request":
            continue
        client_s += span.duration
        handler = span.extra.get("handler")
        if handler is not None:
            transport_s += span.duration - handler.duration
            matched_s += span.duration
    attributed = transport_s + sum(selfs.values())
    unattributed = client_s - attributed

    bfs_s = inc("bfs.select_and_traverse")
    edges = cnt("bfs.select_and_traverse", "edges")
    levels = cnt("bfs.select_and_traverse", "levels")
    measured = {
        "BFS": bfs_s,
        "DOrtho": inc("linalg.d_orthogonalize") + inc("core.deflate_basis"),
        "TripleProd": inc("linalg.laplacian_spmm") + inc("linalg.dense_gemm"),
    }
    measured["Other"] = max(0.0, inc("core.parhde") - sum(measured.values()))
    router_s = inc("cluster.router_layout")

    m = {
        "bfs.select_and_traverse_s": bfs_s / per_op,
        "bfs.edges_examined": edges / per_op,
        "bfs.levels": levels / per_op,
        "bfs.bottomup_level_share": _ratio(cnt("bfs.select_and_traverse", "bu_levels"), levels),
        "bfs.edges_per_s": _ratio(edges, bfs_s),
        "linalg.d_orthogonalize_s": inc("linalg.d_orthogonalize") / per_op,
        "linalg.laplacian_spmm_s": inc("linalg.laplacian_spmm") / per_op,
        "linalg.laplacian_spmm_gbps": _ratio(
            cnt("linalg.laplacian_spmm", "bytes"), inc("linalg.laplacian_spmm")
        ) / 1e9,
        "linalg.dense_gemm_s": inc("linalg.dense_gemm") / per_op,
        "linalg.extreme_eigenpairs_s": inc("linalg.extreme_eigenpairs") / per_op,
        "core.parhde_s": inc("core.parhde") / per_op,
        "core.parhde_self_s": selfs.get("core.parhde", 0.0) / per_op,
        "core.deflate_basis_s": inc("core.deflate_basis") / per_op,
        "core.carrier_field_s": inc("core.carrier_field") / per_op,
        "constraints.warm_hit_ratio": service.get("warm_hit_ratio", 0.0),
        "http.frontend_s": inc("http.handler") / per_op,
        "http.handler_self_s": selfs.get("http.handler", 0.0) / per_op,
        "http.transport_s": transport_s / per_op,
        "http.parse_layout_doc_s": inc("http.parse_layout_doc") / per_op,
        "http.layout_payload_s": inc("http.layout_payload") / per_op,
        "http.response_bytes": service.get("response_bytes", 0.0) / per_op,
        "cluster.router_layout_s": router_s / per_op,
        "cluster.send_msg_s": inc("cluster.send_msg") / per_op,
        "cluster.recv_msg_s": inc("cluster.recv_msg") / per_op,
        "cluster.hop_s": max(0.0, router_s - cnt("cluster.router_layout", "engine_s")) / per_op,
        "cluster.coalesced": service.get("coalesced", 0.0) / per_op,
        "service.engine_submit_s": inc("service.engine_submit") / per_op,
        "service.engine_update_s": inc("service.engine_update") / per_op,
        "service.resolve_versioned_s": inc("service.resolve_versioned") / per_op,
        "service.layout_fingerprint_s": inc("service.layout_fingerprint") / per_op,
        "service.cache_get_s": inc("service.cache_get") / per_op,
        "service.cache_put_s": inc("service.cache_put") / per_op,
        "service.cache_hit_ratio": service.get("cache_hit_ratio", 0.0),
        "service.queue_wait_s_p50": service.get("queue_wait_s_p50", 0.0),
        "service.compute_s_p50": service.get("compute_s_p50", 0.0),
        "stream.overlay_apply_s": inc("stream.overlay_apply") / per_op,
        "stream.overlay_to_csr_s": inc("stream.overlay_to_csr") / per_op,
        "wal.append_s": inc("wal.append") / per_op,
        "wal.appends": service.get("wal_appends", 0.0) / per_op,
        "wal.fsyncs": service.get("wal_fsyncs", 0.0) / per_op,
        "trace.unattributed_s": unattributed / per_op,
    }
    for phase in PHASES:
        m[f"parallel.ledger_work.{phase}"] = cnt("core.parhde", f"work.{phase}") / per_op
        m[f"parallel.ledger_bytes.{phase}"] = cnt("core.parhde", f"bytes.{phase}") / per_op
        m[f"parallel.model_over_measured.{phase}"] = _ratio(
            cnt("core.parhde", f"model.{phase}"), measured[phase]
        )
    health = {
        "client_s": client_s,
        "matched_s": matched_s,
        "attributed_s": attributed,
        "attributed_share": _ratio(attributed, client_s),
    }
    return m, health
