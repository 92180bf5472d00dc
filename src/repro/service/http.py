"""Stdlib JSON endpoint in front of a :class:`LayoutEngine`.

No framework, no new dependencies: ``http.server.ThreadingHTTPServer``
gives one handler thread per connection, and the engine underneath
provides the real concurrency discipline (worker pool + admission
control).  Routes:

``POST /layout``
    Body ``{"graph": "barth", "scale": "tiny", "algorithm": "parhde",
    "s": 8, "seed": 0, "params": {...}, "lod": "auto",
    "include_coords": true}``.  Only ``graph`` is required.  Answers
    with serving metadata (fingerprint, cache status, quality tier,
    elapsed seconds) and, unless ``include_coords`` is false, the
    ``n x d`` coordinate list.  ``lod`` selects progressive serving,
    which every engine honours: ``"off"``, ``"auto"`` (coarsest-first)
    or a first-paint budget in milliseconds; see docs/lod.md.
``GET /layout``
    Same request via query string (``?graph=barth&scale=tiny&lod=auto``,
    plus ``seed``/``algorithm``/``s``/``timeout``/``include_coords``) —
    the polling form: a client that got a coarse ``quality_tier``
    re-issues the GET until the tier reaches ``"full"``.
``POST /update``
    Body ``{"graph": "barth", "scale": "tiny", "seed": 0,
    "inserts": [[u, v], [u, v, w], ...], "deletes": [[u, v], ...]}``.
    Applies an edge delta to the named graph and bumps its epoch, so
    every cached layout of the pre-update graph misses from then on.
    Answers with the new epoch and the effective edit counts.
``GET /healthz``
    Liveness probe; ``{"status": "ok", "workers": 1}`` while serving,
    ``{"status": "draining", "workers": 1}`` once graceful shutdown
    began (load balancers should stop routing here).  ``workers`` is the
    number of healthy serving processes — always 1 in this in-process
    mode, the live worker count behind a :mod:`repro.cluster` router —
    so probes parse one schema in both modes.
``GET /stats``
    Telemetry + cache + pool snapshot as JSON, or as an aligned
    plain-text page with ``?format=text``.

The same handler serves both modes: :class:`LayoutServer` fronts an
in-process engine through :class:`EngineBackend`, or a
:class:`~repro.cluster.router.ClusterRouter`, which has the same
surface.  Errors come back as ``{"error": <code>, "message": <detail>}``
classified by :func:`error_reply`, the one rule shared with the cluster
worker's socket envelope: a :class:`~repro.service.engine.ServiceError`
subclass answers with its own status (400 bad request, 503 overloaded,
504 timeout); anything else, bare ``ServiceError`` wrappers around
compute crashes included, is a 500 whose body carries only a generated
error id, with the detail logged to ``repro.service.http``.
"""

from __future__ import annotations

import json
import logging
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..lod.progressive import LodConfig
from .engine import (
    BadRequest,
    LayoutEngine,
    LayoutRequest,
    Overloaded,
    ServiceError,
    UpdateRequest,
)

__all__ = [
    "EngineBackend",
    "LayoutServer",
    "error_reply",
    "layout_doc_from_query",
    "layout_payload",
    "make_server",
    "parse_layout_doc",
    "parse_lod_value",
    "parse_update_doc",
    "update_payload",
]

_MAX_BODY = 8 * 1024 * 1024

logger = logging.getLogger("repro.service.http")


def parse_layout_doc(doc: dict) -> tuple[LayoutRequest, bool]:
    """Build a :class:`LayoutRequest` from a ``POST /layout`` body.

    Shared by the HTTP handler and the cluster worker protocol
    (:mod:`repro.cluster.worker`), so both speak exactly the same
    request dialect.  Returns ``(request, include_coords)``.
    """
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise BadRequest("'graph' (collection name) is required")
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise BadRequest("'params' must be an object")
    try:
        request = LayoutRequest(
            graph=graph,
            scale=str(doc.get("scale", "small")),
            seed=int(doc.get("seed", 0)),
            algorithm=str(doc.get("algorithm", "parhde")),
            s=doc.get("s", 10),
            params=params,
            timeout=(
                float(doc["timeout"]) if doc.get("timeout") is not None
                else None
            ),
            lod=parse_lod_value(doc.get("lod")),
        )
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad request field: {exc}") from exc
    _check_seed(request.seed)
    return request, bool(doc.get("include_coords", True))


def _check_seed(seed: int) -> None:
    # A negative seed would only fail inside numpy at compute time, and
    # an update with one would register a graph no layout can reach.
    if seed < 0:
        raise BadRequest(f"'seed' must be a non-negative integer, got {seed}")


def parse_lod_value(value) -> str | float | None:
    """Normalize a request's ``lod`` field by :meth:`LodConfig.parse`.

    ``None`` (engine default) stays ``None``; anything that disables LOD
    becomes ``"off"``, coarsest-first becomes ``"auto"``, and a budget
    is its float in milliseconds.  A value the parser rejects is a 400.
    """
    if value is None:
        return None
    try:
        config = LodConfig.parse(value)
    except ValueError as exc:
        raise BadRequest(f"bad 'lod' field: {exc}") from None
    if config is None:
        return "off"
    return "auto" if config.mode == "auto" else config.budget_ms


def layout_doc_from_query(query: str) -> dict:
    """Translate ``GET /layout`` query params into the POST body dialect.

    Scalar fields only (no nested ``params`` object — pass-through
    algorithm parameters need the POST form); unknown keys are rejected
    so typos fail loudly instead of silently using defaults.
    """
    known = {
        "graph", "scale", "seed", "algorithm", "s", "timeout", "lod",
        "include_coords",
    }
    doc: dict = {}
    for key, values in parse_qs(query, keep_blank_values=True).items():
        if key not in known:
            raise BadRequest(
                f"unknown query parameter {key!r}; allowed: {sorted(known)}"
            )
        doc[key] = values[-1]
    if "include_coords" in doc:
        doc["include_coords"] = doc["include_coords"].lower() not in (
            "0", "false", "no", "",
        )
    for key in ("seed", "s"):
        if key in doc:
            try:
                doc[key] = int(doc[key])
            except ValueError:
                raise BadRequest(
                    f"query parameter {key!r} must be an integer,"
                    f" got {doc[key]!r}"
                ) from None
    return doc


def parse_update_doc(doc: dict) -> UpdateRequest:
    """Build an :class:`UpdateRequest` from a ``POST /update`` body.

    Besides edge edits, the body may carry pin-state edits: ``pins`` is
    a ``{vertex: [x, y]}`` mapping (or ``[vertex, [x, y]]`` pair list)
    and ``unpins`` a list of vertex ids — a drag is just another delta.
    """
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise BadRequest("'graph' (collection name) is required")
    for key in ("inserts", "deletes"):
        if key in doc and not isinstance(doc[key], list):
            raise BadRequest(f"'{key}' must be a list of [u, v] pairs")
    pins = doc.get("pins")
    if pins is not None and not isinstance(pins, (dict, list)):
        raise BadRequest(
            "'pins' must be a {vertex: coords} object or a list of"
            " [vertex, coords] pairs"
        )
    unpins = doc.get("unpins")
    if unpins is not None and not isinstance(unpins, list):
        raise BadRequest("'unpins' must be a list of vertex ids")
    try:
        request = UpdateRequest(
            graph=graph,
            scale=str(doc.get("scale", "small")),
            seed=int(doc.get("seed", 0)),
            inserts=tuple(doc.get("inserts") or ()),
            deletes=tuple(doc.get("deletes") or ()),
            pins=pins if pins is not None else (),
            unpins=tuple(unpins or ()),
        )
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad update field: {exc}") from exc
    _check_seed(request.seed)
    return request


def layout_payload(response, include_coords: bool) -> dict:
    """Body for a served layout (HTTP and cluster protocol).

    ``coords`` is pre-encoded JSON (``bytes``; ``json.loads`` gives the
    list of coordinate rows), encoded once per cache entry: the cluster
    protocol relays it as a raw attachment and the HTTP writer splices
    it into the body as the last key.
    """
    payload = {
        "fingerprint": response.fingerprint,
        "status": response.status,
        "cache_hit": response.cache_hit,
        "graph": response.graph_name,
        "n": response.n,
        "m": response.m,
        "algorithm": response.result.algorithm,
        "quality_tier": response.quality_tier,
        "elapsed_seconds": response.elapsed,
    }
    if include_coords:
        payload["coords"] = response.coords_json()
    return payload


def update_payload(response) -> dict:
    """JSON-safe body for an applied graph update."""
    return {
        "graph": response.graph_name,
        "epoch": response.epoch,
        "n": response.n,
        "m": response.m,
        "inserted": response.inserted,
        "deleted": response.deleted,
        "skipped": response.skipped,
        "overlay_fraction": response.overlay_fraction,
        "compacted": response.compacted,
        "elapsed_seconds": response.elapsed,
        "pinned": response.pinned,
        "unpinned": response.unpinned,
    }


class EngineBackend:
    """The serving surface over one engine: JSON bodies in, payloads out.

    :class:`~repro.cluster.router.ClusterRouter` has the same surface
    (``layout``, ``update``, ``healthz``, ``stats``, ``drain``,
    ``draining``, ``telemetry``), so one HTTP handler serves both modes,
    and the cluster worker answers its ``layout``/``update`` socket ops
    through this adapter.
    """

    def __init__(self, engine: LayoutEngine):
        self.engine = engine

    @property
    def telemetry(self):
        return self.engine.telemetry

    @property
    def draining(self) -> bool:
        return self.engine.draining

    def layout(self, doc: dict) -> dict:
        request, include_coords = parse_layout_doc(doc)
        return layout_payload(self.engine.submit(request), include_coords)

    def update(self, doc: dict) -> dict:
        return update_payload(self.engine.update(parse_update_doc(doc)))

    def healthz(self) -> dict:
        # "workers" counts healthy serving processes: always 1 here, the
        # live worker count behind a router, so probes parse one schema.
        return {"status": "draining" if self.draining else "ok", "workers": 1}

    def stats(self) -> dict:
        return self.engine.stats()

    def drain(self, timeout: float = 10.0) -> bool:
        return self.engine.drain(timeout)


def error_reply(exc: Exception, telemetry, context: str) -> tuple[int, dict]:
    """Classify a failed request: ``(status, {"error", "message", ...})``.

    The one rule for the HTTP handler (both serving modes) and the
    cluster worker's socket envelope.  A :class:`ServiceError` subclass
    answers with its own status, code and message.  Anything else is the
    server's fault, a bare ``ServiceError`` included (the engine's
    wrapper around a compute crash): a 500 whose body carries only an
    opaque error id, because exception text can leak file paths or
    request internals.  The detail goes to this module's logger under
    that id, and the ``http.internal_errors`` counter counts it.
    """
    if isinstance(exc, ServiceError) and type(exc) is not ServiceError:
        return exc.http_status, {"error": exc.code, "message": str(exc)}
    error_id = uuid.uuid4().hex[:12]
    logger.error(
        "internal error %s %s: %s", error_id, context, exc, exc_info=exc
    )
    telemetry.inc("http.internal_errors")
    return 500, {
        "error": "internal",
        "message": f"internal server error (id {error_id})",
        "error_id": error_id,
    }


def _json_body(payload: dict) -> bytes:
    """``payload`` as a JSON body; its ``bytes`` values are pre-encoded
    JSON, spliced in verbatim as the last keys."""
    fragments = {k: v for k, v in payload.items() if isinstance(v, bytes)}
    head = json.dumps(
        {k: v for k, v in payload.items() if k not in fragments}
    ).encode()
    if not fragments:
        return head
    parts = [head[:-1]]
    sep = b"" if head == b"{}" else b", "
    for key, value in fragments.items():
        parts += [sep, json.dumps(key).encode(), b": ", value]
        sep = b", "
    parts.append(b"}")
    return b"".join(parts)


def _text_sections(stats: dict) -> dict:
    """Sections the plain-text ``/stats`` page prints after telemetry."""
    if "aggregate" in stats:  # a cluster router's snapshot
        return {
            "ring": stats["ring"],
            "aggregate counters": stats["aggregate"]["counters"],
            "aggregate cache": stats["aggregate"]["cache"],
        }
    return {"cache": stats["cache"], "pool": stats["pool"]}


class _Handler(BaseHTTPRequestHandler):
    server_version = "parhde-serve/1"
    protocol_version = "HTTP/1.1"
    # The headers and the body go out in two writes; with Nagle on, the
    # second waits for the client's delayed ACK of the first (~40 ms).
    disable_nagle_algorithm = True

    @property
    def backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, payload, *, text: bool = False) -> None:
        body = payload.encode() if text else _json_body(payload)
        self.send_response(status)
        self.send_header(
            "Content-Type",
            "text/plain; charset=utf-8" if text else "application/json",
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _answer(self, compute, *, serving: bool = False) -> None:
        """Send ``compute()``'s payload, or its failure as classified by
        :func:`error_reply`.  ``serving`` routes refuse work while the
        backend drains; this is the only draining check on the way in
        (``LayoutEngine.update`` has none of its own)."""
        try:
            if serving and self.backend.draining:
                raise Overloaded(
                    "server is draining; retry against another instance"
                )
            payload = compute()
        except Exception as exc:  # noqa: BLE001 — classified, never leaked
            context = f"handling {self.command} {self.path}"
            self._send(*error_reply(exc, self.backend.telemetry, context))
            return
        self._send(200, payload, text=isinstance(payload, str))

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        url = urlparse(self.path)
        if url.path == "/healthz":
            health = self.backend.healthz()
            self._send(200 if health["status"] == "ok" else 503, health)
        elif url.path == "/stats":
            self._answer(lambda: self._stats(url.query))
        elif url.path == "/layout":
            self._answer(
                lambda: self.backend.layout(layout_doc_from_query(url.query)),
                serving=True,
            )
        else:
            self._not_found(url.path)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        url = urlparse(self.path)
        op = {"/layout": "layout", "/update": "update"}.get(url.path)
        if op is None:
            self._not_found(url.path)
            return
        self._answer(
            lambda: getattr(self.backend, op)(self._read_body()), serving=True
        )

    def _not_found(self, path: str) -> None:
        self._send(404, {"error": "not_found", "message": f"no route {path}"})

    def _stats(self, query: str) -> dict | str:
        stats = self.backend.stats()
        if parse_qs(query).get("format", ["json"])[0] != "text":
            return stats
        text = self.backend.telemetry.render_text(_text_sections(stats))
        return text + "\n"

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise BadRequest("Content-Length must be an integer") from None
        if length <= 0:
            raise BadRequest("missing request body")
        if length > _MAX_BODY:
            raise BadRequest(f"request body exceeds {_MAX_BODY} bytes")
        try:
            doc = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise BadRequest("request body must be a JSON object")
        return doc


class LayoutServer:
    """A :class:`ThreadingHTTPServer` in front of either serving mode.

    ``engine`` is a :class:`LayoutEngine`, served in-process through
    :class:`EngineBackend`, or a started
    :class:`~repro.cluster.router.ClusterRouter`, served as is.  Both
    speak the same wire contract through the same handler.

    ``start()`` runs the accept loop in a daemon thread (tests, smoke
    scripts); ``serve_forever()`` blocks (the CLI).  Construct with
    ``port=0`` to bind an ephemeral port and read it back from
    :attr:`address`.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        verbose: bool = False,
    ):
        self.engine = engine
        # An engine answers submit(); a router already has the surface.
        self.backend = (
            EngineBackend(engine) if hasattr(engine, "submit") else engine
        )
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.backend = self.backend  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """Actual ``(host, port)`` after binding."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "LayoutServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="parhde-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    @property
    def draining(self) -> bool:
        return self.backend.draining

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown, phase one: refuse new work, finish old.

        From this call on, ``POST /layout``, ``GET /layout`` and
        ``POST /update`` get an immediate 503 and ``/healthz`` flips to
        ``draining`` (connections keep being accepted so those answers
        can be sent); the backend then waits up to ``timeout`` seconds
        for in-flight computations (a router fans the drain out to every
        worker).  Returns ``True`` when everything drained clean.  Call
        :meth:`shutdown` afterwards to stop the accept loop.
        """
        return self.backend.drain(timeout)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "LayoutServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def make_server(
    engine,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
) -> LayoutServer:
    """Bind (but do not start) a :class:`LayoutServer` for an engine or a
    cluster router (``repro.cluster.make_cluster_server`` is this)."""
    return LayoutServer(engine, host, port, verbose=verbose)
