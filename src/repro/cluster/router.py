"""The cluster router: shard, coalesce, heartbeat, reshard, drain.

:class:`ClusterRouter` owns a pool of spawned worker processes (each a
shared-nothing :class:`~repro.service.engine.LayoutEngine`, see
:mod:`repro.cluster.worker`) and fronts them with the same serving API
the in-process engine exposes.  A request travels:

1. **Coalesce** — identical in-flight request shapes collapse onto one
   forwarded computation *across the whole cluster*: the router keys
   in-flight requests by their canonical body, so ten clients asking
   for the same cold layout cost one worker computation plus one socket
   round-trip, not ten (the worker's own single-flight only protects a
   single process; this extends the guard cluster-wide).
2. **Route** — the graph's identity key (name, scale, seed) is looked
   up on a consistent-hash ring (:mod:`repro.cluster.ring`), the
   router's only placement rule.  Updates and layouts for one graph
   therefore share a shard, which is what keeps epoch-based fingerprint
   invalidation correct: the worker that bumps an epoch is the worker
   whose cache held the stale entries.  A respawned worker takes its
   keys back, so a graph returns to the worker whose log journaled it.
3. **Retry** — a transport failure (dead worker, torn connection) marks
   the worker down, removes it from the ring and retries the request on
   the new owner — the ring successor — transparently to the client.
   Application errors (400/503/504 from the worker engine) are relayed,
   never retried.

A heartbeat monitor pings every worker each ``heartbeat_interval``
seconds and records the outcome in a
:class:`~repro.resilience.breaker.BreakerRegistry` keyed per worker —
the same circuit-breaker machinery the engine uses per graph.  A worker
whose breaker trips (consecutive missed heartbeats) or whose process
died is declared dead, removed from the ring, and respawned under
capped exponential backoff; the restarted worker rejoins the ring with
a cold cache and — when the cluster runs without a ``wal_dir`` —
pristine graph state (see ``docs/cluster.md`` for why that is
coherent).  With ``wal_dir`` set, each worker replays its own
write-ahead log before reporting ready, so the respawned worker rejoins
at the post-update epochs (``docs/wal.md``).

Graceful drain fans out the per-engine drain: the router refuses new
work, then every worker finishes its in-flight computations.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import socket
import threading
import time
from typing import Iterable

from ..resilience import BreakerRegistry
from ..resilience.breaker import OPEN
from ..service import Telemetry
from ..service.engine import (
    BadRequest,
    Overloaded,
    RequestTimeout,
    ServiceError,
    ValidationFailed,
)
from ..service.fingerprint import canonical_params
from ..service.http import parse_layout_doc, parse_update_doc
from .protocol import ProtocolError, recv_msg, send_msg
from .ring import HashRing, graph_key
from .worker import WorkerConfig, worker_main

__all__ = ["ClusterRouter", "RemoteError", "WorkerUnavailable"]

logger = logging.getLogger("repro.cluster.router")

#: Virtual nodes per worker on the hash ring.
VNODES = 64
#: Seconds to wait for a spawned worker to report ready.
START_TIMEOUT = 60.0

_ERROR_TYPES: dict[str, type[ServiceError]] = {
    "bad_request": BadRequest,
    "overloaded": Overloaded,
    "timeout": RequestTimeout,
    "invalid_layout": ValidationFailed,
}


class WorkerUnavailable(ServiceError):
    """No live worker could take the request (all shards down/unreachable)."""

    code = "unavailable"
    http_status = 503


class RemoteError(ServiceError):
    """A worker-side error relayed verbatim (already sanitized there)."""

    def __init__(self, code: str, message: str, status: int):
        super().__init__(message)
        self.code = code
        self.http_status = int(status)


def _remote_error(reply: dict) -> ServiceError:
    code = str(reply.get("error", "internal"))
    message = str(reply.get("message", "worker error"))
    cls = _ERROR_TYPES.get(code)
    if cls is not None:
        return cls(message)
    return RemoteError(code, message, int(reply.get("status", 500)))


class _Flight:
    """One in-flight forwarded request; followers wait on the leader."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: dict | None = None
        self.error: BaseException | None = None


class _Worker:
    """Router-side handle: process, address, and a connection pool."""

    def __init__(self, worker_id: int, config: WorkerConfig):
        self.id = worker_id
        self.config = config
        self.process: mp.process.BaseProcess | None = None
        self.address: tuple[str, int] | None = None
        self.generation = 0
        self.state = "starting"  # starting | up | dead | stopped
        #: Consecutive failed respawns; drives the monitor's capped
        #: exponential backoff (reset to 0 by a successful restart).
        self.restart_failures = 0
        #: Monotonic time before which the monitor must not retry a
        #: respawn of this worker.
        self.next_restart_at = 0.0
        self._lock = threading.Lock()
        self._idle: list[socket.socket] = []

    @property
    def alive(self) -> bool:
        return (
            self.state == "up"
            and self.process is not None
            and self.process.is_alive()
        )

    # -- connection pool ---------------------------------------------------
    def _connect(self, timeout: float) -> socket.socket:
        if self.address is None:
            raise ConnectionError(f"worker {self.id} has no address")
        conn = socket.create_connection(self.address, timeout=timeout)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _checkout(self) -> socket.socket | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def _checkin(self, conn: socket.socket) -> None:
        with self._lock:
            if self.state == "up" and len(self._idle) < 8:
                self._idle.append(conn)
                return
        _close_quietly(conn)

    def close_idle(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            _close_quietly(conn)

    def request(self, msg: dict, timeout: float) -> dict:
        """One framed round-trip; transport failures raise ConnectionError.

        A pooled socket may be stale (worker restarted between uses), so
        a failure on a pooled connection is retried once on a fresh one
        — if the worker is genuinely dead, the fresh connect fails and
        the caller reshards.
        """
        conn = self._checkout()
        pooled = conn is not None
        if conn is None:
            conn = self._connect(timeout)
        try:
            conn.settimeout(timeout)
            send_msg(conn, msg)
            reply = recv_msg(conn)
        except (OSError, ProtocolError):
            _close_quietly(conn)
            if not pooled:
                raise
            conn = self._connect(timeout)
            try:
                conn.settimeout(timeout)
                send_msg(conn, msg)
                reply = recv_msg(conn)
            except (OSError, ProtocolError):
                _close_quietly(conn)
                raise
        self._checkin(conn)
        return reply


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass


class ClusterRouter:
    """Shard layout serving across worker processes (see module docs).

    Parameters
    ----------
    workers:
        Worker process count (>= 1; ``parhde serve --workers 0`` keeps
        the in-process engine and never builds a router).
    compute_threads / queue_limit / timeout / cache_mb / cache_dir /
    resilience / validation:
        Per-worker engine knobs (each worker gets its own engine; the
        disk cache directory is split into per-worker subdirs so tiers
        stay shared-nothing).
    heartbeat_interval:
        Seconds between monitor heartbeat sweeps.
    breaker_threshold / breaker_reset:
        Consecutive missed heartbeats that trip a worker's breaker (the
        worker is then declared dead and restarted), and the breaker's
        reset window.
    restart:
        Respawn dead workers (the live-resharding loop).  Tests disable
        it to observe the degraded ring.
    restart_backoff / restart_backoff_cap:
        A respawn that *fails* (the replacement process never reports
        ready) is retried with capped exponential backoff —
        ``restart_backoff * 2**(failures - 1)`` seconds, at most
        ``restart_backoff_cap`` — instead of on every monitor tick, so
        a persistently broken worker config cannot hot-loop process
        spawns.  A successful restart resets the backoff.
    wal_dir / wal_fsync:
        Per-worker write-ahead-log root (split into ``worker-<i>/``
        subdirs like ``cache_dir``) and its fsync policy; ``None``
        keeps workers volatile.  See ``docs/wal.md``.
    lod / lod_opts:
        Per-worker progressive-LOD default mode and
        :class:`~repro.lod.LodConfig` knob overrides (dict); forwarded
        into every :class:`~repro.cluster.worker.WorkerConfig` so
        sharded workers serve coarse-first exactly like the in-process
        engine.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        compute_threads: int = 2,
        queue_limit: int = 8,
        timeout: float = 60.0,
        cache_mb: float = 64.0,
        cache_dir: str | None = None,
        resilience: bool = False,
        validation: str | None = None,
        heartbeat_interval: float = 0.5,
        breaker_threshold: int = 3,
        breaker_reset: float = 10.0,
        restart: bool = True,
        restart_backoff: float = 0.5,
        restart_backoff_cap: float = 30.0,
        telemetry: Telemetry | None = None,
        chaos_sites: Iterable[dict] = (),
        lod: str | float | None = None,
        lod_opts: dict | None = None,
        wal_dir: str | None = None,
        wal_fsync: str = "batch",
    ):
        if workers < 1:
            raise ValueError(f"cluster needs >= 1 worker, got {workers}")
        self.timeout = timeout
        self.restart = restart
        self.restart_backoff = max(0.0, float(restart_backoff))
        self.restart_backoff_cap = max(
            self.restart_backoff, float(restart_backoff_cap)
        )
        self.heartbeat_interval = heartbeat_interval
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._breakers = BreakerRegistry(
            breaker_threshold,
            breaker_reset,
            on_transition=self._on_breaker_transition,
        )
        self._ctx = mp.get_context("spawn")
        self._ring = HashRing(VNODES)
        self._lock = threading.Lock()  # guards ring + worker state flips
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._workers: dict[int, _Worker] = {}
        for i in range(workers):
            config = WorkerConfig(
                worker_id=i,
                compute_threads=compute_threads,
                queue_limit=queue_limit,
                timeout=timeout,
                cache_mb=cache_mb,
                cache_dir=(f"{cache_dir}/worker-{i}" if cache_dir else None),
                resilience=resilience,
                validation=validation,
                wal_dir=(f"{wal_dir}/worker-{i}" if wal_dir else None),
                wal_fsync=wal_fsync,
                lod=lod,
                lod_opts=tuple(sorted((lod_opts or {}).items())),
                chaos_sites=tuple(dict(s) for s in chaos_sites),
            )
            self._workers[i] = _Worker(i, config)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ClusterRouter":
        """Spawn every worker, seed the ring, start the heartbeat monitor."""
        pending = []
        for worker in self._workers.values():
            pending.append((worker, self._spawn(worker)))
        for worker, ready in pending:
            self._await_ready(worker, ready)
        if not any(w.state == "up" for w in self._workers.values()):
            raise RuntimeError("no cluster worker came up")
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, worker: _Worker):
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker.config, child),
            name=f"parhde-worker-{worker.id}",
            daemon=True,
        )
        process.start()
        child.close()
        worker.process = process
        return parent

    def _await_ready(self, worker: _Worker, ready) -> None:
        try:
            if not ready.poll(START_TIMEOUT):
                raise TimeoutError(
                    f"worker {worker.id} not ready within {START_TIMEOUT}s"
                )
            kind, value = ready.recv()
        except (EOFError, OSError, TimeoutError) as exc:
            logger.error("worker %d failed to start: %s", worker.id, exc)
            self._kill_process(worker)
            worker.state = "dead"
            return
        finally:
            ready.close()
        if kind != "ready":
            logger.error("worker %d startup error: %s", worker.id, value)
            self._kill_process(worker)
            worker.state = "dead"
            return
        worker.address = (worker.config.host, int(value))
        with self._lock:
            worker.state = "up"
            self._ring.add(worker.id)

    def close(self) -> None:
        """Stop the monitor and shut every worker down (best effort)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        for worker in self._workers.values():
            if worker.alive:
                try:
                    worker.request({"op": "shutdown"}, timeout=2.0)
                except (OSError, ProtocolError):
                    pass
            self._kill_process(worker)
            worker.close_idle()
            worker.state = "stopped"

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _kill_process(worker: _Worker) -> None:
        # Workers ignore SIGTERM (see worker_main), so terminate() only
        # catches a process that is already on its way out; escalate to
        # SIGKILL quickly rather than waiting on a hung worker.
        process = worker.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
            if process.is_alive():
                process.kill()
                process.join(timeout=2)

    # -- health ------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return len(self._ring)

    def healthz(self) -> dict:
        """Probe body — same schema as the in-process ``GET /healthz``."""
        alive = self.alive_workers
        if self._draining:
            status = "draining"
        elif alive == 0:
            status = "down"
        else:
            status = "ok"
        return {"status": status, "workers": alive}

    def _on_breaker_transition(self, key: str, old: str, new: str) -> None:
        self.telemetry.inc(f"router.breaker.to_{new.replace('-', '_')}")
        if new == OPEN:
            self.telemetry.gauge("breakers_open").add(1)
        elif old == OPEN:
            self.telemetry.gauge("breakers_open").add(-1)

    def _note_failure(self, worker: _Worker) -> None:
        """Declare a worker dead: off the ring, breaker fed, monitor woken."""
        with self._lock:
            if worker.state != "up":
                return
            worker.state = "dead"
            self._ring.remove(worker.id)
        self.telemetry.inc("router.worker_deaths")
        self._breakers.record(f"worker:{worker.id}", False)
        worker.close_idle()
        logger.warning("worker %d declared dead; resharding", worker.id)
        self._wake.set()

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.heartbeat_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            for worker in self._workers.values():
                if self._stop.is_set():
                    return
                if worker.state == "up":
                    self._heartbeat(worker)
                if (
                    worker.state == "dead"
                    and self.restart
                    and not self._draining
                    and time.monotonic() >= worker.next_restart_at
                ):
                    self._respawn(worker)

    def _heartbeat(self, worker: _Worker) -> None:
        key = f"worker:{worker.id}"
        if worker.process is not None and not worker.process.is_alive():
            self._note_failure(worker)
            return
        try:
            reply = worker.request(
                {"op": "ping"}, timeout=max(2.0, self.heartbeat_interval * 4)
            )
            ok = bool(reply.get("ok"))
        except (OSError, ProtocolError):
            ok = False
        self._breakers.record(key, ok)
        if not ok and self._breakers.breaker(key).state == OPEN:
            self._note_failure(worker)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker's process and re-add it to the ring."""
        self._kill_process(worker)
        worker.close_idle()
        worker.generation += 1
        logger.info(
            "restarting worker %d (generation %d)", worker.id, worker.generation
        )
        ready = self._spawn(worker)
        self._await_ready(worker, ready)
        if worker.state == "up":
            self.telemetry.inc("router.restarts")
            worker.restart_failures = 0
            worker.next_restart_at = 0.0
            # A fresh process answered ready: clear the heartbeat breaker
            # so the new generation starts with a clean failure budget.
            self._breakers.record(f"worker:{worker.id}", True)
        else:
            self.telemetry.inc("router.restart_failures")
            worker.restart_failures += 1
            delay = min(
                self.restart_backoff_cap,
                self.restart_backoff * (2 ** (worker.restart_failures - 1)),
            )
            worker.next_restart_at = time.monotonic() + delay
            logger.warning(
                "worker %d restart failed (%d consecutive); next attempt"
                " in %.1fs", worker.id, worker.restart_failures, delay,
            )

    # -- request path ------------------------------------------------------
    @staticmethod
    def _route_key(request) -> str:
        """Ring key of a parsed layout or update request's graph."""
        return graph_key(request.graph, request.scale, request.seed)

    @staticmethod
    def _coalesce_key(doc: dict) -> str:
        # Everything that shapes the reply: the layout identity plus
        # include_coords (the worker answers with or without coords, and
        # its own flight table still shares the compute between the
        # two).  timeout is a client-side budget, so it does not split a
        # flight.  "lod" IS identity: an lod=auto request may
        # legitimately be answered at a coarse tier, an lod=off request
        # must not be.
        return canonical_params(
            {
                "graph": doc.get("graph"),
                "scale": doc.get("scale", "small"),
                "seed": doc.get("seed", 0),
                "algorithm": doc.get("algorithm", "parhde"),
                "s": doc.get("s", 10),
                "params": doc.get("params") or {},
                "lod": doc.get("lod"),
                "include_coords": bool(doc.get("include_coords", True)),
            }
        )

    def _check_open(self, counter: str) -> None:
        self.telemetry.inc(counter)
        if self._draining:
            raise Overloaded("cluster is draining; not accepting new requests")
        if self.alive_workers == 0:
            raise WorkerUnavailable("no live workers in the ring")

    def layout(self, doc: dict) -> dict:
        """Serve one ``POST /layout`` body through the cluster."""
        t0 = time.perf_counter()
        self._check_open("router.requests")
        # The engine's own parse, before routing: a malformed body is the
        # same 400 as in-process and never crosses a socket.
        request, _ = parse_layout_doc(doc)
        route_key = self._route_key(request)
        key = self._coalesce_key(doc)

        with self._flights_lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
        assert flight is not None

        if leader:
            try:
                flight.result = self._forward("layout", dict(doc), route_key)
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._flights_lock:
                    self._flights.pop(key, None)
                flight.event.set()
            payload = dict(flight.result)
        else:
            self.telemetry.inc("router.coalesced")
            budget = (request.timeout or self.timeout) + 5.0
            if not flight.event.wait(budget):
                raise RequestTimeout(
                    f"coalesced layout not ready within {budget:.1f}s"
                )
            if flight.error is not None:
                err = flight.error
                raise err if isinstance(err, ServiceError) else ServiceError(
                    f"coalesced layout failed: {err}"
                )
            assert flight.result is not None
            payload = dict(flight.result)
            payload["status"] = "coalesced"
        self.telemetry.observe(
            "router.latency_seconds", time.perf_counter() - t0
        )
        return payload

    def update(self, doc: dict) -> dict:
        """Apply one ``POST /update`` body on the graph's owning shard."""
        self._check_open("router.updates")
        request = parse_update_doc(doc)
        return self._forward("update", dict(doc), self._route_key(request))

    def _forward(self, op: str, body: dict, route_key: str) -> dict:
        """Send to the owning shard; reshard + retry on transport death."""
        attempts = len(self._workers) + 1
        budget = float(body.get("timeout") or self.timeout) + 10.0
        last_exc: BaseException | None = None
        for attempt in range(attempts):
            with self._lock:
                if not len(self._ring):
                    break
                worker = self._workers[self._ring.owner(route_key)]
            try:
                reply = worker.request({"op": op, "body": body}, budget)
            except (OSError, ProtocolError) as exc:
                # Transport failure: the worker is gone (or unreachable,
                # which we treat the same).  Mark it dead — the ring now
                # maps this key to its successor — and retry there.
                last_exc = exc
                self._note_failure(worker)
                self.telemetry.inc("router.retries")
                continue
            if reply.get("ok"):
                reply.pop("ok", None)
                if attempt:
                    reply["resharded"] = True
                return reply
            raise _remote_error(reply)
        raise WorkerUnavailable(
            f"no live worker could serve the request"
            f" (last transport error: {last_exc})"
        )

    # -- aggregation -------------------------------------------------------
    def worker_stats(self) -> dict[str, dict]:
        """Per-worker engine stats (``{"error": ...}`` for dead shards)."""
        out: dict[str, dict] = {}
        for worker in self._workers.values():
            if worker.state != "up":
                out[str(worker.id)] = {"state": worker.state}
                continue
            try:
                reply = worker.request({"op": "stats"}, timeout=10.0)
                snap = reply.get("stats") or {}
                snap["state"] = "up"
                snap["generation"] = worker.generation
                out[str(worker.id)] = snap
            except (OSError, ProtocolError) as exc:
                out[str(worker.id)] = {"state": "unreachable", "error": str(exc)}
        return out

    def stats(self) -> dict:
        """Router telemetry + per-worker snapshots + cluster aggregate."""
        snap = self.telemetry.snapshot()
        snap["breakers"] = self._breakers.snapshot()
        with self._lock:
            ring = {
                "workers": len(self._ring),
                "total": len(self._workers),
                "vnodes": self._ring.vnodes,
            }
        workers = self.worker_stats()
        return {
            "mode": "cluster",
            "router": snap,
            "ring": ring,
            "workers": workers,
            "aggregate": _aggregate(workers, snap),
            "draining": self._draining,
        }

    # -- drain -------------------------------------------------------------
    def drain(self, timeout: float = 10.0) -> bool:
        """Whole-cluster graceful drain: fan out the per-engine drain.

        New requests are refused with 503 from the moment this is
        called; each live worker then finishes its in-flight
        computations.  Returns ``True`` when every worker drained clean
        within ``timeout``.
        """
        self._draining = True
        results: dict[int, bool] = {}

        def _drain_one(worker: _Worker) -> None:
            try:
                reply = worker.request(
                    {"op": "drain", "timeout": timeout}, timeout + 10.0
                )
                results[worker.id] = bool(reply.get("drained"))
            except (OSError, ProtocolError):
                results[worker.id] = False

        threads = [
            threading.Thread(target=_drain_one, args=(w,), daemon=True)
            for w in self._workers.values()
            if w.state == "up"
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout + 15.0)
        return bool(results) and all(results.values())

    # -- test/ops instrumentation -----------------------------------------
    def owner_of(self, name: str, scale: str = "small", seed: int = 0) -> int:
        """Worker id currently owning a named graph (tests, ops tooling)."""
        key = graph_key(name, scale, seed)
        with self._lock:
            return self._ring.owner(key)

    def arm_chaos(self, worker_id: int, site: str, **spec) -> dict:
        """Arm a chaos failpoint inside one worker process."""
        worker = self._workers[worker_id]
        reply = worker.request(
            {"op": "chaos", "spec": {"site": site, **spec}}, timeout=10.0
        )
        if not reply.get("ok"):
            raise RuntimeError(f"chaos arming failed: {reply}")
        return reply


def _aggregate(workers: dict[str, dict], router_snap: dict) -> dict:
    """Cluster-wide rollup: summed counters, cache totals, open breakers."""
    counters: dict[str, float] = {}
    cache: dict[str, float] = {}
    breakers_open = router_snap.get("breakers", {}).get("open", 0)
    for snap in workers.values():
        for name, value in (snap.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                counters[name] = counters.get(name, 0) + value
        for name, value in (snap.get("cache") or {}).items():
            if isinstance(value, (int, float)):
                cache[name] = cache.get(name, 0) + value
        # The engine's breakers_open gauge mirrors breakers["open"], so
        # summing the snapshot counts alone avoids double counting.
        breakers_open += (snap.get("breakers") or {}).get("open", 0)
    return {
        "counters": counters,
        "cache": cache,
        "breakers_open": breakers_open,
        "workers_up": sum(
            1 for snap in workers.values() if snap.get("state") == "up"
        ),
    }
