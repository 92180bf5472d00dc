"""The layout-serving engine: cache, single-flight dedup, admission control.

:class:`LayoutEngine` is the synchronous core the HTTP endpoint, the
CLI and the throughput benchmark all share.  A request travels through
three gates:

1. **Cache** — the request fingerprint is looked up in the two-tier
   :class:`~repro.service.cache.LayoutCache`; a hit returns immediately.
2. **Single-flight** — concurrent requests for the same fingerprint
   coalesce onto one computation; followers block on the leader's
   completion event instead of recomputing (the classic thundering-herd
   guard).
3. **Admission control** — leader computations run on a bounded
   :class:`~repro.parallel.pool.TaskPool`; when the backlog limit is
   reached the request fails fast with :class:`Overloaded`, and a
   request that waits longer than its deadline fails with
   :class:`RequestTimeout` (the computation itself keeps running and
   still populates the cache for the retry).

Every stage is accounted in a :class:`~repro.service.telemetry.Telemetry`
registry: request/hit/miss/coalesce/reject counters plus queue-wait,
compute-time and end-to-end latency histograms.
"""

from __future__ import annotations

import logging
import numbers
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from .. import datasets
from ..core import parhde, phde, pivotmds
from ..core.constraints import ConstraintSpec
from ..core.kernels import KERNEL_FIELDS, KernelConfig
from ..core.result import LayoutResult
from ..graph.csr import CSRGraph
from ..graph.io import load_npz, save_npz
from ..lod.progressive import LodConfig, LodServing
from ..parallel.pool import PoolSaturated, TaskPool
from ..resilience import BreakerRegistry, Deadline, RetryPolicy
from ..resilience.breaker import OPEN
from ..resilience.ladder import baseline_layout, is_lod_tier, resilient_layout
from ..stream.delta import EdgeDelta, edge_delta
from ..stream.overlay import DynamicGraph
from ..wal import WriteAheadLog
from ..validate import (
    InvariantViolation,
    ValidationPolicy,
    check_cache_consistency,
)
from .cache import LayoutCache
from .fingerprint import canonical_params, graph_digest, layout_fingerprint
from .telemetry import Telemetry

logger = logging.getLogger("repro.service.engine")

__all__ = [
    "BadRequest",
    "LayoutEngine",
    "LayoutRequest",
    "LayoutResponse",
    "Overloaded",
    "RequestTimeout",
    "ResilienceConfig",
    "ServiceError",
    "UpdateRequest",
    "UpdateResponse",
    "ValidationFailed",
    "DEFAULT_ALGORITHMS",
]


class ServiceError(Exception):
    """Base class for structured serving errors."""

    #: Stable machine-readable error code (also the HTTP error `type`).
    code = "internal"
    #: HTTP status the endpoint maps this error to.
    http_status = 500


class BadRequest(ServiceError):
    """Malformed or unsatisfiable request (unknown graph, bad params)."""

    code = "bad_request"
    http_status = 400


class Overloaded(ServiceError):
    """Admission control rejected the request; retry with backoff."""

    code = "overloaded"
    http_status = 503


class RequestTimeout(ServiceError):
    """The request's deadline expired while waiting for the layout."""

    code = "timeout"
    http_status = 504


class ValidationFailed(ServiceError):
    """A layout (computed or cached) failed an invariant check.

    Raised only when the engine runs with a ``strict`` validation
    policy; a failed check means the response would have been wrong, so
    failing loudly beats serving it.
    """

    code = "invalid_layout"
    http_status = 500


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the engine's degradation/retry/breaker machinery.

    Passing a config (or ``resilience=True``) to :class:`LayoutEngine`
    turns the compute path into the degradation ladder
    (:func:`repro.resilience.resilient_layout`): computations run under
    a deadline derived from the request timeout, transient failures are
    retried, and a failing or stalled pipeline falls back to cheaper
    rungs instead of erroring — the response is then tagged with a
    ``quality_tier`` below ``"full"``.  Only untainted full-tier results
    are cached.

    Attributes
    ----------
    deadline_fraction:
        Share of the request's remaining time given to the compute
        ladder; the rest is slack for queue hand-off and serialization.
    retry:
        Override for the ladder's transient-retry policy.
    breaker_threshold / breaker_reset:
        Consecutive non-full outcomes per (graph, algorithm) key that
        trip its circuit breaker, and seconds before a half-open probe.
    degrade_on_open:
        When a breaker is open, serve an inline baseline layout tagged
        ``quality_tier="baseline"`` (default) instead of failing fast
        with :class:`Overloaded`.
    """

    deadline_fraction: float = 0.8
    retry: RetryPolicy | None = None
    breaker_threshold: int = 3
    breaker_reset: float = 30.0
    degrade_on_open: bool = True

    @classmethod
    def coerce(
        cls, value: "ResilienceConfig | bool | None"
    ) -> "ResilienceConfig | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        return value


#: Algorithm registry served by default, and the CLI's solver table.
#: Every entry takes the solver contract documented on
#: :class:`LayoutEngine`'s ``algorithms``.
DEFAULT_ALGORITHMS: dict[str, Callable[..., LayoutResult]] = {
    "parhde": parhde,
    "phde": phde,
    "pivotmds": pivotmds,
}

#: Keyword parameters a request may pass through to the algorithm.
_ALLOWED_PARAMS = frozenset({"dims", "kernels", "constraints"})


@dataclass(frozen=True)
class LayoutRequest:
    """One layout request, as the HTTP body / CLI flags describe it.

    Attributes
    ----------
    graph:
        Collection name (served by name, e.g. ``"barth"``) or an
        in-memory :class:`CSRGraph` for library callers.
    scale / seed:
        Collection generator knobs (ignored for in-memory graphs;
        ``seed`` still feeds the algorithm).
    algorithm:
        Key into the engine's algorithm registry.
    s:
        Subspace dimension (pivot count).
    params:
        Optional algorithm pass-through parameters (whitelisted).
    timeout:
        Per-request deadline override in seconds (``None`` = engine
        default).
    lod:
        Progressive level-of-detail mode (:mod:`repro.lod`): ``None``
        (engine default), ``"off"``, ``"auto"``, or a first-paint budget
        in milliseconds.  Honoured by every :class:`LayoutEngine`.
    """

    graph: str | CSRGraph
    scale: str = "small"
    seed: int = 0
    algorithm: str = "parhde"
    s: int = 10
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout: float | None = None
    lod: str | float | None = None


@dataclass(frozen=True)
class UpdateRequest:
    """One graph-update request (the ``POST /update`` body).

    ``inserts`` rows are ``[u, v]`` or ``[u, v, w]``; ``deletes`` rows
    are ``[u, v]``.  Updates address *named* graphs only — the engine
    owns their lifecycle; in-memory graphs belong to the caller.

    ``pins`` (``{vertex: [x, y]}`` or ``[vertex, [x, y]]`` pairs) and
    ``unpins`` (vertex ids) edit the graph's server-side pin state: a
    drag is *just another delta*.  Pinning moves every subsequent layout
    fingerprint through the request parameters (state pins merge into
    each layout's constraints), so pin edits bump neither the epoch nor
    the content version — re-pinning an identical position still hits
    the cache, and warm bases survive.
    """

    graph: str
    scale: str = "small"
    seed: int = 0
    inserts: tuple = ()
    deletes: tuple = ()
    pins: Any = ()
    unpins: tuple = ()


@dataclass
class UpdateResponse:
    """Engine answer to a graph update."""

    graph_name: str
    epoch: int  # post-update epoch; fingerprints now use this
    n: int
    m: int
    inserted: int
    deleted: int
    skipped: int  # no-op edits (insert existing / delete missing)
    overlay_fraction: float
    compacted: bool
    elapsed: float
    pinned: int = 0  # pin-state edits applied by this update
    unpinned: int = 0


@dataclass
class LayoutResponse:
    """Engine answer: the layout plus serving metadata."""

    fingerprint: str
    status: str  # "memory-hit" | "disk-hit" | "computed" | "coalesced" | "degraded"
    result: LayoutResult
    graph_name: str
    n: int
    m: int
    elapsed: float  # end-to-end seconds inside the engine
    #: The engine's cache, which keeps :meth:`coords_json` per entry.
    cache: LayoutCache = field(repr=False)

    def coords_json(self) -> bytes:
        """``result.coords`` as a JSON array, encoded once per cache entry
        (see :meth:`LayoutCache.coords_json`)."""
        return self.cache.coords_json(self.fingerprint, self.result.coords)

    @property
    def cache_hit(self) -> bool:
        return self.status.endswith("-hit")

    @property
    def quality_tier(self) -> str:
        """Degradation tier of the served layout (``"full"`` normally)."""
        return self.result.quality_tier


class _Flight:
    """In-flight computation shared by the leader and its followers."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: LayoutResult | None = None
        self.error: BaseException | None = None


class _GraphState:
    """A named graph the engine serves, now mutable via ``/update``.

    ``digest`` is the *lineage* digest — the content digest of the graph
    as first registered.  Post-update identity is ``(digest, epoch)``:
    the epoch counts applied update batches, so every update moves all
    fingerprints derived from this graph, which is exactly the cache
    staleness guarantee (a pre-update layout can never be served for the
    post-update graph).  Rehashing the full CSR on every small delta
    would defeat the point of the overlay.

    ``content`` counts *content changes* only (update batches), while
    ``epoch`` additionally bumps on every published LOD refinement
    (:meth:`LayoutEngine.publish_layout`) — the epoch is the cache
    namespace, the content counter is the graph identity progressive
    refinement chains check before publishing against.
    """

    __slots__ = ("dyn", "digest", "epoch", "content", "pins", "lock", "wal_lsn")

    def __init__(self, g: CSRGraph, digest: str | None = None):
        self.dyn = DynamicGraph(g)
        self.digest = digest or graph_digest(g)
        self.epoch = 0
        self.content = 0
        #: Server-side pin state ({vertex: coords}), edited via /update
        #: pins/unpins and merged into every layout's constraints.  Pin
        #: edits move fingerprints through the request params, so they
        #: bump neither ``epoch`` nor ``content``.
        self.pins: dict[int, tuple[float, ...]] = {}
        self.lock = threading.Lock()
        #: LSN of the last WAL record reflected in this state (0: none
        #: journaled).  A WAL snapshot stores it per graph; replay skips
        #: records at or below it, since a graph captured after the
        #: snapshot's floor was read may already reflect a few more.
        self.wal_lsn = 0


class LayoutEngine:
    """Serve layout requests with caching, dedup and admission control.

    Parameters
    ----------
    cache:
        Two-tier cache (default: in-memory only, 256 MB).
    workers:
        Concurrent layout computations.
    queue_limit:
        Computations allowed to wait for a worker before requests are
        rejected with :class:`Overloaded`.
    timeout:
        Default per-request deadline in seconds.
    graph_loader:
        ``(name, scale, seed) -> CSRGraph`` resolver for by-name
        requests (default: :func:`repro.datasets.load`).  Loaded graphs
        and their digests are cached per engine.
    algorithms:
        Algorithm registry override (default :data:`DEFAULT_ALGORITHMS`;
        tests inject slow/counting stubs).  Every entry takes the solver
        contract ``algo(g, s, *, dims, seed, kernels, constraints,
        ledger, validate, deadline)`` that ``parhde``, ``phde`` and
        ``pivotmds`` share; the engine passes ``validate`` whenever its
        policy is enabled and the degradation ladder always passes
        ``deadline``.  An optional ``honoured_kernels`` attribute names
        the :class:`KernelConfig` fields it honours (all by default;
        ``functools.wraps`` carries it).  An algorithm that returns
        ``result.warm`` must also take it back as ``warm_base=``.
    telemetry:
        Metrics registry (default: a fresh one).
    resilience:
        ``None``/``False`` (default) keeps the classic fail-fast compute
        path.  A :class:`ResilienceConfig` (or ``True``) routes
        computations through the degradation ladder with per-request
        deadlines, retries and per-(graph, algorithm) circuit breakers;
        see :class:`ResilienceConfig`.
    validation:
        Invariant-checking policy (:mod:`repro.validate`): ``None`` /
        ``"off"`` (default), ``"warn"``, ``"strict"`` or a configured
        :class:`~repro.validate.ValidationPolicy`.  When enabled, the
        policy is passed to every algorithm as ``validate=``, and cache
        hits are cross-checked against the request before being served;
        strict violations surface as :class:`ValidationFailed`.
    wal_dir:
        Directory for a :class:`repro.wal.WriteAheadLog`.  When set,
        update deltas, pin edits and epoch publishes are journaled *before* they are acknowledged, and the
        constructor replays the log to bitwise-identical
        ``(digest, epoch, pins)`` state — a SIGKILLed process restarted
        on the same directory resumes serving the post-update epochs
        instead of pristine epoch 0.  ``None`` (default) keeps the
        volatile behavior.  See ``docs/wal.md``.
    wal_fsync:
        Durability policy: ``"always"`` / ``"batch"`` (default) /
        ``"off"`` — see :class:`repro.wal.WriteAheadLog`.
    wal_snapshot_every:
        Journal appends between automatic snapshot + compaction passes
        (bounds replay cost).
    lod:
        Default progressive level-of-detail mode (:mod:`repro.lod`) for
        requests that do not set ``lod`` themselves: ``None``/``"off"``
        (default; opt-in per request), ``"auto"``, or a first-paint
        budget in milliseconds.  A bad value raises ``ValueError`` here.
    lod_config:
        :class:`~repro.lod.LodConfig` knob overrides (``min_vertices``,
        hierarchy sizes, refinement sweeps, distortion bound); the
        mode/budget fields come from each request.
    """

    def __init__(
        self,
        *,
        cache: LayoutCache | None = None,
        workers: int = 2,
        queue_limit: int = 8,
        timeout: float = 60.0,
        graph_loader: Callable[[str, str, int], CSRGraph] | None = None,
        algorithms: Mapping[str, Callable[..., LayoutResult]] | None = None,
        telemetry: Telemetry | None = None,
        validation: ValidationPolicy | str | None = None,
        resilience: "ResilienceConfig | bool | None" = None,
        wal_dir: str | None = None,
        wal_fsync: str = "batch",
        wal_snapshot_every: int = 256,
        lod: "LodConfig | str | float | None" = None,
        lod_config: LodConfig | None = None,
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.cache = cache if cache is not None else LayoutCache()
        self.timeout = timeout
        self.validation = ValidationPolicy.coerce(validation)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.resilience = ResilienceConfig.coerce(resilience)
        self._draining = False
        self._breakers: BreakerRegistry | None = None
        if self.resilience is not None:
            self._breakers = BreakerRegistry(
                self.resilience.breaker_threshold,
                self.resilience.breaker_reset,
                on_transition=self._on_breaker_transition,
            )
        self._algorithms = dict(
            algorithms if algorithms is not None else DEFAULT_ALGORITHMS
        )
        self._graph_loader = graph_loader or (
            lambda name, scale, seed: datasets.load(name, scale=scale, seed=seed)
        )
        self._pool = TaskPool(workers, queue_limit=queue_limit)
        self._lod = LodServing(
            lod,
            lod_config,
            telemetry=self.telemetry,
            validation=self.validation,
            pool=self._pool,
        )
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._graphs: dict[tuple[str, str, int], _GraphState] = {}
        self._graphs_lock = threading.Lock()
        # Warm bases for constrained relayouts: a cold constrained layout
        # deposits its pre-deflation basis here; a pin/drag re-request on
        # the same (graph content, algorithm, non-constraint params, mass
        # facet) skips BFS + D-orthogonalization entirely.  Keyed outside
        # the fingerprint — the warm base changes the cost, never the
        # result.
        self._warm_store: OrderedDict[str, dict] = OrderedDict()
        self._warm_lock = threading.Lock()
        self._warm_capacity = 16
        self._wal: WriteAheadLog | None = None
        self._wal_replaying = False
        self._wal_replay_lsn = 0
        self._wal_snapshot_every = max(1, int(wal_snapshot_every))
        self._wal_snap_lock = threading.Lock()
        self._wal_checkpoint_warned = False
        if wal_dir is not None:
            self._wal = WriteAheadLog(
                wal_dir, fsync=wal_fsync, telemetry=self.telemetry
            )
            self._replay_wal()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._lod.close()
        self._pool.close()
        if self._wal is not None:
            self._wal.close()

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting requests and wait for in-flight work to finish.

        New :meth:`submit` calls fail with :class:`Overloaded` from the
        moment this is called (the HTTP layer maps that to 503).
        Returns ``True`` when every in-flight computation completed
        within ``timeout`` seconds; ``False`` means work was abandoned
        (the pool's daemon threads die with the process).
        """
        self._draining = True
        end = time.monotonic() + max(0.0, timeout)
        while self.inflight and time.monotonic() < end:
            time.sleep(0.02)
        return self.inflight == 0

    def __enter__(self) -> "LayoutEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._pool.queue_depth

    @property
    def inflight(self) -> int:
        with self._flights_lock:
            return len(self._flights)

    def stats(self) -> dict:
        """Combined telemetry + cache + pool snapshot (``GET /stats``)."""
        snap = self.telemetry.snapshot()
        snap["cache"] = self.cache.stats()
        snap["pool"] = {
            "workers": self._pool.workers,
            "queue_limit": self._pool.queue_limit,
            "outstanding": self._pool.outstanding,
            "queue_depth": self._pool.queue_depth,
        }
        snap["inflight"] = self.inflight
        snap["draining"] = self._draining
        if self._breakers is not None:
            snap["breakers"] = self._breakers.snapshot()
        if self._wal is not None:
            snap["wal"] = self._wal.stats()
        snap["lod"] = self._lod.stats()
        return snap

    # -- resilience plumbing -----------------------------------------------
    def _on_breaker_transition(self, key: str, old: str, new: str) -> None:
        # Fired under the breaker lock: telemetry only, no re-entry.
        self.telemetry.inc(f"breaker.to_{new.replace('-', '_')}")
        if new == OPEN:
            self.telemetry.gauge("breakers_open").add(1)
        elif old == OPEN:
            self.telemetry.gauge("breakers_open").add(-1)

    # -- request path ------------------------------------------------------
    def submit(self, request: LayoutRequest) -> LayoutResponse:
        """Serve one request synchronously (the HTTP handler's thread blocks
        here; concurrency comes from the handler threads + worker pool)."""
        t0 = time.perf_counter()
        self.telemetry.inc("requests")
        try:
            if self._draining:
                raise Overloaded(
                    "engine is draining; not accepting new requests"
                )
            response = self._serve(request, t0)
        except ServiceError as exc:
            self.telemetry.inc(f"errors.{exc.code}")
            raise
        self.telemetry.observe("latency_seconds", time.perf_counter() - t0)
        self.telemetry.inc(f"responses.{response.status}")
        return response

    # -- graph updates -----------------------------------------------------
    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply an edge delta to a named graph and bump its epoch.

        No-op edits (inserting an existing edge, deleting a missing one)
        are skipped and counted rather than rejected — streams replayed
        with retries must be idempotent.  The epoch bumps even for an
        all-no-op batch, which costs one redundant cache namespace but
        never risks serving a stale layout.
        """
        t0 = time.perf_counter()
        if not self._wal_replaying:
            self.telemetry.inc("updates")
        if isinstance(request.graph, CSRGraph):
            raise BadRequest(
                "updates address named graphs only; in-memory graphs are"
                " owned by the caller"
            )
        try:
            pin_spec = ConstraintSpec(pins=request.pins or ())
            unpins = [int(v) for v in request.unpins or ()]
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad pin edit: {exc}") from exc
        try:
            delta = edge_delta(
                inserts=request.inserts or (), deletes=request.deletes or ()
            )
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad delta: {exc}") from exc
        has_pin_edits = bool(pin_spec.pins) or bool(unpins)
        if not len(delta) and not has_pin_edits:
            raise BadRequest("delta has no operations")
        state = self._graph_state(request.graph, request.scale, request.seed)
        with state.lock:
            for v, _pos in pin_spec.pins:
                if v >= state.dyn.n:
                    raise BadRequest(
                        f"pin vertex {v} out of range for n={state.dyn.n}"
                    )
            if len(delta):
                # Pre-validate everything apply() would reject so the
                # journal-before-apply write below can never record an
                # update that then fails: strict=False apply only raises
                # for these two structural errors.
                hi = delta.max_endpoint()
                if hi >= state.dyn.n:
                    raise BadRequest(
                        f"delta references vertex {hi} but the graph has"
                        f" {state.dyn.n} vertices (the vertex set is fixed)"
                    )
                if delta.is_weighted and not state.dyn.is_weighted:
                    raise BadRequest(
                        "weighted inserts require an edge-weighted base graph"
                    )
            # Journal before mutating anything: an update the WAL did
            # not durably record must not be acknowledged (a crash after
            # the ack would silently roll it back on replay).
            self._journal_update(state, request, delta, pin_spec, unpins)
            pinned = unpinned = 0
            for v, pos in pin_spec.pins:
                if state.pins.get(v) != pos:
                    pinned += 1
                state.pins[v] = pos
            for v in unpins:
                if state.pins.pop(v, None) is not None:
                    unpinned += 1
            if (pinned or unpinned) and not self._wal_replaying:
                self.telemetry.inc("constraints.pin_edits", pinned + unpinned)
            if not len(delta):
                # Pin-only batch: fingerprints move through the merged
                # constraint params, so the epoch stays put and cached
                # layouts for other pin states remain valid.
                return UpdateResponse(
                    graph_name=request.graph,
                    epoch=state.epoch,
                    n=state.dyn.n,
                    m=state.dyn.m,
                    inserted=0,
                    deleted=0,
                    skipped=0,
                    overlay_fraction=state.dyn.overlay_fraction,
                    compacted=False,
                    elapsed=time.perf_counter() - t0,
                    pinned=pinned,
                    unpinned=unpinned,
                )
            applied = state.dyn.apply(delta, strict=False)
            state.epoch += 1
            state.content += 1
            compacted = state.dyn.maybe_compact()
            response = UpdateResponse(
                graph_name=request.graph,
                epoch=state.epoch,
                n=state.dyn.n,
                m=state.dyn.m,
                inserted=len(applied.inserted),
                deleted=len(applied.deleted),
                skipped=applied.skipped,
                overlay_fraction=state.dyn.overlay_fraction,
                compacted=compacted,
                elapsed=time.perf_counter() - t0,
                pinned=pinned,
                unpinned=unpinned,
            )
        self._maybe_wal_snapshot()
        return response

    # -- write-ahead log ---------------------------------------------------
    def _journal_update(
        self,
        state: _GraphState,
        request: UpdateRequest,
        delta: EdgeDelta,
        pin_spec: ConstraintSpec,
        unpins: list[int],
    ) -> None:
        """Journal one validated update batch (called under ``state.lock``).

        During replay the batch *came from* the log; instead of
        re-appending, the state adopts the replaying record's LSN so the
        idempotency skip and future snapshots stay exact.
        """
        if self._wal is None:
            return
        if self._wal_replaying:
            state.wal_lsn = self._wal_replay_lsn
            return
        record: dict[str, Any] = {
            "type": "update" if len(delta) else "pins",
            "graph": request.graph,
            "scale": request.scale,
            "seed": int(request.seed),
        }
        if len(delta):
            record["delta"] = delta.to_json()
        if pin_spec.pins:
            record["pins"] = [
                [int(v), [float(c) for c in pos]] for v, pos in pin_spec.pins
            ]
        if unpins:
            record["unpins"] = [int(v) for v in unpins]
        try:
            state.wal_lsn = self._wal.append(record)
        except OSError as exc:
            # Journal-before-apply: nothing was mutated, so failing the
            # request keeps memory and log agreeing (an acked-but-
            # unjournaled update would silently roll back on replay).
            raise ServiceError(
                f"write-ahead log append failed: {exc}"
            ) from exc

    def _replay_wal(self) -> None:
        """Rebuild every graph's ``(digest, epoch, pins)`` from the WAL."""
        assert self._wal is not None
        replay = self._wal.replay()
        self._wal_replaying = True
        try:
            snap = replay.snapshot or {}
            for entry in (snap.get("graphs") or {}).values():
                try:
                    self._restore_graph(entry, replay.files)
                except Exception as exc:  # noqa: BLE001 — keep serving
                    logger.warning(
                        "WAL snapshot entry for %r unusable (%s); the graph"
                        " restarts pristine", entry.get("graph"), exc,
                    )
            for record in replay.records:
                try:
                    self._replay_record(record)
                except Exception as exc:  # noqa: BLE001 — keep serving
                    logger.warning(
                        "WAL record %s unusable (%s); skipped",
                        record.get("lsn"), exc,
                    )
        finally:
            self._wal_replaying = False

    def _restore_graph(
        self, entry: Mapping[str, Any], files: Mapping[str, Any]
    ) -> None:
        name = entry["graph"]
        scale = entry["scale"]
        seed = int(entry["seed"])
        if entry.get("archive"):
            # An edited graph: its archived CSR, under its lineage digest.
            state = _GraphState(
                load_npz(files[entry["archive"]]), entry["digest"]
            )
        else:
            state = _GraphState(self._graph_loader(name, scale, seed))
        if entry.get("inserts") or entry.get("deletes"):
            # A version-1 entry: the edge diff against the base.
            state.dyn.apply(
                edge_delta(
                    inserts=entry.get("inserts") or (),
                    deletes=entry.get("deletes") or (),
                ),
                strict=False,
            )
            state.dyn.maybe_compact()
        state.epoch = int(entry["epoch"])
        state.content = int(entry["content"])
        state.pins = {
            int(v): tuple(float(c) for c in pos)
            for v, pos in entry.get("pins") or []
        }
        state.wal_lsn = int(entry.get("lsn", 0))
        with self._graphs_lock:
            self._graphs[(name, scale, seed)] = state

    def _replay_record(self, record: Mapping[str, Any]) -> None:
        rtype = record.get("type")
        lsn = int(record.get("lsn", 0))
        if rtype == "register":
            return  # older logs only; a graph now loads on first use
        key = (record["graph"], record["scale"], int(record["seed"]))
        if rtype in ("update", "pins"):
            state = self._graph_state(*key)
            if lsn <= state.wal_lsn:
                return  # already reflected in the snapshot
            self._wal_replay_lsn = lsn
            delta_doc = record.get("delta") or {}
            self.update(
                UpdateRequest(
                    graph=key[0],
                    scale=key[1],
                    seed=key[2],
                    inserts=tuple(delta_doc.get("inserts") or ()),
                    deletes=tuple(delta_doc.get("deletes") or ()),
                    pins=record.get("pins") or (),
                    unpins=tuple(record.get("unpins") or ()),
                )
            )
        elif rtype == "publish":
            state = self._graph_state(*key)
            if lsn <= state.wal_lsn:
                return
            with state.lock:
                # The refined layout itself lived in the cache (and may
                # well have survived on the disk tier); the journal only
                # guarantees the epoch sequence so fingerprints line up.
                state.epoch += 1
                state.wal_lsn = lsn
        else:
            logger.warning("unknown WAL record type %r (lsn %d)", rtype, lsn)

    def wal_snapshot(self) -> bool:
        """Checkpoint every journaled graph into the WAL and compact.

        One entry per graph with journaled state; a graph whose content
        changed also archives its current CSR beside the snapshot.  The
        floor is the log's last LSN, read before the first graph is
        captured: every record is appended and applied under its
        graph's lock, so each capture reflects every record up to it.
        Returns ``True`` when a snapshot was written; ``False`` when the
        engine has no WAL, another thread is mid-snapshot, or the write
        failed (logged once, counted in ``wal.checkpoint_failures``;
        the journal still holds every record, so nothing is lost).
        """
        if self._wal is None:
            return False
        if not self._wal_snap_lock.acquire(blocking=False):
            return False
        try:
            floor = self._wal.last_lsn
            with self._graphs_lock:
                items = list(self._graphs.items())
            graphs: dict[str, dict] = {}
            files: dict[str, Callable] = {}
            for (name, scale, seed), state in items:
                with state.lock:
                    if not state.wal_lsn:
                        continue
                    entry = {
                        "graph": name,
                        "scale": scale,
                        "seed": seed,
                        "digest": state.digest,
                        "epoch": state.epoch,
                        "content": state.content,
                        "pins": [
                            [v, list(pos)]
                            for v, pos in sorted(state.pins.items())
                        ],
                        "lsn": state.wal_lsn,
                    }
                    if state.content:
                        entry["archive"] = f"graph-{len(files)}.npz"
                        files[entry["archive"]] = partial(
                            save_npz, state.dyn.to_csr()
                        )
                graphs["\x1f".join((name, scale, str(seed)))] = entry
            try:
                self._wal.snapshot(
                    {"version": 2, "graphs": graphs}, floor=floor, files=files
                )
            except OSError as exc:
                self.telemetry.inc("wal.checkpoint_failures")
                if not self._wal_checkpoint_warned:
                    self._wal_checkpoint_warned = True
                    logger.warning(
                        "WAL checkpoint in %s failed: %s (logged once;"
                        " failures counted in wal.checkpoint_failures)",
                        self._wal.dir, exc,
                    )
                return False
            return True
        finally:
            self._wal_snap_lock.release()

    def _maybe_wal_snapshot(self) -> None:
        if (
            self._wal is not None
            and not self._wal_replaying
            and self._wal.appends_since_snapshot >= self._wal_snapshot_every
        ):
            self.wal_snapshot()

    # -- internals ---------------------------------------------------------
    def _graph_state(
        self, name: str, scale: str, seed: int
    ) -> _GraphState:
        """Load-or-get the mutable state of a named graph."""
        key = (name, scale, int(seed))
        with self._graphs_lock:
            state = self._graphs.get(key)
        if state is not None:
            return state
        try:
            g = self._graph_loader(name, scale, int(seed))
        except (KeyError, ValueError, OSError) as exc:
            # str(KeyError) wraps the message in quotes; unwrap args[0].
            detail = exc.args[0] if exc.args else exc
            raise BadRequest(str(detail)) from exc
        state = _GraphState(g)
        with self._graphs_lock:
            # Another thread may have raced the load; keep the first.
            return self._graphs.setdefault(key, state)

    def resolve_versioned(
        self, request: LayoutRequest
    ) -> tuple[CSRGraph, str, str, int, int]:
        """Return ``(graph, digest, display_name, epoch, content)``.

        ``content`` is the graph's content version (update batches
        applied); progressive refinement chains capture it at first
        paint and re-check it before publishing, so a refinement of a
        graph that has since been edited is discarded instead of
        published.
        """
        if isinstance(request.graph, CSRGraph):
            g = request.graph
            return g, graph_digest(g), g.name or "<in-memory>", 0, 0
        state = self._graph_state(request.graph, request.scale, request.seed)
        with state.lock:
            g = state.dyn.to_csr()
            epoch = state.epoch
            content = state.content
        return g, state.digest, g.name or request.graph, epoch, content

    def publish_layout(
        self,
        graph: str,
        scale: str,
        seed: int,
        algorithm: str,
        kwargs: Mapping[str, Any],
        result: LayoutResult,
        *,
        expect_content: int | None = None,
    ) -> str | None:
        """Publish an asynchronously refined layout for a named graph.

        Bumps the graph's epoch — every fingerprint derived from the old
        epoch now misses, memory and disk tier alike — and caches
        ``result`` under the new epoch's fingerprint, so the next
        ``GET /layout`` poll picks up the refinement.  This is the same
        invalidation path ``POST /update`` uses; refinements and edits
        share one coherent namespace.

        When ``expect_content`` is given and the graph's content version
        has moved (an update landed after the refinement started), the
        stale refinement is discarded and ``None`` is returned.
        Otherwise returns the new fingerprint.
        """
        state = self._graph_state(graph, scale, seed)
        with state.lock:
            if expect_content is not None and state.content != expect_content:
                return None
            if self._wal is not None and not self._wal_replaying:
                state.wal_lsn = self._wal.append(
                    {
                        "type": "publish",
                        "graph": graph,
                        "scale": scale,
                        "seed": int(seed),
                    }
                )
            state.epoch += 1
            fingerprint = layout_fingerprint(
                state.digest, algorithm, kwargs, epoch=state.epoch
            )
        # Cache outside the state lock: a disk-tier put does I/O, and a
        # poll racing the bump->put gap is served by the LOD best-result
        # record (:class:`repro.lod.LodServing`), never a stale entry
        # (the old epoch's fingerprint is already unreachable).
        self.cache.put(fingerprint, result)
        self.telemetry.inc("lod.published")
        return fingerprint

    def _state_pins(
        self, request: LayoutRequest
    ) -> dict[int, tuple[float, ...]] | None:
        """Snapshot of the server-side pin state for a named-graph request."""
        if isinstance(request.graph, CSRGraph):
            return None
        key = (request.graph, request.scale, int(request.seed))
        with self._graphs_lock:
            state = self._graphs.get(key)
        if state is None:
            return None
        with state.lock:
            return dict(state.pins) if state.pins else None

    def _validate(
        self,
        request: LayoutRequest,
        g: CSRGraph,
        state_pins: Mapping[int, tuple[float, ...]] | None = None,
    ) -> dict[str, Any]:
        if request.algorithm not in self._algorithms:
            raise BadRequest(
                f"unknown algorithm {request.algorithm!r}; available:"
                f" {', '.join(sorted(self._algorithms))}"
            )
        try:
            s = int(request.s)
        except (TypeError, ValueError):
            raise BadRequest(f"s must be an integer, got {request.s!r}")
        if not 1 <= s <= max(1, g.n):
            raise BadRequest(f"s must be in [1, {g.n}] for this graph, got {s}")
        extra = dict(request.params or {})
        unknown = set(extra) - _ALLOWED_PARAMS
        if unknown:
            raise BadRequest(
                f"unsupported params {sorted(unknown)}; allowed:"
                f" {sorted(_ALLOWED_PARAMS)}"
            )
        dims = extra.get("dims", 2)
        if (
            isinstance(dims, bool)
            or not isinstance(dims, numbers.Integral)
            or not 1 <= dims <= s
        ):
            raise BadRequest(
                f"params.dims must be an integer in [1, s={s}], got {dims!r}"
                + ("" if "dims" in extra else " (the default)")
            )
        # Canonicalize kernel selection through KernelConfig and re-emit
        # it as minimal flat keys: every spelling of one configuration
        # fingerprints identically and knob-free requests keep their
        # pre-KernelConfig fingerprints.  Fields the algorithm does not
        # honour (its ``honoured_kernels``; every field by default) are a
        # 400 here, before any compute is queued.
        algo = self._algorithms[request.algorithm]
        try:
            cfg = KernelConfig.coerce(extra.pop("kernels", None))
            cfg.require_only(
                getattr(algo, "honoured_kernels", KERNEL_FIELDS),
                request.algorithm,
            )
        except (TypeError, ValueError) as exc:
            raise BadRequest(str(exc)) from exc
        kparams = cfg.to_params()
        if "traversal" in kparams:
            self.telemetry.inc(f"kernels.traversal.{cfg.traversal}")
        if cfg.rounds or "subspace" in kparams:
            self.telemetry.inc(f"kernels.subspace.{cfg.subspace}")
        extra.update(kparams)
        # Canonicalize constraints the same way: server-side pin state
        # merges in (request pins win per-vertex) and the spec re-emits
        # as one minimal nested-list form.
        try:
            spec = ConstraintSpec.coerce(extra.pop("constraints", None))
            if state_pins:
                spec = spec.with_base_pins(state_pins)
            spec.validate_for(g.n, int(dims))
        except (TypeError, ValueError) as exc:
            raise BadRequest(str(exc)) from exc
        if not spec.is_trivial:
            extra["constraints"] = spec.to_params()
            self.telemetry.inc("constraints.requests")
        return {"s": s, "seed": int(request.seed), **extra}

    @staticmethod
    def _call_kwargs(kwargs: Mapping[str, Any]) -> dict[str, Any]:
        """Algorithm keywords for canonical request kwargs (flat kernel
        fields fold back into one ``kernels=`` mapping)."""
        out = {k: v for k, v in kwargs.items() if k not in KERNEL_FIELDS}
        kernels = {k: v for k, v in kwargs.items() if k in KERNEL_FIELDS}
        if kernels:
            out["kernels"] = kernels
        return out

    def _bind(
        self, algo_key: str, kwargs: Mapping[str, Any]
    ) -> tuple[Callable[..., LayoutResult], dict[str, Any]]:
        """The registered algorithm and its call keywords for canonical
        request kwargs, with an enabled validation policy threaded in."""
        call = self._call_kwargs(kwargs)
        if self.validation.enabled:
            call["validate"] = self.validation
        return self._algorithms[algo_key], call

    @staticmethod
    def _warm_key(
        digest: str, content: int, algorithm: str, kwargs: Mapping[str, Any]
    ) -> str:
        """Identity of a reusable warm basis for this request.

        Everything that shapes the basis participates: graph content,
        algorithm, every non-constraint param, and the mass facet of the
        constraints (masses change the inner product; pins and region act
        on an existing basis, so any pin/drag shares the key).
        """
        base = {k: v for k, v in kwargs.items() if k != "constraints"}
        cons = kwargs.get("constraints") or {}
        if "masses" in cons:
            base["_masses"] = cons["masses"]
        return "\x1f".join(
            (digest, str(content), algorithm, canonical_params(base))
        )

    def _compute(
        self,
        algo_key: str,
        g: CSRGraph,
        kwargs: dict,
        enqueued: float,
        deadline_at: float | None = None,
        warm_key: str | None = None,
        warm: dict | None = None,
    ):
        self.telemetry.observe("queue_wait_seconds", time.perf_counter() - enqueued)
        t0 = time.perf_counter()
        algo, kwargs = self._bind(algo_key, kwargs)
        s = kwargs.pop("s")
        if warm is not None:
            kwargs["warm_base"] = dict(warm)
        try:
            if self.resilience is not None:
                result = self._compute_resilient(
                    algo, g, s, kwargs, deadline_at
                )
            else:
                result = algo(g, s, **kwargs)
        except InvariantViolation as exc:
            self.telemetry.inc("validation_failures")
            raise ValidationFailed(
                f"layout failed invariant check: {exc}"
            ) from exc
        self.telemetry.observe("compute_seconds", time.perf_counter() - t0)
        if warm_key is not None and getattr(result, "warm", None) is not None:
            with self._warm_lock:
                self._warm_store[warm_key] = result.warm
                self._warm_store.move_to_end(warm_key)
                while len(self._warm_store) > self._warm_capacity:
                    self._warm_store.popitem(last=False)
        return result

    def _compute_resilient(
        self,
        algo: Callable[..., LayoutResult],
        g: CSRGraph,
        s: int,
        kwargs: dict,
        deadline_at: float | None,
    ) -> LayoutResult:
        """Run the degradation ladder under the request's time budget."""
        cfg = self.resilience
        assert cfg is not None
        seed = int(kwargs.pop("seed", 0))
        dims = int(kwargs.pop("dims", 2))
        deadline = None
        if deadline_at is not None:
            # What's left of the request deadline, minus response slack.
            remaining = deadline_at - time.perf_counter()
            deadline = Deadline(
                max(0.05, remaining * cfg.deadline_fraction)
            )
        return resilient_layout(
            g,
            s,
            algorithm=algo,
            dims=dims,
            seed=seed,
            deadline=deadline,
            retry=cfg.retry,
            telemetry=self.telemetry,
            **kwargs,
        )

    def _serve(self, request: LayoutRequest, t0: float) -> LayoutResponse:
        try:
            lod = self._lod.mode(request.lod)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        if lod is not None:
            self.telemetry.inc("lod.requests")
        g, digest, name, epoch, content = self.resolve_versioned(request)
        kwargs = self._validate(request, g, self._state_pins(request))
        fingerprint = layout_fingerprint(
            digest, request.algorithm, kwargs, epoch=epoch
        )

        def respond(
            result: LayoutResult, status: str, fp: str = fingerprint
        ) -> LayoutResponse:
            return LayoutResponse(
                fingerprint=fp,
                status=status,
                result=result,
                graph_name=name,
                n=g.n,
                m=g.m,
                elapsed=time.perf_counter() - t0,
                cache=self.cache,
            )

        cached = self.cache.get(fingerprint)
        if (
            cached is not None
            and lod is None
            and is_lod_tier(cached[0].quality_tier)
        ):
            # A progressive frame was published at this fingerprint; a
            # caller without LOD must get the full-tier layout, so
            # recompute (the full result overwrites the coarse entry at
            # the same fingerprint).
            self.telemetry.inc("lod.tier_misses")
            cached = None
        if cached is not None:
            result, tier = cached
            if self.validation.enabled:
                check = check_cache_consistency(
                    result, g, request.algorithm, kwargs
                )
                if not check.ok:
                    self.telemetry.inc("validation_failures")
                try:
                    self.validation.handle(check)
                except InvariantViolation as exc:
                    # Don't serve a provably-wrong entry; fall through to
                    # recompute would mask the fingerprint bug, so fail.
                    raise ValidationFailed(
                        f"cache hit failed consistency check: {exc}"
                    ) from exc
            self.telemetry.inc("cache_hits")
            return respond(result, f"{tier}-hit")
        self.telemetry.inc("cache_misses")

        if lod is not None:
            painted = self._first_paint(
                request, lod, g, digest, content, kwargs
            )
            if painted is not None:
                result, status, fp = painted
                response = respond(result, status, fp or fingerprint)
                if status == "computed":
                    self.telemetry.inc("lod.first_paint")
                    self.telemetry.observe(
                        "lod.first_paint_seconds", response.elapsed
                    )
                return response

        timeout = request.timeout if request.timeout is not None else self.timeout

        # Circuit breaker: a (graph, algorithm) key that keeps failing is
        # served a baseline inline (or refused) without burning a worker.
        breaker_key = None
        if self._breakers is not None:
            breaker_key = f"{digest[:16]}@{epoch}:{request.algorithm}"
            if not self._breakers.allow(breaker_key):
                self.telemetry.inc("breaker.short_circuits")
                if self.resilience is not None and self.resilience.degrade_on_open:
                    self.telemetry.inc("resilience.degraded.baseline")
                    result = baseline_layout(
                        g, dims=int(kwargs.get("dims", 2)), seed=kwargs["seed"]
                    )
                    result.params["degraded_reason"] = "circuit_open"
                    return respond(result, "degraded")
                raise Overloaded(
                    f"circuit breaker open for {request.algorithm!r} on this"
                    " graph; retry later"
                )

        # Warm-base restart: a constrained request may reuse the basis a
        # prior layout of the same graph content deposited (drags hit it).
        # Only an algorithm that returns ``result.warm`` ever deposits one
        # under its key, so a hit is always one it takes back.  Skipped
        # under resilience — the ladder's reduced rungs do not accept
        # warm bases.
        warm_key = warm = None
        if "constraints" in kwargs and self.resilience is None:
            warm_key = self._warm_key(digest, content, request.algorithm, kwargs)
            with self._warm_lock:
                warm = self._warm_store.get(warm_key)
                if warm is not None:
                    self._warm_store.move_to_end(warm_key)
            self.telemetry.inc(
                "constraints.warm_hits"
                if warm is not None
                else "constraints.warm_misses"
            )

        # Single-flight: first thread in becomes the leader.
        with self._flights_lock:
            flight = self._flights.get(fingerprint)
            leader = flight is None
            if leader:
                flight = self._flights[fingerprint] = _Flight()
        assert flight is not None

        if leader:
            try:
                deadline_at = (
                    t0 + timeout if self.resilience is not None else None
                )
                future = self._pool.submit(
                    self._compute,
                    request.algorithm,
                    g,
                    kwargs,
                    time.perf_counter(),
                    deadline_at,
                    warm_key,
                    warm,
                )
            except PoolSaturated as exc:
                with self._flights_lock:
                    self._flights.pop(fingerprint, None)
                flight.error = Overloaded(str(exc))
                flight.event.set()
                self.telemetry.inc("rejected")
                raise Overloaded(
                    f"engine overloaded ({self._pool.outstanding} computations"
                    f" outstanding, queue limit {self._pool.queue_limit});"
                    " retry later"
                ) from exc
            future.add_done_callback(
                lambda fut: self._finish_flight(
                    fingerprint, flight, fut, breaker_key
                )
            )
        else:
            self.telemetry.inc("coalesced")

        remaining = timeout - (time.perf_counter() - t0)
        if remaining <= 0 or not flight.event.wait(remaining):
            self.telemetry.inc("timeouts")
            raise RequestTimeout(
                f"layout not ready within {timeout:.3f}s"
                " (computation continues; an identical retry may hit the cache)"
            )
        if flight.error is not None:
            err = flight.error
            if isinstance(err, ServiceError):
                raise err
            raise ServiceError(f"layout computation failed: {err}") from err
        assert flight.result is not None
        return respond(flight.result, "computed" if leader else "coalesced")

    def _first_paint(
        self,
        request: LayoutRequest,
        lod: LodConfig,
        g: CSRGraph,
        digest: str,
        content: int,
        kwargs: dict,
    ) -> tuple[LayoutResult, str, str | None] | None:
        """Hand a cache miss with LOD on to :class:`LodServing`; ``None``
        means LOD does not apply and the request takes the compute path."""
        algo, call = self._bind(request.algorithm, kwargs)
        named = isinstance(request.graph, str)
        key = (request.graph, request.scale, request.seed)

        def publish(result: LayoutResult) -> str | None:
            return self.publish_layout(
                *key, request.algorithm, kwargs, result, expect_content=content
            )

        def stale() -> bool:
            return self._draining or (
                named and self._graph_state(*key).content != content
            )

        try:
            return self._lod.serve(
                lod,
                g,
                kwargs,
                graph_key=(digest, content),
                shape=f"{request.algorithm}\x1f{canonical_params(kwargs)}",
                algorithm=algo,
                algorithm_name=request.algorithm,
                call_kwargs=call,
                publish=publish if named else None,
                stale=stale,
            )
        except InvariantViolation as exc:
            raise ValidationFailed(
                f"progressive layout failed invariant check: {exc}"
            ) from exc

    def _finish_flight(
        self,
        fingerprint: str,
        flight: _Flight,
        future,
        breaker_key: str | None = None,
    ) -> None:
        try:
            result = future.result()
        except BaseException as exc:  # noqa: BLE001 — reported to waiters
            self.telemetry.inc("compute_errors")
            flight.error = exc
            if breaker_key is not None and self._breakers is not None:
                self._breakers.record(breaker_key, False)
        else:
            flight.result = result
            tier = result.quality_tier
            if breaker_key is not None and self._breakers is not None:
                # A degraded answer means the full pipeline did not work
                # for this key: count it against the breaker so repeat
                # offenders get short-circuited instead of re-walked.
                self._breakers.record(breaker_key, tier == "full")
            retried = (result.params.get("resilience") or {}).get("retries", 0)
            if tier == "full" and not retried:
                # Degraded results must never poison the fingerprint
                # cache, and a retried "full" result carries an adapted
                # seed/subspace in its params echo that would fail the
                # cache-consistency check on a later hit.
                self.cache.put(fingerprint, result)
            else:
                self.telemetry.inc("uncached_degraded")
        finally:
            with self._flights_lock:
                self._flights.pop(fingerprint, None)
            flight.event.set()
