"""Progressive level-of-detail layouts: coarse first, full eventually.

Two layers share the same refinement ladder:

* :func:`progressive_layout` — a library-level generator.  It lays out
  the coarsest level of a :class:`~repro.lod.hierarchy.LodHierarchy`,
  yields that as the first :class:`ProgressiveFrame` (coords prolonged
  to *finest* vertex ids, tagged ``quality_tier="lod-k"``), then walks
  the hierarchy up — one-step prolongation plus a few centroid sweeps
  per level — yielding a frame per level and finishing with a genuine
  full-pipeline run tagged ``"full"``.
* :class:`ProgressiveEngine` — a serving wrapper over
  :class:`~repro.service.engine.LayoutEngine`.  The first request for a
  large graph computes only the first frame synchronously (so the
  response arrives in coarse-tier time), then drains the rest of the
  generator asynchronously on the engine's pool, publishing every
  refinement through :meth:`LayoutEngine.publish_layout` — an epoch
  bump plus a cache put, the same invalidation path ``POST /update``
  uses — so clients polling ``GET /layout`` observe monotonically
  improving tiers and converge on ``"full"`` without ever seeing a
  stale epoch's entry.

The HTTP contract is unchanged: every frame's coordinates cover all
fine vertices, and responses differ from non-progressive serving only
in ``quality_tier`` and a ``params["lod"]`` metadata record.
"""

from __future__ import annotations

import inspect
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..core.hde import parhde
from ..core.kernels import KernelConfig
from ..core.refine import centroid_sweep
from ..core.result import LayoutResult
from ..graph.csr import CSRGraph
from ..parallel.pool import PoolSaturated
from ..resilience.ladder import tier_rank
from ..validate import InvariantViolation, check_lod_distortion
from ..service.engine import (
    BadRequest,
    LayoutEngine,
    LayoutRequest,
    LayoutResponse,
    Overloaded,
    ServiceError,
    UpdateRequest,
    UpdateResponse,
    ValidationFailed,
)
from ..service.fingerprint import canonical_params, layout_fingerprint
from .hierarchy import LodHierarchy, build_lod_hierarchy, tier_name

__all__ = [
    "LodConfig",
    "ProgressiveEngine",
    "ProgressiveFrame",
    "progressive_layout",
]


@dataclass(frozen=True)
class LodConfig:
    """Knobs for progressive level-of-detail serving.

    Attributes
    ----------
    mode:
        ``"auto"`` — first paint from the coarsest level;
        ``"budget"`` — first paint from the finest level whose
        estimated coarse-layout cost fits ``budget_ms``.
    budget_ms:
        First-paint wall-clock budget in milliseconds (``mode ==
        "budget"`` only).
    min_vertices:
        Graphs smaller than this are served directly — coarsening a
        graph that already lays out in interactive time only adds
        epochs.
    coarsest_size / max_levels / shrink_floor:
        Hierarchy construction knobs
        (:func:`~repro.lod.hierarchy.build_lod_hierarchy`).
    distortion_bound:
        Largest tolerated measured eigenvalue distortion; checked by
        :func:`repro.validate.check_lod_distortion` under the engine's
        validation policy.
    measure_limit:
        Largest level size for which distortion is measured exactly
        (dense eigensolve).
    refine_sweeps:
        Centroid sweeps per intermediate level during refinement.
    """

    mode: str = "auto"
    budget_ms: float | None = None
    min_vertices: int = 4096
    coarsest_size: int = 512
    max_levels: int = 12
    shrink_floor: float = 0.9
    distortion_bound: float = 3.0
    measure_limit: int = 600
    refine_sweeps: int = 3

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "budget"):
            raise ValueError(f"mode must be 'auto' or 'budget', got {self.mode!r}")
        if self.mode == "budget" and (
            self.budget_ms is None
            or not math.isfinite(self.budget_ms)
            or self.budget_ms <= 0
        ):
            raise ValueError(
                f"budget mode needs a finite budget_ms > 0, got {self.budget_ms!r}"
            )

    @classmethod
    def parse(cls, value: "LodConfig | str | float | bool | None") -> "LodConfig | None":
        """Coerce a user-facing ``lod`` value to a config (or ``None``).

        ``None`` / ``False`` / ``"off"`` disable LOD; ``True`` /
        ``"auto"`` mean coarsest-first; a number (or numeric string) is
        a first-paint budget in milliseconds.
        """
        if value is None or value is False or value == "off":
            return None
        if value is True or value == "auto":
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ValueError(
                    f"lod must be 'off', 'auto' or a budget in"
                    f" milliseconds, got {value!r}"
                ) from None
        if isinstance(value, (int, float)):
            budget = float(value)
            if not math.isfinite(budget) or budget <= 0:
                raise ValueError(
                    f"lod budget must be finite and > 0 ms, got {budget!r}"
                )
            return cls(mode="budget", budget_ms=budget)
        raise ValueError(f"cannot interpret lod value {value!r}")


@dataclass
class ProgressiveFrame:
    """One rung of a progressive layout: a servable full-coverage result."""

    depth: int  # hierarchy depth this frame was computed at (0 = finest)
    tier: str  # "lod-<depth>" or "full"
    result: LayoutResult  # coords always cover the finest vertex ids
    elapsed: float  # seconds since the progressive run started


def _wrap_frame(
    base: LayoutResult,
    coords_at_depth: np.ndarray,
    hierarchy: LodHierarchy,
    depth: int,
    *,
    algorithm: str,
    params_echo: Mapping[str, Any],
    seed: int,
) -> LayoutResult:
    """Package depth-``depth`` coordinates as a finest-graph result.

    ``algorithm`` and the params echo match what a cache-consistency
    check expects for the original request; the ``lod`` record carries
    the provenance.
    """
    params = dict(params_echo)
    params["quality_tier"] = tier_name(depth)
    params["lod"] = {
        "depth": int(depth),
        "levels": hierarchy.sizes(),
        "distortion": hierarchy.max_distortion,
    }
    return LayoutResult(
        coords=hierarchy.prolong_to_finest(coords_at_depth, depth, seed=seed),
        algorithm=algorithm,
        B=base.B,
        S=base.S,
        eigenvalues=base.eigenvalues,
        pivots=base.pivots,
        params=params,
    )


def _level_masses(
    algorithm: Callable[..., LayoutResult],
    hierarchy: LodHierarchy,
    depth: int,
    params: Mapping[str, Any],
) -> dict[int, float] | None:
    """Per-supernode masses for the coarse-tier layout, if applicable.

    A supernode stands for ``m_c = Pᵀm`` finest vertices; laying the
    coarse level out unit-mass biases positions toward hub clusters
    (every supernode pulls equally regardless of how many vertices it
    represents).  Feed the hierarchy's accumulated mass vector into the
    mass-weighted solver — unless the caller already passed constraints
    of their own, asked for subspace refinement (which does not compose
    with constraints), or the algorithm cannot accept them.
    """
    if "constraints" in params:
        return None
    if KernelConfig.coerce(params.get("kernels")).rounds:
        return None
    try:
        accepted = inspect.signature(algorithm).parameters
    except (TypeError, ValueError):
        return None
    if "constraints" not in accepted:
        return None
    mass = hierarchy.mass_at(depth)
    out = {int(i): float(m) for i, m in enumerate(mass) if m != 1.0}
    return out or None


def progressive_layout(
    g: CSRGraph,
    s: int = 10,
    *,
    dims: int = 2,
    seed: int = 0,
    algorithm: Callable[..., LayoutResult] = parhde,
    algorithm_name: str | None = None,
    config: LodConfig | None = None,
    hierarchy: LodHierarchy | None = None,
    start_depth: int | None = None,
    params_echo: Mapping[str, Any] | None = None,
    **params: Any,
) -> Iterator[ProgressiveFrame]:
    """Yield progressively finer layouts of ``g``, coarsest first.

    The first frame is ``algorithm`` run on the hierarchy's coarsest
    level (its *structure*: accumulated contraction weights steer the
    coarsening, BFS hop counts are what HDE consumes) with coordinates
    prolonged to the finest vertex ids.  Each following frame prolongs
    one level and runs ``config.refine_sweeps`` weighted-centroid
    sweeps; the final frame is a genuine full run of ``algorithm`` on
    ``g`` itself, so the generator's last result is bit-identical to a
    non-progressive call with the same parameters.

    ``start_depth`` overrides where the ladder starts (budget mode);
    ``params_echo`` overrides the params dict recorded on intermediate
    frames (the serving engine passes the request's canonical kwargs so
    cache-consistency checks hold).
    """
    cfg = config if config is not None else LodConfig()
    t0 = time.perf_counter()
    name = algorithm_name or getattr(algorithm, "__name__", "layout")
    echo = dict(params_echo) if params_echo is not None else dict(
        s=int(s), seed=int(seed), dims=int(dims), **params
    )
    if hierarchy is None:
        hierarchy = build_lod_hierarchy(
            g,
            coarsest_size=cfg.coarsest_size,
            max_levels=cfg.max_levels,
            shrink_floor=cfg.shrink_floor,
            seed=seed,
            measure_limit=cfg.measure_limit,
        )
    depth = hierarchy.depth if start_depth is None else int(start_depth)
    depth = max(0, min(depth, hierarchy.depth))

    def full_frame() -> ProgressiveFrame:
        result = algorithm(g, int(s), dims=dims, seed=seed, **params)
        return ProgressiveFrame(
            0, "full", result, time.perf_counter() - t0
        )

    if depth == 0:
        yield full_frame()
        return

    coarse = hierarchy.graph_at(depth)
    s_eff = min(int(s), max(dims, coarse.n - 1))
    coarse_params = dict(params)
    level_masses = _level_masses(algorithm, hierarchy, depth, coarse_params)
    if level_masses is not None:
        coarse_params["constraints"] = {"masses": level_masses}
    base = algorithm(
        coarse.unweighted(), s_eff, dims=dims, seed=seed, **coarse_params
    )
    coords = base.coords
    yield ProgressiveFrame(
        depth,
        tier_name(depth),
        _wrap_frame(
            base, coords, hierarchy, depth,
            algorithm=name, params_echo=echo, seed=seed,
        ),
        time.perf_counter() - t0,
    )
    for d in range(depth - 1, 0, -1):
        # levels[d].mapping sends depth-d ids to depth-(d+1) ids, so
        # indexing the coarser coords by it is the one-step prolongation.
        coords = coords[hierarchy.levels[d].mapping]
        rng = np.random.default_rng(seed + 7 * d)
        scale = float(np.abs(coords).max()) or 1.0
        coords = coords + 1e-4 * scale * rng.standard_normal(coords.shape)
        level_graph = hierarchy.graph_at(d)
        for _ in range(max(0, int(cfg.refine_sweeps))):
            coords = centroid_sweep(level_graph, coords)
        yield ProgressiveFrame(
            d,
            tier_name(d),
            _wrap_frame(
                base, coords, hierarchy, d,
                algorithm=name, params_echo=echo, seed=seed,
            ),
            time.perf_counter() - t0,
        )
    yield full_frame()


class _Record:
    """Best published result for one (graph-version, request-shape) key."""

    __slots__ = ("lock", "best", "best_rank", "best_fp", "chain_started")

    def __init__(self):
        self.lock = threading.RLock()
        self.best: LayoutResult | None = None
        self.best_rank = 10**9
        self.best_fp: str | None = None
        self.chain_started = False


class _LodState:
    """Hierarchy + per-request records for one graph content version."""

    __slots__ = ("hierarchy", "content", "records", "lock")

    def __init__(self, hierarchy: LodHierarchy, content: int):
        self.hierarchy = hierarchy
        self.content = content
        self.records: dict[str, _Record] = {}
        self.lock = threading.Lock()

    def record(self, key: str) -> _Record:
        with self.lock:
            rec = self.records.get(key)
            if rec is None:
                rec = self.records[key] = _Record()
            return rec


class ProgressiveEngine:
    """Serve coarse-first, refine asynchronously, converge to full.

    Wraps a :class:`~repro.service.engine.LayoutEngine` and preserves
    its whole interface (``submit`` / ``update`` / ``stats`` / ``drain``
    / ``close`` / telemetry), so the HTTP layer, the cluster worker and
    the CLI can treat either interchangeably.  Requests are served
    progressively when the effective LOD mode (the request's ``lod``
    field, falling back to the engine-level default) is enabled *and*
    the graph is at least ``config.min_vertices`` vertices; everything
    else passes straight through.

    Parameters
    ----------
    engine:
        The wrapped engine (owns the cache, pool, graphs and telemetry).
    lod:
        Default mode for requests that do not set ``lod`` themselves:
        ``None``/``"off"`` (opt-in per request), ``"auto"``, or a
        first-paint budget in milliseconds.
    config:
        Knob overrides (hierarchy sizes, refinement sweeps, distortion
        bound); the mode/budget fields are overridden per request.
    """

    def __init__(
        self,
        engine: LayoutEngine,
        *,
        lod: str | float | None = None,
        config: LodConfig | None = None,
    ):
        self.engine = engine
        self.config = config if config is not None else LodConfig()
        # Validate the default eagerly so `serve --lod junk` fails at
        # startup, not on the first request.
        self._default = LodConfig.parse(lod) if not isinstance(lod, LodConfig) else lod
        if self._default is not None and config is not None:
            self._default = replace(
                config, mode=self._default.mode, budget_ms=self._default.budget_ms
            )
        self._states: "OrderedDict[tuple[str, int], _LodState]" = OrderedDict()
        self._states_lock = threading.Lock()
        self._max_states = 8
        self._cost_per_unit = 1e-4  # ms per (n*s + m) unit, EWMA-calibrated
        self._cost_lock = threading.Lock()
        self._closed = False

    # -- delegation ---------------------------------------------------------
    @property
    def telemetry(self):
        return self.engine.telemetry

    @property
    def cache(self):
        return self.engine.cache

    @property
    def draining(self) -> bool:
        return self.engine.draining

    @property
    def inflight(self) -> int:
        return self.engine.inflight

    @property
    def queue_depth(self) -> int:
        return self.engine.queue_depth

    def update(self, request: UpdateRequest) -> UpdateResponse:
        # The content bump invalidates every _LodState for the old
        # version on its own: states are keyed by (digest, content).
        return self.engine.update(request)

    def drain(self, timeout: float = 10.0) -> bool:
        return self.engine.drain(timeout)

    def close(self) -> None:
        self._closed = True
        self.engine.close()

    def __enter__(self) -> "ProgressiveEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        snap = self.engine.stats()
        with self._states_lock:
            hierarchies = [
                state.hierarchy.sizes() for state in self._states.values()
            ]
        snap["lod"] = {
            "default": (
                "off"
                if self._default is None
                else (
                    self._default.mode
                    if self._default.budget_ms is None
                    else f"budget:{self._default.budget_ms:g}ms"
                )
            ),
            "min_vertices": self.config.min_vertices,
            "distortion_bound": self.config.distortion_bound,
            "hierarchies": hierarchies,
        }
        return snap

    # -- request path -------------------------------------------------------
    def submit(self, request: LayoutRequest) -> LayoutResponse:
        try:
            cfg = self._config_for(request)
        except ValueError as exc:
            self.telemetry.inc("requests")
            self.telemetry.inc("errors.bad_request")
            raise BadRequest(str(exc)) from None
        if cfg is None:
            return self.engine.submit(request)
        t0 = time.perf_counter()
        tel = self.telemetry
        tel.inc("requests")
        tel.inc("lod.requests")
        try:
            if self.engine.draining:
                raise Overloaded("engine is draining; not accepting new requests")
            response = self._serve_lod(request, cfg, t0)
        except ServiceError as exc:
            tel.inc(f"errors.{exc.code}")
            raise
        tel.observe("latency_seconds", time.perf_counter() - t0)
        tel.inc(f"responses.{response.status}")
        return response

    def _config_for(self, request: LayoutRequest) -> LodConfig | None:
        value = request.lod if request.lod is not None else self._default
        if isinstance(value, LodConfig):
            return value
        parsed = LodConfig.parse(value)
        if parsed is None:
            return None
        return replace(self.config, mode=parsed.mode, budget_ms=parsed.budget_ms)

    def _serve_lod(
        self, request: LayoutRequest, cfg: LodConfig, t0: float
    ) -> LayoutResponse:
        eng = self.engine
        tel = self.telemetry
        g, digest, name, epoch, content = eng.resolve_versioned(request)
        kwargs = eng._validate(request, g, eng._state_pins(request))
        if g.n < cfg.min_vertices:
            tel.inc("lod.bypass_small")
            return eng._serve(request, t0)
        if "constraints" in kwargs:
            # Pins/masses/region address finest vertex ids; prolonging
            # them through the hierarchy would only approximately honor
            # them.  Constrained requests get the exact (and warm-
            # restartable) direct path.
            tel.inc("lod.bypass_constrained")
            return eng._serve(request, t0)
        fingerprint = layout_fingerprint(
            digest, request.algorithm, kwargs, epoch=epoch
        )

        def respond(result: LayoutResult, status: str, fp: str) -> LayoutResponse:
            return LayoutResponse(
                fingerprint=fp,
                status=status,
                result=result,
                graph_name=name,
                n=g.n,
                m=g.m,
                elapsed=time.perf_counter() - t0,
            )

        cached = eng.cache.get(fingerprint)
        if cached is not None:
            result, where = cached
            self._check_consistency(result, g, request, kwargs)
            tel.inc("cache_hits")
            return respond(result, f"{where}-hit", fingerprint)
        tel.inc("cache_misses")

        state = self._lod_state(request, cfg, g, digest, content)
        if state.hierarchy.depth == 0:
            # The graph would not coarsen (it starved the matching);
            # nothing progressive to serve — fall through to the plain
            # path, which also handles single-flight and caching.
            tel.inc("lod.flat_hierarchy")
            return eng._serve(request, t0)

        reckey = f"{request.algorithm}\x1f{canonical_params(kwargs)}"
        rec = state.record(reckey)
        with rec.lock:
            if rec.best is not None:
                # A refinement already published; the cache miss above
                # just means we raced the epoch bump -> cache put gap
                # (or the entry was evicted).  Serve the best in hand —
                # never something older.
                tel.inc("lod.best_served")
                return respond(rec.best, "lod-hit", rec.best_fp or fingerprint)
            depth = self._choose_depth(state.hierarchy, cfg, kwargs)
            if depth == 0:
                return eng._serve(request, t0)
            frames = self._frames(request, cfg, state, g, kwargs, depth)
            t_paint = time.perf_counter()
            try:
                first = next(frames)
            except InvariantViolation as exc:
                tel.inc("validation_failures")
                raise ValidationFailed(
                    f"coarse layout failed invariant check: {exc}"
                ) from exc
            self._note_cost(
                state.hierarchy, depth, kwargs,
                (time.perf_counter() - t_paint) * 1000.0,
            )
            tel.inc("lod.first_paint")
            tel.observe("lod.first_paint_seconds", time.perf_counter() - t0)
            fp = self._publish(request, kwargs, state, rec, first.result)
            if not rec.chain_started:
                rec.chain_started = True
                self._schedule_chain(request, kwargs, state, rec, frames, depth)
            return respond(first.result, "computed", fp or fingerprint)

    # -- internals ----------------------------------------------------------
    def _check_consistency(
        self, result: LayoutResult, g: CSRGraph, request: LayoutRequest, kwargs: dict
    ) -> None:
        """Mirror the plain engine's cache-hit consistency check."""
        eng = self.engine
        if not eng.validation.enabled:
            return
        from ..validate import check_cache_consistency

        check = check_cache_consistency(result, g, request.algorithm, kwargs)
        if not check.ok:
            self.telemetry.inc("validation_failures")
        try:
            eng.validation.handle(check)
        except InvariantViolation as exc:
            raise ValidationFailed(
                f"cache hit failed consistency check: {exc}"
            ) from exc

    def _lod_state(
        self,
        request: LayoutRequest,
        cfg: LodConfig,
        g: CSRGraph,
        digest: str,
        content: int,
    ) -> _LodState:
        key = (digest, content)
        with self._states_lock:
            state = self._states.get(key)
            if state is not None:
                self._states.move_to_end(key)
                return state
        t0 = time.perf_counter()
        hierarchy = build_lod_hierarchy(
            g,
            coarsest_size=cfg.coarsest_size,
            max_levels=cfg.max_levels,
            shrink_floor=cfg.shrink_floor,
            seed=int(request.seed),
            measure_limit=cfg.measure_limit,
        )
        self.telemetry.inc("lod.hierarchy_builds")
        self.telemetry.observe(
            "lod.hierarchy_build_seconds", time.perf_counter() - t0
        )
        check = check_lod_distortion(hierarchy, bound=cfg.distortion_bound)
        if not check.ok:
            self.telemetry.inc("lod.distortion_violations")
        try:
            self.engine.validation.handle(check)
        except InvariantViolation as exc:
            raise ValidationFailed(
                f"LOD hierarchy failed distortion check: {exc}"
            ) from exc
        state = _LodState(hierarchy, content)
        with self._states_lock:
            state = self._states.setdefault(key, state)
            self._states.move_to_end(key)
            while len(self._states) > self._max_states:
                self._states.popitem(last=False)
        return state

    def _choose_depth(
        self, hierarchy: LodHierarchy, cfg: LodConfig, kwargs: dict
    ) -> int:
        if cfg.mode != "budget" or cfg.budget_ms is None:
            return hierarchy.depth
        s = int(kwargs.get("s", 10))
        with self._cost_lock:
            coeff = self._cost_per_unit
        # Finest level whose estimated coarse-layout cost fits the
        # budget; the coarsest level is the fallback answer.
        for depth in range(1, hierarchy.depth + 1):
            level = hierarchy.graph_at(depth)
            if coeff * (level.n * max(1, s) + level.nnz) <= cfg.budget_ms:
                return depth
        return hierarchy.depth

    def _note_cost(
        self, hierarchy: LodHierarchy, depth: int, kwargs: dict, elapsed_ms: float
    ) -> None:
        """EWMA-calibrate the budget-mode cost model from a real run."""
        level = hierarchy.graph_at(depth)
        units = level.n * max(1, int(kwargs.get("s", 10))) + level.nnz
        if units <= 0 or elapsed_ms <= 0:
            return
        with self._cost_lock:
            self._cost_per_unit = (
                0.7 * self._cost_per_unit + 0.3 * (elapsed_ms / units)
            )

    def _frames(
        self,
        request: LayoutRequest,
        cfg: LodConfig,
        state: _LodState,
        g: CSRGraph,
        kwargs: dict,
        depth: int,
    ) -> Iterator[ProgressiveFrame]:
        eng = self.engine
        algo = eng._algorithms[request.algorithm]
        extras = {
            k: v
            for k, v in eng._call_kwargs(kwargs).items()
            if k not in ("s", "seed", "dims")
        }
        if eng.validation.enabled and eng._accepts_validate(algo):
            extras["validate"] = eng.validation
        return progressive_layout(
            g,
            kwargs["s"],
            dims=int(kwargs.get("dims", 2)),
            seed=kwargs["seed"],
            algorithm=algo,
            algorithm_name=request.algorithm,
            config=cfg,
            hierarchy=state.hierarchy,
            start_depth=depth,
            params_echo=kwargs,
            **extras,
        )

    def _publish(
        self,
        request: LayoutRequest,
        kwargs: dict,
        state: _LodState,
        rec: _Record,
        result: LayoutResult,
    ) -> str | None:
        """Record ``result`` as the best-so-far and publish it, in tier order.

        Returns the published fingerprint (``None`` for in-memory graphs
        or when the graph's content moved underneath the refinement).
        Caller note: safe to call from any thread; takes ``rec.lock``.
        """
        rank = tier_rank(result.quality_tier)
        with rec.lock:
            if rec.best is not None and rank >= rec.best_rank:
                return None
            rec.best = result
            rec.best_rank = rank
            if not isinstance(request.graph, str):
                # In-memory graphs have no engine-owned state to bump;
                # the record itself is the publication.
                return None
            fp = self.engine.publish_layout(
                request.graph,
                request.scale,
                request.seed,
                request.algorithm,
                kwargs,
                result,
                expect_content=state.content,
            )
            if fp is None:
                self.telemetry.inc("lod.publish_stale")
                return None
            rec.best_fp = fp
            return fp

    def _schedule_chain(
        self,
        request: LayoutRequest,
        kwargs: dict,
        state: _LodState,
        rec: _Record,
        frames: Iterator[ProgressiveFrame],
        depth: int,
    ) -> None:
        tel = self.telemetry
        tel.gauge("lod.refine_backlog").add(depth)

        def run() -> None:
            self._refine_chain(request, kwargs, state, rec, frames, depth)

        try:
            self.engine._pool.submit(run)
        except PoolSaturated:
            # Refinement must not be lost to a momentarily full queue —
            # the first paint was already served promising convergence.
            threading.Thread(
                target=run, name="lod-refine", daemon=True
            ).start()

    def _refine_chain(
        self,
        request: LayoutRequest,
        kwargs: dict,
        state: _LodState,
        rec: _Record,
        frames: Iterator[ProgressiveFrame],
        depth: int,
    ) -> None:
        """Drain the frame generator, publishing each refinement.

        Publishing uses the *request* kwargs (not the frame's params
        echo, which additionally carries quality_tier/lod records), so
        the published fingerprint matches what a future poll computes.
        """
        tel = self.telemetry
        gauge = tel.gauge("lod.refine_backlog")
        pending = depth
        try:
            for frame in frames:
                if self._closed or self.engine.draining or self._stale(
                    request, state
                ):
                    tel.inc("lod.refine_aborted")
                    return
                self._publish(request, kwargs, state, rec, frame.result)
                tel.inc("lod.refinements")
                pending -= 1
                gauge.add(-1)
            tel.inc("lod.converged")
        except Exception:  # noqa: BLE001 — background chain must not leak
            tel.inc("lod.refine_failures")
        finally:
            if pending > 0:
                gauge.add(-pending)

    def _stale(self, request: LayoutRequest, state: _LodState) -> bool:
        if not isinstance(request.graph, str):
            return False
        try:
            graph_state = self.engine._graph_state(
                request.graph, request.scale, request.seed
            )
        except ServiceError:
            return True
        return graph_state.content != state.content
