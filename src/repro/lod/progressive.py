"""Progressive level-of-detail layouts: coarse first, full eventually.

Two layers share the same refinement ladder:

* :func:`progressive_layout` — a library-level generator.  It lays out
  the coarsest level of a :class:`~repro.lod.hierarchy.LodHierarchy`,
  yields that as the first :class:`ProgressiveFrame` (coords prolonged
  to *finest* vertex ids, tagged ``quality_tier="lod-k"``), then walks
  the hierarchy up — one-step prolongation plus a few centroid sweeps
  per level — yielding a frame per level and finishing with a genuine
  full-pipeline run tagged ``"full"``.
* :class:`LodServing` — the progressive state of one serving engine
  (:class:`~repro.service.engine.LayoutEngine` owns one).  On a cache
  miss with LOD on, the engine hands it the request's graph, canonical
  kwargs and algorithm; it computes only the first frame synchronously
  (so the response arrives in coarse-tier time), then drains the rest
  of the generator asynchronously on the engine's pool, publishing
  every refinement through a callable the engine supplies — an epoch
  bump plus a cache put, the same invalidation path ``POST /update``
  uses — so clients polling ``GET /layout`` observe monotonically
  improving tiers and converge on ``"full"`` without ever seeing a
  stale epoch's entry.

The HTTP contract is unchanged: every frame's coordinates cover all
fine vertices, and responses differ from non-progressive serving only
in ``quality_tier`` and a ``params["lod"]`` metadata record.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..core.hde import parhde
from ..core.kernels import KernelConfig
from ..core.refine import centroid_sweep
from ..core.result import LayoutResult
from ..graph.csr import CSRGraph
from ..multilevel.layout import prolong
from ..parallel.pool import PoolSaturated, TaskPool
from ..resilience.ladder import tier_rank
from ..validate import InvariantViolation, ValidationPolicy, check_lod_distortion
from .hierarchy import LodHierarchy, build_lod_hierarchy, tier_name

__all__ = [
    "LodConfig",
    "LodServing",
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
    of their own or asked for subspace refinement (which does not
    compose with constraints).
    """
    if "constraints" in params:
        return None
    if KernelConfig.coerce(params.get("kernels")).rounds:
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
    level_masses = _level_masses(hierarchy, depth, coarse_params)
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
        # levels[d].mapping sends depth-d ids to depth-(d+1) ids.
        coords = prolong(coords, hierarchy.levels[d], seed=seed + 7 * d)
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

    __slots__ = ("hierarchy", "records", "lock")

    def __init__(self, hierarchy: LodHierarchy):
        self.hierarchy = hierarchy
        self.records: dict[str, _Record] = {}
        self.lock = threading.Lock()

    def record(self, key: str) -> _Record:
        with self.lock:
            rec = self.records.get(key)
            if rec is None:
                rec = self.records[key] = _Record()
            return rec


class LodServing:
    """The progressive side of one serving engine.

    :class:`~repro.service.engine.LayoutEngine` resolves, validates,
    fingerprints and looks up the cache once per request, then hands a
    miss with LOD on to :meth:`serve`.  This object keeps what outlives
    a request: hierarchies keyed by ``(graph digest, content version)``
    (LRU), the best published result per request shape, the
    budget-mode cost model, and the refinement chains running on the
    engine's pool.  It knows the engine only through the values and
    callables it is given.

    Parameters
    ----------
    lod:
        Default mode for requests that do not set ``lod`` themselves:
        ``None``/``"off"`` (opt-in per request), ``"auto"``, a
        first-paint budget in milliseconds, or a :class:`LodConfig`.
        A bad value raises ``ValueError`` here, so ``serve --lod junk``
        fails at startup, not on the first request.
    config:
        Knob overrides (hierarchy sizes, refinement sweeps, distortion
        bound); the mode/budget fields come from each request.
    telemetry / validation / pool:
        The engine's metrics registry, invariant policy and compute
        pool (refinement chains run there).
    """

    def __init__(
        self,
        lod: "LodConfig | str | float | None" = None,
        config: LodConfig | None = None,
        *,
        telemetry,
        validation: ValidationPolicy,
        pool: TaskPool,
    ):
        self.config = config if config is not None else LodConfig()
        self.default = LodConfig.parse(lod)
        if self.default is not None and config is not None:
            self.default = replace(
                config, mode=self.default.mode, budget_ms=self.default.budget_ms
            )
        self.telemetry = telemetry
        self.validation = validation
        self._pool = pool
        self._states: "OrderedDict[tuple, _LodState]" = OrderedDict()
        self._states_lock = threading.Lock()
        self._max_states = 8
        self._cost_per_unit = 1e-4  # ms per (n*s + m) unit, EWMA-calibrated
        self._cost_lock = threading.Lock()
        self._closed = False

    def close(self) -> None:
        """Stop refinement chains at their next frame."""
        self._closed = True

    def mode(self, value: "LodConfig | str | float | None") -> LodConfig | None:
        """The effective config for a request's ``lod`` field (``None``
        falls back to the default); ``None`` means LOD is off.  Raises
        ``ValueError`` for a value :meth:`LodConfig.parse` rejects."""
        if value is None:
            return self.default
        parsed = LodConfig.parse(value)
        if parsed is None or isinstance(value, LodConfig):
            return parsed
        return replace(self.config, mode=parsed.mode, budget_ms=parsed.budget_ms)

    def stats(self) -> dict:
        """The ``lod`` section of the engine's ``/stats`` snapshot."""
        with self._states_lock:
            hierarchies = [
                state.hierarchy.sizes() for state in self._states.values()
            ]
        default = self.default
        return {
            "default": (
                "off"
                if default is None
                else (
                    default.mode
                    if default.budget_ms is None
                    else f"budget:{default.budget_ms:g}ms"
                )
            ),
            "min_vertices": self.config.min_vertices,
            "distortion_bound": self.config.distortion_bound,
            "hierarchies": hierarchies,
        }

    # -- first paint --------------------------------------------------------
    def serve(
        self,
        cfg: LodConfig,
        g: CSRGraph,
        kwargs: Mapping[str, Any],
        *,
        graph_key: tuple[str, int],
        shape: str,
        algorithm: Callable[..., LayoutResult],
        algorithm_name: str,
        call_kwargs: Mapping[str, Any],
        publish: Callable[[LayoutResult], str | None] | None,
        stale: Callable[[], bool],
    ) -> tuple[LayoutResult, str, str | None] | None:
        """First paint for one cache miss, or ``None`` when LOD does not
        apply (small graph, constrained request, flat hierarchy, depth 0).

        ``kwargs`` are the request's canonical kwargs and ``call_kwargs``
        the ``algorithm`` keywords they bind to.  ``graph_key`` is
        ``(digest, content version)``, with the request's seed the
        hierarchy's identity; ``shape`` identifies the request within
        it.  ``publish`` caches a
        frame under a fresh epoch and returns its fingerprint, or
        ``None`` when the graph's content moved (``publish=None`` for an
        in-memory graph: the record is the publication); ``stale`` tells
        a refinement chain to stop.  Returns ``(result, status,
        published fingerprint or None)``; a strict invariant failure
        raises :class:`~repro.validate.InvariantViolation`.
        """
        tel = self.telemetry
        if g.n < cfg.min_vertices:
            tel.inc("lod.bypass_small")
            return None
        if "constraints" in kwargs:
            # Pins/masses/region address finest vertex ids; prolonging
            # them through the hierarchy would only approximately honor
            # them.  Constrained requests get the exact (and warm-
            # restartable) direct path.
            tel.inc("lod.bypass_constrained")
            return None
        # The hierarchy is built with the request's seed, so it is keyed by it.
        state = self._state(cfg, g, (*graph_key, int(kwargs["seed"])))
        if state.hierarchy.depth == 0:
            # The graph would not coarsen (it starved the matching);
            # nothing progressive to serve.
            tel.inc("lod.flat_hierarchy")
            return None
        rec = state.record(shape)
        with rec.lock:
            if rec.best is not None:
                # A refinement already published; the cache miss just
                # means we raced the epoch bump -> cache put gap (or the
                # entry was evicted).  Serve the best in hand — never
                # something older.
                tel.inc("lod.best_served")
                return rec.best, "lod-hit", rec.best_fp
            depth = self._choose_depth(state.hierarchy, cfg, kwargs)
            if depth == 0:
                return None
            frames = progressive_layout(
                g,
                kwargs["s"],
                dims=int(kwargs.get("dims", 2)),
                seed=kwargs["seed"],
                algorithm=algorithm,
                algorithm_name=algorithm_name,
                config=cfg,
                hierarchy=state.hierarchy,
                start_depth=depth,
                params_echo=kwargs,
                **{
                    k: v
                    for k, v in call_kwargs.items()
                    if k not in ("s", "seed", "dims")
                },
            )
            t_paint = time.perf_counter()
            try:
                first = next(frames)
            except InvariantViolation:
                tel.inc("validation_failures")
                raise
            self._note_cost(
                state.hierarchy, depth, kwargs,
                (time.perf_counter() - t_paint) * 1000.0,
            )
            fp = self._publish(rec, first.result, publish)
            if not rec.chain_started:
                rec.chain_started = True
                self._schedule_chain(rec, frames, depth, publish, stale)
            return first.result, "computed", fp

    # -- internals ----------------------------------------------------------
    def _state(
        self, cfg: LodConfig, g: CSRGraph, key: tuple[str, int, int]
    ) -> _LodState:
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
            seed=key[-1],
            measure_limit=cfg.measure_limit,
        )
        self.telemetry.inc("lod.hierarchy_builds")
        self.telemetry.observe(
            "lod.hierarchy_build_seconds", time.perf_counter() - t0
        )
        check = check_lod_distortion(hierarchy, bound=cfg.distortion_bound)
        if not check.ok:
            self.telemetry.inc("lod.distortion_violations")
        self.validation.handle(check)
        state = _LodState(hierarchy)
        with self._states_lock:
            state = self._states.setdefault(key, state)
            self._states.move_to_end(key)
            while len(self._states) > self._max_states:
                self._states.popitem(last=False)
        return state

    def _choose_depth(
        self, hierarchy: LodHierarchy, cfg: LodConfig, kwargs: Mapping[str, Any]
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
        self,
        hierarchy: LodHierarchy,
        depth: int,
        kwargs: Mapping[str, Any],
        elapsed_ms: float,
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

    def _publish(
        self,
        rec: _Record,
        result: LayoutResult,
        publish: Callable[[LayoutResult], str | None] | None,
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
            if publish is None:
                # In-memory graphs have no engine-owned state to bump;
                # the record itself is the publication.
                return None
            fp = publish(result)
            if fp is None:
                self.telemetry.inc("lod.publish_stale")
                return None
            rec.best_fp = fp
            return fp

    def _schedule_chain(
        self,
        rec: _Record,
        frames: Iterator[ProgressiveFrame],
        depth: int,
        publish: Callable[[LayoutResult], str | None] | None,
        stale: Callable[[], bool],
    ) -> None:
        self.telemetry.gauge("lod.refine_backlog").add(depth)

        def run() -> None:
            self._refine_chain(rec, frames, depth, publish, stale)

        try:
            self._pool.submit(run)
        except PoolSaturated:
            # Refinement must not be lost to a momentarily full queue —
            # the first paint was already served promising convergence.
            threading.Thread(
                target=run, name="lod-refine", daemon=True
            ).start()

    def _refine_chain(
        self,
        rec: _Record,
        frames: Iterator[ProgressiveFrame],
        depth: int,
        publish: Callable[[LayoutResult], str | None] | None,
        stale: Callable[[], bool],
    ) -> None:
        """Drain the frame generator, publishing each refinement.

        The engine's ``publish`` fingerprints with the *request* kwargs
        (not the frame's params echo, which additionally carries
        quality_tier/lod records), so the published fingerprint matches
        what a future poll computes.
        """
        tel = self.telemetry
        gauge = tel.gauge("lod.refine_backlog")
        pending = depth
        try:
            for frame in frames:
                if self._closed or stale():
                    tel.inc("lod.refine_aborted")
                    return
                self._publish(rec, frame.result, publish)
                tel.inc("lod.refinements")
                pending -= 1
                gauge.add(-1)
            tel.inc("lod.converged")
        except Exception:  # noqa: BLE001 — background chain must not leak
            tel.inc("lod.refine_failures")
        finally:
            if pending > 0:
                gauge.add(-pending)
