"""The degradation ladder: always return *a* layout, on time.

The paper's pitch is interactivity; the serving stack's promise is that
a request always gets an answer within its deadline.  When the full
pipeline cannot deliver — a phase stalls past its budget, a kernel
fails, the subspace collapses — :func:`resilient_layout` walks an
explicit ladder of cheaper approximations the repo already contains,
instead of timing out empty-handed:

1. **full** — the requested algorithm with the requested parameters,
   run under a sub-deadline with per-phase budgets
   (:mod:`repro.resilience.deadline`) and retried on transient failures
   with a fresh seed / larger subspace
   (:mod:`repro.resilience.retry`).
2. **reduced** — ParHDE with half the pivots, random pivot selection
   (no sequential farthest-first sweeps) and CGS orthogonalization —
   the cheap end of the paper's own Table 6/7 trade-offs.
3. **coarse** — the multilevel pipeline
   (:func:`repro.multilevel.multilevel_layout`): ParHDE on a
   heavy-edge-matching coarsening, prolonged with a couple of
   refinement sweeps — quality comparable to a minibatch/SGD
   approximate embedding at a fraction of the cost.
4. **baseline** — a deterministic random layout.  Zero information,
   zero failure modes, microsecond cost: the rung that guarantees the
   ladder terminates with a ``LayoutResult`` no matter what burns.

Every result is tagged: ``result.params["quality_tier"]`` names the
rung that produced it and ``result.params["resilience"]`` records the
rungs taken, retries spent and time remaining, so callers (and the
``/stats`` telemetry) can see degradation happening rather than
guessing from latency.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..core.hde import parhde
from ..core.result import LayoutResult
from ..graph.csr import CSRGraph
from .deadline import (
    DEFAULT_PHASE_FRACTIONS,
    Deadline,
    DeadlineExceeded,
)
from .retry import RetryPolicy, with_retry

__all__ = [
    "QUALITY_TIERS",
    "baseline_layout",
    "is_lod_tier",
    "resilient_layout",
    "tier_rank",
]

#: Quality tiers, best first.  ``"full"`` is the only tier the serving
#: cache stores; everything below is a per-request answer.
QUALITY_TIERS = ("full", "reduced", "coarse", "baseline")


def is_lod_tier(tier: str) -> bool:
    """True for the progressive tiers (``"lod-1"``, ``"lod-2"``, ...).

    LOD tiers are *transient* approximations on the way to ``"full"``
    (:mod:`repro.lod`), distinct from the degradation tiers above which
    mark a pipeline that could not deliver.
    """
    return str(tier).startswith("lod-")


def tier_rank(tier: str) -> int:
    """Total order over quality tiers: lower is better, ``"full"`` is 0.

    Progressive tiers rank by their hierarchy depth (``"lod-2"`` is
    coarser — worse — than ``"lod-1"``); the degradation tiers rank
    below every realistic LOD depth.  Callers use this to enforce
    monotone quality (never replace a served layout with a coarser one).
    """
    tier = str(tier)
    if tier == "full":
        return 0
    if is_lod_tier(tier):
        try:
            return max(1, int(tier[4:]))
        except ValueError:
            return 999
    if tier in QUALITY_TIERS:
        return 1000 + QUALITY_TIERS.index(tier)
    return 9999


def _rank_deficient(exc: BaseException) -> bool:
    """The ``s`` too-few-independent-vectors failure (fixable: raise s)."""
    return isinstance(exc, ValueError) and "independent distance vectors" in str(exc)


def baseline_layout(
    g: CSRGraph, *, dims: int = 2, seed: int = 0
) -> LayoutResult:
    """Deterministic random layout — the ladder's unconditional floor.

    Also what the engine serves inline when a circuit breaker is open:
    no pivots, no traversals, no linear algebra, nothing left to fail.
    """
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((g.n, dims))
    return LayoutResult(
        coords=coords,
        algorithm="baseline-random",
        B=np.zeros((g.n, 0)),
        S=np.zeros((g.n, 0)),
        eigenvalues=np.zeros(dims),
        pivots=np.zeros(0, dtype=np.int64),
        params=dict(dims=dims, seed=seed, quality_tier="baseline"),
    )


def _tag(
    result: LayoutResult,
    tier: str,
    rungs: list[dict],
    retries: int,
    deadline: Deadline | None,
) -> LayoutResult:
    result.params["quality_tier"] = tier
    result.params["resilience"] = {
        "rungs": rungs,
        "retries": retries,
        "deadline_seconds": deadline.seconds if deadline is not None else None,
        "remaining_seconds": (
            deadline.remaining() if deadline is not None else None
        ),
    }
    return result


def resilient_layout(
    g: CSRGraph,
    s: int = 10,
    *,
    algorithm: Callable[..., LayoutResult] = parhde,
    dims: int = 2,
    seed: int = 0,
    deadline: Deadline | float | None = None,
    retry: RetryPolicy | None = None,
    telemetry=None,
    min_s: int = 3,
    rung_fraction: float = 0.55,
    **params: Any,
) -> LayoutResult:
    """Compute a layout, degrading down the ladder as needed.

    Parameters
    ----------
    algorithm:
        The layout solver of rung 1 (default :func:`~repro.core.parhde`).
        It takes the solver contract of ``parhde``, ``phde`` and
        ``pivotmds``; the rung's sub-deadline is always passed as
        ``deadline=``.
    deadline:
        Total wall-clock budget — a configured
        :class:`~repro.resilience.deadline.Deadline` or plain seconds.
        ``None`` means rungs only descend on *failure*, never on time.
    retry:
        Transient-failure policy for each rung (default:
        :class:`~repro.resilience.retry.RetryPolicy` extended with
        eigensolver/rank-deficiency restarts).  Retries restart with a
        fresh seed and, for rank deficiency, a larger subspace.
    telemetry:
        Optional :class:`~repro.service.telemetry.Telemetry` (duck-typed
        ``inc``) for retry/degradation counters.
    rung_fraction:
        Share of the *remaining* deadline each non-final rung may
        spend, reserving the rest for its fallbacks.
    **params:
        Passed to the primary algorithm (``kernels``, ``constraints``,
        ``validate``, ...).

    Returns
    -------
    LayoutResult
        Tagged with ``params["quality_tier"]`` (one of
        :data:`QUALITY_TIERS`) and a ``params["resilience"]`` record of
        the rungs walked.
    """
    if isinstance(deadline, (int, float)):
        deadline = Deadline(float(deadline))
    primary_name = getattr(algorithm, "__name__", "layout")

    base = retry if retry is not None else RetryPolicy()
    extra_should = base.should_retry
    policy = replace(
        base,
        retryable=tuple(base.retryable) + (np.linalg.LinAlgError, FloatingPointError),
        should_retry=lambda exc: _rank_deficient(exc)
        or (extra_should is not None and extra_should(exc)),
    )

    s = int(s)
    s_cap = max(dims, g.n - 1)
    retries = 0
    rungs: list[dict] = []

    def _count_retry(attempt: int, exc: BaseException, pause: float) -> None:
        nonlocal retries
        retries += 1
        if telemetry is not None:
            telemetry.inc("resilience.retries")

    def run_full(attempt: int, dl: Deadline | None) -> LayoutResult:
        kwargs = dict(params)
        kwargs.setdefault("dims", dims)
        kwargs["seed"] = seed if attempt == 0 else seed + 1000 * attempt
        s_eff = s if attempt == 0 else min(s_cap, s + 4 * attempt)
        return algorithm(g, s_eff, deadline=dl, **kwargs)

    def run_reduced(attempt: int, dl: Deadline | None) -> LayoutResult:
        s_red = min(s_cap, max(min_s, dims + 1, s // 2))
        return parhde(
            g,
            s_red,
            dims=dims,
            seed=seed + 1 + attempt,
            kernels={"pivots": "random", "gs_method": "cgs"},
            deadline=dl,
        )

    def run_coarse(attempt: int, dl: Deadline | None) -> LayoutResult:
        from ..multilevel.layout import multilevel_layout

        s_coarse = min(s_cap, max(min_s, dims + 1, s // 2))
        return multilevel_layout(
            g,
            s_coarse,
            dims=dims,
            seed=seed + attempt,
            refine_sweeps=2,
            deadline=dl,
        ).layout

    def run_baseline(attempt: int, dl: Deadline | None) -> LayoutResult:
        return baseline_layout(g, dims=dims, seed=seed)

    ladder: list[tuple[str, str, Callable[[int, Deadline | None], LayoutResult]]] = [
        ("full", primary_name, run_full),
        ("reduced", "parhde-reduced-cgs", run_reduced),
        ("coarse", "multilevel-coarse", run_coarse),
        ("baseline", "random-baseline", run_baseline),
    ]

    for i, (tier, name, runner) in enumerate(ladder):
        final = i == len(ladder) - 1
        record = {"rung": name, "tier": tier, "outcome": "skipped", "detail": ""}
        rungs.append(record)
        sub: Deadline | None = None
        if deadline is not None and not final:
            if deadline.expired():
                record["detail"] = "deadline already exceeded"
                continue
            # Full/reduced run the phase pipeline: give them per-phase
            # budgets so one stalled phase aborts the rung early.
            fractions = DEFAULT_PHASE_FRACTIONS if tier in ("full", "reduced") else None
            sub = deadline.sub(rung_fraction, phase_fractions=fractions)
        t0 = time.perf_counter()
        try:
            result = with_retry(
                lambda attempt: runner(attempt, sub),
                policy=policy,
                deadline=sub,
                seed=seed + 31 * i,
                on_retry=_count_retry,
            )
        except DeadlineExceeded as exc:
            record["outcome"] = "overrun"
            record["detail"] = str(exc)
            record["elapsed"] = time.perf_counter() - t0
            continue
        except Exception as exc:  # noqa: BLE001 — descend to the next rung
            if final:
                raise  # the baseline cannot fail; if it did, surface it
            record["outcome"] = "failed"
            record["detail"] = f"{type(exc).__name__}: {exc}"
            record["elapsed"] = time.perf_counter() - t0
            continue
        record["outcome"] = "ok"
        record["elapsed"] = time.perf_counter() - t0
        if telemetry is not None and tier != "full":
            telemetry.inc(f"resilience.degraded.{tier}")
        return _tag(result, tier, rungs, retries, deadline)

    raise AssertionError("unreachable: the baseline rung always returns")
