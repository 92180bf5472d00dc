"""Stateful dynamic-layout sessions: repair vs. relayout orchestration.

A :class:`StreamSession` owns a :class:`~repro.stream.overlay.DynamicGraph`
plus the last frame's pivot-distance matrix ``B``, its pivots and the
ParHDE warm carrier (``result.warm``), and turns each
:class:`~repro.stream.delta.EdgeDelta` into a fresh frame:

1. apply the delta to the overlay;
2. *repair* ``B`` incrementally (:mod:`repro.stream.incremental`) when
   the policy allows, else run a *full relayout*;
3. hand ``B`` to :func:`repro.core.parhde` — every frame is one ParHDE
   run over ``B``: DOrtho → TripleProd → eigensolve, pins, region and
   validation exactly as in a cold layout, with only the BFS phase
   replaced by the stream's own traversal;
4. re-anchor the new frame onto the previous one with Procrustes
   alignment so successive frames don't flip or spin.

Repair vs. relayout policy (:class:`StreamPolicy`):

* ``drift_threshold`` — if the repaired ``B`` changed more than this
  fraction of its entries, the pivots themselves are presumed stale
  (k-centers picked them for the *old* metric) and a full relayout with
  re-pivoting runs instead.
* ``staleness_limit`` — after this many consecutive repairs a full
  relayout runs regardless, bounding accumulated pivot drift.  This
  relayout is *warm*: it keeps the previous pivot set and skips the
  farthest-first selection sweeps.

What each kind of frame hands to ``parhde`` (its ``warm_base``):

* drift or weighted relayout — nothing: a cold run on the compacted
  graph (weighted sessions traverse hop distances per source);
* staleness relayout — ``{"B", "pivots"}`` re-traversed from the kept
  pivots;
* repair — the repaired ``{"B", "pivots"}``;
* mass edit — ``{"B", "pivots"}`` (DOrtho re-runs under the new masses);
* pin or region edit — the previous frame's ``result.warm`` (basis
  reused; a drag reuses the deflated Gram products too).

Every kernel — including repair — records into the per-update
:class:`~repro.parallel.costs.Ledger` under the standard phase names,
so ``bfs_work_units`` comparisons between a streamed update and a
from-scratch run are apples-to-apples.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from ..bfs.batched import run_sources_batched
from ..bfs.runner import run_sources
from ..core.constraints import ConstraintSpec
from ..core.hde import parhde
from ..core.kernels import KernelConfig
from ..core.pivots import select_and_traverse
from ..core.result import LayoutResult
from ..graph.csr import CSRGraph
from ..metrics.procrustes import procrustes_align
from ..parallel.costs import Ledger
from ..validate import (
    ValidationPolicy,
    check_overlay_digest,
    check_repair_equivalence,
)
from .delta import EdgeDelta
from .incremental import repair_distances
from .overlay import DynamicGraph

__all__ = ["StreamPolicy", "StreamSession", "StreamUpdate", "bfs_work_units"]

#: The kernel fields a :class:`StreamSession` honours: pivots are always
#: k-centers and frames always project through ``S``.
_SESSION_KERNEL_FIELDS = ("ortho", "gs_method", "drop_tol", "traversal")

logger = logging.getLogger("repro.stream.session")


@dataclass(frozen=True)
class StreamPolicy:
    """Knobs of the repair-vs-relayout decision.

    Attributes
    ----------
    drift_threshold:
        Fraction of ``B`` entries a repair may change before the update
        escalates to a full relayout with fresh k-centers pivots.
    staleness_limit:
        Consecutive repairs tolerated before a warm full relayout
        (previous pivots, no selection sweeps) re-grounds the session.
    compact_threshold:
        Passed to :class:`~repro.stream.overlay.DynamicGraph` — overlay
        size (as a fraction of the base edge count) that triggers CSR
        compaction.
    """

    drift_threshold: float = 0.10
    staleness_limit: int = 64
    compact_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not (0.0 < self.drift_threshold <= 1.0):
            raise ValueError("drift_threshold must be in (0, 1]")
        if self.staleness_limit < 1:
            raise ValueError("staleness_limit must be >= 1")


@dataclass
class StreamUpdate:
    """One update's outcome: the new frame plus how it was produced."""

    epoch: int
    mode: str  # "repair" | "relayout" | "constraint"
    reason: str  # "repair" | "drift" | "staleness" | "weighted" | "pin" | ...
    coords: np.ndarray
    drift: float
    changed_entries: int
    edges_examined: int
    elapsed: float
    ledger: Ledger
    compacted: bool = False
    warm_pivots: bool = False
    applied_edits: int = 0
    skipped_edits: int = 0


def bfs_work_units(ledger: Ledger) -> float:
    """Modeled BFS-phase work units recorded in ``ledger``.

    This is the acceptance metric for streamed updates: repair work and
    full-traversal work both land in the ``"BFS"`` phase, priced with
    the same per-edge constants.
    """
    totals = ledger.phase_totals().get("BFS")
    return float(totals.combined.work) if totals is not None else 0.0


class StreamSession:
    """Dynamic-graph layout session over one evolving graph.

    Parameters
    ----------
    g:
        The starting graph (connected; use :func:`repro.graph.preprocess`
        first).  Weighted graphs are accepted but every update runs a
        full relayout — incremental repair covers hop distances only.
    s, dims, seed:
        Forwarded to :func:`repro.core.parhde` semantics.
    kernels:
        A :class:`~repro.core.kernels.KernelConfig` (or equivalent dict)
        that may set ``ortho``, ``gs_method``, ``drop_tol`` and
        ``traversal``; the session
        always selects k-centers pivots and projects through ``S``, so
        any other non-default field raises ``ValueError``.
    constraints:
        A :class:`~repro.core.constraints.ConstraintSpec` (or equivalent
        dict) of pins, masses and region, edited later through
        :meth:`pin`, :meth:`unpin` and :meth:`set_constraints`.
    policy:
        Repair-vs-relayout policy; default :class:`StreamPolicy`.
    layout:
        Optional previous :class:`~repro.core.result.LayoutResult` for
        ``g`` to adopt instead of computing the initial frame (it must
        carry ``B``, ``S`` and pivots — see ``save_layout``'s
        ``include_subspace``).
    validation:
        Invariant-checking policy (:mod:`repro.validate`): ``None`` /
        ``"off"`` (default), ``"warn"``, ``"strict"`` or a configured
        :class:`~repro.validate.ValidationPolicy`.  Checks run inside
        ``update``'s try block, so a strict violation rolls the graph
        and layout state back before propagating.  Deep (strict-level)
        checks re-traverse from the pivots after every repair — exact
        but expensive; use ``warn`` for production streams.
    wal:
        Optional :mod:`repro.wal` directory (or an open
        :class:`~repro.wal.WriteAheadLog`).  The WAL journals each delta
        / constraint edit as an O(delta) append and checkpoints a full
        snapshot (frame + graph archives) every ``wal_snapshot_every``
        updates, compacting the journal behind it.  Resume with
        :meth:`resume_wal`.  A failed checkpoint is logged once, counted
        in ``stats["checkpoint_failures"]`` and absorbed — persistence
        must not kill the stream it protects.
    wal_fsync / wal_snapshot_every:
        Journal durability policy (``"always"``/``"batch"``/``"off"``)
        and checkpoint cadence in journaled updates.
    """

    def __init__(
        self,
        g: CSRGraph,
        s: int = 10,
        *,
        dims: int = 2,
        seed: int = 0,
        policy: StreamPolicy | None = None,
        kernels: KernelConfig | dict | None = None,
        constraints: ConstraintSpec | dict | None = None,
        layout: LayoutResult | None = None,
        validation: ValidationPolicy | str | None = None,
        wal=None,
        wal_fsync: str = "batch",
        wal_snapshot_every: int = 16,
        telemetry=None,
        _wal_replay: list | None = None,
    ):
        self.policy = policy if policy is not None else StreamPolicy()
        self.validation = ValidationPolicy.coerce(validation)
        self.dyn = DynamicGraph(
            g, compact_threshold=self.policy.compact_threshold
        )
        self.s = int(s)
        self.dims = int(dims)
        self.seed = int(seed)
        self.kernels = KernelConfig.coerce(kernels)
        self.kernels.require_only(_SESSION_KERNEL_FIELDS, "StreamSession")
        self.telemetry = telemetry
        self._spec = ConstraintSpec.coerce(constraints)
        self._spec.validate_for(g.n, self.dims)
        self._fallback_warned = False
        #: Successful updates applied so far (the session's frame number).
        self.epoch = 0
        self._since_full = 0
        self.stats = {
            "updates": 0,
            "repairs": 0,
            "relayouts": 0,
            "constraint_updates": 0,
            "repair_fallbacks": 0,
            "checkpoint_failures": 0,
        }
        self._checkpoint_warned = False
        if layout is not None:
            self._adopt(g, layout)
        else:
            self.coords = self._frame(None, None).coords
        self._wal = None
        self._wal_suppress = False
        self._wal_snapshot_every = max(1, int(wal_snapshot_every))
        if wal is not None:
            from ..wal import WriteAheadLog

            self._wal = (
                wal
                if isinstance(wal, WriteAheadLog)
                else WriteAheadLog(wal, fsync=wal_fsync, telemetry=telemetry)
            )
        if _wal_replay:
            # Records journaled after the snapshot this session was
            # constructed from (resume_wal): re-apply them through the
            # normal update paths with journaling suppressed — they are
            # already in the log.
            self._wal_suppress = True
            try:
                for record in _wal_replay:
                    try:
                        self._replay_wal_record(record)
                    except Exception as exc:  # noqa: BLE001 — stop at tear
                        logger.warning(
                            "stream WAL replay stopped at lsn %s (%s); the"
                            " session resumes from the %d updates before it",
                            record.get("lsn"), exc, self.epoch,
                        )
                        break
            finally:
                self._wal_suppress = False
        if self._wal is not None:
            # Checkpoint the constructed (or resumed) state: the WAL dir
            # is self-contained from birth, and a resume compacts the
            # records it just replayed.
            self._wal_snapshot()

    @classmethod
    def from_layout(cls, g: CSRGraph, path, **kwargs) -> "StreamSession":
        """Warm-start a session from a saved layout archive.

        The archive must have been written with
        ``save_layout(..., include_subspace=True)`` (the default); slim
        archives raise a clear error.
        """
        from ..core.serialize import load_layout

        result = load_layout(path)
        return cls(g, layout=result, **kwargs)

    @classmethod
    def resume_wal(
        cls, g: CSRGraph, wal_dir, *, wal_fsync: str = "batch", **kwargs
    ) -> "StreamSession":
        """Resume from (or start journaling to) a WAL directory.

        ``g`` is the stream's *initial* graph; it seeds a fresh session
        when the directory is empty, and the whole journal replays onto
        it when no checkpoint was ever written (the journal then starts
        at LSN 1).  Otherwise the newest checkpoint's graph + frame
        archives restore the last snapshotted state and the
        post-snapshot journal records replay on top — O(snapshot +
        recent deltas), not O(stream history).  An unreadable checkpoint
        falls back to a fresh session on ``g`` (with a warning): the
        journal alone cannot reconstruct state older than its compaction
        floor.
        """
        from ..core.serialize import load_layout
        from ..graph.io import load_npz
        from ..wal import WriteAheadLog

        log = WriteAheadLog(
            wal_dir, fsync=wal_fsync, telemetry=kwargs.get("telemetry")
        )
        replay = log.replay()
        base_g, layout, records = g, None, []
        if replay.snapshot is not None:
            # Older logs named the archives in the payload itself.
            files = replay.files or {
                f"{key}.npz": Path(wal_dir) / replay.snapshot.get(key, "")
                for key in ("graph", "frame")
            }
            try:
                base_g = load_npz(files["graph.npz"])
                layout = load_layout(files["frame.npz"])
                records = [
                    r
                    for r in replay.records
                    if int(r.get("lsn", 0)) > replay.floor
                ]
            except (OSError, ValueError, KeyError) as exc:
                logger.warning(
                    "cannot restore stream checkpoint from %s (%s);"
                    " starting fresh", wal_dir, exc,
                )
                base_g, layout, records = g, None, []
        elif replay.records and int(replay.records[0].get("lsn", 0)) == 1:
            # No checkpoint ever landed, but nothing was compacted
            # either: the journal is whole and replays onto ``g``.
            records = replay.records
        elif replay.records:
            # The only checkpoint was corrupt (and quarantined) after
            # compaction dropped the records below it.
            logger.warning(
                "stream WAL in %s has no readable checkpoint and its"
                " journal starts at lsn %s; starting fresh",
                wal_dir, replay.records[0].get("lsn"),
            )
        return cls(base_g, layout=layout, wal=log, _wal_replay=records, **kwargs)

    def _replay_wal_record(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "update":
            self.update(
                EdgeDelta.from_json(record.get("delta") or {}),
                strict=bool(record.get("strict", True)),
            )
        elif rtype == "constraints":
            self.set_constraints(record.get("spec") or {})
        else:
            raise ValueError(f"unknown stream WAL record type {rtype!r}")

    def _journal(self, record: dict) -> None:
        """Append one record before its update commits.

        Called inside the rollback ``try``: a failed append (``OSError``)
        leaves the session exactly as it was, so the caller may retry.
        """
        if self._wal is not None and not self._wal_suppress:
            self._wal.append(record)

    def _checkpoint_on_cadence(self) -> None:
        """After a commit: checkpoint once enough records accumulated."""
        if (
            self._wal is not None
            and not self._wal_suppress
            and self._wal.appends_since_snapshot >= self._wal_snapshot_every
        ):
            self._wal_snapshot()

    def _wal_snapshot(self) -> None:
        """Checkpoint frame + graph archives and compact the journal."""
        from ..core.serialize import save_layout
        from ..graph.io import save_npz

        if self._wal is None:
            return
        try:
            self._wal.snapshot(
                {"epoch": self.epoch},
                files={
                    "frame.npz": partial(save_layout, self.snapshot_result()),
                    "graph.npz": partial(save_npz, self.graph),
                },
            )
        except OSError as exc:
            # Persistence must not kill the stream it protects (the
            # journal itself is still intact).  Log once: a broken
            # directory would otherwise warn on every checkpoint; the
            # counter keeps later failures observable.
            self.stats["checkpoint_failures"] += 1
            if self.telemetry is not None:
                self.telemetry.inc("stream.checkpoint_failures")
            if not self._checkpoint_warned:
                self._checkpoint_warned = True
                logger.warning(
                    "stream WAL checkpoint in %s failed: %s (logged once;"
                    " failures counted in stats['checkpoint_failures'])",
                    self._wal.dir, exc,
                )

    def wal_stats(self) -> dict | None:
        """The journal's counter snapshot, or ``None`` without a WAL."""
        return self._wal.stats() if self._wal is not None else None

    def close(self) -> None:
        """Flush and close the WAL (no-op for journal-less sessions)."""
        if self._wal is not None:
            self._wal.close()

    def _adopt(self, g: CSRGraph, layout: LayoutResult) -> None:
        B = np.asarray(layout.B, dtype=np.float64)
        S = np.asarray(layout.S, dtype=np.float64)
        pivots = np.asarray(layout.pivots, dtype=np.int64)
        if B.size == 0 or S.size == 0 or pivots.size == 0:
            raise ValueError(
                "layout archive lacks the subspace (B/S/pivots); re-save"
                " with include_subspace=True to warm-start a session"
            )
        if B.shape[0] != g.n or S.shape[0] != g.n:
            raise ValueError(
                f"layout is for a {B.shape[0]}-vertex graph,"
                f" got one with {g.n} vertices"
            )
        if len(pivots) != B.shape[1]:
            raise ValueError("pivot count does not match B's columns")
        self.coords = np.array(layout.coords, dtype=np.float64)
        self.B = np.array(B)
        self.pivots = pivots
        self.eigenvalues = np.asarray(layout.eigenvalues, dtype=np.float64)
        self.s = B.shape[1]
        dropped = set(int(i) for i in np.asarray(layout.dropped).ravel())
        self._warm = {
            "S": np.array(S),
            "kept": [i for i in range(self.s) if i not in dropped],
            "pivots": pivots,
        }
        for key in ("dims", "seed"):
            if key in layout.params:
                setattr(self, key, layout.params[key])
        self.dims = int(self.dims)
        self.kernels = replace(
            self.kernels,
            **{
                k: layout.params[k]
                for k in _SESSION_KERNEL_FIELDS
                if k in layout.params
            },
        )
        self.epoch = int(layout.params.get("stream_epoch", 0))
        spec = ConstraintSpec.coerce(layout.params.get("constraints"))
        spec.validate_for(g.n, self.dims)
        self._spec = spec

    # -- public API --------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The current graph, materialized (cached by the overlay)."""
        return self.dyn.to_csr()

    @property
    def n(self) -> int:
        return self.dyn.n

    @property
    def S(self) -> np.ndarray:
        """The current frame's pre-deflation basis (``result.warm["S"]``)."""
        return self._warm["S"]

    @property
    def constraints(self) -> ConstraintSpec:
        """The session's active constraint set (pins, masses, region)."""
        return self._spec

    # -- constraint edits ---------------------------------------------------
    def pin(self, vertex: int, pos) -> StreamUpdate:
        """Pin (or drag) one vertex to ``pos`` and emit the next frame.

        A pin/drag is just another delta: the existing basis is reused
        (deflation products too when the *set* of pinned vertices is
        unchanged — the drag case), so the frame costs a small eigensolve
        plus a carrier solve instead of BFS + orthogonalization.
        """
        pins = dict(self._spec.pins)
        pins[int(vertex)] = tuple(float(c) for c in pos)
        return self.set_constraints(
            ConstraintSpec(
                pins=pins, masses=self._spec.masses, region=self._spec.region
            ),
            _reason="pin",
        )

    def unpin(self, vertex: int | None = None) -> StreamUpdate:
        """Release one pinned vertex (or all of them) and re-relax."""
        pins = dict(self._spec.pins)
        if vertex is None:
            pins.clear()
        else:
            pins.pop(int(vertex), None)
        return self.set_constraints(
            ConstraintSpec(
                pins=pins, masses=self._spec.masses, region=self._spec.region
            ),
            _reason="unpin",
        )

    def set_constraints(
        self,
        constraints: ConstraintSpec | dict | None = None,
        *,
        _reason: str = "constraints",
    ) -> StreamUpdate:
        """Replace the session's constraint set and emit the next frame.

        The graph is untouched, so no BFS runs.  Mass changes alter the
        orthogonalization inner product, so DOrtho re-runs on ``B``;
        pure pin/region edits reuse the basis as-is (and a drag — same
        pin set, new coordinates — additionally reuses the deflated Gram
        products).  Rolls back on failure like :meth:`update`.
        """
        t0 = time.perf_counter()
        spec = ConstraintSpec.coerce(constraints)
        spec.validate_for(self.n, self.dims)
        led = Ledger()
        prev = (self.coords, self.eigenvalues, self._warm, self._spec)
        masses_changed = spec.masses != self._spec.masses
        self._spec = spec
        try:
            warm = (
                {"B": self.B, "pivots": self.pivots}
                if masses_changed
                else self._warm
            )
            self.coords = self._place(self._frame(led, warm).coords)
            self._journal(
                {"type": "constraints", "spec": spec.to_params(),
                 "reason": _reason}
            )
        except Exception:
            (self.coords, self.eigenvalues, self._warm, self._spec) = prev
            raise
        self.epoch += 1
        self.stats["constraint_updates"] += 1
        self._checkpoint_on_cadence()
        return StreamUpdate(
            epoch=self.epoch,
            mode="constraint",
            reason=_reason,
            coords=self.coords,
            drift=0.0,
            changed_entries=0,
            edges_examined=0,
            elapsed=time.perf_counter() - t0,
            ledger=led,
        )

    def update(self, delta: EdgeDelta, *, strict: bool = True) -> StreamUpdate:
        """Apply one delta batch and produce the next frame.

        Raises ``ValueError`` (after rolling the graph and layout state
        back) when the delta would disconnect the graph — layouts are
        defined for connected graphs only.  A failed WAL append rolls
        back the same way and propagates its ``OSError``.
        """
        t0 = time.perf_counter()
        led = Ledger()
        prev = (self.coords, self.B.copy(), self.pivots, self.eigenvalues,
                self._warm)
        applied = self.dyn.apply(delta, strict=strict)
        try:
            if self.dyn.is_weighted:
                out = self._relayout(led, "weighted")
            elif self._since_full + 1 >= self.policy.staleness_limit:
                out = self._relayout(led, "staleness", keep_pivots=True)
            else:
                out = self._try_repair(led, applied)
            self._journal(
                {"type": "update", "delta": delta.to_json(),
                 "strict": bool(strict)}
            )
        except Exception:
            # Roll back: reinstate the pre-update graph and layout state.
            (self.coords, self.B, self.pivots, self.eigenvalues,
             self._warm) = prev
            self.dyn.apply(applied.inverse(), strict=False)
            raise
        self.epoch += 1
        self.stats["updates"] += 1
        if out.mode == "repair":
            self._since_full += 1
            self.stats["repairs"] += 1
        else:
            self._since_full = 0
            self.stats["relayouts"] += 1
        if self.dyn.is_weighted:
            # Incremental repair covers hop distances only; make the
            # silent degradation observable (committed updates only).
            self.stats["repair_fallbacks"] += 1
            if self.telemetry is not None:
                self.telemetry.inc("stream.repair_fallbacks")
            if not self._fallback_warned:
                self._fallback_warned = True
                logger.warning(
                    "weighted session: incremental repair unavailable,"
                    " every update runs a full traversal (counted in"
                    " stats['repair_fallbacks'])"
                )
        out.epoch = self.epoch
        out.elapsed = time.perf_counter() - t0
        out.applied_edits = applied.size
        out.skipped_edits = applied.skipped
        out.compacted = self.dyn.maybe_compact() or out.compacted
        self._checkpoint_on_cadence()
        return out

    def snapshot_result(self) -> LayoutResult:
        """The current frame as a :class:`LayoutResult` (serializable)."""
        return LayoutResult(
            coords=self.coords,
            algorithm="parhde",
            B=self.B,
            S=self.S,
            eigenvalues=self.eigenvalues,
            pivots=self.pivots,
            dropped=[
                i
                for i in range(self.B.shape[1])
                if i not in self._warm["kept"]
            ],
            params=self._snapshot_params(),
        )

    def _snapshot_params(self) -> dict:
        params = dict(
            s=self.s,
            dims=self.dims,
            seed=self.seed,
            pivots="kcenters",
            ortho=self.kernels.ortho,
            gs_method=self.kernels.gs_method,
            project_basis="S",
            drop_tol=self.kernels.drop_tol,
            traversal=self.kernels.traversal,
            stream_epoch=self.epoch,
        )
        if not self._spec.is_trivial:
            params["constraints"] = self._spec.to_params()
        return params

    # -- frames ------------------------------------------------------------
    def _frame(self, led: Ledger | None, warm: dict | None) -> LayoutResult:
        """Run ParHDE on the current graph — the one way a frame is built.

        ``warm`` is ``None`` (the session's first frame),
        ``{"B", "pivots"}`` (BFS is skipped) or the previous
        ``result.warm`` (BFS and DOrtho are skipped).  The returned warm
        carrier becomes the session's basis state; the caller places the
        coordinates.
        """
        res = parhde(
            self.dyn.to_csr(),
            self.s,
            dims=self.dims,
            seed=self.seed,
            kernels=self.kernels,
            constraints=self._spec if not self._spec.is_trivial else None,
            warm_base=warm,
            ledger=led,
            validate=self.validation,
        )
        if warm is None or "B" in warm:
            self.B = res.B
            self.pivots = np.asarray(res.pivots, dtype=np.int64)
        self._warm = res.warm
        self.eigenvalues = res.eigenvalues
        return res

    def _try_repair(self, led: Ledger, applied) -> StreamUpdate:
        with led.phase("BFS"):
            rep = repair_distances(
                self.dyn,
                self.B,
                self.pivots,
                applied.inserted,
                applied.deleted,
                ledger=led,
            )
        if rep.disconnected:
            raise ValueError(
                "delta disconnects the graph; layouts require a connected"
                " graph (update rolled back)"
            )
        if rep.drift > self.policy.drift_threshold:
            # B is already repaired (and exact), but the pivots were
            # chosen for the old metric — re-pivot from scratch.
            return self._relayout(led, "drift", drift=rep.drift)

        if self.validation.enabled and self.validation.run_deep:
            # Exact-repair contract: the repaired B must equal fresh
            # traversals from the same pivots on the post-delta graph,
            # and the overlay's two read paths must agree.  Raising here
            # is inside update()'s try block, so state rolls back.
            self.validation.handle(check_overlay_digest(self.dyn))
            self.validation.handle(
                check_repair_equivalence(self.dyn.to_csr(), self.B, self.pivots)
            )

        warm = {"B": self.B, "pivots": self.pivots}
        self.coords = self._place(self._frame(led, warm).coords)
        return StreamUpdate(
            epoch=self.epoch,
            mode="repair",
            reason="repair",
            coords=self.coords,
            drift=rep.drift,
            changed_entries=int(rep.changed.sum()),
            edges_examined=rep.edges_examined,
            elapsed=0.0,
            ledger=led,
        )

    def _relayout(
        self,
        led: Ledger,
        reason: str,
        *,
        keep_pivots: bool = False,
        drift: float = 0.0,
    ) -> StreamUpdate:
        """Compact the overlay, re-traverse, and lay out the new ``B``.

        ``keep_pivots`` (staleness) re-traverses from the current pivots
        and skips k-centers selection; otherwise fresh k-centers pivots
        are selected exactly as a cold ``parhde`` selects them.
        """
        self.dyn.compact()
        g = self.dyn.base
        warm_pivots = bool(
            keep_pivots and not g.is_weighted and len(self.pivots) == self.s
        )
        # Weighted sessions lay out hop distances, traversed per source.
        traversal = "per-source" if g.is_weighted else self.kernels.traversal
        with led.phase("BFS"):
            if not warm_pivots:
                ms = select_and_traverse(
                    g,
                    self.s,
                    strategy="kcenters",
                    traversal=traversal,
                    seed=self.seed,
                    ledger=led,
                )
            elif traversal == "batched":
                ms = run_sources_batched(g, self.pivots, ledger=led)
            else:
                ms = run_sources(g, self.pivots, ledger=led)
        if ms.distances.min() < 0:
            raise ValueError(
                "delta disconnects the graph; layouts require a connected"
                " graph (update rolled back)"
            )
        warm = {"B": ms.distances, "pivots": ms.sources}
        self.coords = self._place(self._frame(led, warm).coords)
        return StreamUpdate(
            epoch=self.epoch,
            mode="relayout",
            reason=reason,
            coords=self.coords,
            drift=drift,
            changed_entries=0,
            edges_examined=0,
            elapsed=0.0,
            ledger=led,
            compacted=True,
            warm_pivots=warm_pivots,
        )

    def _place(self, coords: np.ndarray) -> np.ndarray:
        """Anchor/clamp a new frame according to the constraint set.

        Pinned frames skip Procrustes — the pins fix the gauge, and any
        rigid motion would move them off their bitwise positions.  The
        region re-clamps after anchoring (idempotent, so an in-region
        frame is untouched).
        """
        if self._spec.has_pins:
            return coords
        return self._spec.clamp(self._anchor(coords))

    def _anchor(self, coords: np.ndarray) -> np.ndarray:
        """Procrustes-align the new frame onto the previous one."""
        try:
            return procrustes_align(coords, self.coords).aligned
        except ValueError:
            return coords
