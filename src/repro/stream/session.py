"""Stateful dynamic-layout sessions: repair vs. relayout orchestration.

A :class:`StreamSession` owns a :class:`~repro.stream.overlay.DynamicGraph`
plus the last layout's intermediates (``B``, ``S``, pivots, axes) and
turns each :class:`~repro.stream.delta.EdgeDelta` into a fresh frame:

1. apply the delta to the overlay;
2. *repair* the pivot-distance matrix ``B`` incrementally
   (:mod:`repro.stream.incremental`) when the policy allows, else run a
   *full relayout*;
3. rebuild the downstream pipeline (DOrtho → TripleProd → eigensolve)
   on the repaired ``B`` — the Laplacian product uses the base CSR plus
   a sparse per-edge overlay correction, so no CSR rebuild happens on
   the hot path;
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

Warm starts:

* Staleness relayouts reuse the previous pivots (``run_sources``),
  skipping k-centers selection; drift relayouts re-pivot from scratch.
* With ``kernels={"ortho": "plain"}`` the orthogonalization is
  degree-free, so the leading ``S`` columns whose ``B`` columns the
  repair left untouched are reused verbatim and MGS continues from
  there.  (``ortho="D"`` cannot reuse: any structural edit perturbs the
  weighted degrees and with them every D-inner product.)
* The small eigensolve warm-starts from the previous axes ``Y``: if the
  previous subspace is still (numerically) invariant under the new
  projected matrix ``Z``, its Ritz pairs are accepted without a fresh
  Jacobi sweep.

Every kernel — including repair and the overlay correction — records
into the per-update :class:`~repro.parallel.costs.Ledger` under the
standard phase names, so ``bfs_work_units`` comparisons between a
streamed update and a from-scratch run are apples-to-apples.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
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
from ..graph.gaps import miss_rate
from ..linalg import blas
from ..linalg.blas import dense_gemm
from ..linalg.eigen import extreme_eigenpairs
from ..linalg.gram_schmidt import OrthoResult, d_orthogonalize
from ..linalg.laplacian import laplacian_spmm
from ..metrics.procrustes import procrustes_align
from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import F64, I64, map_cost, random_lines_for
from ..validate import (
    ValidationPolicy,
    check_d_orthogonality,
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
    warm_ortho_cols: int = 0
    warm_eigensolve: bool = False
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
        #: Cached Gram products keyed to the *current* base basis: the
        #: pin-deflated (pin_set, S_c, Z_c) triple and/or the plain Z.
        #: Cleared whenever the basis is rebuilt (any graph change).
        self._warm_extra: dict = {}
        self._fallback_warned = False
        #: Successful updates applied so far (the session's frame number).
        self.epoch = 0
        self._since_full = 0
        self.stats = {
            "updates": 0,
            "repairs": 0,
            "relayouts": 0,
            "warm_eigensolves": 0,
            "constraint_updates": 0,
            "repair_fallbacks": 0,
            "checkpoint_failures": 0,
        }
        self._checkpoint_warned = False
        if layout is not None:
            self._adopt(g, layout)
        else:
            res = parhde(
                g,
                self.s,
                dims=self.dims,
                seed=self.seed,
                kernels=self.kernels,
                constraints=self._spec if not self._spec.is_trivial else None,
                validate=self.validation,
            )
            self.coords = res.coords
            self.B = res.B
            self.pivots = np.asarray(res.pivots, dtype=np.int64)
            self.eigenvalues = res.eigenvalues
            if res.warm is not None:
                # Keep the *pre-deflation* basis: repairs, warm prefixes
                # and snapshots all operate on it; deflation products
                # ride separately in _warm_extra.
                self.S = np.asarray(res.warm["S"], dtype=np.float64)
                self._kept = [int(i) for i in res.warm["kept"]]
                self._warm_extra = {
                    k: res.warm[k] for k in ("deflated", "Z") if k in res.warm
                }
            else:
                self.S = res.S
                dropped = set(res.dropped)
                self._kept = [
                    i for i in range(self.B.shape[1]) if i not in dropped
                ]
        self._Y: np.ndarray | None = None
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
            try:
                base_g = load_npz(Path(wal_dir) / replay.snapshot["graph"])
                layout = load_layout(Path(wal_dir) / replay.snapshot["frame"])
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
        """Append one record (update ack path); checkpoint on cadence."""
        if self._wal is None or self._wal_suppress:
            return
        self._wal.append(record)
        if self._wal.appends_since_snapshot >= self._wal_snapshot_every:
            self._wal_snapshot()

    def _wal_snapshot(self) -> None:
        """Checkpoint frame + graph archives and compact the journal."""
        from ..core.serialize import save_layout
        from ..graph.io import save_npz

        if self._wal is None:
            return
        floor = self._wal.last_lsn
        frame_name = f"frame-{floor:016d}.npz"
        graph_name = f"graph-{floor:016d}.npz"
        wal_dir = self._wal.dir
        try:
            save_layout(self.snapshot_result(), wal_dir / frame_name)
            save_npz(self.graph, wal_dir / graph_name)
            self._wal.snapshot(
                {"frame": frame_name, "graph": graph_name, "epoch": self.epoch},
                floor=floor,
            )
            for old in wal_dir.glob("frame-*.npz"):
                if old.name < frame_name:
                    old.unlink(missing_ok=True)
            for old in wal_dir.glob("graph-*.npz"):
                if old.name < graph_name:
                    old.unlink(missing_ok=True)
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
                    wal_dir, exc,
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
        self.S = np.array(S)
        self.pivots = pivots
        self.eigenvalues = np.asarray(layout.eigenvalues, dtype=np.float64)
        self.s = B.shape[1]
        dropped = set(int(i) for i in np.asarray(layout.dropped).ravel())
        self._kept = [i for i in range(self.s) if i not in dropped]
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
        self._warm_extra = {}

    # -- public API --------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The current graph, materialized (cached by the overlay)."""
        return self.dyn.to_csr()

    @property
    def n(self) -> int:
        return self.dyn.n

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
        orthogonalization inner product and re-orthogonalize the basis;
        pure pin/region edits reuse it as-is (and a drag — same pin set,
        new coordinates — additionally reuses the deflated Gram
        products).  Rolls back on failure like :meth:`update`.
        """
        t0 = time.perf_counter()
        spec = ConstraintSpec.coerce(constraints)
        spec.validate_for(self.n, self.dims)
        led = Ledger()
        prev = (self.coords, self.S, self.eigenvalues, self._kept,
                self._Y, self._spec, dict(self._warm_extra))
        masses_changed = spec.masses != self._spec.masses
        self._spec = spec
        try:
            if masses_changed:
                # New inner product: the basis (and everything derived
                # from it) must be rebuilt from the repaired B.
                self._warm_extra = {}
                with led.phase("DOrtho"):
                    ores = d_orthogonalize(
                        self.B,
                        self._ortho_weight(self.dyn.to_csr()),
                        method=self.kernels.gs_method,
                        drop_tol=self.kernels.drop_tol,
                        ledger=led,
                    )
                if ores.S.shape[1] < self.dims:
                    raise ValueError(
                        f"only {ores.S.shape[1]} independent distance"
                        " vectors survived under the new masses"
                    )
                self.S = ores.S
                self._kept = list(ores.kept)
                self._Y = None
            res = self._constrained_finish(led)
            coords = self._place(res.coords)
        except Exception:
            (self.coords, self.S, self.eigenvalues, self._kept,
             self._Y, self._spec, self._warm_extra) = prev
            raise
        self.coords = coords
        self.eigenvalues = res.eigenvalues
        self.epoch += 1
        self.stats["constraint_updates"] += 1
        self._journal(
            {"type": "constraints", "spec": spec.to_params(), "reason": _reason}
        )
        return StreamUpdate(
            epoch=self.epoch,
            mode="constraint",
            reason=_reason,
            coords=coords,
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
        defined for connected graphs only.
        """
        t0 = time.perf_counter()
        led = Ledger()
        prev = (self.coords, self.B.copy(), self.S, self.pivots,
                self.eigenvalues, self._kept, self._Y,
                dict(self._warm_extra))
        applied = self.dyn.apply(delta, strict=strict)
        try:
            if self.dyn.is_weighted:
                # Incremental repair covers hop distances only; make the
                # silent degradation observable (satellite: the fallback
                # used to be invisible in production streams).
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
                out = self._full_relayout(led, "weighted", warm=False)
            elif self._since_full + 1 >= self.policy.staleness_limit:
                out = self._full_relayout(led, "staleness", warm=True)
            else:
                out = self._try_repair(led, applied)
        except Exception:
            # Roll back: reinstate the pre-update graph and layout state.
            (self.coords, self.B, self.S, self.pivots,
             self.eigenvalues, self._kept, self._Y,
             self._warm_extra) = prev
            self.dyn.apply(applied.inverse(), strict=False)
            raise
        self.epoch += 1
        self.stats["updates"] += 1
        out.epoch = self.epoch
        out.elapsed = time.perf_counter() - t0
        out.applied_edits = applied.size
        out.skipped_edits = applied.skipped
        out.compacted = self.dyn.maybe_compact() or out.compacted
        self._journal(
            {"type": "update", "delta": delta.to_json(), "strict": bool(strict)}
        )
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
            dropped=[i for i in range(self.B.shape[1]) if i not in self._kept],
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

    # -- repair path -------------------------------------------------------
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
            return self._full_relayout(led, "drift", warm=False, drift=rep.drift)

        if self.validation.enabled and self.validation.run_deep:
            # Exact-repair contract: the repaired B must equal fresh
            # traversals from the same pivots on the post-delta graph,
            # and the overlay's two read paths must agree.  Raising here
            # is inside update()'s try block, so state rolls back.
            self.validation.handle(check_overlay_digest(self.dyn))
            self.validation.handle(
                check_repair_equivalence(self.dyn.to_csr(), self.B, self.pivots)
            )

        prev_kept = self._kept
        d_eff = self._ortho_weight(self.dyn)
        with led.phase("DOrtho"):
            warm_cols = 0
            if self.kernels.ortho == "plain" and not self._spec.has_masses:
                # Masses change even the "plain" inner product, so the
                # column-prefix reuse only applies unweighted.
                warm_cols = self._warm_prefix(prev_kept, rep.changed)
            if warm_cols:
                ores = self._continue_dortho(warm_cols, led)
            else:
                ores = d_orthogonalize(
                    self.B,
                    d_eff,
                    method=self.kernels.gs_method,
                    drop_tol=self.kernels.drop_tol,
                    ledger=led,
                )
        if ores.S.shape[1] < self.dims:
            raise ValueError(
                f"only {ores.S.shape[1]} independent distance vectors"
                " survived after repair; escalate to a full relayout"
            )
        S = ores.S
        if self.validation.enabled:
            self.validation.handle(
                check_d_orthogonality(S, d_eff, tol=self.validation.ortho_tol)
            )

        if not self._spec.is_trivial:
            return self._finish_constrained_update(
                led, S, ores, mode="repair", reason="repair",
                drift=rep.drift, changed=int(rep.changed.sum()),
                edges_examined=rep.edges_examined, warm_cols=warm_cols,
            )

        with led.phase("TripleProd"):
            P = laplacian_spmm(self.dyn.base, S, ledger=led, subphase="LS")
            self._overlay_correction(P, S, led)
            Z = dense_gemm(S.T, P, ledger=led, subphase="S'(LS)")

        with led.phase("Other"):
            warm_eig = False
            pair = self._warm_eigenpairs(Z)
            if pair is not None:
                evals, Y = pair
                warm_eig = True
                self.stats["warm_eigensolves"] += 1
            else:
                evals, Y = extreme_eigenpairs(Z, self.dims, which="smallest")
            coords = S @ Y
            led.add(
                map_cost(
                    self.dyn.n * S.shape[1] * self.dims,
                    flops_per_elem=2.0,
                    bytes_per_elem=F64,
                )
            )
        coords = self._anchor(coords)

        self.coords = coords
        self.S = S
        self.eigenvalues = evals
        self._kept = list(ores.kept)
        self._Y = Y
        self._since_full += 1
        self.stats["repairs"] += 1
        return StreamUpdate(
            epoch=self.epoch,
            mode="repair",
            reason="repair",
            coords=coords,
            drift=rep.drift,
            changed_entries=int(rep.changed.sum()),
            edges_examined=rep.edges_examined,
            elapsed=0.0,
            ledger=led,
            warm_ortho_cols=warm_cols,
            warm_eigensolve=warm_eig,
        )

    def _warm_prefix(self, prev_kept: list[int], changed: np.ndarray) -> int:
        """Leading ``S`` columns reusable after repair (plain ortho only).

        Column ``i`` of the previous ``S`` equals what MGS would
        recompute iff every earlier input column was kept (no drops
        shift the basis) and columns ``0..i`` of ``B`` are unchanged.
        """
        p = 0
        while (
            p < len(prev_kept)
            and prev_kept[p] == p
            and p < len(changed)
            and changed[p] == 0
        ):
            p += 1
        return p

    def _continue_dortho(self, p: int, led: Ledger) -> OrthoResult:
        """Resume plain MGS after the first ``p`` reusable basis columns."""
        n, s = self.B.shape
        d = np.ones(n, dtype=np.float64)
        cols = [np.full(n, 1.0 / np.sqrt(float(n)), dtype=np.float64)]
        cols.extend(self.S[:, j].copy() for j in range(p))
        kept = list(range(p))
        dropped: list[int] = []
        for i in range(p, s):
            v = self.B[:, i].astype(np.float64, copy=True)
            for q in cols:
                coeff = blas.weighted_dot(q, d, v, led)
                blas.axpy(-coeff, q, v, led)
            nrm = blas.weighted_norm(v, d, led)
            if nrm <= self.kernels.drop_tol:
                dropped.append(i)
                continue
            blas.scale(1.0 / nrm, v, led)
            cols.append(v)
            kept.append(i)
        S = (
            np.column_stack(cols[1:])
            if kept
            else np.zeros((n, 0), dtype=np.float64)
        )
        return OrthoResult(S=S, kept=kept, dropped=dropped)

    def _overlay_correction(self, P: np.ndarray, S: np.ndarray, led: Ledger) -> None:
        """Add ``(L_current - L_base) S`` to ``P`` from the overlay edges.

        Each overlay edit contributes ``sign * w * (e_u - e_v)(e_u - e_v)'``
        to the Laplacian (covering both the degree-diagonal and adjacency
        changes), so the product correction is two scattered row updates
        per edge — no CSR rebuild on the hot path.
        """
        us, vs, ws, ss = self.dyn.overlay_entries()
        k = S.shape[1]
        if not len(us):
            return
        coef = (ss * ws)[:, None]
        diff = coef * (S[us] - S[vs])
        np.add.at(P, us, diff)
        np.add.at(P, vs, -diff)
        miss = miss_rate(self.dyn.base)
        led.add(
            KernelCost(
                work=6.0 * len(us) * k,
                flops=4.0 * len(us) * k,
                bytes_streamed=len(us) * 2 * I64,
                random_lines=random_lines_for(4 * len(us) * k, miss),
                regions=1,
            ),
            subphase="overlay",
        )

    def _warm_eigenpairs(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Accept the previous axes as Ritz pairs of the new ``Z`` if the
        old subspace is still numerically invariant; else signal a cold
        solve.  Safe: a loose residual never passes, so quality cannot
        silently degrade."""
        Y0 = self._Y
        k = Z.shape[0]
        if Y0 is None or Y0.shape[0] != k or Y0.shape[1] != self.dims:
            return None
        Q, _ = np.linalg.qr(Y0)
        H = Q.T @ Z @ Q
        H = (H + H.T) / 2.0
        evals, W = np.linalg.eigh(H)
        Y = Q @ W
        resid = Z @ Y - Y * evals
        scale = float(np.linalg.norm(Z)) or 1.0
        if float(np.linalg.norm(resid)) > 1e-8 * scale:
            return None
        return evals, Y

    # -- full relayout -----------------------------------------------------
    def _full_relayout(
        self, led: Ledger, reason: str, *, warm: bool, drift: float = 0.0
    ) -> StreamUpdate:
        self.dyn.compact()
        g = self.dyn.base
        warm_pivots = bool(
            warm and not g.is_weighted and len(self.pivots) == self.s
        )
        # The configured traversal kernel must survive relayouts and
        # post-compaction re-traversals (it used to be silently dropped
        # here, falling back to per-source scalar BFS).
        traversal = "per-source" if g.is_weighted else self.kernels.traversal
        with led.phase("BFS"):
            if warm_pivots:
                if traversal == "batched":
                    ms = run_sources_batched(g, self.pivots, ledger=led)
                else:
                    ms = run_sources(g, self.pivots, ledger=led)
            else:
                ms = select_and_traverse(
                    g,
                    self.s,
                    strategy="kcenters",
                    traversal=traversal,
                    seed=self.seed,
                    ledger=led,
                )
        B = ms.distances
        if B.min() < 0:
            raise ValueError(
                "delta disconnects the graph; layouts require a connected"
                " graph (update rolled back)"
            )
        d_eff = self._ortho_weight(g)
        with led.phase("DOrtho"):
            ores = d_orthogonalize(
                B, d_eff, method=self.kernels.gs_method,
                drop_tol=self.kernels.drop_tol, ledger=led,
            )
        if ores.S.shape[1] < self.dims:
            raise ValueError(
                f"only {ores.S.shape[1]} independent distance vectors"
                f" survived; increase s (got s={self.s})"
            )
        S = ores.S
        if self.validation.enabled:
            self.validation.handle(
                check_d_orthogonality(S, d_eff, tol=self.validation.ortho_tol)
            )
        if not self._spec.is_trivial:
            self.B = B
            self.pivots = np.asarray(ms.sources, dtype=np.int64)
            return self._finish_constrained_update(
                led, S, ores, mode="relayout", reason=reason, drift=drift,
                compacted=True, warm_pivots=warm_pivots, g=g,
            )
        with led.phase("TripleProd"):
            P = laplacian_spmm(g, S, ledger=led, subphase="LS")
            Z = dense_gemm(S.T, P, ledger=led, subphase="S'(LS)")
        with led.phase("Other"):
            evals, Y = extreme_eigenpairs(Z, self.dims, which="smallest")
            coords = S @ Y
            led.add(
                map_cost(
                    g.n * S.shape[1] * self.dims,
                    flops_per_elem=2.0,
                    bytes_per_elem=F64,
                )
            )
        coords = self._anchor(coords)

        self.coords = coords
        self.B = B
        self.S = S
        self.pivots = np.asarray(ms.sources, dtype=np.int64)
        self.eigenvalues = evals
        self._kept = list(ores.kept)
        self._Y = Y
        self._since_full = 0
        self.stats["relayouts"] += 1
        return StreamUpdate(
            epoch=self.epoch,
            mode="relayout",
            reason=reason,
            coords=coords,
            drift=drift,
            changed_entries=0,
            edges_examined=0,
            elapsed=0.0,
            ledger=led,
            compacted=True,
            warm_pivots=warm_pivots,
        )

    # -- constrained assembly ----------------------------------------------
    def _ortho_weight(self, src) -> np.ndarray | None:
        """The orthogonalization weight ``m·d`` (or ``m``, ``d``, ``None``)."""
        d = src.weighted_degrees if self.kernels.ortho == "D" else None
        if not self._spec.has_masses:
            return d
        m = self._spec.mass_vector(src.n)
        return m * d if d is not None else m

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

    def _constrained_finish(self, led: Ledger, *, g=None, pivots=None):
        """Run the warm ParHDE tail (deflation → eigensolve → carrier →
        clamp) on the session's current basis, reusing cached Gram
        products when the pin set is unchanged."""
        g = g if g is not None else self.dyn.to_csr()
        warm = {
            "S": self.S,
            "kept": list(self._kept),
            "pivots": np.asarray(
                pivots if pivots is not None else self.pivots, dtype=np.int64
            ),
        }
        warm.update(self._warm_extra)
        res = parhde(
            g,
            self.s,
            dims=self.dims,
            seed=self.seed,
            kernels=self.kernels,
            constraints=self._spec if not self._spec.is_trivial else None,
            warm_base=warm,
            ledger=led,
            validate=self.validation,
        )
        if res.warm is not None:
            self._warm_extra = {
                k: res.warm[k] for k in ("deflated", "Z") if k in res.warm
            }
        return res

    def _finish_constrained_update(
        self,
        led: Ledger,
        S: np.ndarray,
        ores: OrthoResult,
        *,
        mode: str,
        reason: str,
        drift: float = 0.0,
        changed: int = 0,
        edges_examined: int = 0,
        warm_cols: int = 0,
        compacted: bool = False,
        warm_pivots: bool = False,
        g=None,
    ) -> StreamUpdate:
        """Constrained tail of a repair or relayout: the basis was just
        rebuilt, so cached Gram products are stale and are dropped."""
        self._warm_extra = {}
        self.S = S
        self._kept = list(ores.kept)
        res = self._constrained_finish(led, g=g)
        coords = self._place(res.coords)
        self.coords = coords
        self.eigenvalues = res.eigenvalues
        self._Y = None
        if mode == "repair":
            self._since_full += 1
            self.stats["repairs"] += 1
        else:
            self._since_full = 0
            self.stats["relayouts"] += 1
        return StreamUpdate(
            epoch=self.epoch,
            mode=mode,
            reason=reason,
            coords=coords,
            drift=drift,
            changed_entries=changed,
            edges_examined=edges_examined,
            elapsed=0.0,
            ledger=led,
            compacted=compacted,
            warm_pivots=warm_pivots,
            warm_ortho_cols=warm_cols,
        )

    def _anchor(self, coords: np.ndarray) -> np.ndarray:
        """Procrustes-align the new frame onto the previous one."""
        try:
            return procrustes_align(coords, self.coords).aligned
        except ValueError:
            return coords
