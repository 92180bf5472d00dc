"""A CSR graph with an adjacency-delta overlay.

Rebuilding a :class:`~repro.graph.csr.CSRGraph` costs ``O(m log m)``;
a 32-edge delta should not.  :class:`DynamicGraph` keeps an immutable
*base* CSR plus a small per-vertex overlay (added neighbors with
weights, removed base neighbors) and exposes the CSR read API —
``n`` / ``m`` / ``degrees`` / ``neighbors`` / ``has_edge`` — merged on
the fly.  Reads of untouched vertices stay zero-copy views into the
base arrays, so the common case (tiny delta against a large graph) pays
only for the vertices it touched.

When the overlay grows past ``compact_threshold * base.m`` edits, the
merged edge list is rebuilt into a fresh base CSR (compaction), exactly
the batching trade-off BatchLayout makes: amortize restructuring cost
over many cheap incremental steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from .delta import EdgeDelta

__all__ = ["AppliedDelta", "DynamicGraph"]


@dataclass(frozen=True)
class AppliedDelta:
    """The edits one :meth:`DynamicGraph.apply` actually performed.

    With ``strict=False`` no-op operations (inserting an existing edge,
    deleting a missing one) are skipped, so these arrays may be smaller
    than the requested batch.  ``deleted_w`` records the weight each
    deleted edge had, which makes the batch invertible (rollback).
    """

    inserted: np.ndarray  # (k, 2) int64, u < v
    inserted_w: np.ndarray  # float64[k]
    deleted: np.ndarray  # (k, 2) int64, u < v
    deleted_w: np.ndarray  # float64[k]
    skipped: int = 0

    @property
    def size(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def inverse(self) -> EdgeDelta:
        """The delta that undoes this one (deleted edges reinstated with
        their recorded weights)."""
        from .delta import edge_delta

        # Only carry weights when any differ from 1 — a weighted batch
        # would be rejected by an unweighted base at re-apply time.
        if len(self.deleted_w) and np.any(self.deleted_w != 1.0):
            inserts = [
                (int(u), int(v), float(w))
                for (u, v), w in zip(self.deleted, self.deleted_w)
            ]
        else:
            inserts = [(int(u), int(v)) for u, v in self.deleted]
        deletes = [(int(u), int(v)) for u, v in self.inserted]
        return edge_delta(inserts=inserts, deletes=deletes)


class DynamicGraph:
    """A mutable graph view: immutable base CSR + adjacency-delta overlay.

    Parameters
    ----------
    base:
        The starting graph.  Never mutated; compaction replaces it.
    compact_threshold:
        Overlay edits (added + removed edges) tolerated as a fraction of
        the base edge count before :attr:`needs_compaction` turns on.

    The vertex set is fixed at ``base.n``; deltas may only rewire
    existing vertices.
    """

    def __init__(self, base: CSRGraph, *, compact_threshold: float = 0.25):
        if compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        self.base = base
        self.compact_threshold = float(compact_threshold)
        #: Monotone version counter, bumped once per applied batch.
        self.epoch = 0
        self._added: dict[int, dict[int, float]] = {}
        self._removed: dict[int, set[int]] = {}
        self._added_edges = 0  # undirected count
        self._removed_edges = 0
        self._deg_adjust: dict[int, int] = {}
        self._wdeg_adjust: dict[int, float] = {}
        self._snapshot: CSRGraph | None = None

    # -- CSR read API ------------------------------------------------------
    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m + self._added_edges - self._removed_edges

    @property
    def is_weighted(self) -> bool:
        return self.base.is_weighted

    @property
    def degrees(self) -> np.ndarray:
        """``int64[n]`` current vertex degrees."""
        deg = self.base.degrees.copy()
        for v, adj in self._deg_adjust.items():
            deg[v] += adj
        return deg

    @property
    def weighted_degrees(self) -> np.ndarray:
        """``float64[n]`` current weighted degrees (the diagonal of D)."""
        wd = self.base.weighted_degrees.copy()
        for v, adj in self._wdeg_adjust.items():
            wd[v] += adj
        return wd

    def degree(self, v: int) -> int:
        return int(self.base.degree(v)) + self._deg_adjust.get(v, 0)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted current adjacency list of ``v``.

        Untouched vertices return the base's zero-copy view; touched
        vertices pay one small merge.
        """
        added = self._added.get(v)
        removed = self._removed.get(v)
        basev = self.base.neighbors(v)
        if added is None and removed is None:
            return basev
        out = basev.astype(np.int64)
        if removed:
            out = out[~np.isin(out, np.fromiter(removed, dtype=np.int64))]
        if added:
            out = np.concatenate(
                [out, np.fromiter(added, dtype=np.int64)]
            )
            out.sort()
        return out

    def has_edge(self, u: int, v: int) -> bool:
        added = self._added.get(u)
        if added is not None and v in added:
            return True
        removed = self._removed.get(u)
        if removed is not None and v in removed:
            return False
        return self.base.has_edge(u, v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)`` (1.0 on unweighted graphs).

        Raises ``KeyError`` when the edge does not currently exist.
        """
        added = self._added.get(u)
        if added is not None and v in added:
            return added[v]
        removed = self._removed.get(u)
        if (removed is not None and v in removed) or not self.base.has_edge(u, v):
            raise KeyError(f"no edge ({u}, {v})")
        return self._base_weight(u, v)

    def _base_weight(self, u: int, v: int) -> float:
        if self.base.weights is None:
            return 1.0
        adj = self.base.neighbors(u)
        i = int(np.searchsorted(adj, v))
        return float(self.base.weights[self.base.indptr[u] + i])

    # -- overlay inspection ------------------------------------------------
    @property
    def overlay_edges(self) -> int:
        """Undirected edits currently carried by the overlay."""
        return self._added_edges + self._removed_edges

    @property
    def overlay_fraction(self) -> float:
        """Overlay size relative to the base edge count."""
        return self.overlay_edges / max(self.base.m, 1)

    @property
    def needs_compaction(self) -> bool:
        return self.overlay_fraction > self.compact_threshold

    # -- mutation ----------------------------------------------------------
    def apply(self, delta: EdgeDelta, *, strict: bool = True) -> AppliedDelta:
        """Apply one delta batch atomically.

        With ``strict=True`` (default) inserting an existing edge or
        deleting a missing one raises ``ValueError`` and nothing is
        applied.  With ``strict=False`` such no-ops are skipped and
        counted in :attr:`AppliedDelta.skipped`.

        Returns the effective edits (the repair kernel's seed set).
        """
        hi = delta.max_endpoint()
        if hi >= self.n:
            raise ValueError(
                f"delta references vertex {hi} but the graph has"
                f" {self.n} vertices (the vertex set is fixed)"
            )
        if delta.is_weighted and not self.is_weighted:
            raise ValueError(
                "weighted inserts require an edge-weighted base graph"
            )
        ins_w = delta.insert_weights()
        if strict:
            for i in range(delta.n_inserts):
                u, v = int(delta.insert_u[i]), int(delta.insert_v[i])
                if self.has_edge(u, v):
                    raise ValueError(f"insert of existing edge ({u}, {v})")
            for i in range(delta.n_deletes):
                u, v = int(delta.delete_u[i]), int(delta.delete_v[i])
                if not self.has_edge(u, v):
                    raise ValueError(f"delete of missing edge ({u}, {v})")

        inserted: list[tuple[int, int]] = []
        inserted_w: list[float] = []
        deleted: list[tuple[int, int]] = []
        deleted_w: list[float] = []
        skipped = 0
        for i in range(delta.n_deletes):
            u, v = int(delta.delete_u[i]), int(delta.delete_v[i])
            if not self.has_edge(u, v):
                skipped += 1
                continue
            deleted_w.append(self.edge_weight(u, v))
            deleted.append((u, v))
            self._remove_edge(u, v)
        for i in range(delta.n_inserts):
            u, v = int(delta.insert_u[i]), int(delta.insert_v[i])
            if self.has_edge(u, v):
                skipped += 1
                continue
            w = float(ins_w[i])
            self._add_edge(u, v, w)
            inserted.append((u, v))
            inserted_w.append(w)
        self.epoch += 1
        self._snapshot = None
        return AppliedDelta(
            inserted=np.asarray(inserted, dtype=np.int64).reshape(-1, 2),
            inserted_w=np.asarray(inserted_w, dtype=np.float64),
            deleted=np.asarray(deleted, dtype=np.int64).reshape(-1, 2),
            deleted_w=np.asarray(deleted_w, dtype=np.float64),
            skipped=skipped,
        )

    def _add_edge(self, u: int, v: int, w: float) -> None:
        # Re-inserting a removed base edge with the base weight simply
        # clears the removal marker; anything else lands in the overlay.
        removed_u = self._removed.get(u)
        if removed_u is not None and v in removed_u:
            if w == self._base_weight(u, v):
                removed_u.discard(v)
                self._removed[v].discard(u)
                self._removed_edges -= 1
                self._bump_degree(u, v, +1, w)
                return
        self._added.setdefault(u, {})[v] = w
        self._added.setdefault(v, {})[u] = w
        self._added_edges += 1
        self._bump_degree(u, v, +1, w)

    def _remove_edge(self, u: int, v: int) -> None:
        w = self.edge_weight(u, v)
        added_u = self._added.get(u)
        if added_u is not None and v in added_u:
            del added_u[v]
            del self._added[v][u]
            self._added_edges -= 1
        else:
            self._removed.setdefault(u, set()).add(v)
            self._removed.setdefault(v, set()).add(u)
            self._removed_edges += 1
        self._bump_degree(u, v, -1, w)

    def _bump_degree(self, u: int, v: int, sign: int, w: float) -> None:
        for x in (u, v):
            self._deg_adjust[x] = self._deg_adjust.get(x, 0) + sign
            if self._deg_adjust[x] == 0:
                del self._deg_adjust[x]
            self._wdeg_adjust[x] = self._wdeg_adjust.get(x, 0.0) + sign * w
            if self._wdeg_adjust[x] == 0.0:
                del self._wdeg_adjust[x]

    # -- materialization ---------------------------------------------------
    def to_csr(self) -> CSRGraph:
        """The current graph as a fresh validated :class:`CSRGraph`.

        Cached until the next :meth:`apply`; with an empty overlay the
        base itself is returned.  The base's directed keys
        ``row * n + col`` are already sorted, so the overlay is spliced
        into them: removed entries are deleted and added ones inserted at
        their sorted positions, both directions each, with no re-sort of
        the whole graph.
        """
        if not self.overlay_edges:
            return self.base
        if self._snapshot is not None:
            return self._snapshot
        base, n = self.base, self.base.n
        keys = np.repeat(np.arange(n, dtype=np.int64), base.degrees) * n
        keys += base.indices
        gone = np.fromiter(
            (a * n + b for a, removed in self._removed.items() for b in removed),
            dtype=np.int64,
        )
        drop = np.searchsorted(keys, np.sort(gone))
        keys = np.delete(keys, drop)
        indices = np.delete(base.indices.astype(np.int32, copy=False), drop)
        weights = None
        if base.weights is not None:
            weights = np.delete(
                base.weights.astype(np.float64, copy=False), drop
            )
        added = [
            (x, y, wt)
            for x, adj in self._added.items()
            for y, wt in adj.items()
            if x != y
        ]
        ax = np.asarray([e[0] for e in added], dtype=np.int64)
        ay = np.asarray([e[1] for e in added], dtype=np.int64)
        aw = np.asarray([e[2] for e in added], dtype=np.float64)
        if len(ax) and (
            min(ax.min(), ay.min()) < 0 or max(ax.max(), ay.max()) >= n
        ):
            raise ValueError("edge endpoint out of range")
        if weights is not None and np.any(aw <= 0):
            raise ValueError("edge weights must be positive")
        add_keys = ax * n + ay
        order = np.argsort(add_keys)
        put = np.searchsorted(keys, add_keys[order])
        indices = np.insert(indices, put, ay[order])
        if weights is not None:
            weights = np.insert(weights, put, aw[order])
        deg = base.degrees.copy()
        np.subtract.at(deg, gone // n, 1)
        np.add.at(deg, ax, 1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        g = CSRGraph(indptr, indices, weights, base.name)
        self._snapshot = g
        return g

    def compact(self) -> CSRGraph:
        """Fold the overlay into a fresh base CSR and clear it."""
        g = self.to_csr()
        self.base = g
        self._added.clear()
        self._removed.clear()
        self._added_edges = self._removed_edges = 0
        self._deg_adjust.clear()
        self._wdeg_adjust.clear()
        self._snapshot = None
        return g

    def maybe_compact(self) -> bool:
        """Compact if the overlay passed the threshold; report whether."""
        if self.needs_compaction:
            self.compact()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.n} m={self.m} overlay={self.overlay_edges}"
            f" epoch={self.epoch})"
        )
