"""Tests for the dynamic-graph streaming subsystem (repro.stream)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bfs import run_sources
from repro.core import load_layout, parhde, save_layout
from repro.core.serialize import FORMAT_VERSION
from repro.graph import from_edges, grid2d, preprocess, uniform_random
from repro.metrics import sampled_stress
from repro.parallel import Ledger
from repro.service import (
    BadRequest,
    LayoutCache,
    LayoutEngine,
    LayoutRequest,
    UpdateRequest,
    graph_digest,
    layout_fingerprint,
    make_server,
)
from repro.stream import (
    DynamicGraph,
    EdgeDelta,
    StreamPolicy,
    StreamSession,
    bfs_work_units,
    edge_delta,
    parse_events,
    repair_distances,
)


# ---------------------------------------------------------------------------
# EdgeDelta
# ---------------------------------------------------------------------------
class TestEdgeDelta:
    def test_canonical_endpoints_and_dedup(self):
        d = edge_delta(inserts=[(5, 2), (2, 5), (1, 3)], deletes=[(9, 4)])
        assert d.n_inserts == 2 and d.n_deletes == 1
        assert (d.insert_u < d.insert_v).all()
        assert set(zip(d.insert_u.tolist(), d.insert_v.tolist())) == {
            (2, 5),
            (1, 3),
        }
        assert (d.delete_u[0], d.delete_v[0]) == (4, 9)
        assert len(d) == 3

    def test_rejects_self_loops_and_bad_weights(self):
        with pytest.raises(ValueError, match="self loop"):
            edge_delta(inserts=[(3, 3)])
        with pytest.raises(ValueError, match="negative"):
            edge_delta(deletes=[(-1, 2)])
        with pytest.raises(ValueError, match="non-positive weight"):
            edge_delta(inserts=[(1, 2, 0.0)])

    def test_edge_in_both_lists_rejected(self):
        with pytest.raises(ValueError, match="both inserts and deletes"):
            edge_delta(inserts=[(1, 2)], deletes=[(2, 1)])

    def test_weight_detection(self):
        assert not edge_delta(inserts=[(1, 2)]).is_weighted
        d = edge_delta(inserts=[(1, 2, 2.5)])
        assert d.is_weighted
        assert d.insert_weights().tolist() == [2.5]
        assert edge_delta(inserts=[(1, 2)]).insert_weights().tolist() == [1.0]

    def test_from_events_last_op_wins(self):
        d = EdgeDelta.from_events(
            [("+", 1, 2), ("-", 1, 2), ("-", 3, 4), ("+", 4, 3)]
        )
        assert d.n_inserts == 1 and d.n_deletes == 1
        assert (d.insert_u[0], d.insert_v[0]) == (3, 4)
        assert (d.delete_u[0], d.delete_v[0]) == (1, 2)
        assert not d.is_weighted  # no event carried a weight

    def test_from_events_weighted(self):
        d = EdgeDelta.from_events([("+", 2, 1, 2.0)])
        assert d.is_weighted and d.insert_weights().tolist() == [2.0]
        with pytest.raises(ValueError, match="delete event"):
            EdgeDelta.from_events([("-", 1, 2, 3.0)])

    def test_json_roundtrip(self):
        d = edge_delta(inserts=[(1, 2, 1.5)], deletes=[(3, 7)])
        d2 = EdgeDelta.from_json(d.to_json())
        assert d2.to_json() == d.to_json()
        assert d2.is_weighted

    def test_parse_events(self):
        text = """
        # header comment
        + 1 2
        - 3 4   # trailing comment
        ---
        + 5 6 2.5
        """
        events = parse_events(text)
        assert events == [("+", 1, 2), ("-", 3, 4), ("|",), ("+", 5, 6, 2.5)]
        with pytest.raises(ValueError, match="line 1"):
            parse_events("* 1 2")
        with pytest.raises(ValueError, match="malformed"):
            parse_events("+ 1")

    def test_max_endpoint(self):
        assert edge_delta().max_endpoint() == -1
        assert edge_delta(inserts=[(1, 9)], deletes=[(2, 4)]).max_endpoint() == 9


# ---------------------------------------------------------------------------
# DynamicGraph overlay
# ---------------------------------------------------------------------------
class TestDynamicGraph:
    def test_insert_and_delete_visible(self, small_grid):
        dyn = DynamicGraph(small_grid)
        assert dyn.epoch == 0
        u, v = 0, small_grid.n - 1
        assert not dyn.has_edge(u, v)
        applied = dyn.apply(edge_delta(inserts=[(u, v)]))
        assert dyn.epoch == 1 and applied.size == 1
        assert dyn.has_edge(u, v) and dyn.has_edge(v, u)
        assert dyn.m == small_grid.m + 1
        assert v in dyn.neighbors(u)
        nbr = int(small_grid.neighbors(0)[0])
        dyn.apply(edge_delta(deletes=[(0, nbr)]))
        assert not dyn.has_edge(0, nbr)
        assert nbr not in dyn.neighbors(0)
        assert dyn.m == small_grid.m

    def test_neighbors_sorted_and_base_view_untouched(self, small_grid):
        dyn = DynamicGraph(small_grid)
        dyn.apply(edge_delta(inserts=[(5, 100)]))
        merged = dyn.neighbors(5)
        assert (np.diff(merged) > 0).all()
        # vertices away from the edit keep the zero-copy base view
        assert np.shares_memory(dyn.neighbors(50), small_grid.neighbors(50))

    def test_degree_accounting(self, small_grid):
        dyn = DynamicGraph(small_grid)
        d0 = small_grid.degrees.copy()
        dyn.apply(edge_delta(inserts=[(0, small_grid.n - 1)]))
        deg = dyn.degrees
        assert deg[0] == d0[0] + 1 and deg[-1] == d0[-1] + 1
        assert dyn.degree(0) == d0[0] + 1
        assert (deg.sum() - d0.sum()) == 2
        wd = dyn.weighted_degrees
        assert wd[0] == small_grid.weighted_degrees[0] + 1.0

    def test_strict_rejects_noops_atomically(self, small_grid):
        dyn = DynamicGraph(small_grid)
        nbr = int(small_grid.neighbors(0)[0])
        with pytest.raises(ValueError, match="existing edge"):
            dyn.apply(edge_delta(inserts=[(0, nbr)]))
        with pytest.raises(ValueError, match="missing edge"):
            dyn.apply(edge_delta(deletes=[(0, small_grid.n - 1)]))
        assert dyn.epoch == 0 and dyn.overlay_edges == 0

    def test_nonstrict_skips_noops(self, small_grid):
        dyn = DynamicGraph(small_grid)
        nbr = int(small_grid.neighbors(0)[0])
        applied = dyn.apply(
            edge_delta(inserts=[(0, nbr)], deletes=[(0, small_grid.n - 1)]),
            strict=False,
        )
        assert applied.size == 0 and applied.skipped == 2
        assert dyn.epoch == 1  # epoch bumps even for all-no-op batches

    def test_out_of_range_vertex_rejected(self, small_grid):
        dyn = DynamicGraph(small_grid)
        with pytest.raises(ValueError, match="vertex set is fixed"):
            dyn.apply(edge_delta(inserts=[(0, small_grid.n)]))

    def test_to_csr_matches_direct_build(self, small_grid):
        dyn = DynamicGraph(small_grid)
        dyn.apply(
            edge_delta(
                inserts=[(0, 100), (3, 77)],
                deletes=[(0, int(small_grid.neighbors(0)[0]))],
            )
        )
        u, v = small_grid.edge_list()
        edges = set(zip(u.tolist(), v.tolist()))
        edges -= {(0, int(small_grid.neighbors(0)[0]))}
        edges |= {(0, 100), (3, 77)}
        eu = np.array([e[0] for e in sorted(edges)])
        ev = np.array([e[1] for e in sorted(edges)])
        direct = from_edges(small_grid.n, eu, ev)
        assert graph_digest(dyn.to_csr()) == graph_digest(direct)
        # compaction folds the overlay and preserves content
        dyn.compact()
        assert dyn.overlay_edges == 0
        assert graph_digest(dyn.base) == graph_digest(direct)

    def test_weighted_to_csr_splice_equals_direct_build(self, small_grid):
        from repro.graph import random_integer_weights

        g = random_integer_weights(small_grid, 1, 9, seed=3)
        u, v = g.edge_list()
        w = g.weights[np.repeat(np.arange(g.n), g.degrees) < g.indices]
        dyn = DynamicGraph(g)
        gone = [(int(u[i]), int(v[i])) for i in (0, 5, 17, len(u) - 1)]
        # The last insert re-adds a removed edge with a new weight.
        ins = [(0, 100, 2.5), (3, 77, 0.25), (gone[1][0], gone[1][1], 7.5)]
        dyn.apply(edge_delta(deletes=gone))
        dyn.apply(edge_delta(inserts=ins))
        edges = {(a, b): wt for a, b, wt in zip(u.tolist(), v.tolist(), w)}
        for e in gone:
            del edges[e]
        edges.update({(a, b): wt for a, b, wt in ins})
        eu, ev = np.array(sorted(edges)).T
        direct = from_edges(g.n, eu, ev, [edges[e] for e in sorted(edges)])
        got = dyn.to_csr()
        np.testing.assert_array_equal(got.indptr, direct.indptr)
        np.testing.assert_array_equal(got.indices, direct.indices)
        np.testing.assert_array_equal(got.weights, direct.weights)
        assert got.indices.dtype == direct.indices.dtype

    def test_compaction_threshold(self, path10):
        dyn = DynamicGraph(path10, compact_threshold=0.2)
        assert not dyn.needs_compaction
        dyn.apply(edge_delta(inserts=[(0, 5), (1, 7)]))
        assert dyn.overlay_fraction == pytest.approx(2 / 9)
        assert dyn.needs_compaction
        assert dyn.maybe_compact()
        assert dyn.overlay_edges == 0 and not dyn.needs_compaction

    def test_inverse_restores_graph(self, small_grid):
        dyn = DynamicGraph(small_grid)
        before = graph_digest(dyn.to_csr())
        applied = dyn.apply(
            edge_delta(
                inserts=[(0, 100)],
                deletes=[(0, int(small_grid.neighbors(0)[0]))],
            )
        )
        assert graph_digest(dyn.to_csr()) != before
        dyn.apply(applied.inverse())
        assert graph_digest(dyn.to_csr()) == before

    def test_weighted_base_weights_preserved(self):
        u = np.array([0, 1, 2, 0])
        v = np.array([1, 2, 3, 3])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        g = from_edges(4, u, v, w)
        dyn = DynamicGraph(g)
        assert dyn.edge_weight(1, 2) == 2.0
        dyn.apply(edge_delta(inserts=[(1, 3, 5.5)], deletes=[(0, 1)]))
        assert dyn.edge_weight(1, 3) == 5.5
        with pytest.raises(KeyError):
            dyn.edge_weight(0, 1)
        snap = dyn.to_csr()
        assert snap.is_weighted
        wd = dyn.weighted_degrees
        np.testing.assert_allclose(wd, snap.weighted_degrees)

    def test_weighted_insert_on_unweighted_base_rejected(self, small_grid):
        dyn = DynamicGraph(small_grid)
        with pytest.raises(ValueError, match="edge-weighted base"):
            dyn.apply(edge_delta(inserts=[(0, 100, 2.0)]))


# ---------------------------------------------------------------------------
# Incremental repair
# ---------------------------------------------------------------------------
def _repair_and_check(g, inserts, deletes, pivots):
    """Repair B after the delta and compare against fresh traversals."""
    ms = run_sources(g, pivots)
    B = ms.distances.copy()
    dyn = DynamicGraph(g)
    applied = dyn.apply(edge_delta(inserts=inserts, deletes=deletes))
    led = Ledger()
    with led.phase("BFS"):
        rep = repair_distances(
            dyn, B, np.asarray(pivots), applied.inserted, applied.deleted,
            ledger=led,
        )
    fresh = run_sources(dyn.to_csr(), pivots)
    np.testing.assert_array_equal(B, fresh.distances)
    return rep, led


class TestIncrementalRepair:
    def test_insertions_exact(self, small_grid):
        rep, led = _repair_and_check(
            small_grid, [(0, small_grid.n - 1), (3, 140)], [], [0, 7, 101]
        )
        assert not rep.disconnected
        assert rep.edges_examined > 0
        assert bfs_work_units(led) > 0

    def test_deletions_exact(self, small_grid):
        dels = [
            (0, int(small_grid.neighbors(0)[0])),
            (50, int(small_grid.neighbors(50)[-1])),
        ]
        rep, _ = _repair_and_check(small_grid, [], dels, [0, 7, 101])
        assert not rep.disconnected

    def test_mixed_exact(self, small_random):
        g = small_random
        dels = [(0, int(g.neighbors(0)[0]))]
        ins = [(1, g.n - 1)] if not g.has_edge(1, g.n - 1) else [(2, g.n - 2)]
        rep, _ = _repair_and_check(g, ins, dels, [0, 3, 9, 27])
        assert not rep.disconnected

    def test_disconnect_detected(self, path10):
        dyn = DynamicGraph(path10)
        ms = run_sources(path10, [0, 9])
        B = ms.distances.copy()
        applied = dyn.apply(edge_delta(deletes=[(4, 5)]))
        rep = repair_distances(
            dyn, B, np.array([0, 9]), applied.inserted, applied.deleted
        )
        assert rep.disconnected

    def test_reconnect_within_batch_not_disconnected(self, path10):
        dyn = DynamicGraph(path10)
        ms = run_sources(path10, [0, 9])
        B = ms.distances.copy()
        applied = dyn.apply(edge_delta(deletes=[(4, 5)], inserts=[(3, 6)]))
        rep = repair_distances(
            dyn, B, np.array([0, 9]), applied.inserted, applied.deleted
        )
        assert not rep.disconnected
        fresh = run_sources(dyn.to_csr(), [0, 9])
        np.testing.assert_array_equal(B, fresh.distances)

    def test_drift_metric(self, path10):
        dyn = DynamicGraph(path10)
        ms = run_sources(path10, [0])
        B = ms.distances.copy()
        applied = dyn.apply(edge_delta(inserts=[(0, 9)]))
        rep = repair_distances(
            dyn, B, np.array([0]), applied.inserted, applied.deleted
        )
        # d(0, v) changes for v in {6..9}: new distances via the shortcut
        assert rep.changed[0] == 4
        assert rep.drift == pytest.approx(4 / 10)
        assert rep.column_drift[0] == pytest.approx(4 / 10)

    def test_noop_delta_examines_nothing(self, small_grid):
        rep, led = _repair_and_check(small_grid, [], [], [0, 5])
        assert rep.edges_examined == 0
        assert rep.columns_touched == 0
        assert bfs_work_units(led) == 0

    def test_weighted_graph_rejected(self):
        g = from_edges(
            4,
            np.array([0, 1, 2]),
            np.array([1, 2, 3]),
            np.array([1.0, 2.0, 1.0]),
        )
        dyn = DynamicGraph(g)
        B = np.zeros((4, 1))
        with pytest.raises(ValueError, match="hop distances only"):
            repair_distances(
                dyn, B, np.array([0]),
                np.empty((0, 2), np.int64), np.empty((0, 2), np.int64),
            )


# ---------------------------------------------------------------------------
# StreamSession
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def medium_graph():
    return preprocess(uniform_random(10, degree=8, seed=3), name="stream-med")


class TestStreamSession:
    def test_repair_path_exact_and_cheap(self, medium_graph):
        g = medium_graph
        sess = StreamSession(g, 8, seed=0)
        nbr = int(g.neighbors(0)[0])
        ins = (1, g.n - 2) if not g.has_edge(1, g.n - 2) else (1, g.n - 3)
        up = sess.update(edge_delta(inserts=[ins], deletes=[(0, nbr)]))
        assert up.mode == "repair" and up.epoch == 1
        # repaired distances match fresh traversals from the same pivots
        fresh = run_sources(sess.graph, sess.pivots)
        np.testing.assert_array_equal(sess.B, fresh.distances)
        # repair is much cheaper than the from-scratch BFS phase
        full = parhde(sess.graph, 8, seed=0)
        assert bfs_work_units(full.ledger) > 5 * bfs_work_units(up.ledger)
        # quality matches the from-scratch layout
        s_sess = sampled_stress(sess.graph, sess.coords, samples=8, seed=0)
        s_full = sampled_stress(sess.graph, full.coords, samples=8, seed=0)
        assert s_sess <= s_full * 1.05

    def test_drift_escalates_to_relayout(self):
        # a long path: one shortcut changes a huge fraction of distances
        g = grid2d(2, 50)
        sess = StreamSession(g, 6, seed=0)
        up = sess.update(edge_delta(inserts=[(0, g.n - 1)]))
        assert up.mode == "relayout" and up.reason == "drift"
        assert not up.warm_pivots  # drift re-pivots from scratch
        fresh = run_sources(sess.graph, sess.pivots)
        np.testing.assert_array_equal(sess.B, fresh.distances)

    def test_drift_relayout_equals_cold_parhde(self):
        g = grid2d(2, 50)
        sess = StreamSession(g, 6, seed=0)
        up = sess.update(edge_delta(inserts=[(0, g.n - 1)]))
        assert up.mode == "relayout" and up.reason == "drift"
        cold = parhde(sess.graph, 6, seed=0)
        np.testing.assert_array_equal(sess.B, cold.B)
        np.testing.assert_array_equal(sess.pivots, cold.pivots)
        np.testing.assert_array_equal(sess.eigenvalues, cold.eigenvalues)

    def test_staleness_escalates_warm(self, medium_graph):
        g = medium_graph
        policy = StreamPolicy(staleness_limit=2)
        sess = StreamSession(g, 8, seed=0, policy=policy)
        pivots_before = sess.pivots.copy()
        nbr0 = int(g.neighbors(0)[0])
        up1 = sess.update(edge_delta(deletes=[(0, nbr0)]))
        assert up1.mode == "repair"
        up2 = sess.update(edge_delta(inserts=[(0, nbr0)]))
        assert up2.mode == "relayout" and up2.reason == "staleness"
        assert up2.warm_pivots
        np.testing.assert_array_equal(sess.pivots, pivots_before)

    def test_disconnect_rolls_back(self, path10):
        sess = StreamSession(path10, 3, seed=0)
        coords_before = sess.coords.copy()
        B_before = sess.B.copy()
        with pytest.raises(ValueError, match="disconnects"):
            sess.update(edge_delta(deletes=[(4, 5)]))
        assert sess.epoch == 0
        assert sess.dyn.has_edge(4, 5)
        np.testing.assert_array_equal(sess.coords, coords_before)
        np.testing.assert_array_equal(sess.B, B_before)
        # the session remains usable after the rollback
        up = sess.update(edge_delta(inserts=[(0, 9)]))
        assert up.epoch == 1

    def test_frames_anchor_to_previous(self, medium_graph):
        g = medium_graph
        sess = StreamSession(g, 8, seed=0)
        before = sess.coords.copy()
        nbr = int(g.neighbors(1)[0])
        sess.update(edge_delta(deletes=[(1, nbr)]))
        # Procrustes anchoring: tiny edit => tiny coordinate motion
        # (without it, eigensolver sign flips would move every vertex)
        motion = np.linalg.norm(sess.coords - before) / np.linalg.norm(before)
        assert motion < 0.5

    def test_weighted_graph_always_relayouts(self):
        u = np.array([0, 1, 2, 3, 0])
        v = np.array([1, 2, 3, 4, 4])
        w = np.array([1.0, 2.0, 1.0, 1.0, 2.0])
        g = from_edges(5, u, v, w)
        sess = StreamSession(g, 3, seed=0)
        up = sess.update(edge_delta(inserts=[(1, 3, 1.5)]))
        assert up.mode == "relayout" and up.reason == "weighted"

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            StreamPolicy(drift_threshold=0.0)
        with pytest.raises(ValueError, match="staleness_limit"):
            StreamPolicy(staleness_limit=0)

    def test_plain_ortho_warm_prefix(self, medium_graph):
        g = medium_graph
        sess = StreamSession(g, 8, seed=0, kernels={"ortho": "plain"})
        # edit far from the first pivots' BFS trees is not guaranteed, so
        # just assert the repair path still produces exact B and sane S
        nbr = int(g.neighbors(g.n - 1)[0])
        up = sess.update(edge_delta(deletes=[(g.n - 1, nbr)]))
        if up.mode == "repair":
            fresh = run_sources(sess.graph, sess.pivots)
            np.testing.assert_array_equal(sess.B, fresh.distances)
            # S is orthonormal (plain inner product)
            gram = sess.S.T @ sess.S
            np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_snapshot_and_warm_start_roundtrip(self, tmp_path, medium_graph):
        g = medium_graph
        sess = StreamSession(g, 8, seed=0)
        path = tmp_path / "frame.npz"
        save_layout(sess.snapshot_result(), path)
        warm = StreamSession.from_layout(g, path)
        np.testing.assert_array_equal(warm.pivots, sess.pivots)
        np.testing.assert_array_equal(warm.B, sess.B)
        nbr = int(g.neighbors(0)[0])
        up = warm.update(edge_delta(deletes=[(0, nbr)]))
        fresh = run_sources(warm.graph, warm.pivots)
        np.testing.assert_array_equal(warm.B, fresh.distances)
        assert up.epoch == 1

    def test_from_layout_requires_subspace(self, tmp_path, medium_graph):
        g = medium_graph
        res = parhde(g, 8, seed=0)
        path = tmp_path / "slim.npz"
        save_layout(res, path, include_subspace=False)
        with pytest.raises(ValueError, match="include_subspace"):
            StreamSession.from_layout(g, path)


# ---------------------------------------------------------------------------
# serialize v3
# ---------------------------------------------------------------------------
class TestSerializeV3:
    def test_default_carries_subspace(self, tmp_path, small_grid):
        res = parhde(small_grid, 6, seed=0)
        path = tmp_path / "full.npz"
        save_layout(res, path)
        loaded = load_layout(path)
        np.testing.assert_array_equal(loaded.B, res.B)
        np.testing.assert_array_equal(loaded.S, res.S)
        np.testing.assert_array_equal(loaded.pivots, res.pivots)
        with np.load(path) as data:
            assert int(data["format_version"]) == FORMAT_VERSION == 3
            assert int(data["has_subspace"]) == 1

    def test_slim_archive_drops_subspace(self, tmp_path, small_grid):
        res = parhde(small_grid, 6, seed=0)
        full, slim = tmp_path / "full.npz", tmp_path / "slim.npz"
        save_layout(res, full)
        save_layout(res, slim, include_subspace=False)
        assert slim.stat().st_size < full.stat().st_size
        loaded = load_layout(slim)
        np.testing.assert_array_equal(loaded.coords, res.coords)
        assert loaded.B.size == 0 and loaded.S.size == 0
        assert loaded.pivots.size == 0
        assert loaded.params["s"] == 6  # params echo survives

    def test_v2_archive_still_loads(self, tmp_path, small_grid):
        res = parhde(small_grid, 6, seed=0)
        path = tmp_path / "v2.npz"
        # a v2 archive: no has_subspace key, version stamp 2
        np.savez_compressed(
            path,
            format_version=np.int64(2),
            coords=res.coords,
            B=res.B,
            S=res.S,
            eigenvalues=res.eigenvalues,
            pivots=res.pivots,
            dropped=np.asarray(res.dropped, dtype=np.int64),
            algorithm=np.array(res.algorithm),
            params=np.array(json.dumps({"s": 6})),
        )
        loaded = load_layout(path)
        np.testing.assert_array_equal(loaded.B, res.B)
        assert loaded.params["s"] == 6

    def test_future_version_clear_error(self, tmp_path, small_grid):
        res = parhde(small_grid, 6, seed=0)
        path = tmp_path / "future.npz"
        save_layout(res, path)
        import zipfile

        # rewrite the version stamp to a future one
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.int64(99)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="newer"):
            load_layout(path)


# ---------------------------------------------------------------------------
# Engine updates + cache staleness regression
# ---------------------------------------------------------------------------
def _grid_loader(name, scale, seed):
    if name != "grid":
        raise KeyError(f"unknown graph {name!r}")
    return grid2d(8, 9)


class TestEngineUpdates:
    def test_update_bumps_epoch_and_busts_cache(self):
        """Regression: an updated graph must never serve a stale layout."""
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            req = LayoutRequest(graph="grid", s=6, seed=0)
            cold = eng.submit(req)
            assert cold.status == "computed"
            assert eng.submit(req).cache_hit

            upd = eng.update(
                UpdateRequest(graph="grid", inserts=((0, 71),))
            )
            assert upd.epoch == 1 and upd.inserted == 1 and upd.skipped == 0
            assert upd.m == cold.m + 1

            after = eng.submit(req)
            assert after.status == "computed"  # NOT a cache hit
            assert after.fingerprint != cold.fingerprint
            assert after.m == cold.m + 1
            # and the post-update fingerprint is itself stable
            assert eng.submit(req).cache_hit

    def test_disk_tier_cannot_serve_stale_layout(self, tmp_path):
        """Regression: disk-tier keys include the graph epoch."""
        g = grid2d(8, 9)
        res = parhde(g, 6, seed=0)
        tier2 = tmp_path / "tier2"
        tier2.mkdir()
        # seed the disk tier with the epoch-0 layout, as a restart would
        fp0 = layout_fingerprint(g, "parhde", {"s": 6, "seed": 0}, epoch=0)
        save_layout(res, tier2 / f"{fp0}.npz")
        cache = LayoutCache(max_bytes=10**9, disk_dir=tier2)
        with LayoutEngine(cache=cache, graph_loader=_grid_loader) as eng:
            req = LayoutRequest(graph="grid", s=6, seed=0)
            assert eng.submit(req).status == "disk-hit"
            eng.update(UpdateRequest(graph="grid", inserts=((0, 71),)))
            after = eng.submit(req)
            assert after.status == "computed"
            assert after.fingerprint != fp0

    def test_update_discards_unreachable_layouts(self, tmp_path):
        """The pre-update layout leaves the memory tier, not the disk."""
        cache = LayoutCache(disk_dir=tmp_path)
        with LayoutEngine(cache=cache, graph_loader=_grid_loader) as eng:
            req = LayoutRequest(graph="grid", s=6, seed=0)
            other = LayoutRequest(graph="grid", s=5, seed=0)
            old = [eng.submit(req).fingerprint, eng.submit(other).fingerprint]
            assert cache.stats()["entries"] == 2
            eng.update(UpdateRequest(graph="grid", inserts=((0, 71),)))
            assert cache.stats()["entries"] == 0
            assert cache.stats()["discards"] == 2
            assert all((tmp_path / f"{fp}.npz").exists() for fp in old)

            after = eng.submit(req)
            assert after.status == "computed"
            assert eng.submit(req).status == "memory-hit"
            assert cache.stats()["entries"] == 1

    def test_update_validation(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            with pytest.raises(BadRequest, match="no operations"):
                eng.update(UpdateRequest(graph="grid"))
            with pytest.raises(BadRequest, match="unknown graph"):
                eng.update(UpdateRequest(graph="nope", inserts=((0, 1),)))
            with pytest.raises(BadRequest, match="bad delta"):
                eng.update(UpdateRequest(graph="grid", inserts=((3, 3),)))
            with pytest.raises(BadRequest, match="vertex set is fixed"):
                eng.update(UpdateRequest(graph="grid", inserts=((0, 10**6),)))

    def test_noop_update_counts_skips(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            g = grid2d(8, 9)
            nbr = int(g.neighbors(0)[0])
            upd = eng.update(
                UpdateRequest(graph="grid", inserts=((0, nbr),))
            )
            assert upd.skipped == 1 and upd.inserted == 0
            assert upd.epoch == 1  # epoch bumps regardless

    def test_in_memory_graph_not_updatable(self, small_grid):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            with pytest.raises(BadRequest, match="named graphs only"):
                eng.update(UpdateRequest(graph=small_grid))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# HTTP /update route
# ---------------------------------------------------------------------------
def _post(url: str, route: str, body: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        url + route,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestUpdateRoute:
    @pytest.fixture()
    def server(self):
        eng = LayoutEngine(graph_loader=_grid_loader, workers=2, timeout=30)
        srv = make_server(eng, port=0).start()
        yield srv
        srv.shutdown()
        eng.close()

    def test_update_then_layout_roundtrip(self, server):
        body = {"graph": "grid", "s": 6}
        status, cold = _post(server.url, "/layout", body)
        assert status == 200 and cold["status"] == "computed"

        status, upd = _post(
            server.url, "/update", {"graph": "grid", "inserts": [[0, 71]]}
        )
        assert status == 200
        assert upd["epoch"] == 1 and upd["inserted"] == 1
        assert upd["m"] == cold["m"] + 1

        status, after = _post(server.url, "/layout", body)
        assert status == 200 and after["status"] == "computed"
        assert after["fingerprint"] != cold["fingerprint"]
        assert after["m"] == cold["m"] + 1

    def test_update_errors(self, server):
        status, err = _post(server.url, "/update", {"graph": "nope",
                                                    "inserts": [[0, 1]]})
        assert status == 400 and err["error"] == "bad_request"
        status, err = _post(server.url, "/update", {"graph": "grid"})
        assert status == 400
        status, err = _post(
            server.url, "/update", {"graph": "grid", "inserts": "zap"}
        )
        assert status == 400
        status, err = _post(
            server.url, "/update", {"graph": "grid", "inserts": [[2, 2]]}
        )
        assert status == 400
