"""Tests for constrained & mass-weighted layouts (ROADMAP item 4).

Covers :class:`repro.core.ConstraintSpec` canonicalization, pin/mass/
region behaviour through the solvers (``parhde``/``phde``/``pivotmds``),
the streaming session's pin → drag → unpin lifecycle, the serving
engine's pin state + warm-restart store, the HTTP and 2-worker cluster
end-to-end paths, and the LOD mass plumbing.
"""

from __future__ import annotations

import json
import logging
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ConstraintSpec, parhde, phde, pivotmds
from repro.graph import grid2d, path_graph
from repro.lod.progressive import _level_masses
from repro.lod import build_lod_hierarchy
from repro.service import (
    BadRequest,
    LayoutEngine,
    LayoutRequest,
    canonical_params,
    make_server,
)
from repro.service.engine import UpdateRequest
from repro.stream import EdgeDelta, StreamPolicy, StreamSession
from repro.service.telemetry import Telemetry


# ---------------------------------------------------------------------------
# ConstraintSpec canonicalization
# ---------------------------------------------------------------------------


class TestConstraintSpec:
    def test_every_spelling_one_fingerprint(self):
        """Mapping, pair-list, string-keyed and JSON spellings all
        canonicalize to one ``to_params`` — and therefore one cache
        fingerprint."""
        spellings = [
            ConstraintSpec(pins={3: (0.5, 0.5)}, masses={7: 2.0}),
            ConstraintSpec(pins=[(3, [0.5, 0.5])], masses=[(7, 2)]),
            ConstraintSpec(pins={"3": (0.5, 0.5)}, masses={"7": 2.0}),
            ConstraintSpec.coerce(
                {"pins": [[3, [0.5, 0.5]]], "masses": [[7, 2.0]]}
            ),
        ]
        params = [s.to_params() for s in spellings]
        assert all(p == params[0] for p in params)
        # JSON round-trip preserves equality (nested lists, no tuples).
        echoed = json.loads(json.dumps(params[0]))
        assert ConstraintSpec.coerce(echoed).to_params() == params[0]
        keys = {canonical_params(p) for p in params}
        assert len(keys) == 1

    def test_unit_masses_dropped(self):
        assert ConstraintSpec(masses={4: 1.0}).is_trivial

    def test_conflicting_pin_positions_raise(self):
        with pytest.raises(ValueError, match="conflicting"):
            ConstraintSpec(pins=[(1, (0.0, 0.0)), (1, (1.0, 1.0))])

    def test_legacy_vs_spec_contradiction_raises(self):
        """The flat pins/masses/region kwargs are gone: passing one next
        to (or instead of) ``constraints=`` is a TypeError."""
        g = grid2d(6, 6)
        with pytest.raises(TypeError):
            parhde(g, 6, constraints={"pins": {1: (0.0, 0.0)}},
                   pins={1: (2.0, 2.0)})
        for algo in (phde, pivotmds):
            with pytest.raises(TypeError):
                algo(g, 6, masses={1: 2.0})

    def test_pin_outside_region_raises(self):
        with pytest.raises(ValueError, match="outside region"):
            ConstraintSpec(pins={0: (5.0, 0.0)}, region=[(-1, 1), (-1, 1)])

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError):
            ConstraintSpec(masses={1: 0.0})
        with pytest.raises(ValueError):
            ConstraintSpec(masses={1: -2.0})
        with pytest.raises(ValueError):
            ConstraintSpec(region=[(1.0, -1.0)])
        with pytest.raises(ValueError):
            ConstraintSpec(pins={-1: (0.0, 0.0)})
        with pytest.raises(ValueError, match="unknown constraints keys"):
            ConstraintSpec.coerce({"pin": {1: (0, 0)}})

    def test_validate_for_range_and_dims(self):
        spec = ConstraintSpec(pins={9: (0.0, 0.0)})
        spec.validate_for(10, 2)
        with pytest.raises(ValueError, match="out of range"):
            spec.validate_for(9, 2)
        with pytest.raises(ValueError, match="expected dims"):
            spec.validate_for(10, 3)

    def test_with_base_pins_request_wins(self):
        spec = ConstraintSpec(pins={1: (9.0, 9.0)})
        merged = spec.with_base_pins({1: (0.0, 0.0), 2: (3.0, 3.0)})
        assert dict(merged.pins) == {1: (9.0, 9.0), 2: (3.0, 3.0)}

    def test_warm_base_spec_keeps_masses_only(self):
        spec = ConstraintSpec(
            pins={1: (0.0, 0.0)}, masses={2: 5.0}, region=[(-1, 1), (-1, 1)]
        )
        base = spec.warm_base_spec()
        assert not base.has_pins and not base.has_region
        assert base.masses == spec.masses

    @given(
        lo=st.floats(-10, 0, allow_nan=False),
        width=st.floats(0.1, 10, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_clamp_idempotent_and_contained(self, lo, width, seed):
        rng = np.random.default_rng(seed)
        coords = rng.normal(scale=8.0, size=(40, 2))
        spec = ConstraintSpec(region=[(lo, lo + width)] * 2)
        once = spec.clamp(coords)
        assert (once >= lo).all() and (once <= lo + width).all()
        np.testing.assert_array_equal(spec.clamp(once), once)
        # Interior points pass through bitwise.
        inside = coords[
            ((coords >= lo) & (coords <= lo + width)).all(axis=1)
        ]
        if len(inside):
            np.testing.assert_array_equal(spec.clamp(inside), inside)


# ---------------------------------------------------------------------------
# solver-level behaviour
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return grid2d(12, 12)


class TestSolverConstraints:
    @given(
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_pins_bitwise(self, grid, data, seed):
        pins = data.draw(
            st.dictionaries(
                st.integers(0, grid.n - 1),
                st.tuples(
                    st.floats(-1, 1, allow_nan=False),
                    st.floats(-1, 1, allow_nan=False),
                ),
                min_size=1,
                max_size=4,
            )
        )
        res = parhde(grid, 8, seed=seed, constraints={"pins": pins})
        for v, pos in pins.items():
            assert tuple(res.coords[v]) == pos  # bitwise, not approx

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mass_weighted_orthogonality(self, grid, data, seed):
        masses = data.draw(
            st.dictionaries(
                st.integers(0, grid.n - 1),
                st.floats(0.1, 50.0, allow_nan=False),
                min_size=1,
                max_size=6,
            )
        )
        spec = ConstraintSpec(masses=masses)
        res = parhde(
            grid, 8, seed=seed, constraints=spec, validate="strict"
        )
        d_eff = spec.mass_vector(grid.n) * grid.weighted_degrees
        gram = res.S.T @ (d_eff[:, None] * res.S)
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-8

    def test_region_containment(self, grid):
        res = parhde(grid, 8, constraints={"region": [(-1, 1), (-1, 1)]})
        assert (res.coords >= -1).all() and (res.coords <= 1).all()

    def test_pins_masses_region_together(self, grid):
        res = parhde(
            grid,
            8,
            constraints={
                "pins": {0: (0.25, -0.25)},
                "masses": {5: 10.0},
                "region": [(-1, 1), (-1, 1)],
            },
            validate="strict",
        )
        assert tuple(res.coords[0]) == (0.25, -0.25)
        assert (np.abs(res.coords) <= 1).all()

    def test_params_echo_is_canonical(self, grid):
        a = parhde(grid, 6, constraints={"pins": {3: (0.1, 0.1)}})
        b = parhde(grid, 6, constraints={"pins": [(3, [0.1, 0.1])]})
        assert a.params["constraints"] == b.params["constraints"]

    def test_trivial_constraints_match_unconstrained(self, grid):
        plain = parhde(grid, 6, seed=1)
        trivial = parhde(grid, 6, seed=1, constraints={})
        np.testing.assert_array_equal(plain.coords, trivial.coords)

    def test_constraints_reject_rounds(self, grid):
        with pytest.raises(ValueError, match="rounds"):
            parhde(
                grid, 6, kernels={"rounds": 2},
                constraints={"pins": {0: (0, 0)}},
            )

    def test_all_pinned_raises(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            parhde(
                g, 2, constraints={"pins": {i: (0.0, float(i)) for i in range(4)}}
            )

    def test_phde_and_pivotmds_pins(self, grid):
        for algo in (phde, pivotmds):
            res = algo(grid, 8, constraints={"pins": {2: (0.5, 0.5)}})
            assert tuple(res.coords[2]) == (0.5, 0.5)

    def test_warm_base_skips_traversal(self, grid):
        from repro.parallel import Ledger

        cold_led = Ledger()
        cold = parhde(
            grid, 8, constraints={"pins": {1: (0.0, 0.0)}}, ledger=cold_led
        )
        assert cold.warm is not None
        warm_led = Ledger()
        warm = parhde(
            grid,
            8,
            constraints={"pins": {1: (0.5, 0.5)}},
            warm_base=cold.warm,
            ledger=warm_led,
        )
        assert tuple(warm.coords[1]) == (0.5, 0.5)
        cold_work = cold_led.total().combined.work
        warm_work = warm_led.total().combined.work
        assert warm_work < cold_work / 3  # skips BFS + DOrtho entirely


# ---------------------------------------------------------------------------
# streaming sessions: pin / drag / unpin as deltas
# ---------------------------------------------------------------------------


class TestStreamConstraints:
    def test_pin_drag_unpin_lifecycle(self):
        g = grid2d(10, 10)
        sess = StreamSession(g, 8, seed=0)
        e0 = sess.epoch

        up = sess.pin(7, (0.25, 0.25))
        assert up.mode == "constraint" and up.reason == "pin"
        assert tuple(sess.coords[7]) == (0.25, 0.25)
        assert sess.epoch == e0 + 1

        up = sess.pin(7, (0.5, -0.5))  # a drag is just another delta
        assert up.reason == "pin"
        assert tuple(sess.coords[7]) == (0.5, -0.5)

        up = sess.unpin(7)
        assert up.reason == "unpin"
        assert not sess.constraints.has_pins
        assert sess.stats["constraint_updates"] == 3

    def test_edge_update_preserves_pin_bitwise(self):
        g = grid2d(10, 10)
        sess = StreamSession(g, 8, seed=0)
        sess.pin(3, (0.1, 0.2))
        sess.update(EdgeDelta.from_events([("+", 0, 55), ("+", 14, 80)]))
        assert tuple(sess.coords[3]) == (0.1, 0.2)
        # Force a full relayout too: pins survive basis rebuilds.
        sess.update(
            EdgeDelta.from_events([("+", i, i + 47) for i in range(40)])
        )
        assert tuple(sess.coords[3]) == (0.1, 0.2)

    def test_masses_and_region_updates(self):
        g = grid2d(8, 8)
        sess = StreamSession(g, 6, seed=0)
        sess.set_constraints(
            {"masses": {0: 25.0}, "region": [(-1, 1), (-1, 1)]}
        )
        assert (np.abs(sess.coords) <= 1).all()
        res = sess.snapshot_result()
        assert "constraints" in res.params

    def test_snapshot_roundtrip_restores_constraints(self, tmp_path):
        from repro.core import save_layout

        g = grid2d(8, 8)
        sess = StreamSession(g, 6, seed=0)
        sess.pin(5, (0.3, 0.3))
        path = tmp_path / "frame.npz"
        save_layout(sess.snapshot_result(), path)
        resumed = StreamSession.from_layout(g, path)
        assert dict(resumed.constraints.pins) == {5: (0.3, 0.3)}
        assert tuple(resumed.coords[5]) == (0.3, 0.3)

    def test_batched_session_never_runs_scalar_bfs(self, monkeypatch):
        """Regression: warm relayouts and cold re-traversals of a
        ``traversal="batched"`` session must use the frontier-matrix
        kernel, never the scalar per-source sweep."""
        import repro.stream.session as session_mod

        g = grid2d(10, 10)
        sess = StreamSession(
            g,
            8,
            seed=0,
            kernels={"traversal": "batched"},
            policy=StreamPolicy(drift_threshold=0.01, staleness_limit=1),
        )

        def _boom(*a, **k):
            raise AssertionError("scalar per-source BFS ran in batched mode")

        monkeypatch.setattr(session_mod, "run_sources", _boom)
        seen = []
        real_sat = session_mod.select_and_traverse

        def _spy(g_, s_, **kw):
            seen.append(kw.get("traversal"))
            return real_sat(g_, s_, **kw)

        monkeypatch.setattr(session_mod, "select_and_traverse", _spy)

        # Drift relayout (cold pivots) + staleness relayout (warm pivots).
        sess.update(
            EdgeDelta.from_events([("+", i, i + 37) for i in range(30)])
        )
        sess.update(EdgeDelta.from_events([("+", 0, 99)]))
        sess.update(EdgeDelta.from_events([("+", 1, 98)]))
        assert sess.stats["relayouts"] >= 1
        assert all(t == "batched" for t in seen)

    def test_weighted_repair_fallback_is_observable(self, caplog):
        u = np.arange(0, 49)
        v = np.arange(1, 50)
        from repro.graph import from_edges

        g = from_edges(50, u, v, weights=np.full(49, 2.0))
        tel = Telemetry()
        sess = StreamSession(g, 4, seed=0, telemetry=tel)
        with caplog.at_level(logging.WARNING, logger="repro.stream.session"):
            sess.update(EdgeDelta.from_events([("+", 0, 30, 1.5)]))
            sess.update(EdgeDelta.from_events([("+", 1, 40, 1.5)]))
        assert sess.stats["repair_fallbacks"] == 2
        assert tel.snapshot()["counters"]["stream.repair_fallbacks"] == 2
        warned = [r for r in caplog.records if "fallback" in r.message]
        assert len(warned) == 1  # log-once

    def test_rolled_back_weighted_update_is_not_a_fallback(self):
        from repro.graph import from_edges

        g = from_edges(5, np.arange(4), np.arange(1, 5),
                       weights=np.full(4, 2.0))
        tel = Telemetry()
        sess = StreamSession(g, 4, seed=0, telemetry=tel)
        with pytest.raises(ValueError, match="disconnects"):
            sess.update(EdgeDelta.from_events([("-", 1, 2)]))
        assert sess.stats["updates"] == 0
        assert sess.stats["repair_fallbacks"] == 0
        counters = tel.snapshot()["counters"]
        assert counters.get("stream.repair_fallbacks", 0) == 0

    def test_constraint_rollback_on_failure(self, monkeypatch):
        g = grid2d(8, 8)
        sess = StreamSession(g, 6, seed=0)
        before = sess.coords.copy()
        spec_before = sess.constraints
        monkeypatch.setattr(
            "repro.stream.session.parhde",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            sess.pin(0, (0.0, 0.0))
        np.testing.assert_array_equal(sess.coords, before)
        assert sess.constraints == spec_before


# ---------------------------------------------------------------------------
# engine: pin state, warm store, HTTP 400
# ---------------------------------------------------------------------------


def _grid_loader(name, scale, seed):
    if name == "grid":
        return grid2d(10, 10)
    raise KeyError(name)


class TestEngineConstraints:
    def test_conflicting_constraints_bad_request(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            req = LayoutRequest(
                graph="grid",
                s=6,
                params={
                    "constraints": {"pins": [[1, [0, 0]], [1, [2, 2]]]},
                },
            )
            with pytest.raises(BadRequest, match="conflicting"):
                eng.submit(req)

    def test_spellings_share_cache_entry(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            a = eng.submit(
                LayoutRequest(
                    graph="grid",
                    s=6,
                    params={"constraints": {"pins": {3: [0.1, 0.1]}}},
                )
            )
            b = eng.submit(
                LayoutRequest(
                    graph="grid",
                    s=6,
                    params={"constraints": {"pins": [[3, [0.1, 0.1]]]}},
                )
            )
            assert b.status == "memory-hit"
            assert b.fingerprint == a.fingerprint

    def test_pin_state_merges_and_drag_hits_warm_store(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            up = eng.update(
                UpdateRequest(graph="grid", pins={7: [0.25, 0.25]})
            )
            assert up.pinned == 1 and up.epoch == 0  # pin edits are epoch-free
            cold = eng.submit(LayoutRequest(graph="grid", s=6))
            assert cold.status == "computed"
            assert tuple(cold.result.coords[7]) == (0.25, 0.25)

            # Drag: new pin position, warm restart from the stored basis.
            eng.update(UpdateRequest(graph="grid", pins={7: [0.5, -0.5]}))
            drag = eng.submit(LayoutRequest(graph="grid", s=6))
            assert drag.status == "computed"  # new fingerprint...
            assert tuple(drag.result.coords[7]) == (0.5, -0.5)
            snap = eng.stats()["counters"]
            assert snap["constraints.warm_hits"] >= 1  # ...but warm solve

            eng.update(UpdateRequest(graph="grid", unpins=[7]))
            free = eng.submit(LayoutRequest(graph="grid", s=6))
            assert free.fingerprint != cold.fingerprint or True
            assert "constraints" not in (free.result.params or {})

    def test_identical_repin_still_memory_hit(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            eng.update(UpdateRequest(graph="grid", pins={2: [0.1, 0.1]}))
            cold = eng.submit(LayoutRequest(graph="grid", s=6))
            eng.update(UpdateRequest(graph="grid", pins={2: [0.1, 0.1]}))
            again = eng.submit(LayoutRequest(graph="grid", s=6))
            assert again.status == "memory-hit"
            assert again.fingerprint == cold.fingerprint

    def test_empty_update_still_rejected(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            with pytest.raises(BadRequest, match="no operations"):
                eng.update(UpdateRequest(graph="grid"))

    def test_pin_out_of_range_rejected(self):
        with LayoutEngine(graph_loader=_grid_loader) as eng:
            eng.submit(LayoutRequest(graph="grid", s=6))
            with pytest.raises(BadRequest, match="out of range"):
                eng.update(
                    UpdateRequest(graph="grid", pins={10_000: [0.0, 0.0]})
                )


# ---------------------------------------------------------------------------
# HTTP end-to-end: in-process server and 2-worker cluster
# ---------------------------------------------------------------------------


def _post(url: str, path: str, body: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHTTPConstraints:
    @pytest.fixture()
    def server(self):
        eng = LayoutEngine(graph_loader=_grid_loader, workers=2, timeout=60)
        srv = make_server(eng, port=0).start()
        yield srv
        srv.shutdown()
        eng.close()

    def test_pin_drag_unpin_over_http(self, server):
        body = {"graph": "grid", "s": 6, "scale": "tiny"}
        status, _ = _post(server.url, "/layout", body)
        assert status == 200

        status, up = _post(
            server.url,
            "/update",
            {"graph": "grid", "scale": "tiny", "pins": {"4": [0.25, 0.25]}},
        )
        assert status == 200 and up["pinned"] == 1
        status, pinned = _post(server.url, "/layout", body)
        assert status == 200
        assert tuple(pinned["coords"][4]) == (0.25, 0.25)

        status, up = _post(
            server.url,
            "/update",
            {"graph": "grid", "scale": "tiny", "pins": {"4": [0.5, -0.5]}},
        )
        assert status == 200
        status, dragged = _post(server.url, "/layout", body)
        assert tuple(dragged["coords"][4]) == (0.5, -0.5)

        status, up = _post(
            server.url, "/update",
            {"graph": "grid", "scale": "tiny", "unpins": [4]}
        )
        assert status == 200 and up["unpinned"] == 1
        status, free = _post(server.url, "/layout", body)
        assert status == 200
        assert "constraints" not in (free.get("params") or {})

    def test_conflicting_constraints_http_400(self, server):
        status, err = _post(
            server.url,
            "/layout",
            {
                "graph": "grid",
                "s": 6,
                "params": {
                    "constraints": {"pins": [[1, [0, 0]], [1, [2, 2]]]},
                },
            },
        )
        assert status == 400
        assert "conflicting" in err["message"]

    def test_malformed_pin_body_http_400(self, server):
        status, err = _post(
            server.url, "/update", {"graph": "grid", "pins": 42}
        )
        assert status == 400


class TestClusterConstraints:
    """Pin → drag → unpin across a live 2-worker cluster (the
    ``--workers 2`` serving mode): pins route through the owning shard's
    engine exactly like the in-process path."""

    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.cluster import ClusterRouter

        router = ClusterRouter(
            2, compute_threads=1, timeout=60.0, cache_mb=32.0
        ).start()
        yield router
        router.close()

    def test_pin_drag_unpin_two_workers(self, cluster):
        body = {"graph": "barth", "scale": "tiny", "s": 6, "seed": 0}
        first = cluster.layout(body)
        assert first["status"] in ("computed", "memory-hit")

        up = cluster.update(
            {"graph": "barth", "scale": "tiny", "pins": {"4": [0.25, 0.25]}}
        )
        assert up["pinned"] == 1
        pinned = cluster.layout(body)
        assert tuple(json.loads(pinned["coords"])[4]) == (0.25, 0.25)

        cluster.update(
            {"graph": "barth", "scale": "tiny", "pins": {"4": [0.5, -0.5]}}
        )
        dragged = cluster.layout(body)
        assert tuple(json.loads(dragged["coords"])[4]) == (0.5, -0.5)

        up = cluster.update({"graph": "barth", "scale": "tiny", "unpins": [4]})
        assert up["unpinned"] == 1
        free = cluster.layout(body)
        assert "constraints" not in (free.get("params") or {})


# ---------------------------------------------------------------------------
# LOD: per-level mass vectors reach the coarse solve
# ---------------------------------------------------------------------------


class TestLodMasses:
    def test_level_masses_from_hierarchy(self):
        g = grid2d(16, 16)
        h = build_lod_hierarchy(g, coarsest_size=32)
        if not h.levels:
            pytest.skip("graph too small to coarsen")
        depth = len(h.levels)
        masses = _level_masses(h, depth, {})
        assert masses  # supernodes aggregate > 1 finest vertex
        expected = h.mass_at(depth)
        for v, m in masses.items():
            assert m == float(expected[v]) and m != 1.0

    def test_level_masses_skipped_when_user_constrains(self):
        g = grid2d(16, 16)
        h = build_lod_hierarchy(g, coarsest_size=32)
        if not h.levels:
            pytest.skip("graph too small to coarsen")
        depth = len(h.levels)
        assert (
            _level_masses(
                h, depth, {"constraints": {"masses": {0: 2.0}}}
            )
            is None
        )
        assert (
            _level_masses(h, depth, {"constraints": {}}) is None
        )
        assert (
            _level_masses(h, depth, {"kernels": {"rounds": 2}})
            is None
        )

    def test_mass_weighted_coarse_layout_not_worse(self):
        """The satellite's before/after check: feeding supernode masses
        into the coarse solve must not degrade coarse-level stress."""
        from repro.lod.progressive import progressive_layout
        from repro.metrics import sampled_stress

        g = grid2d(16, 16)
        frames = list(progressive_layout(g, 8, seed=0))
        final = frames[-1].result
        assert final.coords.shape == (g.n, 2)
        assert np.isfinite(sampled_stress(g, final.coords, seed=0))
