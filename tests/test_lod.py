"""Tests for the progressive level-of-detail subsystem (:mod:`repro.lod`).

Covers the spectral coarsening primitives, the hierarchy's conservation
and interlacing invariants (property-based where exact spectra are
cheap), the distortion checker, and the engine's progressive serving
protocol: first paint, refine-to-full, epoch invalidation, and one
accounting path per request.
"""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    complete_graph,
    cycle_graph,
    from_edges,
    grid2d,
    path_graph,
    preprocess,
    star_graph,
    uniform_random,
)
from repro.lod import (
    LodConfig,
    build_lod_hierarchy,
    measure_distortion,
    progressive_layout,
    tier_name,
)
from repro.multilevel import (
    absorb_singletons,
    contract,
    heavy_edge_matching,
    spectral_matching,
)
from repro.resilience import is_lod_tier, tier_rank
from repro.service import LayoutCache, LayoutEngine, LayoutRequest, LayoutServer
from repro.service.http import layout_doc_from_query, parse_lod_value
from repro.validate import check_lod_distortion

from conftest import random_connected_graph


# ---------------------------------------------------------------------------
# spectral matching
# ---------------------------------------------------------------------------


class TestSpectralMatching:
    def test_valid_involution(self, small_random):
        match = spectral_matching(small_random, seed=3)
        n = small_random.n
        assert match.shape == (n,)
        # An involution: match[match[v]] == v, and no self-loops except
        # the fixed points (unmatched vertices map to themselves).
        assert np.array_equal(match[match], np.arange(n))

    def test_matched_pairs_are_edges(self, small_random):
        g = small_random
        match = spectral_matching(g, seed=1)
        src = np.repeat(np.arange(g.n), g.degrees)
        edges = set(zip(src.tolist(), g.indices.tolist()))
        for u in range(g.n):
            if match[u] != u:
                assert (u, int(match[u])) in edges

    def test_deterministic(self, small_random):
        a = spectral_matching(small_random, seed=7)
        b = spectral_matching(small_random, seed=7)
        assert np.array_equal(a, b)

    def test_shrinks_regular_graphs(self):
        # Regular graphs have uniform scores; the hash jitter must still
        # break ties well enough to land a near-perfect matching.
        g = grid2d(20, 20)
        match = spectral_matching(g, seed=0)
        matched = int((match != np.arange(g.n)).sum())
        assert matched >= 0.6 * g.n


# ---------------------------------------------------------------------------
# row-grouped coarsening == the sort-based formulas, bit for bit
# ---------------------------------------------------------------------------


def _sorted_first_per_source(src, score):
    """Each source's lowest-score edge by a stable lexsort: ties to CSR order."""
    order = np.lexsort((score, src))
    src_sorted = src[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = src_sorted[1:] != src_sorted[:-1]
    return order[first]


def _reference_scores(g):
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    dst = g.indices.astype(np.int64)
    w = g.weights if g.weights is not None else np.ones(len(dst))
    wdeg = g.weighted_degrees
    inv = np.zeros(g.n)
    np.divide(1.0, wdeg, out=inv, where=wdeg > 0)
    return src, dst, w * (inv[src] + inv[dst])


def _reference_matching(g, seed, rounds=6):
    """The lexsort handshake over every live edge, once per round."""
    n = g.n
    match = np.arange(n, dtype=np.int64)
    if n == 0 or g.nnz == 0:
        return match
    src, dst, score = _reference_scores(g)
    lo = np.minimum(src, dst).astype(np.uint64)
    hi = np.maximum(src, dst).astype(np.uint64)
    key = lo * np.uint64(2654435761) + hi * np.uint64(40503) + np.uint64(seed)
    mix = (key ^ (key >> np.uint64(15))) * np.uint64(0x9E3779B97F4A7C15)
    u01 = (mix >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    score = score * (1.0 + 1e-3 * u01) + 1e-12 * u01
    free = np.ones(n, dtype=bool)
    for _ in range(rounds):
        live = free[src] & free[dst]
        if not live.any():
            break
        ls, ld, lsc = src[live], dst[live], score[live]
        pick = _sorted_first_per_source(ls, lsc)
        best = np.full(n, -1, dtype=np.int64)
        best[ls[pick]] = ld[pick]
        v = np.nonzero(best >= 0)[0]
        mutual = v[(best[best[v]] == v) & (v < best[v])]
        if len(mutual) == 0:
            break
        partner = best[mutual]
        match[mutual] = partner
        match[partner] = mutual
        free[mutual] = False
        free[partner] = False
    return match


def _reference_absorb(g, match, cap=3):
    n = g.n
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    free = match == np.arange(n)
    if not free.any() or g.nnz == 0:
        return rep
    src, dst, score = _reference_scores(g)
    sel = free[src] & ~free[dst]
    if not sel.any():
        return rep
    fs, fd, fsc = src[sel], dst[sel], score[sel]
    pick = _sorted_first_per_source(fs, fsc)
    cand, target, best_score = fs[pick], rep[fd[pick]], fsc[pick]
    o2 = np.lexsort((best_score, target))
    tgt_s, cand_s = target[o2], cand[o2]
    newgrp = np.ones(len(tgt_s), dtype=bool)
    newgrp[1:] = tgt_s[1:] != tgt_s[:-1]
    starts = np.nonzero(newgrp)[0]
    lengths = np.diff(np.append(starts, len(tgt_s)))
    pos = np.arange(len(tgt_s)) - np.repeat(starts, lengths)
    keep = pos < cap
    rep[cand_s[keep]] = tgt_s[keep]
    return rep


def _reference_contract(g, match):
    """``np.unique`` ids, parallel edges summed in CSR order, ``from_edges``."""
    if np.array_equal(match[match], match):
        group_rep = match
    else:
        group_rep = np.minimum(np.arange(g.n), match)
    _, mapping = np.unique(group_rep, return_inverse=True)
    n_c = int(mapping.max()) + 1 if g.n else 0
    src = mapping[np.repeat(np.arange(g.n), g.degrees)]
    dst = mapping[g.indices.astype(np.int64)]
    keep = src < dst
    w = g.weights[keep] if g.weights is not None else np.ones(int(keep.sum()))
    key = src[keep] * n_c + dst[keep]
    order = np.argsort(key, kind="stable")
    key_s, w_s = key[order], w[order]
    if len(key_s) == 0:
        return mapping, from_edges(n_c, [], [])
    new = np.ones(len(key_s), dtype=bool)
    new[1:] = np.diff(key_s) != 0
    wsum = np.zeros(int(new.sum()))
    np.add.at(wsum, np.cumsum(new) - 1, w_s)
    eu, ev = src[keep][order][new], dst[keep][order][new]
    return mapping, from_edges(n_c, eu, ev, wsum)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _hub_path(hubs=8, leaves=20):
    """Hubs on a path, each with its own leaves (a starving matching)."""
    hub_ids = np.arange(hubs) * (leaves + 1)
    u = np.concatenate([hub_ids[:-1], np.repeat(hub_ids, leaves)])
    v = np.concatenate(
        [hub_ids[1:], (hub_ids[:, None] + 1 + np.arange(leaves)).ravel()]
    )
    return from_edges(hubs * (leaves + 1), u, v)


@st.composite
def coarsening_graphs(draw):
    """Weighted or not, with isolated vertices, hubs, or no edges at all."""
    kind = draw(st.sampled_from(["random", "star", "edgeless", "stars"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "star":
        g = star_graph(draw(st.integers(2, 40)))
        u, v = g.edge_list()
        n = g.n
    elif kind == "edgeless":
        n = draw(st.integers(1, 12))
        u = v = np.zeros(0, dtype=np.int64)
    elif kind == "stars":
        g = _hub_path(draw(st.integers(2, 6)), draw(st.integers(2, 12)))
        u, v = g.edge_list()
        n = g.n
    else:
        n = draw(st.integers(1, 50))
        m = draw(st.integers(0, 3 * n))
        u, v = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    weighted = draw(st.sampled_from([None, "ties", "real"]))
    w = None
    if weighted == "ties":  # few distinct weights: many equal scores
        w = rng.integers(1, 3, size=len(u)).astype(np.float64)
    elif weighted == "real":
        w = rng.uniform(0.1, 5.0, size=len(u))
    if n > 2 and kind == "random":
        n += draw(st.integers(0, 4))  # trailing isolated vertices
    return from_edges(n, u, v, w)


@settings(max_examples=120, deadline=None)
@given(g=coarsening_graphs(), seed=st.integers(0, 1000))
def test_coarsening_bitwise_equals_sorted_formulas(g, seed):
    """Row-grouped matching, absorption and the direct coarse CSR build
    give the lexsort / ``from_edges`` results bit for bit."""
    match = spectral_matching(g, seed)
    assert _same_bits(match, _reference_matching(g, seed))
    rep = absorb_singletons(g, match)
    assert _same_bits(rep, _reference_absorb(g, match))
    # A few large groups give coarse pairs many parallel fine edges, so
    # the summation order shows in the weights' bits.
    labels = np.random.default_rng(seed).integers(0, 4, size=g.n)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    coarse_groups = first[inverse].astype(np.int64)
    for m in (match, rep, heavy_edge_matching(g, seed), coarse_groups):
        level = contract(g, m)
        mapping, want = _reference_contract(g, m)
        assert _same_bits(level.mapping, mapping)
        assert _same_bits(level.graph.indptr, want.indptr)
        assert _same_bits(level.graph.indices, want.indices)
        assert _same_bits(level.graph.weights, want.weights)
        level.graph.validate()


def test_hierarchy_contracts_once_per_kept_level(monkeypatch):
    """A step is decided from its matching's size, then contracted once:
    no contraction for a starved retry or for the step that stops."""
    import repro.lod.hierarchy as hierarchy_module

    calls = []
    real = hierarchy_module.contract

    def counting(g, match):
        calls.append(g.n)
        return real(g, match)

    monkeypatch.setattr(hierarchy_module, "contract", counting)
    for g in (_hub_path(), star_graph(200), grid2d(20, 20)):
        calls.clear()
        h = build_lod_hierarchy(g, coarsest_size=4, measure_limit=0)
        assert calls == h.sizes()[:-1]
    assert build_lod_hierarchy(_hub_path(), coarsest_size=4).depth >= 1


# ---------------------------------------------------------------------------
# hierarchy invariants (property-based)
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=60))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_connected_graph(n, extra, seed)


class TestHierarchyProperties:
    @settings(max_examples=25, deadline=None)
    @given(g=connected_graphs(), seed=st.integers(0, 100))
    def test_mass_conservation_under_contract(self, g, seed):
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=6, seed=seed, measure_limit=0
        )
        total = float(h.mass.sum())
        for depth in range(1, h.depth + 1):
            assert h.mass_at(depth).sum() == pytest.approx(total)

    @settings(max_examples=25, deadline=None)
    @given(g=connected_graphs())
    def test_restrict_prolong_identity(self, g):
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=6, measure_limit=0
        )
        for depth in range(h.depth + 1):
            n_c = h.graph_at(depth).n
            x = np.arange(n_c, dtype=np.float64)[:, None] * [1.0, -2.0]
            fine = h.prolong_to_finest(x, depth, jitter=0.0)
            back = h.restrict_to(fine, depth)
            assert np.allclose(back, x, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(g=connected_graphs(), seed=st.integers(0, 50))
    def test_one_sided_interlacing(self, g, seed):
        # Galerkin coarsening can only raise generalized eigenvalues:
        # mu_i >= lambda_i for every measured step.
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=6, seed=seed, measure_limit=10_000
        )
        for lvl in h.levels:
            assert lvl.distortion is not None
            assert lvl.distortion >= 1.0 - 1e-8

    def test_mapping_shapes_compose(self, small_grid):
        h = build_lod_hierarchy(small_grid, coarsest_size=8, measure_limit=0)
        assert h.depth >= 2
        assert h.sizes()[0] == small_grid.n
        for depth in range(h.depth + 1):
            mapping = h.mapping_to_finest(depth)
            assert mapping.shape == (small_grid.n,)
            assert mapping.max() < h.graph_at(depth).n
        # Depth 0 composes to the identity.
        assert np.array_equal(h.mapping_to_finest(0), np.arange(small_grid.n))


class TestDistortionExactSpectra:
    """Distortion against graphs whose spectra are known in closed form."""

    @pytest.mark.parametrize(
        "g",
        [path_graph(40), cycle_graph(48), grid2d(7, 9), complete_graph(24)],
        ids=["path", "cycle", "grid", "complete"],
    )
    def test_distortion_within_bound(self, g):
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=8, measure_limit=10_000
        )
        assert h.depth >= 1
        assert h.max_distortion is not None
        assert h.max_distortion < 3.0

    def test_path_exact_eigenvalues(self):
        # The path's pencil eigenvalues are 2 - 2 cos(pi k / n) for unit
        # mass; measure_distortion against itself must be exactly 1.
        g = path_graph(16)
        ones = np.ones(g.n)
        assert measure_distortion(g, ones, g, ones) == pytest.approx(1.0)

    def test_complete_graph_single_level(self):
        # K_n contracts to ~n/2 supervertices; nonzero eigenvalues of
        # K_n are all n, and Galerkin keeps ratios modest.
        g = complete_graph(16)
        h = build_lod_hierarchy(
            g, coarsest_size=2, max_levels=3, measure_limit=1_000
        )
        assert h.max_distortion is not None and h.max_distortion >= 1.0


# ---------------------------------------------------------------------------
# checker + tier plumbing
# ---------------------------------------------------------------------------


class TestCheckerAndTiers:
    def test_check_lod_distortion_ok(self, small_grid):
        h = build_lod_hierarchy(
            small_grid, coarsest_size=16, measure_limit=10_000
        )
        res = check_lod_distortion(h, bound=3.0)
        assert res.ok
        assert res.check == "lod.distortion"

    def test_check_lod_distortion_violation(self, small_grid):
        h = build_lod_hierarchy(
            small_grid, coarsest_size=16, measure_limit=10_000
        )
        res = check_lod_distortion(h, bound=1.0 + 1e-12)
        assert not res.ok

    def test_check_unmeasured_hierarchy_passes(self, small_grid):
        h = build_lod_hierarchy(small_grid, coarsest_size=16, measure_limit=0)
        assert h.max_distortion is None
        assert check_lod_distortion(h, bound=3.0).ok

    def test_tier_names_and_ranks(self):
        assert tier_name(0) == "full"
        assert tier_name(3) == "lod-3"
        assert tier_rank("full") == 0
        assert tier_rank("lod-1") == 1
        assert tier_rank("lod-7") == 7
        assert tier_rank("lod-zzz") == 999
        # Coarser tier => strictly larger rank; ladder tiers rank after
        # every lod tier (a coarse *exact* layout beats an approximation).
        assert tier_rank("full") < tier_rank("lod-1") < tier_rank("lod-2")
        assert tier_rank("lod-9") < tier_rank("baseline")
        assert is_lod_tier("lod-4")
        assert not is_lod_tier("full")
        assert not is_lod_tier(None)

    def test_lod_config_parse(self):
        assert LodConfig.parse(None) is None
        assert LodConfig.parse("off") is None
        assert LodConfig.parse(False) is None
        assert LodConfig.parse("auto").mode == "auto"
        assert LodConfig.parse(True).mode == "auto"
        cfg = LodConfig.parse(250)
        assert cfg.mode == "budget" and cfg.budget_ms == 250
        assert LodConfig.parse("125.5").budget_ms == pytest.approx(125.5)
        with pytest.raises(ValueError):
            LodConfig.parse(-5)
        with pytest.raises(ValueError):
            LodConfig.parse("nonsense")

    def test_parse_lod_value_http(self):
        from repro.service import BadRequest

        assert parse_lod_value(None) is None
        assert parse_lod_value("off") == "off"
        assert parse_lod_value("auto") == "auto"
        assert parse_lod_value("250") == pytest.approx(250.0)
        assert parse_lod_value(True) == "auto"
        with pytest.raises(BadRequest):
            parse_lod_value("fast")
        with pytest.raises(BadRequest):
            parse_lod_value(-1)

    def test_layout_doc_from_query(self):
        from repro.service import BadRequest

        doc = layout_doc_from_query(
            "graph=road&scale=small&seed=3&s=8&lod=auto&include_coords=false"
        )
        assert doc["graph"] == "road"
        assert doc["seed"] == 3 and doc["s"] == 8
        assert doc["lod"] == "auto"
        assert doc["include_coords"] is False
        with pytest.raises(BadRequest):
            layout_doc_from_query("graph=x&bogus=1")


# ---------------------------------------------------------------------------
# progressive generator
# ---------------------------------------------------------------------------


class TestProgressiveLayout:
    def test_monotone_tiers_end_full(self, tiny_mesh):
        frames = list(
            progressive_layout(
                tiny_mesh,
                8,
                config=LodConfig(min_vertices=1, coarsest_size=64),
            )
        )
        assert len(frames) >= 3
        ranks = [tier_rank(f.tier) for f in frames]
        assert ranks == sorted(ranks, reverse=True)
        assert frames[-1].tier == "full"
        for f in frames:
            assert f.result.coords.shape == (tiny_mesh.n, 2)
            assert f.result.quality_tier == f.tier

    def test_small_graph_single_full_frame(self, path10):
        frames = list(progressive_layout(path10, 4))
        assert [f.tier for f in frames] == ["full"]


# ---------------------------------------------------------------------------
# progressive serving in LayoutEngine
# ---------------------------------------------------------------------------


_LOD_CFG = LodConfig(min_vertices=1, coarsest_size=64, refine_sweeps=1)


def _grid_loader(name, scale, seed):
    if name != "grid":
        raise KeyError(name)
    return preprocess(grid2d(30, 30), name="grid")


def _poll_until_full(eng, req, budget=30.0):
    tiers = []
    deadline = time.time() + budget
    while time.time() < deadline:
        resp = eng.submit(req)
        tier = resp.result.quality_tier
        if not tiers or tier != tiers[-1]:
            tiers.append(tier)
        if tier == "full":
            return tiers, resp
        time.sleep(0.02)
    raise AssertionError(f"never reached full tier; saw {tiers}")


class TestEngineLod:
    @pytest.fixture()
    def eng(self):
        e = LayoutEngine(
            graph_loader=_grid_loader, workers=2, timeout=60,
            lod_config=_LOD_CFG,
        )
        yield e
        e.close()

    def test_first_paint_is_coarse_then_converges(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        resp = eng.submit(req)
        assert resp.status == "computed"
        first = resp.result.quality_tier
        assert is_lod_tier(first)
        assert resp.result.coords.shape == (900, 2)
        tiers, final = _poll_until_full(eng, req)
        ranks = [tier_rank(t) for t in [first] + tiers]
        assert ranks == sorted(ranks, reverse=True)
        assert final.result.quality_tier == "full"
        snap = eng.stats()
        assert snap["counters"]["lod.first_paint"] == 1
        assert snap["counters"]["lod.converged"] >= 1
        assert snap["gauges"]["lod.refine_backlog"] == 0.0
        assert len(snap["lod"]["hierarchies"]) == 1

    def test_converged_requests_hit_cache_full(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        eng.submit(req)
        _poll_until_full(eng, req)
        resp = eng.submit(req)
        assert resp.status in ("memory-hit", "disk-hit")
        assert resp.result.quality_tier == "full"

    def test_non_lod_request_never_sees_lod_cache(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        first = eng.submit(req)
        assert is_lod_tier(first.result.quality_tier)
        # Same fingerprint, but with LOD off: the coarse cache entry
        # must be treated as a miss and a genuine full layout computed.
        resp = eng.submit(LayoutRequest(graph="grid", s=8))
        assert resp.result.quality_tier == "full"
        assert eng.stats()["counters"]["lod.tier_misses"] >= 1
        _poll_until_full(eng, req)

    def test_update_invalidates_refinement(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        eng.submit(req)
        from repro.service import UpdateRequest

        eng.update(UpdateRequest(graph="grid", inserts=((0, 899),)))
        # The refinement chain for the pre-update content must abort or
        # its publishes be rejected; polling converges on the *new*
        # graph's full layout regardless.
        tiers, final = _poll_until_full(eng, req)
        assert final.result.quality_tier == "full"
        assert final.result.coords.shape == (900, 2)

    def test_small_graph_bypasses_lod(self):
        e = LayoutEngine(
            graph_loader=_grid_loader, workers=2,
            lod_config=LodConfig(min_vertices=10_000),
        )
        try:
            resp = e.submit(LayoutRequest(graph="grid", s=6, lod="auto"))
            assert resp.result.quality_tier == "full"
            assert e.stats()["counters"]["lod.bypass_small"] == 1
        finally:
            e.close()

    def test_lod_off_by_default(self, eng):
        resp = eng.submit(LayoutRequest(graph="grid", s=6))
        assert resp.result.quality_tier == "full"
        assert "lod.first_paint" not in eng.stats()["counters"]

    def test_default_mode_applies_to_bare_requests(self):
        e = LayoutEngine(
            graph_loader=_grid_loader, workers=2,
            lod="auto", lod_config=_LOD_CFG,
        )
        try:
            resp = e.submit(LayoutRequest(graph="grid", s=6))
            assert is_lod_tier(resp.result.quality_tier)
            # Per-request off overrides the engine default.
            resp = e.submit(LayoutRequest(graph="grid", s=7, lod="off"))
            assert resp.result.quality_tier == "full"
        finally:
            e.close()

    def test_in_memory_graph_lod(self, eng, tiny_mesh):
        req = LayoutRequest(graph=tiny_mesh, s=8, lod="auto")
        resp = eng.submit(req)
        assert is_lod_tier(resp.result.quality_tier)
        tiers, final = _poll_until_full(eng, req)
        assert final.result.quality_tier == "full"

    def test_budget_mode_picks_depth(self, eng):
        resp = eng.submit(LayoutRequest(graph="grid", s=8, lod=0.001))
        # A near-zero budget must still serve (coarsest available tier).
        assert resp.result.quality_tier != ""
        snap = eng.stats()
        assert snap["counters"]["lod.requests"] >= 1

    def test_stats_has_lod_section(self, eng):
        snap = eng.stats()
        assert snap["lod"]["distortion_bound"] == _LOD_CFG.distortion_bound
        assert snap["lod"]["hierarchies"] == []


def test_hierarchy_cache_is_keyed_by_seed():
    """A request's first paint does not depend on what the engine served
    before: each seed gets the hierarchy built with that seed."""
    g = grid2d(60, 50)
    cfg = LodConfig(min_vertices=100, coarsest_size=64)

    def first_paint(seeds):
        e = LayoutEngine(lod_config=cfg, workers=1)
        try:
            for seed in seeds:
                resp = e.submit(
                    LayoutRequest(graph=g, s=8, seed=seed, lod="auto")
                )
            return resp
        finally:
            e.close()

    fresh = first_paint([0])
    after_other_seed = first_paint([1, 0])
    assert after_other_seed.status == fresh.status == "computed"
    assert (
        after_other_seed.result.params["lod"]
        == fresh.result.params["lod"]
    )
    assert (
        after_other_seed.result.coords.tobytes()
        == fresh.result.coords.tobytes()
    )


def _grid_or_star_loader(name, scale, seed):
    if name == "star":  # does not coarsen: a flat hierarchy
        return preprocess(star_graph(300), name="star")
    return _grid_loader(name, scale, seed)


class TestOneRequestPath:
    """LOD and plain requests share one accounting path in the engine."""

    def test_one_count_per_request(self):
        e = LayoutEngine(
            graph_loader=_grid_or_star_loader, workers=2, timeout=60,
            lod_config=LodConfig(min_vertices=1, coarsest_size=64),
        )
        pinned = {
            "kernels": {"traversal": "batched"},
            "constraints": {"pins": {"0": [0.0, 0.0]}},
        }
        try:
            statuses = [
                e.submit(req).status
                for req in (
                    LayoutRequest(graph="star", s=6),  # plain
                    LayoutRequest(graph="grid", s=8, lod="auto"),
                    LayoutRequest(graph="star", s=8, lod="auto"),  # flat
                    LayoutRequest(graph="grid", s=6, params=pinned, lod="auto"),
                    LayoutRequest(graph="star", s=6),  # repeat: a hit
                )
            ]
            counters = e.stats()["counters"]
        finally:
            e.close()
        assert statuses == ["computed"] * 4 + ["memory-hit"]
        assert counters["requests"] == 5
        assert counters["cache_hits"] + counters["cache_misses"] == 5
        assert counters["kernels.traversal.batched"] == 1
        assert counters["constraints.requests"] == 1
        assert counters["lod.first_paint"] == 1
        assert counters["lod.flat_hierarchy"] == 1
        assert counters["lod.bypass_constrained"] == 1

    def test_plain_server_honours_lod(self):
        e = LayoutEngine(
            graph_loader=_grid_loader, workers=2, timeout=60,
            lod_config=_LOD_CFG,
        )
        server = LayoutServer(e, port=0).start()
        try:
            req = urllib.request.Request(
                server.url + "/layout",
                data=json.dumps(
                    {"graph": "grid", "s": 8, "lod": "auto",
                     "include_coords": False}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                first = json.loads(resp.read())
            assert first["status"] == "computed"
            assert is_lod_tier(first["quality_tier"])
            poll = server.url + (
                "/layout?graph=grid&s=8&lod=auto&include_coords=false"
            )
            tiers = [first["quality_tier"]]
            deadline = time.time() + 30.0
            while tiers[-1] != "full" and time.time() < deadline:
                time.sleep(0.02)
                with urllib.request.urlopen(poll, timeout=60) as resp:
                    tier = json.loads(resp.read())["quality_tier"]
                if tier != tiers[-1]:
                    tiers.append(tier)
            assert tiers[-1] == "full", tiers
            ranks = [tier_rank(t) for t in tiers]
            assert ranks == sorted(ranks, reverse=True)
        finally:
            server.shutdown()
            e.close()
