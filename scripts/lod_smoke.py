#!/usr/bin/env python
"""Smoke test for progressive LOD serving (the ``make lod-smoke`` target).

Boots a real HTTP server over a :class:`~repro.service.LayoutEngine`
serving a large synthetic graph (a ~150k-vertex grid — big enough that
a full layout visibly lags), then proves the progressive contract end
to end over actual HTTP:

1. a cold ``POST /layout`` with ``"lod": "auto"`` answers *fast* at a
   coarse ``quality_tier`` (``lod-k``) with finest-vertex coordinates;
2. ``GET /layout`` polling sees a monotonically improving tier sequence
   that converges to ``"full"`` — no stale epoch is ever served;
3. once converged, the same request is an ordinary cache hit at full
   tier;
4. the ``lod.*`` counters account for the run and the
   ``lod.refine_backlog`` gauge returns to zero.

Exits nonzero with a diagnostic on any violation, so CI can gate on it.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request

from repro.graph import grid2d, preprocess
from repro.resilience import is_lod_tier, tier_rank
from repro.service import LayoutEngine, make_server

ROWS, COLS = 400, 375  # 150k vertices
BODY = {"graph": "biggrid", "s": 8, "seed": 0, "lod": "auto",
        "include_coords": False}
QUERY = "/layout?graph=biggrid&s=8&seed=0&lod=auto&include_coords=false"
FIRST_PAINT_BUDGET = 30.0  # generous wall cap; the bench gates the ratio
CONVERGE_BUDGET = 600.0


def _loader(name, scale, seed):
    if name != "biggrid":
        raise KeyError(name)
    return preprocess(grid2d(ROWS, COLS), name="biggrid")


def _post(url: str, body: dict) -> dict:
    req = urllib.request.Request(
        url + "/layout",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=300) as resp:
        return json.loads(resp.read())


def _get(url: str, route: str) -> dict:
    with urllib.request.urlopen(url + route, timeout=300) as resp:
        return json.loads(resp.read())


def main() -> int:
    engine = LayoutEngine(graph_loader=_loader, workers=2, timeout=600)
    server = make_server(engine, port=0).start()
    url = server.url
    failures: list[str] = []
    try:
        t0 = time.perf_counter()
        first = _post(url, BODY)
        first_paint = time.perf_counter() - t0
        tier0 = first.get("quality_tier")
        print(
            f"first paint: {first_paint:.2f}s status={first.get('status')}"
            f" tier={tier0} n={first.get('n')}"
        )
        if first.get("status") != "computed":
            failures.append(f"first status {first.get('status')!r}")
        if not is_lod_tier(tier0):
            failures.append(f"first tier {tier0!r} is not coarse")
        if first.get("n") != ROWS * COLS:
            failures.append(
                f"coords not prolonged to finest ids (n={first.get('n')})"
            )
        if first_paint > FIRST_PAINT_BUDGET:
            failures.append(
                f"first paint {first_paint:.1f}s > {FIRST_PAINT_BUDGET}s"
            )

        tiers = [tier0]
        deadline = time.monotonic() + CONVERGE_BUDGET
        while time.monotonic() < deadline:
            poll = _get(url, QUERY)
            tier = poll.get("quality_tier")
            if tier != tiers[-1]:
                tiers.append(tier)
                print(
                    f"poll: tier={tier} status={poll.get('status')}"
                    f" epoch={poll.get('epoch')}"
                )
            if tier == "full":
                break
            time.sleep(0.5)
        else:
            failures.append(f"never converged to full; saw {tiers}")
        ranks = [tier_rank(t) for t in tiers]
        if ranks != sorted(ranks, reverse=True):
            failures.append(f"tier sequence not monotone: {tiers}")

        warm = _post(url, BODY)
        if warm.get("quality_tier") != "full" or not warm.get("cache_hit"):
            failures.append(
                f"post-convergence request not a full-tier cache hit:"
                f" {warm.get('status')} {warm.get('quality_tier')}"
            )

        stats = _get(url, "/stats")
        counters = stats.get("counters", {})
        for key in ("lod.first_paint", "lod.refinements", "lod.converged",
                    "lod.published", "lod.hierarchy_builds"):
            if not counters.get(key):
                failures.append(f"counter {key} missing or zero")
        backlog = stats.get("gauges", {}).get("lod.refine_backlog")
        if backlog != 0.0:
            failures.append(f"refine backlog {backlog!r} != 0 after converge")
        print(
            "counters:",
            {k: v for k, v in sorted(counters.items())
             if k.startswith("lod.")},
        )
    finally:
        server.shutdown()
        engine.close()

    if failures:
        print("\nLOD SMOKE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nlod smoke ok: {' -> '.join(tiers)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
