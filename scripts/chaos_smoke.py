#!/usr/bin/env python
"""Chaos smoke test for the resilient serving stack (``make chaos-smoke``).

Boots a real :class:`~repro.service.http.LayoutServer` with resilience
enabled and a disk cache tier, then walks the failpoint matrix from
:data:`repro.resilience.chaos.SITES` over live HTTP:

1. a clean baseline request answers with ``quality_tier == "full"``;
2. every transient kernel fault (each ``parhde.*`` site, one firing)
   still gets an HTTP 200 layout — retried or degraded, never a 500;
3. a stalled BFS under a tight request timeout answers *within* the
   timeout with a degraded tier;
4. a corrupted disk-cache archive is quarantined and the layout is
   recomputed (no error to the client, ``disk_corrupt`` counted);
5. a failing disk write is absorbed (the answer still arrives);
6. a persistently failing pipeline trips the circuit breaker, after
   which requests are short-circuited to an inline baseline;
7. ``/stats`` exposes the retry/degradation/breaker counters and the
   drained server answers 503.

Exits nonzero with a diagnostic on any violation, so CI can gate on it.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.resilience import RetryPolicy, chaos
from repro.service import (
    LayoutCache,
    LayoutEngine,
    ResilienceConfig,
    make_server,
)

GRAPH = {"graph": "barth", "scale": "tiny", "s": 8}
KERNEL_SITES = [name for name in chaos.SITES if name.startswith("parhde.")]


def _post(url: str, body: dict, route: str = "/layout") -> tuple[int, dict]:
    req = urllib.request.Request(
        url + route,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url: str, route: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url + route, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        mark = "ok" if ok else "FAIL"
        print(f"chaos-smoke: [{mark}] {what}")
        if not ok:
            failures.append(what)

    tmp = tempfile.TemporaryDirectory(prefix="chaos-smoke-")
    cache_dir = Path(tmp.name) / "cache"
    cache = LayoutCache(disk_dir=cache_dir)
    engine = LayoutEngine(
        cache=cache,
        workers=2,
        queue_limit=8,
        timeout=120,
        resilience=ResilienceConfig(
            retry=RetryPolicy(base_delay=0.01, jitter=0.0),
            breaker_threshold=3,
            breaker_reset=60.0,
        ),
    )
    server = make_server(engine, port=0).start()
    url = server.url
    try:
        # 1. Clean baseline.
        status, clean = _post(url, {**GRAPH, "include_coords": False})
        check(
            status == 200 and clean.get("quality_tier") == "full",
            f"clean request is full tier (status={status},"
            f" tier={clean.get('quality_tier')!r})",
        )
        fingerprint = clean.get("fingerprint", "")

        # 2. Every kernel failpoint, one transient firing each: the
        #    answer must arrive (retried full or degraded), never a 500.
        for i, site in enumerate(KERNEL_SITES):
            with chaos.inject(site, error=True, times=1):
                status, body = _post(
                    url,
                    {**GRAPH, "seed": 100 + i, "include_coords": False},
                )
            check(
                status == 200 and body.get("quality_tier") in
                ("full", "reduced", "coarse", "baseline"),
                f"fault at {site} answered (status={status},"
                f" tier={body.get('quality_tier')!r})",
            )

        # 3. Stalled BFS under a tight timeout: degraded, on time.
        timeout = 3.0
        with chaos.inject("parhde.bfs", sleep=0.8, times=2):
            t0 = time.perf_counter()
            status, body = _post(
                url,
                {
                    **GRAPH,
                    "seed": 200,
                    "timeout": timeout,
                    "include_coords": False,
                },
            )
            elapsed = time.perf_counter() - t0
        check(
            status == 200
            and body.get("quality_tier") != "full"
            and elapsed < timeout,
            f"stalled BFS degraded within deadline (status={status},"
            f" tier={body.get('quality_tier')!r}, {elapsed:.2f}s"
            f" < {timeout}s)",
        )

        # 4. Corrupt the cached archive: quarantined + recomputed.
        cache.clear()
        payload = cache_dir / f"{fingerprint}.npz"
        chaos.corrupt_file(payload, seed=7)
        status, body = _post(url, {**GRAPH, "include_coords": False})
        stats = cache.stats()
        check(
            status == 200
            and body.get("status") == "computed"
            and stats["disk_corrupt"] >= 1
            and (cache_dir / "quarantine" / payload.name).exists(),
            "corrupt cache entry quarantined and recomputed"
            f" (status={body.get('status')!r},"
            f" disk_corrupt={stats['disk_corrupt']})",
        )

        # 5. Disk writes failing must not fail the request.
        with chaos.inject("cache.disk_store", error=True):
            status, body = _post(
                url, {**GRAPH, "seed": 300, "include_coords": False}
            )
        check(
            status == 200 and body.get("quality_tier") == "full",
            f"failed disk write absorbed (status={status})",
        )

        # 6. A persistently failing pipeline trips the breaker; the next
        #    request is short-circuited to an inline baseline.
        with chaos.inject("parhde.bfs", error=True):
            for i in range(3):
                status, body = _post(
                    url,
                    {**GRAPH, "seed": 400 + i, "include_coords": False},
                )
                check(
                    status == 200 and body.get("quality_tier") == "baseline",
                    f"breaker warm-up {i} degraded to baseline"
                    f" (status={status}, tier={body.get('quality_tier')!r})",
                )
            status, body = _post(
                url, {**GRAPH, "seed": 450, "include_coords": False}
            )
        check(
            status == 200 and body.get("status") == "degraded",
            "open breaker short-circuits to inline baseline"
            f" (status={body.get('status')!r})",
        )

        # 7. Telemetry shows the machinery working; drain answers 503.
        status, raw = _get(url, "/stats")
        snap = json.loads(raw)
        counters = snap.get("counters", {})
        check(
            counters.get("resilience.retries", 0) >= 1,
            f"retries counted ({counters.get('resilience.retries', 0)})",
        )
        check(
            any(k.startswith("resilience.degraded.") for k in counters),
            "degradations counted",
        )
        check(
            counters.get("breaker.to_open", 0) >= 1
            and snap.get("breakers", {}).get("open", 0) >= 1,
            "breaker trip visible in /stats",
        )
        server.drain(2.0)
        status, raw = _get(url, "/healthz")
        check(
            status == 503 and json.loads(raw).get("status") == "draining",
            f"draining server answers 503 on /healthz (status={status})",
        )
        status, _body = _post(url, {**GRAPH, "include_coords": False})
        check(status == 503, f"draining server refuses POSTs ({status})")
    finally:
        chaos.reset()
        server.shutdown()
        engine.close()
        tmp.cleanup()
    if failures:
        for failure in failures:
            print(f"chaos-smoke: FAIL — {failure}", file=sys.stderr)
        return 1
    print(f"chaos-smoke: ok — {len(KERNEL_SITES)} kernel sites +"
          " cache/breaker/drain scenarios survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
