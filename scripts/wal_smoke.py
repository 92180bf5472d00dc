#!/usr/bin/env python
"""Chaos gate for WAL durability (``make wal-smoke``).

Two independent proofs, both exiting nonzero with a diagnostic on any
violation so CI can gate on them:

**Crash-replay equivalence.**  Boots the real CLI — ``parhde serve
--workers 2 --wal DIR`` — as a subprocess, streams update batches at
one graph over HTTP, then **SIGKILLs the worker that owns it** (pid
from ``GET /stats``).  The monitor respawns the worker, whose engine
replays its per-worker WAL *before* reporting ready; the test then
demands the respawned cluster serve ``POST /layout`` with the
fingerprint and bitwise-identical coordinates of an **uninterrupted
control engine** given the same updates in-process — zero stale
responses, and ``wal.replays``/``wal.replayed_records`` visible in the
worker's ``/stats`` snapshot.

**Torn-tail recovery.**  Builds an in-process engine on a WAL
directory, applies updates, closes it, then flips the final bytes of
the active segment — a torn/corrupt tail record.  Reopening must
truncate at the last valid record (state equals the control at the
prefix epoch, bitwise), count the damage in ``wal.corrupt_records``,
and quarantine the torn bytes rather than deleting them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

UPDATES = 4
GRAPH = {"graph": "barth", "scale": "tiny", "seed": 0}
LAYOUT_BODY = {**GRAPH, "s": 6, "include_coords": True}


def _post(url: str, body: dict, route: str) -> dict:
    req = urllib.request.Request(
        url + route,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=120) as resp:
        return json.loads(resp.read())


def _get(url: str, route: str) -> dict:
    with urllib.request.urlopen(url + route, timeout=30) as resp:
        return json.loads(resp.read())


def _update_body(i: int) -> dict:
    # Deterministic insert-only batches: the same sequence feeds both the
    # cluster (over HTTP) and the in-process control engine.
    return {**GRAPH, "inserts": [[0, 10 + 2 * i], [1, 11 + 2 * i]]}


def _boot(wal_dir: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--workers",
            "2",
            "--threads",
            "1",
            "--port",
            "0",
            "--cache-mb",
            "32",
            "--timeout",
            "120",
            "--wal",
            wal_dir,
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 120
    for line in proc.stderr:  # type: ignore[union-attr]
        sys.stderr.write(f"  serve: {line}")
        if "listening on http://" in line:
            url = line.split("listening on ")[1].split(" ")[0].strip()
            threading.Thread(
                target=lambda: [
                    sys.stderr.write(f"  serve: {ln}") for ln in proc.stderr
                ],
                daemon=True,
            ).start()
            return proc, url
        if time.monotonic() > deadline or proc.poll() is not None:
            break
    raise RuntimeError("parhde serve did not report a listening address")


def _control_layout(updates: int) -> dict:
    """The uninterrupted reference: same updates, no crash, no WAL."""
    from repro.service import LayoutEngine
    from repro.service.http import (
        layout_payload,
        parse_layout_doc,
        parse_update_doc,
    )

    engine = LayoutEngine(workers=1)
    try:
        for i in range(updates):
            engine.update(parse_update_doc(_update_body(i)))
        request, include_coords = parse_layout_doc(dict(LAYOUT_BODY))
        return layout_payload(engine.submit(request), include_coords)
    finally:
        engine.close()


def _crash_replay(failures: list[str]) -> None:
    wal_root = tempfile.mkdtemp(prefix="wal-smoke-")
    proc, url = _boot(wal_root)
    try:
        health = _get(url, "/healthz")
        if health != {"status": "ok", "workers": 2}:
            failures.append(f"healthz answered {health}")

        for i in range(UPDATES):
            resp = _post(url, _update_body(i), "/update")
            if resp.get("epoch") != i + 1:
                failures.append(
                    f"update {i} answered epoch {resp.get('epoch')},"
                    f" expected {i + 1}"
                )

        # The graph hashes onto exactly one worker; its engine counters
        # finger the owner — that is the process we murder.
        stats = _get(url, "/stats")
        victim_pid = victim_id = None
        for wid, snap in stats["workers"].items():
            if snap.get("counters", {}).get("updates", 0) >= UPDATES:
                victim_pid, victim_id = int(snap["pid"]), wid
                break
        if victim_pid is None:
            failures.append("no worker owned the updated graph in /stats")
            return
        generation = stats["workers"][victim_id].get("generation", 0)

        os.kill(victim_pid, signal.SIGKILL)
        print(f"wal-smoke: killed owner worker {victim_id} (pid {victim_pid})")

        deadline = time.monotonic() + 60
        respawned = False
        while time.monotonic() < deadline:
            if _get(url, "/healthz") == {"status": "ok", "workers": 2}:
                snap = _get(url, "/stats")["workers"].get(victim_id, {})
                if snap.get("generation", 0) > generation:
                    respawned = True
                    break
            time.sleep(0.25)
        if not respawned:
            failures.append("killed worker was never respawned")
            return

        expected = _control_layout(UPDATES)
        stale = 0
        for attempt in range(4):
            resp = _post(url, LAYOUT_BODY, "/layout")
            if resp.get("fingerprint") != expected["fingerprint"]:
                stale += 1
                failures.append(
                    f"layout attempt {attempt}: fingerprint"
                    f" {resp.get('fingerprint')} != control"
                    f" {expected['fingerprint']} (stale epoch)"
                )
            elif resp.get("coords") != json.loads(expected["coords"]):
                failures.append(
                    f"layout attempt {attempt}: fingerprint matches but"
                    " coordinates differ from the uninterrupted engine"
                )
        snap = _get(url, "/stats")["workers"].get(victim_id, {})
        wal = snap.get("wal") or {}
        if wal.get("replays", 0) < 1:
            failures.append(
                f"respawned worker reported wal.replays={wal.get('replays')}"
            )
        if wal.get("replayed_records", 0) < UPDATES:
            failures.append(
                "respawned worker replayed"
                f" {wal.get('replayed_records')} records, expected >="
                f" {UPDATES}"
            )
        if not failures:
            print(
                "wal-smoke: respawned worker replayed"
                f" {wal['replayed_records']} records and served epoch"
                f" {UPDATES} bitwise-identically ({4 - stale}/4 responses,"
                " 0 stale)"
            )
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
            if code != 0:
                failures.append(f"serve exited {code} after SIGTERM")
        except subprocess.TimeoutExpired:
            proc.kill()
            failures.append("serve did not drain within 60s of SIGTERM")
        shutil.rmtree(wal_root, ignore_errors=True)


def _torn_tail(failures: list[str]) -> None:
    from repro.service import LayoutEngine
    from repro.service.http import (
        layout_payload,
        parse_layout_doc,
        parse_update_doc,
    )

    wal_dir = tempfile.mkdtemp(prefix="wal-torn-")
    try:
        engine = LayoutEngine(workers=1, wal_dir=wal_dir)
        for i in range(UPDATES):
            engine.update(parse_update_doc(_update_body(i)))
        engine.close()

        # Flip the final bytes of the active segment: the last record's
        # CRC no longer matches — a torn tail, as a crash mid-append (or
        # bit rot) would leave it.
        segments = sorted(
            f for f in os.listdir(wal_dir) if f.endswith(".log")
        )
        path = os.path.join(wal_dir, segments[-1])
        with open(path, "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            tail = fh.read(4)
            fh.seek(-4, os.SEEK_END)
            fh.write(bytes(b ^ 0xFF for b in tail))

        reopened = LayoutEngine(workers=1, wal_dir=wal_dir)
        try:
            wal = reopened.stats()["wal"]
            if wal["corrupt_records"] < 1:
                failures.append(
                    "torn tail not counted: wal.corrupt_records"
                    f" = {wal['corrupt_records']}"
                )
            quarantine = os.path.join(wal_dir, "quarantine")
            if not (
                os.path.isdir(quarantine) and os.listdir(quarantine)
            ):
                failures.append("torn tail bytes were not quarantined")
            # The corrupt record was the last update: the valid prefix is
            # everything before it, and replay must land exactly there.
            request, include_coords = parse_layout_doc(dict(LAYOUT_BODY))
            got = layout_payload(reopened.submit(request), include_coords)
            expected = _control_layout(UPDATES - 1)
            if got["fingerprint"] != expected["fingerprint"]:
                failures.append(
                    "prefix replay diverged: fingerprint"
                    f" {got['fingerprint']} != control at epoch"
                    f" {UPDATES - 1} ({expected['fingerprint']})"
                )
            elif json.loads(got["coords"]) != json.loads(expected["coords"]):
                failures.append(
                    "prefix replay fingerprint matches but coordinates"
                    " differ from the control engine"
                )
            if not failures:
                print(
                    "wal-smoke: torn tail quarantined"
                    f" (corrupt_records={wal['corrupt_records']}), valid"
                    f" prefix replayed bitwise to epoch {UPDATES - 1}"
                )
        finally:
            reopened.close()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    _crash_replay(failures)
    before = len(failures)
    _torn_tail(failures)
    if len(failures) == before and before == 0:
        print("wal-smoke: ok — crash replay and torn-tail recovery hold")
    for failure in failures:
        print(f"wal-smoke: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
