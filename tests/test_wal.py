"""WAL durability tests: framing, recovery, and crash-consistent replay.

Three ISSUE-mandated properties, checked with hypothesis over random
record streams and byte-level damage:

1. **replay is idempotent** — replaying a journal twice yields exactly
   the state of replaying it once (log level: identical record
   sequences; engine level: bitwise-identical layouts);
2. **any byte-level truncation of a valid log replays a prefix** —
   never garbage, never an error, never records out of order;
3. **snapshot + compaction preserve replayed state bitwise** — the
   snapshot payload plus the surviving post-floor records reconstruct
   the full pre-compaction sequence.

Plus the concrete crash-shaped cases: torn-tail quarantine, journal
-before-apply (a failed append mutates nothing), engine and stream
restarts bitwise-equal to an uninterrupted control, the cluster
monitor's capped exponential respawn backoff, and a SIGKILLed cluster
owner that rejoins at its journaled epoch.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import stat
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import grid2d
from repro.service import (
    LayoutEngine,
    LayoutRequest,
    ServiceError,
    UpdateRequest,
)
from repro.wal import (
    WriteAheadLog,
    crc32c,
    encode_record,
    scan_records,
)
from repro.wal.records import HEADER


def _loader(name, scale, seed):
    if name == "grid":
        return grid2d(8, 8)
    raise KeyError(name)


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("graph_loader", _loader)
    kwargs.setdefault("workers", 1)
    return LayoutEngine(wal_dir=str(tmp_path / "wal"), **kwargs)


def _layout(engine, **over):
    req = LayoutRequest(graph="grid", scale="tiny", s=6, **over)
    resp = engine.submit(req)
    return resp.fingerprint, np.asarray(resp.result.coords)


# ---------------------------------------------------------------------------
# record framing


class TestRecords:
    def test_crc32c_known_answer(self):
        # The canonical Castagnoli check vector (RFC 3720 appendix).
        assert crc32c(b"123456789") == 0xE3069283

    def test_roundtrip(self):
        payloads = [f"record-{i}".encode() * (i + 1) for i in range(20)]
        blob = b"".join(encode_record(p) for p in payloads)
        scan = scan_records(blob)
        assert scan.payloads == payloads
        assert scan.valid_end == len(blob)
        assert not scan.corrupt

    def test_flipped_byte_stops_scan(self):
        payloads = [b"alpha", b"beta", b"gamma"]
        blob = bytearray(b"".join(encode_record(p) for p in payloads))
        second = len(encode_record(b"alpha"))
        blob[second + HEADER.size + 1] ^= 0xFF  # damage record 2's body
        scan = scan_records(bytes(blob))
        assert scan.payloads == [b"alpha"]
        assert scan.valid_end == second
        assert scan.corrupt


# ---------------------------------------------------------------------------
# hypothesis properties


_records = st.lists(
    st.fixed_dictionaries(
        {"type": st.sampled_from(["update", "publish", "register"]),
         "payload": st.text(max_size=40)}
    ),
    min_size=1,
    max_size=12,
)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_replay_is_idempotent(self, records, tmp_path_factory):
        root = tmp_path_factory.mktemp("wal")
        log = WriteAheadLog(str(root), fsync="off")
        for rec in records:
            log.append(dict(rec))
        log.close()
        # Replaying twice (same handle) and recovering twice (two
        # "process restarts") must all yield the identical sequence.
        reopened = WriteAheadLog(str(root), fsync="off")
        first = reopened.replay()
        assert reopened.replay().records == first.records
        reopened.close()
        again = WriteAheadLog(str(root), fsync="off")
        assert again.replay().records == first.records
        again.close()
        assert [
            {k: v for k, v in r.items() if k != "lsn"}
            for r in first.records
        ] == records

    @settings(max_examples=25, deadline=None)
    @given(records=_records, data=st.data())
    def test_truncation_replays_a_prefix(self, records, data):
        payloads = [
            json.dumps(rec, sort_keys=True).encode() for rec in records
        ]
        blob = b"".join(encode_record(p) for p in payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        scan = scan_records(blob[:cut])
        assert scan.payloads == payloads[: len(scan.payloads)]
        assert scan.valid_end <= cut

    @settings(max_examples=25, deadline=None)
    @given(records=_records, data=st.data())
    def test_snapshot_compact_preserves_state(
        self, records, data, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("wal")
        # Tiny segments force rotation so compaction has files to drop.
        log = WriteAheadLog(str(root), fsync="off", segment_bytes=256)
        lsns = [log.append(dict(rec)) for rec in records]
        floor_idx = data.draw(
            st.integers(min_value=0, max_value=len(records) - 1)
        )
        # The snapshot captures everything up to and including floor_idx.
        log.snapshot(
            {"upto": records[: floor_idx + 1]}, floor=lsns[floor_idx]
        )
        log.close()
        replay = WriteAheadLog(str(root), fsync="off").replay()
        assert replay.snapshot == {"upto": records[: floor_idx + 1]}
        tail = [
            {k: v for k, v in r.items() if k != "lsn"}
            for r in replay.records
            if r["lsn"] > replay.floor
        ]
        # snapshot payload + surviving tail == the full original sequence
        assert replay.snapshot["upto"] + tail == records


# ---------------------------------------------------------------------------
# the log itself


class TestWriteAheadLog:
    def test_rotation_and_replay(self, tmp_path):
        log = WriteAheadLog(str(tmp_path), fsync="off", segment_bytes=128)
        for i in range(40):
            log.append({"type": "update", "i": i})
        assert log.stats()["rotations"] > 0
        log.close()
        replay = WriteAheadLog(str(tmp_path), fsync="off").replay()
        assert [r["i"] for r in replay.records] == list(range(40))

    def test_corrupt_tail_is_quarantined_not_fatal(self, tmp_path):
        log = WriteAheadLog(str(tmp_path), fsync="off")
        for i in range(5):
            log.append({"i": i})
        log.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x7fgarbage-torn-tail")
        reopened = WriteAheadLog(str(tmp_path), fsync="off")
        assert reopened.stats()["corrupt_records"] >= 1
        assert [r["i"] for r in reopened.replay().records] == list(range(5))
        quarantine = tmp_path / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())
        # The log keeps accepting appends after recovery, and the next
        # recovery sees them.
        reopened.append({"i": 5})
        reopened.close()
        final = WriteAheadLog(str(tmp_path), fsync="off").replay()
        assert [r["i"] for r in final.records] == list(range(6))

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")
        always = WriteAheadLog(str(tmp_path / "a"), fsync="always")
        always.append({"x": 1})
        assert always.stats()["fsyncs"] >= 1
        always.close()


# ---------------------------------------------------------------------------
# engine integration


class TestEngineReplay:
    UPDATES = [
        {"inserts": ((0, 9), (2, 17))},
        {"deletes": ((0, 1),)},
        {"inserts": ((3, 40),), "pins": {5: (0.25, -0.5)}},
    ]

    def _apply_all(self, engine):
        for body in self.UPDATES:
            engine.update(UpdateRequest(graph="grid", scale="tiny", **body))

    def test_restart_is_bitwise_identical(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
            fp, coords = _layout(eng)
            epoch = eng.stats()["wal"]["last_lsn"]
            assert epoch > 0
        with _engine(tmp_path) as replayed:
            assert replayed.stats()["wal"]["replays"] == 1
            fp2, coords2 = _layout(replayed)
        assert fp2 == fp
        assert np.array_equal(coords2, coords)
        # Control: an uninterrupted engine given the same updates agrees.
        with LayoutEngine(graph_loader=_loader, workers=1) as control:
            self._apply_all(control)
            fp3, coords3 = _layout(control)
        assert fp3 == fp
        assert np.array_equal(coords3, coords)

    def test_replay_twice_equals_once(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
            fp, coords = _layout(eng)
        with _engine(tmp_path):
            pass  # replay #1, journal untouched (no new updates)
        with _engine(tmp_path) as again:
            fp2, coords2 = _layout(again)
        assert (fp2, np.array_equal(coords2, coords)) == (fp, True)

    def test_snapshot_compaction_then_restart(self, tmp_path):
        with _engine(tmp_path, wal_snapshot_every=2) as eng:
            self._apply_all(eng)
            assert eng.stats()["wal"]["snapshots"] >= 1
            fp, coords = _layout(eng)
        with _engine(tmp_path) as replayed:
            fp2, coords2 = _layout(replayed)
            wal = replayed.stats()["wal"]
        assert fp2 == fp and np.array_equal(coords2, coords)
        # Compaction dropped journal work: fewer records replayed than
        # were ever appended.
        assert wal["replayed_records"] < wal["last_lsn"]

    def test_torn_tail_recovers_valid_prefix(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
        segment = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        with open(segment, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff\xff\xff")
        with _engine(tmp_path) as replayed:
            wal = replayed.stats()["wal"]
            assert wal["corrupt_records"] >= 1
            fp, coords = _layout(replayed)
        # The damaged record was the last update; the prefix (first two
        # updates) must replay exactly.
        with LayoutEngine(graph_loader=_loader, workers=1) as control:
            for body in self.UPDATES[:-1]:
                control.update(
                    UpdateRequest(graph="grid", scale="tiny", **body)
                )
            fp2, coords2 = _layout(control)
        assert fp2 == fp
        assert np.array_equal(coords2, coords)

    def test_failed_append_mutates_nothing(self, tmp_path, monkeypatch):
        with _engine(tmp_path) as eng:
            eng.update(
                UpdateRequest(graph="grid", scale="tiny", inserts=((0, 9),))
            )
            before = _layout(eng)

            def broken_append(record):
                raise OSError("disk full")

            monkeypatch.setattr(eng._wal, "append", broken_append)
            with pytest.raises(ServiceError, match="write-ahead log"):
                eng.update(
                    UpdateRequest(
                        graph="grid", scale="tiny", inserts=((1, 30),)
                    )
                )
            # Journal-before-apply: the rejected update changed nothing.
            assert _layout(eng)[0] == before[0]

    def test_publish_epoch_survives_restart(self, tmp_path):
        with _engine(tmp_path) as eng:
            eng.update(
                UpdateRequest(graph="grid", scale="tiny", inserts=((0, 9),))
            )
            resp = eng.submit(LayoutRequest(graph="grid", scale="tiny", s=6))
            fp_before = resp.fingerprint
            # An async refinement publication bumps the epoch — that bump
            # must be journaled like any other mutation.
            assert (
                eng.publish_layout(
                    "grid", "tiny", 0, "parhde", {"s": 6}, resp.result
                )
                is not None
            )
            fp_after, _ = _layout(eng)
            assert fp_after != fp_before
        with _engine(tmp_path) as replayed:
            assert _layout(replayed)[0] == fp_after


def _weighted_grid():
    # Symmetric, vertex-pair-dependent weights on the 8x8 grid.
    g = grid2d(8, 8)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    lo = np.minimum(rows, g.indices)
    hi = np.maximum(rows, g.indices)
    return g.with_weights(1.0 + ((7 * lo + hi) % 5) / 4.0)


def _archive_loader(name, scale, seed):
    if name == "wgrid":
        return _weighted_grid()
    return _loader(name, scale, seed)


def _sha(coords):
    return hashlib.sha256(np.ascontiguousarray(coords).tobytes()).hexdigest()


def _fsync_replace_spy(monkeypatch):
    """Record each ``os.replace`` target and whether it was fsynced."""
    real_fsync, real_replace = os.fsync, os.replace
    synced: set = set()
    events: list = []

    def fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode):
            synced.add((st.st_dev, st.st_ino))

    def replace(src, dst):
        real_replace(src, dst)
        st = os.stat(dst)
        events.append((Path(dst).name, (st.st_dev, st.st_ino) in synced))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


class TestArchiveSnapshot:
    """Engine checkpoints: archived CSRs beside the snapshot."""

    WEIGHTED = [
        {"inserts": ((0, 9, 2.5), (2, 17, 0.75))},
        {"deletes": ((0, 1),), "pins": {5: (0.25, -0.5)}},
        {"inserts": ((3, 40, 1.5),), "deletes": ((8, 9),)},
    ]
    TAIL = {"inserts": ((10, 50, 3.0),), "pins": {7: (-0.5, 0.5)}}

    def _edit(self, engine):
        for body in self.WEIGHTED:
            engine.update(UpdateRequest(graph="wgrid", scale="tiny", **body))
        engine.update(
            UpdateRequest(graph="grid", scale="tiny", pins={2: (0.5, 0.5)})
        )
        engine.submit(LayoutRequest(graph="grid", scale="tiny", s=6, seed=1))

    def _observe(self, engine):
        csr = engine._graph_state("wgrid", "tiny", 0).dyn.to_csr()
        resp = engine.submit(LayoutRequest(graph="wgrid", scale="tiny", s=6))
        pinned = engine.submit(LayoutRequest(graph="grid", scale="tiny", s=6))
        return (
            [csr.indptr, csr.indices, csr.weights],
            resp.fingerprint,
            _sha(resp.result.coords),
            pinned.fingerprint,
            _sha(pinned.result.coords),
        )

    def _assert_same(self, got, want):
        for a, b in zip(got[0], want[0]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[1:] == want[1:]

    def test_weighted_snapshot_restart_matches_control(self, tmp_path):
        with _engine(tmp_path, graph_loader=_archive_loader) as eng:
            self._edit(eng)
            assert eng.wal_snapshot()
            eng.update(UpdateRequest(graph="wgrid", scale="tiny", **self.TAIL))
        wal_dir = tmp_path / "wal"
        replay = WriteAheadLog(str(wal_dir), fsync="off").replay()
        entries = {
            (e["graph"], e["seed"]): e
            for e in replay.snapshot["graphs"].values()
        }
        # The edited graph is archived; the pins-only graph is not; the
        # read-only graph (grid seed 1) has no entry at all.
        assert replay.snapshot["version"] == 2
        assert set(entries) == {("wgrid", 0), ("grid", 0)}
        assert "archive" not in entries[("grid", 0)]
        assert list(replay.files) == [entries[("wgrid", 0)]["archive"]]
        assert sorted(p.name for p in wal_dir.glob("*.npz")) == [
            replay.files[entries[("wgrid", 0)]["archive"]].name
        ]
        with _engine(tmp_path, graph_loader=_archive_loader) as replayed:
            got = self._observe(replayed)
        with LayoutEngine(graph_loader=_archive_loader, workers=1) as control:
            self._edit(control)
            control.update(
                UpdateRequest(graph="wgrid", scale="tiny", **self.TAIL)
            )
            want = self._observe(control)
        self._assert_same(got, want)

    def test_snapshots_under_concurrent_updates_lose_nothing(self, tmp_path):
        # The floor is read before any graph is captured; a record
        # appended while a snapshot runs must survive either in the
        # capture or in the journal tail.
        def state(engine, seed):
            st = engine._graph_state("grid", "tiny", seed)
            csr = st.dyn.to_csr()
            return st.epoch, sorted(st.pins), csr.indptr.tolist(), (
                csr.indices.tolist()
            )

        def worker(engine, t):
            for k in range(12):
                engine.update(UpdateRequest(
                    graph="grid", scale="tiny", seed=t % 2,
                    inserts=((k, 63 - k - t),), pins={t: (0.1 * k, 0.0)},
                ))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _engine(tmp_path, wal_snapshot_every=3) as eng:
                threads = [
                    threading.Thread(target=worker, args=(eng, t))
                    for t in range(4)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert eng.stats()["wal"]["snapshots"] >= 4
                live = [state(eng, seed) for seed in (0, 1)]
        finally:
            sys.setswitchinterval(switch)
        with _engine(tmp_path) as replayed:
            assert [state(replayed, seed) for seed in (0, 1)] == live
        assert [epoch for epoch, *_ in live] == [24, 24]

    def test_compaction_keeps_only_the_listed_archives(self, tmp_path):
        with _engine(tmp_path, graph_loader=_archive_loader) as eng:
            self._edit(eng)
            assert eng.wal_snapshot()
            (tmp_path / "wal" / "graph-0-0000000000000001.npz.tmp").touch()
            eng.update(UpdateRequest(graph="wgrid", scale="tiny", **self.TAIL))
            assert eng.wal_snapshot()
            last = eng.stats()["wal"]["last_lsn"]
        names = sorted(p.name for p in (tmp_path / "wal").iterdir())
        assert names == [
            f"graph-0-{last:016d}.npz", f"snapshot-{last:016d}.json"
        ]

    def test_checkpoint_failure_does_not_fail_the_update(
        self, tmp_path, monkeypatch, caplog
    ):
        def broken(*args, **kwargs):
            raise OSError("disk full")

        with _engine(tmp_path, wal_snapshot_every=1) as eng:
            monkeypatch.setattr(eng._wal, "snapshot", broken)
            with caplog.at_level("WARNING", logger="repro.service.engine"):
                for v in (9, 17):
                    up = eng.update(
                        UpdateRequest(
                            graph="grid", scale="tiny", inserts=((0, v),)
                        )
                    )
            assert up.epoch == 2
            counters = eng.telemetry.snapshot()["counters"]
            assert counters["wal.checkpoint_failures"] == 2
            fp, coords = _layout(eng)
        warnings = [r for r in caplog.records if "checkpoint" in r.getMessage()]
        assert len(warnings) == 1
        # Nothing was lost: the journal replays both updates.
        monkeypatch.undo()
        with _engine(tmp_path) as replayed:
            fp2, coords2 = _layout(replayed)
        assert fp2 == fp and np.array_equal(coords2, coords)

    def test_side_files_reach_disk_before_the_snapshot(
        self, tmp_path, monkeypatch
    ):
        # A machine crash cannot be staged here; this checks the order
        # that makes one survivable: every side file is fsynced and
        # renamed into place before the snapshot that lists it.
        from repro.stream import StreamSession, edge_delta

        events = _fsync_replace_spy(monkeypatch)
        session = StreamSession(
            grid2d(8, 8), 6, seed=1, wal=str(tmp_path / "s"),
            wal_snapshot_every=1,
        )
        session.update(edge_delta(inserts=[(0, 20)]))
        session.close()
        with _engine(tmp_path, graph_loader=_archive_loader) as eng:
            self._edit(eng)
            assert eng.wal_snapshot()
        kinds = [name.split("-")[0] for name, _ in events]
        assert kinds == ["frame", "graph", "snapshot"] * 2 + [
            "graph", "snapshot"
        ]
        assert all(synced for _, synced in events)

    def test_parent_format_log_replays(self, tmp_path):
        from repro.service.fingerprint import graph_digest
        from repro.stream import edge_delta

        key = {"graph": "grid", "scale": "tiny", "seed": 0}
        digest = graph_digest(grid2d(8, 8))
        log = WriteAheadLog(str(tmp_path / "wal"), fsync="off")
        log.append({"type": "register", **key, "digest": digest})
        for body in TestEngineReplay.UPDATES[:2]:
            log.append({"type": "update", **key, "delta": edge_delta(
                inserts=body.get("inserts", ()),
                deletes=body.get("deletes", ()),
            ).to_json()})
        entry = {
            **key, "digest": digest, "epoch": 2, "content": 2, "pins": [],
            "lsn": 3, "inserts": [[0, 9], [2, 17]], "deletes": [[0, 1]],
        }
        log.snapshot(
            {"version": 1, "graphs": {"grid\x1ftiny\x1f0": entry}}, floor=3
        )
        log.append({
            "type": "update", **key,
            "delta": edge_delta(inserts=[(3, 40)]).to_json(),
            "pins": [[5, [0.25, -0.5]]],
        })
        # A register record no longer overrides the loaded digest.
        other = {**key, "seed": 1}
        log.append({"type": "register", **other, "digest": "0" * 64})
        log.append({"type": "update", **other,
                    "delta": edge_delta(inserts=[(0, 9)]).to_json()})
        log.close()
        with _engine(tmp_path) as replayed:
            got = [_layout(replayed), _layout(replayed, seed=1)]
        with LayoutEngine(graph_loader=_loader, workers=1) as control:
            TestEngineReplay()._apply_all(control)
            control.update(UpdateRequest(
                graph="grid", scale="tiny", seed=1, inserts=((0, 9),)
            ))
            want = [_layout(control), _layout(control, seed=1)]
        for (fp, coords), (fp2, coords2) in zip(got, want):
            assert fp == fp2 and np.array_equal(coords, coords2)


# ---------------------------------------------------------------------------
# stream sessions


class TestStreamWal:
    def _deltas(self):
        from repro.stream import edge_delta

        return [
            edge_delta(inserts=[(0, 20)]),
            edge_delta(inserts=[(1, 30)], deletes=[(0, 1)]),
            edge_delta(deletes=[(0, 20)]),
        ]

    def test_journaled_session_matches_control(self, tmp_path):
        from repro.stream import StreamSession

        g = grid2d(8, 8)
        control = StreamSession(g, 6, seed=1)
        session = StreamSession(g, 6, seed=1, wal=str(tmp_path / "w"))
        for delta in self._deltas():
            control.update(delta)
            session.update(delta)
        assert np.array_equal(
            session.snapshot_result().coords, control.snapshot_result().coords
        )
        session.close()

    def test_resume_wal_bitwise(self, tmp_path):
        from repro.stream import StreamSession

        g = grid2d(8, 8)
        session = StreamSession(g, 6, seed=1, wal=str(tmp_path / "w"))
        for delta in self._deltas():
            session.update(delta)
        coords = np.array(session.snapshot_result().coords)
        epoch = session.epoch
        session.close()
        resumed = StreamSession.resume_wal(grid2d(8, 8), str(tmp_path / "w"))
        assert resumed.epoch == epoch
        assert np.array_equal(resumed.snapshot_result().coords, coords)
        assert resumed.wal_stats()["replays"] == 1
        resumed.close()

    def test_parent_format_checkpoint_resumes(self, tmp_path):
        # Older logs named the frame and graph archives in the payload.
        from repro.core.serialize import save_layout
        from repro.graph.io import save_npz
        from repro.stream import StreamSession

        first, second, _ = self._deltas()
        control = StreamSession(grid2d(8, 8), 6, seed=1)
        control.update(first)
        wal = tmp_path / "w"
        log = WriteAheadLog(str(wal), fsync="off")
        log.append({"type": "update", "delta": first.to_json()})
        save_layout(control.snapshot_result(), wal / "frame-1.npz")
        save_npz(control.graph, wal / "graph-1.npz")
        log.snapshot({"frame": "frame-1.npz", "graph": "graph-1.npz"})
        control.update(second)
        log.append({"type": "update", "delta": second.to_json()})
        log.close()
        resumed = StreamSession.resume_wal(grid2d(8, 8), str(wal), s=6, seed=1)
        assert resumed.epoch == 2
        assert np.array_equal(resumed.coords, control.coords)
        resumed.close()

    def _state(self, session):
        from repro.service.fingerprint import graph_digest

        return (
            session.epoch,
            graph_digest(session.graph),
            np.array(session.coords),
        )

    def _assert_unchanged(self, session, before):
        epoch, digest, coords = self._state(session)
        assert epoch == before[0]
        assert digest == before[1]
        assert np.array_equal(coords, before[2])

    def test_failed_append_rolls_back_update(self, tmp_path):
        from repro.stream import StreamSession, edge_delta

        wal = tmp_path / "w"
        session = StreamSession(grid2d(8, 8), 6, seed=1, wal=str(wal))
        before = self._state(session)
        session.close()
        delta = edge_delta(inserts=[(0, 20)])
        with pytest.raises(OSError, match="closed"):
            session.update(delta)
        self._assert_unchanged(session, before)
        # A retry after reopening the log applies the same delta.
        session._wal = WriteAheadLog(wal)
        up = session.update(delta)
        assert up.epoch == 1 and session.dyn.has_edge(0, 20)
        session.close()

    def test_failed_append_rolls_back_constraints(self, tmp_path):
        from repro.stream import StreamSession

        wal = tmp_path / "w"
        session = StreamSession(grid2d(8, 8), 6, seed=1, wal=str(wal))
        before = self._state(session)
        session.close()
        with pytest.raises(OSError, match="closed"):
            session.pin(3, (0.5, 0.5))
        self._assert_unchanged(session, before)
        assert session.constraints.is_trivial
        session._wal = WriteAheadLog(wal)
        up = session.pin(3, (0.5, 0.5))
        assert up.epoch == 1 and tuple(session.coords[3]) == (0.5, 0.5)
        session.close()

    def test_checkpoint_failure_warns_once_and_counts(
        self, tmp_path, monkeypatch, caplog
    ):
        from repro.core import serialize
        from repro.service.telemetry import Telemetry
        from repro.stream import StreamSession, edge_delta

        def broken(result, path):
            raise OSError("disk full")

        wal = str(tmp_path / "w")
        telemetry = Telemetry()
        monkeypatch.setattr(serialize, "save_layout", broken)
        with caplog.at_level("WARNING", logger="repro.stream.session"):
            session = StreamSession(
                grid2d(8, 8), 6, seed=1, wal=wal, wal_snapshot_every=1,
                telemetry=telemetry,
            )
            for i in range(3):
                session.update(edge_delta(inserts=[(0, 20 + i)]))
        # One failed checkpoint at construction plus one per update.
        assert session.stats["checkpoint_failures"] == 4
        counters = telemetry.snapshot()["counters"]
        assert counters["stream.checkpoint_failures"] == 4
        warnings = [
            r for r in caplog.records if "checkpoint" in r.getMessage()
        ]
        assert len(warnings) == 1  # log-once; the counter does the rest
        coords = np.array(session.coords)
        session.close()
        # The journal itself stayed intact: every update replays.
        monkeypatch.undo()
        resumed = StreamSession.resume_wal(grid2d(8, 8), wal, s=6, seed=1)
        assert resumed.epoch == 3
        assert np.array_equal(resumed.coords, coords)
        resumed.close()


# ---------------------------------------------------------------------------
# cluster respawn backoff


class TestRespawnBackoff:
    def test_failed_restarts_back_off_exponentially(self, monkeypatch):
        import time as _time

        from repro.cluster import ClusterRouter

        router = ClusterRouter(
            2, restart_backoff=0.5, restart_backoff_cap=2.0
        )
        worker = router._workers[0]
        monkeypatch.setattr(router, "_spawn", lambda w: None)
        monkeypatch.setattr(
            router,
            "_await_ready",
            lambda w, ready: setattr(w, "state", "dead"),
        )
        delays = []
        for _ in range(4):
            t0 = _time.monotonic()
            router._respawn(worker)
            delays.append(worker.next_restart_at - t0)
        assert worker.restart_failures == 4
        # 0.5, 1.0, 2.0, then capped at 2.0 (cap < 0.5 * 2**3).
        for got, want in zip(delays, (0.5, 1.0, 2.0, 2.0)):
            assert got == pytest.approx(want, abs=0.05)
        # The monitor's gate: no retry before next_restart_at.
        assert _time.monotonic() < worker.next_restart_at

        # A successful restart resets the streak and the gate.
        monkeypatch.setattr(
            router,
            "_await_ready",
            lambda w, ready: setattr(w, "state", "up"),
        )
        router._respawn(worker)
        assert worker.restart_failures == 0
        assert worker.next_restart_at == 0.0


# ---------------------------------------------------------------------------
# cluster rejoin after a crash


class TestClusterWal:
    def test_respawned_owner_serves_journaled_graph(self, tmp_path):
        """A SIGKILLed owner replays its log and takes its key back."""
        from repro.cluster import ClusterRouter

        graph = {"graph": "barth", "scale": "tiny", "seed": 0}
        body = {**graph, "s": 6, "include_coords": False}
        with ClusterRouter(
            2,
            compute_threads=1,
            cache_mb=16.0,
            heartbeat_interval=0.1,
            wal_dir=str(tmp_path / "wal"),
        ).start() as router:
            pristine = router.layout(body)
            update = router.update({**graph, "inserts": [[0, 10]]})
            assert update["epoch"] == 1
            assert update["m"] == pristine["m"] + 1
            before = router.layout(body)
            assert before["m"] == update["m"]

            owner = router.owner_of("barth", "tiny", 0)
            worker = router._workers[owner]
            os.kill(worker.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while not (worker.generation >= 1 and worker.alive):
                assert time.monotonic() < deadline, "owner never respawned"
                time.sleep(0.05)

            assert router.owner_of("barth", "tiny", 0) == owner
            after = router.layout(body)
        assert after["status"] == "computed"
        assert (after["fingerprint"], after["m"]) == (
            before["fingerprint"],
            before["m"],
        )
