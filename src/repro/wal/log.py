"""Segmented, checksummed, crash-recovering write-ahead log.

:class:`WriteAheadLog` owns one directory and journals JSON records
into it, append-only::

    wal/
      wal-0000000000000001.log     segments, named by first LSN
      wal-0000000000000137.log
      snapshot-0000000000000136.json   checkpoint at LSN 136
      graph-0-0000000000000136.npz     a side file it lists
      quarantine/                  torn tails and corrupt snapshots

Every record gets a monotonically increasing **LSN** (log sequence
number) and is framed with a length prefix and a CRC32C
(:mod:`repro.wal.records`).  The log knows nothing about graphs or
layouts — callers journal whatever dict they like and replay it back;
the engine and the stream session supply the semantics.

Durability contract, by ``fsync`` policy:

``"always"``
    Every append is ``fsync``\\ ed before it returns — a record the
    caller acknowledged survives a machine crash.  One syscall per
    record; the right choice when each update is a distinct client ack.
``"batch"``
    Appends are written immediately (they survive *process* death, even
    SIGKILL, via the OS page cache) but ``fsync`` is coalesced: at most
    one per ``batch_interval`` seconds, amortizing group commit.  A
    machine crash can lose the final interval's records.  The default.
``"off"``
    Never ``fsync``; the OS flushes when it pleases.  For tests and
    for workloads whose source of truth can replay (e.g. a Kafka-fed
    stream).

Recovery runs in the constructor: the newest intact snapshot is loaded
(corrupt ones are quarantined, older ones tried), segments are scanned
record by record, and the first tear — a torn header, a length running
past EOF, a CRC mismatch — truncates the segment at the last valid
record.  The torn bytes and every later segment are moved into
``quarantine/`` for post-mortem rather than deleted, the event is
counted in ``corrupt_records`` and logged once.  Appends then continue
in a fresh segment with the next LSN, so a crash loop cannot re-corrupt
the quarantined evidence.

Checkpointing: :meth:`snapshot` atomically publishes a caller-provided
payload tagged with a compaction *floor* LSN, plus any side files (bulk
arrays that do not belong in JSON) the payload needs; :meth:`replay`
returns that payload, the side files' paths and every surviving record,
and the caller skips records at or below its floor(s).  Segments wholly
at or below the floor, older snapshots and unlisted side files are
deleted (:meth:`snapshot` compacts eagerly), which is what keeps replay
cost bounded by *state size + recent activity* instead of history.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Mapping

from .records import HEADER, encode_record, scan_records

__all__ = ["FSYNC_POLICIES", "WalReplay", "WriteAheadLog"]

logger = logging.getLogger("repro.wal")

FSYNC_POLICIES = ("always", "batch", "off")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"
_LSN_DIGITS = 16
#: Snapshots, side files and their temp files (segment names match too;
#: compaction tells them apart by name).
_CHECKPOINT_FILE = re.compile(rf"-\d{{{_LSN_DIGITS}}}(\.|$)")


def _segment_name(first_lsn: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_lsn:0{_LSN_DIGITS}d}{_SEGMENT_SUFFIX}"


def _snapshot_name(floor: int) -> str:
    return f"{_SNAPSHOT_PREFIX}{floor:0{_LSN_DIGITS}d}{_SNAPSHOT_SUFFIX}"


def _side_name(key: str, floor: int) -> str:
    """``"frame.npz"`` at floor 7 -> ``frame-0000000000000007.npz``."""
    stem, dot, ext = key.partition(".")
    return f"{stem}-{floor:0{_LSN_DIGITS}d}{dot}{ext}"


def _parse_lsn(name: str, prefix: str, suffix: str) -> int | None:
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    digits = name[len(prefix) : -len(suffix)]
    return int(digits) if digits.isdigit() else None


@dataclass
class WalReplay:
    """What recovery found: the newest intact snapshot + the records.

    ``records`` is every surviving journal record in LSN order,
    *including* any that predate the snapshot (compaction is lazy about
    segments that straddle the floor); consumers must skip records at
    or below the floor they track — :attr:`floor` for single-writer
    logs, per-entity floors inside :attr:`snapshot` for the engine.
    ``files`` maps each side-file key the snapshot was written with to
    its path.
    """

    snapshot: dict | None = None
    floor: int = 0  # compaction floor of the snapshot (0 = none)
    records: list[dict] = field(default_factory=list)
    files: dict[str, Path] = field(default_factory=dict)


class WriteAheadLog:
    """One durable journal directory (see module docs).

    Parameters
    ----------
    directory:
        Created if missing.  One log per directory; concurrent writers
        to the same directory are not supported (per-worker WAL
        directories keep the cluster shared-nothing).
    fsync:
        ``"always"`` / ``"batch"`` / ``"off"`` — see the module docs.
    batch_interval:
        Maximum seconds between ``fsync``\\ s under the ``"batch"``
        policy (the data-loss window on a machine crash).
    segment_bytes:
        Rotation threshold; smaller segments compact sooner.
    telemetry:
        Optional :class:`repro.service.telemetry.Telemetry`; every
        internal counter is mirrored as ``wal.<name>``.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "batch",
        batch_interval: float = 0.05,
        segment_bytes: int = 4 * 1024 * 1024,
        telemetry=None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < HEADER.size + 2:
            raise ValueError(f"segment_bytes too small: {segment_bytes}")
        self.dir = Path(directory)
        self.fsync = fsync
        self.batch_interval = float(batch_interval)
        self.segment_bytes = int(segment_bytes)
        self.telemetry = telemetry
        self._lock = threading.RLock()
        self._counters = {
            "appends": 0,
            "replays": 0,
            "replayed_records": 0,
            "corrupt_records": 0,
            "fsyncs": 0,
            "rotations": 0,
            "snapshots": 0,
            "compactions": 0,
            "append_errors": 0,
        }
        self._corruption_logged = False
        self._file = None  # active append segment, opened lazily
        self._file_size = 0
        self._dirty = False
        self._last_fsync = time.monotonic()
        self.last_lsn = 0
        self.appends_since_snapshot = 0
        self._closed = False
        self.dir.mkdir(parents=True, exist_ok=True)
        self._recovered = self._recover()

    # -- stats -------------------------------------------------------------
    def _inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount
        if self.telemetry is not None:
            self.telemetry.inc(f"wal.{name}", amount)

    def stats(self) -> dict:
        """Counter snapshot plus directory shape (the ``/stats`` body)."""
        with self._lock:
            snap = dict(self._counters)
            snap["last_lsn"] = self.last_lsn
            snap["segments"] = len(self._segments())
            snap["fsync_policy"] = self.fsync
        return snap

    # -- directory shape ---------------------------------------------------
    def _segments(self) -> list[tuple[int, Path]]:
        out = []
        try:
            names = os.listdir(self.dir)
        except OSError:
            return []
        for name in names:
            lsn = _parse_lsn(name, _SEGMENT_PREFIX, _SEGMENT_SUFFIX)
            if lsn is not None:
                out.append((lsn, self.dir / name))
        return sorted(out)

    def _snapshots(self) -> list[tuple[int, Path]]:
        out = []
        for name in os.listdir(self.dir):
            lsn = _parse_lsn(name, _SNAPSHOT_PREFIX, _SNAPSHOT_SUFFIX)
            if lsn is not None:
                out.append((lsn, self.dir / name))
        return sorted(out)

    def _quarantine(self, path: Path, data: bytes | None = None) -> None:
        """Move a corrupt file (or torn tail bytes) out of the live set."""
        qdir = self.dir / "quarantine"
        qdir.mkdir(exist_ok=True)
        target = qdir / path.name
        stamp = 0
        while target.exists():
            stamp += 1
            target = qdir / f"{path.name}.{stamp}"
        if data is not None:
            target.write_bytes(data)
        else:
            os.replace(path, target)

    def _log_corruption_once(self, detail: str) -> None:
        if self._corruption_logged:
            return
        self._corruption_logged = True
        logger.warning(
            "WAL corruption in %s: %s — truncated at the last valid record;"
            " torn bytes quarantined (further corruption in this log is"
            " counted in wal.corrupt_records without repeating this message)",
            self.dir, detail,
        )

    # -- recovery ----------------------------------------------------------
    def _recover(self) -> WalReplay:
        replay = WalReplay()
        # Newest intact snapshot wins; corrupt ones are quarantined and
        # older ones tried (an interrupted snapshot write must never
        # shadow the good checkpoint before it).
        for floor, path in reversed(self._snapshots()):
            try:
                scan = scan_records(path.read_bytes())
            except OSError as exc:
                self._inc("corrupt_records")
                self._log_corruption_once(f"unreadable snapshot: {exc}")
                continue
            if scan.corrupt or not scan.payloads:
                self._inc("corrupt_records")
                self._log_corruption_once(f"corrupt snapshot {path.name}")
                self._quarantine(path)
                continue
            try:
                snapshot = json.loads(scan.payloads[0])
                files = snapshot.pop("files", {})
            except (ValueError, AttributeError):
                self._inc("corrupt_records")
                self._log_corruption_once(f"undecodable snapshot {path.name}")
                self._quarantine(path)
                continue
            replay.snapshot = snapshot
            replay.files = {key: self.dir / name for key, name in files.items()}
            replay.floor = floor
            break
        self.last_lsn = replay.floor

        segments = self._segments()
        for index, (first_lsn, path) in enumerate(segments):
            try:
                data = path.read_bytes()
            except OSError as exc:
                self._inc("corrupt_records")
                self._log_corruption_once(f"unreadable segment: {exc}")
                self._quarantine_rest(segments[index:], None, b"")
                break
            scan = scan_records(data)
            for payload in scan.payloads:
                try:
                    record = json.loads(payload)
                    lsn = int(record["lsn"])
                except (ValueError, KeyError, TypeError):
                    # Framed and checksummed but not a journal record:
                    # treat like a tear at this offset.
                    scan.corrupt = True
                    break
                replay.records.append(record)
                self.last_lsn = max(self.last_lsn, lsn)
            if scan.corrupt:
                self._inc("corrupt_records")
                self._log_corruption_once(
                    f"torn record in {path.name} at offset {scan.valid_end}"
                )
                self._quarantine_rest(
                    segments[index:], path, data[scan.valid_end :]
                )
                with open(path, "r+b") as fh:
                    fh.truncate(scan.valid_end)
                if scan.valid_end == 0:
                    # Nothing valid survived in this segment; its name no
                    # longer matches any record, so retire it entirely.
                    path.unlink(missing_ok=True)
                break
        self._inc("replays")
        self._inc("replayed_records", len(replay.records))
        return replay

    def _quarantine_rest(
        self, rest: list[tuple[int, Path]], torn: Path | None, tail: bytes
    ) -> None:
        """Preserve the torn tail and every later segment for post-mortem."""
        if torn is not None and tail:
            self._quarantine(
                torn.with_name(torn.name + ".tail"), data=tail
            )
        for _lsn, path in rest[1:] if torn is not None else rest:
            self._inc("corrupt_records")
            self._quarantine(path)

    def replay(self) -> WalReplay:
        """The recovery result computed when the log was opened."""
        return self._recovered

    # -- append path -------------------------------------------------------
    def _open_segment(self, first_lsn: int) -> None:
        path = self.dir / _segment_name(first_lsn)
        self._file = open(path, "ab")
        self._file_size = self._file.tell()
        self._sync_dir()

    def _sync_dir(self) -> None:
        if self.fsync == "off":
            return
        try:
            fd = os.open(self.dir, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; best effort
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def append(self, record: dict) -> int:
        """Journal one record durably; returns its LSN.

        The record must be JSON-serializable; ``lsn`` is assigned here.
        Raises ``OSError`` if the write fails — callers decide whether
        a journaling failure fails the operation (the engine does: an
        unjournaled update must not be acknowledged).
        """
        with self._lock:
            if self._closed:
                raise OSError("write-ahead log is closed")
            lsn = self.last_lsn + 1
            payload = json.dumps(
                {"lsn": lsn, **record}, separators=(",", ":"), sort_keys=True
            ).encode()
            frame = encode_record(payload)
            try:
                if self._file is None or self._file_size >= self.segment_bytes:
                    self._rotate(lsn)
                self._file.write(frame)
                self._file.flush()
                self._maybe_fsync()
            except OSError:
                self._inc("append_errors")
                raise
            self._file_size += len(frame)
            self.last_lsn = lsn
            self.appends_since_snapshot += 1
            self._inc("appends")
            return lsn

    def _rotate(self, first_lsn: int) -> None:
        if self._file is not None:
            self._fsync_now()
            self._file.close()
            self._file = None
            self._inc("rotations")
        self._open_segment(first_lsn)

    def _maybe_fsync(self) -> None:
        if self.fsync == "always":
            self._fsync_now()
        elif self.fsync == "batch":
            self._dirty = True
            now = time.monotonic()
            if now - self._last_fsync >= self.batch_interval:
                self._fsync_now()
        else:
            self._dirty = True

    def _fsync_now(self) -> None:
        if self._file is None:
            return
        if self.fsync != "off":
            os.fsync(self._file.fileno())
            self._inc("fsyncs")
        self._dirty = False
        self._last_fsync = time.monotonic()

    def sync(self) -> None:
        """Flush any deferred ``fsync`` (batch policy) immediately."""
        with self._lock:
            if self._dirty:
                self._fsync_now()

    # -- checkpointing -----------------------------------------------------
    def snapshot(
        self,
        payload: dict,
        *,
        floor: int | None = None,
        files: Mapping[str, Callable[[BinaryIO], None]] | None = None,
    ) -> int:
        """Atomically publish a checkpoint and compact behind it.

        ``payload`` is the caller's full reconstructible state;
        ``floor`` is the highest LSN the payload already covers
        (default: every record journaled so far).  ``files`` maps a
        side-file key such as ``"frame.npz"`` (a plain file name whose
        stem is not ``wal`` or ``snapshot``) to a writer that fills an
        open binary file; each lands as ``frame-<floor>.npz``, fsynced
        (unless the policy is ``"off"``) and renamed into place before
        the snapshot that lists it, and :meth:`replay` hands its path
        back under the same key.  After the snapshot is durably in
        place, segments whose records all fall at or below the floor,
        older snapshots and unlisted side files are deleted.  Returns
        the floor.  An ``OSError`` leaves the previous checkpoint in
        force.
        """
        with self._lock:
            if floor is None:
                floor = self.last_lsn
            if "files" in payload:
                raise ValueError("'files' is a reserved snapshot key")
            names = {key: _side_name(key, floor) for key in files or {}}
            for key, writer in (files or {}).items():
                self._write_durably(self.dir / names[key], writer)
            record = {**payload, "files": names} if names else payload
            frame = encode_record(
                json.dumps(record, separators=(",", ":")).encode()
            )
            path = self.dir / _snapshot_name(floor)
            self._write_durably(path, lambda fh: fh.write(frame))
            self._inc("snapshots")
            self.appends_since_snapshot = 0
            self._compact(floor, {path.name, *names.values()})
            return floor

    def _write_durably(
        self, path: Path, writer: Callable[[BinaryIO], None]
    ) -> None:
        """Write ``path`` through a temp file: fsync, rename, sync dir."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                writer(fh)
                fh.flush()
                if self.fsync != "off":
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._sync_dir()

    def _compact(self, floor: int, keep: set[str]) -> None:
        # Close the active segment so it too can age out behind a later
        # snapshot; the next append starts a fresh one.
        if self._file is not None:
            self._fsync_now()
            self._file.close()
            self._file = None
        removed = 0
        segments = self._segments()
        for index, (first_lsn, path) in enumerate(segments):
            # A segment's records end where the next segment begins; the
            # final segment ends at last_lsn.
            last_in_segment = (
                segments[index + 1][0] - 1
                if index + 1 < len(segments)
                else self.last_lsn
            )
            if last_in_segment <= floor and first_lsn <= last_in_segment:
                path.unlink(missing_ok=True)
                removed += 1
            elif first_lsn > last_in_segment:  # empty stub segment
                path.unlink(missing_ok=True)
                removed += 1
        # Older snapshots, side files nothing lists any more, and temp
        # files an interrupted checkpoint left behind.
        live = keep | {path.name for _lsn, path in segments}
        for name in os.listdir(self.dir):
            if _CHECKPOINT_FILE.search(name) and name not in live:
                (self.dir / name).unlink(missing_ok=True)
        if removed:
            self._inc("compactions")
            self._sync_dir()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._file is not None:
                try:
                    self._fsync_now()
                except OSError:
                    pass
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
