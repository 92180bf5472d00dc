"""repro.wal — durable write-ahead logging for served graph state.

Layers:

- :mod:`repro.wal.records` — on-disk framing (length + CRC32C).
- :mod:`repro.wal.log` — :class:`WriteAheadLog`: segments, fsync
  policies, torn-tail recovery with quarantine, snapshots with their
  side files + compaction.

Consumers: ``LayoutEngine(wal_dir=...)`` journals update deltas, pin
edits and epoch publishes before acknowledging them and replays to
identical ``(digest, epoch, pins)`` state on construction; cluster
workers keep per-worker WAL directories so a respawned worker replays
before rejoining the ring; ``StreamSession`` uses the log for O(delta)
persistence.  See ``docs/wal.md``.
"""

from .log import FSYNC_POLICIES, WalReplay, WriteAheadLog
from .records import crc32c, encode_record, scan_records

__all__ = [
    "FSYNC_POLICIES",
    "WalReplay",
    "WriteAheadLog",
    "crc32c",
    "encode_record",
    "scan_records",
]
