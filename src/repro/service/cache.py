"""Two-tier content-addressed layout cache.

Tier 1 is an in-memory LRU bounded by a *byte* budget (layouts vary by
orders of magnitude in size, so an entry count is the wrong knob).  It
keeps only what a hit serves — ``coords``, ``eigenvalues``, ``pivots``,
``params`` and ``algorithm``; ``B``, ``S``, ``warm``, the ledger and the
BFS statistics of a computed result are dropped on insert — plus, once a
response asked for them, the coordinates encoded as a JSON array
(:meth:`LayoutCache.coords_json`), so a hot layout is encoded once, not
once per request.  :func:`layout_nbytes` charges exactly those parts.
Tier 2 is an optional on-disk directory of ``<fingerprint>.npz``
archives in the :mod:`repro.core.serialize` format — the same format
``parhde layout --save-layout`` writes, so warm state survives restarts
and files are inspectable with the normal tooling.  The cache writes
slim archives (``include_subspace=False``), so a disk hit's ``pivots``
are empty too.

Eviction from memory spills to disk (when a disk tier is configured);
a disk hit is promoted back into memory.  When a spill *fails* (disk
full, permissions, a path that is not a directory) the victim is kept
in memory — temporarily over budget — instead of being dropped from
both tiers at once, and the failure is counted in the ``disk_errors``
stat.  All operations are safe under concurrent access from the serving
threads; hit/miss/evict/disk-error accounting is exposed via
:meth:`LayoutCache.stats`.

Staleness: keys are full request fingerprints
(:func:`~repro.service.fingerprint.layout_fingerprint`), which fold in
the fingerprint-format version *and the graph epoch*.  Disk filenames
are the fingerprints themselves, so a graph update — which bumps the
epoch — moves every affected key and a pre-update layout can never be
served from either tier for the post-update graph.

Durability: every archive is published atomically (temp file +
``os.replace``) with a sha256 sidecar written *first*, so a crash
mid-write never leaves a payload without its sidecar.  Loads re-hash
the payload; a checksum mismatch or unreadable archive is logged once,
counted in the ``disk_corrupt`` stat and the files are moved to a
``quarantine/`` subdirectory for post-mortem instead of being re-read
(and re-failed) on every subsequent request.  A payload *without* a
sidecar is therefore a pre-warmed entry (a CLI-saved archive dropped
into the directory): it is adopted — parsed, counted as
``disk_adopted``, and given its sidecar — not quarantined.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..core.result import LayoutResult
from ..core.serialize import load_layout, save_layout
from ..parallel.costs import Ledger
from ..resilience.chaos import failpoint

__all__ = ["LayoutCache", "encode_coords", "layout_nbytes"]

logger = logging.getLogger("repro.service.cache")

#: The arrays a cache hit serves (with ``params`` and ``algorithm``).
_SERVED_ARRAYS = ("coords", "eigenvalues", "pivots")

#: Accounting overhead charged per entry (dict slots, params echo, ...).
_ENTRY_OVERHEAD = 512

_NO_SUBSPACE = np.empty((0, 0))
_NO_SUBSPACE.flags.writeable = False


def layout_nbytes(result: LayoutResult, coords_json: bytes | None = None) -> int:
    """Bytes the memory tier charges for a layout: the arrays a hit
    serves, a fixed per-entry overhead and, once encoded, the JSON
    coordinates."""
    total = _ENTRY_OVERHEAD + (len(coords_json) if coords_json else 0)
    for name in _SERVED_ARRAYS:
        arr = getattr(result, name)
        if arr is not None:
            total += int(arr.nbytes)
    return total


def encode_coords(coords: np.ndarray) -> bytes:
    """``coords`` as a UTF-8 JSON array of rows.

    ``json`` writes each float as its shortest round-tripping ``repr``,
    so ``json.loads`` gives back the same float64 bits.
    """
    return json.dumps(coords.tolist(), separators=(",", ":")).encode()


def _served_part(result: LayoutResult) -> LayoutResult:
    """The parts of ``result`` a hit serves (shares its arrays)."""
    return dataclasses.replace(
        result,
        B=_NO_SUBSPACE,
        S=_NO_SUBSPACE,
        bfs_stats=[],
        ledger=Ledger(),
        warm=None,
    )


class _Entry:
    """A memory-tier entry and the bytes it is charged."""

    __slots__ = ("result", "coords_json", "nbytes")

    def __init__(self, result: LayoutResult):
        self.result = result
        self.coords_json: bytes | None = None
        self.nbytes = layout_nbytes(result)


class LayoutCache:
    """Thread-safe LRU layout cache with an optional disk tier.

    Parameters
    ----------
    max_bytes:
        Memory-tier budget.  Entries are evicted least-recently-used
        until the tier fits; a single entry larger than the whole budget
        is never held in memory (it goes straight to disk, if enabled).
    disk_dir:
        Directory for the persistent tier, created on demand.  ``None``
        disables the disk tier.
    """

    def __init__(
        self,
        max_bytes: int = 256 * 1024 * 1024,
        disk_dir: str | os.PathLike | None = None,
    ):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lock = threading.RLock()
        self._mem: OrderedDict[str, _Entry] = OrderedDict()
        self._mem_bytes = 0
        self._counts = {
            "hits": 0,
            "misses": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "stores": 0,
            "evictions": 0,
            "disk_errors": 0,
            "disk_corrupt": 0,
            "disk_adopted": 0,
            "flushes": 0,
        }

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._mem:
                return True
        path = self._disk_path(fingerprint)
        return path is not None and path.exists()

    def stats(self) -> dict[str, int]:
        """Snapshot of the accounting counters plus occupancy."""
        with self._lock:
            out = dict(self._counts)
            out["entries"] = len(self._mem)
            out["bytes"] = self._mem_bytes
            out["max_bytes"] = self.max_bytes
        return out

    # -- core operations ---------------------------------------------------
    def get(self, fingerprint: str) -> tuple[LayoutResult, str] | None:
        """Look up a fingerprint.

        Returns ``(result, tier)`` where ``tier`` is ``"memory"`` or
        ``"disk"``, or ``None`` on a miss.  Disk hits are promoted into
        the memory tier.  ``result`` carries only the served parts (see
        the module docs): its ``B`` and ``S`` are empty.
        """
        with self._lock:
            entry = self._mem.get(fingerprint)
            if entry is not None:
                self._mem.move_to_end(fingerprint)
                self._counts["hits"] += 1
                self._counts["memory_hits"] += 1
                return entry.result, "memory"

        result = self._disk_load(fingerprint)
        with self._lock:
            if result is not None:
                self._counts["hits"] += 1
                self._counts["disk_hits"] += 1
                return self._insert_memory(fingerprint, result, spill=False), "disk"
            self._counts["misses"] += 1
        return None

    def coords_json(self, fingerprint: str, coords: np.ndarray) -> bytes:
        """:func:`encode_coords` of ``coords``, encoded once per entry.

        When the memory-tier entry at ``fingerprint`` holds this very
        array, the encoded bytes are kept with it (and charged to the
        budget), so later hits reuse them.  Otherwise (the layout was
        not cached, was evicted, another layout now sits at the
        fingerprint, or the entry with its encoding would exceed the
        whole budget) they are encoded for this one response.
        """
        with self._lock:
            entry = self._mem.get(fingerprint)
            if (
                entry is not None
                and entry.result.coords is coords
                and entry.coords_json is not None
            ):
                return entry.coords_json
        encoded = encode_coords(coords)
        with self._lock:
            entry = self._mem.get(fingerprint)
            if (
                entry is not None
                and entry.result.coords is coords
                and entry.coords_json is None
                and entry.nbytes + len(encoded) <= self.max_bytes
            ):
                entry.coords_json = encoded
                entry.nbytes += len(encoded)
                self._mem_bytes += len(encoded)
                self._evict_over_budget(spill=True)
        return encoded

    def put(self, fingerprint: str, result: LayoutResult) -> None:
        """Insert a computed layout into both tiers."""
        with self._lock:
            self._counts["stores"] += 1
            self._insert_memory(fingerprint, result, spill=True)
        self._disk_store(fingerprint, result)

    def clear(self) -> None:
        """Drop the memory tier (disk archives are left in place)."""
        with self._lock:
            self._mem.clear()
            self._mem_bytes = 0

    def flush(self) -> int:
        """Persist every memory-tier entry to disk; returns entries written.

        Called on graceful shutdown so warm state survives the restart.
        Entries already on disk are skipped; failures are counted in
        ``disk_errors`` and do not abort the flush.  A no-op (returning
        0) without a disk tier.
        """
        if self.disk_dir is None:
            return 0
        with self._lock:
            entries = [(fp, entry.result) for fp, entry in self._mem.items()]
        written = 0
        for fp, result in entries:
            if self._disk_store(fp, result, overwrite=False):
                written += 1
        with self._lock:
            self._counts["flushes"] += 1
        return written

    # -- memory tier (call with lock held) ---------------------------------
    def _insert_memory(
        self, fingerprint: str, result: LayoutResult, *, spill: bool
    ) -> LayoutResult:
        """Hold the served part of ``result``; returns that part."""
        entry = _Entry(_served_part(result))
        old = self._mem.pop(fingerprint, None)
        if old is not None:
            self._mem_bytes -= old.nbytes
        if entry.nbytes > self.max_bytes:
            return entry.result  # oversize: disk tier only
        self._mem[fingerprint] = entry
        self._mem_bytes += entry.nbytes
        self._evict_over_budget(spill=spill)
        return entry.result

    def _evict_over_budget(self, *, spill: bool) -> None:
        while self._mem_bytes > self.max_bytes and self._mem:
            victim_fp, victim = self._mem.popitem(last=False)
            if (
                spill
                and self.disk_dir is not None
                and not self._disk_store(
                    victim_fp, victim.result, overwrite=False
                )
            ):
                # The spill failed: dropping the victim anyway would lose
                # it from both tiers at once.  Put it back at the cold end
                # and stop evicting — the tier runs over budget until a
                # later spill succeeds, which is the recoverable failure.
                self._mem[victim_fp] = victim
                self._mem.move_to_end(victim_fp, last=False)
                break
            self._mem_bytes -= victim.nbytes
            self._counts["evictions"] += 1

    # -- disk tier ---------------------------------------------------------
    def _disk_path(self, fingerprint: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{fingerprint}.npz"

    def _sidecar_path(self, path: Path) -> Path:
        return path.with_name(path.name + ".sha256")

    def _write_sidecar(self, path: Path, digest: str) -> bool:
        """Atomically publish ``digest`` next to ``path``; never raises
        (adopting a pre-warmed entry must not fail the load that found
        it — a False just means the next load re-adopts)."""
        try:
            sfd, stmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            try:
                with os.fdopen(sfd, "w") as fh:
                    fh.write(digest)
                os.replace(stmp, self._sidecar_path(path))
            finally:
                if os.path.exists(stmp):
                    os.unlink(stmp)
        except OSError:
            return False
        return True

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt archive (and sidecar) aside; log exactly once.

        Because the files are *moved*, the fingerprint misses cleanly on
        every later request — the warning below is the single log line a
        given corrupt entry ever produces.
        """
        with self._lock:
            self._counts["disk_corrupt"] += 1
        qdir = path.parent / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            for victim in (path, self._sidecar_path(path)):
                if victim.exists():
                    os.replace(victim, qdir / victim.name)
            logger.warning(
                "disk cache entry %s corrupt (%s); quarantined to %s",
                path.name, reason, qdir,
            )
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            logger.warning(
                "disk cache entry %s corrupt (%s); removed", path.name, reason
            )

    def _disk_load(self, fingerprint: str) -> LayoutResult | None:
        path = self._disk_path(fingerprint)
        if path is None or not path.exists():
            return None
        try:
            failpoint("cache.disk_load")
            data = path.read_bytes()
            sidecar = self._sidecar_path(path)
            expected = sidecar.read_text().strip() if sidecar.exists() else None
            if expected is None:
                # Our own writes publish the sidecar *before* the
                # payload, so a payload with no sidecar is a pre-warmed
                # entry (a CLI-saved archive dropped into the
                # directory), never a torn write: adopt it if it
                # parses, writing the missing sidecar for next time.
                result = load_layout(path)
                self._write_sidecar(path, hashlib.sha256(data).hexdigest())
                with self._lock:
                    self._counts["disk_adopted"] += 1
                return result
            if hashlib.sha256(data).hexdigest() != expected:
                self._quarantine(path, "checksum mismatch")
                return None
            return load_layout(path)
        except Exception as exc:
            with self._lock:
                self._counts["disk_errors"] += 1
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return None

    def _disk_store(
        self, fingerprint: str, result: LayoutResult, *, overwrite: bool = True
    ) -> bool:
        """Persist one entry; ``True`` iff the archive is on disk after
        the call (written now or already present)."""
        path = self._disk_path(fingerprint)
        if path is None:
            return False
        if not overwrite and path.exists():
            return True
        try:
            failpoint("cache.disk_store")
            path.parent.mkdir(parents=True, exist_ok=True)
            # Write-then-rename so concurrent readers never see a torn
            # file; the checksum sidecar is published *before* the
            # payload so an interrupted write leaves at worst a sidecar
            # without its payload (a clean miss), never a trusted torn
            # archive — which is what lets a payload *without* a
            # sidecar be safely adopted as pre-warmed on load.
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz"
            )
            os.close(fd)
            try:
                save_layout(result, tmp, include_subspace=False)
                digest = hashlib.sha256(Path(tmp).read_bytes()).hexdigest()
                if not self._write_sidecar(path, digest):
                    raise OSError(
                        f"failed to publish checksum sidecar for {path.name}"
                    )
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except Exception:
            with self._lock:
                self._counts["disk_errors"] += 1
            return False
        return True
