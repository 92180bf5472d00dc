"""Length-prefixed JSON framing for router <-> worker sockets.

The cluster tier speaks the simplest wire protocol that can carry the
serving API faithfully: each message is a 4-byte big-endian length,
that many bytes of UTF-8 JSON (the *header*), then the raw bytes of any
attachments the header declares.  JSON (rather than pickle) keeps
workers safe to restart across versions and makes the frames
inspectable with ``tcpdump``; the length prefix makes message boundaries
explicit so one connection can carry many sequential requests.

Attachments carry a message's ``bytes`` values, which are pre-encoded
JSON (a served layout's ``coords``): :func:`send_msg` moves each top-level
``bytes`` value out of the header into ``"attachments": [[key, nbytes],
...]`` and writes the bytes after the header in that order, and
:func:`recv_msg` reads them back into the same keys without decoding
them.  So the router relays a layout's coordinates as they were encoded
once in the worker's cache.  ``attachments`` is therefore a reserved
top-level key.  The hop carries no checksum: it is loopback TCP, whose
own checksum covers a torn segment, and hashing each coordinate payload
in Python would cost more than the hop it guards.

Requests are envelopes ``{"op": <name>, ...}``; responses are
``{"ok": true, ...payload}`` or ``{"ok": false, "error": <code>,
"message": <detail>, "status": <http status>}`` — the same structured
error contract the HTTP layer speaks, so the router can relay worker
errors to clients without translation.

A peer that closes mid-frame raises :class:`ProtocolError` (a
``ConnectionError`` subclass), which the router treats exactly like a
dead worker: mark it down, reshard, retry on the successor.
"""

from __future__ import annotations

import json
import socket
import struct

__all__ = ["MAX_FRAME", "ProtocolError", "recv_msg", "send_msg"]

#: Upper bound on one frame, header and attachments together.  Coordinate
#: payloads for the collection's largest served graphs are a few MB; 64 MB
#: leaves generous headroom while still catching a corrupt/hostile length
#: immediately.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct("!I")

#: Header key declaring the attachments that follow it.
_ATTACHMENTS = "attachments"


class ProtocolError(ConnectionError):
    """Framing violation: truncated frame, oversized length, bad JSON."""


def send_msg(sock: socket.socket, obj: dict) -> None:
    """Serialize ``obj`` and write one frame; ``bytes`` values go as
    attachments after the JSON header."""
    blobs = {k: v for k, v in obj.items() if isinstance(v, bytes)}
    header = {k: v for k, v in obj.items() if k not in blobs}
    if blobs:
        header[_ATTACHMENTS] = [[k, len(v)] for k, v in blobs.items()]
    body = json.dumps(header, separators=(",", ":")).encode()
    size = len(body) + sum(len(v) for v in blobs.values())
    if size > MAX_FRAME:
        raise ProtocolError(
            f"frame of {size} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    sock.sendall(b"".join([_HEADER.pack(len(body)), body, *blobs.values()]))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict:
    """Read one frame and deserialize its header (blocking); declared
    attachments come back as ``bytes`` values under their keys."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (> MAX_FRAME {MAX_FRAME})"
        )
    body = _recv_exact(sock, length)
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("frame must be a JSON object")
    attachments = doc.pop(_ATTACHMENTS, [])
    if not isinstance(attachments, list) or not all(
        isinstance(a, list)
        and len(a) == 2
        and isinstance(a[0], str)
        and type(a[1]) is int
        and a[1] >= 0
        for a in attachments
    ):
        raise ProtocolError(f"malformed attachment list {attachments!r}")
    size = length + sum(n for _, n in attachments)
    if size > MAX_FRAME:
        raise ProtocolError(
            f"peer announced a {size}-byte frame (> MAX_FRAME {MAX_FRAME})"
        )
    for key, n in attachments:
        doc[key] = _recv_exact(sock, n)
    return doc
