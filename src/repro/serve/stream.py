"""Minimal HTTP/1.1 plumbing over asyncio streams — stdlib only.

Request parsing, fixed responses, and chunked NDJSON result streaming.
The streaming path is where robustness lives: every chunk write is
drained under a per-chunk timeout (``REPRO_SERVE_WRITE_TIMEOUT``), so
a client that stops reading mid-result costs the server one small
buffer and a closed socket — never a parked worker thread.  Large
tensor results stream as NDJSON frames (a header line, entry pages, a
terminal ``{"done": true}`` line); a stream cut short by drain or
client slowness carries an explicit partial-result marker as its last
line whenever the socket still accepts it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, List, Mapping, Optional, Tuple

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: entries per NDJSON frame when streaming a tensor result
PAGE = 1024


class HttpError(Exception):
    """A malformed or oversized request (maps straight to a status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SlowClientError(Exception):
    """The peer stopped reading; the connection was abandoned."""


async def read_request(
    reader: asyncio.StreamReader, max_body: int, timeout: float
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; None on a cleanly closed idle connection."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    except asyncio.TimeoutError:
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "malformed header") from None
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    # isdigit alone admits non-ASCII digits; int() alone admits "+5",
    # "-5", and raises past its own digit limit (19 digits cover int64)
    if not (declared.isascii() and declared.isdigit() and len(declared) <= 19):
        raise HttpError(400, f"bad Content-Length {declared[:32]!r}")
    length = int(declared)
    if length > max_body:
        raise HttpError(413, f"body exceeds {max_body} bytes")
    body = b""
    if length:
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout=timeout)
    return method.upper(), target, headers, body


def _head(
    status: int, headers: Mapping[str, Any], length: Optional[int]
) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Mapping[str, Any],
    *,
    retry_after: Optional[float] = None,
    close: bool = False,
) -> None:
    """One fixed JSON response (Content-Length framing)."""
    body = (json.dumps(payload) + "\n").encode()
    headers: Dict[str, Any] = {"Content-Type": "application/json"}
    if retry_after is not None:
        # integral seconds, rounded up — 0 would invite an instant retry
        headers["Retry-After"] = max(1, int(retry_after + 0.999))
    if close:
        headers["Connection"] = "close"
    writer.write(_head(status, headers, len(body)) + body)
    await writer.drain()


async def stream_result(
    writer: asyncio.StreamWriter,
    result: Dict[str, Any],
    meta: Dict[str, Any],
    write_timeout: float,
) -> None:
    """Stream a large tensor result as chunked NDJSON frames.

    Frame sequence: a header object (everything but the entries), then
    pages of ``{"entries": [...]}``, then ``{"done": true, ...meta}``.
    Each frame is one HTTP chunk, drained under ``write_timeout``.
    """
    headers = {
        "Content-Type": "application/x-ndjson",
        "Transfer-Encoding": "chunked",
        "Connection": "close",
    }
    writer.write(_head(200, headers, None))
    entries: List[Any] = result.get("entries", [])
    head = {k: v for k, v in result.items() if k != "entries"}
    head["streaming"] = True
    try:
        await _chunk(writer, head, write_timeout)
        for lo in range(0, len(entries), PAGE):
            await _chunk(
                writer, {"entries": entries[lo:lo + PAGE]}, write_timeout)
        await _chunk(writer, {"done": True, **meta}, write_timeout)
        writer.write(b"0\r\n\r\n")
        await asyncio.wait_for(writer.drain(), timeout=write_timeout)
    except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
        raise SlowClientError(str(exc)) from exc


async def send_partial_marker(
    writer: asyncio.StreamWriter, reason: str, write_timeout: float
) -> None:
    """Best-effort terminal frame for a stream cut short: the client
    sees ``{"partial": true}`` instead of a bare FIN."""
    try:
        await _chunk(
            writer, {"partial": True, "done": False, "error": reason},
            write_timeout,
        )
        writer.write(b"0\r\n\r\n")
        await asyncio.wait_for(writer.drain(), timeout=write_timeout)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass


async def _chunk(
    writer: asyncio.StreamWriter, obj: Mapping[str, Any], timeout: float
) -> None:
    data = (json.dumps(obj) + "\n").encode()
    writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
    await asyncio.wait_for(writer.drain(), timeout=timeout)


__all__ = [
    "HttpError",
    "SlowClientError",
    "read_request",
    "send_json",
    "stream_result",
    "send_partial_marker",
    "PAGE",
]
