"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough protocol for the daemon's JSON endpoints and its
server-sent-event telemetry stream -- request-line + header parsing
with a bounded body read, and response writers.  Connections are
persistent (HTTP/1.1 keep-alive): a client such as
:class:`~repro.service.client.ServiceClient` sends request after
request on one connection.  A request that asks for
``Connection: close``, or speaks HTTP/1.0, gets a ``Connection: close``
answer and the daemon then closes; so does a malformed request (its
framing cannot be trusted) and an event stream (the close delimits
it).  No third-party framework, per the zero-new-runtime-deps
constraint.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on accepted request bodies (a kernel + launch payload
#: with a large memory image fits comfortably; abuse does not).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed or oversized request; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HTTPRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the client lets the connection serve another request
        (HTTP/1.1 without ``Connection: close``)."""
        tokens = {t.strip().lower()
                  for t in self.header("connection").split(",")}
        return self.version == "HTTP/1.1" and "close" not in tokens

    def json(self) -> Any:
        """The body decoded as JSON (raises :class:`ProtocolError`)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}")

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[HTTPRequest]:
    """Parse one request; None on a clean EOF before any bytes."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise ProtocolError(400, f"malformed header {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length {length_raw!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"body of {length} bytes refused")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "truncated request body")
    return HTTPRequest(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        version=version,
    )


def _head(status: int, content_type: str, length: Optional[int],
          keep_alive: bool) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             "Connection: " + ("keep-alive" if keep_alive else "close")]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_json(writer: asyncio.StreamWriter, status: int,
                     payload: Any, keep_alive: bool = False) -> None:
    """One complete JSON response.

    ``keep_alive`` tells the client the connection stays open for its
    next request; otherwise the answer says ``Connection: close``.
    """
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    writer.write(_head(status, "application/json", len(body), keep_alive)
                 + body)
    await writer.drain()


async def start_event_stream(writer: asyncio.StreamWriter) -> None:
    """Response head for a server-sent-event stream (no length; the
    close delimits it)."""
    writer.write(_head(200, "text/event-stream", None, False))
    await writer.drain()


async def write_event(writer: asyncio.StreamWriter, event: str,
                      data: Any) -> None:
    """One ``event:``/``data:`` frame."""
    frame = (f"event: {event}\n"
             f"data: {json.dumps(data, sort_keys=True)}\n\n")
    writer.write(frame.encode("utf-8"))
    await writer.drain()
