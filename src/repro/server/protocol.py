"""Minimal HTTP/1.1 + Server-Sent-Events wire protocol over asyncio streams.

The service layer is deliberately stdlib-only, so this module implements
the thin slice of HTTP/1.1 the mining endpoints need — nothing more:

* :func:`read_request` parses one request (request line, headers, and a
  ``Content-Length``-delimited body) from an ``asyncio.StreamReader``,
  enforcing header- and body-size ceilings so a misbehaving client cannot
  buffer unbounded bytes into the process;
* :func:`write_response` writes a complete ``Content-Length``-framed
  response and :func:`start_sse` / :func:`write_sse_event` write a
  ``text/event-stream`` response incrementally — one event per confirmed
  answer, which is the whole point of the streaming endpoint.

Every response carries ``Connection: close`` and each connection serves
exactly one request: the mining endpoints are long-lived (a stream runs
for the lifetime of the evaluation), so keep-alive connection reuse would
buy nothing while complicating the drain logic.  SSE responses are
close-delimited (no ``Content-Length``), which HTTP/1.1 permits for
``Connection: close`` responses and which lets events flush as they are
produced.

Errors detected at this layer raise :class:`ProtocolError` (malformed
request, oversized headers) or :class:`PayloadTooLarge` (oversized body),
which :mod:`repro.server.service` maps to structured 400/413 responses.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.exceptions import ReproError

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "HttpRequest",
    "MAX_HEADER_BYTES",
    "MAX_HEADER_COUNT",
    "PayloadTooLarge",
    "ProtocolError",
    "REASON_PHRASES",
    "read_request",
    "sse_headers",
    "start_sse",
    "write_response",
    "write_sse_event",
]

#: Ceiling on any single header / request line (bytes, CRLF included).
MAX_HEADER_BYTES = 8192

#: Ceiling on the number of header lines in one request.
MAX_HEADER_COUNT = 64

#: Default ceiling on request bodies; the service layer passes its own.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: The status codes the service emits, with their reason phrases.
REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ReproError):
    """The bytes on the wire do not form the HTTP/1.1 subset we accept."""


class PayloadTooLarge(ProtocolError):
    """The declared request body exceeds the configured ceiling."""

    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(f"request body of {declared} bytes exceeds the {limit}-byte limit")
        self.declared = declared
        self.limit = limit


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP request: method, split target, headers and body.

    ``headers`` keys are lower-cased (HTTP header names are
    case-insensitive); duplicate headers keep the last value, which is
    sufficient for the small header vocabulary the service reads
    (``content-length``, ``x-client-id``).
    """

    method: str
    path: str
    query: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def client_id(self, default: str) -> str:
        """The rate-limiting identity: ``X-Client-Id`` or the given default."""
        return self.headers.get("x-client-id", default)


async def _read_header_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF-terminated line, bounded by :data:`MAX_HEADER_BYTES`.

    A line beyond the stream reader's own buffer limit makes ``readline``
    raise ``ValueError`` instead of returning it; both overruns are the
    same client error.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:
        raise ProtocolError(f"header line exceeds {MAX_HEADER_BYTES} bytes") from exc
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header line exceeds {MAX_HEADER_BYTES} bytes")
    return line


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = DEFAULT_MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Parse one request from the stream, or ``None`` on a clean EOF.

    Only what the mining endpoints need is accepted: an HTTP/1.x request
    line, up to :data:`MAX_HEADER_COUNT` headers, and an optional body
    delimited by ``Content-Length`` (chunked request bodies are rejected —
    no client of a JSON mining API needs them).  A declared body larger
    than ``max_body`` raises :class:`PayloadTooLarge` *before* reading it,
    so oversized uploads cost the server nothing.
    """
    request_line = await _read_header_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version: {version!r}")
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        line = await _read_header_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ProtocolError("connection closed mid-headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(f"more than {MAX_HEADER_COUNT} header lines")
    if "transfer-encoding" in headers:
        raise ProtocolError("chunked request bodies are not supported")
    body = b""
    declared = headers.get("content-length")
    if declared is not None:
        # ASCII digits only: int() would also take "+0", "0_0" and
        # non-ASCII digits, none of which is a valid Content-Length.
        if not (declared.isascii() and declared.isdigit()):
            raise ProtocolError(f"malformed Content-Length: {declared!r}")
        length = int(declared)
        if length > max_body:
            raise PayloadTooLarge(length, max_body)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError("connection closed mid-body") from exc
    return HttpRequest(method=method, path=path, query=query, headers=headers, body=body)


def _status_line(status: int) -> str:
    reason = REASON_PHRASES.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n"


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> None:
    """Write one complete ``Content-Length``-framed response and flush it."""
    head = _status_line(status)
    headers = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    for name, value in headers.items():
        head += f"{name}: {value}\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()


def sse_headers() -> dict[str, str]:
    """The response headers of a Server-Sent-Events stream."""
    return {
        "Content-Type": "text/event-stream; charset=utf-8",
        "Cache-Control": "no-store",
        "Connection": "close",
    }


async def start_sse(writer: asyncio.StreamWriter) -> None:
    """Write the status line and headers of an SSE response (no body yet).

    The stream is close-delimited: events follow via
    :func:`write_sse_event` and the response ends when the connection
    closes, so each event reaches the client as soon as it is written.
    """
    head = _status_line(200)
    for name, value in sse_headers().items():
        head += f"{name}: {value}\r\n"
    writer.write(head.encode("latin-1") + b"\r\n")
    await writer.drain()


async def write_sse_event(
    writer: asyncio.StreamWriter,
    event: str,
    data: str,
    event_id: int | None = None,
) -> None:
    """Write one SSE event frame and flush it to the client.

    ``data`` must not contain newlines (the service sends compact
    single-line JSON payloads); the frame is flushed immediately so a
    confirmed answer is on the wire before the next one is computed.
    Raises the writer's connection error when the client has gone away —
    the streaming handler treats that as a disconnect.
    """
    frame = f"event: {event}\n"
    if event_id is not None:
        frame += f"id: {event_id}\n"
    frame += f"data: {data}\n\n"
    writer.write(frame.encode("utf-8"))
    await writer.drain()
