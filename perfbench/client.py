"""A blocking HTTP/1.1 client that times a response to the byte.

One request per connection, matching the server's ``Connection: close``
contract.  :func:`post` records when each chunk arrived, so the caller
learns when the first ``answer`` event and the last answer byte reached
the client, not only when the connection closed.  :func:`parse_reply`
turns the bytes into the answers' canonical lines afterwards, outside any
timed region.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass

__all__ = ["Reply", "parse_reply", "post"]

_ANSWER = b"event: answer\n"
_HEAD_END = b"\r\n\r\n"


@dataclass(frozen=True)
class Reply:
    """One raw response and when its parts arrived (``perf_counter`` s)."""

    start: float
    first_answer: float | None
    last_answer: float
    end: float
    raw: bytearray


def post(port: int, path: str, body: bytes, timeout: float) -> Reply:
    """``POST`` ``body`` and read the response to end-of-file.

    ``first_answer`` is when the chunk holding the first answer event
    arrived (None when the response carries none).  ``last_answer`` is
    when the chunk holding the end of the last answer event arrived, or
    the end of the response when it has no answer events.  Socket errors
    and timeouts propagate.
    """
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    start = time.perf_counter()
    raw = bytearray()
    # (bytes received so far, when) after each chunk: one buffer holds the
    # response, however many chunks it came in.
    arrivals: list[tuple[int, float]] = []
    first_answer = None
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head + body)
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            now = time.perf_counter()
            search_from = max(0, len(raw) - len(_ANSWER) + 1)
            raw += chunk
            arrivals.append((len(raw), now))
            if first_answer is None and raw.find(_ANSWER, search_from) >= 0:
                first_answer = now
    end = time.perf_counter()
    last_answer = end
    marker = raw.rfind(_ANSWER)
    if marker >= 0:
        frame_end = raw.find(b"\n\n", marker)
        offset = len(raw) if frame_end < 0 else frame_end + 2
        last_answer = next(arrived for received, arrived in arrivals if received >= offset)
    return Reply(start, first_answer, last_answer, end, raw)


def _canonical(payload: object) -> str:
    """The canonical one-line encoding of one answer (as the server's)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_reply(raw: bytes | bytearray, streamed: bool) -> list[str]:
    """The answers' canonical lines in emission order.

    Raises :class:`ValueError` for a non-200 status, a body that does not
    parse, or an SSE stream that ends without its terminal ``stats``
    event (or whose count disagrees with the answers received).
    """
    head, sep, body = raw.partition(_HEAD_END)
    if not sep:
        raise ValueError("no complete response head")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or parts[1] != "200":
        raise ValueError(f"status {status_line!r}: {body[:200]!r}")
    if not streamed:
        document = json.loads(body.decode("utf-8"))
        return [_canonical(answer) for answer in document["answers"]]
    lines: list[str] = []
    stats: dict[str, object] | None = None
    for frame in body.decode("utf-8").split("\n\n"):
        if not frame:
            continue
        if stats is not None:
            raise ValueError("event after the terminal stats event")
        fields = dict(line.split(": ", 1) for line in frame.split("\n"))
        if fields.get("event") == "answer":
            lines.append(fields["data"])
        elif fields.get("event") == "stats":
            stats = json.loads(fields["data"])
        else:
            raise ValueError(f"unexpected event frame {frame[:200]!r}")
    if stats is None:
        raise ValueError(f"stream ended without its stats event after {len(lines)} answers")
    if stats.get("complete") is not True or stats.get("answers") != len(lines):
        raise ValueError(f"stats event {stats!r} disagrees with {len(lines)} answers")
    return lines
