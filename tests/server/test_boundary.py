"""Fuzz and negative tests for the JSON -> MetaqueryRequest wire boundary.

The service's promise at this boundary is total: *every* malformed input
— undecodable bytes, non-object JSON, unknown fields, wrong types,
competing threshold spellings, engine-rejected requests, oversized
bodies, even raw protocol garbage — produces a structured 4xx JSON
error, never a 500 and never a hung connection.  The deterministic corpus
below reuses the :class:`~repro.exceptions.EngineError` cases from
``tests/core/test_requests_stream.py`` (the library boundary and the wire
boundary must reject the same inputs), and a Hypothesis pass throws
arbitrary bytes and arbitrary JSON documents at ``POST /mine``.
"""

from __future__ import annotations

import json
import socket
from typing import Iterator

import pytest
from client import ServeClient
from conftest import ServeFixture
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.inprocess import InProcessServer
from repro.workloads.telecom import db1

TRANSITIVITY = "R(X,Z) <- P(X,Y), Q(Y,Z)"


@pytest.fixture(scope="module")
def boundary_server() -> Iterator[ServeFixture]:
    """One module-scoped server: the boundary is stateless per request."""
    server = InProcessServer({"default": db1()}, max_body=2048).start()
    yield ServeFixture(server)
    server.close()


def _assert_structured_error(response, status: int, code: str | None = None) -> None:
    """The error contract: right status, JSON body with the error triple."""
    assert response.status == status, response.body
    document = response.json()
    error = document["error"]
    assert error["status"] == status
    assert isinstance(error["code"], str) and error["code"]
    assert isinstance(error["message"], str) and error["message"]
    if code is not None:
        assert error["code"] == code


#: The EngineError corpus of ``tests/core/test_requests_stream.py``, plus
#: the wire-only malformations (raw bytes, wrong JSON shapes).
BAD_MINE_BODIES = [
    pytest.param(b"{nope", id="malformed-json"),
    pytest.param(b"", id="empty-body"),
    pytest.param(b"\xff\xfe\x00", id="undecodable-bytes"),
    pytest.param(json.dumps([1, 2, 3]).encode(), id="json-array"),
    pytest.param(json.dumps("just a string").encode(), id="json-string"),
    pytest.param(json.dumps({}).encode(), id="missing-metaquery"),
    pytest.param(json.dumps({"metaquery": ""}).encode(), id="empty-metaquery"),
    pytest.param(json.dumps({"metaquery": "   "}).encode(), id="blank-metaquery"),
    pytest.param(json.dumps({"metaquery": 42}).encode(), id="non-string-metaquery"),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "algorithm": "magic"}).encode(),
        id="unknown-algorithm",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "algorithm": 3}).encode(),
        id="non-string-algorithm",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "itype": 7}).encode(),
        id="out-of-range-itype",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "itype": True}).encode(),
        id="bool-itype",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "itype": "2"}).encode(),
        id="string-itype",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "thresholds": 0.2}).encode(),
        id="non-object-thresholds",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "thresholds": {"supp": 0.2}}).encode(),
        id="unknown-threshold-field",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "support": [0.2]}).encode(),
        id="list-threshold",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "support": True}).encode(),
        id="bool-threshold",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "support": "not a fraction"}).encode(),
        id="unparseable-threshold-string",
    ),
    pytest.param(
        json.dumps(
            {"metaquery": TRANSITIVITY, "support": 0.2, "thresholds": {"support": 0.2}}
        ).encode(),
        id="competing-threshold-spellings",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "frobnicate": 1}).encode(),
        id="unknown-field",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "tenant": 7}).encode(),
        id="non-string-tenant",
    ),
    pytest.param(
        json.dumps({"metaquery": TRANSITIVITY, "tenant": ""}).encode(),
        id="empty-tenant",
    ),
    pytest.param(
        json.dumps({"metaquery": "R(X ,Z) <- <- nonsense"}).encode(),
        id="unparseable-metaquery",
    ),
    pytest.param(
        json.dumps({"metaquery": "R(X,_T2_1) <- P(X,_T2_1)", "itype": 2}).encode(),
        id="padding-prefixed-variable",
    ),
]


@pytest.mark.parametrize("body", BAD_MINE_BODIES)
@pytest.mark.parametrize("path", ["/mine", "/mine/stream"])
def test_bad_bodies_are_structured_400s(
    boundary_server: ServeFixture, path: str, body: bytes
) -> None:
    """Every corpus entry: a structured 400 on both mining endpoints."""
    response = boundary_server.post_json(path, body)
    _assert_structured_error(response, 400, "invalid-request")


def test_competing_spellings_message_names_both(boundary_server: ServeFixture) -> None:
    """The competing-overrides 400 tells the client what collided."""
    response = boundary_server.post_json(
        "/mine",
        {"metaquery": TRANSITIVITY, "confidence": 0.3, "thresholds": {"support": 0.2}},
    )
    _assert_structured_error(response, 400, "invalid-request")
    message = response.json()["error"]["message"]
    assert "competing threshold spellings" in message
    assert "'confidence'" in message


def test_oversized_body_is_413_without_reading_it(boundary_server: ServeFixture) -> None:
    """A declared body beyond ``max_body`` is refused before transmission."""
    response = boundary_server.client().request(
        "POST", "/mine", body=b"", declared_length=10**7
    )
    _assert_structured_error(response, 413, "payload-too-large")
    assert "10000000" in response.json()["error"]["message"]


def test_oversized_transmitted_body_is_413(boundary_server: ServeFixture) -> None:
    """An actually transmitted over-limit body gets the same 413."""
    padding = "x" * 4096  # boundary_server caps bodies at 2048 bytes
    response = boundary_server.post_json(
        "/mine", {"metaquery": TRANSITIVITY, "tenant": padding}
    )
    _assert_structured_error(response, 413, "payload-too-large")


RAW_REQUESTS = [
    pytest.param(b"GARBAGE\r\n\r\n", id="malformed-request-line"),
    pytest.param(b"GET /healthz HTTP/2\r\n\r\n", id="unsupported-version"),
    pytest.param(b"GET /healthz SPDY/1\r\n\r\n", id="non-http-version"),
    pytest.param(
        b"POST /mine HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        id="chunked-body",
    ),
    pytest.param(
        b"POST /mine HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        id="malformed-content-length",
    ),
    pytest.param(
        b"POST /mine HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        id="negative-content-length",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
        id="malformed-header",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\n" + b"X-H: 1\r\n" * 70 + b"\r\n",
        id="too-many-headers",
    ),
    # Lines beyond the stream reader's 64 KiB buffer limit, not only
    # beyond MAX_HEADER_BYTES.
    pytest.param(
        b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n",
        id="oversized-request-line",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nX-H: " + b"a" * 100_000 + b"\r\n\r\n",
        id="oversized-header-line",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nContent-Length: 0_0\r\n\r\n",
        id="underscore-content-length",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nContent-Length: +0\r\n\r\n",
        id="signed-content-length",
    ),
]


@pytest.mark.parametrize("raw", RAW_REQUESTS)
def test_protocol_garbage_is_structured_400(
    boundary_server: ServeFixture, raw: bytes
) -> None:
    """Raw wire garbage still gets the structured 400, then a clean close.

    The server may answer and close before reading the whole request (an
    oversized line), so the send may fail and the close may arrive as a
    reset; the 400 sent before it is still read, as the test client does.
    """
    with socket.create_connection(
        (boundary_server.host, boundary_server.port), timeout=10
    ) as sock:
        try:
            sock.sendall(raw)
        except (ConnectionResetError, BrokenPipeError):
            pass
        data = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except (ConnectionResetError, BrokenPipeError):
                break
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert json.loads(body)["error"]["status"] == 400


def test_half_open_connection_is_dropped_quietly(boundary_server: ServeFixture) -> None:
    """Connect-then-close costs the server nothing; it keeps serving."""
    for _ in range(3):
        sock = socket.create_connection(
            (boundary_server.host, boundary_server.port), timeout=10
        )
        sock.close()
    response = boundary_server.get("/healthz")
    assert response.status == 200


def test_engine_boundary_and_wire_boundary_agree(boundary_server: ServeFixture) -> None:
    """A request valid at the library boundary mines successfully over HTTP."""
    response = boundary_server.post_json(
        "/mine",
        {
            "metaquery": TRANSITIVITY,
            "thresholds": {"support": "3/10", "confidence": "1/2"},
            "itype": 0,
            "algorithm": "auto",
        },
    )
    assert response.status == 200, response.body
    document = response.json()
    assert document["count"] == len(document["answers"])
    assert any(
        a["rule"] == "uspt(X, Z) <- usca(X, Y), cate(Y, Z)" for a in document["answers"]
    )


# ----------------------------------------------------------------------
# Hypothesis: arbitrary bytes and arbitrary JSON never crash the boundary
# ----------------------------------------------------------------------
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-10, max_value=10)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=30, deadline=None)
@given(body=st.binary(max_size=256))
def test_fuzz_raw_bytes_never_500(boundary_server: ServeFixture, body: bytes) -> None:
    """Arbitrary request bytes: always a structured non-500 response."""
    response = boundary_server.post_json("/mine", body)
    assert response.status in (200, 400, 404, 413), (body, response.body)
    if response.status != 200:
        assert response.json()["error"]["status"] == response.status


@settings(max_examples=30, deadline=None)
@given(document=_json_values)
def test_fuzz_json_documents_never_500(
    boundary_server: ServeFixture, document: object
) -> None:
    """Arbitrary JSON documents: always a structured non-500 response."""
    body = json.dumps(document).encode("utf-8")
    response = boundary_server.post_json("/mine", body)
    assert response.status in (200, 400, 404, 413), (document, response.body)


def test_client_parse_head_self_check() -> None:
    """The test client itself flags a garbled status line (self-check)."""
    from client import _parse_head

    with pytest.raises(AssertionError):
        _parse_head(b"not a status line")
    status, reason, headers = _parse_head(
        b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2"
    )
    assert (status, reason) == (429, "Too Many Requests")
    assert headers == {"retry-after": "2"}
