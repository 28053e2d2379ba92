"""HTTP framing robustness of the asyncio front end (property-based).

Arbitrary request heads and bodies go over raw sockets to a live
server.  Whatever arrives, the server must answer every request, never
with a 500, and a keep-alive connection that just got a 200 must keep
serving.  ``Content-Length`` is parsed strictly as ``1*DIGIT``: signs,
underscores and blanks are a 400 that closes the connection.
"""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="module")
def server(make_server, compiled_db):
    with make_server(compiled_db, workers=1) as running:
        yield running


def read_response(sock) -> tuple[int, dict, bytes]:
    """One HTTP response off ``sock``: (status, headers, body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed unanswered: {data!r}")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        rest += chunk
    return status, headers, rest[:length]


def exchange(server, raw: bytes, follow_up: bytes | None = None):
    """Send ``raw``; if it earns a keep-alive 200, send ``follow_up``."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(raw)
        status, headers, body = read_response(sock)
        statuses = [status]
        if (follow_up is not None and status == 200
                and headers.get("connection") == "keep-alive"):
            sock.sendall(follow_up)
            statuses.append(read_response(sock)[0])
    return statuses


def request_bytes(method: str, path: str, body: bytes,
                  content_length: str | None) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if content_length is not None:
        head += f"Content-Length: {content_length}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"

json_bodies = st.fixed_dictionaries(
    {},
    optional={
        "set": st.sampled_from(["set0", "set3", "missing", 7, None]),
        "sets": st.lists(st.sampled_from(["set0", "set1", "nope"]),
                         max_size=3),
        "r": st.one_of(st.integers(-3, 12), st.just("x")),
        "seed": st.one_of(st.integers(0, 2**40), st.just("seed")),
        "x": st.integers(-5, 9_000),
        "ids": st.one_of(st.lists(st.integers(0, 7_999), max_size=4),
                         st.just("nope")),
        "exhaustive": st.booleans(),
    },
).map(lambda body: json.dumps(body).encode())

bodies = st.one_of(json_bodies, st.binary(max_size=48),
                   st.just(b"[1, 2]"), st.just(b""))

#: Declared lengths: the body's true length, nothing, or arbitrary text
#: (the digits-only draws are re-fitted below so the server is never
#: left waiting for body bytes that will not come).
declared_lengths = st.one_of(
    st.just("exact"), st.none(),
    st.integers(-9, 64).map(str),
    st.tuples(st.sampled_from(["+", "-", "0", "1_", " "]),
              st.integers(0, 9)).map(lambda t: f"{t[0]}{t[1]}"),
    st.text(alphabet="0123456789+-_ .xe", max_size=5))


@settings(max_examples=80, deadline=None)
@given(method=st.sampled_from(["GET", "POST", "PUT", "post"]),
       path=st.sampled_from(["/sample", "/contains", "/reconstruct",
                             "/sample-union", "/insert", "/healthz",
                             "/readyz", "/nope", "/"]),
       body=bodies, declared=declared_lengths)
def test_every_request_is_answered_and_never_a_500(server, method, path,
                                                   body, declared):
    if declared == "exact":
        declared = str(len(body))
    elif declared is None:
        body = b""
    elif declared.strip().isdigit():
        length = int(declared) % 64
        declared = str(length)
        body = body[:length].ljust(length, b" ")
    statuses = exchange(server, request_bytes(method, path, body, declared),
                        follow_up=HEALTHZ)
    assert 500 not in statuses
    if statuses[0] == 200 and len(statuses) == 2:
        assert statuses[1] == 200


@pytest.mark.parametrize("declared", ["-5", "+3", "1_0", " ", "", "0x4"])
def test_non_digit_content_length_is_a_400(server, declared):
    body = b'{"set": "set0"}'
    raw = request_bytes("POST", "/sample", body, declared)
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(raw)
        status, headers, payload = read_response(sock)
        assert status == 400
        assert headers["connection"] == "close"
        assert b"Content-Length" in payload
        assert sock.recv(1) == b""  # the server closed the connection
