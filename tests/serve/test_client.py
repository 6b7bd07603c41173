"""ServeClient unit tests: transport by scheme, the pool's lifetime, and
stream decoding that ignores chunk boundaries."""

from __future__ import annotations

import re
import socket
import threading

import pytest

from repro.serve import client as client_module
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    encode_stream_line,
    end_line,
    header_line,
    outcome_line,
)


def test_https_scheme_uses_tls_connection(monkeypatch):
    """An https:// URL must not be silently downgraded to plaintext."""
    used = []

    class FakeHTTPS:
        def __init__(self, host, port, timeout=None):
            used.append((host, port))

        def request(self, *_args, **_kwargs):
            raise OSError("refusing to actually dial out from a test")

        def close(self):
            pass

    monkeypatch.setattr(client_module.http.client, "HTTPSConnection", FakeHTTPS)
    for url, port in (("https://serve.example", 443), ("https://serve.example:8443", 8443)):
        with pytest.raises(OSError, match="refusing"):
            ServeClient(url).stats()
        assert used.pop() == ("serve.example", port)


def test_plain_urls_default_to_http():
    assert ServeClient("http://serve.example").port == 80
    assert ServeClient("serve.example:8642").port == 8642


def test_unsupported_scheme_is_rejected():
    with pytest.raises(ValueError, match="scheme"):
        ServeClient("ftp://serve.example")


def test_close_drops_idle_connections(server):
    with ServeClient(server.url) as client:
        client.stats()
    # close() dropped the pooled connection; the client stays usable.
    assert client.stats()["connections"]["accepted"] == 2
    client.close()


#: One two-task sweep stream, as the server would encode it.
STREAM_LINES = [
    encode_stream_line(line)
    for line in (
        header_line(1, "SERVE-DEBUG", 2, 1),
        outcome_line(0, ("echo", 1, 1), (1, {2: "two"}), True),
        outcome_line(1, ("echo", 2, 1), frozenset({3}), False),
        end_line(completed=2, total=2, cache_hits=1, executed=1, elapsed_s=0.5),
    )
]


def _sweep_from_raw_server(chunks):
    """``ServeClient.sweep`` against a one-shot server that answers with
    ``chunks`` as the chunked body, whatever the request."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        connection, _ = listener.accept()
        with connection:
            request = b""
            while b"\r\n\r\n" not in request:
                request += connection.recv(65536)
            head, _, body = request.partition(b"\r\n\r\n")
            length = int(re.search(rb"content-length: *(\d+)", head, re.I).group(1))
            while len(body) < length:
                body += connection.recv(65536)
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                + b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks)
                + b"0\r\n\r\n"
            )

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        with listener, ServeClient(f"http://127.0.0.1:{listener.getsockname()[1]}") as client:
            return client.sweep("SERVE-DEBUG", points=[["echo", 1], ["echo", 2]])
    finally:
        thread.join(timeout=10)


def test_chunk_boundaries_carry_no_meaning():
    header, first, second, end = STREAM_LINES
    cut = len(first) // 2
    per_line = _sweep_from_raw_server(STREAM_LINES)
    assert per_line.ok
    assert per_line.outcomes == [(1, {2: "two"}), frozenset({3})]
    # Several lines in one chunk, and one line split across two chunks.
    assert _sweep_from_raw_server([b"".join(STREAM_LINES)]) == per_line
    assert _sweep_from_raw_server([header + first[:cut], first[cut:] + second + end]) == per_line
