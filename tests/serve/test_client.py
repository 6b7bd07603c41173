"""ServeClient unit tests: transport by scheme, and the pool's lifetime."""

from __future__ import annotations

import pytest

from repro.serve import client as client_module
from repro.serve.client import ServeClient


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
