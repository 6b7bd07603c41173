"""Remote cache tier tests: read-through hits, silent fallback, latch."""

from __future__ import annotations

import pickle

import pytest

from repro.cache import remote
from repro.cache.store import RunCache
from repro.experiments import fig4
from repro.serve.client import ServeClient
from repro.serve.runner import ServerThread
from repro.serve.service import SweepService

POINT = (4, False, 0)
WORKER_REF = "repro.experiments.fig4:_measure"


@pytest.fixture
def populated_server(tmp_path):
    """A server whose own store already holds one FIG4 entry."""
    store = RunCache(tmp_path / "server-cache")
    service = SweepService(fleet_kind="inproc", workers=1, cache=store)
    with ServerThread(service=service) as running:
        summary = ServeClient(running.url).sweep("FIG4", points=[[4, False]], seeds=[0])
        assert summary.end["executed"] == 1
        yield running, store


def test_read_through_hit_and_write_through(populated_server, tmp_path, monkeypatch):
    running, _store = populated_server
    monkeypatch.setenv("REPRO_CACHE_REMOTE", running.url)

    local = RunCache(tmp_path / "client-cache")
    key = local.key("FIG4", WORKER_REF, POINT)
    hit, outcome = local.get(key, "FIG4")
    assert hit, "local miss should have been answered by the remote tier"
    assert pickle.dumps(outcome, 4) == pickle.dumps(fig4._measure(POINT), 4)
    assert local.stats.hits == 1 and local.stats.misses == 0
    assert remote.stats()["hits"] == 1

    # write-through: after a flush the entry is local, no second fetch
    local.flush()
    monkeypatch.delenv("REPRO_CACHE_REMOTE")
    fresh = RunCache(tmp_path / "client-cache")
    hit, _ = fresh.get(key, "FIG4")
    assert hit
    assert remote.stats()["requests"] == 1


def test_remote_miss_is_a_local_miss(populated_server, tmp_path, monkeypatch):
    running, _store = populated_server
    monkeypatch.setenv("REPRO_CACHE_REMOTE", running.url)
    local = RunCache(tmp_path / "client-cache")
    key = local.key("FIG4", WORKER_REF, (6, True, 3))  # never executed anywhere
    hit, _ = local.get(key, "FIG4")
    assert not hit
    assert remote.stats() == {"requests": 1, "hits": 0, "misses": 1, "errors": 0}


def test_unreachable_remote_falls_back_silently(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_REMOTE", "http://127.0.0.1:9")  # discard port
    monkeypatch.setattr(remote, "FETCH_TIMEOUT_S", 0.2)
    local = RunCache(tmp_path / "client-cache")
    key = local.key("FIG4", WORKER_REF, POINT)
    hit, outcome = local.get(key, "FIG4")
    assert not hit and outcome is None  # a plain miss, no exception
    assert remote.stats()["errors"] == 1


def test_down_latch_skips_further_fetches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_REMOTE", "http://127.0.0.1:9")
    monkeypatch.setattr(remote, "FETCH_TIMEOUT_S", 0.2)
    local = RunCache(tmp_path / "client-cache")
    for point in ((4, False, 0), (4, False, 1), (4, False, 2)):
        hit, _ = local.get(local.key("FIG4", WORKER_REF, point), "FIG4")
        assert not hit
    # only the first miss paid for a connection attempt; the latch ate
    # the rest (requests counts *attempted* fetches)
    assert remote.stats()["requests"] == 1
    assert remote.stats()["errors"] == 1


def test_disable_in_process_wins_over_env(populated_server, tmp_path, monkeypatch):
    running, _store = populated_server
    monkeypatch.setenv("REPRO_CACHE_REMOTE", running.url)
    remote.disable_in_process()
    local = RunCache(tmp_path / "client-cache")
    hit, _ = local.get(local.key("FIG4", WORKER_REF, POINT), "FIG4")
    assert not hit
    assert remote.stats()["requests"] == 0


def test_server_store_never_consults_remote(populated_server):
    _running, store = populated_server
    # the service cleared the flag on the store it answers from
    assert store.consult_remote is False


def test_remote_bytes_are_never_unpickled(tmp_path, monkeypatch):
    """A server answering pickle (the shape an attacker ships) is a miss.

    Entries travel as tagged-JSON frames; if fetched bytes ever reached
    ``pickle.loads``, a spoofed/MITM'd REPRO_CACHE_REMOTE server would
    get code execution in every consulting process.  The payload here
    proves the negative: unpickling it would create ``marker``.
    """
    import http.server
    import os
    import threading

    marker = tmp_path / "pwned"

    class Exploit:
        def __reduce__(self):
            return (os.mkdir, (str(marker),))

    payload = pickle.dumps(Exploit())

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *_args):
            pass

    httpd = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv(
            "REPRO_CACHE_REMOTE", f"http://127.0.0.1:{httpd.server_address[1]}"
        )
        local = RunCache(tmp_path / "client-cache")
        hit, outcome = local.get(local.key("FIG4", WORKER_REF, POINT), "FIG4")
        assert not hit and outcome is None  # junk frame → plain miss
        assert not marker.exists(), "remote bytes reached pickle.loads"
    finally:
        httpd.shutdown()
        thread.join()
        httpd.server_close()


def test_https_scheme_uses_tls_connection(monkeypatch):
    """An https:// URL must not be silently downgraded to plaintext."""
    used = {}

    class FakeHTTPS:
        def __init__(self, host, port, timeout=None):
            used["target"] = (host, port)

        def request(self, *_args, **_kwargs):
            raise OSError("refusing to actually dial out from a test")

        def close(self):
            pass

    monkeypatch.setattr(remote.http.client, "HTTPSConnection", FakeHTTPS)
    monkeypatch.setenv("REPRO_CACHE_REMOTE", "https://cache.example:8443")
    assert remote.fetch_entry("ab" * 32) is None
    assert used["target"] == ("cache.example", 8443)
    assert remote.stats() == {"requests": 1, "hits": 0, "misses": 0, "errors": 1}


def test_unsupported_scheme_is_rejected_without_a_fetch(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_REMOTE", "ftp://cache.example")
    assert remote.fetch_entry("ab" * 32) is None
    assert remote.stats()["requests"] == 0
    assert remote.stats()["errors"] == 1  # latched like any misconfiguration


def test_cached_sweep_via_remote_tier_end_to_end(populated_server, tmp_path, monkeypatch):
    """A local run_sweep with the tier configured fetches, not executes."""
    import repro.cache
    from repro.experiments.base import run_sweep

    running, _store = populated_server
    monkeypatch.setenv("REPRO_CACHE_REMOTE", running.url)
    repro.cache.configure(root=tmp_path / "sweep-cache")
    try:
        outcomes = run_sweep(fig4._measure, [POINT], jobs=1, cache="FIG4")
        cache = repro.cache.get_cache()
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert pickle.dumps(outcomes[0], 4) == pickle.dumps(fig4._measure(POINT), 4)
        assert remote.stats()["hits"] == 1
    finally:
        repro.cache.configure()
