"""End-to-end service tests over a real loopback HTTP server."""

from __future__ import annotations

import http.client
import json
import pickle
import socket
import sys
import threading
import time

import pytest

import repro.cache
import repro.experiments.base as base
from repro.experiments import fig4
from repro.experiments.base import run_sweep
from repro.kernel.events import Observer
from repro.serve.client import ServeClient, ServeError
from repro.serve.runner import ServerThread

POINTS = ((4, False), (4, True))
SEEDS = (0, 1)
TASKS = [(n, corrupt, seed) for n, corrupt in POINTS for seed in SEEDS]


def test_served_sweep_matches_local_run_sweep(server):
    local = run_sweep(fig4._measure, TASKS, jobs=1)
    summary = ServeClient(server.url).sweep("FIG4", points=POINTS, seeds=list(SEEDS))
    assert summary.ok
    assert summary.tasks == TASKS
    assert pickle.dumps(summary.outcomes, 4) == pickle.dumps(list(local), 4)


def test_outcomes_stream_in_input_order(server):
    # SERVE-DEBUG sleeps make later tasks finish *earlier* wall-clock;
    # the stream must still emit index 0, 1, 2, ... in order.
    points = [["sleep", 150], ["sleep", 5], ["sleep", 5], ["sleep", 5]]
    summary = ServeClient(server.url).sweep("SERVE-DEBUG", points=points)
    assert summary.ok
    assert [line["index"] for line in _outcome_lines(server, points)] == [0, 1, 2, 3]
    assert summary.outcomes == [150, 5, 5, 5]


def _outcome_lines(server, points):
    lines = []
    for line in ServeClient(server.url).stream(
        "/v1/sweep", {"experiment": "SERVE-DEBUG", "points": points, "seeds": 1}
    ):
        if line.get("kind") == "outcome":
            lines.append(line)
    return lines


def test_warm_repeat_is_all_cache_hits(server):
    client = ServeClient(server.url)
    cold = client.sweep("FIG4", points=POINTS, seeds=list(SEEDS))
    assert cold.end["executed"] == len(TASKS)
    assert cold.end["cache_hits"] == 0
    warm = client.sweep("FIG4", points=POINTS, seeds=list(SEEDS))
    assert warm.end["executed"] == 0
    assert warm.end["cache_hits"] == len(TASKS)
    assert pickle.dumps(warm.outcomes, 4) == pickle.dumps(cold.outcomes, 4)
    stats = client.stats()
    assert stats["tasks"]["cache_hits"] == len(TASKS)
    assert stats["tasks"]["executed"] == len(TASKS)  # cold pass only


def test_all_hit_request_narrates_and_counts_as_before():
    kinds = []

    class Recorder(Observer):
        def on_serve(self, event):
            kinds.append(event.kind)

    with ServerThread(fleet_kind="inproc", workers=2, observers=(Recorder(),)) as running:
        client = ServeClient(running.url)
        assert client.sweep("FIG4", points=POINTS, seeds=list(SEEDS)).ok  # cold
        before = client.stats()
        del kinds[:]
        warm = client.sweep("FIG4", points=POINTS, seeds=list(SEEDS))
        after = client.stats()
    assert warm.ok and warm.end["executed"] == 0
    assert kinds == ["request-start", "task-cached", "request-end"]
    moved = {
        path: after[section][name] - before[section][name]
        for path in (
            "requests.total",
            "requests.active",
            "requests.cancelled",
            "requests.errors",
            "tasks.total",
            "tasks.cache_hits",
            "tasks.executed",
            "cache.hits",
            "cache.misses",
            "latency_ms.count",
        )
        for section, name in [path.split(".")]
    }
    assert moved == {
        "requests.total": 1,
        "requests.active": 0,
        "requests.cancelled": 0,
        "requests.errors": 0,
        "tasks.total": len(TASKS),
        "tasks.cache_hits": len(TASKS),
        "tasks.executed": 0,
        "cache.hits": len(TASKS),
        "cache.misses": 0,
        "latency_ms.count": 1,
    }


def test_no_cache_forces_execution(server):
    client = ServeClient(server.url)
    client.sweep("FIG4", points=POINTS, seeds=list(SEEDS))
    again = client.sweep("FIG4", points=POINTS, seeds=list(SEEDS), no_cache=True)
    assert again.end["executed"] == len(TASKS)
    assert again.end["cache_hits"] == 0


def test_deadline_truncates_with_explicit_marker(server):
    points = [["sleep", 1], ["sleep", 2000], ["sleep", 2000], ["sleep", 2000]]
    summary = ServeClient(server.url).sweep(
        "SERVE-DEBUG", points=points, deadline_s=0.5
    )
    assert summary.truncated
    assert not summary.ok
    assert summary.end["completed"] < summary.end["total"] == 4
    # the partial results that did land are real, in-order outcomes
    assert summary.outcomes == [1, 2000][: len(summary.outcomes)]
    stats = ServeClient(server.url).stats()
    assert stats["requests"]["truncated"] == 1


def test_worker_error_streams_structured_error(server):
    with pytest.raises(ServeError) as excinfo:
        ServeClient(server.url).sweep("SERVE-DEBUG", points=[["fail", "boom"]])
    assert excinfo.value.code == "worker-error"
    assert "boom" in str(excinfo.value)


def test_explore_round_trip(server):
    summary = ServeClient(server.url).explore("fig1", budget=20, seed=0)
    assert summary.ok
    (outcome,) = summary.outcomes
    assert outcome["target"] == "fig1"
    assert outcome["examined"] >= 1
    # warm repeat: the whole exploration is one cache entry
    warm = ServeClient(server.url).explore("fig1", budget=20, seed=0)
    assert warm.end["cache_hits"] == 1 and warm.end["executed"] == 0
    assert pickle.dumps(warm.outcomes, 4) == pickle.dumps(summary.outcomes, 4)


def test_experiments_endpoint_lists_catalog(server):
    listing = ServeClient(server.url).experiments()
    ids = [entry["experiment"] for entry in listing["experiments"]]
    assert "FIG1" in ids and "FIG4" in ids and "UNISON" in ids
    assert "SERVE-DEBUG" not in ids  # unlisted
    fig4_entry = next(e for e in listing["experiments"] if e["experiment"] == "FIG4")
    assert fig4_entry["point_fields"] == [
        {"name": "n", "type": "int"},
        {"name": "corrupt", "type": "bool"},
    ]


def test_unknown_routes_and_methods(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request("GET", "/v1/nope")
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 404 and body["error"]["code"] == "not-found"
        connection.request("DELETE", "/v1/sweep")
        response = connection.getresponse()
        assert response.status == 405
    finally:
        connection.close()


def test_oversize_body_is_structured_413(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.putrequest("POST", "/v1/sweep")
        connection.putheader("Content-Length", str(64 << 20))
        connection.endheaders()
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 413
        assert body["error"]["code"] == "oversize-body"
    finally:
        connection.close()


def test_malformed_json_is_structured_400(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            "POST", "/v1/sweep", body=b"{not json", headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "bad-json"
    finally:
        connection.close()


def test_client_disconnect_cancels_pending_shards(server):
    # Start a stream whose first task parks a worker, then hang up after
    # the header.  The service must cancel its shards: afterwards the
    # fleet drains and a fresh request is served promptly.
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    body = json.dumps(
        {
            "experiment": "SERVE-DEBUG",
            "points": [["sleep", 400]] + [["sleep", 3000]] * 12,
            "seeds": 1,
        }
    ).encode()
    raw.sendall(
        b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    raw.recv(1024)  # response head + header line
    raw.close()  # hang up mid-stream

    deadline = time.monotonic() + 15
    cancelled = 0
    while time.monotonic() < deadline:
        stats = ServeClient(server.url).stats()
        cancelled = stats["requests"]["cancelled"]
        if cancelled and stats["requests"]["active"] == 0:
            break
        time.sleep(0.1)
    assert cancelled == 1
    # the fleet is free again: a short request completes fast
    started = time.monotonic()
    summary = ServeClient(server.url).sweep("SERVE-DEBUG", points=[["echo", 1]])
    assert summary.ok
    assert time.monotonic() - started < 10


def test_draining_server_rejects_new_requests(server):
    client = ServeClient(server.url)
    assert client.sweep("SERVE-DEBUG", points=[["echo", 1]]).ok
    server.stop()
    with pytest.raises((ServeError, ConnectionError, OSError)):
        client.sweep("SERVE-DEBUG", points=[["echo", 2]])


def test_server_never_grows_a_fork_pool(server):
    # Regression guard for the PR-4 fork-pool/event-loop hazard: serving
    # sweeps (cold and warm) must not create the persistent fork pool in
    # the serving process.
    ServeClient(server.url).sweep("FIG4", points=POINTS, seeds=list(SEEDS))
    ServeClient(server.url).sweep("FIG4", points=POINTS, seeds=list(SEEDS))
    assert base._POOL is None


def test_stats_shape(server):
    ServeClient(server.url).sweep("SERVE-DEBUG", points=[["echo", 1]])
    stats = ServeClient(server.url).stats()
    assert set(stats) >= {"uptime_s", "requests", "tasks", "latency_ms", "cache", "fleet"}
    assert stats["fleet"]["kind"] == "inproc"
    assert stats["fleet"]["workers"] == 2
    assert stats["latency_ms"]["count"] >= 1
    assert stats["requests"]["by_endpoint"].get("sweep", 0) >= 1


def test_cache_entry_endpoint_serves_wire_entries(server):
    client = ServeClient(server.url)
    client.sweep("FIG4", points=[list(POINTS[0])], seeds=[0])
    cache = repro.cache.get_cache()
    key = cache.key("FIG4", "repro.experiments.fig4:_measure", (4, False, 0))
    entry = client.cache_entry(key)
    assert entry is not None
    assert entry["namespace"] == "FIG4"
    assert entry["point"] == (4, False, 0)  # the codec kept the tuple a tuple
    assert client.cache_entry("0" * 64) is None  # unknown key → 404


def test_cache_entry_endpoint_never_ships_pickle(server):
    # The remote tier's wire format is a tagged-JSON frame: clients
    # must never have to unpickle network bytes.
    client = ServeClient(server.url)
    client.sweep("FIG4", points=[list(POINTS[0])], seeds=[0])
    cache = repro.cache.get_cache()
    key = cache.key("FIG4", "repro.experiments.fig4:_measure", (4, False, 0))
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request("GET", f"/v1/cache/{key}")
        body = connection.getresponse().read()
    finally:
        connection.close()
    assert not body[4:].startswith(b"\x80")  # no pickle magic after the prefix
    json.loads(body[4:].decode("utf-8"))  # the frame body is plain JSON


def test_deadline_already_expired_truncates_cleanly(server):
    # Regression: an expiry landing *between* shard awaits (here: before
    # the first one) must yield the truncated `end` marker, not an
    # internal error with no stream terminator.
    summary = ServeClient(server.url).sweep(
        "SERVE-DEBUG", points=[["sleep", 200]] * 4, deadline_s=1e-6
    )
    assert summary.truncated
    assert summary.end["total"] == 4
    assert not summary.errors


def test_deadline_inside_the_first_shard_truncates_and_keeps_the_connection(server):
    # The expiry lands while the stream waits on its first shard, the
    # first wait after the header: the stream must still end with the
    # truncated marker and its terminator, so the pooled connection
    # serves the next request.
    client = ServeClient(server.url)
    summary = client.sweep("SERVE-DEBUG", points=[["sleep", 2000]] * 4, deadline_s=0.3)
    assert summary.truncated
    assert summary.end["completed"] == 0
    assert not summary.errors
    assert client.stats()["connections"] == {"accepted": 1, "requests": 2}


def test_one_client_keeps_one_connection(server):
    client = ServeClient(server.url)
    assert client.sweep("FIG4", points=POINTS, seeds=list(SEEDS)).ok
    client.stats()
    client.experiments()
    assert client.stats()["connections"] == {"accepted": 1, "requests": 4}


def test_dropped_idle_connection_reconnects_once(server):
    url, port = server.url, server.port
    client = ServeClient(url)
    client.stats()
    server.stop()  # closes the client's pooled connection while it sits idle
    with ServerThread(fleet_kind="inproc", workers=1, port=port):
        summary = client.sweep("SERVE-DEBUG", points=[["echo", 1]])
        assert summary.ok and summary.outcomes == [("echo", 1, 0)]
        assert client.stats()["connections"] == {"accepted": 1, "requests": 2}
    # Pooled and stale again; the one resend finds nobody listening.
    with pytest.raises(ConnectionRefusedError):
        client.stats()
    with pytest.raises(ConnectionRefusedError):
        ServeClient(url).stats()


def test_abandoned_stream_still_cancels(server):
    client = ServeClient(server.url)
    body = {
        "experiment": "SERVE-DEBUG",
        "points": [["sleep", 400]] + [["sleep", 3000]] * 12,
        "seeds": 1,
    }
    for line in client.stream("/v1/sweep", body):
        assert line["kind"] == "header"
        break  # abandoning the stream closes its connection

    deadline = time.monotonic() + 15
    stats = client.stats()
    while time.monotonic() < deadline:
        stats = client.stats()
        if stats["requests"]["cancelled"] and stats["requests"]["active"] == 0:
            break
        time.sleep(0.1)
    assert stats["requests"]["cancelled"] == 1
    assert stats["connections"]["accepted"] == 2  # the abandoned one was not reused


def test_threads_sharing_one_client_get_local_outcomes(server):
    expected = pickle.dumps(list(run_sweep(fig4._measure, TASKS, jobs=1)), 4)
    client = ServeClient(server.url)
    answers = []

    def hammer():
        for _ in range(3):
            answers.append(client.sweep("FIG4", points=POINTS, seeds=list(SEEDS)))

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 12
    assert all(pickle.dumps(answer.outcomes, 4) == expected for answer in answers)
    # Connections open only when the pool is empty: never more than callers.
    assert client.stats()["connections"]["accepted"] <= len(threads)
