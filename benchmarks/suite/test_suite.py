"""The suite's own tests: ``python -m pytest benchmarks/suite -q``.

Arithmetic (span self time, the percentile rule, ``agree`` verdicts),
isolation (environment scrubbing, the shared-cache refusal), the
contract between ``BENCHMARK.json`` and the code, and two end-to-end
runs: the smoke suite must exit 0 with every end-to-end metric present,
and a deliberately inverted expectation must fail the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import agree
import harness
import layers
import spans
import workloads

RUN = [sys.executable, str(harness.SUITE_DIR / "run.py")]


def _span(name, start, end, thread=1, parent=None):
    return [name, start, end, parent, None, thread, None]


# -- span arithmetic ---------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    recorded = [
        _span("a.outer", 0.0, 10.0),
        _span("b.child", 2.0, 4.0, parent=0),
        _span("b.child", 5.0, 7.0, parent=0),
        _span("c.grandchild", 5.5, 6.0, parent=2),
    ]
    shares = spans.attribute(recorded, 0.0, 10.0)
    assert shares["a.outer"] == pytest.approx(6.0)
    assert shares["b.child"] == pytest.approx(3.5)
    assert shares["c.grandchild"] == pytest.approx(0.5)
    assert shares[spans.UNATTRIBUTED] == pytest.approx(0.0)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_uncovered_wall_is_unattributed_and_rows_sum_to_wall():
    recorded = [_span("a.x", 1.0, 2.0), _span("a.x", 3.0, 4.5)]
    shares = spans.attribute(recorded, 0.0, 6.0)
    assert shares["a.x"] == pytest.approx(2.5)
    assert shares[spans.UNATTRIBUTED] == pytest.approx(3.5)
    # Clipping: only the part of a span inside the window counts.
    assert spans.attribute(recorded, 1.5, 3.5)["a.x"] == pytest.approx(1.0)


def test_concurrent_layers_split_the_instant_and_suite_spans_yield():
    recorded = [
        _span("suite.request", 0.0, 10.0, thread=1),  # a client waiting
        _span("x.work", 2.0, 6.0, thread=2),
        _span("y.work", 4.0, 8.0, thread=3),
    ]
    shares = spans.attribute(recorded, 0.0, 10.0)
    assert shares["x.work"] == pytest.approx(3.0)  # 2 alone + half of 2 shared
    assert shares["y.work"] == pytest.approx(3.0)
    assert shares.get("suite.request", 0.0) == 0.0
    assert shares[spans.UNATTRIBUTED] == pytest.approx(4.0)
    summary = spans.summarize(recorded, [(0.0, 10.0)])
    assert sum(spans.layer_shares(summary).values()) == pytest.approx(1.0)


def test_tracer_wraps_every_reference_and_restores_them():
    sys.path.insert(0, str(harness.SRC))
    import repro.experiments.fig1 as fig1
    import repro.sync.engine as engine

    original = engine.run_sync
    assert fig1.run_sync is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fig1.run_sync is not original and fig1.run_sync is engine.run_sync
        tracer.recording = True
        fig1.one_run(3, 1, seed=0, rounds=4)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert fig1.run_sync is original and engine.run_sync is original
    assert [s[spans.NAME] for s in tracer.spans] == ["sync.run_sync"]
    assert tracer.spans[0][spans.END] > tracer.spans[0][spans.START]
    assert tracer.unresolved == {}


def test_unresolvable_wrap_entry_is_a_note_not_a_crash(monkeypatch):
    sys.path.insert(0, str(harness.SRC))
    monkeypatch.setattr(
        spans, "WRAP_TABLE", (("gone.fn", "repro.sync.engine", "no_such_function", None),)
    )
    monkeypatch.setattr(spans, "ASYNCGEN_TABLE", ())
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert list(tracer.unresolved) == ["gone.fn"]


# -- the percentile rule -----------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([7.0], 90) == 7.0


def test_floor_is_the_tenth_percentile_and_the_minimum_of_few():
    assert harness.floor([5.0, 3.0, 4.0]) == 3.0
    assert harness.floor(list(range(1, 11))) == 1
    assert harness.floor(list(range(1, 101))) == 10


def test_request_floors_compose_a_pass():
    import child
    from workloads import Pass

    def one(latencies):
        return Pass(1.0, 1.0, 4, 0, latencies, "d", [(0.0, 1.0)], {}, [[0, 1, 0, 1], [2, 2, 2, 2]])

    # Loop 0 alternates requests 0 and 1; loop 1 replays request 2.
    floors = child.request_floors([
        one([10.0, 20.0, 12.0, 22.0, 5.0, 6.0, 7.0, 8.0]),
        one([11.0, 19.0, 30.0, 40.0, 9.0, 9.0, 9.0, 9.0]),
    ])
    assert floors == {0: 10.0, 1: 19.0, 2: 5.0}


def test_a_tail_percentile_needs_ten_samples_beyond():
    assert harness.samples_beyond(168, 90) == 16
    assert harness.samples_beyond(168, 95) == 8
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.samples_beyond(1200, 99) == 12  # a serve_warm pass may report p99
    assert harness.samples_beyond(600, 99) == 6  # ... a shorter one may not


# -- agree -------------------------------------------------------------------


def test_agree_verdicts_follow_direction_and_bound():
    assert agree.verdict([100.0], [105.0], "lower", 0.10)[0] == agree.WITHIN
    assert agree.verdict([100.0], [115.0], "lower", 0.10)[0] == agree.REGRESSED
    assert agree.verdict([100.0], [85.0], "lower", 0.10)[0] == agree.IMPROVED
    assert agree.verdict([100.0], [85.0], "higher", 0.10)[0] == agree.REGRESSED
    assert agree.verdict([100.0], [115.0], "higher", 0.10)[0] == agree.IMPROVED


def test_agree_reports_wide_spread_as_unresolved_unless_separated():
    noisy = [80.0, 95.0, 100.0, 105.0, 130.0]
    word, _ = agree.verdict(noisy, [v + 4 for v in noisy], "lower", 0.10)
    assert word == agree.UNRESOLVED
    # Every run of the other side better than every run of the base: resolved.
    word, _ = agree.verdict(noisy, [v / 2 - 10 for v in noisy], "lower", 0.10)
    assert word == agree.IMPROVED
    steady = [99.0, 100.0, 100.0, 101.0]
    assert agree.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[0] == agree.REGRESSED


def _result_set(throughput, digest="d" * 64, examined=2179, seed=0):
    run = {
        "seed": seed, "setup_s": 2.0, "attempted": 100, "failed": 0, "outcome_digest": digest,
        "end_to_end": {
            "throughput_per_s": throughput, "latency_p50_ms": 10.0, "latency_p90_ms": 20.0,
            "cpu_s_per_kop": 5.0, "peak_rss_mb": 50.0,
        },
    }
    traced = {"seed": seed, "per_layer": {name: 0 for name in layers.EXACT_COUNTS}}
    traced["per_layer"]["verify.examined"] = examined
    return {"workloads": {"verify_space": {"untraced": run, "traced": traced}}}


def test_agree_compares_result_sets():
    spec = harness.load_spec()
    rows, agreed = agree.compare([_result_set(100.0)], [_result_set(97.0)], spec)
    assert agreed
    metrics = {row[1].split(" ")[0] for row in rows}
    assert metrics >= {"throughput_per_s", "failed_share", "outcome_digest", "verify.examined"}
    _, agreed = agree.compare([_result_set(100.0)], [_result_set(60.0)], spec)
    assert not agreed
    _, agreed = agree.compare([_result_set(100.0)], [_result_set(100.0, digest="e" * 64)], spec)
    assert not agreed
    _, agreed = agree.compare([_result_set(100.0)], [_result_set(100.0, examined=2000)], spec)
    assert not agreed
    # Different seeds have different inputs: their digests are not compared.
    _, agreed = agree.compare(
        [_result_set(100.0)], [_result_set(100.0, digest="e" * 64, seed=1)], spec
    )
    assert agreed


# -- isolation ---------------------------------------------------------------


def test_child_environment_is_scrubbed(monkeypatch, tmp_path):
    for knob in harness.SCRUBBED_ENV:
        monkeypatch.setenv(knob, "1")
    env = harness.scrubbed_env(tmp_path)
    assert not set(harness.SCRUBBED_ENV) & set(env)
    assert env["PYTHONPATH"] == str(harness.SRC)
    assert env["TMPDIR"] == str(tmp_path)


def test_refuses_a_cache_outside_the_work_directory(tmp_path):
    sys.path.insert(0, str(harness.SRC))
    import repro.cache

    try:
        repro.cache.configure(root=harness.ROOT / ".repro-cache", enabled=True)
        with pytest.raises(harness.SuiteError):
            harness.assert_cache_isolated(tmp_path)
        repro.cache.configure(root=tmp_path / "store", enabled=True)
        harness.assert_cache_isolated(tmp_path)
        repro.cache.configure(enabled=False)
        harness.assert_cache_isolated(tmp_path)
    finally:
        repro.cache.configure()


# -- BENCHMARK.json and the code agree ---------------------------------------


def test_spec_names_what_the_code_measures():
    spec = harness.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.SIZES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    assert set(layers.EXACT_COUNTS) <= {row[0] for row in layers.PER_LAYER}
    assert spec["paths"] == ["benchmarks/suite"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


# -- end to end --------------------------------------------------------------


def test_smoke_suite_exits_zero_with_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(out.read_text())
    spec = harness.load_spec()
    assert set(document["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, runs in document["workloads"].items():
        run = runs["untraced"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, name
        values = dict(run["end_to_end"], setup_s=run["setup_s"])
        for metric in spec["end_to_end"]:
            assert isinstance(values[metric["name"]], float) and values[metric["name"]] > 0, (
                name, metric["name"],
            )
    assert document["suite"]["environment"]["nproc"] >= 1
    assert not harness.WORK_ROOT.exists()


def test_traced_smoke_run_reports_every_layer_metric_and_closes():
    done = subprocess.run(
        RUN + ["--smoke", "--workload", "serve_cold", "--trace", "1"], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and set(line["metrics"]) == {row[0] for row in layers.PER_LAYER}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["metrics"]["serve.executed"]["value"] > 0
    assert line["metrics"]["serve.fleet.execute_ms_per_shard"]["value"] > 0


def test_inverted_expectation_fails_the_run():
    done = subprocess.run(
        RUN + ["--smoke", "--workload", "sync_sweep", "--break-expectation"],
        capture_output=True, text=True,
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.SUITE_DIR, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "sync_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "repro sources not found" in done.stderr
    assert not done.stdout.strip()
