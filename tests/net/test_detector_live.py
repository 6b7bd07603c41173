"""The Fig 4 stack on real timers: live traces and their verdicts."""

import pytest

from repro.asyncnet.oracle import WeakDetectorOracle
from repro.detectors.properties import eventual_weak_accuracy, strong_completeness
from repro.detectors.strong import StrongDetector
from repro.kernel.faults import FaultPlan
from repro.net.cluster import LiveDeadlineExceeded, run_detector_live
from repro.sync.corruption import RandomCorruption

N = 4
GST = 30.0
CRASHES = {N - 1: 10.0, N - 2: 20.0}
DURATION = 80.0
TIME_SCALE = 0.01  # 80 virtual units ≈ 0.8 wall seconds


def plan(corrupt=False):
    return FaultPlan(
        crashes=dict(CRASHES),
        gst=GST,
        initial_corruption=RandomCorruption(seed=3) if corrupt else None,
    )


def oracle(seed=0):
    return WeakDetectorOracle(N, CRASHES, gst=GST, seed=seed)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_live_detector_satisfies_diamond_s(transport):
    trace = run_detector_live(
        StrongDetector(),
        N,
        DURATION,
        fault_plan=plan(),
        oracle=oracle(),
        transport=transport,
        time_scale=TIME_SCALE,
        deadline=30,
    )
    assert trace.crashed == frozenset(CRASHES)
    assert strong_completeness(trace).holds
    assert eventual_weak_accuracy(trace).holds


def test_live_detector_self_stabilizes_from_corruption():
    # Theorem 5's point: no initialization required — the live run
    # starts from scrambled memory and still converges.
    trace = run_detector_live(
        StrongDetector(),
        N,
        DURATION,
        fault_plan=plan(corrupt=True),
        oracle=oracle(),
        time_scale=TIME_SCALE,
        deadline=30,
    )
    assert strong_completeness(trace).holds
    assert eventual_weak_accuracy(trace).holds


def test_samples_cover_the_virtual_duration():
    trace = run_detector_live(
        StrongDetector(),
        N,
        40.0,
        fault_plan=plan(),
        oracle=oracle(),
        sample_interval=2.0,
        time_scale=TIME_SCALE,
        deadline=30,
    )
    times = [t for t, _ in trace.samples]
    assert times == sorted(times)
    assert times[0] == 2.0 and times[-1] == 40.0


def test_detector_deadline_raises():
    with pytest.raises(LiveDeadlineExceeded, match="deadline"):
        run_detector_live(
            StrongDetector(),
            N,
            DURATION,
            fault_plan=plan(),
            oracle=oracle(),
            time_scale=1.0,  # 80 wall seconds — far past the watchdog
            deadline=0.2,
        )


def test_live_trace_counts_its_traffic_from_events():
    # The simulator tallies traffic in its loop; the live plane has no
    # such loop, so its recorder must keep counting the narrated events.
    trace = run_detector_live(
        StrongDetector(),
        N,
        40.0,
        fault_plan=plan(),
        oracle=oracle(),
        time_scale=TIME_SCALE,
        deadline=30,
    )
    assert trace.messages_sent > 0
    assert 0 < trace.deliveries <= trace.messages_sent
