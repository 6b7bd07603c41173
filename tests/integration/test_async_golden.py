"""Golden digests of asynchronous runs: the RNG stream and event order are pinned.

Every case below is one full :class:`AsyncScheduler` run whose
``(samples, final_states, crashed, messages_sent, deliveries)`` is
hashed.  The table was captured on the commit *before* the event loop
was flattened (``PYTHONPATH=src python tests/integration/
test_async_golden.py`` prints it), so any change to the order in which
the seeded RNG is consumed, to the order events leave the heap, or to
which copy of a payload a handler sees moves a digest.  Regenerate only
to *extend* the corpus, never to paper over a divergence.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.asyncnet.oracle import WeakDetectorOracle
from repro.asyncnet.scheduler import AsyncScheduler
from repro.cache.digest import canonical_bytes
from repro.detectors.strong import LastWriterDetector, StrongDetector
from repro.experiments import abl_retx, async_cons, ext_heartbeat, fig4, thm5
from repro.kernel.events import Observer
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import ChurnEvent, ChurnSchedule, RingTopology
from repro.sync.corruption import RandomCorruption


def trace_digest(trace) -> str:
    return hashlib.sha256(
        canonical_bytes(
            (
                trace.samples,
                trace.final_states,
                trace.crashed,
                trace.messages_sent,
                trace.deliveries,
            )
        )
    ).hexdigest()


class Narration(Observer):
    """Every send and delivery, in bus order, with every field."""

    def __init__(self):
        self.sends = []
        self.deliveries = []

    def on_send(self, message, time):
        self.sends.append(
            (message.sender, message.receiver, message.payload, message.sent_time, time)
        )

    def on_deliver(self, message, time):
        self.deliveries.append(
            (message.sender, message.receiver, message.payload, message.sent_time, time)
        )

    def digest(self) -> str:
        return hashlib.sha256(
            canonical_bytes((self.sends, self.deliveries))
        ).hexdigest()


def _detector(n=4, seed=0, gst=0.0, crashes=None, max_time=80.0, **knobs):
    crashes = {n - 1: 10.0} if crashes is None else crashes
    oracle = WeakDetectorOracle(n, crashes, gst=gst, seed=seed)
    return AsyncScheduler(
        StrongDetector(),
        n,
        seed=seed,
        gst=gst,
        crash_times=crashes,
        oracle=oracle,
        corruption=RandomCorruption(seed=seed + 17),
        **knobs,
    ).run(max_time=max_time)


def _ring_churn(observers=()):
    n = 6
    crashes = {5: 12.0}
    plan = FaultPlan(
        crashes=crashes,
        gst=15.0,
        initial_corruption=RandomCorruption(seed=23),
        mid_corruptions={30.0: RandomCorruption(seed=29)},
        churn=ChurnSchedule(
            (
                ChurnEvent(round_no=5, kind="leave", pids=(1,)),
                ChurnEvent(round_no=20, kind="join", pids=(1,)),
                ChurnEvent(
                    round_no=25,
                    kind="partition",
                    groups=(frozenset({0, 1, 2}), frozenset({3, 4, 5})),
                ),
                ChurnEvent(round_no=40, kind="heal"),
            )
        ),
    )
    return AsyncScheduler(
        StrongDetector(),
        n,
        seed=11,
        oracle=WeakDetectorOracle(n, crashes, gst=15.0, seed=11),
        fault_plan=plan,
        topology=RingTopology(n),
        observers=observers,
    ).run(max_time=90.0)


def _narrated_fig4() -> Narration:
    narration = Narration()
    n, seed = 4, 2
    crashes = {n - 1: 10.0, n - 2: 20.0}
    AsyncScheduler(
        StrongDetector(),
        n,
        seed=seed,
        gst=fig4.GST,
        crash_times=crashes,
        oracle=WeakDetectorOracle(n, crashes, gst=fig4.GST, seed=seed),
        duplicate_probability=0.2,
        observers=(narration,),
    ).run(max_time=60.0)
    return narration


CASES = {
    "fig4-n4-clean": lambda: fig4.one_run(4, 0, False),
    "fig4-n4-corrupted": lambda: fig4.one_run(4, 1, True),
    "fig4-n6-clean": lambda: fig4.one_run(6, 2, False),
    "fig4-n6-corrupted": lambda: fig4.one_run(6, 3, True),
    "thm5-strong": lambda: thm5.one_run(StrongDetector, 0),
    "thm5-last-writer": lambda: thm5.one_run(LastWriterDetector, 1),
    "async-cons-ss-corrupted": lambda: async_cons.one_run("ss", 0, True),
    "async-cons-plain-clean": lambda: async_cons.one_run("plain", 1, False),
    "ext-heartbeat-consensus": lambda: ext_heartbeat.consensus_run(0, True, 120.0),
    "ext-heartbeat-detector": lambda: ext_heartbeat.detector_run(1, 16.0),
    "abl-retx-ss": lambda: abl_retx.one_run("ss", True, max_time=100.0),
    "abl-retx-no-retransmit": lambda: abl_retx.one_run(
        "ss-no-retransmit", False, max_time=100.0
    ),
    "pre-gst-heavy": lambda: _detector(
        n=5, seed=7, gst=70.0, pre_gst_delay_max=25.0, max_time=100.0
    ),
    "duplicates": lambda: _detector(n=4, seed=5, duplicate_probability=0.3),
    "ring-churn": _ring_churn,
}

PINNED = {
    "fig4-n4-clean": "2fe03f6882a159ae87f80f8f5be51be69d1a571696cc090f1f1e5d7e0c6819e0",
    "fig4-n4-corrupted": "ec44679f13f8683c8d0c1109bba018b49507f9ecd76e7c198514e808c09f7e93",
    "fig4-n6-clean": "0f0793fefaf09420585299d8ab46162066a736b5666f8e3e0f88874f06a5ecc2",
    "fig4-n6-corrupted": "aa6c5607b7825eaf8bceae20f89af489c7a9dbb85dbed0b575bbfca8fba456d9",
    "thm5-strong": "f4ef06aa2b092df0b96168c7d49110ee3a82107496682a0e1156ab5e0e373a77",
    "thm5-last-writer": "933b00c4efd5de675b2786d535d28fdc0ce376c2ebed8be75de8b6081626f060",
    "async-cons-ss-corrupted": "cbe3e803d5db7027c17910d5ba63dce574781281083f941f59d7813a59b9edb1",
    "async-cons-plain-clean": "7c4fa6b7eae3ac09ac4d7e80ce2773ba6625133f3c11f711f0611e3343047eb0",
    "ext-heartbeat-consensus": "3fc0ee3b53508ba2f2ecf4e04202ccd12ba73d8c3eceed26aa55632cee49a7f4",
    "ext-heartbeat-detector": "a9dcf191405351e10e87ecc0876096809896ff2637315f83a91d8ea4845385ba",
    "abl-retx-ss": "89655de7e21f730bfd78fe5b8a9072c6a8403c0ddf2f54aa3e110c1ceb2661d3",
    "abl-retx-no-retransmit": "0f6a4e5aa0c272c0bc7aa8805feb42a69d29b0bce0e20fe7856783a85cac5935",
    "pre-gst-heavy": "e22849ed3049e9eb34eca189e0f3bbbfb4adb9227023904a472b59624804c2b1",
    "duplicates": "3d999815b41be9444b3c6a0595ea4f07edd938d4262144339a961580127ec0ee",
    "ring-churn": "3fe069a7d314c1f718e155183938c874674d426945cc010aa9f1eaaf0fa466a3",
}

NARRATED_FIG4 = "b0bfb786dedc5b92a02a9c6328fadc07c2119ad8789f11c14168975dea7e539e"


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_is_pinned(name):
    assert trace_digest(CASES[name]()) == PINNED[name]


def test_narrated_sequence_is_pinned_and_matches_the_counts():
    narration = Narration()
    trace = _ring_churn(observers=(narration,))
    # An observer changes nothing about the run it watches ...
    assert trace_digest(trace) == PINNED["ring-churn"]
    # ... and the counts are the lengths of what it was told.
    assert len(narration.sends) == trace.messages_sent
    assert len(narration.deliveries) == trace.deliveries
    assert _narrated_fig4().digest() == NARRATED_FIG4


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f'    "{case}": "{trace_digest(CASES[case]())}",')
    print("}")
    print(f'\nNARRATED_FIG4 = "{_narrated_fig4().digest()}"')
