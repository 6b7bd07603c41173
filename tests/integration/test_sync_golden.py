"""Golden digests of recorded synchronous runs: the history is pinned.

Every case below is one full :func:`run_sync` whose recorded
:class:`ExecutionHistory` is hashed in the canonical form of
``test_topology_equivalence.py``.  The table was captured on the commit
*before* the engine began narrating a round's messages as one batch
(``PYTHONPATH=src python tests/integration/test_sync_golden.py`` prints
it), so any change to which copies reach the wire, to the order in
which a record lists them, or to what a per-message observer is told
moves a digest.  Regenerate only to *extend* the corpus, never to paper
over a divergence.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # script mode: make ``tests.*`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.core.rounds import RoundAgreementProtocol
from repro.experiments import fig1, fig3, unison
from repro.kernel.events import Observer
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import ChurnEvent, ChurnSchedule, RingTopology
from repro.protocols.unison import MinUnison
from repro.sync.adversary import (
    FaultMode,
    RandomAdversary,
    RoundFaultPlan,
    ScriptedAdversary,
)
from repro.sync.corruption import RandomCorruption
from repro.sync.delays import RandomDelay
from repro.sync.engine import run_sync
from tests.integration.test_topology_equivalence import _digest, history_digest

SEED = 5


def _fig3_history(index: int):
    """The history FIG3's worker judges (it returns only the verdict)."""
    histories = []

    def recording_run_sync(*args, **kwargs):
        result = run_sync(*args, **kwargs)
        histories.append(result.history)
        return result

    original = fig3.run_sync
    fig3.run_sync = recording_run_sync
    try:
        fig3._measure((index, SEED))
    finally:
        fig3.run_sync = original
    (history,) = histories
    return history


def _delayed(observers=()):
    """General omission + corruption under random delay; the last round's
    late copies are still in flight when the run ends."""
    n = 5
    return run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=9,
        fault_plan=FaultPlan(
            omissions=RandomAdversary(
                n=n, f=2, mode=FaultMode.GENERAL_OMISSION, rate=0.4, seed=41
            ),
            initial_corruption=RandomCorruption(seed=43),
        ),
        delay_model=RandomDelay(seed=31, p_late=0.4),
        observers=observers,
    )


def _every_fault_kind():
    """A crash mid-broadcast, a send omission, a receive omission and a
    two-faced forgery, each in a round of its own and two together."""
    n = 5
    script = {
        2: RoundFaultPlan(send_omissions={1: frozenset({0, 3})}),
        3: RoundFaultPlan(
            receive_omissions={2: frozenset({0, 4})},
            forgeries={1: {0: lambda clock: clock + 7, 4: lambda clock: clock + 11}},
        ),
        4: RoundFaultPlan(crashes={3: frozenset({0, 3})}),
        6: RoundFaultPlan(
            send_omissions={1: frozenset({2})},
            receive_omissions={2: frozenset({1, 4})},
        ),
    }
    return run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=8,
        adversary=ScriptedAdversary(f=3, script=script),
        corruption=RandomCorruption(seed=47),
    )


def _ring_churn():
    """A ring that loses process 2 for rounds 3-6 (one churn epoch)."""
    n = 6
    plan = FaultPlan(
        initial_corruption=RandomCorruption(seed=53),
        churn=ChurnSchedule(
            (
                ChurnEvent(round_no=3, kind="leave", pids=(2,)),
                ChurnEvent(round_no=7, kind="join", pids=(2,)),
            )
        ),
    )
    return run_sync(
        MinUnison(), n=n, rounds=14, fault_plan=plan, topology=RingTopology(n)
    )


CASES = {
    **{
        f"fig1-n{n}-f{f}": lambda n=n, f=f: fig1.one_run(n, f, SEED).history
        for n, f in fig1.POINTS
    },
    "fig3-floodmin": lambda: _fig3_history(0),
    "fig3-phasequeen": lambda: _fig3_history(1),
    **{
        f"unison-{family}": lambda family=family: unison.one_run(family, 8, SEED)[
            0
        ].history
        for family in ("complete", "ring", "tree")
    },
    "delayed-in-flight": lambda: _delayed().history,
    "every-fault-kind": lambda: _every_fault_kind().history,
    "ring-churn": lambda: _ring_churn().history,
}

PINNED = {
    "fig1-n3-f1": "314673a805855a6d573e770ce6ce8f9ac04df7083113d89d97bf9aff6ef52207",
    "fig1-n6-f2": "4f50d0fe7877e5029116693152a57abb71e1aace7827d20101f73768a95d5f39",
    "fig1-n10-f3": "c418752de801f6a3a8d8e86290f0535baad5846075399aab8073fee113f8bb2c",
    "fig1-n16-f5": "554b5395689e0f7158ae1abbec43f604ce823d3d099ad2fc4fff5c49ad6c601a",
    "fig3-floodmin": "7771282065d34c4395265152e1680c8e9673b62d0188356f2ac7456900a5466e",
    "fig3-phasequeen": "939cc06be38dc5201bb804c964c363105f622212fce4dbfbb6f308ed9434870a",
    "unison-complete": "ac01dfc3576992abe4c07ebf126cbca10aceb55ed2947978af6072c6092e139f",
    "unison-ring": "25cd13312aaf4f1377dbf5492922d3695b4d1277bdb42836a1fe1b332c26ea86",
    "unison-tree": "2dcad0c0bf6ee0facb0315a1c13d22f5c3b35c7a461bd6f9ff3547fb19cc7a55",
    "delayed-in-flight": "8829bc9aaef76fa584a199c9b23885ce7fb8d0c3545bcbf0b97b37c5c914de39",
    "every-fault-kind": "19cb71ee5848594f443a10c279fb5d5a2b4dfe1392a8a982e04106c752c953b5",
    "ring-churn": "7ee6d50749d511d24d8b2e0edb00c7010b9a5c51b628fccfc54ee5aa07b23832",
}

NARRATED_DELAYED = "a843bb7e16e6dfdf5fd0282da265f1bf091f2c5389677cc282ad85c49113adec"


class Narration(Observer):
    """Every send and delivery as a per-message observer is told of it."""

    def __init__(self):
        self.sequence = []

    def on_send(self, message, time):
        assert time == message.sent_round
        self.sequence.append(("send", message.sender, message.receiver, time))

    def on_deliver(self, message, time):
        self.sequence.append(("deliver", message.sender, message.receiver, time))


def _narrated_delayed() -> Narration:
    narration = Narration()
    _delayed(observers=(narration,))
    return narration


@pytest.mark.parametrize("name", sorted(CASES))
def test_history_digest_is_pinned(name):
    assert history_digest(CASES[name]()) == PINNED[name]


def test_the_delayed_run_ends_with_copies_in_flight():
    last = _delayed().history.round(9)
    in_flight = [
        message
        for record in last.records
        for message in record.sent
        if not last.record(message.receiver).crashed
        and message.sender not in last.record(message.receiver).omitted_receives
        and message not in last.record(message.receiver).delivered
    ]
    assert in_flight, "no copy of the last round was still on its way"


def test_narrated_sequence_is_pinned_and_matches_the_history():
    narration = _narrated_delayed()
    assert _digest(narration.sequence) == NARRATED_DELAYED
    history = _delayed().history
    sends = [event for event in narration.sequence if event[0] == "send"]
    deliveries = [event for event in narration.sequence if event[0] == "deliver"]
    assert len(sends) == history.messages_sent()
    assert len(deliveries) == history.messages_delivered()


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f'    "{case}": "{history_digest(CASES[case]())}",')
    print("}")
    print(f'\nNARRATED_DELAYED = "{_digest(_narrated_delayed().sequence)}"')
