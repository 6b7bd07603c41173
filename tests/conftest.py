"""Shared fixtures and builders for the test suite.

RNG policy: ``repro.util.rng`` is the single source of seed-derivation
helpers — tests must not hand-roll ``random.Random``/hash-based
derivation.  ``derive_seed``/``make_rng`` are re-exported here for
convenience, and the ``rng`` fixture hands each test its own
deterministic generator (seeded by the test's node id, so adding or
reordering tests never shifts another test's stream).
"""

from __future__ import annotations

import pytest

import repro.cache
from repro.core.rounds import RoundAgreementProtocol
from repro.histories.history import (
    ExecutionHistory,
    Message,
    ProcessRoundRecord,
    RoundHistory,
)
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "broadcast_round",
    "derive_seed",
    "make_history",
    "make_record",
    "make_rng",
]


@pytest.fixture(scope="session", autouse=True)
def _run_cache_default_outside_the_cwd(tmp_path_factory):
    """Move the *default* run-cache directory out of the CWD for the session.

    The per-test fixture below covers test bodies.  This one covers what
    runs outside them: session- and module-scoped fixtures (pytest sets
    those up before any function-scoped fixture, so they used to write
    ``./.repro-cache/``), and every ``python -m repro...`` or example
    subprocess, which inherits the environment.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("run-cache")))
        yield


@pytest.fixture(autouse=True)
def _isolated_run_cache(tmp_path):
    """Point the run cache at a per-test directory (and restore after).

    Keeps the suite hermetic: no test reads another test's (or the
    developer's ``.repro-cache/``) entries, and cache state never leaks
    between tests.  Tests that need specific cache behaviour call
    ``repro.cache.configure`` themselves on top of this.
    """
    repro.cache.configure(root=tmp_path / "run-cache")
    try:
        yield
    finally:
        repro.cache.configure()


@pytest.fixture
def rng(request):
    """A per-test deterministic ``random.Random`` (label = test node id)."""
    return make_rng(0, request.node.nodeid)


@pytest.fixture
def round_agreement():
    return RoundAgreementProtocol()


def make_record(
    pid,
    clock=1,
    state=None,
    sent=(),
    delivered=(),
    crashed=False,
    omitted_sends=(),
    omitted_receives=(),
):
    """Terse ProcessRoundRecord builder for hand-written histories."""
    if crashed and state is None and clock is None:
        return ProcessRoundRecord(pid=pid, state_before=None, clock_before=None, crashed=True)
    state = state if state is not None else {"clock": clock}
    return ProcessRoundRecord(
        pid=pid,
        state_before=state,
        clock_before=clock,
        sent=tuple(sent),
        delivered=tuple(delivered),
        crashed=crashed,
        omitted_sends=frozenset(omitted_sends),
        omitted_receives=frozenset(omitted_receives),
    )


def make_history(round_specs):
    """Build an ExecutionHistory from a list of per-round record lists.

    ``round_specs`` is a list (one element per round, starting at round
    1) of lists of ProcessRoundRecord.
    """
    rounds = [
        RoundHistory(round_no=i + 1, records=tuple(records))
        for i, records in enumerate(round_specs)
    ]
    return ExecutionHistory(rounds)


def broadcast_round(round_no, clocks, payloads=None, skip_deliveries=()):
    """One all-to-all broadcast round among live processes.

    ``clocks``: list of clock values (None = crashed).  Every live
    process broadcasts its payload (default: its clock) to everyone
    and receives everything, except (sender, receiver) pairs listed in
    ``skip_deliveries``.
    """
    n = len(clocks)
    payloads = payloads if payloads is not None else list(clocks)
    records = []
    for pid in range(n):
        if clocks[pid] is None:
            records.append(
                ProcessRoundRecord(pid=pid, state_before=None, clock_before=None, crashed=True)
            )
            continue
        sent = tuple(
            Message(sender=pid, receiver=q, sent_round=round_no, payload=payloads[pid])
            for q in range(n)
        )
        delivered = tuple(
            Message(sender=q, receiver=pid, sent_round=round_no, payload=payloads[q])
            for q in range(n)
            if clocks[q] is not None and (q, pid) not in skip_deliveries
        )
        records.append(
            ProcessRoundRecord(
                pid=pid,
                state_before={"clock": clocks[pid]},
                clock_before=clocks[pid],
                sent=sent,
                delivered=delivered,
            )
        )
    return RoundHistory(round_no=round_no, records=tuple(records))
