"""Property-based tests for coteries and stable windows.

The ``ftss_check`` reduction (Definition 2.4 → maximal constant runs)
rests on the coterie being monotone non-decreasing over prefixes.
These tests drive randomized runs — arbitrary corruption, arbitrary
omission/crash schedules — and assert the structural invariants on the
recorded histories.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounds import RoundAgreementProtocol
from repro.experiments import unison
from repro.histories.causality import CausalityTracker
from repro.histories.coterie import coterie_timeline
from repro.histories.stability import is_coterie_monotone, stable_windows
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import RandomCorruption
from repro.sync.delays import RandomDelay
from repro.sync.engine import run_sync

MODES = [
    FaultMode.CRASH,
    FaultMode.SEND_OMISSION,
    FaultMode.RECEIVE_OMISSION,
    FaultMode.GENERAL_OMISSION,
]


def random_run(n, f, mode, seed, rounds=14):
    adversary = RandomAdversary(n=n, f=f, mode=mode, rate=0.5, seed=seed)
    return run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=rounds,
        adversary=adversary,
        corruption=RandomCorruption(seed=seed + 31337),
    ).history


run_params = st.tuples(
    st.integers(min_value=2, max_value=7),  # n
    st.integers(min_value=0, max_value=3),  # f (clamped to n-1)
    st.sampled_from(MODES),
    st.integers(min_value=0, max_value=10_000),  # seed
)


@settings(max_examples=60, deadline=None)
@given(run_params)
def test_coterie_monotone_under_arbitrary_failures(params):
    n, f, mode, seed = params
    history = random_run(n, min(f, n - 1), mode, seed)
    assert is_coterie_monotone(history)


@settings(max_examples=40, deadline=None)
@given(run_params)
def test_correct_processes_enter_coterie_by_round_two(params):
    # Every correct process broadcasts in round 1 and all correct
    # processes receive it, so corrects are coterie members from the
    # 2nd prefix onward.
    n, f, mode, seed = params
    history = random_run(n, min(f, n - 1), mode, seed)
    timeline = coterie_timeline(history)
    correct = history.correct()
    if len(timeline) >= 2 and correct:
        assert correct <= timeline[1]


@settings(max_examples=40, deadline=None)
@given(run_params)
def test_windows_partition_history(params):
    n, f, mode, seed = params
    history = random_run(n, min(f, n - 1), mode, seed)
    windows = stable_windows(history)
    covered = []
    for w in windows:
        covered.extend(range(w.first_round, w.last_round + 1))
    assert covered == list(range(history.first_round, history.last_round + 1))


@settings(max_examples=40, deadline=None)
@given(run_params)
def test_faulty_set_is_subset_of_victims(params):
    n, f, mode, seed = params
    f = min(f, n - 1)
    adversary = RandomAdversary(n=n, f=f, mode=mode, rate=0.5, seed=seed)
    history = run_sync(
        RoundAgreementProtocol(), n=n, rounds=10, adversary=adversary
    ).history
    assert history.faulty() <= adversary.victims
    assert len(history.faulty()) <= f


class ReferenceTracker:
    """Happened-before with no shortcut: every delivered copy is folded.

    The reference :class:`CausalityTracker` is checked against: the same
    update rule (a send carries its sender's knowledge as of the end of
    the round before it was sent), spelled out copy by copy.
    """

    def __init__(self, n):
        self.know = [set() for _ in range(n)]
        self.ends = []  # know-sets at the end of each folded round
        self.first_round = None

    def at_send(self, sender, sent_round):
        index = sent_round - self.first_round - 1
        if index < 0:
            return frozenset()
        return self.ends[min(index, len(self.ends) - 1)][sender]

    def advance(self, round_history):
        if self.first_round is None:
            self.first_round = round_history.round_no
        for record in round_history.records:
            know = self.know[record.pid]
            if record.state_before is not None or record.sent or record.delivered:
                know.add(record.pid)
        updates = []
        for record in round_history.records:
            learned = set()
            for message in record.delivered:
                learned.add(message.sender)
                learned |= self.at_send(message.sender, message.sent_round)
            updates.append(learned)
        for know, learned in zip(self.know, updates):
            know |= learned
        self.ends.append([frozenset(know) for know in self.know])

    def snapshot(self):
        return {pid: frozenset(know) for pid, know in enumerate(self.know)}


tracked_run_params = st.tuples(
    st.integers(min_value=3, max_value=7),  # n
    st.integers(min_value=0, max_value=3),  # f (clamped to n-1)
    st.sampled_from(MODES),
    st.sampled_from(unison.FAMILIES),
    st.sampled_from([0.0, 0.35]),  # share of copies one round late
    st.integers(min_value=0, max_value=10_000),  # seed
)


@settings(max_examples=60, deadline=None)
@given(tracked_run_params, st.integers(min_value=0, max_value=5))
def test_tracker_shortcut_matches_the_copy_by_copy_reference(params, offset):
    # Saturated know-sets skip their deliveries; on any topology, under
    # any fault plan, with late copies, and from any slice (whose first
    # rounds deliver copies sent before the window), the answers must be
    # those of folding every copy.
    n, f, mode, family, p_late, seed = params
    history = run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=12,
        adversary=RandomAdversary(n=n, f=min(f, n - 1), mode=mode, rate=0.5, seed=seed),
        corruption=RandomCorruption(seed=seed + 31337),
        delay_model=RandomDelay(seed=seed + 7, p_late=p_late) if p_late else None,
        topology=unison.make_topology(family, n, seed),
    ).history.suffix(offset)
    tracker, reference = CausalityTracker(n), ReferenceTracker(n)
    for round_history in history:
        tracker.advance(round_history)
        reference.advance(round_history)
        assert tracker.snapshot() == reference.snapshot()
