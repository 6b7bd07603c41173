"""◇W → ◇S: the Eventually Strong Failure Detector of Figure 4.

Per target process ``s``, every process ``p`` runs (Figure 4,
verbatim):

    when detect(s):        num[s] += 1; state[s] := "dead"
    when p = s:            num[s] += 1; state[s] := "alive"
    when true:             send (s, num[s], state[s]) to all
    when deliver (s,n,st): if n > num[s]: num[s] := n; state[s] := st

``detect(s)`` is the ◇W oracle's suspicion of ``s``; p's ◇S output is
``{s : state[s] = "dead"}``.

Why it stabilizes without initialization (Theorem 5): the ``num``
counters form a version lattice.  A crashed ``s`` stops producing
"alive" versions while its watcher keeps producing "dead" ones, which
eventually dominate everywhere (strong completeness).  A correct ``s``
is the only source of spontaneous "alive" increments for itself, and —
crucially for systemic failures — ``s`` *also adopts* higher corrupted
versions of its own entry from others, so a planted ``num[s] = 10⁹,
dead`` is overtaken in one adoption + one increment rather than 10⁹
increments.  Convergence time is therefore governed by message delays,
not corruption magnitude (the FIG4 bench measures exactly this).

:class:`LastWriterDetector` is the ablation baseline: same gossip with
the version counters removed (adopt whatever arrives).  From a clean
start it behaves acceptably, but corrupted entries circulate forever —
two processes planted with contradictory entries for the anchor keep
re-infecting each other, and eventual weak accuracy never converges.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping

from repro.asyncnet.scheduler import AsyncProtocol, ProcessContext

__all__ = [
    "StrongDetector",
    "LastWriterDetector",
    "ALIVE",
    "DEAD",
    "fd_initial",
    "fd_tick",
    "fd_adopt",
    "fd_overwrite",
    "fd_suspects",
    "fd_arbitrary",
]

ALIVE = "alive"
DEAD = "dead"


# ---------------------------------------------------------------------------
# The Figure 4 logic as plain functions over a detector sub-state, so it
# can run standalone (StrongDetector) or embedded inside another
# protocol (the consensus of Section 3 runs it alongside itself).
# ---------------------------------------------------------------------------


def fd_initial(n: int) -> Dict[str, Any]:
    """The detector sub-state (Figure 4 needs none, but the scheduler
    wants *some* state; corruption scrambles it anyway)."""
    return {"num": [0] * n, "status": [ALIVE] * n}


def fd_tick(fd: Dict[str, Any], ctx: ProcessContext) -> Any:
    """Run the three "when" guards once; return the gossip payload.

    The caller is responsible for broadcasting the returned payload
    (standalone detector: as its whole message; embedded: piggybacked).
    """
    num, status = fd["num"], fd["status"]
    n, p = ctx.n, ctx.pid
    for s in ctx.weak_suspects():  # when detect(s)
        if 0 <= s < n:
            num[s] += 1
            status[s] = DEAD
    num[p] += 1  # when p = s
    status[p] = ALIVE
    return ("fd", tuple(num), tuple(status))


def fd_adopt(fd: Dict[str, Any], payload: Any, n: int) -> None:
    """Apply the version-guarded adoption for one received gossip."""
    _kind, nums, statuses = payload
    num, status = fd["num"], fd["status"]
    for s, version in enumerate(nums[:n]):
        if version > num[s]:  # when deliver (s, n, st)
            num[s] = version
            status[s] = statuses[s]


def fd_overwrite(fd: Dict[str, Any], payload: Any, n: int) -> None:
    """:func:`fd_adopt` without its version guard: the last writer wins."""
    _kind, nums, statuses = payload
    num, status = fd["num"], fd["status"]
    for s, version in enumerate(nums[:n]):
        num[s] = version
        status[s] = statuses[s]


def fd_suspects(fd: Dict[str, Any]) -> FrozenSet[int]:
    """The ◇S output: targets currently believed dead."""
    return frozenset(s for s, status in enumerate(fd["status"]) if status == DEAD)


def fd_arbitrary(n: int, rng) -> Dict[str, Any]:
    """Arbitrary detector sub-state (systemic failure)."""
    return {
        "num": [rng.randrange(0, 1 << 30) for _ in range(n)],
        "status": [rng.choice((ALIVE, DEAD)) for _ in range(n)],
    }


class StrongDetector(AsyncProtocol):
    """Figure 4, run for every target simultaneously.

    State: ``num`` and ``status`` vectors indexed by target pid.  Each
    tick performs the three "when" guards for every target (query the
    ◇W oracle, self-increment, gossip the whole vector in one message);
    deliveries apply the version-guarded adoption pointwise.
    """

    name = "eventually-strong-detector"

    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        return fd_initial(n)

    def on_tick(self, ctx: ProcessContext) -> None:
        # when true: gossip every (s, num[s], state[s]) — batched into
        # one vector message per tick (semantically identical, one
        # network event instead of n).
        ctx.broadcast(fd_tick(ctx.state, ctx))

    def on_message(self, ctx: ProcessContext, sender: int, payload: Any) -> None:
        if payload[0] == "fd":
            fd_adopt(ctx.state, payload, ctx.n)

    def output(self, state: Mapping[str, Any]) -> FrozenSet[int]:
        """The ◇S suspect set: targets currently believed dead."""
        return fd_suspects(state)

    def arbitrary_state(self, pid: int, n: int, rng) -> Dict[str, Any]:
        """Systemic failure over the detector's state space.

        Version counters are scrambled over many orders of magnitude —
        the regime Theorem 5's "no initialization required" is about.
        """
        return fd_arbitrary(n, rng)


class LastWriterDetector(StrongDetector):
    """Ablation: Figure 4 with the version counters disabled.

    Adoption is unconditional (last writer wins), so stale or planted
    entries are never dominated — they keep circulating.  Satisfies ◇S
    from a clean start in quiet networks, diverges under systemic
    failures; the THM5 bench quantifies the difference.
    """

    name = "last-writer-detector"

    def on_message(self, ctx: ProcessContext, sender: int, payload: Any) -> None:
        if payload[0] == "fd":
            fd_overwrite(ctx.state, payload, ctx.n)
