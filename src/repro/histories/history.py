"""Round histories and execution histories (paper, Section 2.1).

A *round history* of round ``r`` is a vector that, for each process,
describes the state of the process at the start of round ``r`` and the
actions taken by the process during round ``r``.  An *execution history*
is a sequence of round histories.  The synchronous simulator
(:mod:`repro.sync.engine`) records one of these for every run; all of
the paper's definitions (faulty sets, coteries, problem predicates,
``ftss-solves``) are evaluated over the recorded history, never over
simulator internals — exactly as the paper defines them over histories.

Conventions
-----------
- Processes are identified by integers ``0 .. n-1``.
- Rounds are numbered from 1 (the paper's "actual round number", i.e.
  the external observer's count).  Because of systemic failures a
  process's *round variable* ``c_p`` need not equal the actual round.
- A crashed process's state is *undefined* for subsequent rounds
  (``state_before is None`` / ``clock_before is None``), per the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Optional, Sequence, Tuple

from repro.util.validation import require, require_positive

__all__ = ["Broadcast", "Message", "ProcessRoundRecord", "RoundHistory", "ExecutionHistory"]
__all__ += ["inbox_copies", "wire_copies"]  # how a filed item reads as Message copies

ProcessId = int

#: Clock key: by convention every protocol state is a mapping whose
#: ``"clock"`` entry is the paper's distinguished round variable ``c_p``.
CLOCK_KEY = "clock"


@dataclass(frozen=True)
class Message:
    """A single message placed on the network.

    ``sent_round`` is the actual round in which the message was sent;
    in the perfectly synchronous model it is also the round in which the
    message is delivered (constant, one-round delivery time).
    """

    sender: ProcessId
    receiver: ProcessId
    sent_round: int
    payload: Any

    def __post_init__(self) -> None:
        # The engines build one Message per copy: a well-formed one costs
        # this single branch, and only a suspect one pays for the checks
        # that name what is wrong with it.
        sent_round = self.sent_round
        if not (
            self.sender >= 0
            and self.receiver >= 0
            and type(sent_round) is int
            and sent_round > 0
        ):
            self._validate()

    def _validate(self) -> None:
        require(self.sender >= 0, f"sender must be a process id, got {self.sender}")
        require(
            self.receiver >= 0, f"receiver must be a process id, got {self.receiver}"
        )
        require_positive(self.sent_round, "sent_round")


class Broadcast:
    """One process's broadcast in one round: the unit of the synchronous wire.
    One payload, the ascending ``receivers`` whose copy is on the wire and
    the few ``forged`` copies (``receiver -> Message``) whose payload lies.
    It is the inbox item of every receiver it tells the truth to — like a
    :class:`Message` it promises ``sender``, ``sent_round``, ``payload`` —
    and a copy becomes a :class:`Message` only when somebody reads one."""

    __slots__ = ("sender", "sent_round", "payload", "receivers", "forged")

    def __init__(self, sender, sent_round, payload, receivers, forged=MappingProxyType({})):
        self.sender = sender
        self.sent_round = sent_round
        self.payload = payload
        self.receivers = receivers
        self.forged = forged
        # Message.__post_init__'s one branch, once for all the copies (the
        # first receiver is the least); Message itself names what is wrong.
        if receivers and not (
            sender >= 0 and receivers[0] >= 0 and type(sent_round) is int and sent_round > 0
        ):
            self.copies()

    def copy_to(self, receiver: ProcessId) -> Message:
        """The copy ``receiver`` was sent (its inbox item, if that is a lie)."""
        lie = self.forged.get(receiver)
        return lie or Message(self.sender, receiver, self.sent_round, self.payload)

    def copies(self) -> Tuple[Message, ...]:
        """Every copy on the wire, receivers ascending."""
        return tuple([self.copy_to(receiver) for receiver in self.receivers])

    def __repr__(self) -> str:
        return f"Broadcast({self.sender}, {self.sent_round}, {self.payload!r}, {list(self.receivers)})"


def wire_copies(items: Sequence[Any]) -> Tuple[Message, ...]:
    """Wire items (broadcasts and messages), in order, as messages."""
    copies = (w.copies() if type(w) is Broadcast else (w,) for w in items)
    return tuple(chain.from_iterable(copies))


def inbox_copies(items: Sequence[Any], receiver: ProcessId) -> Tuple[Message, ...]:
    """``receiver``'s inbox items, in order, as the messages it was sent."""
    return tuple([m if type(m) is Message else m.copy_to(receiver) for m in items])


class _Derived:
    """A record attribute worked out from its twin on first read, then kept.
    A record a recorder filed (:meth:`RoundHistory.filed`) holds its ``wire``
    and ``heard`` items and derives the ``sent`` / ``delivered`` tuples of
    :class:`Message`; a hand-built one holds the tuples, and emitted and heard
    what they say.  Not a data descriptor: a value the instance holds is found
    first, at plain-attribute speed."""

    def __init__(self, name, derive):
        self.name, self.derive = name, derive

    def __get__(self, record, owner=None):
        if record is None:
            return ()  # what the dataclass takes for the field's default
        value = record.__dict__[self.name] = self.derive(record)
        return value


@dataclass(frozen=True)
class ProcessRoundRecord:
    """What one process did (and suffered) during one round.

    The deviation flags record *process failures* in the paper's sense:
    a process is faulty once it deviates from its protocol — crashing,
    omitting a send, or omitting a receive.  A process that merely starts
    from a corrupted state but follows its protocol is **not** faulty.

    Attributes
    ----------
    pid:
        The process this record describes.
    state_before:
        The process state at the start of the round (``s_p^r`` together
        with ``c_p^r``), or ``None`` if the process has crashed (the
        paper makes post-crash state undefined).
    clock_before:
        The round variable ``c_p^r`` at the start of the round, or
        ``None`` if crashed.
    sent:
        Messages actually placed on the network this round (i.e. after
        send-omission/crash filtering by the adversary).
    delivered:
        Messages actually delivered to this process this round (after
        receive-omission filtering).
    crashed:
        True if the process crashed in or before this round.
    omitted_sends:
        Receivers to whom this process failed to send a protocol-required
        message this round (send-omission deviations charged to ``pid``).
    omitted_receives:
        Senders whose delivered-to-everyone message this process failed
        to receive this round (receive-omission deviations charged to
        ``pid``).
    forged_sends:
        Receivers to whom this process sent a payload *different from
        what its protocol prescribes* (Byzantine-value deviations; the
        synchronous paper model stops at general omission, but the
        engine supports forgery so §1.2's systemic-vs-Byzantine
        contrast can be run — see the EXT-BYZ experiment).
    """

    pid: ProcessId
    state_before: Optional[Mapping[str, Any]]
    clock_before: Optional[int]
    sent: Tuple[Message, ...] = _Derived("sent", lambda r: wire_copies(r.wire))
    delivered: Tuple[Message, ...] = _Derived("delivered", lambda r: inbox_copies(r.heard, r.pid))
    crashed: bool = False
    omitted_sends: frozenset = field(default_factory=frozenset)
    omitted_receives: frozenset = field(default_factory=frozenset)
    forged_sends: frozenset = field(default_factory=frozenset)

    #: What it emitted (broadcasts, messages) and its inbox items: read without a copy built.
    wire = _Derived("wire", lambda r: r.sent)
    heard = _Derived("heard", lambda r: r.delivered)

    def __getstate__(self) -> dict:  # pickles and copies carry the nine fields only
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @property
    def deviated(self) -> bool:
        """True if this record shows a process failure in this round."""
        return bool(
            self.crashed
            or self.omitted_sends
            or self.omitted_receives
            or self.forged_sends
        )


@dataclass(frozen=True)
class RoundHistory:
    """The vector of per-process records for one actual round.

    ``edges`` is the round's effective communication topology —
    ``edges[p]`` lists p's broadcast receivers (ascending, self
    included) — and stays ``None`` on the default complete graph, so
    complete-graph histories compare equal with pre-topology ones.
    """

    round_no: int
    records: Tuple[ProcessRoundRecord, ...]
    edges: Optional[Tuple[Tuple[ProcessId, ...], ...]] = None

    def __post_init__(self) -> None:
        require_positive(self.round_no, "round_no")
        for index, record in enumerate(self.records):
            if record.pid != index:
                raise ValueError(
                    f"records must be indexed by pid; slot {index} holds pid {record.pid}"
                )

    @classmethod
    def filed(
        cls, round_no, n, snapshots, dead, crashing, wire, heard,
        omitted_sends, omitted_receives, forged_sends, edges=None,
    ) -> "RoundHistory":
        """The round as a recorder filed it, by pid: ``wire[p]`` is what
        ``p`` emitted (broadcasts and messages, in order), ``heard[p]`` its
        inbox items as delivered.  Records keep both as they are and build
        ``sent`` / ``delivered`` when first read.  A process in ``dead``
        crashed earlier; one in ``crashing`` spoke its last words, heard
        nothing and is charged nothing else."""
        records = []
        nothing = frozenset()
        quiet = not (omitted_sends or omitted_receives or forged_sends)
        for pid in range(n):
            gone = pid in dead
            snapshot = None if gone else snapshots.get(pid)
            last = gone or pid in crashing
            clean = quiet or last
            record = object.__new__(ProcessRoundRecord)
            record.__dict__.update(
                pid=pid,
                state_before=snapshot,
                clock_before=None if snapshot is None else snapshot.get(CLOCK_KEY),
                crashed=last,
                omitted_sends=nothing if clean else frozenset(omitted_sends.get(pid, ())),
                omitted_receives=nothing if clean else frozenset(omitted_receives.get(pid, ())),
                forged_sends=nothing if clean else frozenset(forged_sends.get(pid, ())),
                wire=() if gone else wire.get(pid, ()),
                heard=() if last else heard.get(pid, ()),
            )
            records.append(record)
        return cls(round_no, tuple(records), edges)

    @property
    def n(self) -> int:
        return len(self.records)

    def record(self, pid: ProcessId) -> ProcessRoundRecord:
        return self.records[pid]

    def deviators(self) -> frozenset:
        """Processes that committed a process failure during this round."""
        return frozenset(r.pid for r in self.records if r.deviated)


class ExecutionHistory:
    """A finite execution history ``H``: a sequence of round histories.

    Provides the paper's prefix/suffix decomposition (``H = H' · H''``)
    and the derived faulty set :math:`\\mathcal{F}(H, \\Pi)` — here
    recovered from the recorded deviation flags, since the simulator
    tags each deviation as it happens.

    Histories are immutable once constructed; slicing returns new
    ``ExecutionHistory`` objects sharing the underlying round tuples.
    Round numbering in slices is preserved (a suffix's first round keeps
    its actual round number), so analyses can always speak in actual
    rounds of the original execution.
    """

    def __init__(self, rounds: Sequence[RoundHistory]):
        rounds = tuple(rounds)
        require(len(rounds) > 0, "an execution history needs at least one round")
        n = rounds[0].n
        for rh in rounds:
            require(rh.n == n, "all round histories must cover the same process set")
        for prev, nxt in zip(rounds, rounds[1:]):
            if nxt.round_no != prev.round_no + 1:
                raise ValueError(
                    f"rounds must be consecutive: {prev.round_no} then {nxt.round_no}"
                )
        self._rounds = rounds
        self._n = n
        #: Memo of :func:`repro.histories.coterie.coterie_timeline`: a
        #: history never changes, so its timeline is computed once.
        self._coterie_timeline: Optional[Tuple[frozenset, ...]] = None

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self._n

    @property
    def first_round(self) -> int:
        return self._rounds[0].round_no

    @property
    def last_round(self) -> int:
        return self._rounds[-1].round_no

    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[RoundHistory]:
        return iter(self._rounds)

    def round(self, round_no: int) -> RoundHistory:
        """The round history of actual round ``round_no``."""
        index = round_no - self.first_round
        if not 0 <= index < len(self._rounds):
            raise KeyError(
                f"round {round_no} outside history "
                f"[{self.first_round}, {self.last_round}]"
            )
        return self._rounds[index]

    @property
    def processes(self) -> range:
        return range(self._n)

    # -- decomposition ---------------------------------------------------

    def prefix(self, length: int) -> "ExecutionHistory":
        """The ``length``-prefix ``H'`` of ``H = H' · H''``."""
        require(
            1 <= length <= len(self), f"prefix length {length} not in [1, {len(self)}]"
        )
        return ExecutionHistory(self._rounds[:length])

    def suffix(self, start_offset: int) -> "ExecutionHistory":
        """The suffix ``H''`` after dropping the first ``start_offset`` rounds."""
        require(
            0 <= start_offset < len(self),
            f"suffix offset {start_offset} not in [0, {len(self) - 1}]",
        )
        return ExecutionHistory(self._rounds[start_offset:])

    def window(self, first: int, last: int) -> "ExecutionHistory":
        """The sub-history covering actual rounds ``first .. last`` inclusive."""
        require(
            self.first_round <= first <= last <= self.last_round,
            f"window [{first}, {last}] outside history "
            f"[{self.first_round}, {self.last_round}]",
        )
        lo = first - self.first_round
        hi = last - self.first_round + 1
        return ExecutionHistory(self._rounds[lo:hi])

    # -- faulty / correct sets --------------------------------------------

    def faulty(self) -> frozenset:
        """:math:`\\mathcal{F}(H, \\Pi)`: processes that deviated anywhere in H."""
        out: set = set()
        for rh in self._rounds:
            out |= rh.deviators()
        return frozenset(out)

    def correct(self) -> frozenset:
        """:math:`\\mathcal{C}(H, \\Pi)`: processes that never deviated in H."""
        return frozenset(self.processes) - self.faulty()

    def faulty_by_round(self) -> "list[frozenset]":
        """Cumulative faulty sets: element ``i`` is F after round i+1.

        This is the paper's :math:`F^i` ("processes faulty by the end of
        round i", Theorem 3 proof).
        """
        out = []
        current: set = set()
        for rh in self._rounds:
            current |= rh.deviators()
            out.append(frozenset(current))
        return out

    # -- clock access ------------------------------------------------------

    def clock(self, pid: ProcessId, round_no: int) -> Optional[int]:
        """``c_p^r``: process ``pid``'s round variable at the start of round."""
        return self.round(round_no).record(pid).clock_before

    def clocks(self, round_no: int) -> "dict[ProcessId, Optional[int]]":
        """All round variables at the start of ``round_no``."""
        rh = self.round(round_no)
        return {rec.pid: rec.clock_before for rec in rh.records}

    # -- metrics -----------------------------------------------------------

    def messages_sent(self) -> int:
        wires = (rec.wire for rh in self._rounds for rec in rh.records)
        return sum(len(w.receivers) if type(w) is Broadcast else 1 for wire in wires for w in wire)

    def messages_delivered(self) -> int:
        return sum(len(rec.heard) for rh in self._rounds for rec in rh.records)

    # -- misc ----------------------------------------------------------------

    def concat(self, other: "ExecutionHistory") -> "ExecutionHistory":
        """``H = self · other`` (other must continue self's numbering)."""
        return ExecutionHistory(tuple(self._rounds) + tuple(other._rounds))

    def __repr__(self) -> str:
        return (
            f"ExecutionHistory(n={self._n}, rounds="
            f"[{self.first_round}..{self.last_round}])"
        )


def renumber(history: ExecutionHistory, first_round: int = 1) -> ExecutionHistory:
    """Return a copy of ``history`` with rounds renumbered from ``first_round``.

    Useful when treating a suffix as a standalone history (the paper notes
    both halves of a decomposition are themselves histories consistent
    with the protocol).
    """
    rounds = []
    for offset, rh in enumerate(history):
        rounds.append(RoundHistory(first_round + offset, rh.records, rh.edges))
    return ExecutionHistory(rounds)
