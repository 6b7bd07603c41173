"""Message and overhead accounting.

The compiler and the asynchronous superimposition buy their tolerance
with extra traffic (round tags on every message, estimate broadcasts
instead of unicasts, periodic retransmission).  These helpers quantify
that cost so the FIG3/ASYNC benches can report "Π⁺ costs k× the
messages of Π per decision" style rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.histories.history import ExecutionHistory
from repro.kernel.events import Observer

__all__ = [
    "MessageStats",
    "StreamingMessageStats",
    "run_message_stats",
    "message_overhead",
]


@dataclass(frozen=True)
class MessageStats:
    """Traffic totals for one recorded synchronous run."""

    rounds: int
    messages_sent: int
    messages_delivered: int
    payload_bytes: int

    @property
    def messages_per_round(self) -> float:
        return self.messages_sent / self.rounds if self.rounds else 0.0


def run_message_stats(history: ExecutionHistory) -> MessageStats:
    """Count traffic in a recorded history.

    Payload size is approximated by ``len(repr(payload))`` — a
    simulator has no wire format; the *ratio* between protocols is the
    meaningful number and repr length tracks structural size faithfully
    for the dict/tuple payloads our protocols exchange.
    """
    payload_bytes = 0
    for round_history in history:
        for record in round_history.records:
            # per-copy payloads (a forged one differs): built here, once per table row
            for message in record.sent:
                payload_bytes += len(repr(message.payload))
    return MessageStats(
        rounds=len(history),
        messages_sent=history.messages_sent(),
        messages_delivered=history.messages_delivered(),
        payload_bytes=payload_bytes,
    )


class StreamingMessageStats(Observer):
    """Streaming counterpart of :func:`run_message_stats`.

    Attach to a run's observer bus (``run_sync(...,
    observers=(stats,))``) to accumulate the same traffic totals
    directly from the event stream, without reading (or even keeping)
    the full history.  After the run, :meth:`stats` equals
    ``run_message_stats(result.history)`` exactly — property-tested.

    Also works on the asynchronous substrate, where "rounds" stays 0
    (the async stream has no ``on_round_end``) and the per-round
    ratio is meaningless; the raw counters remain valid.
    """

    def __init__(self) -> None:
        self._rounds = 0
        self._sent = 0
        self._delivered = 0
        self._payload_bytes = 0

    def on_send(self, message, time):
        self._sent += 1
        self._payload_bytes += len(repr(message.payload))

    def on_deliver(self, message, time):
        self._delivered += 1

    def on_round_end(self, round_no):
        self._rounds += 1

    def stats(self) -> MessageStats:
        """The totals accumulated so far."""
        return MessageStats(
            rounds=self._rounds,
            messages_sent=self._sent,
            messages_delivered=self._delivered,
            payload_bytes=self._payload_bytes,
        )


def message_overhead(
    baseline: MessageStats, augmented: MessageStats
) -> Optional[float]:
    """Bytes-per-round overhead factor of ``augmented`` over ``baseline``."""
    if baseline.rounds == 0 or baseline.payload_bytes == 0:
        return None
    base_rate = baseline.payload_bytes / baseline.rounds
    augmented_rate = augmented.payload_bytes / augmented.rounds
    return augmented_rate / base_rate
