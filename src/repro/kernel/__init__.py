"""The simulation kernel shared by both substrates.

The synchronous lockstep engine (:mod:`repro.sync.engine`) and the
asynchronous discrete-event scheduler (:mod:`repro.asyncnet.scheduler`)
simulate very different system models, but everything *around* the
model is the same job twice: injecting faults, copying process states,
and recording what happened.  This package extracts that common layer:

- :mod:`repro.kernel.faults` — one :class:`FaultPlan` describing a
  fault scenario (crash schedule, omission adversary, systemic
  corruption, asynchrony knobs) that can be aimed at either substrate;
- :mod:`repro.kernel.delivery` — the round ledger: the one definition
  of who hears whom in a synchronous round under a fault plan, read by
  the engine, the live interposer, the array control plane and the
  proof plane;
- :mod:`repro.kernel.events` — the observer/event-bus API
  (``on_round_start``, ``on_send``, ``on_deliver``, ``on_fault``,
  ``on_state_commit``, ...) both engines emit instead of doing inline
  history bookkeeping;
- :mod:`repro.kernel.recorders` — the observers that rebuild the
  classic artifacts (:class:`~repro.histories.history.ExecutionHistory`
  and :class:`~repro.asyncnet.scheduler.AsyncTrace`) from the event
  stream;
- :mod:`repro.kernel.snapshot` — the state-snapshot helper both
  engines use instead of blanket ``copy.deepcopy``;
- :mod:`repro.kernel.topology` — the pluggable communication topology
  (complete / ring / tree / random / explicit, plus
  :class:`~repro.kernel.topology.DynamicTopology` driven by churn
  events in the :class:`FaultPlan`) that defines what "broadcast"
  means in every substrate.
"""

from repro._lazy import lazy_surface

__all__ = [
    "AsyncFaultView",
    "AsyncMessage",
    "AsyncTraceRecorder",
    "ChurnEvent",
    "ChurnSchedule",
    "CompleteTopology",
    "ComposedAdversary",
    "CrashScheduleAdversary",
    "DynamicTopology",
    "EventBus",
    "ExplicitTopology",
    "GridTopology",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FrozenDict",
    "HistoryRecorder",
    "LiveTraceRecorder",
    "Liveness",
    "Observer",
    "RandomTopology",
    "RingTopology",
    "RoundLedger",
    "ServeEvent",
    "SyncFaultView",
    "Topology",
    "TreeTopology",
    "copy_payload",
    "freeze",
    "imm",
    "normalize_topology",
    "round_edges",
    "snapshot_state",
    "snapshot_states",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".delivery": ("Liveness", "RoundLedger"),
        ".events": (
            "AsyncMessage",
            "EventBus",
            "FaultEvent",
            "FaultKind",
            "Observer",
            "ServeEvent",
        ),
        ".faults": (
            "AsyncFaultView",
            "ComposedAdversary",
            "CrashScheduleAdversary",
            "FaultPlan",
            "SyncFaultView",
        ),
        ".recorders": ("AsyncTraceRecorder", "HistoryRecorder", "LiveTraceRecorder"),
        ".snapshot": (
            "FrozenDict",
            "copy_payload",
            "freeze",
            "imm",
            "snapshot_state",
            "snapshot_states",
        ),
        ".topology": (
            "ChurnEvent",
            "ChurnSchedule",
            "CompleteTopology",
            "DynamicTopology",
            "ExplicitTopology",
            "GridTopology",
            "RandomTopology",
            "RingTopology",
            "Topology",
            "TreeTopology",
            "normalize_topology",
            "round_edges",
        ),
    },
)
