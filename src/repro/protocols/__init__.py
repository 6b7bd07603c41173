"""Process-failure-tolerant protocols in the paper's canonical form.

These are the protocols Π that the compiler (Figure 3) transforms.
Each one is:

- **round-based and full-information** — the transition is a pure
  function of (pid, state, received states, protocol round);
- **non-uniform** — it never restricts the behaviour of faulty
  processes (no "self-check and halt"), which Theorem 2 makes a
  prerequisite for compilability;
- specified with an **unbounded** round counter (Python ints).

Inventory:

- :class:`~repro.protocols.floodmin.FloodMinConsensus` — crash faults,
  any ``f < n``, ``f + 1`` rounds, decide the minimum value seen.
- :class:`~repro.protocols.phaseking.PhaseQueenConsensus` — general
  omission (indeed Byzantine) faults, ``n > 4f``, ``2(f + 1)`` rounds.
- :class:`~repro.protocols.broadcast.FloodBroadcast` — crash-tolerant
  reliable broadcast, ``f + 1`` rounds.
- :mod:`~repro.protocols.repeated` — helpers for the repeated problem
  Σ⁺ (extracting per-iteration decisions from compiled runs).
- :mod:`~repro.protocols.unison` — the unison family for arbitrary
  communication graphs (:class:`~repro.protocols.unison.MinUnison`,
  :class:`~repro.protocols.unison.BoundedUnison`); not compiler inputs
  but the self-stabilization benchmark the topology layer unlocks
  (see ``docs/topology.md``).
"""

from repro._lazy import lazy_surface

__all__ = [
    "BoundedUnison",
    "BroadcastProblem",
    "EarlyDecidingFloodMin",
    "FloodBroadcast",
    "FloodMinConsensus",
    "InteractiveConsistency",
    "IterationDecision",
    "MinUnison",
    "PhaseQueenConsensus",
    "VectorConsensusProblem",
    "iteration_decisions",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".broadcast": ("BroadcastProblem", "FloodBroadcast"),
        ".earlydeciding": ("EarlyDecidingFloodMin",),
        ".floodmin": ("FloodMinConsensus",),
        ".interactive": ("InteractiveConsistency", "VectorConsensusProblem"),
        ".phaseking": ("PhaseQueenConsensus",),
        ".repeated": ("IterationDecision", "iteration_decisions"),
        ".unison": ("BoundedUnison", "MinUnison"),
    },
)
