"""Execution histories and the paper's formal machinery over them.

This subpackage implements Section 2.1 of Gopal & Perry (PODC '93):

- :mod:`repro.histories.history` — round histories and execution
  histories (vectors of per-process state + actions, prefix/suffix
  slicing, the faulty set :math:`\\mathcal{F}(H, \\Pi)`).
- :mod:`repro.histories.causality` — Lamport happened-before over the
  recorded message deliveries.
- :mod:`repro.histories.coterie` — coteries (Definition 2.3) and their
  evolution over prefixes of a history.
- :mod:`repro.histories.stability` — stable-coterie windows, the raw
  material for the ``ftss-solves`` checker (Definition 2.4).
"""

from repro._lazy import lazy_surface

__all__ = [
    "CLOCK_KEY",
    "CausalityTracker",
    "ExecutionHistory",
    "Message",
    "ProcessRoundRecord",
    "RoundHistory",
    "StableWindow",
    "coterie",
    "coterie_timeline",
    "happened_before",
    "is_coterie_monotone",
    "knowledge_timeline",
    "renumber",
    "stable_windows",
    "windows_from_timeline",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".causality": ("CausalityTracker", "happened_before", "knowledge_timeline"),
        ".coterie": ("coterie", "coterie_timeline"),
        ".history": (
            "CLOCK_KEY",
            "ExecutionHistory",
            "Message",
            "ProcessRoundRecord",
            "RoundHistory",
            "renumber",
        ),
        ".stability": (
            "StableWindow",
            "is_coterie_monotone",
            "stable_windows",
            "windows_from_timeline",
        ),
    },
)
