"""Adversarial exploration engine: search the fault-plan space.

The paper's claims are universally quantified over adversaries:
Theorems 1 and 2 assert that *no* protocol survives certain
fault/corruption patterns, while Theorems 3-5 assert the protocols of
Figures 1-4 stabilize under *every* admissible fault plan.  The
experiment sweeps (:mod:`repro.experiments`) exercise hand-written
scenarios; this package turns those spot checks into systematic
evidence by driving both engines through the kernel's
:class:`~repro.kernel.faults.FaultPlan` across whole *spaces* of fault
plans:

- :mod:`repro.explore.space` — the declarative, JSON-able fault-plan
  vocabulary (:class:`PlanSpec`) and space description
  (:class:`PlanSpace`) with exhaustive bounded enumeration, seeded
  random-walk fuzzing, and canonical-form deduplication (symmetry over
  process ids);
- :mod:`repro.explore.checkers` — streaming spec checkers (kernel
  observers retaining clock digests and decision journals, never a
  materialized :class:`~repro.histories.history.ExecutionHistory`);
- :mod:`repro.explore.targets` — the wiring of protocols to specs:
  fig1/fig3/fig4 (violations unexpected — Theorems 3-5) and thm1/thm2
  (violations *sought* — the impossibility theorems, confirmed by
  finding and shrinking a counterexample);
- :mod:`repro.explore.shrink` — the delta-debugging shrinker that
  reduces a violating plan to a locally-minimal counterexample;
- :mod:`repro.explore.artifacts` — replayable JSON artifacts
  (``python -m repro.explore replay <artifact>``);
- :mod:`repro.explore.engine` — the exploration driver
  (dedup → streaming sweep → definition-grade confirm → shrink),
  parallel via :func:`repro.experiments.base.run_sweep`;
- ``python -m repro.explore`` — the CLI, including the CI-budgeted
  ``--smoke`` mode.

See ``docs/explore.md`` for the space/checker/shrinker/replay contract.
"""

from repro._lazy import lazy_surface

__all__ = [
    "Artifact",
    "ExplorationResult",
    "ExplorationTarget",
    "Finding",
    "OmissionSpec",
    "PlanSpace",
    "PlanSpec",
    "TARGETS",
    "dedupe",
    "explore",
    "get_target",
    "load_artifact",
    "replay",
    "save_artifact",
    "shrink",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".artifacts": ("Artifact", "load_artifact", "replay", "save_artifact"),
        ".engine": ("ExplorationResult", "Finding", "explore"),
        ".shrink": ("shrink",),
        ".space": ("OmissionSpec", "PlanSpace", "PlanSpec", "dedupe"),
        ".targets": ("TARGETS", "ExplorationTarget", "get_target"),
    },
)
