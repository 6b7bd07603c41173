"""The paper's primary contribution.

- :mod:`repro.core.problems` — problems as predicates on (history,
  faulty set); Assumption 1 (round agreement + rate), Assumption 2
  (uniformity), consensus/broadcast specifications, and the repeated
  problem Σ⁺.
- :mod:`repro.core.solvability` — executable versions of Definitions
  2.1, 2.2, 2.4 and Tentative Definition 1 (``ft-solves``,
  ``ss-solves``, ``ftss-solves``, ``tentatively-solves``).
- :mod:`repro.core.rounds` — the round agreement protocol (Figure 1)
  plus deliberately broken merge variants for ablation.
- :mod:`repro.core.canonical` — the canonical fault-tolerant
  full-information protocol Π (Figure 2) and its standalone runner.
- :mod:`repro.core.compiler` — the compiler Π → Π⁺ (Figure 3).
- :mod:`repro.core.impossibility` — executable renderings of the
  Theorem 1 and Theorem 2 scenario constructions.
"""

from repro._lazy import lazy_surface

__all__ = [
    "BoundedClockAgreementProblem",
    "BoundedRoundAgreement",
    "CanonicalProtocol",
    "CanonicalRunner",
    "CheckReport",
    "ClockAgreementProblem",
    "CompiledProtocol",
    "ConsensusProblem",
    "FreeRunningRoundProtocol",
    "MinMergeRoundProtocol",
    "Problem",
    "RepeatedConsensusProblem",
    "RoundAgreementProtocol",
    "UniformityCondition",
    "Violation",
    "bounded_refutation_sweep",
    "compile_protocol",
    "ft_check",
    "ftss_check",
    "run_ft",
    "ss_check",
    "tentative_check",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".bounded": (
            "BoundedClockAgreementProblem",
            "BoundedRoundAgreement",
            "bounded_refutation_sweep",
        ),
        ".canonical": ("CanonicalProtocol", "CanonicalRunner", "run_ft"),
        ".compiler": ("CompiledProtocol", "compile_protocol"),
        ".problems": (
            "CheckReport",
            "ClockAgreementProblem",
            "ConsensusProblem",
            "Problem",
            "RepeatedConsensusProblem",
            "UniformityCondition",
            "Violation",
        ),
        ".rounds": ("FreeRunningRoundProtocol", "MinMergeRoundProtocol", "RoundAgreementProtocol"),
        ".solvability": ("ft_check", "ftss_check", "ss_check", "tentative_check"),
    },
)
