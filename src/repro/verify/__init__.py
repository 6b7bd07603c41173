"""repro.verify — the exhaustive proof plane.

EXPLORE samples large fault-plan spaces and reports what it *found*;
this package walks small, curated spaces **exhaustively** and reports
what *cannot exist*.  One contract, two conformance-checked engines:

- :func:`verify` — prove (or refute) a target's claim over an entire
  fault-plan space, within the bounded horizon the space fixes;
- the **explicit-state engine** (:mod:`repro.verify.explicit`) — pure
  Python, always available: the plans walked as chains of (round,
  configuration, remaining fault script) nodes that merge where their
  futures meet, every plan put before both of EXPLORE's judges, which
  judge each obligation node once; every per-round global state
  hash-consed into a canonical frontier; a proof memoized whole in the
  run cache;
- the **SMT engine** (:mod:`repro.verify.smt`) — optional
  (``pip install repro[smt]``): symbolic initial clocks, so corrupted
  plans are proved for *all* non-negative starts, not just seeded
  draws; loudly unavailable without z3, never an import error.

Verdicts render as replayable certificates
(:mod:`repro.verify.certificates`); refutations embed a concrete plan
byte-identical to an EXPLORE artifact; EXPLORE's shrunk counterexamples
upgrade from locally to *provably* minimal via
:func:`repro.verify.minimal.certify_minimal`.

CLI: ``python -m repro.verify prove|refute|certify|list``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.explore.artifacts import Artifact
    from repro.explore.checkers import SpecVerdict
    from repro.explore.space import PlanSpace
    from repro.verify.result import VerifyResult

__all__ = [
    "CrossCheck",
    "FrontierStats",
    "SmtUnavailableError",
    "SmtUnsupportedError",
    "VERIFY_TARGETS",
    "VerifyResult",
    "VerifyTarget",
    "cross_check",
    "get_verify_target",
    "smt_available",
    "verify",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "repro.explore.artifacts": ("Artifact",),
        "repro.explore.checkers": ("SpecVerdict",),
        "repro.explore.space": ("PlanSpace",),
        ".explicit": ("cached_verify",),
        ".result": ("FrontierStats", "VerifyResult"),
        ".smt": ("SmtUnavailableError", "SmtUnsupportedError", "smt_available", "smt_verify"),
        ".targets": (
            "VERIFY_TARGETS",
            "VerifyTarget",
            "confirm_verdict",
            "get_verify_target",
            "streaming_verdict",
        ),
    },
)

ENGINES = ("explicit", "smt")


def verify(
    target: str,
    n: Optional[int] = None,
    k: Optional[int] = None,
    space: Optional[PlanSpace] = None,
    *,
    at: Optional[int] = None,
    engine: str = "explicit",
    jobs: Optional[int] = None,
    max_plans: Optional[int] = None,
) -> VerifyResult:
    """Exhaust a fault-plan space for ``target``'s claim.

    ``space`` defaults to the target's curated space; ``n`` and ``k``
    resize it (system size and bounded horizon respectively) — the
    space stays a full cross-product, so the verdict is still about an
    *entire* space, just a resized one.  ``at`` re-instantiates the
    claim's stabilization time where the target supports it.

    ``engine`` is ``"explicit"`` (always available; answered from the
    run cache when this very proof is there) or ``"smt"`` (requires z3;
    raises :class:`SmtUnavailableError` otherwise).
    """
    from repro.verify.targets import get_verify_target

    vt = get_verify_target(target)
    resolved = space if space is not None else vt.space
    changes = {}
    if n is not None:
        changes["n"] = n
    if k is not None:
        changes["rounds"] = k
    if changes:
        resolved = replace(resolved, **changes)
    at_value = vt.default_at if at is None else at
    if engine == "explicit":
        from repro.verify.explicit import cached_verify

        return cached_verify(vt, at_value, resolved, jobs=jobs, max_plans=max_plans)
    if engine == "smt":
        from repro.verify.smt import smt_verify

        return smt_verify(vt, at_value, resolved, jobs=jobs, max_plans=max_plans)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


@dataclass(frozen=True)
class CrossCheck:
    """An EXPLORE artifact judged through the verify model.

    The verify model re-derives both verdicts independently of whatever
    run produced the artifact; ``consistent`` means the stored verdict,
    the streaming path, and the definition-grade confirm path all tell
    the same story (streaming is a *filter*, so a holding stream with a
    violating confirm is the inconsistency that matters; the reverse is
    already surfaced as a mismatch by both engines).
    """

    artifact: Artifact
    streaming: SpecVerdict
    confirm: SpecVerdict
    #: confirm reproduced the stored verdict byte-for-byte.
    reproduced: bool

    @property
    def consistent(self) -> bool:
        return self.reproduced and self.streaming.holds == self.confirm.holds


def cross_check(artifact: Artifact) -> CrossCheck:
    """Re-judge an EXPLORE artifact through the verify model.

    Uses :meth:`Artifact.to_verify_instance` to locate the covered
    verify target (raises ``ValueError`` for uncovered targets, e.g.
    the asynchronous ``fig4``), then re-runs the spec through both
    verify codepaths.
    """
    from repro.verify.targets import confirm_verdict, get_verify_target, streaming_verdict

    name, at, spec = artifact.to_verify_instance()
    vt = get_verify_target(name)
    streaming = streaming_verdict(vt, at, spec)
    confirm = confirm_verdict(vt, at, spec)
    reproduced = (
        confirm.holds == artifact.verdict_holds
        and tuple(confirm.violations) == artifact.violations
    )
    return CrossCheck(
        artifact=artifact,
        streaming=streaming,
        confirm=confirm,
        reproduced=reproduced,
    )
