"""``repro.array`` — the batched, vectorized synchronous engine.

A second execution backend for the synchronous model: one
:func:`run_array` call executes *all seeds of a sweep-point batch* as
lanes of flat per-process arrays, on NumPy when available (the
``repro[fast]`` extra) or dependency-free nested lists otherwise (csr
twins only: the dense twins hold NumPy columns and refuse that plane,
so their points fall back to the reference engine).  It is
conformance-checked — for small ``n`` it reconstructs histories
that are digest-identical to :func:`repro.sync.engine.run_sync` —
and then runs four-plus orders of magnitude past the reference
engine's honest range (n = 10^4–10^6).

Entry points:

- :func:`run_array` / :class:`ArrayRunResult` — the batched driver.
- :func:`as_array_protocol` — the batched twin of a reference
  protocol: derived from a clock declaration, or found by its exact
  type (see ``docs/array.md`` for how to add one).
- :mod:`repro.array.conformance` — digest-comparison harness.
- :func:`pick_backend` / :func:`has_numpy` — data-plane selection.

Ineligible combinations (no batched protocol, a dense twin off NumPy,
per-lane churn disagreement, …) raise :class:`ArrayEligibilityError`;
``run_sweep(backend="array")`` catches exactly that and falls back,
loudly, to the reference engine.
"""

from repro._lazy import lazy_surface

__all__ = [
    "ArrayBackendUnavailable",
    "ArrayConformance",
    "ArrayEligibilityError",
    "ArrayProtocol",
    "ArrayRunResult",
    "BACKENDS",
    "LaneConformance",
    "as_array_protocol",
    "assert_conformance",
    "check_conformance",
    "has_numpy",
    "pick_backend",
    "run_array",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".backend": ("ArrayBackendUnavailable", "BACKENDS", "has_numpy", "pick_backend"),
        ".conformance": (
            "ArrayConformance",
            "LaneConformance",
            "assert_conformance",
            "check_conformance",
        ),
        ".engine": ("ArrayRunResult", "run_array"),
        ".protocols": ("ArrayEligibilityError", "ArrayProtocol", "as_array_protocol"),
    },
)
