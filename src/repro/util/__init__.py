"""Shared utilities: seeded randomness, validation, and text formatting.

These helpers are deliberately dependency-free so every other subpackage
can import them without cycles.
"""

from repro._lazy import lazy_surface

__all__ = [
    "derive_seed",
    "make_rng",
    "require",
    "require_non_negative",
    "require_positive",
    "require_process_count",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".rng": ("derive_seed", "make_rng"),
        ".validation": (
            "require",
            "require_non_negative",
            "require_positive",
            "require_process_count",
        ),
    },
)
