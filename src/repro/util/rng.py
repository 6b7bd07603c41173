"""Deterministic, hierarchical random-number generation.

Every randomized component in the library (adversaries, corruption
injectors, workload generators, the asynchronous scheduler) takes an
explicit integer seed.  Components that need several independent streams
derive sub-seeds with :func:`derive_seed`, which hashes the parent seed
together with a string label.  This keeps experiment runs reproducible:
the same top-level seed always yields the same execution, regardless of
the order in which sub-components draw.

:func:`randrange_block` is the one place a stream is drawn in bulk: it
yields what a loop of ``rng.randrange`` calls would, from the same
generator, and leaves the generator where the loop would have left it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

__all__ = ["derive_seed", "make_rng", "randrange_block", "sweep_seed"]

_SEED_BYTES = 8

#: Fewest draws worth a state transplant.  Moving the generator into
#: NumPy and back costs ~0.3 ms whatever the count (a fresh bit
#: generator, two 624-word state copies); ``rng.randrange`` costs
#: ~0.36 us a draw, so the two meet near a thousand draws (docs/perf.md,
#: "The set-up budget").
BLOCK_MIN_COUNT = 1024

_WORD_BITS = 32


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a distinguishing label.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash()``, which is salted per-process).

    >>> derive_seed(42, "adversary") == derive_seed(42, "adversary")
    True
    >>> derive_seed(42, "adversary") != derive_seed(42, "corruption")
    True
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")


def make_rng(seed: int, label: str = "") -> random.Random:
    """Return a private :class:`random.Random` for ``seed`` (and label).

    A fresh generator is returned every call; callers own its state.
    """
    if label:
        seed = derive_seed(seed, label)
    return random.Random(seed)


def randrange_block(
    rng: random.Random, start: int, stop: int, count: int
) -> Sequence[int]:
    """``[rng.randrange(start, stop) for _ in range(count)]``, drawn in bulk.

    Same values, same order, and ``rng`` ends in the same state, so a
    caller may mix this with single draws on one stream.  The result is
    a *column*: a list of ints, or a one-dimensional NumPy ``int64``
    array holding the same values when the block path ran.

    The block path needs no second generator: ``numpy.random.MT19937``
    is CPython's Mersenne Twister, so ``rng``'s state is moved into it,
    32-bit words are taken with ``random_raw``, ``randrange``'s own rule
    is applied to them (keep the top ``width.bit_length()`` bits, reject
    a value ``>= width``; each round of rejection draws exactly as many
    words as values are still missing, so the stream is never overrun),
    and the state is moved back.  It runs when NumPy is importable,
    ``rng`` is exactly a :class:`random.Random` (a subclass may override
    the word source), the width fits one word, the values fit ``int64``
    and ``count >= BLOCK_MIN_COUNT``; everything else takes the loop.
    """
    np = None
    if (
        count >= BLOCK_MIN_COUNT
        and type(rng) is random.Random
        and type(start) is int
        and type(stop) is int
        and 0 < stop - start < 1 << _WORD_BITS
        and -(1 << 63) <= start
        and stop <= 1 << 63
    ):
        try:
            import numpy as np  # noqa: PLC0415 - optional dependency probe
        except ImportError:
            pass
    if np is None:
        return [rng.randrange(start, stop) for _ in range(count)]

    width = stop - start
    version, words, gauss_next = rng.getstate()
    twister = np.random.MT19937()
    twister.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:-1], dtype=np.uint32), "pos": words[-1]},
    }
    shift = np.uint64(_WORD_BITS - width.bit_length())
    kept, missing = [], count
    while missing:
        values = twister.random_raw(missing) >> shift
        values = values[values < width]
        kept.append(values)
        missing -= len(values)
    moved = twister.state["state"]
    rng.setstate(
        (version, (*moved["key"].tolist(), int(moved["pos"])), gauss_next)
    )
    # every value is below 2**32, so the uint64 words read as int64 unchanged
    column = np.concatenate(kept).view(np.int64)
    column += start
    return column


def sweep_seed(experiment: str, point: str, seed: int) -> int:
    """The canonical ``(experiment, sweep-point, seed)`` namespacing.

    Every seed an experiment hands to an engine, adversary, or
    corruption plan is derived as ``sweep_seed(experiment, point,
    seed)``, where ``experiment`` is the registry id (e.g. ``"FIG1"``),
    ``point`` names the sweep point and the role the seed plays at it
    (e.g. ``"n=6,f=2:corruption"``), and ``seed`` is the top-level
    repetition seed.  Namespacing guarantees that (a) distinct
    experiments sharing a repetition seed draw independent randomness,
    (b) distinct sweep points within one experiment do too, and (c) the
    draw at one point never shifts when another point is added or
    removed — which also makes parallel sweep execution
    (:func:`repro.experiments.base.run_sweep`) trivially
    order-independent.

    >>> sweep_seed("FIG1", "n=3,f=1:corruption", 0) == \\
    ...     sweep_seed("FIG1", "n=3,f=1:corruption", 0)
    True
    >>> sweep_seed("FIG1", "n=3,f=1:corruption", 0) != \\
    ...     sweep_seed("FIG2", "n=3,f=1:corruption", 0)
    True
    """
    return derive_seed(seed, f"{experiment}:{point}")
