"""Pinned streaming verdicts: every plan of the five curated spaces.

For each verify target, every plan of its curated space at seed 1 (the
benchmark suite's seed), cut into the slices the suite's
``verify_space`` workload walks, is judged by the streaming checker
twice: once riding its own ``run_sync`` (``SyncClaim.streaming``, the
EXPLORE path) and once inside a chain walk (``ChainWalk.judge``, the
proof plane's path).  Each verdict's checker, holds, violations and
details are hashed in plan order.  The table was captured on the commit
before the checkers became folds over filed rounds
(``PYTHONPATH=src python tests/integration/test_streaming_verdicts.py``
prints it), so a fold that drops a row it still needed, or keeps a
corruption round it should not score, moves a digest.  Regenerate only
to extend the corpus, never to paper over a divergence.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.explore.targets import SYNC_CLAIMS
from repro.verify.explicit import enumerate_space
from repro.verify.targets import VERIFY_TARGETS
from repro.verify.walk import ChainWalk

SEED = 1

#: ``(target, at)`` -> ``(plans, digest)``; ``at=None`` is the target's
#: canonical time.  fig1 at 0 is refuted, so its violations are pinned too.
PINNED = {
    ("fig1", None): (2040, "df66a0862c2f0ee3"),
    ("fig1", 0): (2040, "cada90d84193ccee"),
    ("fig3", None): (50, "c2a4e00b541362a9"),
    ("unison", None): (36, "9f73f0f015900e15"),
    ("thm1", None): (39, "7a7b7e61f77355e0"),
    ("thm2", None): (14, "ca3207975224a139"),
}


def _slices(name):
    """The space's plans, one slice per corruption choice and rounds."""
    target = VERIFY_TARGETS[name]
    space = replace(target.space, seeds=(SEED,))
    for corrupt in space.corruption_choices:
        for rounds in space.corruption_round_choices:
            sliced = replace(
                space, corruption_choices=(corrupt,), corruption_round_choices=(rounds,)
            )
            yield enumerate_space(sliced, target.symmetric)[0]


def _rendered(verdict) -> str:
    return repr((verdict.checker, verdict.holds, verdict.violations, verdict.details))


def verdicts(name, at=None):
    """``(plans, run_sync digest, walk digest)`` for ``name``'s space."""
    claim = SYNC_CLAIMS[name]
    at = VERIFY_TARGETS[name].default_at if at is None else at
    alone, walked = hashlib.sha256(), hashlib.sha256()
    plans = 0
    for specs in _slices(name):
        walk = ChainWalk(claim, at)
        for spec in specs:
            plans += 1
            alone.update(_rendered(claim.streaming(spec, at)).encode() + b"\n")
            walked.update(_rendered(walk.judge(spec)[0]).encode() + b"\n")
    return plans, alone.hexdigest()[:16], walked.hexdigest()[:16]


@pytest.mark.parametrize("name, at", list(PINNED))
def test_streaming_verdicts_are_pinned_on_both_paths(name, at):
    plans, alone, walked = verdicts(name, at)
    assert (plans, alone) == PINNED[name, at]
    assert walked == alone


if __name__ == "__main__":
    print("PINNED = {")
    for name, at in PINNED:
        plans, alone, walked = verdicts(name, at)
        assert walked == alone, (name, at)
        print(f'    ("{name}", {at}): ({plans}, "{alone}"),')
    print("}")
