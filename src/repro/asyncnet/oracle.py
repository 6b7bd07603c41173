"""The Eventually Weak failure detector (◇W) as a simulator oracle.

The paper (following Chandra & Toueg [CT91]) *assumes* a ◇W detector
and builds on top of it.  ◇W is defined by two properties:

- **Weak completeness** — eventually every faulty process is suspected
  by *at least one* correct process (permanently);
- **Eventual weak accuracy** — eventually *at least one* correct
  process is never suspected by any correct process.

An oracle satisfying exactly these properties — no more — is the
faithful realization: before the global stabilization time it suspects
arbitrarily (seeded pseudo-random flicker, correct processes
included); afterwards it suspects each crashed process at exactly one
designated correct *watcher* (weak, not strong, completeness — so the
Figure 4 transformation has real work to do) and never suspects the
designated *anchor* (in fact, after GST it suspects no correct process
at all, which ◇W permits).

Optionally, ``perpetual_false_suspicions`` keeps chosen (watcher,
victim) pairs suspected forever even though the victim is correct —
still legal ◇W as long as the victim is not the anchor — to stress the
consumers' tolerance of everlasting mistakes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.util.rng import derive_seed
from repro.util.validation import require

__all__ = ["WeakDetectorOracle"]


class WeakDetectorOracle:
    """A ground-truth-backed ◇W oracle for the asynchronous simulator."""

    def __init__(
        self,
        n: int,
        crash_times: Mapping[int, float],
        gst: float,
        seed: int = 0,
        flicker_rate: float = 0.25,
        flicker_bucket: float = 1.0,
        perpetual_false_suspicions: Iterable[Tuple[int, int]] = (),
    ):
        self.n = n
        self.gst = gst
        self._crash_times = dict(crash_times)
        self._crash_instants = sorted(self._crash_times.values())
        #: (pid, crash instants passed) -> the post-GST answer.
        self._stable: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._seed = derive_seed(seed, "weak-oracle")
        self._flicker_rate = flicker_rate
        self._flicker_bucket = flicker_bucket

        correct = sorted(set(range(n)) - set(self._crash_times))
        require(bool(correct), "the oracle needs at least one correct process")
        #: The process guaranteed never to be suspected after GST.
        self.anchor = correct[0]
        #: Watcher assignment: the single correct process that will
        #: (eventually, permanently) suspect each crashed process.
        self._watcher: Dict[int, int] = {}
        for index, s in enumerate(sorted(self._crash_times)):
            self._watcher[s] = correct[index % len(correct)]

        self._perpetual = frozenset(perpetual_false_suspicions)
        for watcher, victim in self._perpetual:
            require(
                victim != self.anchor,
                f"perpetual suspicion of the anchor ({self.anchor}) would "
                f"violate eventual weak accuracy",
            )
            require(
                watcher not in self._crash_times,
                f"perpetual watcher {watcher} must be correct",
            )

    def watcher_of(self, s: int) -> Optional[int]:
        """The correct process assigned to suspect crashed ``s``."""
        return self._watcher.get(s)

    def suspects(self, pid: int, time: float) -> FrozenSet[int]:
        """The processes ``pid`` is told to suspect at ``time``."""
        stable = not time < self.gst
        if stable:
            # From GST on the answer changes only at a crash instant.
            key = (pid, bisect_right(self._crash_instants, time))
            answer = self._stable.get(key)
            if answer is not None:
                return answer
        out = {victim for watcher, victim in self._perpetual if watcher == pid}
        if not stable:
            bucket = int(time / self._flicker_bucket)
            for s in range(self.n):
                if s == pid:
                    continue
                roll = derive_seed(self._seed, f"{pid}:{s}:{bucket}") % 1000
                if roll < self._flicker_rate * 1000:
                    out.add(s)
            return frozenset(out)
        for s, crash_time in self._crash_times.items():
            if crash_time <= time and self._watcher[s] == pid:
                out.add(s)
        answer = self._stable[key] = frozenset(out)
        return answer
