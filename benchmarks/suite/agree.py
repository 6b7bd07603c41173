"""``run.py agree A.json[,A2.json...] B.json[,...]``: do two sides agree?

Direction-aware, one row per end-to-end metric x workload, under the
bounds ``BENCHMARK.json`` fixes.  ``A`` is the base.  Each side is one
result file or several (comma-separated runs of one commit); values are
compared by their medians.  With at least four runs a side, a metric
whose run-to-run spread is wider than its bound is *unresolved*, not
unchanged — unless every run of one side beats every run of the other.
Runs of the same seed must also have equal outcome digests and equal
exact-count layer metrics.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import layers

WITHIN, IMPROVED, REGRESSED, UNRESOLVED = "within", "improved", "regressed", "unresolved"
SAME, DIFFERENT = "same", "DIFFERENT"


def verdict(
    base_runs: Sequence[float], other_runs: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, worsening)`` of the other side's runs against the base's.

    ``worsening`` is the change of the median as a share of the base's,
    positive when the other side is worse in the metric's direction.
    """
    sign = 1.0 if better == "lower" else -1.0
    base, other = harness.median(base_runs), harness.median(other_runs)
    worsening = sign * (other - base) / abs(base) if base else 0.0
    ours, theirs = [sign * v for v in other_runs], [sign * v for v in base_runs]
    separated = max(ours) < min(theirs) or min(ours) > max(theirs)
    spreads = [s for s in (harness.spread(base_runs), harness.spread(other_runs)) if s is not None]
    if spreads and max(spreads) > bound and not separated:
        return UNRESOLVED, worsening
    if worsening > bound:
        return REGRESSED, worsening
    if worsening < -bound:
        return IMPROVED, worsening
    return WITHIN, worsening


def _end_to_end(run: Dict[str, Any], metric: str) -> Optional[float]:
    if metric == "setup_s":
        return run.get("setup_s")
    return run.get("end_to_end", {}).get(metric)


def _runs(side: Sequence[Dict[str, Any]], workload: str, mode: str) -> List[Dict[str, Any]]:
    found = [doc["workloads"].get(workload, {}).get(mode) for doc in side]
    return [run for run in found if run and "error" not in run]


def compare(
    a: Sequence[Dict[str, Any]], b: Sequence[Dict[str, Any]], spec: Dict[str, Any]
) -> Tuple[List[List[Any]], bool]:
    """Rows ``[workload, metric, A, B, change, verdict]`` and overall agreement."""
    rows: List[List[Any]] = []
    agreed = True
    for name in [w["name"] for w in spec["workloads"]]:
        runs_a, runs_b = _runs(a, name, "untraced"), _runs(b, name, "untraced")
        if runs_a and runs_b:
            for metric in spec["end_to_end"]:
                key = metric["name"]
                values_a = [_end_to_end(run, key) for run in runs_a]
                values_b = [_end_to_end(run, key) for run in runs_b]
                word, change = verdict(values_a, values_b, metric["better"], metric["bound"])
                rows.append([
                    name, key, harness.median(values_a), harness.median(values_b),
                    f"{change:+.1%}", word,
                ])
                agreed &= word in (WITHIN, IMPROVED)
            share_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
            share_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
            clean = share_a == 0 and share_b == 0
            rows.append([name, "failed_share", share_a, share_b, "", WITHIN if clean else REGRESSED])
            agreed &= clean
        for mode, keys in (("untraced", ("outcome_digest",)), ("traced", layers.EXACT_COUNTS)):
            by_seed_a = {run["seed"]: run for run in _runs(a, name, mode)}
            for run_b in _runs(b, name, mode):
                run_a = by_seed_a.get(run_b["seed"])
                if run_a is None:
                    continue
                facts_a, facts_b = (
                    (run_a, run_b) if mode == "untraced" else (run_a["per_layer"], run_b["per_layer"])
                )
                for key in keys:
                    value_a, value_b = facts_a.get(key), facts_b.get(key)
                    same = value_a == value_b
                    shown = [str(v)[:12] for v in (value_a, value_b)]
                    rows.append([name, f"{key} (seed {run_b['seed']})", *shown, "", SAME if same else DIFFERENT])
                    agreed &= same
    return rows, agreed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py agree A.json[,A2.json...] B.json[,B2.json...]", file=sys.stderr)
        return 2
    sides = []
    for paths in argv:
        side = []
        for path in paths.split(","):
            with open(path, encoding="utf-8") as handle:
                side.append(json.load(handle))
        sides.append(side)
    rows, agreed = compare(sides[0], sides[1], harness.load_spec())
    print(harness.table(["workload", "metric", "A", "B", "change", "verdict"], rows))
    print("agree: " + ("yes" if agreed else "NO"))
    return 0 if agreed else 1
