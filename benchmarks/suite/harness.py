"""Shared plumbing of the layered benchmark suite.

Everything here is independent of ``repro``: where the checkout is, how
a workload subprocess's environment is scrubbed, the statistics every
reported number goes through, and the metric tables of
``BENCHMARK.json``.  Workload code lives in :mod:`workloads`, span
recording in :mod:`spans`, micro-probes in :mod:`probes`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Scratch space of a run: stores, server logs, result files.  Inside
#: the checkout (the benchmark may write nowhere else), git-ignored,
#: removed when the run ends.
WORK_ROOT = SUITE_DIR / ".work"

#: Knobs of ``repro`` that would make two runs differ (the
#: ``bench_e2e.py`` failure mode: a default-on cache answering a
#: "cold" measurement).  Removed from every workload subprocess.
SCRUBBED_ENV = ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_CACHE_REMOTE", "REPRO_JOBS")

#: A tail percentile is reported only while this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


class SuiteError(Exception):
    """The suite cannot run here (missing sources, NumPy, unsafe cache)."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names and bounds live."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def require_sources() -> None:
    """Fail clearly when the program under test or NumPy is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SuiteError(f"repro sources not found under {SRC}")
    if not SPEC_PATH.is_file():
        raise SuiteError(f"{SPEC_PATH} not found")
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise SuiteError(
            "NumPy is required (array_scale measures the NumPy data plane); "
            "install the repro[fast] extra"
        ) from None


def scrubbed_env(workdir: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment of a workload (or server) subprocess.

    ``repro`` knobs are removed, ``repro`` is importable, temporary
    files land in the run's work directory, and hash randomization is
    pinned so that the same ``--seed`` does the same work.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    if extra:
        env.update(extra)
    return env


def make_workdir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once the last run has left
    except OSError:
        pass


def assert_cache_isolated(workdir: Path) -> None:
    """Refuse to measure against a store the run does not own.

    The cache must be off, or its directory must sit under this run's
    fresh work directory — never the CWD default ``.repro-cache`` or
    anything else in the checkout.
    """
    import repro.cache

    if not repro.cache.cache_enabled():
        return
    resolved = Path(repro.cache.cache_dir()).resolve()
    if workdir.resolve() not in resolved.parents:
        raise SuiteError(
            f"run cache is enabled at {resolved}, outside this run's work "
            f"directory {workdir}; refusing to measure against shared state"
        )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


#: The floor of repeated identical work: its 10th percentile (the
#: minimum, below ten repetitions).  See README, "Why floors".
FLOOR_PCT = 10


def floor(values: Sequence[float]) -> float:
    """What identical, repeated work costs when nothing disturbs it."""
    return percentile(sorted(values), FLOOR_PCT)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count)) if count else 0


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None below 4 values)."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else None


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

#: Set by ``--break-expectation`` (the suite's self-test): every
#: correctness expectation is inverted, so a healthy program must drive
#: ``failed`` above zero and the exit code non-zero.
BROKEN = False


def expect(condition: bool) -> bool:
    """One correctness expectation of a workload's check."""
    return bool(condition) != BROKEN


# ---------------------------------------------------------------------------
# Result shapes
# ---------------------------------------------------------------------------


def contract_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]]
) -> str:
    """The one-line JSON object a benchmark run ends with."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def environment() -> Dict[str, Any]:
    """What the numbers were measured on (recorded in every result file)."""
    import platform
    import subprocess

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "platform": sys.platform,
    }


def fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def table(headers: List[str], rows: List[List[Any]]) -> str:
    cells = [headers] + [[fmt(c) if not isinstance(c, str) else c for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
