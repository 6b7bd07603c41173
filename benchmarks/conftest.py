"""Benchmark-harness plumbing.

Every benchmark regenerates one experiment from DESIGN.md's index: it
times the core run with pytest-benchmark and emits the experiment's
result — the :class:`~repro.analysis.report.ExperimentReport` pairing
the paper's claim with the measured series, and its verdict.  Results
are printed and also written to ``benchmarks/results/<EXPERIMENT_ID>.txt``
(the human-readable table EXPERIMENTS.md references, exactly what
``python -m repro.experiments --out benchmarks/results`` writes) and
``benchmarks/results/BENCH_<EXPERIMENT_ID>.json`` (the same rows,
header-keyed, for dashboards and regression tooling).
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def emit_report():
    """Print an ExperimentResult and persist it under benchmarks/results/."""

    def _emit(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        report, text = result.report, result.render()
        print()
        print(text)
        path = RESULTS_DIR / f"{report.experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        json_path = RESULTS_DIR / f"BENCH_{report.experiment_id}.json"
        json_path.write_text(
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return path

    return _emit
