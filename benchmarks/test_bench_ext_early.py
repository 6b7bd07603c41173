"""EXT-EARLY bench: wraps :mod:`repro.experiments.ext_early`."""

from repro.experiments import ext_early
from repro.experiments.base import Expectations


def test_ext_early_deciding_latency(benchmark, emit_report):
    benchmark(ext_early.worst_decision_round, 2, 0, Expectations())
    result = ext_early.run()
    emit_report(result)
    assert result.passed, result.failures
