"""EXT-SKEW bench: wraps :mod:`repro.experiments.ext_skew`."""

from repro.experiments import ext_skew
from repro.sync.delays import RandomDelay


def test_ext_skew(benchmark, emit_report):
    benchmark(ext_skew.run_with, RandomDelay(seed=0, p_late=0.4), 0)
    result = ext_skew.run()
    emit_report(result)
    assert result.passed, result.failures
