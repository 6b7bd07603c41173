"""EXT-BOUNDED bench: wraps :mod:`repro.experiments.ext_bounded`."""

from repro.core.bounded import bounded_refutation_sweep
from repro.experiments import ext_bounded


def test_ext_bounded_counter(benchmark, emit_report):
    benchmark(bounded_refutation_sweep, 64, 1, 3, 20, 10, 0)
    result = ext_bounded.run()
    emit_report(result)
    assert result.passed, result.failures
