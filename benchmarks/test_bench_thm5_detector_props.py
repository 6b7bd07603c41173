"""THM5 bench: wraps :mod:`repro.experiments.thm5` with wall-clock timing."""

from repro.detectors.strong import StrongDetector
from repro.experiments import thm5


def test_thm5_detector_properties(benchmark, emit_report):
    benchmark(thm5.one_run, StrongDetector, 0)
    result = thm5.run()
    emit_report(result)
    assert result.passed, result.failures
