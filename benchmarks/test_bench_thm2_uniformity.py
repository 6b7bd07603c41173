"""THM2 bench: wraps :mod:`repro.experiments.thm2` with wall-clock timing."""

from repro.core.impossibility import theorem2_scenario
from repro.experiments import thm2


def test_thm2_uniformity_impossibility(benchmark, emit_report):
    benchmark(theorem2_scenario, 3)
    result = thm2.run()
    emit_report(result)
    assert result.passed, result.failures
